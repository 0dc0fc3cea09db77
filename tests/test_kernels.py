import math
from fractions import Fraction

import numpy as np

from _helpers import orbit_ref, rk4_wedge_reference, thermal_ref
from diamondflow import _kernels as K
from diamondflow.geometry import DiamondSpec, NullRadialCoords, from_null, null_from_centered


def test_orbit_identity_at_zero():
    # tanh(atanh v) rounds twice, so u(0) = u0 holds to one ulp (for about
    # one start in eight it is off by that ulp), and exactly at the center.
    rng = np.random.default_rng(7)
    u0 = np.concatenate([[0.37, -0.12], rng.uniform(-1.0, 1.0, 2000)])
    up, um = K.diamond_orbit(u0, -u0, 1.0, np.zeros(1))
    assert (np.abs(up - u0) <= np.spacing(np.abs(u0))).all()
    assert (np.abs(um + u0) <= np.spacing(np.abs(u0))).all()
    for size in (1.0, 1e-200, 1e200):
        up, um = K.diamond_orbit(0.0, 0.0, size, np.zeros(3))
        assert (up == 0.0).all() and (um == 0.0).all()


def test_center_orbit_tanh():
    t = np.linspace(-6.0, 6.0, 61)
    up, um = K.diamond_orbit(0.0, 0.0, 2.0, t)
    np.testing.assert_allclose(up, 2.0 * np.tanh(0.5 * t), rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(um, up, rtol=0, atol=0)


def test_orbit_finite_for_interior_starts():
    # tanh never overflows and never exceeds 1, so interior orbits stay
    # finite and inside the closed diamond for every t.
    rng = np.random.default_rng(11)
    t = np.linspace(-1400.0, 1400.0, 2801)
    edge = np.nextafter(1.0, 0.0)
    for size in (1e-3, 1.0, 1e3):
        starts = rng.uniform(-edge, edge, (200, 2)) * size
        starts[0] = (edge * size, -edge * size)
        for up0, um0 in starts:
            up, um = K.diamond_orbit(max(up0, um0), min(up0, um0), size, t)
            assert np.isfinite(up).all() and np.isfinite(um).all()
            assert (np.abs(up) <= size).all() and (np.abs(um) <= size).all()


def test_orbit_never_crosses():
    # Pairs on and a few ulps beside the central orbit u+ = u- keep
    # u+(t) >= u-(t) for |t| <= 1400: no orbit of an ordered pair is crossed.
    rng = np.random.default_rng(19)
    t = np.concatenate([np.linspace(-1400.0, 1400.0, 1401), rng.uniform(-40.0, 40.0, 600)])
    for size in (1e-3, 1.0, 1e3):
        um = rng.uniform(-0.999, 0.999, 1500) * size
        um[:4] = (np.nextafter(-size, 0.0), 0.0, 0.5 * size, -2.0 ** -1074)
        steps = rng.integers(0, 5, um.size)
        up = um
        for _ in range(4):
            up = np.where(steps > 0, np.nextafter(up, size), up)
            steps -= 1
        up_t, um_t = K.diamond_orbit(up[:, None], um[:, None], size, t)
        assert (up_t >= um_t).all(), size


def test_orbit_matches_mpmath():
    # u(t) = L tanh(atanh(u0/L) + t/2) within 8 ulps of L for |t| <= 1400
    # and L across 200 decades; the orbit never leaves |u| <= L.
    rng = np.random.default_rng(13)
    edge = np.nextafter(1.0, 0.0)
    for _ in range(60):
        size = 10.0 ** rng.uniform(-100.0, 100.0)
        u0 = float(rng.uniform(-edge, edge)) * size
        t = rng.uniform(-1400.0, 1400.0, 10)
        t[0] = rng.uniform(-60.0, 60.0)
        up, _ = K.diamond_orbit(u0, 0.0, size, t)
        assert (np.abs(up) <= size).all()
        for tk, uk in zip(t, up):
            assert abs(uk - orbit_ref(u0, tk, size)) <= 8 * np.spacing(size), (u0, size, tk)


def test_rk4_status_flags():
    up, um, status = K.rk4_diamond(0.0, 0.0, 1.0, 10.0, 1)
    assert status == 1
    _, _, ok = K.rk4_diamond(0.0, 0.0, 1.0, 1.0, 64)
    assert ok == 0
    _, _, status = K.rk4_wedge(0.0, 1.0, -10.0, 1)
    assert status == 1
    _, _, ok = K.rk4_wedge(0.0, 1.0, 1.0, 64)
    assert ok == 0


def test_rk4_diamond_scale_free():
    # The loop steps v = u/L and returns u0 + L (v - v0): t = 0 gives back
    # the start bit for bit, and L 2^k gives exactly 2^k times the result,
    # for L log-uniform in [1e-300, 1e300].
    rng = np.random.default_rng(53)
    for _ in range(200):
        size = math.exp(rng.uniform(math.log(1e-300), math.log(1e300)))
        up, um = (float(u) for u in rng.uniform(-0.9, 0.9, 2) * size)
        assert K.rk4_diamond(up, um, size, 0.0, 5) == (up, um, 0)
        t = float(rng.uniform(-3.0, 3.0))
        out = K.rk4_diamond(up, um, size, t, 40)
        assert out[2] == 0
        # k keeps L 2^k inside [1e-300, 1e300], clear of subnormals.
        k_lo = max(-900, math.ceil(math.log2(1e-300) - math.log2(size)))
        k_hi = min(900, math.floor(math.log2(1e300) - math.log2(size)))
        for k in rng.integers(k_lo, k_hi + 1, 3).tolist():
            s = 2.0 ** k
            assert K.rk4_diamond(s * up, s * um, s * size, t, 40) == (s * out[0], s * out[1], 0)


def _bits(out):
    return out[0].hex(), out[1].hex(), out[2]


def test_rk4_wedge_matches_reference():
    # Without the stage aliases and abs() the loop keeps the reference's
    # bits: on random starts inside and outside the wedge, on NaN and
    # infinities, and where a stage steps out.
    rng = np.random.default_rng(59)
    n = 20000
    rel = np.exp(rng.uniform(-5.0, 5.0, n))
    cases = list(zip((rng.uniform(-1.2, 1.2, n) * rel).tolist(), rel.tolist(),
                     rng.uniform(-4.0, 4.0, n).tolist(), rng.integers(1, 9, n).tolist()))
    special = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0)
    cases += [(a, b, t, 3) for a in special for b in special
              for t in (math.nan, math.inf, -math.inf, 0.0, 1.0, -2.0)]
    stepped_out = 0
    for case in cases:
        want = rk4_wedge_reference(*case)
        assert _bits(K.rk4_wedge(*case)) == _bits(want), case
        stepped_out += want[2]
    assert 1000 < stepped_out < len(cases) - 1000


def test_rk4_matches_closed_form():
    up, um, status = K.rk4_diamond(0.4, -0.2, 1.0, 0.7, 400)
    assert status == 0
    ep, em = K.diamond_orbit(0.4, -0.2, 1.0, np.array([0.7]))
    assert abs(up - ep[0]) < 1e-11
    assert abs(um - em[0]) < 1e-11


def test_global_null_matches_scalar_path():
    # The array columns z_pm give the bits of null_from_centered, crossed
    # pairs (u+ < u-), which map to their mirror image, included.  x0 and x1
    # give the bits of NullRadialCoords.x0 and .radius through from_null of
    # the pair in the centered diamond, x1 moved by L1: translation leaves
    # x0 alone.  At 1e308 and 4e307 sums and differences overflow and are
    # halved first, and subnormal pairs keep the bits of the halved sum.
    rng = np.random.default_rng(11)
    for L, L1 in ((1.0, 0.0), (1.0, 0.7), (3.0, -4.5), (1e-3, 1e-3), (1e200, -1e199),
                  (1e308, 0.0), (4e307, 4e307), (3e-310, 1e-310)):
        up, um = L * rng.uniform(-1.0, 1.0, (2, 400))
        up[:3], um[:3] = (L, -L, 2.5e-323), (-L, L, 5e-324)
        zp, zm, x0, x1 = K.global_null(up, um, L, L1)
        for k in range(up.size):
            pair = (float(up[k]), float(um[k]), (1.0, 0.0, 0.0))
            z = null_from_centered(*pair, DiamondSpec(L, L1))
            x = from_null(null_from_centered(*pair, DiamondSpec(L, 0.0)))
            assert (zp[k], zm[k], x0[k], x1[k]) == (z.z_plus, z.z_minus, x.x0, L1 + x.x1)


def _exact_side(up, um, L1):
    # z_pm of a centered pair from exact rationals: u_pm +- L1 where
    # x1 = L1 + (u+ - u-)/2 >= 0, swapped where x1 < 0.
    up, um, L1 = Fraction(up), Fraction(um), Fraction(L1)
    return (up + L1, um - L1) if L1 + (up - um) / 2 >= 0 else (um - L1, up + L1)


def test_global_null_rounds_once():
    # z_pm are u_pm +- L1 correctly rounded, on the side of x1's exact sign,
    # x0 is (u+ + u-)/2 correctly rounded and x1 = L1 + (u+ - u-)/2 is within
    # an ulp of max(|x1|, |u+|, |u-|), whatever |L1|/L: near and far
    # translations, crossed pairs, pairs whose x1 is 0 or a few ulps from it,
    # beyond |L1| + 2L = 2^1022 and for subnormal pairs.
    rng = np.random.default_rng(29)
    for L, L1 in ((1.0, 0.0), (1.0, 0.7), (3.0, -4.5), (1e-3, 1e-3), (1.0, 1e12),
                  (2.5e-3, -2.5e9), (1e200, -1e199), (4e307, 4e307), (6e307, -6e307),
                  (1e308, 0.0), (3e-310, 1e-310), (1e-320, -3e-321)):
        up, um = L * rng.uniform(-1.0, 1.0, (2, 300))
        up[:4], um[:4] = (L, -L, 2.5e-323, -L), (-L, L, 5e-324, L)
        um[4:8] = up[4:8] + 2.0 * L1 + np.array([0.0, 1.0, -1.0, 2.0]) * np.spacing(L1 + L)
        zp, zm, x0, x1 = K.global_null(up, um, L, L1)
        for k in range(up.size):
            want = tuple(float(z) for z in _exact_side(up[k], um[k], L1))
            assert (zp[k], zm[k]) == want, (L, L1, k)
            p, m = Fraction(up[k]), Fraction(um[k])
            assert x0[k] == float((p + m) / 2), (L, L1, k)
            err = abs(Fraction(x1[k]) - Fraction(L1) - (p - m) / 2)
            bound = np.spacing(max(abs(x1[k]), abs(up[k]), abs(um[k])))
            assert err <= Fraction(bound), (L, L1, k)


def test_crossed_pair_maps_to_mirror():
    # A crossed centered pair, u+ < u-, is the point at x1 = L1 + (u+ - u-)/2
    # on the far side of the center: global_null and null_from_centered
    # give it as the same ordered pair, and in a centered diamond as the
    # swapped pair in the opposite direction.
    rng = np.random.default_rng(31)
    axis = (0.6, 0.0, -0.8)
    for L, L1 in ((1.0, 0.0), (2.0, 0.5), (1.0, -3.0), (1e-3, 1e3)):
        up, um = np.sort(L * rng.uniform(-1.0, 1.0, (200, 2)), axis=1).T
        up[0], um[0] = -L, L
        zp, zm, x0, x1 = K.global_null(up, um, L, L1)
        for k in range(up.size):
            z = null_from_centered(float(up[k]), float(um[k]), axis if L1 == 0.0 else
                                   (1.0, 0.0, 0.0), DiamondSpec(L, L1))
            assert z.z_plus >= z.z_minus
            assert (z.z_plus, z.z_minus) == (zp[k], zm[k])
            assert math.copysign(1.0, z.direction[0]) == (1.0 if x1[k] >= 0.0 else -1.0)
            if L1 == 0.0:
                assert z == NullRadialCoords(um[k], up[k], (-0.6, 0.0, 0.8))


def test_thermal_acceleration_eighth_scale():
    # Below L = 2^-512, a = 2 pi T r/L is formed at an eighth of the scale:
    # the bits of (2 pi T) r/L wherever that is finite, over the whole
    # exponent range, and finite, as mpmath gives it, where only 2 pi T
    # overflows.
    rng = np.random.default_rng(23)
    for e in range(-1074, 1024):
        L = 1.37 * 2.0 ** e
        if not 0.0 < L < math.inf:
            continue
        up, um = rng.uniform(-0.999, 0.999, (2, 16)) * L
        with np.errstate(all="ignore"):
            _, _, _, T, a, ratio = K.thermal(up, um, L)
            want = 2.0 * np.pi * T * ratio
        finite = np.isfinite(want)
        assert np.array_equal(a[finite], want[finite]), L
    for L, vp, vm in ((1e-308, 0.5, -0.5), (2.0 ** -1022, 0.9, -0.3), (5e-308, 0.99, 0.9)):
        up, um = vp * L, vm * L
        with np.errstate(over="ignore"):
            assert 2.0 * np.pi * K.thermal(up, um, L)[3] == math.inf
        a, ref = K.thermal(up, um, L)[4], thermal_ref(up, um, L)["a"]
        q = min(1.0 - vp * vp, 1.0 - vm * vm)
        assert abs(a - ref) <= 4 * 2.0 ** -52 / q * ref, (L, a, ref)


def test_thermal_quarter_scale_keeps_bits():
    # T = 1/(4 pi (L/4) root) above L = 1 has the bits of 1/(pi L root),
    # and the orbit temperature those of cosh rho+ / (pi L) cosh rho-,
    # wherever pi L is finite: L = 1.37 2^e over the whole exponent range.
    rng = np.random.default_rng(17)
    t = np.linspace(-8.0, 8.0, 16)
    for e in range(-1074, 1024):
        L = 1.37 * 2.0 ** e
        if not 0.0 < L < math.inf:
            continue
        up, um = rng.uniform(-0.999, 0.999, (2, 16)) * L
        with np.errstate(all="ignore"):
            T = K.thermal(up, um, L)[3]
            vp, vm = up / L, um / L
            want = 1.0 / (np.pi * L * np.sqrt((1.0 - vp) * (1.0 + vp) * ((1.0 - vm) * (1.0 + vm))))
            orbit = K.orbit_temperature(up, um, L, t)
            rho_p, rho_m = np.arctanh(up / L) + 0.5 * t, np.arctanh(um / L) + 0.5 * t
            orbit_want = np.cosh(rho_p) / (np.pi * L) * np.cosh(rho_m)
        if math.isfinite(math.pi * L):
            assert np.array_equal(T, want), L
            assert np.array_equal(orbit, orbit_want), L
        else:
            assert (T > 0.0).all() and (orbit > 0.0).all(), L
