import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from _helpers import interior_pairs, interior_points, mpmath40, thermal_ref
from diamondflow import _kernels
from diamondflow.errors import NonpositiveAcceleration, OutOfRange, OutOfRegion
from diamondflow.flow import diamond_flow, proper_acceleration, proper_time_rate
from diamondflow.geometry import (
    DiamondSpec,
    NullRadialCoords,
    null_from_centered,
)
from diamondflow.thermo import (
    FourMomentum,
    acceleration_at,
    agreement_window,
    beta_field,
    diamond_temperature,
    radius_along_flow,
    relative_entropy,
    temperature_ratio,
    wedge_temperature,
)

UNIT = DiamondSpec(1.0, 0.0)
TWO_PI = 2.0 * math.pi
EPS = 2.0 ** -52


# ------------------------------------------------------------------ beta field

def test_beta_center():
    assert beta_field(NullRadialCoords(0.0, 0.0), UNIT) == (0.5, 0.5)


def test_beta_boundary_zero():
    bp, bm = beta_field(NullRadialCoords(1.0, 0.0), UNIT)
    assert bp == 0.0
    assert bm == 0.5


def test_beta_scaled_example():
    d = DiamondSpec(2.0, 0.0)
    bp, bm = beta_field(NullRadialCoords(1.0, -1.0), d)
    assert bp == 0.75
    assert bm == 0.75


def test_beta_outside_rejected():
    with pytest.raises(OutOfRegion):
        beta_field(NullRadialCoords(1.5, 0.0), UNIT)


def test_scalar_api_matches_kernel_bits():
    # The scalar API and the field kernel share _kernels.thermal, so every
    # value is the same double, for L across 200 decades; beta also on the
    # closed boundary, where neither beta_field nor relative_entropy may
    # evaluate T's division.  The kernel itself is pinned against mpmath.
    rng = np.random.default_rng(61)
    for L in 10.0 ** rng.uniform(-100.0, 100.0, 40):
        d = DiamondSpec(L)
        pairs = interior_pairs(rng, 25, L, cap=0.999)
        up, um = pairs[:, 0], pairs[:, 1]
        bp, bm, norm, T, a, ratio = _kernels.thermal(up, um, L)
        for k in range(len(pairs)):
            z = NullRadialCoords(up[k], um[k])
            s = diamond_temperature(z, d)
            got = (*s.beta_null, s.beta_norm, s.temperature, s.acceleration,
                   proper_time_rate(z, d), temperature_ratio(z, d), *beta_field(z, d))
            assert all(type(v) is float for v in got)
            assert got == (bp[k], bm[k], norm[k], T[k], a[k], norm[k], ratio[k], bp[k], bm[k])
        for k in range(3):
            w = thermal_ref(up[k], um[k], L)
            q = min(1.0 - (up[k] / L) ** 2, 1.0 - (um[k] / L) ** 2)
            for name, value in (("beta_plus", bp[k]), ("beta_minus", bm[k]),
                                ("beta_norm", norm[k]), ("T", T[k])):
                assert abs(value - w[name]) <= 4 * EPS / q * w[name], (L, k, name)
            assert abs(ratio[k] - w["ratio"]) <= 2 * EPS
            assert abs(a[k] - w["a"]) <= 4 * EPS / q * w["a"] + 4 * math.pi * EPS * w["T"]
        edge_p = np.array([L, L, up[0], L])
        edge_m = np.array([um[0], -L, -L, L])
        want_p = _kernels.null_beta(edge_p, L)[2]
        want_m = _kernels.null_beta(edge_m, L)[2]
        for k in range(edge_p.size):
            z = NullRadialCoords(edge_p[k], edge_m[k])
            with np.errstate(all="raise"):
                assert beta_field(z, d) == (want_p[k], want_m[k])
                assert math.isfinite(relative_entropy(FourMomentum(1.0, 0.5, 0.2), z, d))


def test_beta_translated():
    # beta evaluates in centered coordinates u_pm = z_pm -+ L1.
    d = DiamondSpec(1.0, 2.0)
    bp, bm = beta_field(NullRadialCoords(2.0, -2.0, (1.0, 0.0, 0.0)), d)
    assert bp == 0.5
    assert bm == 0.5


# ----------------------------------------------------------- wedge temperature

def test_wedge_temperature_values():
    assert wedge_temperature(TWO_PI) == 1.0
    assert abs(wedge_temperature(1.0) - 0.15915494309189535) < 1e-16
    assert wedge_temperature(0.5) == 0.5 / TWO_PI


def test_wedge_temperature_rejects():
    with pytest.raises(NonpositiveAcceleration):
        wedge_temperature(0.0)
    with pytest.raises(NonpositiveAcceleration):
        wedge_temperature(-1.0)
    with pytest.raises(NonpositiveAcceleration):
        wedge_temperature(math.inf)


# --------------------------------------------------------- diamond temperature

def test_temperature_center():
    sample = diamond_temperature(NullRadialCoords(0.0, 0.0), UNIT)
    assert abs(sample.temperature - 1.0 / math.pi) < 1e-15
    assert sample.acceleration == 0.0
    assert sample.beta_null == (0.5, 0.5)
    assert sample.beta_norm == 0.5


def test_temperature_center_scaling():
    for L in (1.0, 10.0, 1e3):
        d = DiamondSpec(L, 0.0)
        sample = diamond_temperature(NullRadialCoords(0.0, 0.0), d)
        want = 1.0 / (math.pi * L)
        assert abs(sample.temperature - want) < 1e-12 * want


def test_temperature_boundary_divergence_rate():
    # T ~ eps^(-1/2) toward the null face
    vals = []
    for eps in (1e-2, 1e-4, 1e-6):
        z = NullRadialCoords(1.0 - eps, 0.0)
        vals.append(diamond_temperature(z, UNIT).temperature * math.sqrt(eps))
    assert abs(vals[0] - vals[1]) / vals[1] < 0.02
    assert abs(vals[1] - vals[2]) / vals[2] < 0.001


def test_temperature_definitional_chain():
    rng = np.random.default_rng(31)
    for z in interior_points(rng, 200, UNIT, cap=0.95):
        s = diamond_temperature(z, UNIT)
        assert s.beta_norm == pytest.approx(math.sqrt(s.beta_null[0] * s.beta_null[1]), rel=1e-12)
        assert s.temperature == pytest.approx(1.0 / (TWO_PI * s.beta_norm), rel=1e-12)
        assert s.acceleration == pytest.approx(acceleration_at(z, UNIT), rel=1e-12, abs=1e-300)


def test_temperature_closed_form():
    # T = L / (pi sqrt((L^2-u+^2)(L^2-u-^2)))
    rng = np.random.default_rng(33)
    L, L1 = 1.7, 0.6
    d = DiamondSpec(L, L1)
    for up, um in interior_pairs(rng, 100, L):
        z = null_from_centered(up, um, (1.0, 0.0, 0.0), d)
        T = diamond_temperature(z, d).temperature
        want = L / (math.pi * math.sqrt((L * L - up * up) * (L * L - um * um)))
        assert abs(T - want) < 1e-12 * want


def test_temperature_and_acceleration_scale_with_L():
    # T and a have dimensions of 1/length: T(lam x; lam L) lam = T(x; L)
    # across the whole float range, with no L^2 to overflow or underflow.
    # Starts with r >= 0.05 L keep a well conditioned under the rounding
    # of lam x.
    rng = np.random.default_rng(35)
    for L1 in (0.0, 0.4):
        d = DiamondSpec(1.0, L1)
        for up, um in interior_pairs(rng, 40, cap=0.9):
            if up - um < 0.1:
                continue
            z = null_from_centered(up, um, (1.0, 0.0, 0.0), d)
            T, a = diamond_temperature(z, d).temperature, acceleration_at(z, d)
            for lam in 10.0 ** rng.uniform(-300.0, 300.0, 10):
                zs = NullRadialCoords(lam * z.z_plus, lam * z.z_minus, z.direction)
                ds = DiamondSpec(lam * d.size_L, lam * d.translation_L1)
                assert abs(diamond_temperature(zs, ds).temperature * lam - T) <= 1e-14 * T
                assert abs(acceleration_at(zs, ds) * lam - a) <= 1e-14 * a


def test_tangency_with_flow():
    # (beta+, beta-) is the t=0 derivative of the flow in null coordinates.
    rng = np.random.default_rng(37)
    h = 1e-5
    for z in interior_points(rng, 200, UNIT):
        bp, bm = beta_field(z, UNIT)
        fwd = diamond_flow(z, h, UNIT)
        bwd = diamond_flow(z, -h, UNIT)
        dp = (fwd.z_plus - bwd.z_plus) / (2 * h)
        dm = (fwd.z_minus - bwd.z_minus) / (2 * h)
        assert abs(dp - bp) < 1e-6 * max(1.0, abs(bp))
        assert abs(dm - bm) < 1e-6 * max(1.0, abs(bm))


# ---------------------------------------------------------------- acceleration

def test_acceleration_example():
    assert abs(acceleration_at(NullRadialCoords(0.6, -0.6), UNIT) - 1.875) < 1e-15


def test_acceleration_center_zero():
    assert acceleration_at(NullRadialCoords(0.0, 0.0), UNIT) == 0.0


def test_acceleration_center_zero_where_temperature_overflows():
    # For a subnormal L, T = 1/(pi L) overflows; the central geodesic still
    # has a = 0, not 2 pi T * 0 = nan.
    for L in (1e-310, 5e-324):
        d = DiamondSpec(L)
        sample = diamond_temperature(NullRadialCoords(0.0, 0.0), d)
        assert sample.temperature == math.inf
        assert sample.acceleration == 0.0
        assert acceleration_at(NullRadialCoords(0.0, 0.0), d) == 0.0
        assert not math.copysign(1.0, sample.acceleration) < 0.0


def test_thermal_matches_mpmath_up_to_dbl_max():
    # pi L overflows above L = DBL_MAX/pi, about 5.7e307; T and a stay
    # within a few ulps of mpmath up to DBL_MAX, where T at the center is
    # subnormal and carries an absolute error of up to one 2^-1074.
    mp = mpmath40()
    tiny = 2.0 ** -1074
    for L in (1e300, 5.7e307, 5.73e307, 8e307, 1e308, 1.7976931348623157e308):
        up = np.array([0.999, 0.0, 0.5, 0.999, 0.3]) * L
        um = np.array([-0.999, 0.0, -0.5, 0.998, -0.9]) * L
        bp, bm, norm, T, a, ratio = _kernels.thermal(up, um, L)
        orbit = _kernels.orbit_temperature(up, um, L, 0.75)
        for k in range(up.size):
            w = thermal_ref(up[k], um[k], L)
            q = min(1.0 - (up[k] / L) ** 2, 1.0 - (um[k] / L) ** 2)
            for name, value in (("beta_norm", norm[k]), ("T", T[k])):
                assert abs(value - w[name]) <= 4 * EPS / q * w[name] + tiny, (L, k, name)
            assert abs(a[k] - w["a"]) <= 4 * EPS / q * w["a"] + 8 * tiny, (L, k)
            rho = [mp.atanh(mp.mpf(u) / L) + mp.mpf(0.75) / 2 for u in (up[k], um[k])]
            want = mp.cosh(rho[0]) * mp.cosh(rho[1]) / (mp.pi * L)
            assert abs(orbit[k] - want) <= 8 * EPS / q * want + tiny, (L, k)
        z = NullRadialCoords(up[0], um[0])
        assert acceleration_at(z, DiamondSpec(L)) == a[0]


def test_acceleration_translated_coincidence():
    # For L1 = sqrt(L^2 + w^2) the orbit through (0, w) matches the wedge
    # hyperbola with proper acceleration 1/w.
    for w in (0.5, 1.0, 3.0):
        d = DiamondSpec(1.0, math.sqrt(1.0 + w * w))
        a = acceleration_at(NullRadialCoords(w, -w), d)
        assert abs(a - 1.0 / w) < 1e-12 / w


def test_acceleration_constant_along_orbit():
    z = NullRadialCoords(0.6, -0.6)
    want = 1.875
    for t in np.linspace(-3, 3, 13):
        zt = diamond_flow(z, t, UNIT)
        assert abs(acceleration_at(zt, UNIT) - want) < 1e-12


def test_numerical_acceleration_agrees():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 100:
        (up, um), = interior_pairs(rng, 1, 1.0)
        if 0.5 * (up - um) < 0.05:
            continue
        z = null_from_centered(up, um, (1.0, 0.0, 0.0), UNIT)
        a_formula = acceleration_at(z, UNIT)
        a_numeric = proper_acceleration(z, UNIT)
        assert abs(a_numeric - a_formula) < 1e-3 * a_formula
        checked += 1


def test_translation_covariance():
    rng = np.random.default_rng(43)
    L = 1.4
    centered = DiamondSpec(L, 0.0)
    for L1 in (0.9, -1.7, 4.0):
        d = DiamondSpec(L, L1)
        for up, um in interior_pairs(rng, 50, L):
            zc = null_from_centered(up, um, (1.0, 0.0, 0.0), centered)
            zs = null_from_centered(up, um, (1.0, 0.0, 0.0), d)
            a0 = acceleration_at(zc, centered)
            a1 = acceleration_at(zs, d)
            assert abs(a1 - a0) <= 1e-12 * max(1.0, a0)
            t0 = diamond_temperature(zc, centered).temperature
            t1 = diamond_temperature(zs, d).temperature
            assert abs(t1 - t0) <= 1e-12 * t0


@pytest.mark.parametrize("ratio", [1.0, 1e3, 1e6, 1e9, 1e12])
def test_typed_global_starts_match_mpmath(ratio):
    # A start typed in global null coordinates of a diamond translated by
    # |L1| = ratio L is as accurate as a centered one: T, beta and the
    # relative entropy within the centered kernel's 4 EPS / q of mpmath,
    # which reads u_pm = z_pm -+ L1 (the +e1 side) or z_mp -+ L1 (the -e1
    # side) exactly from the typed doubles.
    mp = mpmath40()
    rng = np.random.default_rng(int(math.log10(ratio)) + 67)
    p = FourMomentum(1.3, 0.4, 0.2, -0.1)
    for L in (1e-3, 0.37, 1.0, 2.9, 1e3):
        for L1 in (ratio * L, -ratio * L):
            d = DiamondSpec(L, L1)
            for up, um in interior_pairs(rng, 12, L):
                if L1 + 0.5 * (up - um) >= 0.0:
                    z = NullRadialCoords(up + L1, um - L1, (1.0, 0.0, 0.0))
                    u = (mp.mpf(z.z_plus) - L1, mp.mpf(z.z_minus) + L1)
                else:
                    z = NullRadialCoords(um - L1, up + L1, (-1.0, 0.0, 0.0))
                    u = (mp.mpf(z.z_minus) - L1, mp.mpf(z.z_plus) + L1)
                qp, qm = (1 - (x / L) ** 2 for x in u)
                bound = 4 * EPS / float(min(qp, qm))
                beta = (L * qp / 2, L * qm / 2)
                want = {"T": 1 / (mp.pi * L * mp.sqrt(qp * qm)),
                        "beta_plus": beta[0], "beta_minus": beta[1],
                        "entropy": mp.pi * ((mp.mpf(p.p0) - p.p1) * beta[0]
                                              + (mp.mpf(p.p0) + p.p1) * beta[1])}
                got = {"T": diamond_temperature(z, d).temperature,
                       **dict(zip(("beta_plus", "beta_minus"), beta_field(z, d))),
                       "entropy": relative_entropy(p, z, d)}
                for name, value in got.items():
                    assert abs(value - want[name]) <= bound * want[name], (L, L1, name)


# ----------------------------------------------------------------------- ratio

def test_ratio_basic():
    for r in (0.1, 0.5, 0.9):
        z = NullRadialCoords(r, -r)
        assert temperature_ratio(z, UNIT) == r


def test_ratio_corner_limit():
    eps = 1e-9
    z = NullRadialCoords(1.0 - eps, -(1.0 - eps))
    assert temperature_ratio(z, UNIT) == pytest.approx(1.0, abs=2 * eps)


def test_ratio_identity():
    rng = np.random.default_rng(47)
    specs = [UNIT, DiamondSpec(2.5, 0.0), DiamondSpec(1.0, 1.0), DiamondSpec(0.7, -3.0)]
    count = 0
    while count < 1000:
        d = specs[count % len(specs)]
        (up, um), = interior_pairs(rng, 1, d.size_L)
        if up == um:
            continue
        z = null_from_centered(up, um, (1.0, 0.0, 0.0), d)
        quotient = wedge_temperature(acceleration_at(z, d)) / diamond_temperature(z, d).temperature
        ratio = temperature_ratio(z, d)
        assert abs(quotient - ratio) < 1e-12
        count += 1


# ------------------------------------------------------------ radius along flow

def test_radius_along_flow_basics():
    assert radius_along_flow(0.3, 0.0, 1.0) == 0.3
    assert radius_along_flow(1.0, 5.0, 1.0) == 1.0
    assert radius_along_flow(0.0, 2.0, 1.0) == 0.0
    assert abs(radius_along_flow(0.5, 1.0, 1.0) - 0.41540) < 1e-5


def test_radius_along_flow_matches_flow():
    rng = np.random.default_rng(53)
    for _ in range(50):
        r0 = rng.uniform(0.0, 0.95)
        t = rng.uniform(-4, 4)
        z = NullRadialCoords(r0, -r0)
        zt = diamond_flow(z, t, UNIT)
        want = 0.5 * (zt.z_plus - zt.z_minus)
        assert abs(radius_along_flow(r0, t, 1.0) - want) < 1e-12


def test_radius_along_flow_validation():
    with pytest.raises(OutOfRange):
        radius_along_flow(-0.1, 0.0, 1.0)
    with pytest.raises(OutOfRange):
        radius_along_flow(1.1, 0.0, 1.0)
    with pytest.raises(OutOfRange):
        radius_along_flow(0.5, 0.0, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfRange):
            radius_along_flow(0.5, bad, 1.0)
    with pytest.raises(OutOfRange):
        radius_along_flow(0.5, 1.0, math.inf)


def test_radius_along_flow_matches_mpmath():
    # r(t) = r0 / ((1 - r0^2/L^2) sinh^2(t/2) + 1) is finite for every
    # finite t: r0 on the fixed point r0 = L, else the true value, which is
    # still 6.5e-293 at |t| = 1420 for r0 one ulp below L = 1.8e308.
    mp = mpmath40()
    big = 1.7976931348623157e308
    assert radius_along_flow(1.0, 2000.0, 1.0) == 1.0
    assert radius_along_flow(big, -1e308, big) == big
    rng = np.random.default_rng(57)
    cases = [(0.5, 2000.0, 1.0), (math.nextafter(big, 0.0), 1420.0, big)]
    for _ in range(600):
        L = 10.0 ** rng.uniform(-300.0, 300.0)
        near = 1.0 - 2.0 ** -float(rng.integers(1, 53))
        r0 = L * (rng.uniform(0.0, 1.0) if rng.integers(2) else near)
        t = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.3)
        cases.append((min(r0, L), t, L))
    for r0, t, L in cases:
        r = radius_along_flow(r0, t, L)
        v = mp.mpf(r0) / L
        want = r0 / ((1 - v) * (1 + v) * mp.sinh(mp.mpf(t) / 2) ** 2 + 1)
        # The tail is exp of a logarithm of size ~|t|, so the error grows
        # with |t|; below the normal range only the spacing 2^-1074 is left.
        assert abs(r - want) <= EPS * (abs(t) + 64) * want + 2.0 ** -1074, (r0, t, L)
    assert 6.4e-293 < radius_along_flow(math.nextafter(big, 0.0), 1420.0, big) < 6.6e-293


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(allow_nan=False, allow_infinity=False))
def test_radius_along_flow_bounded_and_even(r0, t):
    r = radius_along_flow(r0, t, 1.0)
    assert 0.0 <= r <= r0 + 1e-15
    assert r == radius_along_flow(r0, -t, 1.0)


# ------------------------------------------------------------ agreement window

def test_agreement_window_values():
    assert abs(agreement_window(0.01, 1.0, 0.01) - 2 * math.asinh(1.0)) < 1e-14
    assert abs(agreement_window(1e-4, 1.0, 0.01) - 2 * math.asinh(10.0)) < 1e-14
    assert abs(agreement_window(1e-4, 1.0, 0.01) - 5.9964) < 1e-4


def test_agreement_window_validation():
    with pytest.raises(OutOfRange):
        agreement_window(0.0, 1.0, 0.01)
    with pytest.raises(OutOfRange):
        agreement_window(2.0, 1.0, 0.01)
    with pytest.raises(OutOfRange):
        agreement_window(0.5, 1.0, 0.0)


@given(st.floats(min_value=1e-8, max_value=0.5), st.floats(min_value=1e-8, max_value=0.5))
@example(1e-08, 1.0000000000000002e-08)
def test_agreement_window_monotone(d1, d2):
    lo, hi = sorted((d1, d2))
    wide, narrow = agreement_window(lo, 1.0, 0.01), agreement_window(hi, 1.0, 0.01)
    assert wide >= narrow
    # Inputs one ulp apart can round to the same window; a relative gap of
    # 1e-12 moves the window by hundreds of ulps.
    if hi >= lo * (1.0 + 1e-12):
        assert wide > narrow


# ------------------------------------------------------------ relative entropy

def test_relative_entropy_center():
    E = 2.5
    val = relative_entropy(FourMomentum(E, 0, 0, 0), NullRadialCoords(0.0, 0.0), UNIT)
    assert abs(val - math.pi * E) < 1e-14
    # equals E / T at the center
    T = diamond_temperature(NullRadialCoords(0.0, 0.0), UNIT).temperature
    assert abs(val - E / T) < 1e-12


def test_relative_entropy_zero_momentum():
    assert relative_entropy(FourMomentum(0, 0, 0, 0), NullRadialCoords(0.3, -0.1), UNIT) == 0.0


def test_relative_entropy_energy_form():
    rng = np.random.default_rng(59)
    E = 1.25
    for z in interior_points(rng, 50, UNIT):
        bp, bm = beta_field(z, UNIT)
        want = TWO_PI * E * 0.5 * (bp + bm)
        got = relative_entropy(FourMomentum(E, 0, 0, 0), z, UNIT)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_relative_entropy_symmetric_equals_energy_over_T():
    E = 0.75
    for r in (0.0, 0.2, 0.6):
        z = NullRadialCoords(r, -r)
        got = relative_entropy(FourMomentum(E, 0, 0, 0), z, UNIT)
        T = diamond_temperature(z, UNIT).temperature
        assert abs(got - E / T) < 1e-12 / T


def test_relative_entropy_momentum_pairing():
    # The radial component pairs against (beta+ - beta-)/2 with a minus sign.
    z = NullRadialCoords(0.8, -0.2)
    bp, bm = beta_field(z, UNIT)
    got = relative_entropy(FourMomentum(0.0, 2.0, 0, 0), z, UNIT)
    want = -TWO_PI * 2.0 * 0.5 * (bp - bm)
    assert abs(got - want) < 1e-14
