import dataclasses
import math
import warnings

import numpy as np
import pytest

from _helpers import (
    interior_pairs,
    interior_points,
    max_coord_diff,
    mpmath40,
    orbit_ref,
    temperature_ref,
    thermal_ref,
    wedge_ref,
)
from diamondflow import _kernels
from diamondflow.errors import (
    OutOfRange,
    OutOfRegion,
    StepOutOfRegion,
)
from diamondflow.flow import (
    Trajectory,
    diamond_flow,
    generator,
    integrate_flow_rk4,
    proper_acceleration,
    proper_time_rate,
    sample_trajectory,
    wedge_flow,
)
from diamondflow.geometry import (
    DiamondSpec,
    NullRadialCoords,
    SpacetimePoint,
    WedgeSpec,
    centered_null_pair,
    diamond_to_wedge,
    from_null,
    in_diamond,
    in_wedge,
    minkowski_square,
    null_from_centered,
    wedge_to_diamond,
)
from diamondflow.thermo import acceleration_at, beta_field, diamond_temperature

UNIT = DiamondSpec(1.0, 0.0)
WEDGE = WedgeSpec(0.0)
DBL_MAX = np.finfo(float).max
EPS = 2.0 ** -52


# ----------------------------------------------------------------- wedge flow

def test_wedge_flow_identity():
    p = SpacetimePoint(0.3, 2.0, 0.5, -0.5)
    q = wedge_flow(p, 0.0, WEDGE)
    assert q == p


def test_wedge_flow_unit_orbit():
    for t in (-2.0, -0.5, 0.0, 1.0, 2.5):
        q = wedge_flow(SpacetimePoint(0, 1), t, WEDGE)
        assert abs(q.x0 - math.sinh(t)) < 1e-14 * max(1.0, abs(math.sinh(t)))
        assert abs(q.x1 - math.cosh(t)) < 1e-14 * math.cosh(t)
        assert q.x2 == 0.0 and q.x3 == 0.0


def test_wedge_flow_preserves_hyperbola():
    w = WedgeSpec(1.5)
    p = SpacetimePoint(0.25, 2.4, 0.1, 0.2)
    w2 = (p.x1 - w.apex_x1) ** 2 - p.x0 ** 2
    for t in np.linspace(-3, 3, 25):
        q = wedge_flow(p, t, w)
        val = (q.x1 - w.apex_x1) ** 2 - q.x0 ** 2
        assert abs(val - w2) < 1e-12 * max(1.0, abs(w2))
        assert in_wedge(q, w)


def test_wedge_flow_rejects_outside():
    with pytest.raises(OutOfRegion):
        wedge_flow(SpacetimePoint(2.0, 1.0), 0.5, WEDGE)


def test_wedge_flow_overflow_is_out_of_range():
    # cosh(t) overflows float64 from |t| ~ 710; the error is a domain error
    for t in (800.0, -800.0, 1e6):
        with pytest.raises(OutOfRange):
            wedge_flow(SpacetimePoint(0, 1), t, WEDGE)
    q = wedge_flow(SpacetimePoint(0, 1), 700.0, WEDGE)
    want = wedge_ref(0.0, 1.0, 0.0, 700.0)
    assert type(q.x0) is float and type(q.x1) is float
    assert abs(q.x0 - want[0]) <= 4 * EPS * want[0] and abs(q.x1 - want[1]) <= 4 * EPS * want[1]


def test_wedge_flow_null_coordinate_overflow():
    # x0 + x1 overflows, so the boost runs at a quarter of the scale; t = 0
    # returns the point, and no warning escapes on the way.
    p = SpacetimePoint(1e308, 1.5e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wedge_flow(p, 0.0, WEDGE) == p
        for t in (1e-3, -0.5):
            q = wedge_flow(p, t, WEDGE)
            want = wedge_ref(p.x0, p.x1, 0.0, t)
            assert abs(q.x0 - want[0]) <= 4 * EPS * abs(want[0])
            assert abs(q.x1 - want[1]) <= 4 * EPS * abs(want[1])
        a = proper_acceleration(SpacetimePoint(1e307, 1.5e308), WEDGE)
        want = 1.0 / (math.sqrt(1.5e308 - 1e307) * math.sqrt(1.5e308 + 1e307))
        assert abs(a - want) < 1e-6 * want
        # Here x0 + x1 overflows, and the rate is taken at a quarter scale.
        a = proper_acceleration(p, WEDGE)
        want = 1.0 / (math.sqrt(1.5e308 - 1e308) * math.sqrt(0.375e308 + 0.25e308) * 2.0)
        assert abs(a - want) < 1e-6 * want


def test_wedge_flow_matches_mpmath():
    # Within 1e-13 of the point's size max(|x0|, |x1 - apex|) for
    # x1 - apex in [e^-3, e^3], |x0| < 0.999 (x1 - apex) and |t| <= 30.
    # One start in four sits near the edge its orbit leaves from, where
    # evaluating x0 cosh t + (x1 - apex) sinh t cancels to errors of 3e-13.
    rng = np.random.default_rng(71)
    n = 4000
    rel = np.exp(rng.uniform(-3.0, 3.0, n))
    t = rng.uniform(-30.0, 30.0, n)
    x0 = rng.uniform(-0.999, 0.999, n) * rel
    edge = np.arange(n) % 4 == 0
    x0[edge] = -np.sign(t[edge]) * 0.999 * rel[edge] * (1.0 - 1e-3 * rng.uniform(0.0, 1.0, edge.sum()))
    worst = 0.0
    for k in range(n):
        q = wedge_flow(SpacetimePoint(x0[k], rel[k]), t[k], WEDGE)
        w0, w1 = wedge_ref(x0[k], rel[k], 0.0, t[k])
        err = max(abs(q.x0 - w0), abs(q.x1 - w1)) / max(abs(w0), abs(w1))
        worst = max(worst, float(err))
    assert worst <= 1e-13, worst


def test_wedge_group_law_long():
    # wedge_orbit(wedge_orbit(x, s), t) = wedge_orbit(x, s + t) for
    # |s|, |t| <= 30, up to the rounding of the midpoint, which the second
    # boost stretches by up to e^|t|, and of s + t.  The midpoint itself
    # may round onto the light cone, so this runs on the kernel that
    # wedge_flow calls.
    rng = np.random.default_rng(73)
    for _ in range(2000):
        apex = float(rng.choice([0.0, 1.5, -0.7]))
        rel = math.exp(rng.uniform(-3.0, 3.0))
        x0, x1 = rng.uniform(-0.999, 0.999) * rel, apex + rel
        s, t = rng.uniform(-30.0, 30.0, 2)
        once = _kernels.wedge_orbit(x0, x1, apex, s + t)[:2]
        mid = _kernels.wedge_orbit(x0, x1, apex, s)[:2]
        twice = _kernels.wedge_orbit(*mid, apex, t)[:2]
        size = [max(abs(p[0]), abs(p[1]), abs(p[1] - apex)) for p in (mid, once)]
        bound = 4 * EPS * (math.exp(abs(t)) * size[0] + (1.0 + abs(s + t)) * size[1])
        assert max(abs(once[0] - twice[0]), abs(once[1] - twice[1])) <= bound, (x0, x1, apex, s, t)


# --------------------------------------------------------------- diamond flow

def test_center_orbit_is_tanh():
    z = NullRadialCoords(0.0, 0.0)
    for t in np.linspace(-6, 6, 25):
        zt = diamond_flow(z, t, UNIT)
        want = math.tanh(0.5 * t)
        assert abs(zt.z_plus - want) < 1e-14
        assert abs(zt.z_minus - want) < 1e-14


def test_diamond_flow_identity_and_membership():
    rng = np.random.default_rng(3)
    for z in interior_points(rng, 50, UNIT):
        z0 = diamond_flow(z, 0.0, UNIT)
        assert abs(z0.z_plus - z.z_plus) < 1e-15
        assert abs(z0.z_minus - z.z_minus) < 1e-15
        for t in (-10.0, -3.0, 0.7, 10.0):
            zt = diamond_flow(z, t, UNIT)
            assert in_diamond(from_null(zt), DiamondSpec(1.0 * (1 + 1e-12), 0.0))


def test_diamond_flow_translated_matches_general_formula():
    # The published two-parameter orbit formula, evaluated directly in
    # global coordinates, must agree with the centered implementation.
    L, L1 = 2.0, 1.5
    d = DiamondSpec(L, L1)
    z = NullRadialCoords(1.2, -0.4)
    for t in (-1.5, -0.3, 0.4, 2.0):
        ch = math.cosh(0.5 * t)
        sh = math.sinh(0.5 * t)
        zp, zm = z.z_plus, z.z_minus
        want_p = (L * zp * ch + (L * L + L1 * zp - L1 * L1) * sh) / ((zp - L1) * sh + L * ch)
        want_m = (L * zm * ch + (L * L - L1 * zm - L1 * L1) * sh) / ((zm + L1) * sh + L * ch)
        zt = diamond_flow(z, t, d)
        assert abs(zt.z_plus - want_p) < 1e-12 * max(1.0, abs(want_p))
        assert abs(zt.z_minus - want_m) < 1e-12 * max(1.0, abs(want_m))


def test_diamond_flow_translation_covariance():
    # Shifting the diamond and the point together shifts the orbit.
    rng = np.random.default_rng(5)
    L = 1.3
    for up, um in interior_pairs(rng, 40, L):
        t = rng.uniform(-2, 2)
        base = diamond_flow(null_from_centered(up, um, (1.0, 0.0, 0.0), DiamondSpec(L, 0.0)),
                            t, DiamondSpec(L, 0.0))
        for L1 in (0.7, -2.0, L):
            d = DiamondSpec(L, L1)
            shifted = diamond_flow(null_from_centered(up, um, (1.0, 0.0, 0.0), d), t, d)
            bp = from_null(base)
            sp = from_null(shifted)
            assert abs(sp.x0 - bp.x0) < 1e-12 * max(1.0, abs(bp.x0))
            assert abs(sp.x1 - (bp.x1 + L1)) < 1e-12 * max(1.0, abs(bp.x1 + L1))


def test_diamond_flow_radial_directions():
    # A centered diamond flows any radial direction the same way.
    d = DiamondSpec(1.0, 0.0)
    z_axis = NullRadialCoords(0.5, -0.1)
    z_off = NullRadialCoords(0.5, -0.1, (0.0, 0.6, 0.8))
    for t in (-1.0, 0.8):
        a = diamond_flow(z_axis, t, d)
        b = diamond_flow(z_off, t, d)
        assert abs(a.z_plus - b.z_plus) < 1e-15
        assert abs(a.z_minus - b.z_minus) < 1e-15
        assert b.direction == (0.0, 0.6, 0.8)


def test_diamond_flow_off_plane_translated_rejected():
    d = DiamondSpec(1.0, 0.5)
    z = NullRadialCoords(0.3, -0.3, (0.0, 1.0, 0.0))
    with pytest.raises(OutOfRange):
        diamond_flow(z, 1.0, d)


def test_diamond_flow_rejects_boundary():
    with pytest.raises(OutOfRegion):
        diamond_flow(NullRadialCoords(1.0, -1.0), 0.5, UNIT)
    # The last float below a face is inside: flow and T match mpmath there.
    for L in (1.0, 2.0 ** 1000):
        near = float(np.nextafter(L, 0.0))
        d = DiamondSpec(L)
        zt = diamond_flow(NullRadialCoords(near, -near), 0.5, d)
        for got, u in ((zt.z_plus, near), (zt.z_minus, -near)):
            assert abs(got - orbit_ref(u, 0.5, L)) <= 2 * np.spacing(L)
        want = thermal_ref(near, -near, L)["T"]
        assert abs(diamond_temperature(NullRadialCoords(near, -near), d).temperature - want) <= 4 * EPS * want


def test_corner_fixed_points():
    # Corners are flow fixed points; checked from inside at distance 1e-6.
    eps = 1e-6
    for up, um in [(1.0 - eps, -(1.0 - eps)), (1.0 - 2 * eps, 1.0 - 3 * eps),
                   (-(1.0 - 3 * eps), -(1.0 - 2 * eps))]:
        z = null_from_centered(up, um, (1.0, 0.0, 0.0), UNIT)
        for t in (-1.0, 1.0):
            zt = diamond_flow(z, t, UNIT)
            assert abs(zt.z_plus - z.z_plus) <= 1e-4
            assert abs(zt.z_minus - z.z_minus) <= 1e-4


def test_group_law():
    rng = np.random.default_rng(9)
    for up, um in interior_pairs(rng, 100, 1.0, cap=0.9):
        z = null_from_centered(up, um, (1.0, 0.0, 0.0), UNIT)
        s = rng.uniform(-2, 2)
        t = rng.uniform(-2, 2)
        once = diamond_flow(z, s + t, UNIT)
        twice = diamond_flow(diamond_flow(z, s, UNIT), t, UNIT)
        assert abs(once.z_plus - twice.z_plus) < 1e-9 * max(1.0, abs(once.z_plus))
        assert abs(once.z_minus - twice.z_minus) < 1e-9 * max(1.0, abs(once.z_minus))
    # wedge version
    for _ in range(100):
        x0 = rng.uniform(-2, 2)
        p = SpacetimePoint(x0, abs(x0) + rng.uniform(0.1, 2))
        s = rng.uniform(-2, 2)
        t = rng.uniform(-2, 2)
        once = wedge_flow(p, s + t, WEDGE)
        twice = wedge_flow(wedge_flow(p, s, WEDGE), t, WEDGE)
        assert max_coord_diff(once, twice) < 1e-9 * max(1.0, abs(once.x0), abs(once.x1))


def test_group_law_in_rapidity():
    # The diamond flow is rho_pm -> rho_pm + t/2, so composing two flows of
    # up to |t| = 300 lands on the single flow to rounding in rho, long
    # after u itself has rounded onto the faces.
    rng = np.random.default_rng(10)
    for L in (1e-3, 1.0, 1e3):
        up, um = interior_pairs(rng, 200, L, cap=0.99).T
        s, t = rng.uniform(-300.0, 300.0, (2, 200))
        once = _kernels._rapidities(up, um, L, s + t)
        twice = [rho + 0.5 * t for rho in _kernels._rapidities(up, um, L, s)]
        tol = 4 * EPS * (np.abs(s) + np.abs(t) + 3.0)
        for direct, composed in zip(once, twice):
            assert (np.abs(direct - composed) <= tol).all()
        # The orbit columns are functions of rho alone, so T follows too.
        for u_t, rho in zip(_kernels.diamond_orbit(up, um, L, s + t), once):
            assert (u_t == L * np.tanh(rho)).all()
        T = _kernels.orbit_temperature(up, um, L, s + t)
        T_twice = np.cosh(twice[0]) * np.cosh(twice[1]) / (np.pi * L)
        assert (np.abs(T / T_twice - 1.0) <= 2 * tol + 8 * EPS).all()


def _kms_residual(tr):
    """|lhs/rhs - 1| of (dx0 - dx1)(dx0 + dx1) pi^2 T(t) T(t') = sinh^2((t - t')/2)
    over every pair of samples, and its rounding bound."""
    t, x0, x1, T = tr.t_values, tr.x0, tr.x1, tr.temperature()
    i, j = np.triu_indices(t.size, 1)
    dx0, dx1, dt = x0[j] - x0[i], x1[j] - x1[i], t[j] - t[i]
    lhs = (dx0 - dx1) * (dx0 + dx1) * np.pi ** 2 * T[i] * T[j]
    residual = np.abs(lhs / np.sinh(0.5 * dt) ** 2 - 1.0)
    # Each coordinate carries a rounding error of order EPS times the
    # orbit's scale, so close pairs cancel in dx0 +- dx1, and t in dt.
    scale = np.abs(x0).max() + np.abs(x1).max()
    bound = 4 * EPS * (1.0 + scale / np.abs(dx0 + dx1) + scale / np.abs(dx0 - dx1)
                       + np.abs(t).max() / dt)
    return residual, bound


def test_kms_identity_along_orbits():
    # The interval between two samples of one orbit, in units of the local
    # temperatures, is sinh^2 of half the modular time between them: the
    # vacuum two-point function is KMS with period 2 pi in t.  Only the
    # written t, x0, x1 and T columns enter.
    rng = np.random.default_rng(12)
    regions = [DiamondSpec(1e-3), DiamondSpec(1.0), DiamondSpec(1e3), DiamondSpec(1.0, 2.5),
               DiamondSpec(1e-3, -4e-3), WedgeSpec(0.3)]
    for region in regions:
        for _ in range(4):
            if isinstance(region, WedgeSpec):
                rel = rng.uniform(0.2, 3.0)
                start = SpacetimePoint(rng.uniform(-0.9, 0.9) * rel, region.apex_x1 + rel)
            else:
                up, um = interior_pairs(rng, 1, region.size_L)[0]
                start = null_from_centered(up, um, (1.0, 0.0, 0.0), region)
            residual, bound = _kms_residual(sample_trajectory(start, -6.0, 6.0, 49, region))
            assert (residual <= bound).all(), (region, start)
            assert np.median(residual) < 1e-14


def test_conjugation_identity():
    # diamond_flow(t) = wedge_to_diamond . wedge_flow(t) . diamond_to_wedge
    rng = np.random.default_rng(17)
    worst = 0.0
    for up, um in interior_pairs(rng, 1000, 1.0, cap=0.98):
        t = rng.uniform(-2, 2)
        z = null_from_centered(up, um, (1.0, 0.0, 0.0), UNIT)
        lhs = from_null(diamond_flow(z, t, UNIT))
        w = diamond_to_wedge(from_null(z), UNIT)
        rhs = wedge_to_diamond(wedge_flow(w, t, WEDGE), UNIT)
        worst = max(worst, max_coord_diff(lhs, rhs))
    assert worst < 1e-9


# ------------------------------------------------------------------ point types

@pytest.mark.parametrize("point, spec", [
    (NullRadialCoords(0.5, -0.5), WEDGE),
    (SpacetimePoint(0.0, 0.5), UNIT),
    ((0.0, 0.5), WEDGE),
    ((0.5, -0.5), UNIT),
])
def test_region_functions_reject_wrong_point_type(point, spec):
    # the validators check the type, so each function raises TypeError,
    # not an AttributeError from deep inside
    flow = wedge_flow if isinstance(spec, WedgeSpec) else diamond_flow
    calls = [lambda: flow(point, 0.5, spec), lambda: generator(point, spec),
             lambda: integrate_flow_rk4(point, 0.5, 8, spec),
             lambda: sample_trajectory(point, -1.0, 1.0, 5, spec),
             lambda: proper_acceleration(point, spec)]
    for call in calls:
        with pytest.raises(TypeError):
            call()


# ------------------------------------------------------------------ generator

def test_generator_wedge():
    g = generator(SpacetimePoint(0.25, 2.0), WedgeSpec(0.5))
    assert (g.x0, g.x1, g.x2, g.x3) == (1.5, 0.25, 0.0, 0.0)
    with pytest.raises(OutOfRegion):
        generator(SpacetimePoint(3.0, 2.0), WedgeSpec(0.5))


def test_generator_diamond_center():
    g = generator(NullRadialCoords(0.0, 0.0), UNIT)
    assert (g.x0, g.x1) == (0.5, 0.0)


def test_generator_matches_flow_derivative():
    rng = np.random.default_rng(21)
    h = 1e-5
    for z in interior_points(rng, 100, UNIT):
        g = generator(z, UNIT)
        fwd = from_null(diamond_flow(z, h, UNIT))
        bwd = from_null(diamond_flow(z, -h, UNIT))
        for got, want in (((fwd.x0 - bwd.x0) / (2 * h), g.x0),
                          ((fwd.x1 - bwd.x1) / (2 * h), g.x1)):
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_generator_matches_beta_field():
    # generator reads beta_pm from the pair it validated; the bits are those of
    # thermo.beta_field, in centered, translated and tiny diamonds and off the x1 axis
    rng = np.random.default_rng(25)
    for d in (UNIT, DiamondSpec(3.0, -1.5), DiamondSpec(2.0 ** -40, 2.0 ** -38)):
        points = [*interior_points(rng, 50, d, cap=1.0 - 2.0 ** -20),
                  null_from_centered(0.0, 0.0, (1.0, 0.0, 0.0), d)]
        if d.translation_L1 == 0.0:
            points.append(NullRadialCoords(0.5 * d.size_L, -0.25 * d.size_L, (0.0, 0.6, 0.8)))
        for z in points:
            g = generator(z, d)
            beta_p, beta_m = beta_field(z, d)
            axis = centered_null_pair(z, d)[2]
            bs = 0.5 * (beta_p - beta_m)
            assert (g.x0, g.x1, g.x2, g.x3) == (0.5 * (beta_p + beta_m), bs * axis[0],
                                                bs * axis[1], bs * axis[2])


# ------------------------------------------------------------ proper time rate

def test_proper_time_rate_center():
    assert abs(proper_time_rate(NullRadialCoords(0.0, 0.0), UNIT) - 0.5) < 1e-15


def test_proper_time_rate_boundary_scaling():
    # rate -> 0 like sqrt(eps) as z+ -> L; the reference is exact, since
    # 1 - u^2 in floats already carries 3e-10 relative error at eps = 1e-8
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for eps in (1e-4, 1e-6, 1e-8):
        z = NullRadialCoords(1.0 - eps, 0.0)
        rate = proper_time_rate(z, UNIT)
        want = mpmath.sqrt(1 - mpmath.mpf(z.z_plus) ** 2) / 2
        assert abs(rate - want) < 1e-15 * want


def test_proper_time_rate_equals_generator_norm():
    rng = np.random.default_rng(23)
    for z in interior_points(rng, 100, UNIT):
        g = generator(z, UNIT)
        norm = math.sqrt(abs(minkowski_square(g)))
        assert abs(proper_time_rate(z, UNIT) - norm) < 1e-12


# ------------------------------------------------------------------ RK4 oracle

def test_rk4_identity():
    z = NullRadialCoords(0.4, -0.2)
    out = integrate_flow_rk4(z, 0.0, 5, UNIT)
    assert out.z_plus == z.z_plus and out.z_minus == z.z_minus


def test_rk4_center_matches_tanh():
    out = integrate_flow_rk4(NullRadialCoords(0.0, 0.0), 1.0, 1000, UNIT)
    assert abs(out.z_plus - math.tanh(0.5)) < 1e-10
    assert abs(out.z_minus - math.tanh(0.5)) < 1e-10


def test_rk4_wedge_matches_boost():
    out = integrate_flow_rk4(SpacetimePoint(0, 1), 1.0, 1000, WEDGE)
    assert abs(out.x0 - math.sinh(1)) < 1e-10
    assert abs(out.x1 - math.cosh(1)) < 1e-10


def test_rk4_oracle_equivalence():
    rng = np.random.default_rng(29)
    for z in interior_points(rng, 20, UNIT):
        for t in (0.25, 0.5, 1.0):
            exact = diamond_flow(z, t, UNIT)
            rk = integrate_flow_rk4(z, t, max(1, int(1000 * t)), UNIT)
            assert abs(rk.z_plus - exact.z_plus) < 1e-8
            assert abs(rk.z_minus - exact.z_minus) < 1e-8


def test_rk4_full_range_of_L():
    # The loop steps v = u/L, so L^2 neither overflows (L > ~1e154) nor
    # underflows (L < ~1e-154, where u stood still): the orbit matches the
    # closed form relative to L for L across 600 decades.
    rng = np.random.default_rng(31)
    for _ in range(40):
        L = math.exp(rng.uniform(math.log(1e-300), math.log(1e300)))
        d = DiamondSpec(L)
        for z in interior_points(rng, 2, d):
            t = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 1.0))
            exact = diamond_flow(z, t, d)
            rk = integrate_flow_rk4(z, t, int(1000 * abs(t)), d)
            assert abs(rk.z_plus - exact.z_plus) < 1e-8 * L, (L, z, t)
            assert abs(rk.z_minus - exact.z_minus) < 1e-8 * L, (L, z, t)
    rk = integrate_flow_rk4(NullRadialCoords(3e199, -5e199), 1.0, 64, DiamondSpec(1e200))
    exact = diamond_flow(NullRadialCoords(3e199, -5e199), 1.0, DiamondSpec(1e200))
    assert abs(rk.z_plus - exact.z_plus) < 1e-8 * 1e200


# A fourth-order method's error falls 2^4 = 16-fold when the step halves;
# the bounds are those of the benchmark's oracle check.
RK4_FALL = (16.0 / 1.15, 16.0 * 1.15)


def test_rk4_convergence_order():
    # n = 256 steps over |t| in [4, 8] (diamond) and [2, 3] (wedge) keeps
    # the error far above rounding and far below the orbit's scale.
    rng = np.random.default_rng(43)
    for L in (1e-150, 1.0, 1e150):
        d = DiamondSpec(L, float(rng.uniform(-1.0, 1.0)) * L)
        for z in interior_points(rng, 10, d):
            t = float(rng.choice([-1.0, 1.0]) * rng.uniform(4.0, 8.0))
            exact = diamond_flow(z, t, d)
            e1, e2 = (max(abs(q.z_plus - exact.z_plus), abs(q.z_minus - exact.z_minus)) / L
                      for q in (integrate_flow_rk4(z, t, n, d) for n in (256, 512)))
            assert RK4_FALL[0] <= e1 / e2 <= RK4_FALL[1], (L, z, t, e1, e2)
    for _ in range(30):
        w = WedgeSpec(float(rng.uniform(-1.0, 1.0)))
        rel = float(rng.uniform(0.5, 2.0))
        p = SpacetimePoint(float(rng.uniform(-0.8, 0.8)) * rel, w.apex_x1 + rel)
        t = float(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 3.0))
        exact = wedge_flow(p, t, w)
        scale = max(abs(exact.x0), abs(exact.x1 - w.apex_x1))
        e1, e2 = (max(abs(q.x0 - exact.x0), abs(q.x1 - exact.x1)) / scale
                  for q in (integrate_flow_rk4(p, t, n, w) for n in (256, 512)))
        assert RK4_FALL[0] <= e1 / e2 <= RK4_FALL[1], (p, w, t, e1, e2)


def test_rk4_step_out_of_region():
    # One giant step throws a stage far outside the closed diamond.
    with pytest.raises(StepOutOfRegion):
        integrate_flow_rk4(NullRadialCoords(0.0, 0.0), 10.0, 1, UNIT)


def test_rk4_validates_steps():
    with pytest.raises(OutOfRange):
        integrate_flow_rk4(NullRadialCoords(0.0, 0.0), 1.0, 0, UNIT)


# ------------------------------------------------------------------ trajectory

def test_trajectory_type_invariants():
    # The record holds the region and the start as given, and float64
    # columns that share one finite, strictly increasing t grid; a diamond's
    # x2 and x3 are +0.0 on the -e1 side too, where x1 < 0.
    z = NullRadialCoords(2.3, -1.9)
    w_start = SpacetimePoint(0.2, 0.9, 0.1, -0.3)
    for start, spec in ((z, DiamondSpec(0.7, 2.0)), (w_start, WedgeSpec(-0.4)),
                        (NullRadialCoords(2.3, -1.9, (-1.0, 0.0, 0.0)), DiamondSpec(0.7, -2.0))):
        traj = sample_trajectory(start, -5.0, 5.0, 11, spec)
        assert traj.region is spec and traj.start is start
        assert traj.t_values.shape == (11,) and (np.diff(traj.t_values) > 0.0).all()
        for col in (traj.z_plus, traj.z_minus, traj.x0, traj.x1, traj.x2, traj.x3):
            assert col.dtype == np.float64 and col.shape == traj.t_values.shape
            assert np.isfinite(col).all()
        # z_pm = x0 +- r in a diamond, x0 +- x1 in a wedge
        if isinstance(spec, DiamondSpec):
            r = np.hypot(traj.x1, np.hypot(traj.x2, traj.x3))
            assert not np.signbit(traj.x2).any() and not np.signbit(traj.x3).any()
        else:
            r = traj.x1
        np.testing.assert_allclose(traj.z_plus, traj.x0 + r, rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.z_minus, traj.x0 - r, rtol=0, atol=1e-12)
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.t_values = traj.t_values[::-1]


def test_diamond_flow_matches_trajectory_bits():
    # diamond_flow and sample_trajectory share _kernels.diamond_orbit, so
    # each sample is the same double, for centered and translated diamonds
    # with L across 200 decades.
    rng = np.random.default_rng(67)
    for L in 10.0 ** rng.uniform(-100.0, 100.0, 12):
        for L1 in (0.0, 0.7 * L, -2.5 * L):
            d = DiamondSpec(L, L1)
            for z in interior_points(rng, 3, d, cap=0.99):
                traj = sample_trajectory(z, -12.0, 12.0, 49, d)
                for k, t in enumerate(traj.t_values):
                    q = diamond_flow(z, float(t), d)
                    assert (q.z_plus, q.z_minus) == (traj.z_plus[k], traj.z_minus[k]), (L, L1, t)


def test_sample_trajectory_endpoints_only():
    traj = sample_trajectory(NullRadialCoords(0.0, 0.0), -1.0, 1.0, 2, UNIT)
    assert isinstance(traj, Trajectory)
    assert traj.t_values.tolist() == [-1.0, 1.0]
    for col in (traj.z_plus, traj.z_minus, traj.x0, traj.x1, traj.x2, traj.x3,
                traj.temperature(), traj.acceleration()):
        assert col.dtype == np.float64 and col.shape == (2,)


def test_sample_trajectory_center_samples():
    traj = sample_trajectory(NullRadialCoords(0.0, 0.0), -3.0, 3.0, 7, UNIT)
    assert len(traj.t_values) == 7
    np.testing.assert_allclose(traj.x0, np.tanh(0.5 * traj.t_values), rtol=0, atol=1e-14)
    assert (np.abs(traj.x1) < 1e-14).all()
    assert not traj.x2.any() and not traj.x3.any()
    np.testing.assert_array_equal(traj.z_plus, traj.z_minus)
    assert (np.abs(traj.x0) + np.abs(traj.x1) < 1.0 + 1e-12).all()
    # T = cosh^2(t/2)/pi and a = 0 on the geodesic through the center
    np.testing.assert_allclose(traj.temperature(), np.cosh(0.5 * traj.t_values) ** 2 / math.pi,
                               rtol=1e-15)
    assert not traj.acceleration().any()


def test_sample_trajectory_wedge():
    traj = sample_trajectory(SpacetimePoint(0, 1), 0.0, 1.0, 3, WEDGE)
    assert abs(traj.x0[-1] - math.sinh(1)) < 1e-12
    assert abs(traj.x1[-1] - math.cosh(1)) < 1e-12
    assert abs(traj.z_plus[-1] - math.e) < 1e-12
    assert abs(traj.z_minus[-1] + 1.0 / math.e) < 1e-12
    np.testing.assert_array_equal(traj.acceleration(), 1.0)
    np.testing.assert_array_equal(traj.temperature(), 1.0 / (2.0 * math.pi))
    # The columns keep wedge_flow's arithmetic, bit for bit.
    w = WedgeSpec(-0.4)
    start = SpacetimePoint(0.3, 0.9, 0.2, -0.1)
    traj = sample_trajectory(start, -30.0, 30.0, 601, w)
    for k, t in enumerate(traj.t_values):
        q = wedge_flow(start, float(t), w)
        assert (traj.x0[k], traj.x1[k], traj.x2[k], traj.x3[k]) == (q.x0, q.x1, q.x2, q.x3)


def test_sample_trajectory_validation():
    z = NullRadialCoords(0.0, 0.0)
    with pytest.raises(OutOfRange):
        sample_trajectory(z, 0.0, 1.0, 1, UNIT)
    with pytest.raises(OutOfRange):
        sample_trajectory(z, 1.0, 1.0, 5, UNIT)
    with pytest.raises(OutOfRange):
        sample_trajectory(z, 1.0, 0.0, 5, UNIT)
    # one float step between the ends cannot hold six increasing samples
    with pytest.raises(OutOfRange):
        sample_trajectory(z, 1.0, math.nextafter(1.0, 2.0), 6, UNIT)
    sample_trajectory(z, 1.0, math.nextafter(1.0, 2.0), 2, UNIT)
    with pytest.raises(OutOfRegion):
        sample_trajectory(NullRadialCoords(1.0, -1.0), 0.0, 1.0, 5, UNIT)
    with pytest.raises(OutOfRegion):
        sample_trajectory(SpacetimePoint(1.0, 1.0), 0.0, 1.0, 5, WEDGE)
    # the boost leaves the float range; no inf reaches the columns
    with pytest.raises(OutOfRange), np.errstate(all="ignore"):
        sample_trajectory(SpacetimePoint(0.0, 1e300), 0.0, 100.0, 5, WEDGE)
    with pytest.raises(OutOfRange):
        sample_trajectory(SpacetimePoint(0.0, 1.0), 0.0, 800.0, 3, WEDGE)


def test_sample_trajectory_far_translated():
    # 2.5e6 L from the origin the global coordinates round at 5e-10 L, and
    # the orbit ends on the corners; it is built all the same, with the
    # columns of the scalar path.
    d = DiamondSpec(0.7, 2.5e6)
    z = NullRadialCoords(2500000.4, -2500000.2)
    traj = sample_trajectory(z, -40.0, 40.0, 3, d)
    np.testing.assert_allclose([traj.z_plus[1], traj.z_minus[1]], [z.z_plus, z.z_minus],
                               rtol=0, atol=1e-9)
    # t = -40 and 40 put the orbit on the bottom and top corners
    np.testing.assert_allclose(traj.x0, [-0.7, 0.1, 0.7], rtol=0, atol=1e-9)
    assert traj.x1[0] == traj.x1[2] == 2.5e6
    rng = np.random.default_rng(29)
    for L, L1 in ((0.7, 2.5e6), (1e-3, -40.0), (3.0, 1e9)):
        d = DiamondSpec(L, L1)
        slack = L * 1e-12 + 4 * abs(np.spacing(L1))
        for z in interior_points(rng, 200, d, cap=1.0 - 1e-9):
            traj = sample_trajectory(z, -40.0, 40.0, 9, d)
            assert (np.abs(traj.x0) + np.abs(traj.x1 - L1) <= L + slack).all()


@pytest.mark.parametrize("L, t_max", [(1e-100, 450.0), (1.0, 700.0), (1e100, 700.0)])
def test_trajectory_temperature_matches_mpmath(L, t_max):
    # T = cosh rho+ cosh rho- / (pi L) is read from the rapidities, so it
    # holds where the rounded u(t) sits on a face and
    # diamond_temperature(diamond_flow(z, t, d), d) raises (t >~ 23).
    mpmath = mpmath40()
    d = DiamondSpec(L)
    for start in ((0.3, -0.5), (0.9, 0.9), (-0.2, -0.99)):
        z = NullRadialCoords(start[0] * L, start[1] * L)
        traj = sample_trajectory(z, -t_max, t_max, 121, d)
        rho = [mpmath.atanh(mpmath.mpf(u) / L) for u in (z.z_plus, z.z_minus)]
        for t, T in zip(traj.t_values, traj.temperature()):
            want = temperature_ref(*(r + mpmath.mpf(t) / 2 for r in rho), L)
            # Each rapidity carries the rounding of u/L, amplified by
            # 1/(1 - v^2), and those of atanh and of the sum rho + t/2.
            drho = sum(1 / (1 - v * v) + 2 * abs(float(r)) + abs(t) / 2
                       for v, r in zip(start, rho))
            assert abs(T - want) <= 2.0 ** -52 * (drho + 4) * want, (start, t)


# -------------------------------------------------------- proper acceleration

def test_proper_acceleration_diamond_example():
    z = NullRadialCoords(0.6, -0.6)
    a = proper_acceleration(z, UNIT)
    assert abs(a - 1.875) < 1e-4 * 1.875


def test_proper_acceleration_center_is_geodesic():
    assert proper_acceleration(NullRadialCoords(0.0, 0.0), UNIT) < 1e-6


def test_proper_acceleration_wedge():
    for w in (0.5, 1.0, 2.0):
        a = proper_acceleration(SpacetimePoint(0, w), WEDGE)
        assert abs(a - 1.0 / w) < 1e-6 / w


def test_proper_acceleration_scale_free():
    # a(2^k x) = 2^-k a(x) exactly: the step, the division by it and the
    # Minkowski norm are free of h*h and of squared coordinates, which left
    # the float range at L = 1e200 and 1e-200.  k is even, so the wedge's
    # square roots scale exactly too.
    diamond = (NullRadialCoords(0.3, -0.5), DiamondSpec(1.0))
    translated = (NullRadialCoords(0.9, -0.1), DiamondSpec(1.0, 0.4))
    a_d, a_t = (proper_acceleration(z, d) for z, d in (diamond, translated))
    a_w = proper_acceleration(SpacetimePoint(0.2, 1.1), WedgeSpec(0.3))
    for k in range(-600, 601, 40):
        s = 2.0 ** k
        for (z, d), a in ((diamond, a_d), (translated, a_t)):
            zs = NullRadialCoords(s * z.z_plus, s * z.z_minus)
            assert proper_acceleration(zs, DiamondSpec(s * d.size_L, s * d.translation_L1)) * s == a
        ws = proper_acceleration(SpacetimePoint(0.2 * s, 1.1 * s), WedgeSpec(0.3 * s))
        assert ws * s == a_w, k
    starts = [(NullRadialCoords(0.3 * L, -0.5 * L), L) for L in (1e200, 1e-200)]
    # Here the start's z_plus - z_minus and pi L overflow.
    starts.append((NullRadialCoords(0.99e308, -0.99e308), 1e308))
    for z, L in starts:
        want = acceleration_at(z, DiamondSpec(L))
        assert abs(proper_acceleration(z, DiamondSpec(L)) - want) < 1e-4 * want
    for w in (1e200, 1e-200):
        assert abs(proper_acceleration(SpacetimePoint(0.0, w), WEDGE) * w - 1.0) < 1e-6


def _acceleration_ref(start, spec):
    # mpmath's a on the inputs the oracle rounds, v_pm = fl(u_pm/L) in a
    # diamond and x1 - apex in a wedge: |v+ - v-| / (L sqrt(q+ q-)) and
    # 1/sqrt((rel - x0)(rel + x0)).
    if isinstance(spec, WedgeSpec):
        mp = mpmath40()
        rel = mp.mpf(start.x1 - spec.apex_x1)
        return 1 / mp.sqrt((rel - start.x0) * (rel + start.x0))
    up, um, _ = centered_null_pair(start, spec)
    return thermal_ref(up / spec.size_L, um / spec.size_L, 1.0)["a"] / spec.size_L


def _acceleration_cases():
    # Derandomized starts, as (faces, general): diamond starts at L = 2^k
    # from eps = 1 down to the last float below each face, with
    # |v+ - v-| >= 1e-3, and wedge starts down to the last float off the
    # horizon, plus four at scales 2^-1000 and 2^-960 where a overflows or
    # nearly does; then general L with off-axis, translated and wedge-apex
    # starts.
    rng = np.random.default_rng(97)
    top = float(np.nextafter(1.0, 0.0))

    def below_one():
        # 1 - eps, eps log-uniform in [1e-17, 1]: down to the last float below 1
        return min(1.0 - 10.0 ** rng.uniform(-17.0, 0.0), top)

    faces, general = [], []
    for n in range(1200):
        L = 2.0 ** int(rng.integers(-990, 991))
        edge = below_one() if n % 8 else top
        other = float(rng.uniform(-1.0, 1.0)) if n % 3 else -below_one()
        if abs(edge - other) < 1e-3:
            continue
        vp, vm = (edge, other) if n % 2 else (-other, -edge)
        faces.append((NullRadialCoords(max(vp, vm) * L, min(vp, vm) * L), DiamondSpec(L)))
    for n in range(600):
        rel = 2.0 ** int(rng.integers(-990, 991))
        x0 = rel * (below_one() if n % 8 else top)
        faces.append((SpacetimePoint(x0 if n % 2 else -x0, rel), WEDGE))
    for n in range(600):
        L = math.exp(rng.uniform(-600.0, 600.0))
        vp, vm = np.sort(rng.uniform(-1.0, 1.0, 2))[::-1]
        if vp - vm < 1e-3:
            continue
        if n % 3 == 0:
            v = rng.normal(size=3)
            spec = DiamondSpec(L)
            start = NullRadialCoords(vp * L, vm * L, tuple(v / np.linalg.norm(v)))
        elif n % 3 == 1:
            spec = DiamondSpec(L, float(rng.uniform(-3.0, 3.0)) * L)
            start = null_from_centered(vp * L, vm * L, (1.0, 0.0, 0.0), spec)
        else:
            spec = WedgeSpec(float(rng.uniform(-3.0, 3.0)) * L)
            start = SpacetimePoint(vp * L, spec.apex_x1 + L, float(rng.normal()) * L)
        general.append((start, spec))
    # At the scale 2^-1000 a overflows at the diamond's corner and off the
    # horizon; at 2^-960 it is finite there, about 9e304 and 7e296.
    for L in (2.0 ** -1000, 2.0 ** -960):
        faces += [(NullRadialCoords(top * L, -top * L), DiamondSpec(L)),
                  (SpacetimePoint(top * L, L), WEDGE)]
    return faces, general


def _worst_acceleration_error(cases):
    # The largest relative error against mpmath; OutOfRange is required
    # exactly where a itself exceeds DBL_MAX.
    worst = 0.0
    for start, spec in cases:
        want = _acceleration_ref(start, spec)
        if want > DBL_MAX:
            with pytest.raises(OutOfRange):
                proper_acceleration(start, spec)
            continue
        worst = max(worst, float(abs(proper_acceleration(start, spec) - want) / want))
    return worst


def test_proper_acceleration_matches_scalar_reference():
    # Within 1e-7 of the scalar mpmath a up to the last float below each
    # face and off the wedge's horizon, at L = 2^k over the exponent range.
    faces, _ = _acceleration_cases()
    assert _worst_acceleration_error(faces) <= 1e-7


def test_proper_acceleration_matches_point_reference():
    # Within 1e-7 of mpmath at the point itself for general L: centered
    # diamonds with off-axis directions, translated diamonds and wedges
    # with random apexes and transverse coordinates.
    _, general = _acceleration_cases()
    assert _worst_acceleration_error(general) <= 1e-7


def test_proper_acceleration_independent_of_closed_forms(monkeypatch):
    # The oracle reads neither the acceleration formula nor the thermal
    # kernels that T and a come from.
    def refuse(*args):
        raise AssertionError("the oracle called a closed form")

    from diamondflow import flow, thermo
    for module, name in ((flow, "acceleration_at"), (thermo, "acceleration_at"),
                         (_kernels, "thermal"), (_kernels, "orbit_temperature")):
        monkeypatch.setattr(module, name, refuse)
    for start, spec in ((NullRadialCoords(0.6, -0.6), UNIT),
                        (NullRadialCoords(0.9, -0.1), DiamondSpec(1.0, 0.4)),
                        (SpacetimePoint(0.2, 1.1), WedgeSpec(0.3))):
        assert proper_acceleration(start, spec) > 0.0


def test_proper_acceleration_constant_along_orbit():
    z = NullRadialCoords(0.6, -0.6)
    values = []
    for t in np.linspace(-2, 2, 10):
        zt = diamond_flow(z, t, UNIT)
        values.append(proper_acceleration(zt, UNIT))
    spread = (max(values) - min(values)) / (sum(values) / len(values))
    assert spread < 1e-3
