import math

import numpy as np
import pytest

from _helpers import interior_pairs, interior_points, max_coord_diff
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
    diamond_to_wedge,
    from_null,
    in_diamond,
    in_wedge,
    minkowski_square,
    null_from_centered,
    wedge_to_diamond,
)

UNIT = DiamondSpec(1.0, 0.0)
WEDGE = WedgeSpec(0.0)


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
    near = 1.0 - 1e-12
    with pytest.raises(OutOfRegion):
        diamond_flow(NullRadialCoords(near, -near), 0.5, UNIT)


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


# ------------------------------------------------------------ proper time rate

def test_proper_time_rate_center():
    assert abs(proper_time_rate(NullRadialCoords(0.0, 0.0), UNIT) - 0.5) < 1e-15


def test_proper_time_rate_boundary_scaling():
    # rate -> 0 like sqrt(eps) as z+ -> L
    for eps in (1e-4, 1e-6, 1e-8):
        z = NullRadialCoords(1.0 - eps, 0.0)
        rate = proper_time_rate(z, UNIT)
        want = math.sqrt((1.0 - (1.0 - eps) ** 2) * 1.0) / 2.0
        assert abs(rate - want) < 1e-10 * want


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


def test_rk4_step_out_of_region():
    # One giant step throws a stage far outside the closed diamond.
    with pytest.raises(StepOutOfRegion):
        integrate_flow_rk4(NullRadialCoords(0.0, 0.0), 10.0, 1, UNIT)


def test_rk4_validates_steps():
    with pytest.raises(OutOfRange):
        integrate_flow_rk4(NullRadialCoords(0.0, 0.0), 1.0, 0, UNIT)


# ------------------------------------------------------------------ trajectory

def test_trajectory_type_invariants():
    with pytest.raises(ValueError):
        Trajectory(UNIT, (0.0, 0.0), (SpacetimePoint(0, 0), SpacetimePoint(0, 0)),
                   SpacetimePoint(0, 0))
    with pytest.raises(ValueError):
        Trajectory(UNIT, (0.0,), (SpacetimePoint(0, 0), SpacetimePoint(0, 0)),
                   SpacetimePoint(0, 0))
    with pytest.raises(ValueError):
        Trajectory(UNIT, (0.0, 1.0), (SpacetimePoint(0, 0), SpacetimePoint(0, 5)),
                   SpacetimePoint(0, 0))


def test_sample_trajectory_endpoints_only():
    traj = sample_trajectory(NullRadialCoords(0.0, 0.0), -1.0, 1.0, 2, UNIT)
    assert traj.t_values == (-1.0, 1.0)
    assert len(traj.points) == 2


def test_sample_trajectory_center_samples():
    traj = sample_trajectory(NullRadialCoords(0.0, 0.0), -3.0, 3.0, 7, UNIT)
    assert len(traj.points) == 7
    for t, p in zip(traj.t_values, traj.points):
        want = math.tanh(0.5 * t)
        assert abs(p.x0 - want) < 1e-14
        assert abs(p.x1) < 1e-14
        assert in_diamond(p, DiamondSpec(1.0 + 1e-12, 0.0))


def test_sample_trajectory_wedge():
    traj = sample_trajectory(SpacetimePoint(0, 1), 0.0, 1.0, 3, WEDGE)
    assert abs(traj.points[-1].x0 - math.sinh(1)) < 1e-12
    assert abs(traj.points[-1].x1 - math.cosh(1)) < 1e-12


def test_sample_trajectory_validation():
    with pytest.raises(OutOfRange):
        sample_trajectory(NullRadialCoords(0.0, 0.0), 0.0, 1.0, 1, UNIT)
    with pytest.raises(OutOfRange):
        sample_trajectory(NullRadialCoords(0.0, 0.0), 1.0, 1.0, 5, UNIT)


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


def test_proper_acceleration_constant_along_orbit():
    z = NullRadialCoords(0.6, -0.6)
    values = []
    for t in np.linspace(-2, 2, 10):
        zt = diamond_flow(z, t, UNIT)
        values.append(proper_acceleration(zt, UNIT))
    spread = (max(values) - min(values)) / (sum(values) / len(values))
    assert spread < 1e-3
