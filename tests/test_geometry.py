import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from diamondflow.errors import LightlikeInput, OutOfRange, OutOfRegion
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
    ray_inversion,
    to_null,
    wedge_to_diamond,
)
from diamondflow.thermo import FourMomentum

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_minkowski_square_signature():
    assert minkowski_square(SpacetimePoint(1, 0, 0, 0)) == 1.0
    assert minkowski_square(SpacetimePoint(0, 1, 0, 0)) == -1.0
    assert minkowski_square(SpacetimePoint(0, 0, 1, 0)) == -1.0
    assert minkowski_square(SpacetimePoint(0, 0, 0, 1)) == -1.0
    assert minkowski_square(SpacetimePoint(1, 1, 0, 0)) == 0.0


def test_point_rejects_nonfinite():
    # domain errors, so the CLI reports an overflowed coordinate with exit 3
    with pytest.raises(OutOfRange):
        SpacetimePoint(math.nan, 0)
    with pytest.raises(OutOfRange):
        SpacetimePoint(0, math.inf)
    with pytest.raises(OutOfRange):
        NullRadialCoords(math.inf, 0.0)


# The five value types, valid arguments, and the exception each raises for
# a non-finite field.
_VALUE_TYPES = [
    (SpacetimePoint, (0.0, 1.0, 2.0, 3.0), OutOfRange),
    (NullRadialCoords, (0.5, -0.5), OutOfRange),
    (WedgeSpec, (0.5,), ValueError),
    (DiamondSpec, (2.0, 0.5), ValueError),
    (FourMomentum, (1.0, 0.5, 0.25, 0.125), ValueError),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, args, error", _VALUE_TYPES, ids=lambda v: getattr(v, "__name__", ""))
def test_value_types_reject_nonfinite_fields(cls, args, error, bad):
    assert all(type(v) is float for v in vars(cls(*map(int, args))).values()
               if not isinstance(v, tuple))
    for k in range(len(args)):
        with pytest.raises(error) as info:
            cls(*args[:k], bad, *args[k + 1:])
        assert type(info.value) is error, (cls, k)
    if cls is NullRadialCoords:
        with pytest.raises(ValueError):
            NullRadialCoords(*args, (bad, 0.0, 0.0))


def test_null_coords_basics():
    z = to_null(SpacetimePoint(0.25, 0.5, 0, 0))
    assert z.z_plus == 0.75
    assert z.z_minus == -0.25
    assert z.direction == (1.0, 0.0, 0.0)
    assert z.radius == 0.5
    assert z.x0 == 0.25


def test_null_coords_halve_first_only_on_overflow():
    # z_plus - z_minus overflows: halved first, which is exact there.
    z = NullRadialCoords(0.99e308, -0.99e308)
    assert (z.x0, z.radius) == (0.0, 0.99e308)
    assert from_null(z) == SpacetimePoint(0.0, 0.99e308)
    assert NullRadialCoords(2.0 ** 1023, 2.0 ** 1022).x0 == 3.0 * 2.0 ** 1021
    # Elsewhere the sum is halved, which keeps subnormal bits.
    z = NullRadialCoords(5e-324, 5e-324)
    assert (z.x0, z.radius) == (5e-324, 0.0)
    assert NullRadialCoords(1.5e-323, -5e-324).radius == 1e-323


def test_null_coords_off_axis_direction():
    z = to_null(SpacetimePoint(0.0, 0.0, 3.0, 4.0))
    assert z.radius == 5.0
    assert z.direction == (0.0, 0.6, 0.8)


def test_null_ordering_enforced():
    with pytest.raises(OutOfRange):
        NullRadialCoords(-1.0, 1.0)


def test_null_direction_must_be_unit():
    with pytest.raises(ValueError):
        NullRadialCoords(1.0, -1.0, (1.0, 1.0, 0.0))


def test_origin_direction_convention():
    z = to_null(SpacetimePoint(0.7, 0, 0, 0))
    assert z.direction == (1.0, 0.0, 0.0)
    assert z.radius == 0.0


@given(finite, finite, finite, finite, st.floats(min_value=-5, max_value=5))
# (dx1)^2 is subnormal here, so sqrt of the sum of squares gave a radius
# that left the direction off unit norm by 1e-10.
@example(x0=0.0, x1=0.0, x2=0.0, x3=0.0, center=9.018449151484447e-158)
def test_null_round_trip(x0, x1, x2, x3, center):
    p = SpacetimePoint(x0, x1, x2, x3)
    q = from_null(to_null(p, center), center)
    scale = max(1.0, abs(x0), abs(x1), abs(x2), abs(x3), abs(center))
    assert abs(q.x0 - p.x0) <= 1e-12 * scale
    assert abs(q.x1 - p.x1) <= 1e-12 * scale
    assert abs(q.x2 - p.x2) <= 1e-12 * scale
    assert abs(q.x3 - p.x3) <= 1e-12 * scale


def test_radius_free_of_overflow_and_underflow():
    assert in_diamond(SpacetimePoint(0, 1e200), DiamondSpec(1e300))
    z = to_null(SpacetimePoint(0, 1e200))
    assert (z.z_plus, z.z_minus, z.direction) == (1e200, -1e200, (1.0, 0.0, 0.0))
    z = to_null(SpacetimePoint(0, 3e-200, 4e-200))
    assert z.radius == 5e-200
    assert z.direction == pytest.approx((0.6, 0.8, 0.0), rel=1e-15)
    z = to_null(SpacetimePoint(0, 0, 5e-324, 5e-324), 0.0)
    assert z.radius == 5e-324
    assert z.direction == pytest.approx((0.0, math.sqrt(0.5), math.sqrt(0.5)), rel=1e-15)


def test_wedge_membership():
    w = WedgeSpec(0.0)
    assert in_wedge(SpacetimePoint(0, 1), w)
    assert in_wedge(SpacetimePoint(0.9, 1), w)
    assert not in_wedge(SpacetimePoint(1, 1), w)
    assert not in_wedge(SpacetimePoint(0, -1), w)
    assert not in_wedge(SpacetimePoint(0, 0), w)
    w5 = WedgeSpec(5.0)
    assert in_wedge(SpacetimePoint(0, 5.5), w5)
    assert not in_wedge(SpacetimePoint(0.6, 5.5), w5)


def test_diamond_membership():
    d = DiamondSpec(1.0, 0.0)
    assert in_diamond(SpacetimePoint(0, 0), d)
    assert in_diamond(SpacetimePoint(0.4, 0.5), d)
    assert not in_diamond(SpacetimePoint(0, 1), d)
    assert not in_diamond(SpacetimePoint(0.5, 0.5), d)
    assert not in_diamond(SpacetimePoint(1.1, 0), d)
    shifted = DiamondSpec(1.0, 2.0)
    assert in_diamond(SpacetimePoint(0, 2), shifted)
    assert not in_diamond(SpacetimePoint(0, 0), shifted)


def test_diamond_spec_validation():
    with pytest.raises(ValueError):
        DiamondSpec(0.0, 0.0)
    with pytest.raises(ValueError):
        DiamondSpec(-1.0, 0.0)


@given(finite, finite)
def test_diamond_membership_matches_null_window(x0, x1):
    # In the x0-x1 plane, membership is exactly |u+| < L and |u-| < L
    # with u_pm = x0 +- (x1 - L1).
    d = DiamondSpec(2.0, 0.5)
    up = x0 + (x1 - d.translation_L1)
    um = x0 - (x1 - d.translation_L1)
    p = SpacetimePoint(x0, x1)
    assert in_diamond(p, d) == (abs(up) < d.size_L and abs(um) < d.size_L)


def test_ray_inversion_examples():
    p = ray_inversion(SpacetimePoint(0, 1, 0, 0))
    assert (p.x0, p.x1, p.x2, p.x3) == (0.0, 1.0, 0.0, 0.0)
    q = ray_inversion(SpacetimePoint(1, 2, 0, 0))
    assert abs(q.x0 - 1.0 / 3.0) < 1e-15
    assert abs(q.x1 - 2.0 / 3.0) < 1e-15


def test_ray_inversion_lightlike_rejected():
    with pytest.raises(LightlikeInput):
        ray_inversion(SpacetimePoint(1, 1, 0, 0))
    with pytest.raises(LightlikeInput):
        ray_inversion(SpacetimePoint(5, 3, 4, 0))


@given(finite, finite, finite, finite)
def test_ray_inversion_involution(x0, x1, x2, x3):
    p = SpacetimePoint(x0, x1, x2, x3)
    q = minkowski_square(p)
    scale = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
    if abs(q) < 1e-3 * max(1.0, scale):
        return
    r = ray_inversion(ray_inversion(p))
    s = max(1.0, abs(x0), abs(x1), abs(x2), abs(x3))
    assert abs(r.x0 - p.x0) <= 1e-10 * s
    assert abs(r.x1 - p.x1) <= 1e-10 * s
    assert abs(r.x2 - p.x2) <= 1e-10 * s
    assert abs(r.x3 - p.x3) <= 1e-10 * s


def test_wedge_to_diamond_examples():
    d = DiamondSpec(1.0, 0.0)
    img = wedge_to_diamond(SpacetimePoint(0, 0.5), d)
    assert max(abs(img.x0), abs(img.x1), abs(img.x2), abs(img.x3)) < 1e-15
    back = diamond_to_wedge(SpacetimePoint(0, 0), d)
    assert (back.x0, back.x1) == (0.0, 0.5)


def test_wedge_map_rejects_outside():
    d = DiamondSpec(1.0, 0.0)
    with pytest.raises(OutOfRegion):
        wedge_to_diamond(SpacetimePoint(0, -1), d)
    with pytest.raises(OutOfRegion):
        diamond_to_wedge(SpacetimePoint(0, 2), d)


def test_wedge_map_membership_transport():
    # The conformal map must send the unit wedge into the diamond and back.
    rng = np.random.default_rng(7)
    d = DiamondSpec(1.5, 0.25)
    n = 10_000
    x0 = rng.uniform(-20, 20, n)
    extra = rng.uniform(1e-6, 30, n)
    x1 = np.abs(x0) + extra
    x2 = rng.uniform(-10, 10, n)
    x3 = rng.uniform(-10, 10, n)
    for i in range(n):
        p = SpacetimePoint(x0[i], x1[i], x2[i], x3[i])
        img = wedge_to_diamond(p, d)
        assert in_diamond(img, d)
        back = diamond_to_wedge(img, d)
        s = max(1.0, abs(p.x0), abs(p.x1), abs(p.x2), abs(p.x3))
        assert abs(back.x0 - p.x0) <= 1e-9 * s
        assert abs(back.x1 - p.x1) <= 1e-9 * s
        assert abs(back.x2 - p.x2) <= 1e-9 * s
        assert abs(back.x3 - p.x3) <= 1e-9 * s


def test_wedge_map_scaling_translation():
    # Image under (L, L1) equals scaled-and-shifted image under the unit diamond.
    rng = np.random.default_rng(11)
    d = DiamondSpec(3.0, -2.0)
    unit = DiamondSpec(1.0, 0.0)
    for _ in range(200):
        t0 = rng.uniform(-3, 3)
        x1 = abs(t0) + rng.uniform(1e-3, 5)
        p = SpacetimePoint(t0, x1, rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = wedge_to_diamond(p, d)
        b = wedge_to_diamond(p, unit)
        assert abs(a.x0 - d.size_L * b.x0) < 1e-12 * max(1.0, abs(a.x0))
        assert abs(a.x1 - (d.size_L * b.x1 + d.translation_L1)) < 1e-12 * max(1.0, abs(a.x1))
        assert abs(a.x2 - d.size_L * b.x2) < 1e-12 * max(1.0, abs(a.x2))
        assert abs(a.x3 - d.size_L * b.x3) < 1e-12 * max(1.0, abs(a.x3))


def test_conformal_factor_positive():
    # Finite-difference Jacobian action: the map scales Minkowski squares
    # by a positive conformal factor wherever the difference is not null.
    rng = np.random.default_rng(13)
    d = DiamondSpec(1.0, 0.0)
    h = 1e-6
    checked = 0
    while checked < 100:
        t0 = rng.uniform(-2, 2)
        p = SpacetimePoint(t0, abs(t0) + rng.uniform(0.1, 3), rng.uniform(-1, 1), rng.uniform(-1, 1))
        delta = rng.uniform(-1, 1, 4)
        dq = delta[0] ** 2 - delta[1] ** 2 - delta[2] ** 2 - delta[3] ** 2
        if abs(dq) < 0.1:
            continue
        q = SpacetimePoint(p.x0 + h * delta[0], p.x1 + h * delta[1],
                           p.x2 + h * delta[2], p.x3 + h * delta[3])
        a = wedge_to_diamond(p, d)
        b = wedge_to_diamond(q, d)
        diff = SpacetimePoint(b.x0 - a.x0, b.x1 - a.x1, b.x2 - a.x2, b.x3 - a.x3)
        ratio = minkowski_square(diff) / (h * h * dq)
        assert ratio > 0.0
        checked += 1
