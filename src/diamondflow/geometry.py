"""Minkowski geometry for wedge and causal-diamond regions.

Coordinates are (x0, x1, x2, x3) with metric signature (+,-,-,-) and
natural units c = hbar = k_B = 1.  The module provides the two region
predicates, null-radial coordinates z_pm = x0 +- r, and the conformal
map (a ray inversion composed with shifts and a dilation) that carries
the right wedge x1 > |x0| onto the causal diamond |x0| + r < L whose
center sits at x1 = L1 on the first spatial axis.

Diamonds are parameterized by half-width L and center offset L1; the
flow and thermal modules always reduce a translated diamond to the
centered one, and the helpers at the bottom of this module perform that
reduction: u_pm = z_pm -+ L1 on the side of the point's direction, and
back by _kernels.global_null, one rounding per null coordinate each way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import LightlikeInput, OutOfRange, OutOfRegion

__all__ = [
    "SpacetimePoint",
    "NullRadialCoords",
    "WedgeSpec",
    "DiamondSpec",
    "minkowski_square",
    "to_null",
    "from_null",
    "in_wedge",
    "in_diamond",
    "ray_inversion",
    "wedge_to_diamond",
    "diamond_to_wedge",
]

# Unit-vector tolerance for NullRadialCoords directions.
_DIRECTION_TOL = 1e-12

# A direction counts as lying in the x0-x1 plane when its transverse
# components are below this; translated diamonds only support that plane.
_AXIS_TOL = 1e-9


def _finite_fields(obj, names, error, message) -> None:
    """Store each named field of the frozen dataclass obj as a float; raise
    error(message), formatted with the field's name and value, on a non-finite one."""
    fields = obj.__dict__  # frozen: its __setattr__ refuses
    for name in names:
        v = fields[name] = float(fields[name])
        if not math.isfinite(v):
            raise error(message.format(name=name, value=v))


@dataclass(frozen=True)
class SpacetimePoint:
    """Event with coordinates in length units, signature (+,-,-,-)."""

    x0: float
    x1: float
    x2: float = 0.0
    x3: float = 0.0

    def __post_init__(self):
        _finite_fields(self, ("x0", "x1", "x2", "x3"), OutOfRange,
                       "non-finite coordinate {name}={value!r}")


@dataclass(frozen=True)
class NullRadialCoords:
    """Point in null-radial form z_pm = x0 +- r.

    The radius r = (z_plus - z_minus)/2 >= 0 is the Euclidean distance
    from the spatial origin, and `direction` is the unit 3-vector from
    the origin to the point (components along axes 1, 2, 3).  Points at
    r = 0 carry the conventional direction (1, 0, 0).
    """

    z_plus: float
    z_minus: float
    direction: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        _finite_fields(self, ("z_plus", "z_minus"), OutOfRange, "non-finite null coordinate")
        zp, zm = self.z_plus, self.z_minus
        if zp < zm:
            raise OutOfRange(f"null ordering violated: z_plus={zp} < z_minus={zm}")
        d = tuple(float(c) for c in self.direction)
        if len(d) != 3:
            raise ValueError("direction must have three components")
        norm = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        if not abs(norm - 1.0) <= _DIRECTION_TOL:  # a nan component too
            raise ValueError(f"direction must be a unit vector, got norm {norm!r}")
        object.__setattr__(self, "direction", d)

    @property
    def x0(self) -> float:
        return _half_sum(self.z_plus, self.z_minus)

    @property
    def radius(self) -> float:
        return _half_sum(self.z_plus, -self.z_minus)


def _half_sum(a: float, b: float) -> float:
    # 0.5 (a + b), halved first only where a + b overflows: exact there,
    # while halving first everywhere would round subnormals.
    s = a + b
    return 0.5 * s if abs(s) != math.inf else 0.5 * a + 0.5 * b


@dataclass(frozen=True)
class WedgeSpec:
    """Right wedge x1 - apex_x1 > |x0|, edge at x1 = apex_x1."""

    apex_x1: float = 0.0

    def __post_init__(self):
        _finite_fields(self, ("apex_x1",), ValueError, "non-finite apex")


@dataclass(frozen=True)
class DiamondSpec:
    """Causal diamond of half-width size_L centered at x1 = translation_L1."""

    size_L: float = 1.0
    translation_L1: float = 0.0

    def __post_init__(self):
        _finite_fields(self, ("size_L", "translation_L1"), ValueError,
                       "non-finite diamond parameter")
        if self.size_L <= 0.0:
            raise ValueError(f"size_L must be positive, got {self.size_L!r}")


def minkowski_square(x: SpacetimePoint) -> float:
    """Invariant square x.x = (x0)^2 - (x1)^2 - (x2)^2 - (x3)^2."""
    return x.x0 * x.x0 - x.x1 * x.x1 - x.x2 * x.x2 - x.x3 * x.x3


def _radial(x: SpacetimePoint, center_x1: float) -> tuple[float, tuple[float, float, float]]:
    # Euclidean radius about (0, center_x1, 0, 0) and its unit direction,
    # free of overflow and underflow: hypot for the radius, and the vector
    # scaled by its largest component before it is normalised.
    v = (x.x1 - center_x1, x.x2, x.x3)
    r = math.hypot(*v)
    if r == 0.0:
        return 0.0, (1.0, 0.0, 0.0)
    big = max(abs(c) for c in v)
    v = tuple(c / big for c in v)
    n = math.hypot(*v)
    return r, tuple(c / n for c in v)


def to_null(x: SpacetimePoint, center_x1: float = 0.0) -> NullRadialCoords:
    """Null-radial coordinates of x about (0, center_x1, 0, 0)."""
    r, direction = _radial(x, center_x1)
    return NullRadialCoords(x.x0 + r, x.x0 - r, direction)


def from_null(z: NullRadialCoords, center_x1: float = 0.0) -> SpacetimePoint:
    """Inverse of to_null; the ordering z_plus >= z_minus is enforced by the type."""
    r = z.radius
    d = z.direction
    return SpacetimePoint(z.x0, center_x1 + r * d[0], r * d[1], r * d[2])


def in_wedge(x: SpacetimePoint, w: WedgeSpec) -> bool:
    """Strict membership in the open right wedge about w.apex_x1."""
    return x.x1 - w.apex_x1 > abs(x.x0)


def require_in_wedge(x: SpacetimePoint, w: WedgeSpec) -> None:
    """Raise OutOfRegion unless the SpacetimePoint x lies in the open wedge w."""
    if not isinstance(x, SpacetimePoint):
        raise TypeError(f"a wedge point must be a SpacetimePoint, got {type(x).__name__}")
    if not in_wedge(x, w):
        raise OutOfRegion(f"{x} is not in the wedge with apex {w.apex_x1}")


def in_diamond(x: SpacetimePoint, d: DiamondSpec) -> bool:
    """Strict membership in the open diamond |x0| + r < L, r measured from the center."""
    r, _ = _radial(x, d.translation_L1)
    return abs(x.x0) + r < d.size_L


def ray_inversion(x: SpacetimePoint) -> SpacetimePoint:
    """Conformal inversion x -> (-x0, -vec x)/x.x; an involution off the light cone."""
    q = minkowski_square(x)
    scale = x.x0 * x.x0 + x.x1 * x.x1 + x.x2 * x.x2 + x.x3 * x.x3
    if abs(q) <= 1e-12 * max(1.0, scale):
        raise LightlikeInput(f"point with x.x = {q!r} is too close to the light cone")
    return SpacetimePoint(-x.x0 / q, -x.x1 / q, -x.x2 / q, -x.x3 / q)


_UNIT_WEDGE = WedgeSpec(0.0)
_HALF_E1 = 0.5


def wedge_to_diamond(x: SpacetimePoint, d: DiamondSpec) -> SpacetimePoint:
    """Conformal map of the unit right wedge onto the diamond d.

    The unit map shifts by e1/2, ray-inverts, and shifts back by e1;
    dilation by L and translation by L1 then produce the general
    diamond.  Input must lie in the unit right wedge.
    """
    if not in_wedge(x, _UNIT_WEDGE):
        raise OutOfRegion("input to wedge_to_diamond must lie in the unit right wedge")
    y = ray_inversion(SpacetimePoint(x.x0, x.x1 + _HALF_E1, x.x2, x.x3))
    L = d.size_L
    return SpacetimePoint(L * y.x0, L * (y.x1 - 1.0) + d.translation_L1, L * y.x2, L * y.x3)


def diamond_to_wedge(x: SpacetimePoint, d: DiamondSpec) -> SpacetimePoint:
    """Inverse of wedge_to_diamond; input must lie in the diamond d."""
    if not in_diamond(x, d):
        raise OutOfRegion("input to diamond_to_wedge must lie in the diamond")
    L = d.size_L
    y = SpacetimePoint(x.x0 / L, (x.x1 - d.translation_L1) / L + 1.0, x.x2 / L, x.x3 / L)
    y = ray_inversion(y)
    return SpacetimePoint(y.x0, y.x1 - _HALF_E1, y.x2, y.x3)


def centered_null_pair(z: NullRadialCoords, d: DiamondSpec) -> tuple[float, float, tuple[float, float, float]]:
    """Signed null coordinates u_pm = x0 +- xi about the diamond center.

    xi is the signed displacement along the flow axis.  For a centered
    diamond any direction works and xi equals the radius; a translated
    diamond supports only directions along +-e1, and xi = x1 - L1 may
    then be negative.  u_pm = z_pm -+ L1, swapped on the -e1 side, one
    rounding each: the inverse of _kernels.global_null.  Returns (u_plus,
    u_minus, axis), axis the unit 3-vector of xi.  z must be NullRadialCoords.
    """
    if not isinstance(z, NullRadialCoords):
        raise TypeError(f"a diamond point must be NullRadialCoords, got {type(z).__name__}")
    L1, dirv = d.translation_L1, z.direction
    if L1 == 0.0:
        return z.z_plus, z.z_minus, dirv
    if abs(dirv[1]) > _AXIS_TOL or abs(dirv[2]) > _AXIS_TOL:
        raise OutOfRange(
            "translated diamonds only support points in the x0-x1 plane; "
            f"got direction {dirv!r}"
        )
    if dirv[0] > 0.0:
        return z.z_plus - L1, z.z_minus + L1, (1.0, 0.0, 0.0)
    return z.z_minus - L1, z.z_plus + L1, (1.0, 0.0, 0.0)


def null_from_centered(u_plus: float, u_minus: float,
                       axis: tuple[float, float, float],
                       d: DiamondSpec) -> NullRadialCoords:
    """Global null-radial coordinates from centered signed null coordinates,
    by _kernels.global_null: in the direction of axis, or of -axis where x1 < 0."""
    with np.errstate(over="ignore", invalid="ignore"):  # NullRadialCoords rejects inf and nan
        z_plus, z_minus, _, x1 = _kernels.global_null(u_plus, u_minus, d.size_L, d.translation_L1)
    if x1 < 0.0:
        axis = tuple(0.0 - c for c in axis)  # 0.0 - c: no -0.0 component
    return NullRadialCoords(z_plus, z_minus, axis)


def require_interior_null(z: NullRadialCoords, d: DiamondSpec) -> tuple[float, float, tuple[float, float, float]]:
    """centered_null_pair(z, d) for z strictly inside d: |u_pm| < L."""
    u_plus, u_minus, axis = centered_null_pair(z, d)
    if not (abs(u_plus) < d.size_L and abs(u_minus) < d.size_L):
        raise OutOfRegion(
            f"point must lie strictly inside the diamond: "
            f"|u+|={abs(u_plus)!r}, |u-|={abs(u_minus)!r}, L={d.size_L!r}"
        )
    return u_plus, u_minus, axis
