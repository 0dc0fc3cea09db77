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
reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "centered_null_pair",
]

# Unit-vector tolerance for NullRadialCoords directions.
_DIRECTION_TOL = 1e-12

# Points closer to the diamond boundary than this (relative to L) are
# rejected by the flow and temperature operations that degenerate there.
BOUNDARY_MARGIN = 1e-10

# A direction counts as lying in the x0-x1 plane when its transverse
# components are below this; translated diamonds only support that plane.
_AXIS_TOL = 1e-9


@dataclass(frozen=True)
class SpacetimePoint:
    """Event with coordinates in length units, signature (+,-,-,-)."""

    x0: float
    x1: float
    x2: float = 0.0
    x3: float = 0.0

    def __post_init__(self):
        for name in ("x0", "x1", "x2", "x3"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise OutOfRange(f"non-finite coordinate {name}={v!r}")
            object.__setattr__(self, name, v)


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
        zp = float(self.z_plus)
        zm = float(self.z_minus)
        if not (math.isfinite(zp) and math.isfinite(zm)):
            raise OutOfRange("non-finite null coordinate")
        if zp < zm:
            raise OutOfRange(f"null ordering violated: z_plus={zp} < z_minus={zm}")
        d = tuple(float(c) for c in self.direction)
        if len(d) != 3:
            raise ValueError("direction must have three components")
        norm = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        if abs(norm - 1.0) > _DIRECTION_TOL:
            raise ValueError(f"direction must be a unit vector, got norm {norm!r}")
        object.__setattr__(self, "z_plus", zp)
        object.__setattr__(self, "z_minus", zm)
        object.__setattr__(self, "direction", d)

    @property
    def x0(self) -> float:
        return 0.5 * (self.z_plus + self.z_minus)

    @property
    def radius(self) -> float:
        return 0.5 * (self.z_plus - self.z_minus)


@dataclass(frozen=True)
class WedgeSpec:
    """Right wedge x1 - apex_x1 > |x0|, edge at x1 = apex_x1."""

    apex_x1: float = 0.0

    def __post_init__(self):
        v = float(self.apex_x1)
        if not math.isfinite(v):
            raise ValueError("non-finite apex")
        object.__setattr__(self, "apex_x1", v)


@dataclass(frozen=True)
class DiamondSpec:
    """Causal diamond of half-width size_L centered at x1 = translation_L1."""

    size_L: float = 1.0
    translation_L1: float = 0.0

    def __post_init__(self):
        size = float(self.size_L)
        shift = float(self.translation_L1)
        if not (math.isfinite(size) and math.isfinite(shift)):
            raise ValueError("non-finite diamond parameter")
        if size <= 0.0:
            raise ValueError(f"size_L must be positive, got {size!r}")
        object.__setattr__(self, "size_L", size)
        object.__setattr__(self, "translation_L1", shift)


def minkowski_square(x: SpacetimePoint) -> float:
    """Invariant square x.x = (x0)^2 - (x1)^2 - (x2)^2 - (x3)^2."""
    return x.x0 * x.x0 - x.x1 * x.x1 - x.x2 * x.x2 - x.x3 * x.x3


def to_null(x: SpacetimePoint, center_x1: float = 0.0) -> NullRadialCoords:
    """Null-radial coordinates of x about (0, center_x1, 0, 0)."""
    dx1 = x.x1 - center_x1
    r = math.sqrt(dx1 * dx1 + x.x2 * x.x2 + x.x3 * x.x3)
    if r > 0.0:
        direction = (dx1 / r, x.x2 / r, x.x3 / r)
    else:
        direction = (1.0, 0.0, 0.0)
    return NullRadialCoords(x.x0 + r, x.x0 - r, direction)


def from_null(z: NullRadialCoords, center_x1: float = 0.0) -> SpacetimePoint:
    """Inverse of to_null; the ordering z_plus >= z_minus is enforced by the type."""
    r = z.radius
    d = z.direction
    return SpacetimePoint(z.x0, center_x1 + r * d[0], r * d[1], r * d[2])


def in_wedge(x: SpacetimePoint, w: WedgeSpec) -> bool:
    """Strict membership in the open right wedge about w.apex_x1."""
    return x.x1 - w.apex_x1 > abs(x.x0)


def in_diamond(x: SpacetimePoint, d: DiamondSpec) -> bool:
    """Strict membership in the open diamond |x0| + r < L, r measured from the center."""
    dx1 = x.x1 - d.translation_L1
    r = math.sqrt(dx1 * dx1 + x.x2 * x.x2 + x.x3 * x.x3)
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
    then be negative.  Returns (u_plus, u_minus, axis) with axis the
    unit 3-vector the signed xi refers to.
    """
    if d.translation_L1 == 0.0:
        return z.z_plus, z.z_minus, z.direction
    dirv = z.direction
    if abs(dirv[1]) > _AXIS_TOL or abs(dirv[2]) > _AXIS_TOL:
        raise OutOfRange(
            "translated diamonds only support points in the x0-x1 plane; "
            f"got direction {dirv!r}"
        )
    sign = 1.0 if dirv[0] > 0.0 else -1.0
    xi = sign * z.radius - d.translation_L1
    x0 = z.x0
    return x0 + xi, x0 - xi, (1.0, 0.0, 0.0)


def null_from_centered(u_plus: float, u_minus: float,
                       axis: tuple[float, float, float],
                       d: DiamondSpec) -> NullRadialCoords:
    """Global null-radial coordinates from centered signed null coordinates."""
    if d.translation_L1 == 0.0:
        # Centered null coordinates are the global ones; no recombination,
        # so the t = 0 flow is the exact identity.
        if u_plus >= u_minus:
            return NullRadialCoords(u_plus, u_minus, axis)
        # Rounding guard: a pair that started ordered cannot cross.
        mid = 0.5 * (u_plus + u_minus)
        return NullRadialCoords(mid, mid, axis)
    x0 = 0.5 * (u_plus + u_minus)
    xi = 0.5 * (u_plus - u_minus)
    x1 = d.translation_L1 + xi
    r = abs(x1)
    direction = (-1.0, 0.0, 0.0) if x1 < 0.0 else (1.0, 0.0, 0.0)
    return NullRadialCoords(x0 + r, x0 - r, direction)


def require_interior_null(u_plus: float, u_minus: float, d: DiamondSpec,
                          margin: float = BOUNDARY_MARGIN) -> None:
    """Reject centered pairs outside the open diamond or within margin*L of its faces."""
    lim = d.size_L * (1.0 - margin)
    if abs(u_plus) >= lim or abs(u_minus) >= lim:
        raise OutOfRegion(
            "point must lie strictly inside the diamond, away from the boundary: "
            f"|u+|={abs(u_plus)!r}, |u-|={abs(u_minus)!r}, limit={lim!r}"
        )
