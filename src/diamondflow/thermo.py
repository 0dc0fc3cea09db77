"""Inverse-temperature field and local temperature for causal diamonds.

The null components beta_pm of the flow tangent, its norm ||beta||, the
local temperature T = 1/(2 pi ||beta||), the proper acceleration a and the
ratio r/L are stated and computed once, in _kernels.thermal; the functions
here validate a point and return its values as Python floats.  The wedge
assigns T = a/(2 pi), so temperature_ratio equals r/L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .errors import NonpositiveAcceleration, OutOfRange, OutOfRegion
from .geometry import (DiamondSpec, NullRadialCoords, _finite_fields, centered_null_pair,
                       require_interior_null)

__all__ = [
    "TemperatureSample",
    "FourMomentum",
    "beta_field",
    "wedge_temperature",
    "diamond_temperature",
    "acceleration_at",
    "temperature_ratio",
    "radius_along_flow",
    "agreement_window",
    "relative_entropy",
]

@dataclass(frozen=True)
class TemperatureSample:
    """Thermal data at one diamond point."""

    point: NullRadialCoords
    beta_null: tuple[float, float]
    beta_norm: float
    temperature: float
    acceleration: float


@dataclass(frozen=True)
class FourMomentum:
    """Energy-momentum vector (p0, p1, p2, p3), signature (+,-,-,-)."""

    p0: float
    p1: float
    p2: float = 0.0
    p3: float = 0.0

    def __post_init__(self):
        _finite_fields(self, ("p0", "p1", "p2", "p3"), ValueError,
                       "non-finite component {name}={value!r}")


def beta_field(z: NullRadialCoords, d: DiamondSpec) -> tuple[float, float]:
    """Null components beta_pm = (L/2)(1 - v_pm)(1 + v_pm) of the flow tangent, v = u/L.

    Defined on the closed diamond; vanishes on the corresponding null face.
    """
    return _closed_beta(z, d)[:2]


def _closed_beta(z: NullRadialCoords, d: DiamondSpec):
    # (beta+, beta-, axis) at z on the closed diamond |u_pm| <= L.
    up, um, axis = centered_null_pair(z, d)
    if not (abs(up) <= d.size_L and abs(um) <= d.size_L):
        raise OutOfRegion(f"point must lie in the closed diamond: "
                          f"|u+|={abs(up)!r}, |u-|={abs(um)!r}, L={d.size_L!r}")
    return _kernels.null_beta(up, d.size_L)[2], _kernels.null_beta(um, d.size_L)[2], axis


def wedge_temperature(acceleration: float) -> float:
    """Temperature a/(2 pi) seen on a wedge boost orbit with proper acceleration a."""
    if not (acceleration > 0.0) or not math.isfinite(acceleration):
        raise NonpositiveAcceleration(f"need a finite acceleration > 0, got {acceleration!r}")
    return acceleration / (2.0 * math.pi)


def diamond_temperature(z: NullRadialCoords, d: DiamondSpec) -> TemperatureSample:
    """Full thermal sample at a strictly interior diamond point."""
    up, um, _ = require_interior_null(z, d)
    beta_p, beta_m, norm, temperature, acceleration, ratio = map(
        float, _kernels.thermal(up, um, d.size_L))
    if ratio == 0.0:
        # The central orbit is a geodesic, also where T overflows (a subnormal
        # L) and the kernel's 2 pi T r/L is inf * 0.
        acceleration = 0.0
    return TemperatureSample(point=z, beta_null=(beta_p, beta_m), beta_norm=norm,
                             temperature=temperature, acceleration=acceleration)


def acceleration_at(z: NullRadialCoords, d: DiamondSpec) -> float:
    """Proper acceleration a = 2 pi T r/L of the orbit through z, r the centered radius.

    Constant along each flow orbit; the central orbit (r = 0) is a geodesic.
    """
    return diamond_temperature(z, d).acceleration


def temperature_ratio(z: NullRadialCoords, d: DiamondSpec) -> float:
    """Wedge-to-diamond temperature ratio at z; equals r/L algebraically."""
    up, um, _ = require_interior_null(z, d)
    return float(_kernels.thermal(up, um, d.size_L)[5])


def radius_along_flow(r0: float, t: float, L: float) -> float:
    """Centered radius of the orbit through (r0, -r0) after parameter t.

    r(t) = r0 / (q sinh^2(t/2) + 1) with q = (1 - r0/L)(1 + r0/L); even in
    t, fixed at both r0 = 0 and r0 = L, and finite for every finite t.
    """
    if not 0.0 < L < math.inf:
        raise OutOfRange(f"L must be positive and finite, got {L!r}")
    if not 0.0 <= r0 <= L:
        raise OutOfRange(f"r0 must lie in [0, L], got {r0!r}")
    if not math.isfinite(t):
        raise OutOfRange(f"t must be finite, got {t!r}")
    q = (L - r0) / L * (1.0 + r0 / L)  # L - r0 is exact near r0 = L
    if q == 0.0 or r0 == 0.0:
        return r0
    s = 0.5 * abs(t)
    if s <= 350.0:
        sh = math.sinh(s)
        return r0 / (q * sh * sh + 1.0)
    # Here q sinh^2 s = q e^(2s)/4 dwarfs 1; logarithms keep r0/q and
    # e^(-2s) in range until the result itself leaves it.
    return math.exp(math.log(r0) - math.log(q) + math.log(4.0) - 2.0 * s)


def agreement_window(delta_r: float, L: float, tol: float) -> float:
    """Modular-parameter window 2 asinh(sqrt(tol L / delta_r)).

    For a start at distance delta_r from the diamond's agreement corner,
    the wedge approximation tracks the exact orbit to relative accuracy
    ~tol for |t| up to this value.
    """
    if not L > 0.0:
        raise OutOfRange(f"L must be positive, got {L!r}")
    if not 0.0 < delta_r < L:
        raise OutOfRange(f"delta_r must lie in (0, L), got {delta_r!r}")
    if not tol > 0.0:
        raise OutOfRange(f"tol must be positive, got {tol!r}")
    return 2.0 * math.asinh(math.sqrt(tol * L / delta_r))


def relative_entropy(p: FourMomentum, z: NullRadialCoords, d: DiamondSpec) -> float:
    """Relative-entropy pairing 2 pi P.beta for a localized excitation.

    P.beta = p0 beta^0 - vec p . vec beta with the tangent beta of the
    diamond flow at z; in null components 2 pi P.beta =
    pi ((p0 - p_axis) beta+ + (p0 + p_axis) beta-).  Linear in p, zero when
    beta vanishes, and defined on the closed diamond.
    """
    beta_p, beta_m, axis = _closed_beta(z, d)
    p_axis = p.p1 * axis[0] + p.p2 * axis[1] + p.p3 * axis[2]
    return math.pi * ((p.p0 - p_axis) * beta_p + (p.p0 + p_axis) * beta_m)
