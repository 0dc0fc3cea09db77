"""Inverse-temperature field and local temperature for causal diamonds.

In the scale-free centered null coordinates v_pm = u_pm/L = tanh(rho_pm)
the flow tangent has null components beta_pm = (L/2)(1 - v_pm)(1 + v_pm)
= L/(2 cosh^2 rho_pm), zero on the faces.  Its Minkowski norm
||beta|| = sqrt(beta+ beta-) sets the local directional temperature
T = 1/(2 pi ||beta||) = cosh rho+ cosh rho- / (pi L), which diverges toward
the boundary and equals 1/(pi L) at the center.  The orbit has proper
acceleration a = 2 pi T r/L with r/L = |v+ - v-|/2.  The wedge assigns
T = a/(2 pi), so temperature_ratio equals r/L.  L enters as one factor,
never as L^2, so no result overflows before the quantity itself does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonpositiveAcceleration, OutOfRange, OutOfRegion
from .geometry import (
    DiamondSpec,
    NullRadialCoords,
    centered_null_pair,
    require_interior_null,
)

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

_TWO_PI = 2.0 * math.pi


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
        for name in ("p0", "p1", "p2", "p3"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"non-finite component {name}={v!r}")
            object.__setattr__(self, name, v)


# ||beta|| = (L/2) sqrt((1 - v+^2)(1 - v-^2)); also flow.proper_time_rate.
def _beta_norm(up: float, um: float, L: float) -> float:
    vp, vm = up / L, um / L
    return 0.5 * L * math.sqrt((1.0 - vp) * (1.0 + vp) * ((1.0 - vm) * (1.0 + vm)))


def _closure_pair(z: NullRadialCoords, d: DiamondSpec) -> tuple[float, float, tuple[float, float, float]]:
    # beta is polynomial, so it extends to the closed diamond; only the
    # quantities that divide by it need the interior margin.
    up, um, axis = centered_null_pair(z, d)
    L = d.size_L
    if abs(up) > L or abs(um) > L:
        raise OutOfRegion(f"point with |u+|={abs(up)!r}, |u-|={abs(um)!r} is outside the closed diamond")
    return up, um, axis


def _beta_pair(up: float, um: float, L: float) -> tuple[float, float]:
    vp, vm = up / L, um / L
    return 0.5 * L * ((1.0 - vp) * (1.0 + vp)), 0.5 * L * ((1.0 - vm) * (1.0 + vm))


def beta_field(z: NullRadialCoords, d: DiamondSpec) -> tuple[float, float]:
    """Null components beta_pm = (L/2)(1 - v_pm)(1 + v_pm) of the flow tangent, v = u/L.

    Defined on the closed diamond; vanishes on the corresponding null face.
    """
    up, um, _ = _closure_pair(z, d)
    return _beta_pair(up, um, d.size_L)


def _beta_vector(z: NullRadialCoords, d: DiamondSpec) -> tuple[float, float, tuple[float, float, float]]:
    # (beta^0, beta^s, axis): the flow tangent is beta^0 e0 + beta^s axis.
    up, um, axis = _closure_pair(z, d)
    beta_p, beta_m = _beta_pair(up, um, d.size_L)
    return 0.5 * (beta_p + beta_m), 0.5 * (beta_p - beta_m), axis


def wedge_temperature(acceleration: float) -> float:
    """Temperature a/(2 pi) seen on a wedge boost orbit with proper acceleration a."""
    if not (acceleration > 0.0) or not math.isfinite(acceleration):
        raise NonpositiveAcceleration(f"need a finite acceleration > 0, got {acceleration!r}")
    return acceleration / _TWO_PI


def diamond_temperature(z: NullRadialCoords, d: DiamondSpec) -> TemperatureSample:
    """Full thermal sample at a strictly interior diamond point."""
    up, um, _ = require_interior_null(z, d)
    L = d.size_L
    bnorm = _beta_norm(up, um, L)
    temperature = 1.0 / (_TWO_PI * bnorm)
    return TemperatureSample(
        point=z,
        beta_null=_beta_pair(up, um, L),
        beta_norm=bnorm,
        temperature=temperature,
        acceleration=_TWO_PI * temperature * _ratio(up, um, L),
    )


def acceleration_at(z: NullRadialCoords, d: DiamondSpec) -> float:
    """Proper acceleration a = 2 pi T r/L of the orbit through z, r the centered radius.

    Constant along each flow orbit; the central orbit (r = 0) is a geodesic.
    """
    return diamond_temperature(z, d).acceleration


def temperature_ratio(z: NullRadialCoords, d: DiamondSpec) -> float:
    """Wedge-to-diamond temperature ratio at z; equals r/L algebraically."""
    up, um, _ = require_interior_null(z, d)
    return _ratio(up, um, d.size_L)


def _ratio(up: float, um: float, L: float) -> float:
    return 0.5 * abs(up / L - um / L)


def radius_along_flow(r0: float, t: float, L: float) -> float:
    """Centered radius of the orbit through (r0, -r0) after parameter t.

    r(t) = r0 / ((1 - r0^2/L^2) sinh^2(t/2) + 1); even in t, fixed at
    both r0 = 0 and r0 = L.
    """
    if not L > 0.0:
        raise OutOfRange(f"L must be positive, got {L!r}")
    if not 0.0 <= r0 <= L:
        raise OutOfRange(f"r0 must lie in [0, L], got {r0!r}")
    sh = math.sinh(0.5 * t)
    v = r0 / L
    return r0 / ((1.0 - v * v) * sh * sh + 1.0)


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
    diamond flow at z; linear in p, zero when beta vanishes.
    """
    bt, bs, axis = _beta_vector(z, d)
    spatial = bs * (p.p1 * axis[0] + p.p2 * axis[1] + p.p3 * axis[2])
    return _TWO_PI * (p.p0 * bt - spatial)
