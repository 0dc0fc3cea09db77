"""Closed-form modular flow for wedges and diamonds, with oracles.

The wedge flow is the boost about the wedge edge x1 = apex.  In the null
coordinates x_pm = x0 +- (x1 - apex) it is the scaling

    x_pm(t) = x_pm e^(+-t),

which _kernels.wedge_orbit adds to the start as the displacements
x_pm expm1(+-t), so t = 0 is exactly the identity.  The diamond
flow, the conformal image of the boost, shifts the
rapidities rho_pm = atanh(u_pm/L) of the diamond-centered null
coordinates u_pm by t/2:

    u_pm(t) = L tanh(rho_pm + t/2),

which stays in the closed diamond for every t.  Translated diamonds
reduce to the centered case by geometry.centered_null_pair and return by
_kernels.global_null, one rounding per null coordinate each way, so they
are as accurate as centered ones.  _orbit is the one evaluator of an
orbit's positions, null displacements and dtau/dt.  integrate_flow_rk4 is
an independent check on the closed forms: it integrates the generator
field with classical fixed-step RK4, in v = u/L coordinates in a diamond,
and never consults the rapidity or boost formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import OutOfRange, StepOutOfRegion
from .geometry import (
    DiamondSpec,
    NullRadialCoords,
    SpacetimePoint,
    WedgeSpec,
    null_from_centered,
    require_in_wedge,
    require_interior_null,
)
from .thermo import acceleration_at, wedge_temperature

__all__ = [
    "Trajectory",
    "wedge_flow",
    "diamond_flow",
    "generator",
    "proper_time_rate",
    "integrate_flow_rk4",
    "sample_trajectory",
    "proper_acceleration",
]

RegionSpec = WedgeSpec | DiamondSpec


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Flow orbit sampled on a strictly increasing t grid, as float64 columns.

    `start` is the start as given: a SpacetimePoint in a wedge, a
    NullRadialCoords in a diamond.  The global null columns are
    z_pm = x0 +- r in a diamond and x0 +- x1 in a wedge.
    """

    region: RegionSpec
    start: SpacetimePoint | NullRadialCoords
    t_values: np.ndarray
    z_plus: np.ndarray
    z_minus: np.ndarray
    x0: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray

    def temperature(self) -> np.ndarray:
        """T at each sample; in a diamond read from the rapidities, not the rounded u(t)."""
        if isinstance(self.region, WedgeSpec):
            return np.full_like(self.t_values, wedge_temperature(self._acceleration()))
        up, um, _ = require_interior_null(self.start, self.region)
        return _kernels.orbit_temperature(up, um, self.region.size_L, self.t_values)

    def acceleration(self) -> np.ndarray:
        """Proper acceleration at each sample, constant along the orbit."""
        return np.full_like(self.t_values, self._acceleration())

    def _acceleration(self) -> float:
        if isinstance(self.region, DiamondSpec):
            return acceleration_at(self.start, self.region)
        _, _, rate, scale = _orbit(self.start, self.region)  # dtau/dt is constant
        return 1.0 / float(rate(0.0) * scale)


def wedge_flow(x: SpacetimePoint, t: float, w: WedgeSpec) -> SpacetimePoint:
    """Boost by modular parameter t; preserves (x1-apex)^2 - x0^2."""
    require_in_wedge(x, w)
    x0, x1, _, _ = _kernels.wedge_orbit(x.x0, x.x1, w.apex_x1, t)
    return SpacetimePoint(x0, x1, x.x2, x.x3)


def diamond_flow(z: NullRadialCoords, t: float, d: DiamondSpec) -> NullRadialCoords:
    """Flow by modular parameter t on the diamond d: rho_pm -> rho_pm + t/2."""
    up, um, axis = require_interior_null(z, d)
    return null_from_centered(*_kernels.diamond_orbit(up, um, d.size_L, t), axis, d)


def generator(point, spec: RegionSpec) -> SpacetimePoint:
    """Tangent 4-vector of the flow at the given interior point.

    Wedge points are SpacetimePoint; diamond points are NullRadialCoords.
    The diamond generator has null components beta_pm = L/(2 cosh^2 rho_pm).
    """
    if isinstance(spec, WedgeSpec):
        require_in_wedge(point, spec)
        return SpacetimePoint(point.x1 - spec.apex_x1, point.x0, 0.0, 0.0)
    up, um, axis = require_interior_null(point, spec)
    beta_p, beta_m = (_kernels.null_beta(u, spec.size_L)[2] for u in (up, um))
    bt, bs = 0.5 * (beta_p + beta_m), 0.5 * (beta_p - beta_m)
    return SpacetimePoint(bt, bs * axis[0], bs * axis[1], bs * axis[2])


def proper_time_rate(z: NullRadialCoords, d: DiamondSpec) -> float:
    """dtau/dt = ||beta|| = sqrt(beta+ beta-) for the diamond flow at z."""
    up, um, _ = require_interior_null(z, d)
    return float(_kernels.thermal(up, um, d.size_L)[2])


def integrate_flow_rk4(point, t: float, n_steps: int, spec: RegionSpec):
    """Integrate the generator field with classical fixed-step RK4.

    Oracle for the closed-form maps; raises StepOutOfRegion if any
    integrator stage leaves the closed region.
    """
    if n_steps < 1:
        raise OutOfRange(f"n_steps must be >= 1, got {n_steps}")
    if isinstance(spec, WedgeSpec):
        require_in_wedge(point, spec)
        x0, rel, status = _kernels.rk4_wedge(point.x0, point.x1 - spec.apex_x1, t, n_steps)
        _raise_on_step_out(status)
        return SpacetimePoint(x0, spec.apex_x1 + rel, point.x2, point.x3)
    up, um, axis = require_interior_null(point, spec)
    new_up, new_um, status = _kernels.rk4_diamond(up, um, spec.size_L, t, n_steps)
    _raise_on_step_out(status)
    return null_from_centered(new_up, new_um, axis, spec)


def _raise_on_step_out(status: int) -> None:
    if status != 0:
        raise StepOutOfRegion("an integrator stage left the closed region; use more steps")


def _orbit(start, spec: RegionSpec):
    """Validate start once; return t -> (z_plus, z_minus, x0, x1, x2, x3),
    t -> the null displacements from the start, t -> dtau/dt, for a float or
    float64 array t, and the length scale the last two are in units of."""
    if isinstance(spec, WedgeSpec):
        require_in_wedge(start, spec)
        x0, x1, apex = start.x0, start.x1, spec.apex_x1
        # A power of 4 within a factor 4 of the point's size: exact, it keeps
        # x_pm finite and normal, and the square roots scale exactly.
        e = math.frexp(max(abs(x0), abs(x1), abs(apex)))[1]
        scale = math.ldexp(1.0, 2 * ((e - 1) // 2))
        a, rel = x0 / scale, x1 / scale - apex / scale
        tau_rate = math.sqrt(rel - a) * math.sqrt(rel + a)

        def columns(t):
            x0_t, x1_t, z_plus, z_minus = _kernels.wedge_orbit(x0, x1, apex, t)
            return z_plus, z_minus, x0_t, x1_t, np.full_like(t, start.x2), np.full_like(t, start.x3)

        return (columns, lambda t: _kernels.wedge_moves(a, rel, t),
                lambda t: np.full_like(t, tau_rate), scale)

    up, um, axis = require_interior_null(start, spec)
    size, shift = spec.size_L, spec.translation_L1
    vp, vm = up / size, um / size

    def columns(t):
        z_plus, z_minus, x0, x1 = _kernels.global_null(
            *_kernels.diamond_orbit(up, um, size, t), size, shift)
        r = np.abs(x1)  # x1 < 0 on the -e1 side: no -0.0 in x2, x3
        return z_plus, z_minus, x0, x1 * axis[0], r * axis[1], r * axis[2]

    return (columns, lambda t: _kernels.diamond_moves(vp, vm, 1.0, t),
            lambda t: _kernels.orbit_rate(vp, vm, 1.0, t), size)


def sample_trajectory(start, t_min: float, t_max: float, n: int,
                      spec: RegionSpec) -> Trajectory:
    """Evaluate the closed-form flow on n uniform parameters in [t_min, t_max]."""
    if n < 2:
        raise OutOfRange(f"need at least two samples, got {n}")
    if not t_min < t_max:
        raise OutOfRange(f"need t_min < t_max, got [{t_min}, {t_max}]")
    ts = np.linspace(t_min, t_max, n)
    if not (np.diff(ts) > 0.0).all():
        raise OutOfRange(f"{n} samples in [{t_min}, {t_max}] are not strictly increasing")
    cols = _orbit(start, spec)[0](ts)
    if not all(np.isfinite(c).all() for c in cols):
        raise OutOfRange("the orbit leaves the range of float64")
    return Trajectory(spec, start, ts, *cols)


def proper_acceleration(start, spec: RegionSpec) -> float:
    """Proper acceleration of the flow orbit through start.

    Numerical on purpose: central differences with step h = 2^-12 in t of
    the orbit's null displacements m_pm(t) and of dtau/dt give, by the
    chain rule, the null components A_pm = (m_pm'' - m_pm' tau''/tau') / tau'^2
    of d^2x/dtau^2, and a = sqrt(|A+|) sqrt(|A-|), since A.A = A+ A- in
    null components.  It reads the closed-form displacements and dtau/dt,
    so it is independent only of the formula a = 2 pi T r/L it is used to
    check.  Its relative error is about h^2/12 = 5e-9 up to the last float
    below the faces and off the wedge's horizon; it grows toward the central
    orbit, where a vanishes: at L = 1, v+ = 0.5 it is 2.3e-7, 2.8e-5 and
    0.33 at |v+ - v-| = 1e-5, 1e-6 and 1e-8 (v+ = 0.99: 4e-6, 4e-4, 1.7).  Scaling
    the start and the region by 2^k scales a by 2^-k exactly.  Raises
    OutOfRange only where a leaves the float range.
    """
    _, moves, rate, scale = _orbit(start, spec)
    h = 2.0 ** -12  # a power of two: dividing by it is exact
    rate_fwd, rate_0, rate_bwd = rate(np.array([h, 0.0, -h]))
    log_slope = (rate_fwd - rate_bwd) / (2.0 * h) / rate_0
    # m_pm(0) = 0 exactly, so m'' is (m(h) + m(-h)) / h^2.
    n_plus, n_minus = (abs((fwd + bwd) / h / h - (fwd - bwd) / (2.0 * h) * log_slope)
                       for fwd, bwd in moves(np.array([h, -h])))
    # In the scale's units no term nears the ends of the float range, so
    # only the division by the scale can overflow, and only where a does.
    a = float(np.sqrt(n_plus) * np.sqrt(n_minus) / rate_0 / rate_0) / scale
    if not math.isfinite(a):
        raise OutOfRange(f"the proper acceleration at {start} leaves the range of float64")
    return a
