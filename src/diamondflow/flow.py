"""Closed-form modular flow for wedges and diamonds, with oracles.

The wedge flow is the boost about the wedge edge,

    x0(t) = x0 cosh t + (x1 - apex) sinh t,
    x1(t) = apex + (x1 - apex) cosh t + x0 sinh t,

and the diamond flow acts on diamond-centered null coordinates u_pm by
the Moebius map

    u(t)/L = (u/L cosh(t/2) + sinh(t/2)) / (u/L sinh(t/2) + cosh(t/2)).

Translated diamonds reduce to the centered case by the coordinate shift
in geometry.centered_null_pair, so translation covariance is exact by
construction.  integrate_flow_rk4 is an independent check on the closed
forms: it integrates the generator field with classical fixed-step RK4
and never consults the Moebius or boost formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import OutOfRange, OutOfRegion
from .geometry import (
    DiamondSpec,
    NullRadialCoords,
    SpacetimePoint,
    WedgeSpec,
    centered_null_pair,
    from_null,
    in_wedge,
    null_from_centered,
    require_interior_null,
)

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

_MEMBERSHIP_SLACK = 1e-12


def _inside_with_slack(p: SpacetimePoint, region: RegionSpec) -> bool:
    if isinstance(region, WedgeSpec):
        rel = p.x1 - region.apex_x1
        return rel > abs(p.x0) - _MEMBERSHIP_SLACK * max(1.0, abs(p.x0))
    r = math.sqrt((p.x1 - region.translation_L1) ** 2 + p.x2 * p.x2 + p.x3 * p.x3)
    return abs(p.x0) + r < region.size_L * (1.0 + _MEMBERSHIP_SLACK)


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow orbit: strictly increasing parameters, in-region points."""

    region: RegionSpec
    t_values: tuple[float, ...]
    points: tuple[SpacetimePoint, ...]
    start: SpacetimePoint

    def __post_init__(self):
        if len(self.t_values) != len(self.points):
            raise ValueError("t_values and points must have equal length")
        ts = self.t_values
        for i in range(1, len(ts)):
            if not ts[i] > ts[i - 1]:
                raise ValueError("t_values must be strictly increasing")
        for p in self.points:
            if not _inside_with_slack(p, self.region):
                raise ValueError(f"trajectory point {p} lies outside the region")


def wedge_flow(x: SpacetimePoint, t: float, w: WedgeSpec) -> SpacetimePoint:
    """Boost by modular parameter t; preserves (x1-apex)^2 - x0^2."""
    if not in_wedge(x, w):
        raise OutOfRegion(f"{x} is not in the wedge with apex {w.apex_x1}")
    rel = x.x1 - w.apex_x1
    ch = math.cosh(t)
    sh = math.sinh(t)
    return SpacetimePoint(x.x0 * ch + rel * sh, w.apex_x1 + rel * ch + x.x0 * sh, x.x2, x.x3)


def _mobius(u: float, size: float, ch: float, sh: float) -> float:
    v = u / size
    return size * (v * ch + sh) / (v * sh + ch)


def diamond_flow(z: NullRadialCoords, t: float, d: DiamondSpec) -> NullRadialCoords:
    """Moebius flow by modular parameter t on the diamond d."""
    up, um, axis = centered_null_pair(z, d)
    require_interior_null(up, um, d)
    s = 0.5 * t
    ch = math.cosh(s)
    sh = math.sinh(s)
    new_up = _mobius(up, d.size_L, ch, sh)
    new_um = _mobius(um, d.size_L, ch, sh)
    return null_from_centered(new_up, new_um, axis, d)


def generator(point, spec: RegionSpec) -> SpacetimePoint:
    """Tangent 4-vector of the flow at the given interior point.

    Wedge points are SpacetimePoint; diamond points are NullRadialCoords.
    The diamond generator has null components beta_pm = (L^2 - u_pm^2)/(2L).
    """
    if isinstance(spec, WedgeSpec):
        if not isinstance(point, SpacetimePoint):
            raise TypeError("wedge generator expects a SpacetimePoint")
        if not in_wedge(point, spec):
            raise OutOfRegion(f"{point} is not in the wedge with apex {spec.apex_x1}")
        return SpacetimePoint(point.x1 - spec.apex_x1, point.x0, 0.0, 0.0)
    if not isinstance(point, NullRadialCoords):
        raise TypeError("diamond generator expects NullRadialCoords")
    up, um, axis = centered_null_pair(point, spec)
    require_interior_null(up, um, spec)
    L = spec.size_L
    beta_p = (L * L - up * up) / (2.0 * L)
    beta_m = (L * L - um * um) / (2.0 * L)
    bt = 0.5 * (beta_p + beta_m)
    bs = 0.5 * (beta_p - beta_m)
    return SpacetimePoint(bt, bs * axis[0], bs * axis[1], bs * axis[2])


def proper_time_rate(z: NullRadialCoords, d: DiamondSpec) -> float:
    """dtau/dt = sqrt(beta+ beta-) for the diamond flow at z."""
    up, um, _ = centered_null_pair(z, d)
    require_interior_null(up, um, d)
    L = d.size_L
    beta_p = (L * L - up * up) / (2.0 * L)
    beta_m = (L * L - um * um) / (2.0 * L)
    return math.sqrt(beta_p * beta_m)


def integrate_flow_rk4(point, t: float, n_steps: int, spec: RegionSpec):
    """Integrate the generator field with classical fixed-step RK4.

    Oracle for the closed-form maps; raises StepOutOfRegion if any
    integrator stage leaves the closed region.
    """
    if n_steps < 1:
        raise OutOfRange(f"n_steps must be >= 1, got {n_steps}")
    if isinstance(spec, WedgeSpec):
        if not in_wedge(point, spec):
            raise OutOfRegion(f"{point} is not in the wedge with apex {spec.apex_x1}")
        x0, rel, status = _kernels.rk4_wedge(point.x0, point.x1 - spec.apex_x1, t, n_steps)
        _raise_on_step_out(status)
        return SpacetimePoint(x0, spec.apex_x1 + rel, point.x2, point.x3)
    up, um, axis = centered_null_pair(point, spec)
    require_interior_null(up, um, spec)
    new_up, new_um, status = _kernels.rk4_diamond(up, um, spec.size_L, t, n_steps)
    _raise_on_step_out(status)
    return null_from_centered(new_up, new_um, axis, spec)


def _raise_on_step_out(status: int) -> None:
    if status != 0:
        from .errors import StepOutOfRegion

        raise StepOutOfRegion("an integrator stage left the closed region; use more steps")


def sample_trajectory(start, t_min: float, t_max: float, n: int,
                      spec: RegionSpec) -> Trajectory:
    """Evaluate the closed-form flow on n uniform parameters in [t_min, t_max]."""
    if n < 2:
        raise OutOfRange(f"need at least two samples, got {n}")
    if not t_min < t_max:
        raise OutOfRange(f"need t_min < t_max, got [{t_min}, {t_max}]")
    ts = np.linspace(t_min, t_max, n)
    if isinstance(spec, WedgeSpec):
        if not in_wedge(start, spec):
            raise OutOfRegion(f"{start} is not in the wedge with apex {spec.apex_x1}")
        x0s, rels = _kernels.wedge_orbit(start.x0, start.x1 - spec.apex_x1, ts)
        points = tuple(
            SpacetimePoint(x0s[i], spec.apex_x1 + rels[i], start.x2, start.x3)
            for i in range(n)
        )
        return Trajectory(spec, tuple(float(v) for v in ts), points, start)
    up, um, axis = centered_null_pair(start, spec)
    require_interior_null(up, um, spec)
    ups, ums = _kernels.diamond_orbit(up, um, spec.size_L, ts)
    points = tuple(
        from_null(null_from_centered(ups[i], ums[i], axis, spec)) for i in range(n)
    )
    return Trajectory(spec, tuple(float(v) for v in ts), points, from_null(start))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _tau_integral(rate, t: float) -> float:
    # Gauss-Legendre on [0, t]; the integrand is smooth and the interval
    # tiny, so eight nodes are far beyond the accuracy needed here.
    half = 0.5 * t
    mid = 0.5 * t
    acc = 0.0
    for xi, wi in zip(_GL_NODES, _GL_WEIGHTS):
        acc += wi * rate(mid + half * xi)
    return half * acc


def _solve_tau(rate, target: float) -> float:
    # Invert tau(t) = integral of the rate for the t with tau = target.
    t = target / rate(0.0)
    for _ in range(4):
        tau = _tau_integral(rate, t)
        t -= (tau - target) / rate(t)
    return t


def proper_acceleration(start, spec: RegionSpec) -> float:
    """Proper acceleration of the flow orbit through start.

    Numerical on purpose: reparameterizes the orbit by proper time and
    takes a central second difference with step h = 1e-4 of the local
    dtau scale, so it is independent of the thermal formulas it is used
    to check.  Returns the Minkowski norm sqrt(|A.A|).
    """
    if isinstance(spec, WedgeSpec):
        if not in_wedge(start, spec):
            raise OutOfRegion(f"{start} is not in the wedge with apex {spec.apex_x1}")

        def position(t: float) -> np.ndarray:
            q = wedge_flow(start, t, spec)
            return np.array([q.x0, q.x1, q.x2, q.x3])

        def rate(t: float) -> float:
            q = wedge_flow(start, t, spec)
            rel = q.x1 - spec.apex_x1
            return math.sqrt(max(rel * rel - q.x0 * q.x0, 0.0))

    else:
        up, um, _ = centered_null_pair(start, spec)
        require_interior_null(up, um, spec)

        def position(t: float) -> np.ndarray:
            q = from_null(diamond_flow(start, t, spec))
            return np.array([q.x0, q.x1, q.x2, q.x3])

        def rate(t: float) -> float:
            return proper_time_rate(diamond_flow(start, t, spec), spec)

    h = 1e-4 * rate(0.0)
    t_fwd = _solve_tau(rate, h)
    t_bwd = _solve_tau(rate, -h)
    second = (position(t_fwd) - 2.0 * position(0.0) + position(t_bwd)) / (h * h)
    q = second[0] ** 2 - second[1] ** 2 - second[2] ** 2 - second[3] ** 2
    return math.sqrt(abs(q))
