"""Quantitative comparison of diamond orbits with their two limits.

Two degenerations of the diamond flow admit simple closed forms.  For a
centered diamond at small |t| the orbit through (r, -r) is inertial,

    z_pm(t) -> L t / 2 +- r,

and for a corner-anchored diamond (L1 = L, left corner at the origin)
an orbit starting close to that corner follows the wedge boost,

    z_plus(t) -> r e^t,   z_minus(t) -> -r e^(-t).

deviation_scan evaluates the exact flow against either limit over a
t grid; regime_map classifies starts by whether the wedge or inertial
description holds to a given relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import OutOfRange, SpecMismatch
from .geometry import (
    DiamondSpec,
    NullRadialCoords,
    require_interior_null,
)

__all__ = [
    "DeviationReport",
    "RegimeMap",
    "minkowski_limit_traj",
    "wedge_limit_traj",
    "deviation_scan",
    "regime_map",
]

MODES = ("minkowski", "wedge")

# Relative deviations clamp their denominator here to stay finite when a
# null component passes through zero.
_REL_FLOOR = 1e-12

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Per-sample and maximum deviation of the exact flow from a limit form."""

    mode: str
    spec: DiamondSpec
    start: NullRadialCoords
    t_values: np.ndarray
    exact: np.ndarray
    limit: np.ndarray
    abs_dev: np.ndarray
    rel_dev: np.ndarray
    max_abs_dev: float
    max_rel_dev: float


@dataclass(frozen=True, eq=False)
class RegimeMap:
    """Per-start classification of which limit description holds."""

    mode: str
    spec: DiamondSpec
    t_probe: float
    tol: float
    r_values: np.ndarray
    ratio: np.ndarray
    max_rel_dev: np.ndarray
    within_tol: np.ndarray


def _symmetric_radius(z0: NullRadialCoords) -> float:
    scale = max(1.0, abs(z0.z_plus), abs(z0.z_minus))
    if abs(z0.z_plus + z0.z_minus) > _SYMMETRY_TOL * scale:
        raise OutOfRange(
            f"start must be of the form (r, -r), got ({z0.z_plus!r}, {z0.z_minus!r})"
        )
    return z0.radius


def minkowski_limit_traj(z0: NullRadialCoords, t: float, L: float) -> tuple[float, float]:
    """Inertial small-t form (L t / 2 + r, L t / 2 - r) of the centered orbit."""
    if not L > 0.0:
        raise OutOfRange(f"L must be positive, got {L!r}")
    r = _symmetric_radius(z0)
    if not r < L:
        raise OutOfRange(f"start radius {r!r} must be below L={L!r}")
    return 0.5 * L * t + r, 0.5 * L * t - r


def wedge_limit_traj(r: float, t: float) -> tuple[float, float]:
    """Boost form (r e^t, -r e^-t) of a near-corner orbit."""
    if not r > 0.0:
        raise OutOfRange(f"r must be positive, got {r!r}")
    return r * math.exp(t), -r * math.exp(-t)


def _check_mode_spec(mode: str, d: DiamondSpec) -> None:
    if mode not in MODES:
        raise SpecMismatch(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "minkowski" and d.translation_L1 != 0.0:
        raise SpecMismatch("minkowski mode needs a centered diamond (L1 = 0)")
    if mode == "wedge" and d.translation_L1 != d.size_L:
        raise SpecMismatch("wedge mode needs a corner-anchored diamond (L1 = L)")


def _deviations(exact: np.ndarray, limit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diff = np.abs(exact - limit)
    abs_dev = diff.max(axis=-1)
    rel = diff / np.maximum(np.abs(exact), _REL_FLOOR)
    return abs_dev, rel.max(axis=-1)


def deviation_scan(mode: str, z0: NullRadialCoords, d: DiamondSpec,
                   t_min: float, t_max: float, n: int) -> DeviationReport:
    """Exact flow vs. the mode's limit form on n uniform parameters."""
    _check_mode_spec(mode, d)
    if n < 1:
        raise OutOfRange(f"need at least one sample, got {n}")
    if t_min > t_max:
        raise OutOfRange(f"need t_min <= t_max, got [{t_min}, {t_max}]")
    r = _symmetric_radius(z0)
    if not r < d.size_L:
        raise OutOfRange(f"start radius {r!r} must be below L={d.size_L!r}")
    if mode == "wedge" and not r > 0.0:
        raise OutOfRange("wedge mode needs a start with r > 0")
    up, um, _ = require_interior_null(z0, d)

    ts = np.linspace(t_min, t_max, n)
    ups, ums = _kernels.diamond_orbit(up, um, d.size_L, ts)
    shift = d.translation_L1
    exact = np.stack([ups + shift, ums - shift], axis=-1)
    if mode == "minkowski":
        lp, lm = 0.5 * d.size_L * ts + r, 0.5 * d.size_L * ts - r
    else:
        lp, lm = r * np.exp(ts), -r * np.exp(-ts)
    limit = np.stack([lp, lm], axis=-1)
    abs_dev, rel_dev = _deviations(exact, limit)
    return DeviationReport(
        mode=mode,
        spec=d,
        start=z0,
        t_values=ts,
        exact=exact,
        limit=limit,
        abs_dev=abs_dev,
        rel_dev=rel_dev,
        max_abs_dev=float(abs_dev.max()),
        max_rel_dev=float(rel_dev.max()),
    )


def regime_map(mode: str, d: DiamondSpec, t_probe: float, tol: float,
               grid_n: int, n_t: int = 33) -> RegimeMap:
    """Classify starts by whether the limit form holds up to t_probe.

    Starts are parameterized by their centered radius r, log-spaced in
    the distance L - r to the agreement corner down to 1e-6 L, so the
    interesting near-corner band is resolved.  A cell is within
    tolerance when its scan's max relative deviation is <= tol.
    """
    _check_mode_spec(mode, d)
    if not t_probe > 0.0:
        raise OutOfRange(f"t_probe must be positive, got {t_probe!r}")
    if not tol > 0.0:
        raise OutOfRange(f"tol must be positive, got {tol!r}")
    if grid_n < 1:
        raise OutOfRange(f"grid_n must be >= 1, got {grid_n}")
    L = d.size_L
    exponents = np.linspace(0.0, -6.0, grid_n + 2)[1:-1]
    deltas = L * 10.0 ** exponents
    r_centered = L - deltas
    ts = np.linspace(0.0, t_probe, n_t)
    if mode == "minkowski":
        u0p, u0m = r_centered, -r_centered
        shift = 0.0
    else:
        u0p, u0m = -r_centered, r_centered
        shift = d.translation_L1
    ups, ums = _kernels.diamond_orbit(u0p[:, None], u0m[:, None], L, ts)
    exact = np.stack([ups + shift, ums - shift], axis=-1)
    if mode == "minkowski":
        lp = 0.5 * L * ts[None, :] + r_centered[:, None]
        lm = 0.5 * L * ts[None, :] - r_centered[:, None]
    else:
        lp = deltas[:, None] * np.exp(ts)[None, :]
        lm = -deltas[:, None] * np.exp(-ts)[None, :]
    limit = np.stack([lp, lm], axis=-1)
    _, rel_dev = _deviations(exact, limit)
    max_rel = rel_dev.max(axis=1)
    return RegimeMap(
        mode=mode,
        spec=d,
        t_probe=float(t_probe),
        tol=float(tol),
        r_values=r_centered,
        ratio=r_centered / L,
        max_rel_dev=max_rel,
        within_tol=max_rel <= tol,
    )
