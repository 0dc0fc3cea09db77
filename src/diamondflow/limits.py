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
    "deviation_scan",
    "regime_map",
]

MODES = ("minkowski", "wedge")

# Relative deviations clamp their denominator at this fraction of L to
# stay finite when a null component passes through zero.
_REL_FLOOR = 1e-12

_SYMMETRY_TOL = 1e-12

_REGIME_N_T = 33


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
    if abs(z0.z_plus + z0.z_minus) > _SYMMETRY_TOL * max(abs(z0.z_plus), abs(z0.z_minus)):
        raise OutOfRange(
            f"start must be of the form (r, -r), got ({z0.z_plus!r}, {z0.z_minus!r})"
        )
    return z0.radius


def _check_mode_spec(mode: str, d: DiamondSpec) -> None:
    if mode not in MODES:
        raise SpecMismatch(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "minkowski" and d.translation_L1 != 0.0:
        raise SpecMismatch("minkowski mode needs a centered diamond (L1 = 0)")
    if mode == "wedge" and d.translation_L1 != d.size_L:
        raise SpecMismatch("wedge mode needs a corner-anchored diamond (L1 = L)")


def _scan(mode: str, d: DiamondSpec, u_plus, u_minus, r, ts: np.ndarray):
    # Exact orbits of the centered starts against the mode's limit form for radius
    # r; starts and r broadcast against ts as in diamond_orbit.  exact and limit
    # hold (z_plus, z_minus) on a last axis; a deviation is the larger of the pair's.
    L = d.size_L
    ups, ums = _kernels.diamond_orbit(u_plus, u_minus, L, ts)
    exact = ups + d.translation_L1, ums - d.translation_L1
    limit = ((0.5 * L * ts + r, 0.5 * L * ts - r) if mode == "minkowski"
             else (r * np.exp(ts), -r * np.exp(-ts)))
    diff = [np.abs(e - lim) for e, lim in zip(exact, limit)]
    rel = [dev / np.maximum(np.abs(e), _REL_FLOOR * L) for dev, e in zip(diff, exact)]
    return np.stack(exact, axis=-1), np.stack(limit, axis=-1), np.maximum(*diff), np.maximum(*rel)


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
    exact, limit, abs_dev, rel_dev = _scan(mode, d, up, um, r, ts)
    return DeviationReport(mode=mode, spec=d, start=z0, t_values=ts, exact=exact, limit=limit,
                           abs_dev=abs_dev, rel_dev=rel_dev, max_abs_dev=float(abs_dev.max()),
                           max_rel_dev=float(rel_dev.max()))


def regime_map(mode: str, d: DiamondSpec, t_probe: float, tol: float,
               grid_n: int) -> RegimeMap:
    """Classify starts by whether the limit form holds up to t_probe.

    Starts are parameterized by their centered radius r, log-spaced in
    the distance L - r to the agreement corner down to 1e-6 L, so the
    interesting near-corner band is resolved.  A cell is within
    tolerance when its scan's max relative deviation over 33 uniform
    parameters in [0, t_probe] is <= tol.
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
    ts = np.linspace(0.0, t_probe, _REGIME_N_T)
    r = r_centered[:, None]
    # The inertial form starts at (r, -r) about the center; the boost form
    # at (-r, r) about the center, which is (delta, -delta) about the corner.
    if mode == "minkowski":
        *_, rel_dev = _scan(mode, d, r, -r, r, ts)
    else:
        *_, rel_dev = _scan(mode, d, -r, r, deltas[:, None], ts)
    max_rel = rel_dev.max(axis=1)
    return RegimeMap(mode=mode, spec=d, t_probe=float(t_probe), tol=float(tol),
                     r_values=r_centered, ratio=r_centered / L, max_rel_dev=max_rel,
                     within_tol=max_rel <= tol)
