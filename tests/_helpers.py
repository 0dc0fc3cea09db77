"""Shared sampling helpers and mpmath references for the test suite.

Each reference evaluates one closed form of the package at 40 significant
digits: the diamond orbit u(t), the temperature from the rapidities, the
thermal set in v = u/L form and the wedge boost.  emit_json_reference is
the CLI's JSON writer written with json.dumps, one dict per row,
lines_reference the row formatter with one cells call per column over the
whole table; both expand an indexed column to values[index].
scan_reference is the limits scan with its deviations reduced over stacked
(z_plus, z_minus) pairs.
"""

import json

import numpy as np
import pytest

from diamondflow import _kernels
from diamondflow._text import cells
from diamondflow.errors import OutOfRange
from diamondflow.geometry import DiamondSpec, null_from_centered


def interior_pairs(rng, n, size=1.0, cap=0.9):
    """Centered null pairs (u+, u-) with u+ >= u-, capped away from the boundary."""
    u = rng.uniform(-cap * size, cap * size, (n, 2))
    lo = u.min(axis=1)
    hi = u.max(axis=1)
    return np.stack([hi, lo], axis=1)


def interior_points(rng, n, d: DiamondSpec, cap=0.9):
    """Random strictly interior diamond points as global NullRadialCoords."""
    pairs = interior_pairs(rng, n, d.size_L, cap)
    return [
        null_from_centered(up, um, (1.0, 0.0, 0.0), d)
        for up, um in pairs
    ]


def max_coord_diff(p, q):
    return max(abs(p.x0 - q.x0), abs(p.x1 - q.x1), abs(p.x2 - q.x2), abs(p.x3 - q.x3))


# ------------------------------------------------------- mpmath references

def mpmath40():
    """mpmath working at 40 significant digits; skips the test without it."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    return mpmath


def orbit_ref(u, t, L):
    """Diamond orbit u(t) = L tanh(atanh(u/L) + t/2) of a centered null coordinate."""
    mp = mpmath40()
    L = mp.mpf(L)
    return L * mp.tanh(mp.atanh(mp.mpf(u) / L) + mp.mpf(t) / 2)


def temperature_ref(rho_plus, rho_minus, L):
    """T = cosh rho+ cosh rho- / (pi L) from the rapidities."""
    mp = mpmath40()
    return mp.cosh(rho_plus) * mp.cosh(rho_minus) / (mp.pi * mp.mpf(L))


def thermal_ref(u_plus, u_minus, L):
    """beta_pm, ||beta||, T, a and r/L of a centered pair, from v = u/L."""
    mp = mpmath40()
    L = mp.mpf(L)
    vp, vm = mp.mpf(u_plus) / L, mp.mpf(u_minus) / L
    qp, qm = 1 - vp * vp, 1 - vm * vm
    root = mp.sqrt(qp * qm)
    return {"beta_plus": L * qp / 2, "beta_minus": L * qm / 2, "beta_norm": L * root / 2,
            "T": 1 / (mp.pi * L * root), "a": abs(vp - vm) / (L * root),
            "ratio": abs(vp - vm) / 2}


def wedge_ref(x0, x1, apex, t):
    """(x0, x1) boosted by t about x1 = apex: x0 cosh t + (x1 - apex) sinh t, ..."""
    mp = mpmath40()
    x0, apex, t = mp.mpf(x0), mp.mpf(apex), mp.mpf(t)
    rel = mp.mpf(x1) - apex
    return x0 * mp.cosh(t) + rel * mp.sinh(t), apex + rel * mp.cosh(t) + x0 * mp.sinh(t)


# ------------------------------------------------------ JSON reference writer

def emit_json_reference(names, columns, fmt, footer_text=None, footer_fields=None):
    """cli._emit's JSON output the plain way: each float rounded through
    float("%.12e" % v), one dict per row, and json.dumps over the lot."""
    assert fmt == "json"
    columns = [col[0][col[1]] if isinstance(col, tuple) else col for col in columns]
    for name, col in zip(names, columns):
        if col.dtype != np.bool_ and not np.isfinite(col).all():
            raise OutOfRange(f"column {name} has a non-finite value")
    values = [col.astype(np.int64).tolist() if col.dtype == np.bool_
              else [float("%.12e" % x) for x in (col + 0.0).tolist()] for col in columns]
    doc = {"columns": list(names), "rows": [dict(zip(names, r)) for r in zip(*values)]}
    if footer_fields:
        doc.update(footer_fields)
    return json.dumps(doc, separators=(",", ":")) + "\n"


# --------------------------------------------------- row formatter reference

def join(parts, sep: str) -> str:
    """Rows of parts (str, the same in every row, or (n, w) cells) joined by sep, no filler."""
    n = next(len(p) for p in parts if not isinstance(p, str))
    blocks = [np.broadcast_to(np.frombuffer(p.encode(), np.uint8), (n, len(p)))
              if isinstance(p, str) else p for p in (*parts, sep)]
    buf = np.concatenate(blocks, axis=1).ravel()
    return buf[:buf.size - len(sep)].tobytes().translate(None, b"\0").decode("ascii")


def lines_reference(parts, sep):
    """_text.lines with one cells call per column over all rows, as one chunk;
    an indexed part (values, spec, index) is the column values[index]."""
    columns = [p if isinstance(p, str) else cells(np.asarray(p[0])[p[2]], p[1]) if len(p) == 3
               else cells(*p) for p in parts]
    return [join(columns, sep).encode()]


# --------------------------------------------------- limits scan reference

def scan_reference(mode, d, u_plus, u_minus, r, ts):
    """limits._scan as first written: exact and limit stacked into (..., 2)
    arrays and the deviations reduced along that last axis."""
    L = d.size_L
    ups, ums = _kernels.diamond_orbit(u_plus, u_minus, L, ts)
    shift = d.translation_L1
    exact = np.stack([ups + shift, ums - shift], axis=-1)
    if mode == "minkowski":
        lp, lm = 0.5 * L * ts + r, 0.5 * L * ts - r
    else:
        lp, lm = r * np.exp(ts), -r * np.exp(-ts)
    limit = np.stack([lp, lm], axis=-1)
    diff = np.abs(exact - limit)
    rel = diff / np.maximum(np.abs(exact), 1e-12 * L)
    return exact, limit, diff.max(axis=-1), rel.max(axis=-1)


# ------------------------------------------------------- oracle references

def rk4_wedge_reference(x0, x1_rel, t, n_steps):
    """_kernels.rk4_wedge as first written: one name per stage slope
    and abs() in the stage checks."""
    h = t / n_steps
    a = x0
    b = x1_rel
    for _ in range(n_steps):
        if b < abs(a):
            return a, b, 1
        k1a = b
        k1b = a
        sa = a + 0.5 * h * k1a
        sb = b + 0.5 * h * k1b
        if sb < abs(sa):
            return a, b, 1
        k2a = sb
        k2b = sa
        ta_ = a + 0.5 * h * k2a
        tb_ = b + 0.5 * h * k2b
        if tb_ < abs(ta_):
            return a, b, 1
        k3a = tb_
        k3b = ta_
        ua = a + h * k3a
        ub = b + h * k3b
        if ub < abs(ua):
            return a, b, 1
        k4a = ub
        k4b = ua
        a = a + h * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
        b = b + h * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0
    if b < abs(a):
        return a, b, 1
    return a, b, 0
