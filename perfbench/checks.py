"""Checks of the program's outputs against computations made apart from it.

Nothing here imports diamondflow.  Every diamond quantity is evaluated in
rapidities rho_pm = atanh(u_pm/L) of the centred null coordinates, where the
modular flow is rho_pm -> rho_pm + t/2 and

    beta_pm = L / (2 cosh^2 rho_pm),     T = cosh rho_+ cosh rho_- / (pi L),
    a = |sinh(rho_+ - rho_-)| / L,       r/L = |u_+ - u_-| / (2L).

grid-export rows are evaluated in numpy's extended precision, orbit-export
samples in mpmath at 30 digits, and oracle-check results against properties
the methods must have.  A printed value passes when it is within half a unit
of its 13th significant digit of the reference, plus the rounding the
program's float64 formula must make: a few ulps times the condition number
L/(L - |u|) of the point, which only matters next to the faces.  Each check
raises CheckError naming the first mismatch.
"""

from __future__ import annotations

import io
import json
import math
import xml.etree.ElementTree as ET

import mpmath
import numpy as np

import specs

EPS = float(np.finfo(np.float64).eps)
# Rounding allowance of the program's own float64 evaluation, in ulps times
# the condition number; over 500 orbits and 240 grids the most used was 16.
ULPS = 64

LD = np.longdouble
PI_LD = 4 * np.arctan(LD(1))

mpmath.mp.dps = 30


class CheckError(Exception):
    """An output of the program disagrees with its independent reference."""


def _half_digit(printed, exact):
    """Half a unit in the 13th significant digit, as `%.12e` prints."""
    mag = np.maximum(np.abs(np.asarray(printed, float)), np.abs(np.asarray(exact, float)))
    mag = np.where(mag > 0.0, mag, 1.0)
    return 0.5 * 10.0 ** (np.floor(np.log10(mag)) - 12)


def _match(name, printed, exact, slack):
    """printed must lie within half a printed digit plus slack of exact."""
    printed = np.asarray(printed, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if printed.shape != exact.shape:
        raise CheckError(f"{name}: {printed.shape} values, expected {exact.shape}")
    if not np.all(np.isfinite(printed)):
        raise CheckError(f"{name}: non-finite value written")
    err = np.abs(printed - exact)
    bad = np.nonzero(err > _half_digit(printed, exact) + slack)[0]
    if bad.size:
        k = int(bad[0])
        raise CheckError(f"{name}[{k}]: wrote {printed[k]!r}, expected {exact[k]!r}")


def _csv(text, cols, n_rows, footer=False):
    lines = text.split("\n")
    if lines[0] != ",".join(cols):
        raise CheckError(f"header {lines[0]!r}, expected {','.join(cols)!r}")
    want = n_rows + 2 + int(footer)  # header, rows, footer, trailing ""
    if len(lines) != want or lines[-1] != "":
        raise CheckError(f"{len(lines) - 2 - int(footer)} data rows, expected {n_rows}")
    data = np.loadtxt(io.StringIO("\n".join(lines[1:1 + n_rows])), delimiter=",",
                      ndmin=2)
    if data.shape != (n_rows, len(cols)):
        raise CheckError(f"table shape {data.shape}, expected {(n_rows, len(cols))}")
    return data, (lines[-2] if footer else None)


# ----------------------------------------------------------------- grid-export

def check_grid(spec: dict, field_csv: str, heat_svg: str) -> None:
    L, L1 = spec["L"], spec["L1"]
    G = specs.FIELD_GRID
    m = specs.FIELD_MARGIN * L
    axis = np.linspace(-L + m, L - m, G)
    i, j = np.tril_indices(G)              # rows u+ = axis[i] >= u- = axis[j]
    data, _ = _csv(field_csv, specs.FIELD_COLS, G * (G + 1) // 2)

    up, um, Ll = axis[i].astype(LD), axis[j].astype(LD), LD(L)
    vp, vm = up / Ll, um / Ll
    chp, chm = np.cosh(np.arctanh(vp)), np.cosh(np.arctanh(vm))
    # rho+ - rho- = atanh((v+ - v-)/(1 - v+ v-)), free of cancellation.
    drho = np.arctanh((vp - vm) / (1 - vp * vm))
    # Global z_pm = x0 +- |x1| with x1 = L1 + (u+ - u-)/2 on the axis.
    x0, r = (up + um) / 2, np.abs(LD(L1) + (up - um) / 2)
    zp, zm = x0 + r, x0 - r
    cond = 1.0 / (1.0 - np.maximum(np.abs(vp), np.abs(vm)).astype(float))

    def rel(ref):
        return ULPS * EPS * cond * np.abs(ref.astype(float))

    z_slack = ULPS * EPS * (L + abs(L1))
    beta_p, beta_m = Ll / (2 * chp * chp), Ll / (2 * chm * chm)
    temp = chp * chm / (PI_LD * Ll)
    accel = np.sinh(drho) / Ll
    ratio = (up - um) / (2 * Ll)
    for col, ref, slack in ((0, zp, z_slack), (1, zm, z_slack),
                            (2, beta_p, None), (3, beta_m, None),
                            (4, temp, None), (5, accel, None), (6, ratio, None)):
        _match(f"field.{specs.FIELD_COLS[col]}", data[:, col], ref,
               rel(ref) if slack is None else slack)

    try:
        root = ET.fromstring(heat_svg)
    except ET.ParseError as exc:
        raise CheckError(f"heat map is not XML: {exc}") from None
    shades = [p for p in root.iter("{http://www.w3.org/2000/svg}polygon")
              if p.get("fill", "").startswith("rgb(")]
    n = specs.SHADE_GRID
    if len(shades) != n * n:
        raise CheckError(f"heat map has {len(shades)} shade polygons, expected {n * n}")
    if any(len(p.get("points", "").split()) != 4 for p in shades):
        raise CheckError("a shade polygon does not have four vertices")
    green = np.array([int(p.get("fill")[4:-1].split(",")[1]) for p in shades])
    edges = np.linspace(-L + m, L - m, n + 1)
    centres = (0.5 * (edges[:-1] + edges[1:])).astype(LD) / Ll
    ch = np.cosh(np.arctanh(centres))
    # Shade 2 sqrt(beta+ beta-)/L = 1/(cosh rho+ cosh rho-), cell (i, j)
    # at centres (i, j) in row-major order, written as round(255 v).
    shade = 255.0 / np.outer(ch, ch).ravel().astype(float)
    bad = np.nonzero(np.abs(green - shade) > 0.5 + 1e-9)[0]
    if bad.size:
        k = int(bad[0])
        raise CheckError(f"heat cell {k}: green {green[k]}, expected {shade[k]:.3f}")


# ---------------------------------------------------------------- orbit-export

_HALF_T_EXP = {}


def _half_t_exp(ts: np.ndarray) -> list:
    """exp(t/2) in mpmath for the sample grid, which every orbit shares."""
    key = (float(ts[0]), float(ts[-1]), ts.size)
    if key not in _HALF_T_EXP:
        _HALF_T_EXP[key] = [mpmath.exp(mpmath.mpf(float(t)) / 2) for t in ts]
    return _HALF_T_EXP[key]


def _orbit_reference(spec: dict, ts: np.ndarray):
    """mpmath z_pm, x0, x1, T and a along the orbit through (r, -r)."""
    L, L1, r = (mpmath.mpf(spec[k]) for k in ("L", "L1", "r"))
    # Centred coordinates of the start: x0 = 0, xi = r - L1.
    e_p = mpmath.sqrt((L + (r - L1)) / (L - (r - L1)))   # exp(rho+(0))
    e_m = mpmath.sqrt((L - (r - L1)) / (L + (r - L1)))   # exp(rho-(0))
    out = np.empty((7, ts.size))
    cond = np.empty(ts.size)
    pi_L = mpmath.pi * L
    for k, g in enumerate(_half_t_exp(ts)):
        ep, em = e_p * g, e_m * g
        tp, tm = (ep * ep - 1) / (ep * ep + 1), (em * em - 1) / (em * em + 1)
        up, um = L * tp, L * tm
        x0, xi = (up + um) / 2, (up - um) / 2
        x1 = L1 + xi
        chp, chm = (ep + 1 / ep) / 2, (em + 1 / em) / 2
        out[:, k] = (float(x0 + abs(x1)), float(x0 - abs(x1)), float(x0), float(x1),
                     float(chp * chm / pi_L), 0.0, 0.0)
        cond[k] = float(1 / (1 - max(abs(tp), abs(tm))))
    sinh_d = (e_p / e_m - e_m / e_p) / 2                    # sinh(rho+ - rho-)
    out[5] = float(abs(sinh_d) / L)
    return out, cond


def check_orbit(spec: dict, traj_json: str, limits_csv: str) -> None:
    L, L1, r = spec["L"], spec["L1"], spec["r"]
    n = specs.ORBIT_SAMPLES
    ts = np.linspace(-specs.ORBIT_T, specs.ORBIT_T, n)
    try:
        doc = json.loads(traj_json)
    except json.JSONDecodeError as exc:
        raise CheckError(f"traj output is not JSON: {exc}") from None
    if doc.get("columns") != list(specs.TRAJ_COLS) or len(doc.get("rows", ())) != n:
        raise CheckError(f"traj: expected {n} rows of {specs.TRAJ_COLS}")
    traj = np.array([[row[c] for c in specs.TRAJ_COLS] for row in doc["rows"]],
                    dtype=float).T
    ref, cond = _orbit_reference(spec, ts)
    _match("traj.t", traj[0], ts, 4 * EPS * specs.ORBIT_T)
    z_slack = ULPS * EPS * (L + abs(L1))
    for col in (1, 2, 3, 4):
        _match(f"traj.{specs.TRAJ_COLS[col]}", traj[col], ref[col - 1], z_slack)
    _match("traj.T", traj[5], ref[4], ULPS * EPS * cond * ref[4])
    # a is one number for the whole orbit: every sample must match it.
    _match("traj.a (constant along the orbit)", traj[6], ref[5],
           ULPS * EPS * cond * ref[5])

    scan, footer = _csv(limits_csv, specs.SCAN_COLS, n, footer=True)
    if not np.array_equal(scan[:, 0], traj[0]):
        raise CheckError("limits t grid differs from traj t grid")
    # Both are printed: each may sit half a digit off its own float64 value.
    for col, name in ((1, "plus"), (2, "minus")):
        _match(f"limits.exact_{name} vs traj.z_{name}", scan[:, col], traj[col],
               _half_digit(scan[:, col], traj[col]) + 2 * z_slack)
    if spec["mode"] == "minkowski":
        lim_p, lim_m = 0.5 * L * ts + r, 0.5 * L * ts - r
    else:
        lim_p, lim_m = r * np.exp(ts), -r * np.exp(-ts)
    _match("limits.limit_plus", scan[:, 3], lim_p, 8 * EPS * (np.abs(lim_p) + L))
    _match("limits.limit_minus", scan[:, 4], lim_m, 8 * EPS * (np.abs(lim_m) + L))
    fields = dict(part.split("=") for part in footer.lstrip("# ").split())
    for key, col in (("max_abs_dev", 5), ("max_rel_dev", 6)):
        if key not in fields or float(fields[key]) != scan[:, col].max():
            raise CheckError(f"limits footer {key}={fields.get(key)!r} is not "
                             f"the column maximum {scan[:, col].max()!r}")


# ---------------------------------------------------------------- oracle-check

# A fourth-order method's error falls 2^4 = 16-fold when the step halves;
# over 1,500 seeded inputs the observed fall stayed within 15.9-16.3.
RK4_FALL = (16.0 / 1.15, 16.0 * 1.15)
# Finite-difference proper acceleration: relative errors up to 2.4e-6 seen
# for diamond orbits with r >= 0.05 L, 7e-8 for wedge orbits.
FD_TOL_DIAMOND = 1e-4
FD_TOL_WEDGE = 1e-6


def _fall(name, exact, coarse, fine, scale):
    e1 = max(abs(c - x) for c, x in zip(coarse, exact)) / scale
    e2 = max(abs(f - x) for f, x in zip(fine, exact)) / scale
    if not (e2 > 0.0 and RK4_FALL[0] <= e1 / e2 <= RK4_FALL[1]):
        raise CheckError(f"{name}: RK4 error {e1!r} -> {e2!r} at twice the steps, "
                         f"not a 16x fall")


def check_oracle(spec: dict, values: list) -> None:
    if len(values) != 15 or not all(math.isfinite(v) for v in values):
        raise CheckError(f"oracle values {values!r}")
    (zp, zm, cp, cm, fp, fm, numeric, closed,
     wx0, wx1, wc0, wc1, wf0, wf1, w_numeric) = values
    L = spec["L"]
    _fall("diamond", (zp, zm), (cp, cm), (fp, fm), L)
    scale = max(abs(wx0), abs(wx1 - spec["apex"]))
    _fall("wedge", (wx0, wx1), (wc0, wc1), (wf0, wf1), scale)

    vp, vm = spec["u_plus"] / L, spec["u_minus"] / L
    a_ref = math.sinh(math.atanh((vp - vm) / (1.0 - vp * vm))) / L
    if abs(closed - a_ref) > 1e-11 * a_ref:
        raise CheckError(f"acceleration_at {closed!r}, expected {a_ref!r}")
    if abs(numeric - closed) > FD_TOL_DIAMOND * closed:
        raise CheckError(f"proper_acceleration {numeric!r} vs acceleration_at {closed!r}")
    w_ref = 1.0 / math.sqrt(spec["rel"] ** 2 - spec["x0"] ** 2)
    if abs(w_numeric - w_ref) > FD_TOL_WEDGE * w_ref:
        raise CheckError(f"wedge proper_acceleration {w_numeric!r}, expected {w_ref!r}")


def check_op(workload: str, spec: dict, outputs) -> None:
    """outputs: the written files' text, or the oracle values."""
    if workload == "grid-export":
        check_grid(spec, *outputs)
    elif workload == "orbit-export":
        check_orbit(spec, *outputs)
    else:
        check_oracle(spec, outputs)
