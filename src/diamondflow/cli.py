"""Command-line surface: orbit tables, temperature grids, limit scans, figures.

Exit codes: 0 success, 2 invalid configuration, 3 start or sample outside
the region's domain, or a result that overflows or is not finite, 4
mode/spec mismatch.  All numeric output is fixed at %.12e so identical
configurations produce byte-identical files; CSV and SVG text comes from
the array kernels of `_text`, byte-identical to Python's `%`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._kernels import field_grid, global_null
from ._text import cells, join
from .errors import DiamondflowError, OutOfRange, SpecMismatch
from .figures import render_figure
from .flow import Trajectory, sample_trajectory
from .geometry import DiamondSpec, NullRadialCoords, SpacetimePoint, WedgeSpec
from .limits import deviation_scan, regime_map

_FIELD_MARGIN = 1e-3

# Most orbit samples, table rows or heat-map cells one run may produce;
# checked before anything is allocated.
MAX_OUTPUT_ROWS = 10_000_000


class ConfigError(Exception):
    """Invalid command-line configuration; reported with exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    region: str = "diamond"
    size_L: float = 1.0
    translation_L1: float = 0.0
    apex: float = 0.0
    starts: tuple = ()
    t_min: float = -2.0
    t_max: float = 2.0
    n_t: int = 41
    grid_n: int | None = None
    tol: float = 0.01
    mode: str | None = None
    fmt: str = "csv"
    out: str | None = None
    hyperbola_w: float | None = None
    shade: bool = False


# ------------------------------------------------------------------ formatting

def _emit(names, columns, fmt, footer_text=None, footer_fields=None) -> str:
    """CSV or JSON text of equal-length columns, one row per element.

    Float columns print as %.12e, with -0.0 written as 0.0; a column with
    a non-finite value is OutOfRange (exit 3).  Boolean columns print as
    0 and 1.
    """
    for name, col in zip(names, columns):
        if col.dtype != np.bool_ and not np.isfinite(col).all():
            raise OutOfRange(f"column {name} has a non-finite value")
    columns = [(col.astype(np.int64), "%d") if col.dtype == np.bool_ else (col + 0.0, "%.12e")
               for col in columns]
    if fmt == "csv":
        row = [part for col, spec in columns for part in (",", cells(col, spec))]
        lines = [",".join(names), join(row[1:], "\n")]
        if footer_text is not None:
            lines.append(footer_text)
        return "\n".join([*lines, ""])
    values = [col.tolist() if spec == "%d" else [float(spec % x) for x in col.tolist()]
              for col, spec in columns]
    doc = {"columns": list(names), "rows": [dict(zip(names, r)) for r in zip(*values)]}
    if footer_fields:
        doc.update(footer_fields)
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


# ------------------------------------------------------------------- parsing

def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected two comma-separated values, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad start coordinates {text!r}") from exc


def _parse_trange(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected min:max:n, got {text!r}")
    try:
        t_min, t_max, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad t-range {text!r}") from exc
    return t_min, t_max, n


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="diamondflow")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, region=True, start=None, trange=True):
        if region:
            p.add_argument("--region", choices=("diamond", "wedge"), default="diamond")
        p.add_argument("--L", type=float, default=1.0)
        p.add_argument("--L1", type=float, default=0.0)
        p.add_argument("--apex", type=float, default=0.0)
        if start == "one":
            p.add_argument("--start", default=None, metavar="ZP,ZM")
        elif start == "many":
            p.add_argument("--start", action="append", default=[], metavar="ZP,ZM")
        if trange:
            p.add_argument("--t", default="-2:2:41", metavar="MIN:MAX:N")
        p.add_argument("--out", default=None)

    p = sub.add_parser("traj", help="export one orbit as a table")
    common(p, start="one")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("field", help="export the temperature field on a grid")
    common(p, start=None, trange=False)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("limits", help="compare the exact flow against a limit form")
    common(p, region=False, start="one")
    p.add_argument("--mode", choices=("minkowski", "wedge"), required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--tol", type=float, default=0.01)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("plot", help="emit a static SVG figure")
    common(p, start="many")
    p.add_argument("--grid", type=int, default=24)
    p.add_argument("--format", choices=("svg",), default="svg")
    p.add_argument("--hyperbola-w", type=float, default=None, dest="hyperbola_w")
    p.add_argument("--shade", action="store_true")
    return ap


def _config_from_args(args) -> RunConfig:
    sc = args.subcommand
    t_min, t_max, n_t = _parse_trange(getattr(args, "t", "-2:2:41"))

    raw = getattr(args, "start", None)
    if sc == "plot":
        starts = tuple(_parse_pair(s) for s in raw)
    elif raw is not None and not isinstance(raw, list):
        starts = (_parse_pair(raw),)
    elif sc == "traj":
        region = getattr(args, "region", "diamond")
        starts = ((1.0, -1.0),) if region == "wedge" else ((0.0, 0.0),)
    elif sc == "limits":
        starts = ((0.5, -0.5),)
    else:
        starts = ()

    cfg = RunConfig(
        subcommand=sc,
        region=getattr(args, "region", "diamond"),
        size_L=args.L,
        translation_L1=args.L1,
        apex=args.apex,
        starts=starts,
        t_min=t_min,
        t_max=t_max,
        n_t=n_t,
        grid_n=getattr(args, "grid", None),
        tol=getattr(args, "tol", 0.01),
        mode=getattr(args, "mode", None),
        fmt=getattr(args, "format", "csv"),
        out=args.out,
        hyperbola_w=getattr(args, "hyperbola_w", None),
        shade=getattr(args, "shade", False),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    for name, value in (("L", cfg.size_L), ("L1", cfg.translation_L1),
                        ("apex", cfg.apex)):
        if not math.isfinite(value):
            raise ConfigError(f"--{name} must be finite")
    if cfg.size_L <= 0.0:
        raise ConfigError("--L must be positive")
    if cfg.subcommand in ("traj", "limits", "plot"):
        if not (math.isfinite(cfg.t_min) and math.isfinite(cfg.t_max)):
            raise ConfigError("--t bounds must be finite")
        if cfg.n_t < 2:
            raise ConfigError("--t needs n >= 2")
        if not cfg.t_min < cfg.t_max:
            raise ConfigError("--t needs min < max")
    if cfg.subcommand == "field":
        if cfg.region != "diamond":
            raise ConfigError("field grids are defined for --region diamond")
        if cfg.grid_n is None or cfg.grid_n < 2:
            raise ConfigError("--grid must be >= 2")
    if cfg.subcommand == "limits":
        if not (math.isfinite(cfg.tol) and cfg.tol > 0.0):
            raise ConfigError("--tol must be positive")
        if cfg.grid_n is not None and cfg.grid_n < 1:
            raise ConfigError("--grid must be >= 1")
    if cfg.subcommand == "plot":
        if cfg.grid_n is None or cfg.grid_n < 1:
            raise ConfigError("--grid must be >= 1")
        if cfg.hyperbola_w is not None and not cfg.hyperbola_w > 0.0:
            raise ConfigError("--hyperbola-w must be positive")
        if cfg.shade and cfg.region != "diamond":
            raise ConfigError("--shade is defined for --region diamond")
    grid = cfg.grid_n or 0
    cells = {"field": grid * (grid + 1) // 2, "limits": grid,
             "plot": grid * grid if cfg.shade else 0}.get(cfg.subcommand, 0)
    if max(cfg.n_t, cells) > MAX_OUTPUT_ROWS:
        raise ConfigError(f"--t or --grid asks for more than {MAX_OUTPUT_ROWS} rows or cells")


# ----------------------------------------------------------------- subcommands

def _orbit(cfg: RunConfig, start: tuple[float, float]) -> Trajectory:
    """The orbit through one --start pair over the --t grid."""
    zp0, zm0 = start
    if cfg.region == "diamond":
        region, point = DiamondSpec(cfg.size_L, cfg.translation_L1), NullRadialCoords(zp0, zm0)
    else:
        region, point = WedgeSpec(cfg.apex), SpacetimePoint(0.5 * (zp0 + zm0), 0.5 * (zp0 - zm0))
    return sample_trajectory(point, cfg.t_min, cfg.t_max, cfg.n_t, region)


_TRAJ_COLS = ("t", "z_plus", "z_minus", "x0", "x1", "T", "a")


def cmd_traj(cfg: RunConfig) -> str:
    tr = _orbit(cfg, cfg.starts[0])
    return _emit(_TRAJ_COLS, (tr.t_values, tr.z_plus, tr.z_minus, tr.x0, tr.x1,
                              tr.temperature(), tr.acceleration()), cfg.fmt)


_FIELD_COLS = ("z_plus", "z_minus", "beta_plus", "beta_minus", "T", "a", "ratio")


def cmd_field(cfg: RunConfig) -> str:
    L = cfg.size_L
    m = _FIELD_MARGIN * L
    axis = np.linspace(-L + m, L - m, cfg.grid_n)
    # One row per pair up >= um, up-major: the lower triangle of the axis grid.
    i, j = np.tril_indices(cfg.grid_n)
    up, um = axis[i], axis[j]
    z_plus, z_minus, _, _ = global_null(up, um, cfg.translation_L1)
    return _emit(_FIELD_COLS, (z_plus, z_minus, *field_grid(up, um, L)), cfg.fmt)


_SCAN_COLS = ("t", "exact_plus", "exact_minus", "limit_plus", "limit_minus",
              "abs_dev", "rel_dev")
_REGIME_COLS = ("r", "ratio", "max_rel_dev", "within_tol")


def cmd_limits(cfg: RunConfig) -> str:
    d = DiamondSpec(cfg.size_L, cfg.translation_L1)
    if cfg.grid_n is not None:
        rm = regime_map(cfg.mode, d, cfg.t_max, cfg.tol, cfg.grid_n)
        true_cells = int(rm.within_tol.sum())
        footer = f"# true_cells={true_cells} of {cfg.grid_n}"
        fields = {"true_cells": true_cells, "cells": cfg.grid_n}
        return _emit(_REGIME_COLS, (rm.r_values, rm.ratio, rm.max_rel_dev, rm.within_tol),
                     cfg.fmt, footer, fields)
    rep = deviation_scan(cfg.mode, NullRadialCoords(*cfg.starts[0]), d,
                         cfg.t_min, cfg.t_max, cfg.n_t)
    # The maxima of the abs_dev and rel_dev columns, which _emit checks
    # for finiteness.
    dev = (f"{rep.max_abs_dev:.12e}", f"{rep.max_rel_dev:.12e}")
    footer = f"# max_abs_dev={dev[0]} max_rel_dev={dev[1]}"
    fields = {"max_abs_dev": float(dev[0]), "max_rel_dev": float(dev[1])}
    columns = (rep.t_values, *rep.exact.T, *rep.limit.T, rep.abs_dev, rep.rel_dev)
    return _emit(_SCAN_COLS, columns, cfg.fmt, footer, fields)


def cmd_plot(cfg: RunConfig) -> str:
    orbits = [_orbit(cfg, start) for start in cfg.starts]
    lines = [(tr.x1, tr.x0) for tr in orbits]
    if cfg.region == "diamond":
        L, L1 = cfg.size_L, cfg.translation_L1
        outline = ([L1, L1 + L, L1, L1 - L], [L, 0.0, -L, 0.0])
        shade = _shade_cells(DiamondSpec(L, L1), cfg.grid_n) if cfg.shade else None
        return render_figure(outline, True, lines, cfg.hyperbola_w, shade)
    reach = 1.0
    for tr in orbits:
        reach = max(reach, float(np.abs(tr.x0).max()), float((tr.x1 - cfg.apex).max()))
    outline = ([cfg.apex + reach, cfg.apex, cfg.apex + reach], [reach, 0.0, -reach])
    return render_figure(outline, False, lines, cfg.hyperbola_w)


def _shade_cells(d: DiamondSpec, n: int):
    """Quad corners (x1, x0), each (n*n, 4), and values of the heat map cells."""
    L, L1 = d.size_L, d.translation_L1
    m = _FIELD_MARGIN * L
    edges = np.linspace(-L + m, L - m, n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    bp, bm, _, _, _ = field_grid(np.repeat(centers, n), np.tile(centers, n), L)
    value = 2.0 * np.sqrt((bp / L) * (bm / L))
    # Cell (i, j) spans up in edges[i:i+2] and um in edges[j:j+2]; its
    # corners run (p0, q0), (p1, q0), (p1, q1), (p0, q1).
    lo, hi = edges[:-1], edges[1:]
    up = np.repeat(np.stack([lo, hi, hi, lo], axis=1), n, axis=0)
    um = np.tile(np.stack([lo, lo, hi, hi], axis=1), (n, 1))
    return L1 + 0.5 * (up - um), 0.5 * (up + um), value


_DISPATCH = {"traj": cmd_traj, "field": cmd_field,
             "limits": cmd_limits, "plot": cmd_plot}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        # numpy overflow and NaN become exceptions, so no kernel result
        # reaches the output unchecked.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            text = _DISPATCH[cfg.subcommand](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpecMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DiamondflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: floating-point range exceeded: {exc}", file=sys.stderr)
        return 3
    _write(text, cfg.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
