"""Command-line surface: orbit tables, temperature grids, limit scans, figures.

Exit codes: 0 success, 2 invalid configuration, 3 start or sample outside
the region's domain, or a result that overflows or is not finite, 4
mode/spec mismatch.  All numeric output is fixed at %.12e so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._kernels import field_grid
from .errors import DiamondflowError, OutOfRange, SpecMismatch
from .figures import render_figure
from .flow import diamond_flow, wedge_flow
from .geometry import (
    DiamondSpec,
    NullRadialCoords,
    SpacetimePoint,
    WedgeSpec,
    from_null,
    null_from_centered,
)
from .limits import deviation_scan, regime_map
from .thermo import acceleration_at, diamond_temperature, wedge_temperature

_FIELD_MARGIN = 1e-3


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

def _fmt(v: float) -> str:
    v = float(v)
    if v == 0.0:
        v = 0.0
    elif not math.isfinite(v):
        raise OutOfRange(f"result {v!r} is not finite")
    return f"{v:.12e}"


def _cell_csv(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    return _fmt(v)


def _cell_json(v):
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, int):
        return v
    return float(_fmt(v))


def _emit(cols, rows, fmt, footer_text=None, footer_fields=None) -> str:
    if fmt == "csv":
        lines = [",".join(cols)]
        lines.extend(",".join(_cell_csv(v) for v in row) for row in rows)
        if footer_text is not None:
            lines.append(footer_text)
        return "\n".join(lines) + "\n"
    doc = {"columns": list(cols),
           "rows": [{c: _cell_json(v) for c, v in zip(cols, row)} for row in rows]}
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


# ----------------------------------------------------------------- subcommands

_TRAJ_COLS = ("t", "z_plus", "z_minus", "x0", "x1", "T", "a")


def cmd_traj(cfg: RunConfig) -> str:
    t_values = np.linspace(cfg.t_min, cfg.t_max, cfg.n_t)
    zp0, zm0 = cfg.starts[0]
    if cfg.region == "diamond":
        d = DiamondSpec(cfg.size_L, cfg.translation_L1)
        z0 = NullRadialCoords(zp0, zm0)
        rows = []
        for t in t_values:
            zt = diamond_flow(z0, float(t), d)
            x = from_null(zt)
            sample = diamond_temperature(zt, d)
            rows.append((float(t), zt.z_plus, zt.z_minus, x.x0, x.x1,
                         sample.temperature, acceleration_at(zt, d)))
    else:
        w = WedgeSpec(cfg.apex)
        x0 = SpacetimePoint(0.5 * (zp0 + zm0), 0.5 * (zp0 - zm0))
        points = [wedge_flow(x0, float(t), w) for t in t_values]
        # The acceleration is constant along the boost orbit.  Taken at the
        # start (which wedge_flow has validated) it avoids the cancellation
        # in (x1 - apex)^2 - x0^2 at large |t|; two square roots keep the
        # product in range.
        rel = x0.x1 - cfg.apex
        accel = 1.0 / (math.sqrt(rel - x0.x0) * math.sqrt(rel + x0.x0))
        temperature = wedge_temperature(accel)
        rows = [(float(t), x.x0 + x.x1, x.x0 - x.x1, x.x0, x.x1, temperature, accel)
                for t, x in zip(t_values, points)]
    return _emit(_TRAJ_COLS, rows, cfg.fmt)


_FIELD_COLS = ("z_plus", "z_minus", "beta_plus", "beta_minus", "T", "a", "ratio")


def cmd_field(cfg: RunConfig) -> str:
    d = DiamondSpec(cfg.size_L, cfg.translation_L1)
    L = cfg.size_L
    m = _FIELD_MARGIN * L
    axis = np.linspace(-L + m, L - m, cfg.grid_n)
    pairs = [(float(up), float(um)) for up in axis for um in axis if up >= um]
    up_arr = np.array([p for p, _ in pairs])
    um_arr = np.array([q for _, q in pairs])
    bp, bm, temp, accel, ratio = field_grid(up_arr, um_arr, L)
    rows = []
    for k, (up, um) in enumerate(pairs):
        z = null_from_centered(up, um, (1.0, 0.0, 0.0), d)
        rows.append((z.z_plus, z.z_minus, float(bp[k]), float(bm[k]),
                     float(temp[k]), float(accel[k]), float(ratio[k])))
    return _emit(_FIELD_COLS, rows, cfg.fmt)


_SCAN_COLS = ("t", "exact_plus", "exact_minus", "limit_plus", "limit_minus",
              "abs_dev", "rel_dev")
_REGIME_COLS = ("r", "ratio", "max_rel_dev", "within_tol")


def cmd_limits(cfg: RunConfig) -> str:
    d = DiamondSpec(cfg.size_L, cfg.translation_L1)
    if cfg.grid_n is not None:
        rm = regime_map(cfg.mode, d, cfg.t_max, cfg.tol, cfg.grid_n)
        rows = [(float(r), float(q), float(m), bool(w))
                for r, q, m, w in zip(rm.r_values, rm.ratio,
                                      rm.max_rel_dev, rm.within_tol)]
        true_cells = int(rm.within_tol.sum())
        footer = f"# true_cells={true_cells} of {cfg.grid_n}"
        fields = {"true_cells": true_cells, "cells": cfg.grid_n}
        return _emit(_REGIME_COLS, rows, cfg.fmt, footer, fields)
    zp0, zm0 = cfg.starts[0]
    rep = deviation_scan(cfg.mode, NullRadialCoords(zp0, zm0), d,
                         cfg.t_min, cfg.t_max, cfg.n_t)
    rows = [(float(t), float(e[0]), float(e[1]), float(l[0]), float(l[1]),
             float(a), float(r))
            for t, e, l, a, r in zip(rep.t_values, rep.exact, rep.limit,
                                     rep.abs_dev, rep.rel_dev)]
    footer = (f"# max_abs_dev={_fmt(rep.max_abs_dev)} "
              f"max_rel_dev={_fmt(rep.max_rel_dev)}")
    fields = {"max_abs_dev": _cell_json(rep.max_abs_dev),
              "max_rel_dev": _cell_json(rep.max_rel_dev)}
    return _emit(_SCAN_COLS, rows, cfg.fmt, footer, fields)


def cmd_plot(cfg: RunConfig) -> str:
    t_values = np.linspace(cfg.t_min, cfg.t_max, cfg.n_t)
    orbits = []
    if cfg.region == "diamond":
        d = DiamondSpec(cfg.size_L, cfg.translation_L1)
        L, L1 = cfg.size_L, cfg.translation_L1
        outline = [(L1, L), (L1 + L, 0.0), (L1, -L), (L1 - L, 0.0)]
        for zp0, zm0 in cfg.starts:
            z0 = NullRadialCoords(zp0, zm0)
            pts = []
            for t in t_values:
                x = from_null(diamond_flow(z0, float(t), d))
                pts.append((x.x1, x.x0))
            orbits.append(pts)
        shade = _shade_cells(d, cfg.grid_n) if cfg.shade else ()
        return render_figure(outline, True, orbits, cfg.hyperbola_w, shade)
    w = WedgeSpec(cfg.apex)
    for zp0, zm0 in cfg.starts:
        x0 = SpacetimePoint(0.5 * (zp0 + zm0), 0.5 * (zp0 - zm0))
        pts = []
        for t in t_values:
            x = wedge_flow(x0, float(t), w)
            pts.append((x.x1, x.x0))
        orbits.append(pts)
    reach = 1.0
    for pts in orbits:
        for x1, t0 in pts:
            reach = max(reach, abs(t0), x1 - cfg.apex)
    outline = [(cfg.apex + reach, reach), (cfg.apex, 0.0),
               (cfg.apex + reach, -reach)]
    return render_figure(outline, False, orbits, cfg.hyperbola_w, ())


def _shade_cells(d: DiamondSpec, n: int):
    L, L1 = d.size_L, d.translation_L1
    m = _FIELD_MARGIN * L
    edges = np.linspace(-L + m, L - m, n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    up_c = np.repeat(centers, n)
    um_c = np.tile(centers, n)
    bp, bm, _, _, _ = field_grid(up_c, um_c, L)
    value = 2.0 * np.sqrt(bp * bm) / L

    def corner(up, um):
        return (L1 + 0.5 * (up - um), 0.5 * (up + um))

    cells = []
    for i in range(n):
        for j in range(n):
            p0, p1 = float(edges[i]), float(edges[i + 1])
            q0, q1 = float(edges[j]), float(edges[j + 1])
            quad = [corner(p0, q0), corner(p1, q0), corner(p1, q1), corner(p0, q1)]
            cells.append((quad, float(value[i * n + j])))
    return cells


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
