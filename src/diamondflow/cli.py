"""Command-line surface: orbit tables, temperature grids, limit scans, figures.

argparse parses and checks every flag, and each `cmd_*` takes its namespace.
Exit codes: 0 success, 2 invalid configuration (argparse's usage and
message), an --out that cannot be opened or written, a standard output
closed early or a run out of memory among them, 3 start or sample outside
the region's domain, or a result that overflows or is not finite, 4
mode/spec mismatch.  A run that exits before writing leaves an existing
--out unchanged, and a write that fails part-way cuts the file after the
last byte written.  All numeric output is fixed at %.12e so identical
configurations produce byte-identical files; CSV, JSON and SVG text comes
from the array kernels of `_text`, byte-identical to Python's `%` and, for
JSON numbers, to the repr of the %.12e value that `json.dumps` would write.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from functools import cache, partial

import numpy as np

from ._kernels import global_null, null_beta, thermal
from ._text import lines
from .errors import DiamondflowError, OutOfRange, SpecMismatch
from .figures import render_figure
from .flow import Trajectory, sample_trajectory
from .geometry import DiamondSpec, NullRadialCoords, SpacetimePoint, WedgeSpec, _half_sum
from .limits import MODES, deviation_scan, regime_map

_FIELD_MARGIN = 1e-3

# Most orbit samples, table rows or heat-map cells one run may produce;
# checked before anything is allocated.
MAX_OUTPUT_ROWS = 10_000_000


# ------------------------------------------------------------------ formatting

def _emit(names, columns, fmt, footer_text=None, footer_fields=None) -> list[bytes]:
    """CSV or JSON bytes of equal-length columns, one row per element.

    A column is an array or (values, index), the column values[index]; a
    column of one value is written as such a pair.  Float columns print as
    %.12e, with -0.0 written as 0.0, and in JSON as the shortest repr of that
    value; a column with a non-finite value is OutOfRange (exit 3).  Each
    distinct float array is copied once, + 0.0, into one table checked in one
    pass.  Boolean columns print as 0 and 1.  JSON is one object {"columns":
    names, "rows": [{name: value, ...}, ...]} followed by the footer fields,
    laid out as `json.dumps` with separators (",", ":")."""
    float_spec, parts = "%.12e" if fmt == "csv" else "json", []
    columns = [col if isinstance(col, tuple) else (col,) for col in columns]
    floats = {id(col[0]): col[0] for col in columns if col[0].dtype.kind == "f"}
    table, lo = np.empty(sum(values.size for values in floats.values())), 0
    for key, values in floats.items():  # -0.0 + 0.0 is 0.0
        floats[key] = np.add(values, 0.0, out=table[lo:(lo := lo + values.size)])
    nonfinite = not np.isfinite(table).all()  # then the first such column is named
    for name, (values, *index) in zip(names, columns):
        values = floats[id(values)] if id(values) in floats else values.astype(np.int64)
        if nonfinite and not np.isfinite(values).all():
            raise OutOfRange(f"column {name} has a non-finite value")
        if not index and values[0] == values[-1] and (values == values[0]).all():
            values, index = values[:1], [np.zeros(len(values), np.intp)]  # formatted once
        parts.append((values, "%d" if values.dtype == np.int64 else float_spec, *index))
    if fmt == "csv":
        row = [part for col in parts for part in (",", col)]
        footer = "" if footer_text is None else footer_text + "\n"
        return [f"{','.join(names)}\n".encode(), *lines(row[1:], "\n"), f"\n{footer}".encode()]
    row = [part for name, col in zip(names, parts) for part in (f',"{name}":', col)]
    head = '{"columns":[' + ",".join(f'"{name}"' for name in names) + '],"rows":['
    tail = "".join(f',"{key}":{value!r}' for key, value in (footer_fields or {}).items())
    return [head.encode(), *lines(["{" + row[0][1:], *row[1:], "}"], ","), f"]{tail}}}\n".encode()]


def _no_truncate(path: str, flags: int) -> int:
    # open(out, "wb") without O_TRUNC: truncating to zero frees every page and
    # block only for the write to allocate them again, and ext4 starts
    # writeback on closing a file so truncated.
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write(chunks: list[bytes], out: str) -> None:
    """Write chunks over the file out from offset 0, then cut it to their length.

    A new file is created as open(out, "wb") creates it; an existing one keeps
    its inode, links and mode.  Only a regular file is cut, and it is cut also
    when a write fails part-way, so no old byte is left after a new one.
    """
    with open(out, "wb", opener=_no_truncate) as fh:
        try:
            fh.writelines(chunks)
            fh.flush()
        finally:
            fd = fh.fileno()
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


# ------------------------------------------------------------------- parsing

def _parse(kind, text: str):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


def _real(text: str, finite: bool = True, positive: bool = False) -> float:
    value = _parse(float, text)
    if finite and not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    if positive and not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _count(text: str, minimum: int, rows=lambda n: n) -> int:
    """An int of at least minimum whose rows(n) rows or cells fit MAX_OUTPUT_ROWS."""
    n = _parse(int, text)
    if n < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {n}")
    if rows(n) > MAX_OUTPUT_ROWS:
        raise argparse.ArgumentTypeError(
            f"asks for more than {MAX_OUTPUT_ROWS} rows or cells, got {n}")
    return n


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected ZP,ZM, got {text!r}")
    return _parse(float, parts[0]), _parse(float, parts[1])


class _TRange(tuple):
    """(MIN, MAX, N) of --t; error says why a run that reads MIN and N refuses them."""
    error = None


def _trange(text: str) -> _TRange:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX:N, got {text!r}")
    t = _TRange((_real(parts[0]), _real(parts[1]), _count(parts[2], -math.inf)))
    if t[2] < 2:
        t.error = f"must be >= 2, got {t[2]}"
    elif not t[0] < t[1]:
        t.error = f"needs MIN < MAX, got {text!r}"
    return t


@cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="diamondflow")
    positive = partial(_real, positive=True)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, cmd, start=None, wedge=True, trange=True):
        # start: the parser or group that takes one --start, or "many".
        p.set_defaults(cmd=cmd)
        if wedge:
            p.add_argument("--region", choices=("diamond", "wedge"), default="diamond")
        p.add_argument("--L", type=positive, default=1.0)
        p.add_argument("--L1", type=_real, default=0.0)
        if wedge:
            p.add_argument("--apex", type=_real, default=0.0)
        if start == "many":
            p.add_argument("--start", type=_pair, action="append", default=[], metavar="ZP,ZM")
        elif start is not None:
            start.add_argument("--start", type=_pair, metavar="ZP,ZM")
        if trange:
            p.add_argument("--t", type=_trange, default="-2:2:41", metavar="MIN:MAX:N")
        p.add_argument("--out")

    p = sub.add_parser("traj", help="export one orbit as a table")
    common(p, cmd_traj, start=p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("field", help="export the temperature field on a grid")
    common(p, cmd_field, wedge=False, trange=False)
    p.add_argument("--grid", type=partial(_count, minimum=2, rows=lambda n: n * (n + 1) // 2),
                   default=32)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("limits", help="compare the exact flow against a limit form")
    starts_or_grid = p.add_mutually_exclusive_group()
    common(p, cmd_limits, start=starts_or_grid, wedge=False)
    p.add_argument("--mode", choices=MODES, required=True)
    starts_or_grid.add_argument("--grid", type=partial(_count, minimum=1), help=(
        "regime map over N starts instead of one --start scan; "
        "it reads only MAX of --t, as its probe"))
    p.add_argument("--tol", type=positive, default=0.01)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("plot", help="emit a static SVG figure")
    common(p, cmd_plot, start="many")
    # The cell cap applies only with --shade; _check_shade tests it.
    p.add_argument("--grid", type=partial(_count, minimum=1, rows=lambda n: 0), default=24)
    p.add_argument("--hyperbola-w", type=partial(_real, finite=False, positive=True))
    p.add_argument("--shade", action="store_true")
    return ap


def _check_shade(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """The one rule that reads two flags: plot --shade needs the diamond and a capped --grid."""
    if args.subcommand == "plot" and args.shade:
        if args.region != "diamond":
            parser.error("--shade is defined for --region diamond")
        if args.grid * args.grid > MAX_OUTPUT_ROWS:
            parser.error(f"--shade --grid asks for more than {MAX_OUTPUT_ROWS} cells")


def _check_t(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """--t needs MIN < MAX and N >= 2, except under limits --grid, which reads only MAX."""
    error = getattr(args, "t", _TRange()).error
    if error and not (args.subcommand == "limits" and args.grid is not None):
        sub = next(action for action in parser._actions if action.dest == "subcommand")
        sub.choices[args.subcommand].error(f"argument --t: {error}")


# ----------------------------------------------------------------- subcommands

def _orbit(args: argparse.Namespace, start: tuple[float, float]) -> Trajectory:
    """The orbit through one --start pair over the --t grid."""
    zp0, zm0 = start
    if args.region == "diamond":
        return sample_trajectory(NullRadialCoords(zp0, zm0), *args.t, DiamondSpec(args.L, args.L1))
    point = SpacetimePoint(_half_sum(zp0, zm0), _half_sum(zp0, -zm0))
    return sample_trajectory(point, *args.t, WedgeSpec(args.apex))


_TRAJ_COLS = ("t", "z_plus", "z_minus", "x0", "x1", "T", "a")


def cmd_traj(args: argparse.Namespace) -> list[bytes]:
    tr = _orbit(args, args.start or ((1.0, -1.0) if args.region == "wedge" else (0.0, 0.0)))
    return _emit(_TRAJ_COLS, (tr.t_values, tr.z_plus, tr.z_minus, tr.x0, tr.x1,
                              tr.temperature(), tr.acceleration()), args.format)


_FIELD_COLS = ("z_plus", "z_minus", "beta_plus", "beta_minus", "T", "a", "ratio")


def _margin_axis(L: float, n: int) -> np.ndarray:
    """n points from -L + m to L - m, m = _FIELD_MARGIN L, by np.linspace at a
    quarter scale above L = 1: exact, and its stop - start cannot overflow."""
    k = 0.25 if L > 1.0 else 1.0
    m = _FIELD_MARGIN * L
    return np.linspace(k * (-L + m), k * (L - m), n) / k


def cmd_field(args: argparse.Namespace) -> list[bytes]:
    L = args.L
    axis = _margin_axis(L, args.grid)
    # One row per pair up >= um, up-major: the lower triangle of the axis grid.
    i, j = np.tril_indices(args.grid)
    up, um = axis[i], axis[j]
    z_plus, z_minus, _, _ = global_null(up, um, L, args.L1)
    _, _, _, T, a, ratio = thermal(up, um, L)
    beta = null_beta(axis, L)[2]  # beta+- take one value per axis point
    return _emit(_FIELD_COLS, (z_plus, z_minus, (beta, i), (beta, j), T, a, ratio), args.format)


_SCAN_COLS = ("t", "exact_plus", "exact_minus", "limit_plus", "limit_minus",
              "abs_dev", "rel_dev")
_REGIME_COLS = ("r", "ratio", "max_rel_dev", "within_tol")


def cmd_limits(args: argparse.Namespace) -> list[bytes]:
    d = DiamondSpec(args.L, args.L1)
    if args.grid is not None:
        rm = regime_map(args.mode, d, args.t[1], args.tol, args.grid)
        true_cells = int(rm.within_tol.sum())
        footer = f"# true_cells={true_cells} of {args.grid}"
        fields = {"true_cells": true_cells, "cells": args.grid}
        return _emit(_REGIME_COLS, (rm.r_values, rm.ratio, rm.max_rel_dev, rm.within_tol),
                     args.format, footer, fields)
    start = NullRadialCoords(*(args.start or (0.5, -0.5)))
    rep = deviation_scan(args.mode, start, d, *args.t)
    # The maxima of the abs_dev and rel_dev columns, which _emit checks
    # for finiteness.
    dev = (f"{rep.max_abs_dev:.12e}", f"{rep.max_rel_dev:.12e}")
    footer = f"# max_abs_dev={dev[0]} max_rel_dev={dev[1]}"
    fields = {"max_abs_dev": float(dev[0]), "max_rel_dev": float(dev[1])}
    columns = (rep.t_values, *rep.exact.T, *rep.limit.T, rep.abs_dev, rep.rel_dev)
    return _emit(_SCAN_COLS, columns, args.format, footer, fields)


def cmd_plot(args: argparse.Namespace) -> list[bytes]:
    orbits = [_orbit(args, start) for start in args.start]
    paths = [(tr.x1, tr.x0) for tr in orbits]
    if args.region == "diamond":
        L, L1 = args.L, args.L1
        outline = ([L1, L1 + L, L1, L1 - L], [L, 0.0, -L, 0.0])
        shade = _shade_cells(DiamondSpec(L, L1), args.grid) if args.shade else None
        return render_figure(outline, True, paths, args.hyperbola_w, shade)
    reach = 1.0
    for tr in orbits:
        reach = max(reach, float(np.abs(tr.x0).max()), float((tr.x1 - args.apex).max()))
    outline = ([args.apex + reach, args.apex, args.apex + reach], [reach, 0.0, -reach])
    return render_figure(outline, False, paths, args.hyperbola_w)


def _shade_cells(d: DiamondSpec, n: int):
    """Heat map: (n+1)^2 vertices (x1, x0), (n*n, 4) cell corners into them, cell values."""
    L, L1 = d.size_L, d.translation_L1
    edges = _margin_axis(L, n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    # The shade is sqrt((1 - v+^2)(1 - v-^2)) = ||beta||/(L/2), 1 at the center.
    _, _, norm, _, _, _ = thermal(np.repeat(centers, n), np.tile(centers, n), L)
    value = norm / (0.5 * L)
    # Vertex a (n+1) + b is (up, um) = (edges[a], edges[b]).  Cell (i, j) spans up in
    # edges[i:i+2] and um in edges[j:j+2]; its corners run (p0, q0), (p1, q0), (p1, q1), (p0, q1).
    corners = ((n + 1) * np.arange(n)[:, None] + np.arange(n)).reshape(-1, 1) + [0, n + 1, n + 2, 1]
    _, _, x0, x1 = global_null(np.repeat(edges, n + 1), np.tile(edges, n + 1), L, L1)
    return x1, x0, corners, value


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_t(parser, args)
        _check_shade(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # numpy overflow and NaN become exceptions, so no kernel result
        # reaches the output unchecked.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            chunks = args.cmd(args)
    except SpecMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DiamondflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: floating-point range exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"{parser.prog}: error: out of memory", file=sys.stderr)
        return 2
    if args.out is None:
        try:
            sys.stdout.writelines(chunk.decode("ascii") for chunk in chunks)
            sys.stdout.flush()
        except BrokenPipeError as exc:  # the rest goes to devnull: shutdown stays quiet
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            print(f"{parser.prog}: error: cannot write stdout: {exc.strerror}", file=sys.stderr)
            return 2
        return 0
    try:
        _write(chunks, args.out)
    except OSError as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: argument --out: cannot write {args.out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
