import contextlib
import csv
import errno
import hashlib
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _helpers import (
    emit_json_reference,
    lines_reference,
    mpmath40,
    orbit_ref,
    temperature_ref,
    thermal_ref,
    wedge_ref,
)
from diamondflow import _text, cli, figures
from diamondflow.cli import MAX_OUTPUT_ROWS, _build_parser, _check_shade, main
from diamondflow.geometry import DiamondSpec, NullRadialCoords
from diamondflow.thermo import acceleration_at, diamond_temperature

GOLDEN = Path(__file__).parent / "golden"
EPS = 2.0 ** -52


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "diamondflow.cli", *args],
                          capture_output=True, text=True)


# (command, golden file): each output is compared byte for byte.
_GOLDENS = [
    ("traj --region diamond --t=-2:2:5", "traj_diamond.csv"),
    ("traj --t=-2:2:5 --format json", "traj_diamond.json"),
    ("field --grid 5", "field_unit.csv"),
    ("limits --mode wedge --L 100 --L1 100 --start 1,-1 --t 0:1:5", "limits_wedge.csv"),
    ("limits --mode wedge --L1 1 --grid 8 --t 0:1:21", "limits_regime.csv"),
    ("plot --L 1 --L1 1.4142135623730951 --start 1,-1 --t=-2:2:101 --hyperbola-w 1",
     "plot_fig2.svg"),
    ("plot --shade --grid 8 --start 0.3,-0.3", "plot_shade.svg"),
]


@pytest.mark.parametrize("command, golden", _GOLDENS, ids=[g for _, g in _GOLDENS])
def test_golden(command, golden, tmp_path):
    out = tmp_path / golden
    res = run_cli(*command.split(), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# Large outputs pinned by the SHA-256 of their stdout, recorded before the
# CSV and SVG text moved to the array kernels; all exit 0.
_SHA256_PINS = [
    # The three field pins were re-recorded when a = (2 (r/L)/sqrt(q+ q-))/L
    # stopped going through T: only a cells moved, each by one unit of the
    # 13th digit, none beyond its column's worst relative error against
    # 40-digit mpmath before the change.  --grid 400: 17 cells (data rows
    # 14411, 17566, 21799, 22268, 24004, 25639, 39044, 41518, 46301, 50420,
    # 51930, 58821, 62744, 65070, 65998, 68657, 77888), 11 of them closer,
    # worst moved cell 4.95e-13 against the column's 4.96e-13.
    ("field --grid 400", "8a0f2c21df49c52c01b3b315cdeb4e1e476c10258ff6bf65698444e365548f49"),
    ("plot --shade --grid 200", "549dbd1c2f3df577e48dc2017ab42045974adb686f18f78e8a921bf729adcc73"),
    # The shade of a diamond 1e10 half-widths from the origin, whose vertices
    # x0 = (u+ + u-)/2 and x1 = L1 + (u+ - u-)/2 come from the centered pair:
    # halved from z_pm = u_pm +- L1 instead, 5,938 printed vertex coordinates
    # move, by up to 5e-4 px.
    ("plot --shade --grid 40 --L 1 --L1=-1e10",
     "70cf0efd75de92b3ed3ee10ff7cc4ca9472a804fa5536b76d74042759b08a62f"),
    ("limits --mode wedge --L 1 --L1 1 --start 0.5,-0.5 --t 0:1:20001",
     "bafc7bd13bce5bfa2354641abc0ed21c348be9a71ae0b066b1359c39d350868a"),
    # Re-recorded with the new a: 1 a cell moved (data row 1621), closer,
    # 9.35e-14 -> 9.33e-14 against the column's 4.61e-13.
    ("field --grid 64 --L 3.1e-200 --L1=-7e-201",
     "d980591561f2bea87599927346ec29d6f730b49455614d1aab5e3d902e15efa3"),
    # Re-recorded when z_pm = u_pm +- L1 became one rounding each: 2 z_plus
    # cells moved, both closer to mpmath (worst relative error 9.0e-14 ->
    # 2.2e-14); no other cell moved.  Re-recorded with the new a: 4 a cells
    # moved (data rows 923, 958, 1012, 1399), 1 closer, worst 1.48e-13
    # against the column's 4.60e-13.
    ("field --grid 64 --L 2.5e250 --L1=1e250",
     "7c0216263bfa12c0abd6d1e5e889c4ac04a90003c6248cb5f79417690cae5761"),
    ("plot --start 0.5,-0.5 --start=0.2,-0.7 --t=-8:8:20001 --hyperbola-w 0.4",
     "3936e9fc45d7be79b8ede64f70e7402affde0c5e1bd76110b75d80e4daee5084"),
    # Recorded after the wedge boost moved to null-coordinate displacements;
    # every cell that moved is closer to mpmath at 40 digits than the worst
    # cell of its column was before.
    ("traj --region wedge --apex 0.3 --start=1.7,-0.9 --t=-3:3:2001",
     "d8a66dc51c3ee20d09bd1d9eecabcf9ac43c3ed49e70754f57a9a871da2f1465"),
    ("traj --region wedge --start=0.7,-1.3 --t=-30:30:601 --format json",
     "39ccb907474eccf3753f3d8c976441712151d2f941922b387e9004d91070e44c"),
    # Recorded before traj and plot read their orbits from sample_trajectory.
    ("plot --region wedge --apex=-0.2 --start=1,-1 --start=2.5,-0.5 --t=-2:2:4001 --hyperbola-w 1",
     "651efa5b5b23e9ee8b0f1c15c45131bc4385c0ca42d62a428f83c8e518a253e8"),
    # Both re-recorded when the typed start's u_pm = z_pm -+ L1 became exact
    # and x0 = (u+ + u-)/2 came from the centered pair.  traj: every x0, T
    # and a cell moved, all closer to mpmath (worst relative error in x0
    # 1.5e-7 -> 3.9e-13, in T 3.9e-10 -> 4.8e-13, in a 1.2e-9 -> 9.4e-14);
    # z_pm and x1 did not move.  plot: 4 of 16,004 orbit pixel coordinates
    # moved, all closer, to the correctly rounded %.4f.
    ("traj --L 0.7 --L1 2.5e6 --start=2500000.4,-2500000.2 --t=-40:40:4001",
     "570676a36cfd025f0aaaf14493ea25a2fdf21c566003d50377223ad12e7078e5"),
    ("plot --L 0.7 --L1 2.5e6 --start=2500000.4,-2500000.2 --start=2500000.1,-2500000.5 "
     "--t=-40:40:4001", "2df09f23e3649f49ae56650676066db6648b46eb9765ef6e1204b211b1d7fae2"),
    ("limits --mode minkowski --L 3 --start=1.2,-1.2 --t=-8:8:4001",
     "335a56196d5949660f1aa9d1f924b81146ab9767255e174a56e4f05c0e04d220"),
    ("limits --mode minkowski --L 2 --grid 40 --t 0:0.5:9 --format json",
     "015bbfd8b46e85eedfe30409e70b5ff3c801934c8dd52d1363aa736081496a96"),
]


@pytest.mark.parametrize("command, digest", _SHA256_PINS, ids=[c for c, _ in _SHA256_PINS])
def test_large_output_sha256(command, digest, capsys):
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# Outputs built only from + - * /, sqrt and the text kernels: the same bytes
# on every numpy dispatch target.
_TARGET_FREE_PINS = [(c, h) for c, h in _SHA256_PINS if c.startswith("field") or "--shade" in c]

_PINS_CHILD = """
import contextlib, hashlib, io, json, sys
from diamondflow.cli import main
digests = {}
for command in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    digests[command] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
print(json.dumps(digests))
"""


def test_target_free_pins_without_avx512():
    # The field and shade pins again, in one child process whose numpy has
    # its AVX-512 loops switched off, as on a CPU without them.  The variable
    # is set for the child alone: it acts only before numpy is imported.
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    assert len(_TARGET_FREE_PINS) == 5
    commands = [c for c, _ in _TARGET_FREE_PINS]
    res = subprocess.run([sys.executable, "-c", _PINS_CHILD, json.dumps(commands)],
                         capture_output=True, text=True, env=env)
    if res.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in res.stderr:
        pytest.skip("numpy refuses NPY_DISABLE_CPU_FEATURES: "
                    + res.stderr.strip().splitlines()[-1])
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {c: [0, h] for c, h in _TARGET_FREE_PINS}


# Commands, help and usage errors in one process, which builds one parser.
_SEQUENCE = ["field --grid 3", "traj --t 0:1:3 --format json", "--help",
             "plot --grid 2 --shade", "limits --help", "traj --frobnicate",
             "limits --mode wedge --L1 1 --t 0:1:3", "field --grid 3"]


def test_parser_reuse_keeps_outputs(capsys):
    def run(command):
        code = main(command.split())
        return (code, *capsys.readouterr())

    first = [run(command) for command in _SEQUENCE]
    again = [run(command) for command in reversed(_SEQUENCE)][::-1]
    assert first == again and first[0] == first[-1]
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 0, 2, 0, 0]
    assert first[2][1].startswith("usage: diamondflow") and "traj" in first[2][1]
    assert "--frobnicate" in first[5][2]
    assert _build_parser() is _build_parser()


def test_double_run_byte_identical(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (a, b):
        res = run_cli("plot", "--shade", "--grid", "8", "--start", "0.3,-0.3",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------ exit codes

# (argv, the flag that its stderr names)
_INVALID = [
    ("traj --t 0:1:1", "--t"),
    ("traj --t 0:0:5", "--t"),
    ("traj --t 0:1", "--t"),
    ("traj --t 0:inf:5", "--t"),
    ("traj --start nope", "--start"),
    ("traj --L nan", "--L"),
    ("traj --L 0", "--L"),
    ("field --L1 inf", "--L1"),
    ("field --apex nan", "--apex"),
    ("field --grid 1", "--grid"),
    ("field --region wedge", "--region"),
    ("plot --hyperbola-w -1", "--hyperbola-w"),
    ("plot --hyperbola-w nan", "--hyperbola-w"),
    ("plot --grid 0", "--grid"),
    ("plot --shade --region wedge", "--shade"),
    ("limits --mode wedge --tol 0", "--tol"),
    ("limits --mode wedge --tol inf", "--tol"),
    ("limits --mode wedge --grid 0", "--grid"),
    # the regime map picks its own starts, so --start beside --grid is refused
    ("limits --mode wedge --grid 4 --start 0.5,-0.5", "--grid"),
    ("limits --mode minkowski --start=0.3,-0.9 --grid 2 --t 0:1:3", "--start"),
    # --region and --apex belong to traj and plot; plot writes only SVG
    ("field --region diamond", "--region"),
    ("field --apex 0", "--apex"),
    ("limits --mode wedge --apex 0.5", "--apex"),
    ("plot --format svg", "--format"),
]


def test_exit_invalid_config(capsys):
    for command, flag in _INVALID:
        assert main(command.split()) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(re.escape(flag) + r"(?![\w-])", captured.err), (command, captured.err)


def test_limits_grid_reads_only_max_of_t(capsys):
    # The regime map probes at MAX of --t, so MIN >= MAX and N < 2 are not
    # refused there; every run that samples --t still refuses them.
    assert main("limits --mode wedge --L1 1 --grid 3 --t 0:1:3".split()) == 0
    expected = capsys.readouterr()
    for t in ("5:1:2", "0:1:1"):
        assert main(f"limits --mode wedge --L1 1 --grid 3 --t {t}".split()) == 0
        assert capsys.readouterr() == expected
    assert main("limits --mode wedge --grid 3 --t 0:1:x".split()) == 2
    assert "argument --t: invalid int value: 'x'" in capsys.readouterr().err
    for command in ("traj", "plot", "limits --mode wedge --L1 1 --start 0.5,-0.5"):
        for t, message in (("5:1:2", "needs MIN < MAX, got '5:1:2'"), ("0:1:1", "must be >= 2, got 1")):
            assert main([*command.split(), "--t", t]) == 2
            out, err = capsys.readouterr()
            prog = f"diamondflow {command.split()[0]}"
            assert out == "" and err.startswith(f"usage: {prog} ")
            assert err.endswith(f"\n{prog}: error: argument --t: {message}\n")


def test_exit_unknown_flag_or_subcommand(capsys):
    assert main(["traj", "--frobnicate"]) == 2
    assert main(["orbit"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_exit_out_of_region(capsys):
    assert main(["traj", "--start", "2,-2"]) == 3
    assert main(["traj", "--region", "wedge", "--start=-1,-2"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err


def test_exit_spec_mismatch(capsys):
    assert main(["limits", "--mode", "minkowski", "--L1", "0.5",
                 "--t", "0:1:5"]) == 4
    assert main(["limits", "--mode", "wedge", "--L1", "0",
                 "--t", "0:1:5"]) == 4
    capsys.readouterr()


_RANGE_ERRORS = [
    "traj --t=-1500:1500:5",            # T ~ cosh^2(750)
    "traj --t=-1500:1500:5 --format json",
    "traj --region wedge --t=-1000:1000:5",
    "field --grid 3 --L 1e-307",        # T ~ 1/(pi L 1e-3)
    "limits --mode wedge --L 1 --L1 1 --start 0.5,-0.5 --t 0:800:3",
    "plot --region wedge --start=2,-2 --t=-709:709:3",  # extent ~ 1.6e308
    "plot --L=1e307 --L1=1.5e308",      # frame center overflows
]

_NONFINITE = re.compile(r"nan|inf", re.IGNORECASE)


@pytest.mark.parametrize("command", _RANGE_ERRORS)
def test_exit_range_error(command, capsys):
    # overflow, division by zero and NaN results are domain errors
    assert main(command.split()) == 3
    captured = capsys.readouterr()
    assert not _NONFINITE.search(captured.out)
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


# Orbits that run into the faces and diamonds near the ends of the float
# range: every written value matches the closed form.
_RANGE_EDGES = [
    "plot --start 0.5,-0.5 --t=-1500:1500:5",
    "traj --L 1e-300 --start 1e-301,-1e-301 --t=0:1:3",
    "plot --shade --grid 2 --L 1e200",
    "limits --mode minkowski --start 0.5,-0.5 --t 0:1500:3",
    "limits --mode minkowski --grid 3 --t 0:1500:3",
    "field --grid 3 --L 1e-300",
    "field --grid 3 --L 1e200",
    "traj --L 1e200 --start 1e199,-1e199 --t=0:1:3",
    # pi L overflows, and at 1e308 the start's z_plus - z_minus too
    "field --grid 3 --L 8e307",
    "traj --L 1e308 --start 0.99e308,-0.99e308",
    # 2L overflows, and at 1e-308 2 pi T where a itself fits
    "field --grid 3 --L 1e308",
    "traj --L 1e-308 --start 0.5e-308,-0.5e-308",
    # the wedge start (0, 1e308), whose z+ - z- overflows before it is halved
    "traj --region wedge --start 1e308,-1e308 --t=-0.5:0.5:3",
]


def _near(printed, exact, rel=0.0, slack=0.0):
    """printed lies within half a printed digit, rel*|exact| and slack of exact."""
    exact = float(exact)
    half = 0.5 * 10.0 ** (math.floor(math.log10(abs(exact))) - 12) if exact else 0.0
    return abs(float(printed) - exact) <= half + rel * abs(exact) + slack


def _check_traj(text, L, start):
    mp = mpmath40()
    rho0 = [mp.atanh(mp.mpf(u) / L) for u in start]
    a = abs(mp.sinh(rho0[0] - rho0[1])) / L
    for row in _rows(text):
        for col, u in zip(("z_plus", "z_minus"), start):
            assert _near(row[col], orbit_ref(u, row["t"], L), slack=8 * 2.0 ** -52 * L)
        T = temperature_ref(*(r + mp.mpf(row["t"]) / 2 for r in rho0), L)
        assert _near(row["T"], T, rel=1e-13), (row, T)
        assert _near(row["a"], a, rel=1e-13), (row, a)


def _check_wedge_traj(text, start):
    mp = mpmath40()
    zp, zm = map(mp.mpf, start)
    x0, x1 = (zp + zm) / 2, (zp - zm) / 2
    a = 1 / mp.sqrt(x1 * x1 - x0 * x0)
    for row in _rows(text):
        b0, b1 = wedge_ref(x0, x1, 0.0, row["t"])
        want = {"z_plus": b0 + b1, "z_minus": b0 - b1, "x0": b0, "x1": b1,
                "T": a / (2 * mp.pi), "a": a}
        for col, value in want.items():
            assert _near(row[col], value, rel=8 * EPS), (row, col, value)


def _check_field(text, L, grid):
    # np.linspace(-L + m, L - m, grid), formed at a quarter of the scale,
    # which is exact, so 2L cannot overflow
    axis = 4.0 * np.linspace(0.25 * (-L + 1e-3 * L), 0.25 * (L - 1e-3 * L), grid)
    pairs = [(p, m) for p in axis for m in axis if p >= m]
    rows = _rows(text)
    assert len(rows) == len(pairs)
    for row, (up, um) in zip(rows, pairs):
        want = thermal_ref(up, um, L)
        # The program rounds v = u/L once.  q = 1 - v^2 carries that rounding
        # amplified by 1/q (up to 500 at the faces, |v| = 0.999), and
        # r/L = |v+ - v-|/2 amplified by (|v+| + |v-|)/|v+ - v-| beside the
        # diagonal; T = 1/(pi L sqrt(q+ q-)) and a = (2 (r/L)/sqrt(q+ q-))/L
        # add a few roundings.  The bound of
        # test_thermal_matches_mpmath_up_to_dbl_max.
        vp, vm = up / L, um / L
        qp, qm = 1.0 - vp * vp, 1.0 - vm * vm
        ratio = EPS * (abs(vp) + abs(vm)) / (2.0 * abs(vp - vm)) + EPS if vp != vm else 0.0
        rel = {"beta_plus": 4 * EPS / qp, "beta_minus": 4 * EPS / qm,
               "T": 4 * EPS / min(qp, qm), "ratio": ratio}
        rel["a"] = rel["T"] + ratio + 2 * EPS
        for col, bound in rel.items():
            assert _near(row[col], want[col], rel=bound), (row, col, want[col])


def _check_limits_scan(text, L, r):
    mp = mpmath40()
    rows = _rows(text)
    for row in rows:
        t = mp.mpf(row["t"])
        exact = [orbit_ref(u, t, L) for u in (r, -r)]
        limit = [L * t / 2 + r, L * t / 2 - r]
        for col, value in zip(("exact_plus", "exact_minus", "limit_plus", "limit_minus"),
                              exact + limit):
            assert _near(row[col], value, slack=8 * 2.0 ** -52 * L), (row, col)
        dev = max(abs(e - q) for e, q in zip(exact, limit))
        rel = max(abs(e - q) / max(abs(e), 1e-12 * L) for e, q in zip(exact, limit))
        assert _near(row["abs_dev"], dev, slack=16 * 2.0 ** -52 * L)
        assert _near(row["rel_dev"], rel, rel=1e-13, slack=16 * 2.0 ** -52)
    footer = text.splitlines()[-1]
    assert footer == (f"# max_abs_dev={max((r['abs_dev'] for r in rows), key=float)} "
                      f"max_rel_dev={max((r['rel_dev'] for r in rows), key=float)}")


def _check_regime(text, L, t_max, grid, tol=0.01):
    mp = mpmath40()
    radii = L - L * 10.0 ** np.linspace(0.0, -6.0, grid + 2)[1:-1]
    rows = _rows(text)
    assert len(rows) == grid
    for row, r in zip(rows, radii):
        worst = 0
        for t in np.linspace(0.0, t_max, 33):
            for u, shift in ((r, r), (-r, -r)):
                exact = orbit_ref(u, t, L)
                worst = max(worst, abs(exact - (L * mp.mpf(t) / 2 + shift))
                            / max(abs(exact), 1e-12 * L))
        assert _near(row["r"], r) and _near(row["ratio"], r / L)
        assert _near(row["max_rel_dev"], worst, rel=1e-13), (row, worst)
        assert row["within_tol"] == ("1" if worst <= tol else "0")


def _svg_points(text, tag):
    return [[tuple(map(float, p.split(","))) for p in pts.split()]
            for pts in re.findall(tag + r' points="([^"]*)"', text)]


@pytest.mark.parametrize("command", _RANGE_EDGES)
def test_range_edge_values(command, capsys):
    assert main(command.split()) == 0
    text = capsys.readouterr().out
    assert not _NONFINITE.search(text)
    opts = dict(zip(command.split()[1::2], command.split()[2::2]))
    L = float(opts.get("--L", 1.0))
    sub = command.split()[0]
    if opts.get("--region") == "wedge":
        _check_wedge_traj(text, tuple(map(float, opts["--start"].split(","))))
    elif sub == "traj":
        _check_traj(text, L, tuple(map(float, opts["--start"].split(","))))
    elif sub == "field":
        _check_field(text, L, int(opts["--grid"]))
    elif sub == "limits" and "--grid" in opts:
        _check_regime(text, L, 1500.0, int(opts["--grid"]))
    elif sub == "limits":
        _check_limits_scan(text, L, 0.5)
    elif "--shade" in command:
        # 2 x 2 cells centered at v = +-0.4995: shade sqrt((1-v+^2)(1-v-^2))
        assert text.count('fill="rgb(255,191,191)"') == 4
        assert round(255.0 * (1.0 - 0.4995 ** 2)) == 191
    else:
        # t = -1500, -750 | 0 | 750, 1500: the orbit sits on the bottom
        # corner, at the start (x1, x0) = (0.5, 0), then on the top corner.
        (top, right, bottom, _), = _svg_points(text, "<polygon")
        orbit, = _svg_points(text, "<polyline")
        assert orbit[:2] == [bottom, bottom] and orbit[3:] == [top, top]
        center = (0.5 * (top[0] + bottom[0]), 0.5 * (top[1] + bottom[1]))
        assert orbit[2] == pytest.approx(((center[0] + right[0]) / 2, center[1]),
                                         abs=1e-4)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.floats(-300.0, 300.0), st.integers(5, 9))
def test_field_matches_mpmath_over_the_range_of_L(log_L, grid):
    # L log-uniform in [1e-300, 1e300]: the faces' conditioning, not the
    # grid's digits, sets how close each cell is.
    L = 10.0 ** log_L
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["field", f"--L={L!r}", "--grid", str(grid)]) == 0
    _check_field(out.getvalue(), L, grid)


@st.composite
def _argv(draw):
    """Bounded argv over every subcommand: grid <= 8, <= 16 samples,
    L in [1e-300, 1e300], |t| <= 2000, starts and offsets scaled by L."""
    sub = draw(st.sampled_from(("traj", "field", "limits", "plot")))
    L = 10.0 ** draw(st.floats(-300.0, 300.0))

    def scaled():
        return draw(st.floats(-1.2, 1.2)) * L

    L1 = draw(st.sampled_from((0.0, L, 2.0 * scaled())))
    argv = [sub, f"--L={L!r}", f"--L1={L1!r}"]
    if sub in ("traj", "plot"):
        argv += ["--region", draw(st.sampled_from(("diamond", "wedge")))]
        if draw(st.booleans()):
            argv += [f"--apex={scaled()!r}"]
    if sub != "field":
        # Most draws give a valid range; about one in five swaps min and max
        # and may ask for fewer than two samples, so exit 2 stays covered.
        t_min = draw(st.floats(-2000.0, 1999.0))
        t_max = draw(st.floats(t_min, 2000.0, exclude_min=True))
        if draw(st.integers(0, 4)) == 4:
            t_min, t_max, n = t_max, t_min, draw(st.integers(0, 16))
        else:
            n = draw(st.integers(2, 16))
        argv += [f"--t={t_min!r}:{t_max!r}:{n}"]
        for _ in range(draw(st.integers(0, 2 if sub == "plot" else 1))):
            zp = scaled()
            zm = -zp if sub == "limits" and draw(st.booleans()) else scaled()
            argv += [f"--start={zp!r},{zm!r}"]
    if sub != "traj":
        if sub != "limits" or draw(st.booleans()):
            argv += ["--grid", str(draw(st.integers(0, 8)))]
    if sub == "limits":
        argv += ["--mode", draw(st.sampled_from(("minkowski", "wedge"))),
                 f"--tol={10.0 ** draw(st.floats(-12.0, 1.0))!r}"]
    if sub == "plot":
        if draw(st.booleans()):
            argv += ["--shade"]
        if draw(st.booleans()):
            argv += [f"--hyperbola-w={10.0 ** draw(st.floats(-300.0, 300.0))!r}"]
    else:
        argv += ["--format", draw(st.sampled_from(("csv", "json")))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_fuzz_argv_total(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert not _NONFINITE.search(out.getvalue()), argv


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_fuzz_json_matches_reference(argv):
    # Every draw that writes a table, in JSON: the text kernels' layout
    # against json.dumps over the same columns, byte for byte.
    if argv[0] == "plot":
        return
    argv = [*argv[:-1], "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code == 0:
        assert out.getvalue() == _json_reference_stdout(argv), argv


def _json_reference_stdout(argv):
    """Stdout of main(argv) with the JSON written by emit_json_reference."""
    def emit(*args):
        return [emit_json_reference(*args).encode()]

    out = io.StringIO()
    with mock.patch.object(cli, "_emit", emit), contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def test_large_json_matches_reference(capsys):
    # 80,200 rows, a scan and a regime map with their footer fields.
    for command in ("field --grid 400 --format json",
                    "limits --mode minkowski --start=0.3,-0.3 --t=-8:8:1001 --format json",
                    "limits --mode wedge --L 2 --L1 2 --grid 50 --t 0:3:2 --format json"):
        assert main(command.split()) == 0
        assert capsys.readouterr().out == _json_reference_stdout(command.split())


# Tables of several row blocks: a field, an orbit in JSON, a scan, a regime
# map (its within_tol column is %d), a shaded plot and a long polyline.  Each
# spans at least two blocks of _BLOCK_CELLS cells, which the test sets, so
# that they stay several blocks whatever BLOCK_CELLS is tuned to.
_BLOCK_CELLS = 4096
_BLOCKED = [
    "field --grid 40",
    "field --grid 40 --L 3e-5 --format json",
    "traj --t=-8:8:1001 --start=0.3,-0.3 --format json",
    "limits --mode minkowski --start=0.3,-0.3 --t=-8:8:1001",
    "limits --mode wedge --L1 1 --grid 1100 --t 0:1:3",
    "limits --mode minkowski --grid 1100 --t 0:0.5:3 --format json",
    "plot --shade --grid 30 --start 0.3,-0.3",
    "plot --start 0.5,-0.5 --t=-8:8:5001 --hyperbola-w 0.4",
]


@pytest.mark.parametrize("command", _BLOCKED)
def test_row_blocks_match_per_column_reference(command, capsys, monkeypatch):
    monkeypatch.setattr(_text, "BLOCK_CELLS", _BLOCK_CELLS)
    blocks = []

    def counted(parts, sep):
        chunks = _text.lines(parts, sep)
        blocks.append(len(chunks))
        return chunks

    with mock.patch.object(cli, "lines", counted), mock.patch.object(figures, "lines", counted):
        assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert max(blocks) >= 2
    with (mock.patch.object(cli, "lines", lines_reference),
          mock.patch.object(figures, "lines", lines_reference)):
        assert main(command.split()) == 0
    assert out == capsys.readouterr().out


def test_exit_3_leaves_no_partial_file(tmp_path):
    # The finiteness check and the formatting finish before --out is opened,
    # so a run that exits 3 creates no file and leaves an existing one as it was.
    out, old = tmp_path / "t.json", tmp_path / "old.json"
    old.write_bytes(b'{"kept": true}\n' * 1000)
    for target in (out, old):
        assert main(["traj", "--t=-1500:1500:5", "--format", "json", "--out", str(target)]) == 3
        assert main(["field", "--grid", "3", "--L", "1e-307", "--out", str(target)]) == 3
    assert not out.exists()
    assert old.read_bytes() == b'{"kept": true}\n' * 1000


# --out is rewritten in place: CSV, JSON and SVG, the benchmark's four
# commands among them, each several blocks long.
_REWRITES = ["traj --t=-2:2:41", "traj --t=-8:8:1001 --format json",
             "limits --mode minkowski --start=0.3,-0.3 --t=-8:8:1001",
             "field --grid 100", "field --grid 30 --format json",
             "plot --shade --grid 50 --start 0.3,-0.3"]


@pytest.mark.parametrize("command", _REWRITES)
def test_out_rewritten_in_place(command, tmp_path, capsys):
    assert main(command.split()) == 0
    want = capsys.readouterr().out.encode()
    out = tmp_path / "out"
    for before in (None, b"x" * (len(want) + 5000), b"y" * (len(want) // 3), want[:-1], b""):
        if before is None:
            out.unlink(missing_ok=True)
        else:
            out.write_bytes(before)
        assert main([*command.split(), "--out", str(out)]) == 0
        assert out.read_bytes() == want, (command, None if before is None else len(before))


def test_out_rewrite_keeps_inode_mode_and_links(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"z" * 100_000)
    os.chmod(target, 0o640)
    os.symlink(target, link)
    before = target.stat()
    for out in (target, link):
        assert main(["traj", "--out", str(out)]) == 0
        after = target.stat()
        assert (after.st_ino, after.st_mode, after.st_nlink) == (
            before.st_ino, before.st_mode, before.st_nlink)
    assert link.is_symlink()
    assert target.read_bytes().startswith(b"t,z_plus,z_minus,x0,x1,T,a\n")
    assert after.st_size == len(target.read_bytes()) < 100_000


def test_out_new_file_mode_follows_umask(tmp_path):
    out = tmp_path / "new.csv"
    mask = os.umask(0o027)
    try:
        assert main(["traj", "--out", str(out)]) == 0
    finally:
        os.umask(mask)
    assert out.stat().st_mode & 0o777 == 0o640


def test_out_device_is_not_cut(capsys):
    # Only a regular file is cut to length; a device takes the bytes as they come.
    assert main(["field", "--grid", "30", "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


class _FullDiskWriter(io.BufferedWriter):
    """A writer whose disk fills after the first chunk."""

    def writelines(self, chunks):
        self.write(chunks[0])
        self.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_write_leaves_no_old_bytes(tmp_path, monkeypatch, capsys):
    command = ["traj", "--t=-8:8:1001", "--format", "json"]
    assert main(command) == 0
    want = capsys.readouterr().out.encode()
    out = tmp_path / "t.json"
    out.write_bytes(b"9" * (2 * len(want)))
    monkeypatch.setattr(cli, "open", lambda path, mode, opener: _FullDiskWriter(
        io.FileIO(path, "w", opener=opener)), raising=False)
    assert main([*command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: diamondflow")
    assert f"argument --out: cannot write {out}: {os.strerror(errno.ENOSPC)}" in err
    got = out.read_bytes()
    assert 0 < len(got) < len(want) and got == want[:len(got)]


def test_exit_unwritable_out(tmp_path, capsys):
    # An --out that cannot be opened is an invalid configuration, not a traceback.
    for out, reason in ((tmp_path / "missing" / "x.csv", errno.ENOENT), (tmp_path, errno.EISDIR)):
        assert main(["traj", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: diamondflow")
        assert f"argument --out: cannot write {out}: {os.strerror(reason)}" in captured.err
    assert not (tmp_path / "missing").exists()


def test_closed_stdout_exits_2_without_traceback():
    # A reader that stops early, as `| head -c 10` does: one error line, exit 2.
    proc = subprocess.Popen([sys.executable, "-m", "diamondflow.cli", "field", "--grid", "400"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b"z_plus,z_m"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 2
    assert err == "diamondflow: error: cannot write stdout: Broken pipe\n"


def test_out_of_memory_exits_2_without_traceback(tmp_path, monkeypatch, capsys):
    # A MemoryError while a command computes or formats is one error line and
    # exit 2, and an existing --out keeps its bytes; raised by a patched
    # text kernel, never by exhausting memory.
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "lines", no_memory)
    monkeypatch.setattr(figures, "lines", no_memory)
    out = tmp_path / "old.csv"
    out.write_bytes(b"old bytes\n")
    for command in (["field", "--grid", "8"], ["traj", "--format", "json"], ["plot", "--shade"]):
        assert main([*command, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "diamondflow: error: out of memory\n")
        assert out.read_bytes() == b"old bytes\n"
    assert main(["field", "--grid", "8"]) == 2
    assert capsys.readouterr() == ("", "diamondflow: error: out of memory\n")


def test_negative_zero_written_as_zero(monkeypatch, capsys):
    # -0.0 prints as zero, in a plain and an indexed column, and the caller's
    # arrays keep their -0.0.
    col = np.array([-0.0, 1.5, -0.0])
    index = np.array([1, 0, 2])
    columns = (col, (col, index))
    csv_text = b"".join(cli._emit(("a", "b"), columns, "csv")).decode()
    assert csv_text == ("a,b\n0.000000000000e+00,1.500000000000e+00\n"
                        "1.500000000000e+00,0.000000000000e+00\n"
                        "0.000000000000e+00,0.000000000000e+00\n")
    json_text = b"".join(cli._emit(("a", "b"), columns, "json")).decode()
    assert json_text == ('{"columns":["a","b"],"rows":[{"a":0.0,"b":1.5},{"a":1.5,"b":0.0},'
                         '{"a":0.0,"b":0.0}]}\n')
    assert np.signbit(col).tolist() == [True, False, True]

    sizes, cells = [], _text.cells

    def counted(x, spec):
        sizes.append(np.size(x))
        return cells(x, spec)

    monkeypatch.setattr(_text, "cells", counted)
    # A column of -0.0 alone is one value, formatted once as zero.
    zeros = np.full(3, -0.0)
    assert b"".join(cli._emit(("z",), (zeros,), "csv")) == b"z\n" + b"0.000000000000e+00\n" * 3
    assert sizes == [1] and np.signbit(zeros).all()
    # Two indexed columns that share an array holding -0.0 format it once.
    sizes.clear()
    shared = np.array([2.5, -0.0, -3.0])
    columns = ((shared, np.array([1, 2, 0])), (shared, np.array([0, 1, 1])))
    assert b"".join(cli._emit(("p", "q"), columns, "json")) == (
        b'{"columns":["p","q"],"rows":[{"p":0.0,"q":2.5},{"p":-3.0,"q":0.0},'
        b'{"p":2.5,"q":0.0}]}\n')
    assert sizes == [3] and np.signbit(shared).tolist() == [False, True, True]
    # A non-finite value in any column still exits 3, in CSV and in JSON.
    thermal = cli.thermal

    def nan_T(up, um, L):
        *head, T, a, ratio = thermal(up, um, L)
        T[-1] = np.nan
        return (*head, T, a, ratio)

    monkeypatch.setattr(cli, "thermal", nan_T)
    for fmt in ("csv", "json"):
        assert main(["field", "--grid", "3", "--format", fmt, "--out", os.devnull]) == 3
        assert capsys.readouterr().err == "error: column T has a non-finite value\n"
    with pytest.raises(cli.OutOfRange, match="column b has a non-finite value"):
        cli._emit(("a", "b", "c"), (zeros, np.array([-0.0, np.inf, 1.0]), zeros), "csv")


@pytest.mark.parametrize("grid", [1, 2, 30])
def test_each_distinct_value_formatted_once(grid, monkeypatch):
    # The shade's lattice vertices, its 256 colour levels and field's beta
    # axis go through the text kernels once.
    sizes, cells = {}, _text.cells

    def counted(x, spec):
        sizes[spec] = sizes.get(spec, 0) + np.size(x)
        return cells(x, spec)

    monkeypatch.setattr(_text, "cells", counted)
    assert main(["plot", "--shade", "--grid", str(grid), "--out", os.devnull]) == 0
    # The outline's four vertices add their own 8.
    assert sizes == {"%.4f": 2 * (grid + 1) ** 2 + 8, "%d": 256}
    sizes.clear()
    n = grid + 1
    assert main(["field", "--grid", str(n), "--out", os.devnull]) == 0
    # z+-, T, a and ratio per row, beta+- one value per axis point; a column of
    # one value, T of --grid 2's three symmetric rows, once.
    rows = n * (n + 1) // 2
    assert sizes == {"%.12e": 5 * rows + n - (rows - 1 if n == 2 else 0)}


# The text layer's budget on the benchmark's command shapes: cells calls,
# cells formatted and cells written by Python's `%` (values the kernels leave
# to it, and calls of a few values: plot's outline, traj's constant a).  One
# more call a block, or a repeated value formatted again, fails here.
_BUDGET = [("field --grid 100", 6, 25_350, 6),
           ("field --grid 100 --format json", 6, 25_350, 6),
           ("plot --shade --grid 50", 4, 5_466, 8),
           ("traj --start=0.3,-0.3 --t=-8:8:1001 --format json", 2, 6_007, 4),
           ("limits --mode minkowski --start=0.3,-0.3 --t=-8:8:1001", 1, 7_007, 0),
           ("limits --mode wedge --L1=1 --start=0.3,-0.3 --t=-8:8:1001", 1, 7_007, 5)]


@pytest.mark.parametrize("command, calls, formatted, left", _BUDGET, ids=[b[0] for b in _BUDGET])
def test_text_kernel_budget(command, calls, formatted, left, monkeypatch):
    count = [0, 0, 0]
    cells = _text.cells

    def counted(x, spec):
        count[0] += 1
        count[1] += np.size(x)
        return cells(x, spec)

    def python(fmt):
        def run(v):
            count[2] += 1
            return fmt(v)
        return run

    monkeypatch.setattr(_text, "cells", counted)
    for spec, (kernel, fmt, width) in _text._KERNELS.items():
        monkeypatch.setitem(_text._KERNELS, spec, (kernel, python(fmt), width))
    assert main([*command.split(), "--out", os.devnull]) == 0
    assert count == [calls, formatted, left]


@pytest.mark.parametrize("command", ["field --grid 400", "field --grid 400 --format json",
                                     "plot --shade --grid 200"])
def test_output_peak_memory(command, tmp_path):
    # Rows are formatted in blocks and written as the blocks' bytes, so no
    # full-size copy of the output is made: the peak traced allocation stays
    # within three times the output (it was 5.3 to 6.1 times with copies).
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main([*command.split(), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * out.stat().st_size


# --------------------------------------------------------------- table content

def _rows(text):
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def test_traj_center_row_values():
    text = (GOLDEN / "traj_diamond.csv").read_text()
    rows = _rows(text)
    assert len(rows) == 5
    mid = rows[2]
    assert float(mid["t"]) == 0.0
    assert mid["z_plus"] == "0.000000000000e+00"
    assert abs(float(mid["T"]) - 1.0 / math.pi) < 1e-12


def test_traj_long_orbit_temperature(tmp_path):
    # T is read from the rapidities, so it stays exact where u(t) has
    # rounded onto the faces (|t| >~ 24).
    out = tmp_path / "long.csv"
    assert main(["traj", "--t=-30:30:5", "--out", str(out)]) == 0
    assert main(["traj", "--start=0.3,-0.5", "--t=-60:60:121", "--out", str(out)]) == 0
    _check_traj(out.read_text(), 1.0, (0.3, -0.5))


def test_validate_caps_output_size(capsys):
    # Only parsing and the --shade check run here: a wrong cap must not allocate.
    cap = MAX_OUTPUT_ROWS
    big_field = next(g for g in range(4000, 5000) if g * (g + 1) // 2 > cap)
    big_shade = next(g for g in range(3000, 4000) if g * g > cap)
    parser = _build_parser()

    def check(command):
        _check_shade(parser, parser.parse_args(command.split()))

    ok = [f"traj --t=-2:2:{cap}", f"limits --mode wedge --t=-2:2:{cap}",
          f"limits --mode wedge --grid {cap}", f"field --grid {big_field - 1}",
          f"plot --shade --grid {big_shade - 1}", f"plot --grid {10 * cap}"]
    for command in ok:
        check(command)
    bad = [f"traj --t=-2:2:{cap + 1}", f"plot --grid 1 --t=-2:2:{cap + 1}",
           f"limits --mode wedge --t=-2:2:{cap + 1}", f"limits --mode wedge --grid {cap + 1}",
           f"field --grid {big_field}", "field --grid 100000",
           f"plot --shade --grid {big_shade}"]
    for command in bad:
        with pytest.raises(SystemExit) as exc:
            check(command)
        assert exc.value.code == 2
        assert str(cap) in capsys.readouterr().err, command


@pytest.mark.parametrize("command", [
    "traj --t 1:1.0000000000000002:6",
    "traj --region wedge --t 1:1.0000000000000002:6",
    "plot --start 0.5,-0.5 --t 1:1.0000000000000002:6",
])
def test_orbit_grid_not_increasing(command, capsys):
    # One float step between the ends cannot hold six distinct samples.
    assert main(command.split()) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("small, unit", [
    ("--mode minkowski --L 1e-20 --grid 4 --t 0:0.5:3", "--mode minkowski --L 1 --grid 4 --t 0:0.5:3"),
    ("--mode wedge --L 1e-13 --L1 1e-13 --grid 4 --t 0:1:3",
     "--mode wedge --L 1 --L1 1 --grid 4 --t 0:1:3"),
])
def test_limits_regime_scale_free(small, unit, capsys):
    # The relative-deviation floor is 1e-12 L, so a tiny diamond classifies
    # its starts as the unit diamond does.
    footers = []
    for command in (small, unit):
        assert main(["limits", *command.split()]) == 0
        footers.append(capsys.readouterr().out.splitlines()[-1])
    assert footers[0] == footers[1]
    assert footers[0] in ("# true_cells=0 of 4", "# true_cells=3 of 4")


def test_limits_asymmetric_start_scale_free(capsys):
    for L, start in (("1e-12", "5e-13,0"), ("1", "0.5,0")):
        assert main(["limits", "--mode", "minkowski", "--L", L, f"--start={start}",
                     "--t", "0:1:3"]) == 3


def test_traj_wedge_boost_row(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["traj", "--region", "wedge", "--start", "1,-1",
                 "--t", "0:1:3", "--out", str(out)]) == 0
    rows = _rows(out.read_text())
    last = rows[-1]
    assert abs(float(last["x0"]) - math.sinh(1.0)) < 1e-12
    assert abs(float(last["x1"]) - math.cosh(1.0)) < 1e-12
    assert abs(float(last["T"]) - 1.0 / (2.0 * math.pi)) < 1e-12


def test_traj_wedge_long_orbit_keeps_acceleration(tmp_path):
    # (x1 - apex)^2 - x0^2 cancels to zero at t = 30; a is an orbit constant
    out = tmp_path / "w.csv"
    assert main(["traj", "--region", "wedge", "--start=0.7,-1.3",
                 "--t", "0:30:3", "--out", str(out)]) == 0
    a = 1.0 / math.sqrt(1.0 - 0.3 * 0.3)
    for row in _rows(out.read_text()):
        assert abs(float(row["a"]) - a) < 1e-12
        assert abs(float(row["T"]) - a / (2.0 * math.pi)) < 1e-12


def test_traj_roundtrip_through_library():
    d = DiamondSpec(1.0, 0.0)
    for row in _rows((GOLDEN / "traj_diamond.csv").read_text()):
        z = NullRadialCoords(float(row["z_plus"]), float(row["z_minus"]))
        T = diamond_temperature(z, d).temperature
        a = acceleration_at(z, d)
        assert abs(T - float(row["T"])) <= 1e-12 * T + 1e-12
        assert abs(a - float(row["a"])) <= 1e-12 * max(a, 1.0)


def test_traj_emitted_points_inside_region():
    for row in _rows((GOLDEN / "traj_diamond.csv").read_text()):
        zp, zm = float(row["z_plus"]), float(row["z_minus"])
        r = 0.5 * (zp - zm)
        x0 = 0.5 * (zp + zm)
        assert r + abs(x0) < 1.0


def test_field_center_and_identities():
    rows = _rows((GOLDEN / "field_unit.csv").read_text())
    assert len(rows) == 15
    center = [r for r in rows
              if r["z_plus"] == "0.000000000000e+00"
              and r["z_minus"] == "0.000000000000e+00"]
    assert len(center) == 1
    assert abs(float(center[0]["T"]) - 1.0 / math.pi) < 1e-12
    for row in rows:
        bp, bm = float(row["beta_plus"]), float(row["beta_minus"])
        T = float(row["T"])
        assert abs(T - 1.0 / (2.0 * math.pi * math.sqrt(bp * bm))) <= 1e-12 * T
        ratio = 0.5 * (float(row["z_plus"]) - float(row["z_minus"]))
        assert abs(float(row["ratio"]) - ratio) < 1e-12


def test_golden_field_matches_mpmath():
    # every cell of the golden grid is the correctly rounded closed form
    _check_field((GOLDEN / "field_unit.csv").read_text(), 1.0, 5)


def test_limits_footer_and_headline(tmp_path):
    text = (GOLDEN / "limits_wedge.csv").read_text()
    footer = text.splitlines()[-1]
    assert footer.startswith("# max_abs_dev=")
    assert " max_rel_dev=" in footer
    out = tmp_path / "big.csv"
    assert main(["limits", "--mode", "wedge", "--L", "10000", "--L1", "10000",
                 "--start", "1,-1", "--t", "0:1:41", "--out", str(out)]) == 0
    footer = out.read_text().splitlines()[-1]
    max_rel = float(footer.split("max_rel_dev=")[1])
    assert max_rel < 1e-3


def test_limits_regime_grid(tmp_path):
    out = tmp_path / "regime.csv"
    assert main(["limits", "--mode", "wedge", "--L1", "1", "--grid", "8",
                 "--t", "0:1:21", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,ratio,max_rel_dev,within_tol"
    assert lines[-1].startswith("# true_cells=")
    flags = [row["within_tol"] for row in _rows("\n".join(lines))]
    assert set(flags) <= {"0", "1"}
    first_true = flags.index("1")
    assert all(f == "1" for f in flags[first_true:])


def test_json_mirrors_csv(tmp_path):
    a, b = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(["traj", "--t=-1:1:5", "--out", str(a)]) == 0
    assert main(["traj", "--t=-1:1:5", "--format", "json", "--out", str(b)]) == 0
    doc = json.loads(b.read_text())
    assert doc["columns"] == ["t", "z_plus", "z_minus", "x0", "x1", "T", "a"]
    rows = _rows(a.read_text())
    assert len(doc["rows"]) == len(rows)
    for jrow, crow in zip(doc["rows"], rows):
        for col in doc["columns"]:
            assert jrow[col] == float(crow[col])


def test_plot_outline_only(tmp_path):
    out = tmp_path / "bare.svg"
    assert main(["plot", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg ")
    assert "<polygon" in text
    assert "crimson" not in text
    assert text.rstrip().endswith("</svg>")


def test_plot_shade_colors(tmp_path):
    out = tmp_path / "heat.svg"
    assert main(["plot", "--shade", "--grid", "6", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("rgb(255,") == 36


def test_stdout_default(capsys):
    assert main(["traj", "--t", "0:1:2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("t,z_plus,z_minus,x0,x1,T,a\n")


def _readme_commands():
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # Every command of README's "Command line" block runs as written.
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 7
    for argv in commands:
        assert argv[0] == "diamondflow", argv
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()


# The option strings of each subcommand, besides -h, --help and the --L,
# --L1 and --out that all of them take.
_OPTIONS = {
    "traj": {"--region", "--apex", "--start", "--t", "--format"},
    "field": {"--grid", "--format"},
    "limits": {"--mode", "--start", "--grid", "--t", "--tol", "--format"},
    "plot": {"--region", "--apex", "--start", "--t", "--grid", "--hyperbola-w", "--shade"},
}


def test_subcommand_options_match_readme():
    sub = next(a for a in _build_parser()._actions if a.dest == "subcommand")
    for name, parser in sub.choices.items():
        options = {s for action in parser._actions for s in action.option_strings}
        assert options == _OPTIONS[name] | {"-h", "--help", "--L", "--L1", "--out"}, name
    text = (Path(__file__).parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", text, re.MULTILINE)
    assert {name: set(re.findall(r"--[\w-]+", flags)) for name, flags in rows} == _OPTIONS


def test_console_script_resolves(monkeypatch, capsys):
    # pyproject's [project.scripts] entry, resolved and run as the installed
    # script would run it, without an install
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).parent.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["diamondflow"]
    module, name = target.split(":")
    monkeypatch.setattr(sys, "argv", ["diamondflow", "traj", "--t", "0:1:2"])
    assert getattr(importlib.import_module(module), name)() == 0
    assert capsys.readouterr().out.startswith("t,z_plus,z_minus")


@pytest.mark.skipif(
    not any(os.access(os.path.join(p, "diamondflow"), os.X_OK)
            for p in os.environ.get("PATH", "").split(os.pathsep) if p),
    reason="console script not on PATH")
def test_console_script_entry():
    res = subprocess.run(["diamondflow", "traj", "--t", "0:1:2"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.startswith("t,z_plus,z_minus")
