import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diamondflow.cli import main
from diamondflow.geometry import DiamondSpec, NullRadialCoords
from diamondflow.thermo import acceleration_at, diamond_temperature

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "diamondflow.cli", *args],
                          capture_output=True, text=True)


def test_golden_traj(tmp_path):
    out = tmp_path / "traj.csv"
    res = run_cli("traj", "--region", "diamond", "--t=-2:2:5", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == (GOLDEN / "traj_diamond.csv").read_bytes()


def test_golden_field(tmp_path):
    out = tmp_path / "field.csv"
    res = run_cli("field", "--grid", "5", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == (GOLDEN / "field_unit.csv").read_bytes()


def test_golden_limits(tmp_path):
    out = tmp_path / "limits.csv"
    res = run_cli("limits", "--mode", "wedge", "--L", "100", "--L1", "100",
                  "--start", "1,-1", "--t", "0:1:5", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == (GOLDEN / "limits_wedge.csv").read_bytes()


def test_golden_plot(tmp_path):
    out = tmp_path / "plot.svg"
    res = run_cli("plot", "--L", "1", "--L1", "1.4142135623730951",
                  "--start", "1,-1", "--t=-2:2:101", "--hyperbola-w", "1",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == (GOLDEN / "plot_fig2.svg").read_bytes()


def test_double_run_byte_identical(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (a, b):
        res = run_cli("plot", "--shade", "--grid", "8", "--start", "0.3,-0.3",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------ exit codes

def test_exit_invalid_config(capsys):
    assert main(["traj", "--t", "0:1:1"]) == 2
    assert main(["traj", "--t", "0:0:5"]) == 2
    assert main(["traj", "--start", "nope"]) == 2
    assert main(["field", "--grid", "1"]) == 2
    assert main(["field", "--region", "wedge"]) == 2
    assert main(["plot", "--hyperbola-w", "-1"]) == 2
    capsys.readouterr()


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
    "traj --t=-1500:1500:5",
    "traj --region wedge --t=-1000:1000:5",
    "plot --start 0.5,-0.5 --t=-1500:1500:5",
    "traj --L 1e-300 --start 1e-301,-1e-301 --t=0:1:3",
    "plot --shade --grid 2 --L 1e200",
    "limits --mode minkowski --start 0.5,-0.5 --t 0:1500:3",
    "limits --mode minkowski --grid 3 --t 0:1500:3",
    "field --grid 3 --L 1e-300",
    "field --grid 3 --L 1e200",
    "traj --L 1e200 --start 1e199,-1e199 --t=0:1:3",
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
        t_min, t_max = draw(st.floats(-2000.0, 2000.0)), draw(st.floats(-2000.0, 2000.0))
        argv += [f"--t={t_min!r}:{t_max!r}:{draw(st.integers(0, 16))}"]
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


@pytest.mark.skipif(
    not any(os.access(os.path.join(p, "diamondflow"), os.X_OK)
            for p in os.environ.get("PATH", "").split(os.pathsep) if p),
    reason="console script not on PATH")
def test_console_script_entry():
    res = subprocess.run(["diamondflow", "traj", "--t", "0:1:2"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.startswith("t,z_plus,z_minus")
