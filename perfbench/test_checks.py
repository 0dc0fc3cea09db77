"""The benchmark's checks accept today's outputs and reject perturbed ones.

    python3 -m pytest -q perfbench/test_checks.py
"""

import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import diamondflow  # noqa: E402
import diamondflow.cli  # noqa: E402

import checks  # noqa: E402
import specs  # noqa: E402
import worker  # noqa: E402


def _outputs(workload, i, outdir):
    spec = specs.op_spec(workload, 7, i)
    if workload == "oracle-check":
        return spec, worker._oracle_op(diamondflow)(spec)
    rcs = worker._grid_or_orbit_op(diamondflow.cli, workload, str(outdir))(spec)
    assert rcs == [0, 0]
    texts = []
    for path in specs.output_paths(workload, str(outdir)):
        with open(path) as fh:
            texts.append(fh.read())
    return spec, texts


def _bump_digit(line, field, position):
    """Change one digit of the mantissa of one comma-separated field."""
    cells = line.split(",")
    cell = cells[field]
    k = [m.start() for m in re.finditer(r"\d", cell)][position]
    cells[field] = cell[:k] + str((int(cell[k]) + 3) % 10) + cell[k + 1:]
    return ",".join(cells)


def _rejects(workload, spec, outputs):
    with pytest.raises(checks.CheckError):
        checks.check_op(workload, spec, outputs)


@pytest.mark.parametrize("workload,i", [(w, i) for w in specs.WORKLOADS for i in (0, 1)])
def test_accepts_todays_outputs(workload, i, tmp_path):
    spec, outputs = _outputs(workload, i, tmp_path)
    checks.check_op(workload, spec, outputs)


@pytest.mark.parametrize("column", range(len(specs.FIELD_COLS)))
def test_grid_rejects_one_csv_digit(column, tmp_path):
    spec, (csv, svg) = _outputs("grid-export", 0, tmp_path)
    lines = csv.split("\n")
    lines[1234] = _bump_digit(lines[1234], column, 6)
    _rejects("grid-export", spec, ["\n".join(lines), svg])


def test_grid_rejects_missing_row(tmp_path):
    spec, (csv, svg) = _outputs("grid-export", 0, tmp_path)
    lines = csv.split("\n")
    del lines[10]
    _rejects("grid-export", spec, ["\n".join(lines), svg])


def test_grid_rejects_dropped_shade_polygon(tmp_path):
    spec, (csv, svg) = _outputs("grid-export", 0, tmp_path)
    lines = svg.split("\n")
    k = next(n for n, line in enumerate(lines) if 'fill="rgb(' in line)
    del lines[k]
    _rejects("grid-export", spec, [csv, "\n".join(lines)])


def test_grid_rejects_wrong_shade_and_broken_xml(tmp_path):
    spec, (csv, svg) = _outputs("grid-export", 0, tmp_path)
    fill = re.search(r'fill="rgb\(255,(\d+),\d+\)"', svg)
    g = int(fill.group(1))
    wrong = svg.replace(fill.group(0), f'fill="rgb(255,{(g + 2) % 256},{g})"', 1)
    _rejects("grid-export", spec, [csv, wrong])
    _rejects("grid-export", spec, [csv, svg.replace("</svg>", "")])


@pytest.mark.parametrize("column", ["z_plus", "z_minus", "x1", "T", "a"])
def test_orbit_rejects_perturbed_sample(column, tmp_path):
    spec, (traj, limits) = _outputs("orbit-export", 1, tmp_path)
    target = f'"{column}":'
    k = [m.end() for m in re.finditer(re.escape(target), traj)][600]
    end = re.search(r"[,}]", traj[k:]).start() + k
    value = float(traj[k:end])
    traj = traj[:k] + repr(value * (1 + 1e-9) + 1e-12) + traj[end:]
    _rejects("orbit-export", spec, [traj, limits])


def test_orbit_rejects_limits_changes(tmp_path):
    spec, (traj, limits) = _outputs("orbit-export", 0, tmp_path)
    lines = limits.split("\n")
    footer = lines[-2]
    lines[-2] = footer.replace("max_abs_dev=", "max_abs_dev=1")
    _rejects("orbit-export", spec, [traj, "\n".join(lines)])
    lines = limits.split("\n")
    lines[500] = _bump_digit(lines[500], 1, 8)
    _rejects("orbit-export", spec, [traj, "\n".join(lines)])
    lines = limits.split("\n")
    lines[300] = _bump_digit(lines[300], 3, 5)
    _rejects("orbit-export", spec, [traj, "\n".join(lines)])


@pytest.mark.parametrize("index", [2, 3, 4, 5, 10, 11, 12, 13])
def test_oracle_rejects_moved_rk4_endpoint(index, tmp_path):
    spec, values = _outputs("oracle-check", 0, tmp_path)
    for sign in (1.0, -1.0):
        moved = list(values)
        moved[index] += sign * 1e-6
        _rejects("oracle-check", spec, moved)


def test_oracle_rejects_wrong_acceleration(tmp_path):
    spec, values = _outputs("oracle-check", 0, tmp_path)
    for index in (6, 7, 14):
        moved = list(values)
        moved[index] *= 1 + 1e-3
        _rejects("oracle-check", spec, moved)
