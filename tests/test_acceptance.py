"""End-to-end acceptance checks, one numbered pass/fail line per area.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
Tolerances are the contract; nothing here is tuned to the implementation.
"""

import math
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from diamondflow.flow import (
    diamond_flow,
    integrate_flow_rk4,
    proper_acceleration,
    wedge_flow,
)
from diamondflow.geometry import (
    DiamondSpec,
    NullRadialCoords,
    SpacetimePoint,
    WedgeSpec,
    diamond_to_wedge,
    from_null,
    null_from_centered,
    wedge_to_diamond,
)
from diamondflow.limits import deviation_scan
from diamondflow.thermo import (
    acceleration_at,
    agreement_window,
    beta_field,
    diamond_temperature,
    radius_along_flow,
    temperature_ratio,
    wedge_temperature,
)
from _helpers import interior_pairs

UNIT = DiamondSpec(1.0, 0.0)
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def _report(num, name):
    try:
        yield
    except AssertionError:
        print(f"[acceptance {num:02d}] {name}: FAIL")
        raise
    print(f"[acceptance {num:02d}] {name}: PASS")


def test_01_unruh_normalization():
    with _report(1, "unruh normalization"):
        assert wedge_temperature(1.0) == 1.0 / (2.0 * math.pi)
        w = WedgeSpec(0.0)
        x = SpacetimePoint(0.0, 1.0)
        for t in np.linspace(-3.0, 3.0, 61):
            p = wedge_flow(x, float(t), w)
            assert abs(p.x1 * p.x1 - p.x0 * p.x0 - 1.0) <= 1e-12


def test_02_conjugation():
    with _report(2, "wedge-diamond conjugation"):
        rng = np.random.default_rng(101)
        pairs = interior_pairs(rng, 1000, cap=0.98)
        ts = rng.uniform(-2.0, 2.0, 1000)
        worst = 0.0
        for (up, um), t in zip(pairs, ts):
            z = NullRadialCoords(up, um)
            direct = from_null(diamond_flow(z, float(t), UNIT))
            y = diamond_to_wedge(from_null(z), UNIT)
            yb = wedge_flow(y, float(t), WedgeSpec(0.0))
            conj = wedge_to_diamond(yb, UNIT)
            err = max(abs(direct.x0 - conj.x0), abs(direct.x1 - conj.x1),
                      abs(direct.x2 - conj.x2), abs(direct.x3 - conj.x3))
            worst = max(worst, err)
        assert worst <= 1e-9


def test_03_center_orbit():
    with _report(3, "center orbit and rk4 oracle"):
        for t in np.linspace(-6.0, 6.0, 49):
            zt = diamond_flow(NullRadialCoords(0.0, 0.0), float(t), UNIT)
            want = math.tanh(0.5 * t)
            assert abs(zt.z_plus - want) <= 1e-12
            assert abs(zt.z_minus - want) <= 1e-12
        rk = integrate_flow_rk4(NullRadialCoords(0.0, 0.0), 1.0, 1000, UNIT)
        assert abs(rk.z_plus - math.tanh(0.5)) <= 1e-10
        z0 = NullRadialCoords(0.3, -0.5)
        rk = integrate_flow_rk4(z0, 1.0, 1000, UNIT)
        exact = diamond_flow(z0, 1.0, UNIT)
        assert abs(rk.z_plus - exact.z_plus) <= 1e-10
        assert abs(rk.z_minus - exact.z_minus) <= 1e-10


def test_04_temperature_field():
    with _report(4, "temperature field"):
        for L in (1.0, 10.0, 1e3):
            d = DiamondSpec(L, 0.0)
            T = diamond_temperature(NullRadialCoords(0.0, 0.0), d).temperature
            assert abs(T - 1.0 / (math.pi * L)) <= 1e-12 / L
        rng = np.random.default_rng(102)
        for up, um in interior_pairs(rng, 300, cap=0.95):
            s = diamond_temperature(NullRadialCoords(up, um), UNIT)
            assert abs(s.temperature - 1.0 / (2.0 * math.pi * s.beta_norm)) \
                <= 1e-12 * s.temperature


def test_05_tangency():
    with _report(5, "beta tangent to the flow"):
        rng = np.random.default_rng(103)
        h = 1e-5
        for up, um in interior_pairs(rng, 1000, cap=0.9):
            z = NullRadialCoords(up, um)
            bp, bm = beta_field(z, UNIT)
            zf = diamond_flow(z, h, UNIT)
            zb = diamond_flow(z, -h, UNIT)
            fd_p = (zf.z_plus - zb.z_plus) / (2.0 * h)
            fd_m = (zf.z_minus - zb.z_minus) / (2.0 * h)
            assert abs(fd_p - bp) <= 1e-6 * max(abs(bp), 1e-3)
            assert abs(fd_m - bm) <= 1e-6 * max(abs(bm), 1e-3)


def test_06_acceleration():
    with _report(6, "acceleration closed form and oracle"):
        z = NullRadialCoords(0.6, -0.6)
        a = acceleration_at(z, UNIT)
        assert abs(a - 1.875) <= 1e-12
        num = proper_acceleration(z, UNIT)
        assert abs(num - a) <= 1e-3 * a
        for up, um in ((0.4, -0.4), (0.5, -0.1), (0.7, 0.1)):
            z0 = NullRadialCoords(up, um)
            a0 = acceleration_at(z0, UNIT)
            for t in np.linspace(-2.0, 2.0, 9):
                at = acceleration_at(diamond_flow(z0, float(t), UNIT), UNIT)
                assert abs(at - a0) <= 1e-3 * max(a0, 1.0)


def test_07_ratio_identity():
    with _report(7, "wedge-to-diamond temperature ratio"):
        rng = np.random.default_rng(104)
        specs = (UNIT, DiamondSpec(2.5, 0.0), DiamondSpec(1.0, 3.0),
                 DiamondSpec(0.7, -1.2))
        for d in specs:
            for up, um in interior_pairs(rng, 250, size=d.size_L, cap=0.9):
                if up == um:
                    continue
                zg = null_from_centered(up, um, (1.0, 0.0, 0.0), d)
                a = acceleration_at(zg, d)
                T_O = diamond_temperature(zg, d).temperature
                lhs = wedge_temperature(a) / T_O
                rhs = temperature_ratio(zg, d)
                assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-6)


def test_08_radius_along_flow():
    with _report(8, "radius along the flow"):
        r = radius_along_flow(0.5, 1.0, 1.0)
        assert abs(r - 0.41540) <= 1e-5
        z0 = NullRadialCoords(0.5, -0.5)
        for t in np.linspace(-3.0, 3.0, 25):
            zt = diamond_flow(z0, float(t), UNIT)
            want = 0.5 * (zt.z_plus - zt.z_minus)
            assert abs(radius_along_flow(0.5, float(t), 1.0) - want) <= 1e-12


def test_09_limit_scans():
    with _report(9, "minkowski and wedge limit scans"):
        rep = deviation_scan("minkowski", NullRadialCoords(1.0, -1.0),
                             DiamondSpec(1e6, 0.0), 0.0, 1e-3, 41)
        assert rep.max_rel_dev < 1e-3
        rep = deviation_scan("wedge", NullRadialCoords(1.0, -1.0),
                             DiamondSpec(1e4, 1e4), 0.0, 1.0, 41)
        assert rep.max_rel_dev < 1e-3
        mink = [deviation_scan("minkowski", NullRadialCoords(1.0, -1.0),
                               DiamondSpec(L, 0.0), 0.0, 1e-4, 33).max_rel_dev
                for L in (1e2, 1e3, 1e4)]
        wedge = [deviation_scan("wedge", NullRadialCoords(1.0, -1.0),
                                DiamondSpec(L, L), 0.0, 1.0, 41).max_rel_dev
                 for L in (1e2, 1e3, 1e4)]
        assert mink[0] > mink[1] > mink[2]
        assert wedge[0] > wedge[1] > wedge[2]


def test_10_agreement_window():
    with _report(10, "temperature agreement window"):
        delta = 1e-4
        r0 = 1.0 - delta
        t_star = agreement_window(delta, 1.0, 0.01)
        assert abs(t_star - 2.0 * math.asinh(10.0)) <= 1e-12
        z = NullRadialCoords(r0, -r0)
        for t in np.linspace(0.0, t_star, 40):
            assert temperature_ratio(diamond_flow(z, float(t), UNIT), UNIT) >= 0.98
        zt = diamond_flow(z, 3.0 * t_star, UNIT)
        assert 0.5 * (zt.z_plus - zt.z_minus) < 0.5


def test_11_fig2_coincidence():
    with _report(11, "translated-orbit hyperbola coincidence"):
        d = DiamondSpec(1.0, math.sqrt(2.0))
        z = NullRadialCoords(1.0, -1.0)
        for t in np.linspace(-2.0, 2.0, 81):
            p = from_null(diamond_flow(z, float(t), d))
            assert abs(p.x1 * p.x1 - p.x0 * p.x0 - 1.0) <= 1e-9


def test_12_cli_determinism(tmp_path):
    with _report(12, "cli golden determinism"):
        configs = [
            ("traj_diamond.csv",
             ["traj", "--region", "diamond", "--t=-2:2:5"]),
            ("field_unit.csv", ["field", "--grid", "5"]),
            ("limits_wedge.csv",
             ["limits", "--mode", "wedge", "--L", "100", "--L1", "100",
              "--start", "1,-1", "--t", "0:1:5"]),
            ("plot_fig2.svg",
             ["plot", "--L", "1", "--L1", "1.4142135623730951",
              "--start", "1,-1", "--t=-2:2:101", "--hyperbola-w", "1"]),
        ]
        for fname, args in configs:
            out = tmp_path / fname
            res = subprocess.run(
                [sys.executable, "-m", "diamondflow.cli", *args,
                 "--out", str(out)],
                capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            assert out.read_bytes() == (GOLDEN / fname).read_bytes()
