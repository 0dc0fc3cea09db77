"""Seeded inputs of the three workloads.

The input of operation i is a pure function of (workload, seed, i), so the
same seed gives the same inputs and the parent process can rebuild what the
worker ran.  Within a workload every operation does the same amount of work:
only the diamond, the start and the modular parameter vary, never a grid
size, a sample count or a step count.  Nothing here imports diamondflow.
"""

from __future__ import annotations

import math
import os
import random

WORKLOADS = ("grid-export", "orbit-export", "oracle-check")

# Operations per round.  orbit-export alternates a centred minkowski scan
# with a corner-anchored wedge scan, so a run always holds both equally.
ROUND = {"grid-export": 1, "orbit-export": 2, "oracle-check": 1}

FIELD_GRID = 100       # `field --grid`: G(G+1)/2 = 5050 rows per operation
SHADE_GRID = 50        # `plot --shade --grid`: 2500 heat-map cells
FIELD_MARGIN = 1e-3    # both grids stop FIELD_MARGIN * L short of the faces

# |t| <= 8: from the start (0.3, -0.5) today's u-coordinate flow is within
# 1.3e-13 of mpmath in T at t = 8, drifts to 2.4e-10 at t = 16 and 3.4e-8
# at t = 20, and raises OutOfRegion from t ~ 20.8-23.7.
ORBIT_T = 8.0
ORBIT_SAMPLES = 1001

# RK4 at RK4_STEPS and 2 * RK4_STEPS.  The |t| ranges keep the error at
# RK4_STEPS between ~5e-12 and ~5e-10 of the orbit's scale: far above
# rounding, so the 16x fall of a fourth-order method shows, and far below
# 1e-6, so an endpoint moved by 1e-6 cannot pass.
RK4_STEPS = 256
DIAMOND_T = (4.0, 8.0)
WEDGE_T = (2.0, 3.0)

TRAJ_COLS = ("t", "z_plus", "z_minus", "x0", "x1", "T", "a")
FIELD_COLS = ("z_plus", "z_minus", "beta_plus", "beta_minus", "T", "a", "ratio")
SCAN_COLS = ("t", "exact_plus", "exact_minus", "limit_plus", "limit_minus",
             "abs_dev", "rel_dev")


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _signed(rng: random.Random, span: tuple[float, float]) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(*span)


def op_spec(workload: str, seed: int, i: int) -> dict:
    """Parameters of operation i; plain floats that survive a JSON round trip."""
    rng = _rng(workload, seed, i)
    if workload == "grid-export":
        L = _log_uniform(rng, 0.25, 4.0)
        return {"L": L, "L1": rng.uniform(-2.0, 2.0) * L}
    if workload == "orbit-export":
        L = _log_uniform(rng, 0.25, 4.0)
        mode = ("minkowski", "wedge")[i % 2]
        # The start (r, -r) sits at |u|/L in [0.1, 0.9] in centred
        # coordinates for both modes; the wedge diamond has its left
        # corner at the origin (L1 = L).
        return {"mode": mode, "L": L, "L1": 0.0 if mode == "minkowski" else L,
                "r": rng.uniform(0.1, 0.9) * L}
    if workload == "oracle-check":
        L = _log_uniform(rng, 0.5, 2.0)
        while True:
            vp, vm = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
            # The finite-difference acceleration needs a non-geodesic orbit.
            if abs(vp - vm) >= 0.1:
                break
        rel = rng.uniform(0.5, 2.0)
        return {"L": L, "L1": rng.uniform(-1.0, 1.0) * L,
                "u_plus": max(vp, vm) * L, "u_minus": min(vp, vm) * L,
                "t": _signed(rng, DIAMOND_T),
                "apex": rng.uniform(-1.0, 1.0), "x0": rng.uniform(-0.8, 0.8) * rel,
                "rel": rel, "tw": _signed(rng, WEDGE_T)}
    raise ValueError(f"unknown workload {workload!r}")


def items_per_op(workload: str) -> int:
    """Output rows and heat-map cells, or oracle comparisons, per operation."""
    if workload == "grid-export":
        return FIELD_GRID * (FIELD_GRID + 1) // 2 + SHADE_GRID * SHADE_GRID
    if workload == "orbit-export":
        return 2 * ORBIT_SAMPLES
    return 6


def output_paths(workload: str, outdir: str) -> tuple[str, ...]:
    if workload == "grid-export":
        return os.path.join(outdir, "field.csv"), os.path.join(outdir, "heat.svg")
    if workload == "orbit-export":
        return os.path.join(outdir, "traj.json"), os.path.join(outdir, "limits.csv")
    return ()


def cli_argvs(workload: str, spec: dict, outdir: str) -> list[list[str]]:
    """The `diamondflow` command lines of one operation (none for oracle-check)."""
    paths = output_paths(workload, outdir)
    size = ["--L", repr(spec["L"]), f"--L1={spec['L1']!r}"]
    if workload == "grid-export":
        return [["field", *size, "--grid", str(FIELD_GRID), "--out", paths[0]],
                ["plot", "--shade", *size, "--grid", str(SHADE_GRID),
                 "--out", paths[1]]]
    if workload == "orbit-export":
        start = f"--start={spec['r']!r},{-spec['r']!r}"
        trange = f"--t={-ORBIT_T!r}:{ORBIT_T!r}:{ORBIT_SAMPLES}"
        return [["traj", *size, start, trange, "--format", "json", "--out", paths[0]],
                ["limits", "--mode", spec["mode"], *size, start, trange,
                 "--out", paths[1]]]
    return []
