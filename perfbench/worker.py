"""Worker process: imports the program from src/ and runs one operation per request.

Protocol (one JSON object per line): after set-up the worker writes
{"ready": t, "import_s": s}, where t is its perf_counter reading just before
the first timed operation.  Each request line "i" runs operation i and is
answered with {"i", "dt", "failed"} plus, for oracle-check, the "values" to
check.  The line "quit" is answered with the peak resident memory and, in a
traced run, the per-layer totals.  The program is reached only through
diamondflow.cli.main and names in diamondflow.__all__.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import specs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _grid_or_orbit_op(cli, workload, outdir):
    def op(spec):
        return [cli.main(argv) for argv in specs.cli_argvs(workload, spec, outdir)]
    return op


def _oracle_op(df):
    n = specs.RK4_STEPS

    def op(spec):
        # The start is built from centred null coordinates u+ >= u- by
        # hand: x1 = L1 + (u+ - u-)/2, z_pm = x0 +- |x1|.
        up, um, L1 = spec["u_plus"], spec["u_minus"], spec["L1"]
        x0 = 0.5 * (up + um)
        x1 = L1 + 0.5 * (up - um)
        d = df.DiamondSpec(spec["L"], L1)
        z = df.NullRadialCoords(x0 + abs(x1), x0 - abs(x1),
                                (-1.0 if x1 < 0.0 else 1.0, 0.0, 0.0))
        t = spec["t"]
        exact = df.diamond_flow(z, t, d)
        coarse = df.integrate_flow_rk4(z, t, n, d)
        fine = df.integrate_flow_rk4(z, t, 2 * n, d)
        numeric = df.proper_acceleration(z, d)
        closed = df.acceleration_at(z, d)

        w = df.WedgeSpec(spec["apex"])
        p = df.SpacetimePoint(spec["x0"], spec["apex"] + spec["rel"])
        tw = spec["tw"]
        w_exact = df.wedge_flow(p, tw, w)
        w_coarse = df.integrate_flow_rk4(p, tw, n, w)
        w_fine = df.integrate_flow_rk4(p, tw, 2 * n, w)
        w_numeric = df.proper_acceleration(p, w)
        return [exact.z_plus, exact.z_minus, coarse.z_plus, coarse.z_minus,
                fine.z_plus, fine.z_minus, numeric, closed,
                w_exact.x0, w_exact.x1, w_coarse.x0, w_coarse.x1,
                w_fine.x0, w_fine.x1, w_numeric]
    return op


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--trace", default=None, metavar="PATH")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # Requests and replies use the original stdout; anything the program
    # prints goes to stderr.
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = sys.stderr

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import diamondflow.cli
    import_s = time.perf_counter() - t0
    import diamondflow as df
    if not os.path.abspath(df.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"diamondflow was imported from {df.__file__}, not {SRC}")

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(df)

    if args.workload == "oracle-check":
        op = _oracle_op(df)
    else:
        op = _grid_or_orbit_op(diamondflow.cli, args.workload, args.outdir)
    specs.op_spec(args.workload, args.seed, 0)  # building the first input is set-up
    proto.write(json.dumps({"ready": time.perf_counter(), "import_s": import_s}) + "\n")
    if args.setup_only:
        return 0

    for line in sys.stdin:
        line = line.strip()
        if line == "quit":
            break
        i = int(line)
        spec = specs.op_spec(args.workload, args.seed, i)
        frame = tracer.begin_op(i) if tracer else None
        start = time.perf_counter()
        try:
            result = op(spec)
        except Exception:
            traceback.print_exc()
            result = None
        dt = time.perf_counter() - start
        if tracer:
            tracer.end_op(frame)
        # A CLI operation fails when either command exits non-zero.
        failed = result is None or (args.workload != "oracle-check" and any(result))
        reply = {"i": i, "dt": dt, "failed": failed}
        if not failed and args.workload == "oracle-check":
            reply["values"] = result
        proto.write(json.dumps(reply) + "\n")

    done = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        done["layers"] = tracer.totals()
        tracer.write(args.trace)
    proto.write(json.dumps(done) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
