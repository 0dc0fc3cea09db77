#!/usr/bin/env python3
"""Benchmark of diamondflow's CLI exports and numerical oracles.

    python3 perfbench/run.py --workload grid-export --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick            # a few operations of every workload

One worker process runs one operation at a time in a closed loop; this
process sends it the next operation only after checking the previous one's
output, so checking never overlaps timing.  The last line of stdout is a
JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics from the wrapped program with
--trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import checks
import specs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_SPAWNS = 7       # set-ups per run; setup_s is their median
MIN_OPS = 100          # latency_ms.p90 needs ten samples beyond it
MAX_RUN_S = 120.0      # a run stops here even below MIN_OPS
QUICK_OPS = 4
REPLY_TIMEOUT_S = 60.0

PER_LAYER = (
    ("cli.parse_s", "s"), ("cli.format_s", "s"), ("cli.write_s", "s"),
    ("cli.bytes_out", "count"),
    ("geometry.calls", "count"), ("geometry.self_s", "s"),
    ("flow.calls", "count"), ("flow.self_s", "s"),
    ("thermo.calls", "count"), ("thermo.self_s", "s"),
    ("limits.self_s", "s"), ("limits.samples", "count"),
    ("figures.self_s", "s"), ("figures.vertices", "count"),
    ("kernels.calls", "count"), ("kernels.self_s", "s"),
    ("kernels.elements", "count"), ("kernels.rk4_steps", "count"),
    ("setup.import_s", "s"),
)


class Worker:
    """One worker process speaking the line protocol of worker.py."""

    def __init__(self, workload, seed, outdir, trace_path=None, setup_only=False):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed), "--outdir", outdir]
        if trace_path:
            cmd += ["--trace", trace_path]
        self.setup_only = setup_only
        if setup_only:
            cmd.append("--setup-only")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, bufsize=1, cwd=ROOT)
        ready = self.read()
        # perf_counter is CLOCK_MONOTONIC, shared by both processes.
        self.setup_s = ready["ready"] - self.spawned
        self.import_s = ready["import_s"]

    def read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise RuntimeError("worker exited or stopped answering")
        return json.loads(line)

    def request(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        return self.read()

    def close(self) -> dict | None:
        """Ends the worker; returns its final reply, or None after set-up only."""
        reply = None if self.setup_only else self.request("quit")
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=REPLY_TIMEOUT_S)
        return reply

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


def _read_outputs(workload, outdir):
    texts = []
    for path in specs.output_paths(workload, outdir):
        with open(path) as fh:
            texts.append(fh.read())
    return texts


def _p90(values):
    # Nearest rank: at least ten samples lie above it when len >= 100.
    return sorted(values)[math.ceil(0.9 * len(values)) - 1]


def run(workload, seed, seconds, trace, quick) -> dict:
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    outdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{tag}.json") if trace else None

    worker = Worker(workload, seed, outdir, trace_path)
    setups, imports = [worker.setup_s], [worker.import_s]

    per_round = specs.ROUND[workload]
    latencies, failed, bytes_out, first_error = [], 0, 0, None
    start = time.perf_counter()
    i = 0
    try:
        while True:
            # The other set-ups are spread over the run, while the worker
            # waits for its next request, so their median spans the host's
            # slow and fast phases as the operations do.
            if (not quick and len(setups) < SETUP_SPAWNS
                    and time.perf_counter() - start >= seconds * len(setups) / SETUP_SPAWNS):
                w = Worker(workload, seed, outdir, setup_only=True)
                w.close()
                setups.append(w.setup_s)
                imports.append(w.import_s)
            for _ in range(per_round):
                reply = worker.request(str(i))
                spec = specs.op_spec(workload, seed, i)
                i += 1
                if reply["failed"]:
                    failed += 1
                    continue
                latencies.append(reply["dt"])
                if workload == "oracle-check":
                    outputs = reply["values"]
                else:
                    outputs = _read_outputs(workload, outdir)
                    bytes_out += sum(len(t.encode()) for t in outputs)
                try:
                    checks.check_op(workload, spec, outputs)
                except checks.CheckError as exc:
                    first_error = first_error or f"operation {i - 1}: {exc}"
            elapsed = time.perf_counter() - start
            if quick:
                if i >= QUICK_OPS:
                    break
            elif (elapsed >= seconds and i >= MIN_OPS) or elapsed >= MAX_RUN_S:
                break
        done = worker.close()
    except BaseException:
        worker.kill()
        raise
    shutil.rmtree(outdir, ignore_errors=True)
    if first_error:
        print(f"{workload}: check failed: {first_error}", file=sys.stderr)

    ok = len(latencies)
    metrics = {}
    if not trace:
        ms = [dt * 1e3 for dt in latencies]
        metrics["latency_ms.p50"] = {"value": statistics.median(ms), "unit": "ms"}
        if ok >= MIN_OPS:
            metrics["latency_ms.p90"] = {"value": _p90(ms), "unit": "ms"}
        metrics["items_per_s"] = {
            "value": specs.items_per_op(workload) * ok / sum(latencies), "unit": "1/s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": done["peak_rss_mb"], "unit": "MB"}
    else:
        layers = done["layers"]
        per_op = max(i, 1)
        for name, unit in PER_LAYER:
            layer, what = name.split(".")
            if name == "setup.import_s":
                value = statistics.median(imports)
            elif name == "cli.bytes_out":
                value = bytes_out / per_op
            elif layer == "cli":
                value = layers["cli"][what] / per_op
            elif what == "self_s":
                value = layers["self_s"].get(layer, 0.0) / per_op
            elif what == "calls":
                value = layers["calls"].get(layer, 0) / per_op
            else:
                value = layers["counts"][name] / per_op
            metrics[name] = {"value": value, "unit": unit}
    result = {"correct": first_error is None, "attempted": i, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({**result, "latency_ms": [dt * 1e3 for dt in latencies],
                   "setup_s": setups}, fh)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help=f"run {QUICK_OPS} operations of each workload (or of --workload)")
    args = ap.parse_args()
    if args.workload is None and not args.quick:
        ap.error("--workload is required without --quick")
    if not os.path.isfile(os.path.join(ROOT, "src", "diamondflow", "cli.py")):
        print(f"error: no diamondflow sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(specs.WORKLOADS)
    results = [run(w, args.seed, args.seconds, bool(args.trace), args.quick)
               for w in workloads]
    if len(results) == 1:
        print(json.dumps(results[0]))
        return 0
    for w, res in zip(workloads, results):
        print(f"{w}: {json.dumps(res)}")
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
