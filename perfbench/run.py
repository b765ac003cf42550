"""channelflow benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload forced64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run starts fresh worker processes one after another (never two at
once), each with every thread pool pinned to one thread.  With ``--trace 0``
the end-to-end metrics come from untraced workers; with ``--trace 1`` one
worker times untraced operations, then installs span wrappers and reports
the per-layer metrics of traced ones.  Every operation's outputs are gated
for correctness.  The human-readable report goes first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record, with the environment and the
output fingerprint, is written to ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and metrics.

This script imports nothing outside the standard library: the package is
imported only inside the workers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")

WORKLOADS = ("forced64", "diag32_restart", "inequalities32", "identity32")

#: fresh processes per untraced run that time the set-up only; the
#: measuring worker adds one more set-up sample
SETUP_ONLY_WORKERS = 2
#: a run must end within this many seconds
DEADLINE_S = 170.0

PINNED_THREADS = {"CHANNELFLOW_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_commit() -> str:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def environment(versions: dict) -> dict:
    return {"python": platform.python_version(), **versions,
            "threads": dict(PINNED_THREADS), "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_commit": git_commit()}


def run_worker(workload: str, seed: int, seconds: float, mode: str, index: int,
               deadline: float) -> dict:
    result = os.path.join(OUT_DIR, f"worker_{workload}_{mode}_{index}.json")
    work = os.path.join(OUT_DIR, f"work_{workload}_{index}")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--result", result, "--work-dir", work]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED_THREADS},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    with open(result) as fh:
        out = json.load(fh)
    os.unlink(result)
    return out


def tail(values: list[float]) -> str:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p}={q:.6g}"
    return "tail: n<20"


def stat(unit: str, values: list[float]) -> dict:
    """Median of the samples, with count, tail and the samples themselves."""
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "tail": tail(values), "samples": values}


def summarize_untraced(workers: list[dict]) -> tuple[dict[str, dict], dict[str, dict]]:
    """(gated end-to-end metrics, wall-clock figures reported alongside).

    The first worker measures; every worker contributes a set-up sample.
    """
    main = workers[0]
    units, unit = main["units"], main["unit"]
    walls = main["untraced"]["walls"]
    metrics = {
        "setup_s": stat("s", [wk["setup_s"] for wk in workers]),
        "cpu_ms_per_op": stat("ms", [1e3 * c / units for c in main["untraced"]["cpus"]]),
        "peak_rss_mb": stat("MB", [main["peak_rss_mb"]]),
    }
    wall = {"wall_s": stat("s", walls),
            f"ms_per_{unit}": stat("ms", [1e3 * w / units for w in walls])}
    return metrics, wall


PER_LAYER_UNITS = {"calls": "count", "self_ms": "ms"}
PER_LAYER_SPECIAL = {"fields.transform_mb_computed": "MB", "io.checkpoint_bytes": "bytes",
                     "solver.pressure_useful_ratio": "1"}


def summarize_traced(worker: dict) -> dict[str, dict]:
    """Per-layer metrics: medians over traced operations, per operation."""
    layers = worker["traced"]["layers"]
    out = {}
    for name in layers[0]:
        if name == "op_ms":
            continue
        unit = PER_LAYER_SPECIAL.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[1]]
        out[name] = {"value": statistics.median(lay[name] for lay in layers), "unit": unit,
                     "n": len(layers)}
    traced = statistics.median(worker["traced"]["cpus"])
    untraced = statistics.median(worker["untraced"]["cpus"])
    out["trace_overhead_ratio"] = {"value": traced / untraced - 1.0, "unit": "1",
                                   "n": len(layers), "untraced_cpu_s": worker["untraced"]["cpus"],
                                   "traced_cpu_s": worker["traced"]["cpus"]}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        workers = [run_worker(workload, seed, seconds, "traced", 0, deadline)]
    else:
        workers = [run_worker(workload, seed, seconds if i == 0 else 0.0, "untraced", i,
                              deadline) for i in range(1 + SETUP_ONLY_WORKERS)]
    phases = [wk[k] for wk in workers for k in ("warmup", "untraced", "traced") if k in wk]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    checks = [e for wk in workers for e in wk.get("span_check", [])]
    metrics, wall = (summarize_traced(workers[0]), {}) if trace else summarize_untraced(workers)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "op_unit": workers[0]["unit"], "units_per_op": workers[0]["units"],
        "correct": failed == 0 and not checks, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "failures": failures[:20], "span_check": checks,
        "fingerprint": workers[0]["untraced"]["fingerprint"],
        "environment": environment(workers[0]["versions"]), "metrics": metrics,
        "wall_clock": wall,
    }


def report(rec: dict) -> None:
    print(f"== {rec['workload']}  seed={rec['seed']}  seconds={rec['seconds']}  "
          f"trace={rec['trace']}  (one op = {rec['units_per_op']} {rec['op_unit']}s)")
    env = rec["environment"]
    print(f"   env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"threads {env['threads']}, nproc {env['nproc']}, commit {env['git_commit']}")
    for label, table in (("", rec["metrics"]), ("not gated: ", rec["wall_clock"])):
        for name, m in table.items():
            extra = f"  (median of n={m['n']}" + (f", {m['tail']})" if "tail" in m else ")")
            print(f"   {label + name:<44s} {m['value']:>14.6g} {m['unit']:<6s}{extra}")
    print(f"   failed_ratio {rec['failed_ratio']!r} ({rec['failed']} of {rec['attempted']})")
    for key, val in rec["fingerprint"].items():
        print(f"   fingerprint {key} = {val}")
    for msg in rec["failures"] + rec["span_check"]:
        print(f"   FAILURE: {msg}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "channelflow", "__init__.py")):
        print(f"error: no channelflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    seed = args.seed % 2**31  # the package's generators take non-negative seeds
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            rec = run_workload(name, seed, args.seconds, bool(args.trace))
            path = os.path.join(OUT_DIR, f"BENCH_{name}_seed{seed}_trace{args.trace}.json")
            with open(path, "w") as fh:
                json.dump(rec, fh, indent=2)
            report(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): {"value": m["value"],
                                                                 "unit": m["unit"]}
                    for r in records for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
