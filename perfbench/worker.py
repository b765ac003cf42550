"""One benchmark worker process: import the package, build a workload's
inputs from the seed, run its operation for a time budget, gate every
operation's outputs, and write the measurements as JSON.

The orchestrator (``run.py``) starts each worker in a fresh process with
every thread pool pinned to one thread.  Workloads reach the program only
through its public entry points (``channelflow.cli.main`` verbs and
``monitor.check_identity_avg_nonlinear``); the program sees only the
configs and states generated here.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode untraced|traced --result out.json --work-dir DIR
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # before any package import: set-up includes it

import argparse
import json
import math
import os
import resource
import shutil
import sys
from dataclasses import dataclass, field, replace
from typing import ClassVar

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

#: the diagnostics CSV columns that describe the state itself; the last two
#: (criterion_accum, energy_residual) are per-segment accumulators and start
#: again at 0 on a restarted segment
STATE_COLUMNS = 10
DIVERGENCE_TOL = 1e-11
IDENTITY_TOL = 1e-10
INEQUALITY_ROWS_PER_FIELD = 7


def import_package():
    """Import the package from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, SRC_DIR)
    import channelflow
    from channelflow import cli, io, monitor, solver  # noqa: F401

    where = os.path.dirname(os.path.abspath(channelflow.__file__))
    if where != os.path.join(SRC_DIR, "channelflow"):
        raise RuntimeError(f"imported channelflow from {where}, not from {SRC_DIR}")
    return channelflow


@dataclass
class OpResult:
    """Outputs of one operation: failures found by its gates and the
    output fingerprint (full-precision reprs, reported, never gated)."""

    failures: list[str] = field(default_factory=list)
    fingerprint: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

CONFIG_TEMPLATE = """\
nu = 0.5
dt = {dt!r}
t_end = {t_end!r}
nx = {n}
ny = {n}
nz = {nz}
dealias = on
scheme = etdab2
init = random
init_amplitude = 0.3
init_seed = {seed}
forcing = random
forcing_amplitude = 1.0
forcing_seed = {forcing_seed}
diag_every = {diag_every}
"""


@dataclass(frozen=True)
class RunWorkload:
    """``channelflow run`` on a forced random flow.

    With ``restart`` the run is two segments: a fresh run to T/2, then
    ``run --restart <seg1>/final.ckpt`` to T.
    """

    n: int
    nz: int
    diag_every: int
    steps: int
    restart: bool = False
    dt: float = 1e-3
    unit: ClassVar[str] = "step"

    def config_text(self, seed: int, steps: int) -> str:
        return CONFIG_TEMPLATE.format(dt=self.dt, t_end=steps * self.dt, n=self.n, nz=self.nz,
                                      seed=seed, forcing_seed=seed + 1,
                                      diag_every=self.diag_every)

    def segments(self) -> list[int]:
        """Step count at the end of each segment."""
        return [self.steps // 2, self.steps] if self.restart else [self.steps]

    def write_configs(self, seed: int, work_dir: str) -> list[tuple[str, str]]:
        """One (config path, output dir) per segment."""
        configs = []
        for k, steps in enumerate(self.segments()):
            path = os.path.join(work_dir, f"seg{k + 1}.cfg")
            with open(path, "w") as fh:
                fh.write(self.config_text(seed, steps))
            configs.append((path, os.path.join(work_dir, f"seg{k + 1}")))
        return configs

    def setup(self, seed: int, work_dir: str) -> dict:
        """Write the configs and build the run's inputs through the public
        constructors (the verb builds its own; this is the set-up cost)."""
        from channelflow import io, solver

        config = io.parse_config_text(self.config_text(seed, self.steps))
        forcing = solver.make_forcing(config.forcing, config.grid, config.nu)
        state = solver.make_initial_state(config.init, config.grid, config.nu)
        stepper = solver.Stepper(config, forcing)
        return {"configs": self.write_configs(seed, work_dir), "state": state,
                "stepper": stepper}

    def warmup(self, seed: int, work_dir: str):
        """A 2-step variant of the operation (2 + 2 when restarted) that
        fills caches untimed."""
        short = replace(self, steps=4 if self.restart else 2)
        return short, {"configs": short.write_configs(seed, work_dir)}

    def units(self) -> int:
        return self.steps

    def operations(self) -> int:
        return len(self.segments())

    def op(self, inputs: dict) -> list[int]:
        from channelflow import cli

        codes = []
        restart = []
        for cfg, out in inputs["configs"]:
            codes.append(cli.main(["run", "--config", cfg, "--out", out] + restart))
            restart = ["--restart", os.path.join(out, "final.ckpt")]
        return codes

    def gate(self, inputs: dict, codes: list[int]) -> OpResult:
        from channelflow import io

        res = OpResult()
        start = 0
        rows = []
        for (_, out), code, end in zip(inputs["configs"], codes, self.segments()):
            expect = -(-(end - start) // self.diag_every) + 1
            rows.append(_gate_run_segment(out, code, expect, res.failures))
            start = end
        if self.restart and all(rows):
            if rows[1][1][:STATE_COLUMNS] != rows[0][-1][:STATE_COLUMNS]:
                res.failures.append("segment 2's first CSV row differs from segment 1's last")
            ckpt = os.path.join(inputs["configs"][0][1], "final.ckpt")
            copy = ckpt + ".roundtrip"
            io.write_checkpoint(copy, *io.read_checkpoint(ckpt))
            if _read_bytes(copy) != _read_bytes(ckpt):
                res.failures.append("checkpoint read->write round trip is not byte-identical")
        if rows[-1]:
            header, last = rows[-1][0], rows[-1][-1]
            res.fingerprint = {"final_energy": last[header.index("energy")],
                               "criterion_accum": last[header.index("criterion_accum")]}
        return res


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _gate_run_segment(out: str, code: int, expect_rows: int, failures: list[str]):
    """Gate one ``run`` segment; returns its CSV rows as strings (header
    first), or None when the outputs are unusable."""
    from channelflow import io
    from channelflow.monitor import DiagnosticsRecord

    if code != 0:
        failures.append(f"{out}: run exited {code}")
        return None
    with open(os.path.join(out, "report.txt")) as fh:
        report = fh.read().splitlines()
    for line in ("energy_bound_held = True", "criterion_finite = True"):
        if line not in report:
            failures.append(f"{out}: report lacks '{line}'")
    state, _ = io.read_checkpoint(os.path.join(out, "final.ckpt"))
    div = state.divergence_inf()
    if not div <= DIVERGENCE_TOL:
        failures.append(f"{out}: final state divergence {div!r} > {DIVERGENCE_TOL}")
    with open(os.path.join(out, "diagnostics.csv")) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    if tuple(rows[0]) != DiagnosticsRecord.CSV_COLUMNS:
        failures.append(f"{out}: CSV header {rows[0]}")
        return None
    if len(rows) - 1 != expect_rows:
        failures.append(f"{out}: {len(rows) - 1} CSV rows, expected {expect_rows}")
    return rows


@dataclass(frozen=True)
class InequalitiesWorkload:
    """``channelflow verify-inequalities`` over a seeded field family."""

    count: int = 20
    self_test: bool = False  # negative control: the verb then exits 3
    unit: ClassVar[str] = "field"

    def setup(self, seed: int, work_dir: str) -> dict:
        from channelflow import Grid
        from channelflow.inequalities import FamilySpec

        spec = FamilySpec.for_grid(Grid(32, 32, 17), count=self.count, seed=seed)
        return {"spec": spec, "out": os.path.join(work_dir, "ineq")}

    def warmup(self, seed: int, work_dir: str):
        short = replace(self, count=1)
        return short, short.setup(seed, work_dir)

    def units(self) -> int:
        return self.count

    def operations(self) -> int:
        return 1

    def op(self, inputs: dict) -> int:
        from channelflow import cli

        spec = inputs["spec"]
        argv = ["verify-inequalities", "--grid", "32", "32", "17", "--seed", str(spec.seed),
                "--count", str(spec.count), "--out", inputs["out"]]
        return cli.main(argv + (["--self-test"] if self.self_test else []))

    def gate(self, inputs: dict, code: int) -> OpResult:
        res = OpResult()
        if code != 0:
            res.failures.append(f"verify-inequalities exited {code}")
        with open(os.path.join(inputs["out"], "inequalities.csv")) as fh:
            header = fh.readline().strip().split(",")
            rows = [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]
        count = inputs["spec"].count
        per_field = [sum(r["field_index"] == str(i) for r in rows) for i in range(count)]
        if per_field != [INEQUALITY_ROWS_PER_FIELD] * count:
            res.failures.append(f"rows per field {per_field}")
        failed = [r for r in rows if r["passed"] != "1"]
        if failed:
            res.failures.append(f"{len(failed)} inequality rows did not pass")
        worst: dict[str, float] = {}
        for r in rows:
            c = float(r["empirical_constant"])
            worst[r["inequality"]] = max(worst.get(r["inequality"], -math.inf), c)
        res.fingerprint = {f"max_constant.{k}": repr(v) for k, v in sorted(worst.items())}
        return res


@dataclass(frozen=True)
class IdentityWorkload:
    """``monitor.check_identity_avg_nonlinear`` on seeded divergence-free
    states; the only path through ``calculus.multiply_exact``."""

    states: int = 4
    unit: ClassVar[str] = "check"

    def setup(self, seed: int, work_dir: str) -> dict:
        from channelflow import Grid
        from channelflow.solver import random_divergence_free_state

        grid = Grid(32, 32, 17)
        states = [random_divergence_free_state(grid, seed=seed * self.states + i)
                  for i in range(self.states)]
        return {"states": states}

    def warmup(self, seed: int, work_dir: str):
        short = replace(self, states=1)
        return short, short.setup(seed, work_dir)

    def units(self) -> int:
        return self.states

    def operations(self) -> int:
        return self.states

    def op(self, inputs: dict) -> list:
        from channelflow import monitor

        out = []
        for state in inputs["states"]:
            try:
                out.append(monitor.check_identity_avg_nonlinear(state))
            except Exception as exc:  # an operation that raises counts as failed
                out.append(exc)
        return out

    def gate(self, inputs: dict, discrepancies: list) -> OpResult:
        res = OpResult()
        for i, d in enumerate(discrepancies):
            if isinstance(d, Exception):
                res.failures.append(f"state {i}: {type(d).__name__}: {d}")
            elif not d <= IDENTITY_TOL:
                res.failures.append(f"state {i}: discrepancy {d!r} > {IDENTITY_TOL}")
        ok = [d for d in discrepancies if not isinstance(d, Exception)]
        if ok:
            res.fingerprint = {"max_identity_discrepancy": repr(max(ok))}
        return res


WORKLOADS = {
    "forced64": RunWorkload(n=64, nz=33, diag_every=10, steps=20),
    "diag32_restart": RunWorkload(n=32, nz=17, diag_every=1, steps=40, restart=True),
    "inequalities32": InequalitiesWorkload(),
    "identity32": IdentityWorkload(),
}


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------

def attempt(workload, inputs: dict, tracer=None) -> tuple[float, float, OpResult, dict]:
    """Run and gate one operation; returns (wall seconds, CPU seconds of
    this process, gate result, per-layer metrics when traced)."""
    layers: dict = {}
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            out = workload.op(inputs)
        else:
            with tracer.operation() as layers:
                out = workload.op(inputs)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        res = workload.gate(inputs, out)
    except Exception as exc:  # a crash inside the program is a failed operation
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        res = OpResult([f"{type(exc).__name__}: {exc}"])
    return wall, cpu, res, layers


def measure(workload, inputs: dict, seconds: float, tracer=None) -> dict:
    """Repeat the operation while another one is expected to end within
    `seconds` (at least once)."""
    walls, cpus, layers, failures = [], [], [], []
    attempted = failed = 0
    fingerprint: dict = {}
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + sum(walls) / len(walls) <= seconds:
        wall, cpu, res, lay = attempt(workload, inputs, tracer)
        n = workload.operations()
        attempted += n
        failed += min(n, len(res.failures))
        failures += res.failures
        walls.append(wall)
        cpus.append(cpu)
        layers.append(lay)
        fingerprint = fingerprint or res.fingerprint
    return {"walls": walls, "cpus": cpus, "layers": layers, "attempted": attempted,
            "failed": failed, "failures": failures[:20], "fingerprint": fingerprint}


def run_phases(workload, inputs: dict, args) -> dict:
    """Warm-up, then untraced operations, then (traced mode) traced ones."""
    warm_dir = os.path.join(args.work_dir, "warmup")
    os.makedirs(warm_dir)
    out = {"warmup": measure(*workload.warmup(args.seed, warm_dir), 0.0)}
    if args.mode == "untraced":
        out["untraced"] = measure(workload, inputs, args.seconds)
        return out
    import spans

    out["untraced"] = measure(workload, inputs, args.seconds / 2)
    tracer = spans.Tracer()
    spans.install(tracer)
    out["traced"] = measure(workload, inputs, args.seconds / 2, tracer)
    out["span_check"] = spans.check_step_counts(tracer)
    if isinstance(workload, RunWorkload) and not tracer.step_counts:
        out["span_check"].append("no Stepper.step span was traced")
    tracer.write(os.path.join(os.path.dirname(args.result),
                              f"spans_{args.workload}_seed{args.seed}.jsonl"))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget for operations; 0 times the set-up only")
    ap.add_argument("--mode", choices=("untraced", "traced"), default="untraced")
    ap.add_argument("--result", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)

    package = import_package()
    import_s = time.perf_counter() - _T_START
    import numpy
    import scipy

    versions = {"channelflow": package.__version__, "numpy": numpy.__version__,
                "scipy": scipy.__version__, "fft_workers": package.fields.fft_workers()}
    workload = WORKLOADS[args.workload]
    os.makedirs(args.work_dir, exist_ok=True)
    try:
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, args.work_dir)
        build_s = time.perf_counter() - t0
        result = {"versions": versions, "import_s": import_s, "build_s": build_s,
                  "setup_s": import_s + build_s, "units": workload.units(),
                  "unit": workload.unit}
        if args.seconds > 0:
            result.update(run_phases(workload, inputs, args))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
