"""Tests of the benchmark itself: gates pass at small sizes, the negative
controls register as failures, the tracer's span counts and self-time
accounting hold, and the benchmark refuses to run without the sources.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import spans
import worker

worker.import_package()

from channelflow import Parity, ScalarField  # noqa: E402
from channelflow import fields, solver  # noqa: E402
from channelflow.solver import VelocityState  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

SMALL = {
    "forced64": replace(worker.WORKLOADS["forced64"], steps=2),
    "diag32_restart": replace(worker.WORKLOADS["diag32_restart"], steps=4),
    "inequalities32": replace(worker.WORKLOADS["inequalities32"], count=2),
    "identity32": replace(worker.WORKLOADS["identity32"], states=2),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_gates_pass_at_this_commit(name, tmp_path):
    wl = SMALL[name]
    res = worker.measure(wl, wl.setup(7, str(tmp_path)), 0.0)
    assert res["failed"] == 0, res["failures"]
    assert res["attempted"] == wl.operations()
    assert res["fingerprint"]


def test_self_test_counts_as_failure(tmp_path):
    wl = replace(SMALL["inequalities32"], self_test=True)
    res = worker.measure(wl, wl.setup(7, str(tmp_path)), 0.0)
    assert (res["attempted"], res["failed"]) == (1, 1)
    assert any("exited 3" in f for f in res["failures"])


def test_injected_divergence_counts_as_failure(tmp_path):
    wl = SMALL["identity32"]
    inputs = wl.setup(7, str(tmp_path))
    good = inputs["states"][1]
    bump = ScalarField.from_modes(good.grid, Parity.EVEN_Z, {(1, 0, 0): 0.1})
    bad_v1 = ScalarField.spectral(good.grid, Parity.EVEN_Z, good.v1.data + bump.data)
    inputs["states"][1] = VelocityState(bad_v1, good.v2, good.w, good.t)
    res = worker.measure(wl, inputs, 0.0)
    assert (res["attempted"], res["failed"]) == (2, 1)
    assert any(f.startswith("state 1") for f in res["failures"])


def test_span_counts_and_self_time_accounting(tmp_path):
    wl = SMALL["diag32_restart"]
    original = fields.to_physical
    inputs = wl.setup(7, str(tmp_path))
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        res = worker.measure(wl, inputs, 0.0, tracer)
    finally:
        uninstall()
    assert fields.to_physical is original and solver.to_physical is original
    assert res["failed"] == 0, res["failures"]
    assert len(tracer.step_counts) == wl.steps
    assert spans.check_step_counts(tracer) == []
    layers = res["layers"][0]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
    assert 0.9 * layers["op_ms"] < self_total <= layers["op_ms"]
    assert layers["solver.pressure_useful_ratio"] == 1.0
    assert layers["io.checkpoint_bytes"] > 0
    assert layers["fields.to_physical.calls"] >= 12 * wl.steps


def test_missed_binding_site_fails_span_check(tmp_path):
    wl = SMALL["forced64"]
    inputs = wl.setup(7, str(tmp_path))
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    solver.to_physical = solver.to_physical.__wrapped__  # a binding site left unwrapped
    try:
        worker.measure(wl, inputs, 0.0, tracer)
    finally:
        uninstall()
    errors = spans.check_step_counts(tracer)
    assert len(errors) == wl.steps and "fields.to_physical': 0" in errors[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    with open(tmp_path / "BENCHMARK.json") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run([sys.executable] + command[1:] + [
        "--workload", "identity32", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
