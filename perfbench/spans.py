"""Span tracer for the traced benchmark run.

The tracer wraps the package's public functions from outside the package:
every module of ``channelflow`` that holds a reference to a wrapped function
(``from .fields import to_physical`` binds the name in ``solver``,
``calculus``, ``monitor`` and ``inequalities`` too) is rebound to the
wrapper, and methods are wrapped on their class.  A wrapper records a span
(name, start, end, parent) only while an operation is being traced, so the
benchmark's own set-up and correctness gates stay untraced.  Spans stay in
memory and are written out when the worker exits.

Each span name maps to a layer group (the package module, or a named
sub-group of it); a group's self time is the duration of its spans minus
the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

# group -> (module, qualified name) of each wrapped callable
GROUPS: dict[str, tuple[tuple[str, str], ...]] = {
    "fields.to_physical": (("fields", "to_physical"),),
    "fields.to_spectral": (("fields", "to_spectral"),),
    "fields.dealias": (("fields", "dealias"),),
    "fields.random_band_limited": (("fields", "random_band_limited"),),
    "calculus.derivatives": tuple(("calculus", n) for n in ("ddx", "ddy", "ddz", "laplacian_h")),
    "calculus.multiply_exact": (("calculus", "multiply_exact"),),
    "calculus.multiply_exact_2d": (("calculus", "multiply_exact_2d"),),
    "calculus.vertical_velocity": (("calculus", "vertical_velocity"),),
    "calculus.random_band_limited_2d": (("calculus", "random_band_limited_2d"),),
    "calculus.other": tuple(("calculus", n) for n in (
        "vertical_average", "fluctuation", "z_extend", "divergence", "multiply",
        "to_physical_2d", "to_spectral_2d", "ddx_2d", "ddy_2d")),
    "norms.lq": tuple(("norms", n) for n in ("lq_norm", "lq_norm_vector", "lq_norm_2d")),
    "norms.spectral": tuple(("norms", n) for n in (
        "l2_norm", "grad_h_norm", "dz_norm", "h1_norm", "inner",
        "l2_norm_2d", "grad_h_norm_2d", "h1_norm_2d")),
    "solver.nonlinear": (("solver", "nonlinear"),),
    "solver.leray_project": (("solver", "leray_project"),),
    "solver.pressure_solve": (("solver", "pressure_solve"),),
    "solver.advance": (("solver", "Stepper.advance"),),
    # the run loop's own checks; the same methods called elsewhere (energy
    # inside monitor.record) stay in their caller's self time
    "solver.step_checks": tuple(("solver", "VelocityState." + n) for n in (
        "energy", "divergence_inf", "reconstruction_error")),
    "solver.setup": (("solver", "make_forcing"), ("solver", "make_initial_state"),
                     ("solver", "random_divergence_free_state"), ("solver", "Stepper.__init__")),
    "solver.run_other": (("solver", "run"), ("solver", "Stepper.step"),
                         ("solver", "Stepper.rhs_at")),
    # RunMonitor.observe is the run loop's record call; its span count is
    # the number of pressure fields a run consumes
    "monitor.record": (("monitor", "record"), ("monitor", "RunMonitor.observe")),
    "monitor.finalize": (("monitor", "RunMonitor.finalize"),),
    "monitor.bounds": tuple(("monitor", n) for n in ("run_norms", "compute_bounds", "verdict")),
    "monitor.check_identity_avg_nonlinear": (("monitor", "check_identity_avg_nonlinear"),),
    "inequalities.families": (("inequalities", "field_family"), ("inequalities", "planar_family")),
    "inequalities.checks": tuple(("inequalities", n) for n in (
        "check_gn_2d", "check_gn_3d", "check_interp_2d", "check_minkowski", "check_poincare_pz")),
    "inequalities.check_lemma_ll": (("inequalities", "check_lemma_ll"),),
    "inequalities.sweep": (("inequalities", "sweep_family"),),
    "io.write_diagnostics_csv": (("io", "write_diagnostics_csv"),),
    "io.write_checkpoint": (("io", "write_checkpoint"),),
    "io.read_checkpoint": (("io", "read_checkpoint"),),
    "io.other": tuple(("io", n) for n in (
        "parse_config_text", "write_inequality_csv", "write_manifest", "write_report",
        "read_diagnostics_csv")),
    "cli": (("cli", "main"),),
}

ROOT = "bench.op"
STEP = "solver.Stepper.step"
RUN = "solver.run"
OBSERVE = "monitor.RunMonitor.observe"
TRANSFORMS = ("fields.to_physical", "fields.to_spectral")
CHECKPOINT = "io.write_checkpoint"

#: spans under one Stepper.step whose count is fixed by the scheme (dealias on)
STEP_SPAN_COUNTS = {
    "solver.nonlinear": 1,
    "fields.to_physical": 12,
    "fields.to_spectral": 3,
    "fields.dealias": 3,
    "solver.leray_project": 2,
    "solver.pressure_solve": 1,
}

CALL_METRICS = ("fields.to_physical", "fields.to_spectral", "calculus.multiply_exact",
                "solver.nonlinear", "solver.leray_project", "solver.pressure_solve",
                "monitor.record")


def span_group() -> dict[str, str]:
    """Span name ("module.qualname") -> layer group."""
    return {f"{mod}.{qual}": group for group, targets in GROUPS.items() for mod, qual in targets}


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent index]``; the root span of each
    traced operation has parent -1.  Counters hold per-operation quantities
    computed at the boundaries (transform bytes, checkpoint bytes).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.step_counts: list[Counter] = []
        self._step: Counter | None = None

    def begin(self, name: str) -> list:
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(rec)
        if self._step is not None:
            self._step[name] += 1
        if name == STEP:
            self._step = Counter()
        self.stack.append(idx)
        rec[1] = perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()
        if rec[0] == STEP:
            self.step_counts.append(self._step)
            self._step = None

    def parent_name(self) -> str:
        return self.spans[self.stack[-1]][0]

    @contextmanager
    def operation(self):
        """Bracket one traced operation; the yielded dict receives the
        operation's per-layer metrics when the block exits."""
        first = len(self.spans)
        self.counters = Counter()
        rec = self.begin(ROOT)
        metrics: dict[str, float] = {}
        try:
            yield metrics
        finally:
            self.end(rec)
            metrics.update(summarize(self.spans[first:], first, self.counters))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


def summarize(spans: list[list], offset: int, counters: Counter) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans.

    `offset` is the index of the operation's root span in the full list.
    """
    groups = span_group()
    child = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= offset:
            child[parent - offset] += t1 - t0
    self_ms: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, t0, t1, _) in enumerate(spans):
        self_ms[groups.get(name, name)] += (t1 - t0 - child[i]) * 1e3
        calls[name] += 1
    out = {f"{g}.self_ms": float(self_ms[g]) for g in GROUPS}
    out.update({f"{n}.calls": float(calls[n]) for n in CALL_METRICS})
    out["fields.transform_mb_computed"] = counters["transform_bytes"] / 1e6
    out["io.checkpoint_bytes"] = float(counters["checkpoint_bytes"])
    solves = calls["solver.pressure_solve"]
    out["solver.pressure_useful_ratio"] = calls[OBSERVE] / solves if solves else 0.0
    out["op_ms"] = (spans[0][2] - spans[0][1]) * 1e3
    return out


def _wrap(tracer: Tracer, fn, name: str):
    only_under_run = span_group()[name] == "solver.step_checks"
    is_transform = name in TRANSFORMS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.stack or (only_under_run and tracer.parent_name() != RUN):
            return fn(*args, **kwargs)
        rec = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(rec)
        if is_transform:
            tracer.counters["transform_bytes"] += args[0].data.nbytes + out.data.nbytes
        elif name == CHECKPOINT:
            tracer.counters["checkpoint_bytes"] += os.path.getsize(args[0])
        return out

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target at every binding site; returns a function that
    restores the originals."""
    pkg = [m for n, m in sorted(sys.modules.items())
           if n == "channelflow" or n.startswith("channelflow.")]
    restore: list[tuple[object, str, object]] = []
    for name in span_group():
        mod_name, qual = name.split(".", 1)
        module = importlib.import_module(f"channelflow.{mod_name}")
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            restore.append((cls, meth, orig))
            setattr(cls, meth, _wrap(tracer, orig, name))
            continue
        orig = getattr(module, qual)
        wrapped = _wrap(tracer, orig, name)
        for mod in pkg:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall() -> None:
        for obj, attr, orig in reversed(restore):
            setattr(obj, attr, orig)

    return uninstall


def check_step_counts(tracer: Tracer) -> list[str]:
    """Compare each traced step's span counts with STEP_SPAN_COUNTS."""
    errors = []
    for i, counts in enumerate(tracer.step_counts):
        got = {name: counts[name] for name in STEP_SPAN_COUNTS}
        if got != STEP_SPAN_COUNTS:
            errors.append(f"step {i}: span counts {got} != {STEP_SPAN_COUNTS}")
    return errors
