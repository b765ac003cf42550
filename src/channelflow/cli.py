"""Command-line interface: run orchestration and scriptable checks.

Verbs:
  run                  integrate a config, write diagnostics CSV, criterion
                       report, final checkpoint, and manifest
  verify-inequalities  sweep the seeded field family through the inequality
                       lab and write one CSV row per (inequality, field)
  convergence          Richardson temporal-order estimate at dt, dt/2, dt/4
  report               re-render a criterion report from a diagnostics CSV
                       and, for blow-up, the run's manifest beside it

Exit codes: 0 success, 1 I/O, config or usage error, 2 blow-up (partial
outputs are still written), 3 check failure.  The CHANNELFLOW_THREADS
environment variable caps FFT worker parallelism; a value that is not a
whole number >= 1 is a config error (exit 1).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

from .errors import ChannelFlowError, ConfigError, InvalidFieldError
from .fields import Grid, fft_workers
from .inequalities import FamilySpec, sweep_family
from .io import (
    parse_config_text,
    read_checkpoint,
    read_diagnostics_csv,
    read_run_outcome,
    write_checkpoint,
    write_diagnostics_csv,
    write_inequality_csv,
    write_manifest,
    write_report,
)
from .monitor import segment_bounds, verdict
from .norms import sq_l2_norm
from .solver import SolverConfig, make_forcing, run

EXIT_OK = 0
EXIT_IO = 1
EXIT_BLOWUP = 2
EXIT_CHECK = 3

#: states closer than this (relative) are treated as at the roundoff floor
_FLOOR_RTOL = 1e-12


def parse_config(path: str) -> SolverConfig:
    """Load and validate a plain-text config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    restart = None
    if args.restart:
        restart = read_checkpoint(args.restart)
    started = _utcnow()
    result = run(config, restart=restart)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "diagnostics.csv")
    ckpt_path = os.path.join(args.out, "final.ckpt")
    report_path = os.path.join(args.out, "report.txt")
    manifest_path = os.path.join(args.out, "manifest.json")
    write_diagnostics_csv(csv_path, result.records)
    write_checkpoint(ckpt_path, result.final_state, result.final_rhs)
    outputs = {"diagnostics": csv_path, "checkpoint": ckpt_path}
    if result.records:
        bounds = segment_bounds(config, result.records, result.forcing)
        rep = verdict(result.records, bounds, config, blowup=result.blowup,
                      last_valid_time=result.last_valid_time)
        write_report(report_path, rep)
        outputs["report"] = report_path
    status = EXIT_BLOWUP if result.blowup else EXIT_OK
    write_manifest(manifest_path, config, started, _utcnow(), outputs=outputs,
                   blowup=result.blowup, last_valid_time=result.last_valid_time,
                   exit_status=status)
    if result.blowup:
        print(f"blow-up at t={result.last_valid_time!r}; partial outputs in {args.out}")
    else:
        print(f"run complete: t={result.final_state.t!r}, outputs in {args.out}")
    return status


def cmd_verify_inequalities(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ConfigError(f"count must be >= 1, got {args.count}")
    try:
        grid = Grid(*args.grid)
    except InvalidFieldError as exc:
        raise ConfigError(f"--grid: {exc}") from exc
    spec = FamilySpec.for_grid(grid, count=args.count, seed=args.seed)
    rows = sweep_family(grid, spec, reverse_minkowski=args.self_test)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "inequalities.csv")
    write_inequality_csv(csv_path, rows)
    failures = [(idx, rep) for idx, rep in rows if not rep.passed]
    print(f"{len(rows)} checks over {args.count} fields -> {csv_path}")
    if failures:
        for idx, rep in failures:
            print(f"FAIL {rep.name} field {idx}: constant {rep.empirical_constant!r} "
                  f"(lhs {rep.lhs!r}, rhs {rep.rhs_structure!r})")
        return EXIT_CHECK
    print("all inequality checks passed")
    return EXIT_OK


def _state_l2_diff(a, b) -> float:
    return math.sqrt(sum(sq_l2_norm(x.data - y.data, x.grid, x.parity)
                         for x, y in ((a.v1, b.v1), (a.v2, b.v2), (a.w, b.w))))


def cmd_convergence(args: argparse.Namespace) -> int:
    base = parse_config(args.config)
    if base.init.kind not in ("shear", "taylor_green"):
        raise ConfigError("convergence requires an exact-solution init (shear or taylor_green)")
    finals = []
    for div in (1, 2, 4):
        cfg = replace(base, dt=base.dt / div)
        result = run(cfg)
        if result.blowup:
            print(f"blow-up during convergence run (dt={cfg.dt!r})", file=sys.stderr)
            return EXIT_BLOWUP
        finals.append(result.final_state)
    d1 = _state_l2_diff(finals[0], finals[1])
    d2 = _state_l2_diff(finals[1], finals[2])
    scale = max(1.0, math.sqrt(finals[2].energy()))
    if d1 < _FLOOR_RTOL * scale or d2 < _FLOOR_RTOL * scale:
        print(f"inconclusive: successive-refinement differences ({d1:.3e}, {d2:.3e}) "
              "are at the roundoff floor")
        return EXIT_OK
    order = math.log2(d1 / d2)
    print(f"richardson differences: {d1:.6e} {d2:.6e}  observed temporal order: {order:.3f}")
    if 1.8 <= order <= 2.2:
        return EXIT_OK
    print("observed order outside [1.8, 2.2]", file=sys.stderr)
    return EXIT_CHECK


def cmd_report(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    records = read_diagnostics_csv(args.csv)
    if not records:
        print("diagnostics CSV contains no records", file=sys.stderr)
        return EXIT_IO
    forcing = make_forcing(config.forcing, config.grid, config.nu)
    # the CSV holds no blow-up: a run of this config left it in its manifest
    blowup, last_valid_time = read_run_outcome(
        os.path.join(os.path.dirname(args.csv), "manifest.json"), config)
    rep = verdict(records, segment_bounds(config, records, forcing), config, blowup=blowup,
                  last_valid_time=last_valid_time)
    print(rep.to_text(), end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_report(os.path.join(args.out, "report.txt"), rep)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is a ConfigError (exit 1): argparse's exit 2 reads as a blow-up."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="channelflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=".")
    p_run.add_argument("--restart", default=None,
                       help="resume from a checkpoint (bit-exact under a fixed thread count)")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify-inequalities", help="run the inequality lab sweep")
    p_ver.add_argument("--seed", type=int, default=1234)
    p_ver.add_argument("--grid", type=int, nargs=3, default=(32, 32, 17),
                       metavar=("NX", "NY", "NZ"))
    p_ver.add_argument("--count", type=int, default=100)
    p_ver.add_argument("--out", default=".")
    p_ver.add_argument("--self-test", action="store_true",
                       help="negative control: reverse the Minkowski orientation")
    p_ver.set_defaults(func=cmd_verify_inequalities)

    p_conv = sub.add_parser("convergence", help="temporal order via Richardson refinement")
    p_conv.add_argument("--config", required=True)
    p_conv.set_defaults(func=cmd_convergence)

    p_rep = sub.add_parser("report", help="re-render a criterion report from CSV")
    p_rep.add_argument("--csv", required=True)
    p_rep.add_argument("--config", required=True)
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        fft_workers()  # a bad CHANNELFLOW_THREADS fails before any output
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ChannelFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
