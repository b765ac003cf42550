"""Config parsing, CLI commands, checkpoints, and exit codes."""

import math
import os

import pytest

from channelflow.cli import (
    EXIT_BLOWUP,
    EXIT_CHECK,
    EXIT_OK,
    build_parser,
    main,
    parse_config,
)
from channelflow.errors import ConfigError
from channelflow.io import (
    config_sha256,
    emit_config,
    parse_config_text,
    read_checkpoint,
    read_diagnostics_csv,
    write_checkpoint,
)
from channelflow.monitor import DiagnosticsRecord
from channelflow.solver import run

MINIMAL = """\
# minimal shear benchmark
nu = 1.0
dt = 0.001
t_end = 0.1
nx = 32
ny = 32
nz = 17
init = shear
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL)
    return str(path)


def test_minimal_config_defaults(config_path):
    cfg = parse_config(config_path)
    assert cfg.nu == 1.0 and cfg.dt == 1e-3 and cfg.t_end == 0.1
    assert (cfg.grid.nx, cfg.grid.ny, cfg.grid.nz) == (32, 32, 17)
    assert cfg.lambda1 == pytest.approx(math.pi**2)
    assert cfg.r == 3.5 and cfg.q == 2.0 and cfg.alpha == 4.0
    assert cfg.dealias is True and cfg.scheme == "etdab2"


def test_config_round_trip(config_path):
    cfg = parse_config(config_path)
    assert parse_config_text(emit_config(cfg)) == cfg
    assert len(config_sha256(cfg)) == 64


@pytest.mark.parametrize("line,fragment", [
    ("alpha = 3.0", "alpha"),        # theorem requires alpha > 3
    ("r = 4.0", "r"),                # r must lie in (3, 4)
    ("q = 1.0", "q"),
    ("nu = -1.0", "nu"),
    ("mystery = 7", "mystery"),
])
def test_config_rejections_name_the_key(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(MINIMAL + line + "\n")


def test_config_rejects_unknown_init_kind():
    with pytest.raises(ConfigError, match="whirl"):
        parse_config_text(MINIMAL.replace("init = shear", "init = whirl"))


def test_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(MINIMAL + "nu = 2.0\n")


def test_config_missing_required():
    with pytest.raises(ConfigError, match="missing required"):
        parse_config_text("nu = 1.0\n")


def test_cmd_run_csv_rows(tmp_path, config_path):
    out = str(tmp_path / "out")
    assert main(["run", "--config", config_path, "--out", out]) == EXIT_OK
    lines = open(os.path.join(out, "diagnostics.csv")).read().splitlines()
    cfg = parse_config(config_path)
    expected_rows = 1 + math.ceil(cfg.t_end / (cfg.diag_every * cfg.dt))
    assert len(lines) - 1 == expected_rows
    assert lines[0].split(",") == list(DiagnosticsRecord.CSV_COLUMNS)
    for name in ("final.ckpt", "report.txt", "manifest.json"):
        assert os.path.exists(os.path.join(out, name))


def test_cmd_run_zero_horizon(tmp_path):
    path = tmp_path / "zero.cfg"
    path.write_text(MINIMAL.replace("t_end = 0.1", "t_end = 0.0"))
    out = str(tmp_path / "out0")
    assert main(["run", "--config", str(path), "--out", out]) == EXIT_OK
    lines = open(os.path.join(out, "diagnostics.csv")).read().splitlines()
    assert len(lines) - 1 == 1  # only the initial record


def test_cmd_run_blowup_exit_code(tmp_path):
    path = tmp_path / "unstable.cfg"
    path.write_text(
        "nu = 0.001\ndt = 0.001\nt_end = 0.5\nnx = 16\nny = 16\nnz = 9\n"
        "init = zero\nforcing = random\nforcing_amplitude = 1e5\n")
    out = str(tmp_path / "boom")
    assert main(["run", "--config", str(path), "--out", out]) == EXIT_BLOWUP
    # partial outputs still written
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))
    assert os.path.exists(os.path.join(out, "manifest.json"))


def test_cmd_run_bad_config_exit(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(MINIMAL + "alpha = 3.0\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1


def test_checkpoint_write_read_write_identical(tmp_path, grid):
    from channelflow.solver import random_divergence_free_state

    state = random_divergence_free_state(grid, seed=3)
    p1 = str(tmp_path / "a.ckpt")
    p2 = str(tmp_path / "b.ckpt")
    write_checkpoint(p1, state, None)
    st, prev = read_checkpoint(p1)
    assert prev is None
    write_checkpoint(p2, st, prev)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_restart_reproduces_trajectory_bit_exactly(tmp_path, config_path, monkeypatch):
    monkeypatch.setenv("CHANNELFLOW_THREADS", "1")
    half_cfg = tmp_path / "half.cfg"
    half_cfg.write_text(MINIMAL.replace("t_end = 0.1", "t_end = 0.05"))
    full_out = str(tmp_path / "full")
    half_out = str(tmp_path / "half")
    resumed_out = str(tmp_path / "resumed")
    assert main(["run", "--config", config_path, "--out", full_out]) == EXIT_OK
    assert main(["run", "--config", str(half_cfg), "--out", half_out]) == EXIT_OK
    assert main(["run", "--config", config_path, "--out", resumed_out,
                 "--restart", os.path.join(half_out, "final.ckpt")]) == EXIT_OK
    full = open(os.path.join(full_out, "final.ckpt"), "rb").read()
    resumed = open(os.path.join(resumed_out, "final.ckpt"), "rb").read()
    assert full == resumed


def test_cmd_verify_inequalities(tmp_path):
    out = str(tmp_path / "ineq")
    assert main(["verify-inequalities", "--count", "3", "--grid", "16", "16", "9",
                 "--out", out]) == EXIT_OK
    lines = open(os.path.join(out, "inequalities.csv")).read().splitlines()
    assert len(lines) - 1 == 3 * 7  # one row per (inequality, field)


def test_cmd_verify_inequalities_negative_control(tmp_path):
    out = str(tmp_path / "ineq_neg")
    code = main(["verify-inequalities", "--count", "2", "--grid", "16", "16", "9",
                 "--out", out, "--self-test"])
    assert code == EXIT_CHECK


def test_cmd_convergence_cnab2(tmp_path):
    path = tmp_path / "conv.cfg"
    path.write_text(MINIMAL.replace("t_end = 0.1", "t_end = 0.02") + "scheme = cnab2\n")
    assert main(["convergence", "--config", str(path)]) == EXIT_OK


def test_cmd_convergence_floor_guard(tmp_path, capsys):
    """Exact-propagator scheme on the pure oracle sits at the roundoff floor."""
    path = tmp_path / "floor.cfg"
    path.write_text(MINIMAL.replace("t_end = 0.1", "t_end = 0.02"))
    assert main(["convergence", "--config", str(path)]) == EXIT_OK
    assert "inconclusive" in capsys.readouterr().out


def test_cmd_convergence_requires_exact_init(tmp_path):
    path = tmp_path / "noinit.cfg"
    path.write_text(MINIMAL.replace("init = shear", "init = random"))
    assert main(["convergence", "--config", str(path)]) == 1


def test_cmd_report_round_trip(tmp_path, config_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", config_path, "--out", out]) == EXIT_OK
    capsys.readouterr()  # drain the run command's output
    csv_path = os.path.join(out, "diagnostics.csv")
    assert main(["report", "--csv", csv_path, "--config", config_path]) == EXIT_OK
    rendered = capsys.readouterr().out
    assert "criterion report" in rendered
    assert rendered == open(os.path.join(out, "report.txt")).read()


def test_read_diagnostics_csv_round_trip(tmp_path, config_path):
    cfg = parse_config(config_path)
    res = run(cfg)
    from channelflow.io import write_diagnostics_csv

    path = str(tmp_path / "d.csv")
    write_diagnostics_csv(path, res.records)
    back = read_diagnostics_csv(path)
    assert len(back) == len(res.records)
    assert back[-1].t == res.records[-1].t
    assert back[-1].criterion_accum == res.records[-1].criterion_accum


def test_parser_verbs():
    parser = build_parser()
    for verb in ("run", "verify-inequalities", "convergence", "report"):
        assert verb in parser.format_help()


def _with_steps(dt: float, t_end: float) -> str:
    text = MINIMAL.replace("dt = 0.001", f"dt = {dt!r}")
    return text.replace("t_end = 0.1", f"t_end = {t_end!r}")


@pytest.mark.parametrize("dt,t_end", [(0.003, 0.01), (0.001, 0.0005), (0.001, math.inf)])
def test_config_rejects_t_end_off_the_step_grid(dt, t_end):
    with pytest.raises(ConfigError, match="t_end"):
        parse_config_text(_with_steps(dt, t_end))


def test_cmd_run_t_end_off_the_step_grid_exit(tmp_path):
    """dt = 0.003 would silently stop at t = 0.009 if t_end were rounded."""
    path = tmp_path / "offgrid.cfg"
    path.write_text(_with_steps(0.003, 0.01))
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(path), "--out", out]) == 1
    assert not os.path.exists(os.path.join(out, "diagnostics.csv"))


SMALL_RUN = "nu = 1.0\ndt = 0.001\nt_end = 0.002\nnx = 8\nny = 8\nnz = 5\ninit = random\n"


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A config and the bytes of a checkpoint it wrote (with AB2 history)."""
    root = tmp_path_factory.mktemp("ckpt")
    cfg = root / "small.cfg"
    cfg.write_text(SMALL_RUN)
    assert main(["run", "--config", str(cfg), "--out", str(root / "out")]) == EXIT_OK
    return str(cfg), (root / "out" / "final.ckpt").read_bytes()


def _header_len(blob: bytes) -> int:
    return int.from_bytes(blob[9:13], "little")


#: where to cut a checkpoint, as a function of its bytes
CUTS = {
    "magic_only": lambda b: 8,
    "in_header_length": lambda b: 11,
    "in_header": lambda b: 13 + _header_len(b) // 2,
    "in_descriptor": lambda b: 13 + _header_len(b) + 10,
    "after_descriptor": lambda b: b.index(b"\n", 13 + _header_len(b)) + 1,
    "in_payload": lambda b: b.index(b"\n", 13 + _header_len(b)) + 101,
    "last_byte": lambda b: len(b) - 1,
}


def _write(tmp_path, blob: bytes) -> str:
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    return str(path)


def _restart_exit(tmp_path, cfg: str, blob: bytes) -> int:
    return main(["run", "--config", cfg, "--out", str(tmp_path / "resumed"),
                 "--restart", _write(tmp_path, blob)])


@pytest.mark.parametrize("cut", sorted(CUTS))
def test_truncated_checkpoint_exits_1(tmp_path, small_checkpoint, cut, capsys):
    cfg, blob = small_checkpoint
    bad = blob[:CUTS[cut](blob)]
    with pytest.raises(ConfigError, match="bad.ckpt"):
        read_checkpoint(_write(tmp_path, bad))
    assert _restart_exit(tmp_path, cfg, bad) == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_checkpoint_header_exits_1(tmp_path, small_checkpoint):
    cfg, blob = small_checkpoint
    assert blob[13:15] == b'{"'
    bad = blob[:14] + b"{" + blob[15:]  # '{{' is not JSON
    with pytest.raises(ConfigError, match="JSONDecodeError"):
        read_checkpoint(_write(tmp_path, bad))
    assert _restart_exit(tmp_path, cfg, bad) == 1


def test_missing_checkpoint_block_exits_1(tmp_path, small_checkpoint):
    cfg, blob = small_checkpoint
    bad = blob.replace(b"name=rhsw ", b"name=rhsx ", 1)
    assert bad != blob
    with pytest.raises(ConfigError, match="KeyError"):
        read_checkpoint(_write(tmp_path, bad))
    assert _restart_exit(tmp_path, cfg, bad) == 1
