"""Config parsing, CLI commands, checkpoints, and exit codes."""

import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import channelflow
from channelflow.cli import (
    EXIT_BLOWUP,
    EXIT_CHECK,
    EXIT_IO,
    EXIT_OK,
    build_parser,
    main,
    parse_config,
)
from channelflow.errors import ChannelFlowError, ConfigError
from channelflow.fields import Grid, Parity, ScalarField, read_field_block, write_field_block
from channelflow.io import (
    _CONFIG_KEYS,
    config_sha256,
    emit_config,
    parse_config_text,
    read_checkpoint,
    read_diagnostics_csv,
    write_checkpoint,
    write_diagnostics_csv,
)
from channelflow.monitor import DiagnosticsRecord
from channelflow.solver import InitRecipe, SolverConfig, VelocityState, run
from conftest import full_spectrum

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
    # every absent optional key takes its dataclass field default
    assert cfg == SolverConfig(nu=1.0, dt=0.001, t_end=0.1, grid=Grid(32, 32, 17),
                               init=InitRecipe("shear"))


def test_config_round_trip(config_path):
    cfg = parse_config(config_path)
    assert parse_config_text(emit_config(cfg)) == cfg
    assert len(config_sha256(cfg)) == 64


@pytest.mark.parametrize("line,fragment", [
    ("alpha = 3.0", "alpha"),        # theorem requires alpha > 3
    ("r = 4.0", "r"),                # r must lie in (3, 4)
    ("q = 1.0", "q"),
    ("nu = -1.0", "nu must be > 0"),
    ("mystery = 7", "mystery"),
])
def test_config_rejections_name_the_key(line, fragment):
    """The line replaces MINIMAL's line for the same key, so a range check
    is reached instead of the duplicate-key check."""
    key = line.split(" =")[0]
    text = "".join(ln + "\n" for ln in MINIMAL.splitlines() if not ln.startswith(key + " "))
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text + line + "\n")


def _reference_emit_config(config: SolverConfig) -> str:
    """The original hand-written emitter: the reference for the canonical text."""
    lines = [
        f"nu = {config.nu!r}",
        f"dt = {config.dt!r}",
        f"t_end = {config.t_end!r}",
        f"nx = {config.grid.nx}",
        f"ny = {config.grid.ny}",
        f"nz = {config.grid.nz}",
        f"dealias = {'on' if config.dealias else 'off'}",
        f"diag_every = {config.diag_every}",
        f"lambda1 = {config.lambda1!r}",
        f"r = {config.r!r}",
        f"q = {config.q!r}",
        f"alpha = {config.alpha!r}",
        f"scheme = {config.scheme}",
        f"init = {config.init.kind}",
        f"init_amplitude = {config.init.amplitude!r}",
        f"init_seed = {config.init.seed}",
        f"forcing = {config.forcing.kind}",
        f"forcing_amplitude = {config.forcing.amplitude!r}",
        f"forcing_seed = {config.forcing.seed}",
    ]
    return "\n".join(lines) + "\n"


#: every key set, none to its default
EVERY_KEY = """\
forcing_seed = 4
nu = 0.25
dt = 0.002
t_end = 0.04
nx = 16
ny = 12
nz = 9
dealias = off
diag_every = 3
lambda1 = 9.5
r = 3.25
q = 1.5
alpha = 5.0
scheme = cnab2
init = random
init_amplitude = 0.3
init_seed = 11
forcing = steady_shear
forcing_amplitude = 2.5
"""


@pytest.mark.parametrize("text", [EVERY_KEY, MINIMAL], ids=["every_key", "minimal"])
def test_emit_config_matches_the_reference_text(text):
    assert {ln.split(" =")[0] for ln in EVERY_KEY.splitlines()} == set(_CONFIG_KEYS)
    cfg = parse_config_text(text)
    assert emit_config(cfg) == _reference_emit_config(cfg)
    assert parse_config_text(emit_config(cfg)) == cfg


#: config_sha256 of the sample configs, fixed by the canonical text
SAMPLE_CONFIG_SHA256 = {
    "convergence_cnab2": "86b2f4bac7a1cab5335fcdd89b2453423788259247ee3a245ef7d10535d8bcb8",
    "forced": "36fd354914a31ef2d8793870873dd110a85124a38d501a498401fc0b6780ff84",
    "shear": "91ff36679d534edfad2e3397329d13b21e1049c76cb6de625f706b5bd3cbffc3",
    "taylor_green": "c725a02bd67e0823d0f4f4ae110e52848b5bf9be9f36cde32c844b50b25fe156",
}


@pytest.mark.parametrize("name", sorted(SAMPLE_CONFIG_SHA256))
def test_sample_config_digests_unchanged(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.cfg")
    assert config_sha256(parse_config(path)) == SAMPLE_CONFIG_SHA256[name]


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
    lines = pathlib.Path(out, "diagnostics.csv").read_text().splitlines()
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
    lines = pathlib.Path(out, "diagnostics.csv").read_text().splitlines()
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


def test_cmd_run_undealiased_random_state(tmp_path):
    """Undealiased states carry the Nyquist lines; their first derivatives
    must stay Hermitian (symbol 0 there), or the inverse refuses them."""
    path = tmp_path / "undealiased.cfg"
    path.write_text("nu = 1.0\ndt = 0.001\nt_end = 0.005\nnx = 16\nny = 16\nnz = 9\n"
                    "init = random\ndealias = off\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK


def test_undealiased_checkpoint_restarts_with_dealias_on_exit_1(tmp_path, capsys):
    """A dealias = off checkpoint holds coefficients outside the 2/3-rule
    box, which a dealias = on run would drop, mixing the two
    discretisations: that restart is a config error naming dealias, and
    writes nothing.  Restarted with dealias = off it runs."""
    text = ("nu = 1.0\ndt = 0.001\nt_end = {t}\nnx = 16\nny = 16\nnz = 9\n"
            "init = random\ninit_seed = 3\nforcing = random\ndealias = {d}\n")
    paths = {}
    for name, t, d in (("first", 0.004, "off"), ("on", 0.008, "on"), ("off", 0.008, "off")):
        paths[name] = tmp_path / f"{name}.cfg"
        paths[name].write_text(text.format(t=t, d=d))
    first = tmp_path / "first"
    assert main(["run", "--config", str(paths["first"]), "--out", str(first)]) == EXIT_OK
    capsys.readouterr()
    restart = ["--restart", str(first / "final.ckpt")]
    out = tmp_path / "on"
    assert main(["run", "--config", str(paths["on"]), "--out", str(out), *restart]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "dealias" in err
    assert not out.exists()
    assert main(["run", "--config", str(paths["off"]), "--out", str(tmp_path / "off"),
                 *restart]) == EXIT_OK


def test_final_checkpoint_independent_of_blas_threads(tmp_path):
    """The inverse z pass is a BLAS product, so a run must not depend on
    the BLAS thread count (restarts compare checkpoints byte for byte).
    At 48x48x33 the product is large enough for a threaded BLAS to split."""
    path = tmp_path / "forced.cfg"
    path.write_text("nu = 0.5\ndt = 0.001\nt_end = 0.01\nnx = 48\nny = 48\nnz = 33\n"
                    "init = zero\nforcing = random\nforcing_seed = 42\ndiag_every = 5\n")
    src = os.path.dirname(os.path.dirname(channelflow.__file__))
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = {**os.environ, "CHANNELFLOW_THREADS": "1", "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "channelflow.cli", "run", "--config",
                               str(path), "--out", str(out)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        blobs.append((out / "final.ckpt").read_bytes())
    assert blobs[0] == blobs[1]


def test_package_import_defaults_blas_threads_to_channelflow_threads():
    """OpenBLAS and OpenMP size their pools when numpy loads them, so
    importing the package sets both from CHANNELFLOW_THREADS (default 1)
    first; a variable the user set wins, and a bad CHANNELFLOW_THREADS
    sets nothing (the CLI reports it)."""
    src = os.path.dirname(os.path.dirname(channelflow.__file__))
    base = {k: v for k, v in os.environ.items()
            if k not in ("CHANNELFLOW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = ("import os, channelflow; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))")
    for env, want in (({"CHANNELFLOW_THREADS": "2"}, "2 2"),
                      ({}, "1 1"),
                      ({"CHANNELFLOW_THREADS": "2", "OPENBLAS_NUM_THREADS": "3"}, "3 2"),
                      ({"CHANNELFLOW_THREADS": "abc"}, "None None")):
        proc = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == want, env


@pytest.mark.parametrize("value", ["abc", "0", "-2", "2.5"])
def test_bad_thread_count_is_a_config_error_before_any_output(tmp_path, monkeypatch, capsys,
                                                             config_path, value):
    monkeypatch.setenv("CHANNELFLOW_THREADS", value)
    out = tmp_path / "out"
    for argv in (["run", "--config", config_path, "--out", str(out)],
                 ["verify-inequalities", "--count", "1", "--grid", "8", "8", "5",
                  "--out", str(out)]):
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "CHANNELFLOW_THREADS" in err
        assert not out.exists()


def test_cmd_run_blowup_before_first_record_lists_only_written_outputs(tmp_path):
    """A state that is non-finite from the first step leaves no record, so
    no report; the manifest must not list one."""
    path = tmp_path / "instant.cfg"
    path.write_text("nu = 1.0\ndt = 0.001\nt_end = 0.01\nnx = 8\nny = 8\nnz = 5\n"
                    "init = random\ninit_amplitude = 1e200\ndiag_every = 1\n")
    out = tmp_path / "boom"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_BLOWUP
    assert not (out / "report.txt").exists()
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(outputs) == ["checkpoint", "diagnostics"]
    assert all(os.path.exists(p) for p in outputs.values())


def _package_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(channelflow.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_cmd_run_blowup_prints_only_its_message(tmp_path):
    """The 1e200 state's first step printed six numpy RuntimeWarnings, with
    their source lines, before "blow-up at t=0.0": the blow-up test on the
    step's energy handles overflow and NaN, so stderr stays empty and the
    blow-up line is all the run prints."""
    path = tmp_path / "instant.cfg"
    path.write_text("nu = 1.0\ndt = 0.001\nt_end = 0.01\nnx = 8\nny = 8\nnz = 5\n"
                    "init = random\ninit_amplitude = 1e200\ndiag_every = 1\n")
    out = tmp_path / "boom"
    proc = subprocess.run([sys.executable, "-m", "channelflow.cli", "run", "--config",
                           str(path), "--out", str(out)], env=_package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_BLOWUP
    assert proc.stderr == ""
    assert proc.stdout == f"blow-up at t=0.0; partial outputs in {out}\n"


def test_package_and_cli_import_no_scipy():
    """Importing scipy.fft cost every run 0.27 s and 27 MB: the package and
    its CLI load no scipy module."""
    code = ("import sys, channelflow, channelflow.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("extra,finite", [("init_amplitude = 1e60\n", "True"),
                                          ("init_amplitude = 1e4\nalpha = 60.0\n", "False")],
                         ids=["v0_h1_pow_6", "pz_norm_pow_alpha"])
def test_cmd_run_huge_norm_powers_saturate_to_inf(tmp_path, extra, finite):
    """A power of a huge norm (||v0||_{H1}^6 in K_R, ||p_z||^alpha in the
    criterion) overflowed a Python float into a traceback with no report;
    it saturates to inf, and the blow-up run writes its full report.  The
    norm itself is representable: ||p_z||_{L^4} of the 1e60 state (about
    1e120) overflowed to inf in |p_z|^4, and is now finite."""
    path = tmp_path / "huge.cfg"
    path.write_text("nu = 1.0\ndt = 0.001\nt_end = 0.01\nnx = 8\nny = 8\nnz = 5\n"
                    "init = random\ndiag_every = 1\n" + extra)
    out = tmp_path / "boom"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_BLOWUP
    report = (out / "report.txt").read_text()
    assert "kr = inf\n" in report and f"criterion_finite = {finite}\n" in report
    assert math.isfinite(read_diagnostics_csv(str(out / "diagnostics.csv"))[0].pz_norm)
    assert sorted(json.loads((out / "manifest.json").read_text())["outputs"]) == [
        "checkpoint", "diagnostics", "report"]


@pytest.mark.parametrize("argv,named", [
    (["run"], "--config"),
    (["verify-inequalities", "--count", "abc"], "--count"),
    ([], "command"),
    (["convergence", "--config", "c.cfg", "--out", "d"], "--out"),
], ids=["missing_config", "bad_count", "no_verb", "convergence_out"])
def test_usage_errors_are_config_errors(argv, named, capsys):
    """argparse's usage exit (2) is the blow-up code; a usage error is a
    config error naming the argument (exit 1)."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_cmd_run_bad_config_exit(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(MINIMAL + "alpha = 3.0\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1


def test_cmd_run_non_utf8_config_exits_1(tmp_path, capsys):
    """Bytes that are not UTF-8 were a UnicodeDecodeError traceback."""
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"\xff\xfe\x00nu = 1.0\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "binary.cfg" in err


def test_cmd_report_non_utf8_csv_exits_1(tmp_path, config_path, capsys):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"t,\xff\xfe\n")
    assert main(["report", "--csv", str(path), "--config", config_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "binary.csv" in err


def test_checkpoint_write_read_write_identical(tmp_path, grid):
    from channelflow.solver import random_divergence_free_state

    state = random_divergence_free_state(grid, seed=3)
    p1 = str(tmp_path / "a.ckpt")
    p2 = str(tmp_path / "b.ckpt")
    write_checkpoint(p1, state, None)
    st, prev = read_checkpoint(p1)
    assert prev is None
    write_checkpoint(p2, st, prev)
    assert pathlib.Path(p1).read_bytes() == pathlib.Path(p2).read_bytes()


def _reference_checkpoint(state: VelocityState, prev_rhs) -> bytes:
    """The version-1 checkpoint of a state with history as one blob, built
    without the package's writer: magic, version, header length, canonical
    JSON header, then per block its descriptor line and full spectrum."""
    names = ["v1", "v2", "w", "rhs1", "rhs2", "rhsw"]
    parities = ["even", "even", "odd", "even", "even", "odd"]
    halves = [state.v1.data, state.v2.data, state.w.data, *prev_rhs]
    header = json.dumps({"t": state.t, "has_history": True, "fields": names},
                        sort_keys=True, separators=(",", ":")).encode()
    parts = [b"CHFLOWCK", bytes([1]), len(header).to_bytes(4, "little"), header]
    g = state.grid
    for name, parity, half in zip(names, parities, halves):
        parts.append(f"name={name} parity={parity} rep=spectral nx={g.nx} ny={g.ny} "
                     f"nz={g.nz}\n".encode("ascii"))
        parts.append(full_spectrum(half, g.ny).astype("<c16").tobytes())
    return b"".join(parts)


def test_streamed_checkpoint_matches_single_blob_encoding(tmp_path):
    """The writer streams the header and then one block at a time; its file
    is the single-blob encoding byte for byte, on a non-square grid with
    AB2 history, and reads back to the same state and history."""
    text = ("nu = 1.0\ndt = 0.001\nt_end = 0.002\nnx = 12\nny = 10\nnz = 7\n"
            "init = random\ninit_seed = 4\nforcing = random\n")
    result = run(parse_config_text(text))
    state, prev_rhs = result.final_state, result.final_rhs
    path = str(tmp_path / "a.ckpt")
    write_checkpoint(path, state, prev_rhs)
    blob = pathlib.Path(path).read_bytes()
    assert blob == _reference_checkpoint(state, prev_rhs)
    back, back_rhs = read_checkpoint(path)
    assert back.t == state.t
    for got, want in zip((back.v1, back.v2, back.w, *back_rhs),
                         (state.v1, state.v2, state.w, *prev_rhs)):
        assert np.array_equal(getattr(got, "data", got), getattr(want, "data", want))


@pytest.mark.parametrize("scheme", ["etdab2", "cnab2"])
def test_restart_reproduces_trajectory_bit_exactly(tmp_path, monkeypatch, scheme):
    monkeypatch.setenv("CHANNELFLOW_THREADS", "1")
    text = MINIMAL + f"scheme = {scheme}\n"
    config_path = str(tmp_path / "full.cfg")
    (tmp_path / "full.cfg").write_text(text)
    half_cfg = tmp_path / "half.cfg"
    half_cfg.write_text(text.replace("t_end = 0.1", "t_end = 0.05"))
    full_out = str(tmp_path / "full")
    half_out = str(tmp_path / "half")
    resumed_out = str(tmp_path / "resumed")
    assert main(["run", "--config", config_path, "--out", full_out]) == EXIT_OK
    assert main(["run", "--config", str(half_cfg), "--out", half_out]) == EXIT_OK
    assert main(["run", "--config", config_path, "--out", resumed_out,
                 "--restart", os.path.join(half_out, "final.ckpt")]) == EXIT_OK
    full = pathlib.Path(full_out, "final.ckpt").read_bytes()
    resumed = pathlib.Path(resumed_out, "final.ckpt").read_bytes()
    assert full == resumed


def test_restart_reads_and_steps_on_one_grid(tmp_path, small_checkpoint, monkeypatch):
    """Each checkpoint block was decoded onto a Grid of its own, so a
    restored state carried equal grids, none of them config.grid, and its
    first step built a second set of full-size symbols.  The reader now
    builds one grid for every block, history included, and the run steps
    on config.grid only."""
    cfg, blob = small_checkpoint
    built = []
    post_init = Grid.__post_init__
    monkeypatch.setattr(Grid, "__post_init__", lambda g: post_init(g) or built.append(g))
    state, prev_rhs = read_checkpoint(_write(tmp_path, blob))
    assert len(built) == 1
    restored = built[0]
    assert state.v1.grid is restored and state.v2.grid is restored and state.w.grid is restored
    assert prev_rhs is not None
    config = parse_config_text(SMALL_RUN.replace("t_end = 0.002", "t_end = 0.004"))
    result = run(config, restart=(state, prev_rhs))
    assert not result.blowup and result.final_state.t == pytest.approx(0.004)
    for st in (result.initial_state, result.final_state):
        assert st.v1.grid is config.grid and st.v2.grid is config.grid
        assert st.w.grid is config.grid
    assert [n for n, v in vars(restored).items() if isinstance(v, np.ndarray)] == []


def test_cmd_verify_inequalities(tmp_path):
    out = str(tmp_path / "ineq")
    assert main(["verify-inequalities", "--count", "3", "--grid", "16", "16", "9",
                 "--out", out]) == EXIT_OK
    lines = pathlib.Path(out, "inequalities.csv").read_text().splitlines()
    assert len(lines) - 1 == 3 * 7  # one row per (inequality, field)


@pytest.mark.parametrize("grid", [("32", "8", "17"), ("16", "8", "9")])
def test_cmd_verify_inequalities_on_a_narrow_grid(tmp_path, grid):
    """With ny < nx the sweep's seeded states took the kx cap for ky too
    and exited 3 ("ky=8 outside resolvable range for ny=8"); they are now
    capped at min(max_kx, max_ky)."""
    out = str(tmp_path / "ineq")
    assert main(["verify-inequalities", "--count", "2", "--grid", *grid,
                 "--out", out]) == EXIT_OK
    lines = pathlib.Path(out, "inequalities.csv").read_text().splitlines()
    assert len(lines) - 1 == 2 * 7


def test_cmd_verify_inequalities_negative_control(tmp_path):
    out = str(tmp_path / "ineq_neg")
    code = main(["verify-inequalities", "--count", "2", "--grid", "16", "16", "9",
                 "--out", out, "--self-test"])
    assert code == EXIT_CHECK


@pytest.mark.parametrize("grid", [("7", "8", "5"), ("8", "8", "4")], ids=["odd_nx", "small_nz"])
def test_cmd_verify_inequalities_bad_grid_exits_1(tmp_path, grid, capsys):
    """An invalid --grid exited 3, as if a check had failed."""
    out = tmp_path / "ineq"
    assert main(["verify-inequalities", "--count", "1", "--grid", *grid,
                 "--out", str(out)]) == 1
    assert "--grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb,name", [("run", "diagnostics.csv"),
                                       ("verify-inequalities", "inequalities.csv")])
def test_output_file_that_is_a_directory_exits_1(tmp_path, verb, name, capsys):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_RUN)
    args = ["--config", str(cfg)] if verb == "run" else ["--count", "1", "--grid", "8", "8", "5"]
    assert main([verb, *args, "--out", str(out)]) == 1
    assert "I/O error" in capsys.readouterr().err


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
    assert rendered == pathlib.Path(out, "report.txt").read_text()


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


_T_ORDER = "t must be finite and strictly increasing, got "

#: how to spoil the second data row (line 3, t = 1.0 after 0.0) of a diagnostics CSV
CSV_SPOILERS = {
    "short_row": (lambda row: row.rsplit(",", 1)[0], "expected 12 columns, got 11"),
    "long_row": (lambda row: row + ",1.0", "expected 12 columns, got 13"),
    "non_numeric": (lambda row: row.replace("2.0", "abc", 1), "could not convert"),
    "t_nan": (lambda row: "nan" + row[3:], _T_ORDER + "nan"),
    "t_inf": (lambda row: "inf" + row[3:], _T_ORDER + "inf"),
    "t_repeated": (lambda row: "0.0" + row[3:], _T_ORDER + "0.0"),
    "t_decreasing": (lambda row: "-1.0" + row[3:], _T_ORDER + "-1.0"),
}


@pytest.mark.parametrize("spoil", sorted(CSV_SPOILERS))
def test_malformed_diagnostics_csv_exits_1(tmp_path, config_path, spoil, capsys):
    """A bad row was an IndexError/ValueError traceback, or a 13th value
    silently taken as forcing_power; a non-finite t was a traceback, and a
    t out of order a verdict over a negative horizon."""
    path = str(tmp_path / "d.csv")
    write_diagnostics_csv(path, [DiagnosticsRecord(*(float(k + i) for i in range(12)))
                                 for k in range(2)])
    mutate, fragment = CSV_SPOILERS[spoil]
    lines = pathlib.Path(path).read_text().splitlines()
    lines[2] = mutate(lines[2])
    pathlib.Path(path).write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"d.csv: line 3: {fragment}"):
        read_diagnostics_csv(path)
    assert main(["report", "--csv", path, "--config", config_path]) == 1
    assert "line 3" in capsys.readouterr().err


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


@pytest.mark.parametrize("short", [1, 17, 1000])
def test_checkpoint_cut_in_last_payload_names_the_block(tmp_path, small_checkpoint, short):
    """The reader takes one block at a time from the open file: a payload
    that ends early is a short read of that block, not a shorter array."""
    cfg, blob = small_checkpoint
    bad = blob[:-short]
    with pytest.raises(ConfigError, match=r"bad\.ckpt: corrupt checkpoint \(InvalidFieldError: "
                                          r"block 'rhsw' is cut short \(\d+ of 5120 payload"):
        read_checkpoint(_write(tmp_path, bad))
    assert _restart_exit(tmp_path, cfg, bad) == 1


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
    with pytest.raises(ConfigError, match="corrupt checkpoint .*block 'rhsx' is odd, "
                                          "expected 'rhsw'"):
        read_checkpoint(_write(tmp_path, bad))
    assert _restart_exit(tmp_path, cfg, bad) == 1


def _encode(name: str, f: ScalarField) -> bytes:
    """The bytes of one checkpoint block, as the writer streams them."""
    buf = io.BytesIO()
    write_field_block(buf, name, f)
    return buf.getvalue()


def _decode_at(blob: bytes, offset: int) -> tuple[str, ScalarField, int]:
    """(name, field, offset of the next block) of the block at `offset`."""
    fh = io.BytesIO(blob)
    fh.seek(offset)
    name, field = read_field_block(fh)
    return name, field, fh.tell()


def _replace_block(blob: bytes, name: str, block: bytes) -> bytes:
    """The checkpoint `blob` with its block called `name` replaced."""
    offset = 13 + _header_len(blob)
    parts = [blob[:offset]]
    while offset < len(blob):
        got, _, end = _decode_at(blob, offset)
        parts.append(block if got == name else blob[offset:end])
        offset = end
    return b"".join(parts)


def _one_coefficient_block(name: str, parity: Parity, value: float) -> bytes:
    data = np.zeros(Grid(8, 8, 5).spectral_shape, np.complex128)
    data[1, 2, 3] = value
    return _encode(name, ScalarField.spectral(Grid(8, 8, 5), parity, data))


#: well-formed blocks that no checkpoint writer produces: (block replaced,
#: its new bytes, a fragment of the error)
CRAFTED_BLOCKS = {
    "physical": ("w", b"name=w parity=odd rep=physical nx=8 ny=8 nz=5\n"
                 + np.zeros(320).tobytes(), "block 'w' is 'physical'"),
    "other_grid": ("w", _encode("w", ScalarField.zeros(Grid(10, 8, 5), Parity.ODD_Z)),
                   "different grids"),
    "v1_nan": ("v1", _one_coefficient_block("v1", Parity.EVEN_Z, math.nan),
               "block 'v1' has non-finite"),
    "rhs1_nan": ("rhs1", _one_coefficient_block("rhs1", Parity.EVEN_Z, math.nan),
                 "block 'rhs1' has non-finite"),
    "v2_inf": ("v2", _one_coefficient_block("v2", Parity.EVEN_Z, -math.inf),
               "block 'v2' has non-finite"),
    "rhsw_evenz": ("rhsw", _encode("rhsw", ScalarField.from_modes(
        Grid(8, 8, 5), Parity.EVEN_Z, {(0, 0, 0): 1.0})), "block 'rhsw' is even, expected"),
    "v1_oddz": ("v1", _encode("v1", ScalarField.zeros(Grid(8, 8, 5), Parity.ODD_Z)),
                "block 'v1' is odd, expected"),
    "v1_named_v2": ("v1", _encode("v2", ScalarField.zeros(Grid(8, 8, 5), Parity.EVEN_Z)),
                    "block 'v2' is even, expected 'v1'"),
    "trailing_bytes": ("rhsw", _encode("rhsw", ScalarField.zeros(Grid(8, 8, 5),
                                                                            Parity.ODD_Z))
                       + bytes(7), "7 bytes after the last block"),
}


@pytest.mark.parametrize("craft", sorted(CRAFTED_BLOCKS))
def test_crafted_checkpoint_block_exits_1(tmp_path, small_checkpoint, craft, capsys):
    """A physical block exited 3, a block on another grid gave a
    broadcasting traceback, a non-finite coefficient restarted as a
    blow-up (exit 2), an EvenZ rhsw block exited 3 and trailing bytes
    were ignored (exit 0); all are corrupt checkpoints."""
    cfg, blob = small_checkpoint
    name, block, fragment = CRAFTED_BLOCKS[craft]
    bad = _replace_block(blob, name, block)
    assert bad != blob
    with pytest.raises(ConfigError, match=f"bad.ckpt: corrupt checkpoint .*{fragment}"):
        read_checkpoint(_write(tmp_path, bad))
    assert _restart_exit(tmp_path, cfg, bad) == 1
    assert "corrupt checkpoint" in capsys.readouterr().err


def _coefficient_offset(blob: bytes, name: str, ix: int, iy: int, m: int) -> int:
    """Byte offset of coefficient (ix, iy, m) of block `name` in `blob`; the
    blocks hold the full (nx, ny, nz) spectrum."""
    offset = 13 + _header_len(blob)
    while True:
        got, field, end = _decode_at(blob, offset)
        if got == name:
            g = field.grid
            return blob.index(b"\n", offset) + 1 + 16 * ((ix * g.ny + iy) * g.nz + m)
        offset = end


def _nudge_coefficient(blob: bytes, name: str, ix: int, iy: int, m: int, delta: complex) -> bytes:
    """The checkpoint `blob` with one coefficient of block `name` moved by
    `delta` and its conjugate partner left as it is."""
    at = _coefficient_offset(blob, name, ix, iy, m)
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.frombuffer(blob[at:at + 16], "<c16") + np.complex128(delta)
    return blob[:at] + value.astype("<c16").tobytes() + blob[at + 16:]


#: (kx, ky, m) indices in the 8 x 8 x 5 blocks: a coefficient the reader
#: drops (ky < 0) and one on each self-partnered column it keeps
BROKEN_SYMMETRY_SLOTS = {"ky_negative": (1, 6, 1), "ky0_column": (1, 0, 1),
                         "ky_nyquist_column": (3, 4, 0)}


@pytest.mark.parametrize("slot", sorted(BROKEN_SYMMETRY_SLOTS))
def test_checkpoint_with_broken_hermitian_symmetry_exits_1(tmp_path, small_checkpoint, slot,
                                                           capsys):
    """A v1 coefficient moved by 0.05 without its partner restarted into the
    inverse transform's symmetry check (exit 3); the reader now rejects the
    block as a corrupt checkpoint.  Roundoff-sized moves still read."""
    cfg, blob = small_checkpoint
    ix, iy, m = BROKEN_SYMMETRY_SLOTS[slot]
    bad = _nudge_coefficient(blob, "v1", ix, iy, m, 0.05)
    with pytest.raises(ConfigError, match="bad.ckpt: corrupt checkpoint .*block 'v1' breaks "
                                          "Hermitian symmetry"):
        read_checkpoint(_write(tmp_path, bad))
    assert _restart_exit(tmp_path, cfg, bad) == 1
    assert "corrupt checkpoint" in capsys.readouterr().err
    state, _ = read_checkpoint(_write(tmp_path, _nudge_coefficient(blob, "v1", ix, iy, m, 1e-13)))
    ref, _ = read_checkpoint(_write(tmp_path, blob))
    assert np.max(np.abs(state.v1.data - ref.v1.data)) <= 1e-13


def _with_header(blob: bytes, **values) -> bytes:
    """The checkpoint `blob` with header keys set to JSON `values`."""
    hlen = _header_len(blob)
    header = json.loads(blob[13:13 + hlen])
    header.update(values)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return blob[:9] + len(text).to_bytes(4, "little") + text + blob[13 + hlen:]


BAD_HEADER_VALUES = {
    "t_text": ("t", "abc"), "t_null": ("t", None), "t_nan": ("t", math.nan),
    "t_inf": ("t", math.inf), "t_negative": ("t", -0.001), "t_bool": ("t", True),
    "t_list": ("t", [0.002]), "t_int_overflow": ("t", 10**400),
    "history_int": ("has_history", 1), "history_text": ("has_history", "yes"),
    "history_null": ("has_history", None), "history_false": ("has_history", False),
    "fields_reordered": ("fields", ["v2", "v1", "w", "rhs1", "rhs2", "rhsw"]),
    "fields_without_history": ("fields", ["v1", "v2", "w"]),
}


@pytest.mark.parametrize("case", sorted(BAD_HEADER_VALUES))
def test_bad_checkpoint_header_value_exits_1(tmp_path, small_checkpoint, case, capsys):
    """A header t that is not a finite number >= 0 gave a TypeError or
    ValueError traceback on restart; both header values are now checked."""
    cfg, blob = small_checkpoint
    key, value = BAD_HEADER_VALUES[case]
    bad = _with_header(blob, **{key: value})
    with pytest.raises(ConfigError, match="bad.ckpt: corrupt checkpoint"):
        read_checkpoint(_write(tmp_path, bad))
    assert _restart_exit(tmp_path, cfg, bad) == 1
    assert "corrupt checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("t_end", ["0.002", "0.001"])
def test_restart_at_or_past_t_end_exits_1(tmp_path, small_checkpoint, t_end, capsys):
    """A restart at or past t_end exited 0 with a one-row CSV."""
    cfg, blob = small_checkpoint
    assert read_checkpoint(_write(tmp_path, blob))[0].t == pytest.approx(0.002)
    short = tmp_path / "short.cfg"
    short.write_text(pathlib.Path(cfg).read_text().replace("t_end = 0.002", f"t_end = {t_end}"))
    assert _restart_exit(tmp_path, str(short), blob) == 1
    assert "t_end" in capsys.readouterr().err
    assert not (tmp_path / "resumed").exists()


def test_restart_off_the_step_grid_exits_1(tmp_path, capsys):
    """A checkpoint at t = 0.0015 restarted with dt = 0.001 rounded its
    start step to 2, stopped at t = 0.0025 and exited 0."""
    first = tmp_path / "first.cfg"
    first.write_text(SMALL_RUN.replace("dt = 0.001", "dt = 0.0005")
                     .replace("t_end = 0.002", "t_end = 0.0015"))
    assert main(["run", "--config", str(first), "--out", str(tmp_path / "first")]) == EXIT_OK
    second = tmp_path / "second.cfg"
    second.write_text(SMALL_RUN.replace("t_end = 0.002", "t_end = 0.003"))
    blob = (tmp_path / "first" / "final.ckpt").read_bytes()
    capsys.readouterr()
    assert _restart_exit(tmp_path, str(second), blob) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "dt" in err
    assert not (tmp_path / "resumed").exists()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=4),
    max_leaves=8)

_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    st.tuples(st.just("overwrite"), st.integers(min_value=0),
              st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("header"), st.sampled_from(["t", "has_history", "fields"]),
              _JSON_VALUES),
    # one coefficient of one block, anywhere in its full (8, 8, 5) spectrum:
    # the ky < 0 half the reader drops, or the ky >= 0 half it keeps
    st.tuples(st.just("coefficient"), st.sampled_from(["v1", "v2", "w", "rhs1", "rhs2", "rhsw"]),
              st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 4)),
              st.complex_numbers(max_magnitude=1e3) | st.sampled_from([1e-13, 1e-9j, math.nan])),
)


def _mutate(blob: bytes, mutation) -> bytes:
    kind, where, *what = mutation
    if kind == "header":
        return _with_header(blob, **{where: what[0]})
    if kind == "coefficient":
        return _nudge_coefficient(blob, where, *what[0], what[1])
    at = where % len(blob)
    if kind == "truncate":
        return blob[:at]
    return blob[:at] + what[0] + blob[at + len(what[0]):]


@settings(max_examples=200, deadline=None)
@given(mutation=_MUTATIONS)
def test_checkpoint_fuzz(small_checkpoint, tmp_path_factory, mutation):
    """A truncated, overwritten or re-valued checkpoint reads as a valid
    state or raises a ChannelFlowError subclass, never anything else."""
    _, blob = small_checkpoint
    path = tmp_path_factory.mktemp("fuzz") / "fuzzed.ckpt"
    mutated = _mutate(blob, mutation)
    path.write_bytes(mutated)
    try:
        state, prev_rhs = read_checkpoint(str(path))
    except ChannelFlowError:
        return
    assert isinstance(state, VelocityState)
    assert isinstance(state.t, float) and math.isfinite(state.t) and state.t >= 0
    shape = state.v1.data.shape
    assert state.v2.data.shape == shape and state.w.data.shape == shape
    assert prev_rhs is None or [a.shape for a in prev_rhs] == [shape] * 3
    if mutation[0] == "coefficient":
        # an accepted block is the file's full spectrum to the structural tolerance
        name = mutation[1]
        grid = state.grid
        at = _coefficient_offset(mutated, name, 0, 0, 0)
        stored = np.frombuffer(mutated[at:at + 16 * grid.nx * grid.ny * grid.nz], "<c16")
        stored = stored.reshape(grid.nx, grid.ny, grid.nz)
        kept = {"v1": state.v1.data, "v2": state.v2.data, "w": state.w.data,
                **dict(zip(("rhs1", "rhs2", "rhsw"), prev_rhs))}[name]
        scale = max(1.0, float(np.max(np.abs(stored))))
        assert np.max(np.abs(full_spectrum(kept, grid.ny) - stored)) <= 2e-10 * scale


# ---------------------------------------------------------------------------
# report on restarted segments
# ---------------------------------------------------------------------------

SEGMENT = """\
nu = 0.5
dt = 0.001
t_end = {t_end}
nx = 16
ny = 16
nz = 9
init = random
init_amplitude = 0.3
init_seed = 3
forcing = random
forcing_seed = 4
diag_every = 2
"""


def test_report_on_each_restarted_segment_matches_its_run(tmp_path, capsys):
    """`report` on a restarted segment's CSV used the wrong horizon (exit 3)."""
    restart = []
    for k, t_end in enumerate(("0.004", "0.008"), start=1):
        cfg = tmp_path / f"seg{k}.cfg"
        cfg.write_text(SEGMENT.format(t_end=t_end))
        out = tmp_path / f"seg{k}"
        assert main(["run", "--config", str(cfg), "--out", str(out)] + restart) == EXIT_OK
        restart = ["--restart", str(out / "final.ckpt")]
        rerendered = tmp_path / f"report{k}"
        assert main(["report", "--csv", str(out / "diagnostics.csv"), "--config", str(cfg),
                     "--out", str(rerendered)]) == EXIT_OK
        assert (rerendered / "report.txt").read_bytes() == (out / "report.txt").read_bytes()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# bad seeds and non-finite values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("line,fragment", [
    ("init_seed = -1", "init_seed"),
    ("forcing_seed = -5", "forcing_seed"),
    ("init_amplitude = nan", "init_amplitude"),
    ("forcing_amplitude = inf", "forcing_amplitude"),
    ("nu = inf", "nu"),
    ("dt = inf", "dt"),
    ("lambda1 = inf", "lambda1"),
    ("q = inf", "q"),
    ("alpha = nan", "alpha"),
])
def test_bad_values_exit_1_naming_the_key(tmp_path, line, fragment, capsys):
    key = line.split(" =")[0]
    text = "".join(ln + "\n" for ln in SMALL_RUN.splitlines() if not ln.startswith(key + " "))
    path = tmp_path / "bad.cfg"
    path.write_text(text + "forcing = random\n" + line + "\n")
    with pytest.raises(ConfigError, match=fragment):
        parse_config(str(path))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_verify_inequalities_negative_seed_exits_1(tmp_path, capsys):
    argv = ["verify-inequalities", "--seed", "-1", "--count", "1", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "seed" in capsys.readouterr().err


FULL_CONFIG = {
    "nu": "0.5", "dt": "0.001", "t_end": "0.004", "nx": "8", "ny": "8", "nz": "5",
    "dealias": "on", "diag_every": "2", "lambda1": "9.8", "r": "3.5", "q": "2.0",
    "alpha": "4.0", "scheme": "etdab2", "init": "random", "init_amplitude": "0.3",
    "init_seed": "1", "forcing": "random", "forcing_amplitude": "1.0", "forcing_seed": "2",
}

_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-10**30, max_value=10**30).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e308", "-0", "0"]),
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(FULL_CONFIG)), value=st.one_of(st.text(), _NUMBERS))
def test_config_fuzz_one_key(key, value):
    """One key set to arbitrary text or numbers: a valid config with finite
    floats and non-negative seeds, or ConfigError.  Only parsed, never run."""
    assert set(FULL_CONFIG) == set(_CONFIG_KEYS)
    text = "".join(f"{k} = {value if k == key else v}\n" for k, v in FULL_CONFIG.items())
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    assert isinstance(cfg, SolverConfig)
    floats = (cfg.nu, cfg.dt, cfg.t_end, cfg.lambda1, cfg.r, cfg.q, cfg.alpha,
              cfg.init.amplitude, cfg.forcing.amplitude)
    assert all(math.isfinite(x) for x in floats)
    assert cfg.init.seed >= 0 and cfg.forcing.seed >= 0


BLOWUP = """\
nu = 0.001
dt = 0.001
t_end = 0.5
nx = 8
ny = 8
nz = 5
init = zero
forcing = random
forcing_amplitude = 100000.0
forcing_seed = 1
"""


@pytest.fixture(scope="module")
def blown_up_run(tmp_path_factory):
    """The config file and output directory of a run that blows up."""
    root = tmp_path_factory.mktemp("blowup")
    cfg = root / "blowup.cfg"
    cfg.write_text(BLOWUP)
    out = root / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_BLOWUP
    return cfg, out


def test_report_of_a_blown_up_run_matches_its_run(tmp_path, blown_up_run, capsys):
    """`report` read no blow-up from the CSV and printed `blow-up: False`."""
    cfg, out = blown_up_run
    rerendered = tmp_path / "report"
    assert main(["report", "--csv", str(out / "diagnostics.csv"), "--config", str(cfg),
                 "--out", str(rerendered)]) == EXIT_OK
    assert "blowup = True" in capsys.readouterr().out
    assert (rerendered / "report.txt").read_bytes() == (out / "report.txt").read_bytes()


def test_report_ignores_the_manifest_of_another_config(tmp_path, blown_up_run, capsys):
    cfg, out = blown_up_run
    other = tmp_path / "other.cfg"
    other.write_text(BLOWUP.replace("forcing_seed = 1", "forcing_seed = 2"))
    assert main(["report", "--csv", str(out / "diagnostics.csv"),
                 "--config", str(other)]) == EXIT_OK
    assert "blowup = False" in capsys.readouterr().out


@pytest.mark.parametrize("manifest,fragment", [
    (lambda sha: '{"blowup": tru', "not a JSON manifest"),
    (lambda sha: json.dumps({"config_sha256": sha, "blowup": True}),
     "manifest of this config without a bool blowup"),
    (lambda sha: json.dumps({"config_sha256": sha, "blowup": 1, "last_valid_time": 0.005}),
     "manifest of this config without a bool blowup"),
], ids=["not_json", "no_last_valid_time", "int_blowup"])
def test_report_beside_a_broken_manifest_of_its_config_exits_1(tmp_path, blown_up_run, capsys,
                                                                manifest, fragment):
    cfg, out = blown_up_run
    copy = tmp_path / "copy"
    copy.mkdir()
    (copy / "diagnostics.csv").write_bytes((out / "diagnostics.csv").read_bytes())
    (copy / "manifest.json").write_text(manifest(config_sha256(parse_config(str(cfg)))))
    assert main(["report", "--csv", str(copy / "diagnostics.csv"),
                 "--config", str(cfg)]) == EXIT_IO
    assert f"manifest.json: {fragment}" in capsys.readouterr().err
