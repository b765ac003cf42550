"""On-disk formats: plain-text configs, diagnostics CSV, inequality CSV,
binary checkpoints, criterion reports, and the run manifest.

Checkpoint layout (version 1): 8-byte magic ``CHFLOWCK``, one version byte,
a 4-byte little-endian header length, a canonical JSON header carrying the
time stamp and the ordered field names, then one block per field (ASCII
descriptor line + raw little-endian float64 payload; complex coefficients
are (re, im) pairs).  Write -> read -> write is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import ConfigError, InvalidFieldError
from .fields import Grid, Parity, ScalarField, decode_field_block, encode_field_block
from .monitor import CriterionReport, DiagnosticsRecord
from .solver import ForcingRecipe, InitRecipe, SolverConfig, VelocityState

CHECKPOINT_MAGIC = b"CHFLOWCK"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# config text format (key = value, '#' comments)
# ---------------------------------------------------------------------------

_CONFIG_KEYS = (
    "nu", "dt", "t_end", "nx", "ny", "nz", "dealias", "diag_every", "lambda1",
    "r", "q", "alpha", "scheme", "init", "init_amplitude", "init_seed",
    "forcing", "forcing_amplitude", "forcing_seed",
)

_REQUIRED_KEYS = ("nu", "dt", "t_end", "nx", "ny", "nz", "init")


def emit_config(config: SolverConfig) -> str:
    """Canonical key = value rendering; floats use repr for exact round trips."""
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


def _parse_bool(key: str, raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("on", "true", "1", "yes"):
        return True
    if val in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be on/off, got {raw!r}")


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from exc


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from exc


def parse_config_text(text: str) -> SolverConfig:
    """Parse a key = value config; unknown keys and out-of-range values are
    rejected with the offending key named."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = raw
    missing = [k for k in _REQUIRED_KEYS if k not in pairs]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    try:
        grid = Grid(_parse_int("nx", pairs["nx"]), _parse_int("ny", pairs["ny"]),
                    _parse_int("nz", pairs["nz"]))
    except Exception as exc:
        raise ConfigError(f"grid: {exc}") from exc
    init = InitRecipe(
        kind=pairs["init"],
        amplitude=_parse_float("init_amplitude", pairs.get("init_amplitude", "1.0")),
        seed=_parse_int("init_seed", pairs.get("init_seed", "0")),
    )
    forcing = ForcingRecipe(
        kind=pairs.get("forcing", "none"),
        amplitude=_parse_float("forcing_amplitude", pairs.get("forcing_amplitude", "1.0")),
        seed=_parse_int("forcing_seed", pairs.get("forcing_seed", "0")),
    )
    return SolverConfig(
        nu=_parse_float("nu", pairs["nu"]),
        dt=_parse_float("dt", pairs["dt"]),
        t_end=_parse_float("t_end", pairs["t_end"]),
        grid=grid,
        init=init,
        forcing=forcing,
        dealias=_parse_bool("dealias", pairs.get("dealias", "on")),
        diag_every=_parse_int("diag_every", pairs.get("diag_every", "10")),
        lambda1=_parse_float("lambda1", pairs.get("lambda1", repr(math.pi**2))),
        r=_parse_float("r", pairs.get("r", "3.5")),
        q=_parse_float("q", pairs.get("q", "2.0")),
        alpha=_parse_float("alpha", pairs.get("alpha", "4.0")),
        scheme=pairs.get("scheme", "etdab2"),
    )


def config_sha256(config: SolverConfig) -> str:
    return hashlib.sha256(emit_config(config).encode()).hexdigest()


# ---------------------------------------------------------------------------
# CSV sinks
# ---------------------------------------------------------------------------

def write_diagnostics_csv(path: str, records: list[DiagnosticsRecord]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(DiagnosticsRecord.CSV_COLUMNS) + "\n")
        for rec in records:
            fh.write(",".join(repr(float(v)) for v in rec.csv_values()) + "\n")


def read_diagnostics_csv(path: str) -> list[DiagnosticsRecord]:
    """Rebuild records from the CSV schema (forcing_power is not persisted)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != DiagnosticsRecord.CSV_COLUMNS:
            raise ConfigError(f"unexpected diagnostics CSV header: {header}")
        out = []
        for line in fh:
            if not line.strip():
                continue
            vals = [float(tok) for tok in line.split(",")]
            out.append(DiagnosticsRecord(
                t=vals[0], energy=vals[1], gradh_v=vals[2], gradh_w=vals[3],
                vz=vals[4], wz=vals[5], pz_norm=vals[6], vtilde_r=vals[7],
                h1_v=vals[8], h1_w=vals[9], criterion_accum=vals[10],
                energy_residual=vals[11]))
    return out


INEQUALITY_CSV_COLUMNS = ("inequality", "field_index", "lhs", "rhs_structure",
                          "empirical_constant", "passed")


def write_inequality_csv(path: str, rows) -> None:
    """rows: iterable of (field_index, InequalityReport)."""
    with open(path, "w") as fh:
        fh.write(",".join(INEQUALITY_CSV_COLUMNS) + "\n")
        for idx, rep in rows:
            fh.write(f"{rep.name},{idx},{rep.lhs!r},{rep.rhs_structure!r},"
                     f"{rep.empirical_constant!r},{int(rep.passed)}\n")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def write_checkpoint(path: str, state: VelocityState,
                     prev_rhs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> None:
    grid = state.grid
    names = ["v1", "v2", "w"]
    fields = [state.v1, state.v2, state.w]
    if prev_rhs is not None:
        names += ["rhs1", "rhs2", "rhsw"]
        fields += [
            ScalarField.spectral(grid, Parity.EVEN_Z, prev_rhs[0]),
            ScalarField.spectral(grid, Parity.EVEN_Z, prev_rhs[1]),
            ScalarField.spectral(grid, Parity.ODD_Z, prev_rhs[2]),
        ]
    header = json.dumps({"t": state.t, "has_history": prev_rhs is not None,
                         "fields": names}, sort_keys=True, separators=(",", ":")).encode()
    parts = [CHECKPOINT_MAGIC, bytes([CHECKPOINT_VERSION]), struct.pack("<I", len(header)), header]
    parts += [encode_field_block(name, f) for name, f in zip(names, fields)]
    _atomic_write_bytes(path, b"".join(parts))


def read_checkpoint(path: str) -> tuple[VelocityState, tuple[np.ndarray, ...] | None]:
    """Load a checkpoint; a file that is not a whole, well-formed checkpoint
    raises ConfigError naming the path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: not a checkpoint file (bad magic)")
    try:
        if blob[8] != CHECKPOINT_VERSION:
            raise ConfigError(f"{path}: unsupported checkpoint version {blob[8]}")
        hlen = struct.unpack("<I", blob[9:13])[0]
        header = json.loads(blob[13:13 + hlen].decode())
        offset = 13 + hlen
        fields = {}
        for _ in header["fields"]:
            name, f, offset = decode_field_block(blob, offset)
            fields[name] = f
        state = VelocityState(fields["v1"], fields["v2"], fields["w"], header["t"])
        prev_rhs = None
        if header["has_history"]:
            prev_rhs = (fields["rhs1"].data, fields["rhs2"].data, fields["rhsw"].data)
    except (IndexError, KeyError, TypeError, ValueError, struct.error, InvalidFieldError) as exc:
        raise ConfigError(f"{path}: corrupt checkpoint ({type(exc).__name__}: {exc})") from exc
    return state, prev_rhs


# ---------------------------------------------------------------------------
# manifest and report files
# ---------------------------------------------------------------------------

def _atomic_write_bytes(path: str, blob: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_manifest(path: str, config: SolverConfig, started_at: str, finished_at: str,
                   outputs: dict[str, str], blowup: bool, exit_status: int) -> None:
    manifest = {
        "config": emit_config(config),
        "config_sha256": config_sha256(config),
        "started_at": started_at,
        "finished_at": finished_at,
        "outputs": outputs,
        "blowup": blowup,
        "exit_status": exit_status,
    }
    blob = json.dumps(manifest, sort_keys=True, indent=2).encode()
    _atomic_write_bytes(path, blob)


def write_report(path: str, report: CriterionReport) -> None:
    with open(path, "w") as fh:
        fh.write(report.to_text())
