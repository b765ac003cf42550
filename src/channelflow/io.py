"""On-disk formats: plain-text configs, diagnostics CSV, inequality CSV,
binary checkpoints, criterion reports, and the run manifest.

Checkpoint layout (version 1): 8-byte magic ``CHFLOWCK``, one version byte,
a 4-byte little-endian header length, a canonical JSON header carrying the
time stamp and the ordered field names, then one block per field (ASCII
descriptor line + raw little-endian payload of the full (nx, ny, nz)
spectrum as float64 (re, im) pairs), all on one grid.  Fields store the
ky >= 0 half: writing fills the ky < 0 half by conjugation, and reading
keeps the ky >= 0 half once the dropped half agrees with it.  Reading
accepts only the writer's layout: the fields v1, v2, w, then rhs1, rhs2,
rhsw iff has_history, in that order and parity (w and rhsw OddZ), with
nothing after the last block.  Write -> read -> write is byte-identical.
Both directions stream block by block: the writer encodes and writes one
block at a time, and the reader reads one block at a time from the open
file onto one grid instance, so neither holds the whole file in memory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from contextlib import contextmanager
from typing import BinaryIO, Iterator

import numpy as np

from .errors import ConfigError, InvalidFieldError, RepresentationError
from .fields import Grid, Parity, ScalarField, read_field_block, write_field_block
from .monitor import CriterionReport, DiagnosticsRecord
from .solver import ForcingRecipe, InitRecipe, SolverConfig, VelocityState

CHECKPOINT_MAGIC = b"CHFLOWCK"
CHECKPOINT_VERSION = 1

#: checkpoint blocks in file order and their parities; the AB2 history
#: blocks follow the state blocks iff the header's has_history is true
_STATE_BLOCKS = {"v1": Parity.EVEN_Z, "v2": Parity.EVEN_Z, "w": Parity.ODD_Z}
_HISTORY_BLOCKS = {"rhs1": Parity.EVEN_Z, "rhs2": Parity.EVEN_Z, "rhsw": Parity.ODD_Z}


# ---------------------------------------------------------------------------
# config text format (key = value, '#' comments)
# ---------------------------------------------------------------------------

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


def _parse_str(key: str, raw: str) -> str:
    return raw


def _emit_bool(value: bool) -> str:
    return "on" if value else "off"


#: key -> (owner, field, parser, emitter), in canonical emission order.  The
#: owner names the dataclass holding the value (the config itself, its grid,
#: init or forcing recipe); an absent optional key takes that field's default.
#: Floats are emitted with repr for exact round trips.
_CONFIG_TABLE = {
    "nu": ("config", "nu", _parse_float, repr),
    "dt": ("config", "dt", _parse_float, repr),
    "t_end": ("config", "t_end", _parse_float, repr),
    "nx": ("grid", "nx", _parse_int, str),
    "ny": ("grid", "ny", _parse_int, str),
    "nz": ("grid", "nz", _parse_int, str),
    "dealias": ("config", "dealias", _parse_bool, _emit_bool),
    "diag_every": ("config", "diag_every", _parse_int, str),
    "lambda1": ("config", "lambda1", _parse_float, repr),
    "r": ("config", "r", _parse_float, repr),
    "q": ("config", "q", _parse_float, repr),
    "alpha": ("config", "alpha", _parse_float, repr),
    "scheme": ("config", "scheme", _parse_str, str),
    "init": ("init", "kind", _parse_str, str),
    "init_amplitude": ("init", "amplitude", _parse_float, repr),
    "init_seed": ("init", "seed", _parse_int, str),
    "forcing": ("forcing", "kind", _parse_str, str),
    "forcing_amplitude": ("forcing", "amplitude", _parse_float, repr),
    "forcing_seed": ("forcing", "seed", _parse_int, str),
}

_CONFIG_KEYS = tuple(_CONFIG_TABLE)

_REQUIRED_KEYS = ("nu", "dt", "t_end", "nx", "ny", "nz", "init")


def emit_config(config: SolverConfig) -> str:
    """Canonical key = value rendering, one line per key of the table."""
    owners = {"config": config, "grid": config.grid, "init": config.init,
              "forcing": config.forcing}
    return "".join(f"{key} = {emit(getattr(owners[owner], name))}\n"
                   for key, (owner, name, _, emit) in _CONFIG_TABLE.items())


def _owner_fields(pairs: dict[str, str], owner: str) -> dict:
    """Parsed values of the keys `pairs` sets on one owner, by field name."""
    return {name: parse(key, pairs[key])
            for key, (own, name, parse, _) in _CONFIG_TABLE.items()
            if own == owner and key in pairs}


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
        if key not in _CONFIG_TABLE:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = raw
    missing = [k for k in _REQUIRED_KEYS if k not in pairs]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    try:
        grid = Grid(**_owner_fields(pairs, "grid"))
    except Exception as exc:
        raise ConfigError(f"grid: {exc}") from exc
    # arguments evaluate left to right, so a config with several bad values
    # reports the first of grid, init, forcing and then the remaining keys
    return SolverConfig(grid=grid, init=InitRecipe(**_owner_fields(pairs, "init")),
                        forcing=ForcingRecipe(**_owner_fields(pairs, "forcing")),
                        **_owner_fields(pairs, "config"))


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
    """Rebuild records from the CSV schema (forcing_power is not persisted);
    text that is not UTF-8, a row without exactly one number per column, or
    whose t is not finite and greater than the previous row's, raises
    ConfigError naming the path (and line)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    ncols = len(DiagnosticsRecord.CSV_COLUMNS)
    header = lines[0].strip().split(",")
    if tuple(header) != DiagnosticsRecord.CSV_COLUMNS:
        raise ConfigError(f"unexpected diagnostics CSV header: {header}")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split(",")
        if len(tokens) != ncols:
            raise ConfigError(f"{path}: line {lineno}: expected {ncols} columns, "
                              f"got {len(tokens)}")
        try:
            vals = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
        if not math.isfinite(vals[0]) or (out and vals[0] <= out[-1].t):
            raise ConfigError(f"{path}: line {lineno}: t must be finite and strictly "
                              f"increasing, got {vals[0]!r}")
        out.append(DiagnosticsRecord(*vals))
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
    """Write the checkpoint atomically (a temp file in the same directory,
    then os.replace), streaming it: the header, then each block as soon as
    it is encoded, so at most one full-size block is held at a time."""
    names = list(_STATE_BLOCKS)
    fields = [state.v1, state.v2, state.w]
    if prev_rhs is not None:
        names += list(_HISTORY_BLOCKS)
        fields += [ScalarField.spectral(state.grid, parity, data)
                   for parity, data in zip(_HISTORY_BLOCKS.values(), prev_rhs)]
    header = json.dumps({"t": state.t, "has_history": prev_rhs is not None,
                         "fields": names}, sort_keys=True, separators=(",", ":")).encode()
    with _atomic_open(path) as fh:
        fh.write(CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION]) + struct.pack("<I", len(header))
                 + header)
        for name, f in zip(names, fields):
            write_field_block(fh, name, f)


def read_checkpoint(path: str) -> tuple[VelocityState, tuple[np.ndarray, ...] | None]:
    """Load a checkpoint, one block at a time, every block onto the grid of
    the first; a file that is not a whole, well-formed checkpoint raises
    ConfigError naming the path.  That includes a header time that is not
    a finite number >= 0, a has_history that is not a bool, a fields list
    other than the writer's, a block out of that order, of the wrong
    parity or cut short, bytes after the last block, and a block with a
    non-finite coefficient or one that breaks Hermitian symmetry."""
    with open(path, "rb") as fh:
        if fh.read(8) != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file (bad magic)")
        try:
            version = fh.read(1)[0]
            if version != CHECKPOINT_VERSION:
                raise ConfigError(f"{path}: unsupported checkpoint version {version}")
            hlen = struct.unpack("<I", fh.read(4))[0]
            size = os.fstat(fh.fileno()).st_size
            # a stated length past the end of the file allocates no buffer
            # of that length: the read stops at the end, short of valid JSON
            header = json.loads(fh.read(min(hlen, size)).decode())
            t, has_history = header["t"], header["has_history"]
            if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0 <= float(t) < math.inf:
                raise ConfigError(f"{path}: corrupt checkpoint (t = {t!r} is not a finite time >= 0)")
            if not isinstance(has_history, bool):
                raise ConfigError(f"{path}: corrupt checkpoint (has_history = {has_history!r} "
                                  "is not a bool)")
            blocks = {**_STATE_BLOCKS, **(_HISTORY_BLOCKS if has_history else {})}
            if header["fields"] != list(blocks):
                raise ConfigError(f"{path}: corrupt checkpoint (fields {header['fields']!r} "
                                  f"are not {list(blocks)!r})")
            fields = {}
            grid = None
            for want, parity in blocks.items():
                name, f = read_field_block(fh, grid)
                if name != want or f.parity is not parity:
                    raise ConfigError(f"{path}: corrupt checkpoint (block {name!r} is "
                                      f"{f.parity.value}, expected {want!r} {parity.value})")
                grid = grid or f.grid
                if f.grid is not grid:
                    raise ConfigError(f"{path}: corrupt checkpoint (blocks on different grids)")
                fields[name] = f
            trailing = size - fh.tell()
            if trailing:
                raise ConfigError(f"{path}: corrupt checkpoint "
                                  f"({trailing} bytes after the last block)")
            state = VelocityState(fields["v1"], fields["v2"], fields["w"], float(t))
            prev_rhs = None
            if has_history:
                prev_rhs = (fields["rhs1"].data, fields["rhs2"].data, fields["rhsw"].data)
        except (IndexError, KeyError, OverflowError, TypeError, ValueError, struct.error,
                InvalidFieldError, RepresentationError) as exc:
            raise ConfigError(f"{path}: corrupt checkpoint ({type(exc).__name__}: {exc})") from exc
    return state, prev_rhs


# ---------------------------------------------------------------------------
# manifest and report files
# ---------------------------------------------------------------------------

@contextmanager
def _atomic_open(path: str) -> Iterator[BinaryIO]:
    """A binary file to write that replaces `path` only once it is whole:
    a temp file in the same directory, moved over `path` on success and
    removed on any error."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_manifest(path: str, config: SolverConfig, started_at: str, finished_at: str,
                   outputs: dict[str, str], blowup: bool, last_valid_time: float,
                   exit_status: int) -> None:
    manifest = {
        "config": emit_config(config),
        "config_sha256": config_sha256(config),
        "started_at": started_at,
        "finished_at": finished_at,
        "outputs": outputs,
        "blowup": blowup,
        "last_valid_time": last_valid_time,
        "exit_status": exit_status,
    }
    with _atomic_open(path) as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2).encode())


def read_run_outcome(path: str, config: SolverConfig) -> tuple[bool, float | None]:
    """(blowup, last_valid_time) as recorded by the manifest at `path` of a
    run of `config` (same config_sha256); (False, None), the outcome of a
    run that did not blow up, when there is no file at `path` or it is the
    manifest of another config.  A file that is not JSON, or a manifest of
    `config` without a bool blowup and a finite last_valid_time, raises
    ConfigError naming `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        return False, None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: not a JSON manifest ({exc})") from exc
    if not isinstance(manifest, dict) or manifest.get("config_sha256") != config_sha256(config):
        return False, None
    blowup, t = manifest.get("blowup"), manifest.get("last_valid_time")
    if not isinstance(blowup, bool) or type(t) not in (int, float) or not math.isfinite(t):
        raise ConfigError(f"{path}: manifest of this config without a bool blowup and a finite "
                          f"last_valid_time (got {blowup!r}, {t!r})")
    return blowup, float(t)


def write_report(path: str, report: CriterionReport) -> None:
    with open(path, "w") as fh:
        fh.write(report.to_text())
