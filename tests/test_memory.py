"""Memory budgets of the stepping loop and of checkpoint I/O on 64x64x33.

Peaks are measured with tracemalloc, which numpy reports its array
buffers to, so they count bytes allocated and do not depend on the
allocator or the machine.  Each budget is the peak above what was
allocated before the call, in units of one array of the operation.
"""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from channelflow.io import parse_config_text, read_checkpoint, write_checkpoint
from channelflow.solver import Stepper, make_forcing, make_initial_state

CONFIG = ("nu = 0.5\ndt = 0.001\nt_end = 0.002\nnx = 64\nny = 64\nnz = 33\n"
          "init = random\ninit_amplitude = 0.3\nforcing = random\nforcing_seed = 1\n")


@contextmanager
def _peak_above_start():
    """Yields a dict whose "bytes" is, on exit, the peak traced memory
    above the memory traced on entry."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    out = {}
    try:
        yield out
    finally:
        out["bytes"] = tracemalloc.get_traced_memory()[1] - start
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def stepped():
    """(stepper, a StepResult two steps in): every grid symbol is built."""
    config = parse_config_text(CONFIG)
    stepper = Stepper(config, make_forcing(config.forcing, config.grid, config.nu))
    first = stepper.step(make_initial_state(config.init, config.grid, config.nu), None)
    return stepper, stepper.step(first.state, first.rhs)


def _spectral_bytes(grid) -> int:
    return int(np.prod(grid.spectral_shape)) * 16


def _block_bytes(grid) -> int:
    """Payload of one checkpoint block: the full (nx, ny, nz) spectrum."""
    return grid.nx * grid.ny * grid.nz * 16


def test_step_holds_at_most_ten_spectral_arrays(stepped):
    """A step held the undealiased N beside the dealiased one, N itself
    through the update, and the unprojected update beside its projection:
    15.1 arrays.  Its result alone is 7 (state, history, pressure)."""
    stepper, prev = stepped
    with _peak_above_start() as peak:
        res = stepper.step(prev.state, prev.rhs)
    assert res.state.t > prev.state.t
    assert peak["bytes"] <= 10 * _spectral_bytes(stepper.config.grid)


def test_checkpoint_write_holds_at_most_two_blocks(stepped, tmp_path):
    """The writer held every encoded block and then their join: 26.0 MB,
    twice the 13.0 MB file.  It now streams one block at a time."""
    _, res = stepped
    path = str(tmp_path / "c.ckpt")
    with _peak_above_start() as peak:
        write_checkpoint(path, res.state, res.rhs)
    assert peak["bytes"] <= 2 * _block_bytes(res.state.grid)


def test_checkpoint_read_holds_its_result_and_two_blocks(stepped, tmp_path):
    """The reader read the whole file into one bytes object: 22.0 MB.  It
    now reads one block at a time; what it returns is six half spectra."""
    _, res = stepped
    path = str(tmp_path / "c.ckpt")
    write_checkpoint(path, res.state, res.rhs)
    with _peak_above_start() as peak:
        state, prev_rhs = read_checkpoint(path)
    grid = res.state.grid
    assert np.array_equal(state.v1.data, res.state.v1.data) and len(prev_rhs) == 3
    assert peak["bytes"] <= 6 * _spectral_bytes(grid) + 2 * _block_bytes(grid)
