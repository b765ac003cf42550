"""Memory budgets of the stepping loop, checkpoint I/O and seeded fields
on 64x64x33, and of the inequality sweep on 32x32x17.

Peaks are measured with tracemalloc, which numpy reports its array
buffers to, so they count bytes allocated and do not depend on the
allocator or the machine.  Each budget is the peak above what was
allocated before the call, in units of one array of the operation.
"""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from channelflow.fields import Grid, Parity
from channelflow.inequalities import FamilySpec, field_family, planar_family, sweep_family
from channelflow.io import parse_config_text, read_checkpoint, write_checkpoint
from channelflow.solver import (
    ForcingRecipe,
    Stepper,
    make_forcing,
    make_initial_state,
    random_divergence_free_state,
    run,
)

CONFIG = ("nu = 0.5\ndt = 0.001\nt_end = 0.002\nnx = 64\nny = 64\nnz = 33\n"
          "init = random\ninit_amplitude = 0.3\nforcing = random\nforcing_seed = 1\n")


@contextmanager
def _peak_above_start():
    """Yields a dict whose "bytes" is, on exit, the peak traced memory
    above the memory traced on entry, and whose "held" is the memory
    traced on exit above it."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    out = {}
    try:
        yield out
    finally:
        current, peak = tracemalloc.get_traced_memory()
        out["bytes"] = peak - start
        out["held"] = current - start
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


def test_step_holds_at_most_nine_spectral_arrays(stepped):
    """A step held the undealiased N beside the dealiased one, N itself
    through the update, and the unprojected update beside its projection:
    15.1 arrays; then 9.1 with those fixed, and 8.6 with the update on the
    2/3-rule band.  Its result (state, history, pressure) held 7 while the
    history was scattered to full half spectra, and 4.9 with the history
    kept on the band (29.9% of a half spectrum per component)."""
    stepper, prev = stepped
    with _peak_above_start() as peak:
        res = stepper.step(prev.state, prev.rhs)
    assert res.state.t > prev.state.t
    assert peak["bytes"] <= 9 * _spectral_bytes(stepper.config.grid)
    assert peak["held"] <= 5 * _spectral_bytes(stepper.config.grid)


def test_stepper_holds_its_band_arrays_only(stepped):
    """The coefficient arrays and the projected forcing were full half
    spectra: a stepper held 5.58 MB, with an 8.50 MB construction peak.
    On the 2/3-rule band (29.9% of the half spectrum) it holds 1.67 MB,
    with a 3.63 MB peak.  The grid's symbols, its band's included, exist
    before the stepper is built."""
    stepper, _ = stepped
    with _peak_above_start() as peak:
        built = Stepper(stepper.config, stepper.forcing)
    assert built.prop.shape == stepper.config.grid.band.shape
    assert peak["held"] <= 2.5e6
    assert peak["bytes"] <= 8.5e6


def test_checkpoint_write_holds_at_most_two_blocks(stepped, tmp_path):
    """The writer held every encoded block and then their join: 26.0 MB,
    twice the 13.0 MB file.  It now streams one block at a time."""
    stepper, res = stepped
    history = tuple(stepper.band.scatter(g) for g in res.rhs)
    path = str(tmp_path / "c.ckpt")
    with _peak_above_start() as peak:
        write_checkpoint(path, res.state, history)
    assert peak["bytes"] <= 2 * _block_bytes(res.state.grid)


def test_checkpoint_read_holds_its_result_and_two_blocks(stepped, tmp_path):
    """The reader read the whole file into one bytes object: 22.0 MB.  It
    now reads one block at a time; what it returns is six half spectra."""
    stepper, res = stepped
    path = str(tmp_path / "c.ckpt")
    write_checkpoint(path, res.state, tuple(stepper.band.scatter(g) for g in res.rhs))
    with _peak_above_start() as peak:
        state, prev_rhs = read_checkpoint(path)
    grid = res.state.grid
    assert np.array_equal(state.v1.data, res.state.v1.data) and len(prev_rhs) == 3
    assert peak["bytes"] <= 6 * _spectral_bytes(grid) + 2 * _block_bytes(grid)


def test_a_dealiased_run_caches_no_full_size_projection_array():
    """A dealias = on random run left the grid's full-size Leray inverse
    and 2/3-rule mask cached beside its Poisson inverse: 2.16 float half
    spectra (1.21 MB) of arrays on the grid.  Every projection and the
    dealiasing now run on bands, and the grid holds 1.04 (0.58 MB)."""
    config = parse_config_text(CONFIG)
    run(config)
    grid = config.grid
    cached = sum(a.nbytes for a in vars(grid).values() if isinstance(a, np.ndarray))
    assert cached <= 1.1 * _spectral_bytes(grid) / 2


#: the inequality families' first field on 64x64x33, from their own caps
FAMILY = FamilySpec.for_grid(Grid(64, 64, 33), count=1, seed=1)


@pytest.mark.parametrize("build,arrays", [
    (lambda grid: random_divergence_free_state(grid, seed=2, amplitude=0.3).v1, 4),
    (lambda grid: make_forcing(ForcingRecipe("random", 1.0, 42), grid, nu=1.0).f1, 4),
    (lambda grid: next(field_family(grid, Parity.EVEN_Z, FAMILY)), 1.5),
    (lambda grid: next(field_family(grid, Parity.ODD_Z, FAMILY)), 1.5),
    (lambda grid: next(planar_family(grid, FAMILY)), 1.5),
], ids=["state", "forcing", "family_even", "family_odd", "family_planar"])
def test_seeded_construction_peaks_at_four_spectral_arrays(build, arrays):
    """A seeded state or forcing scattered its draws to full half spectra
    before projecting and scaling them, and its energy filled each to the
    whole (nx, ny, nz) spectrum: a 6.36-array peak.  Drawn, projected and
    scaled on the box of its draw, it holds little beyond its three
    results.  A family field was scattered, normalized and rescaled as a
    half spectrum, the unscaled and the scaled one held together: a peak
    of 2.0 arrays of its own size (2.5 planar).  Normalized on its box
    and then scattered, it peaks at 1.1 (1.3 planar)."""
    grid = Grid(64, 64, 33)
    unit = build(grid).data.nbytes  # the grid's symbols and the box exist before the peak
    with _peak_above_start() as peak:
        build(grid)
    assert peak["bytes"] <= arrays * unit


def test_sweep_memory_does_not_grow_with_the_field_count():
    """The sweep held every field of its three families at once: a peak of
    24, 55 and 97 half spectra at 5, 20 and 40 fields on 32x32x17.  The
    families are now drawn as the sweep uses them."""
    grid = Grid(32, 32, 17)
    sweep_family(grid, FamilySpec.for_grid(grid, count=1, seed=1))
    peaks = {}
    for count in (5, 40):
        with _peak_above_start() as peak:
            sweep_family(grid, FamilySpec.for_grid(grid, count=count, seed=1234))
        peaks[count] = peak["bytes"]
    assert peaks[40] <= peaks[5] + 2 * _spectral_bytes(grid)
