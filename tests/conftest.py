import functools
import math
import sys

import numpy as np
import pytest

from channelflow.calculus import ddx, ddy, vertical_velocity
from channelflow.fields import Grid, Parity, ScalarField, to_spectral
from channelflow.solver import VelocityState


@pytest.fixture
def grid():
    return Grid(16, 16, 9)


@pytest.fixture
def grid_acc():
    """The acceptance-benchmark grid."""
    return Grid(32, 32, 17)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


class CallCount:
    """The number of calls made so far to one counted function."""

    def __init__(self):
        self.calls = 0


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) -> CallCount: wraps the package function `fn` for
    the rest of the test at every module of ``channelflow`` that binds it
    (``from .fields import to_physical`` binds it in several), so calls
    through any of those names are counted.  The bindings are restored at
    teardown."""

    def install(fn) -> CallCount:
        count = CallCount()

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            count.calls += 1
            return fn(*args, **kwargs)

        sites = [(mod, attr) for name, mod in sorted(sys.modules.items())
                 if name == "channelflow" or name.startswith("channelflow.")
                 for attr, value in vars(mod).items() if value is fn]
        if not sites:
            raise ValueError(f"{fn!r} is bound in no channelflow module")
        for mod, attr in sites:
            monkeypatch.setattr(mod, attr, counted)
        return count

    return install


# ---------------------------------------------------------------------------
# full (nx, ny, ...) spectra in tests
#
# Fields store the ky >= 0 half of a spectrum.  Tests that build or compare
# against a whole (nx, ny, ...) spectrum convert through these two helpers.
# ---------------------------------------------------------------------------

def half_spectrum(full: np.ndarray) -> np.ndarray:
    """The stored ky >= 0 half (columns 0..ny/2) of a full spectrum."""
    return np.ascontiguousarray(full[:, :full.shape[1] // 2 + 1])


def full_spectrum(half: np.ndarray, ny: int) -> np.ndarray:
    """The full spectrum of a stored half: column ky < 0 at row kx is the
    conjugate of column -ky at row -kx, coefficient by coefficient."""
    nx, h = half.shape[0], ny // 2
    full = np.zeros((nx, ny) + half.shape[2:], np.complex128)
    full[:, :h + 1] = half
    for iy in range(h + 1, ny):
        for ix in range(nx):
            full[ix, iy] = np.conj(half[(-ix) % nx, ny - iy])
    return full


# ---------------------------------------------------------------------------
# full-band fields: every representable mode carries energy
# ---------------------------------------------------------------------------

def full_band(grid: Grid, parity: Parity, rng: np.random.Generator) -> ScalarField:
    """Random field on every representable mode: the Nyquist row and column
    and, for EvenZ, the top cosine mode m = nz-1."""
    data = rng.standard_normal((grid.nx, grid.ny, grid.nz))
    if parity is Parity.ODD_Z:
        data[:, :, 0] = data[:, :, -1] = 0.0
    f = to_spectral(ScalarField.physical(grid, parity, data))
    nyq = (np.abs(f.data[grid.nx // 2]).max(), np.abs(f.data[:, grid.ny // 2]).max())
    assert min(nyq) > 1e-3
    if parity is Parity.EVEN_Z:
        assert np.abs(f.data[:, :, -1]).max() > 1e-3
    return f


def full_band_state(grid: Grid, seed: int = 19) -> VelocityState:
    """A divergence-free state that is band-limited but not dealiased: v
    from a full-band stream function and a baroclinic potential (m = 0 and
    m = nz-1 empty, so w exists), which keeps the Nyquist row, column and
    top mode."""
    rng = np.random.default_rng(seed)
    psi = full_band(grid, Parity.EVEN_Z, rng)
    chi = full_band(grid, Parity.EVEN_Z, rng).data.copy()
    chi[:, :, [0, -1]] = 0.0
    chi = ScalarField.spectral(grid, Parity.EVEN_Z, chi)
    v1 = ScalarField.spectral(grid, Parity.EVEN_Z, ddy(psi).data + ddx(chi).data)
    v2 = ScalarField.spectral(grid, Parity.EVEN_Z, ddy(chi).data - ddx(psi).data)
    for f in (v1, v2):
        assert np.abs(f.data[grid.nx // 2]).max() > 1e-3
        assert np.abs(f.data[:, grid.ny // 2]).max() > 1e-3
        assert np.abs(f.data[:, :, -1]).max() > 1e-3
    return VelocityState(v1, v2, vertical_velocity(v1, v2), 0.0)


# ---------------------------------------------------------------------------
# exact solutions used only as test references
# ---------------------------------------------------------------------------

def taylor_green_pressure(grid: Grid, t: float, nu: float, amplitude: float = 1.0) -> ScalarField:
    """Pressure of the Taylor-Green vortex in the zero-mean gauge.

    Verified by substitution into the momentum balance: with
    v = (sin 2pix cos 2piy, -cos 2pix sin 2piy) F the advection term equals
    -grad of p = (F^2/4)(cos 4pix + cos 4piy).
    """
    decay_sq = amplitude**2 * math.exp(-16.0 * math.pi**2 * nu * t)
    return to_spectral(ScalarField.from_function(
        grid, Parity.EVEN_Z,
        lambda x, y, z: 0.25 * decay_sq * (np.cos(4 * np.pi * x) + np.cos(4 * np.pi * y)) + 0 * z))
