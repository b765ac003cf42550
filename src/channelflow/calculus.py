"""Differential and integral operators on channel fields.

Derivatives act on spectral data as diagonal multipliers: horizontal
derivatives multiply by 2*pi*i*k, the vertical derivative maps between the
cosine and sine bases with factor -m*pi (even -> odd) or +m*pi (odd -> even).
The vertical average and fluctuation realize the barotropic/baroclinic
split; the vertical velocity is reconstructed from the horizontal field by
term-by-term antidifferentiation of the divergence.

All operators are pure functions on immutable fields and are safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import fft as sfft

from .errors import IncompatibleDivergenceError, InvalidFieldError
from .fields import (
    PHYSICAL,
    SPECTRAL,
    Grid,
    Parity,
    ScalarField,
    fft_workers,
    random_band_coefficients,
    to_physical,
    to_spectral,
)

#: default tolerance on the depth-averaged divergence in vertical_velocity
COMPAT_TOL = 1e-10


# ---------------------------------------------------------------------------
# planar fields on the horizontal torus M
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarField:
    """A scalar on the horizontal periodic square M (z extent ignored)."""

    grid: Grid
    rep: str
    data: np.ndarray

    @classmethod
    def physical(cls, grid: Grid, data: np.ndarray) -> "PlanarField":
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (grid.nx, grid.ny):
            raise InvalidFieldError(f"planar data shape {data.shape} != ({grid.nx}, {grid.ny})")
        data.flags.writeable = False
        return cls(grid, PHYSICAL, data)

    @classmethod
    def spectral(cls, grid: Grid, data: np.ndarray) -> "PlanarField":
        data = np.asarray(data, dtype=np.complex128)
        if data.shape != (grid.nx, grid.ny):
            raise InvalidFieldError(f"planar data shape {data.shape} != ({grid.nx}, {grid.ny})")
        data.flags.writeable = False
        return cls(grid, SPECTRAL, data)

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "PlanarField":
        xx = grid.x[:, None]
        yy = grid.y[None, :]
        return cls.physical(grid, fn(xx, yy) + np.zeros((grid.nx, grid.ny)))

    def require(self, rep: str) -> None:
        if self.rep != rep:
            from .errors import RepresentationError

            raise RepresentationError(f"expected {rep} planar representation, got {self.rep}")


def to_spectral_2d(f: PlanarField) -> PlanarField:
    f.require(PHYSICAL)
    return PlanarField.spectral(f.grid, sfft.fft2(f.data, norm="forward", workers=fft_workers()))


def to_physical_2d(f: PlanarField) -> PlanarField:
    f.require(SPECTRAL)
    vals = sfft.ifft2(f.data, norm="forward", workers=fft_workers())
    scale = max(1.0, float(np.max(np.abs(vals.real))))
    if float(np.max(np.abs(vals.imag))) > 1e-10 * scale:
        raise InvalidFieldError("planar spectral data breaks Hermitian symmetry")
    return PlanarField.physical(f.grid, np.ascontiguousarray(vals.real))


def ddx_2d(f: PlanarField) -> PlanarField:
    f.require(SPECTRAL)
    return PlanarField.spectral(f.grid, 2j * np.pi * f.grid.kx[:, None] * f.data)


def ddy_2d(f: PlanarField) -> PlanarField:
    f.require(SPECTRAL)
    return PlanarField.spectral(f.grid, 2j * np.pi * f.grid.ky[None, :] * f.data)


def random_band_limited_2d(grid: Grid, rng: np.random.Generator,
                           max_kx: int, max_ky: int) -> PlanarField:
    """Random real planar field with modes |kx|<=max_kx, |ky|<=max_ky.

    Draw order depends only on the caps, so the same rng state gives the
    same function on any sufficiently large grid.
    """
    kx, ky, c = random_band_coefficients(grid, rng, max_kx, max_ky, 1)
    data = np.zeros((grid.nx, grid.ny), np.complex128)
    data[kx % grid.nx, ky % grid.ny] = c[:, 0]
    partner = (kx > 0) | (ky > 0)
    data[-kx[partner] % grid.nx, -ky[partner] % grid.ny] = np.conj(c[partner, 0])
    return PlanarField.spectral(grid, data)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def ddx(f: ScalarField) -> ScalarField:
    """d/dx as the multiplier 2*pi*i*kx; parity unchanged."""
    f.require(SPECTRAL)
    return ScalarField.spectral(f.grid, f.parity, 2j * np.pi * f.grid.kx3 * f.data)


def ddy(f: ScalarField) -> ScalarField:
    f.require(SPECTRAL)
    return ScalarField.spectral(f.grid, f.parity, 2j * np.pi * f.grid.ky3 * f.data)


def ddz(f: ScalarField) -> ScalarField:
    """Vertical derivative; flips parity.

    Even -> odd carries cos slot m to sine slot m with factor -m*pi for
    m = 1..nz-2; the cosine mode m = nz-1 has a derivative that vanishes at
    every collocation node and is dropped (exact on band-limited fields).
    """
    f.require(SPECTRAL)
    g = f.grid
    mpi = np.pi * g.m3
    if f.parity is Parity.EVEN_Z:
        out = np.zeros_like(f.data)
        out[:, :, 1:g.nz - 1] = -mpi[:, :, 1:g.nz - 1] * f.data[:, :, 1:g.nz - 1]
        return ScalarField.spectral(g, Parity.ODD_Z, out)
    return ScalarField.spectral(g, Parity.EVEN_Z, mpi * f.data)


def laplacian_h(f: ScalarField) -> ScalarField:
    """Horizontal Laplacian: multiplier -4*pi^2*(kx^2 + ky^2)."""
    f.require(SPECTRAL)
    return ScalarField.spectral(f.grid, f.parity, -f.grid.kh_sq * f.data)


# ---------------------------------------------------------------------------
# vertical average, fluctuation, vertical velocity
# ---------------------------------------------------------------------------

def vertical_average(f: ScalarField) -> PlanarField:
    """Exact depth average int_0^1 f dz as a spectral planar field.

    For the cosine basis only m = 0 contributes; for the sine basis
    int_0^1 sin(m pi z) dz = 2/(m pi) for odd m and 0 for even m.
    """
    f.require(SPECTRAL)
    g = f.grid
    if f.parity is Parity.EVEN_Z:
        return PlanarField.spectral(g, f.data[:, :, 0].copy())
    m = g.m
    w = np.zeros(g.nz)
    odd = (np.arange(g.nz) % 2) == 1
    w[odd] = 2.0 / (np.pi * m[odd])
    return PlanarField.spectral(g, f.data @ w)


def fluctuation(f: ScalarField) -> ScalarField:
    """Baroclinic part f - (depth average of f), for EvenZ fields.

    An OddZ field with nonzero average would leave the sine basis once the
    constant is subtracted, so only EvenZ input is accepted.
    """
    f.require(SPECTRAL)
    if f.parity is not Parity.EVEN_Z:
        raise InvalidFieldError("fluctuation is defined on EvenZ fields only")
    out = f.data.copy()
    out[:, :, 0] = 0.0
    return ScalarField.spectral(f.grid, Parity.EVEN_Z, out)


def z_extend(pf: PlanarField, parity: Parity = Parity.EVEN_Z) -> ScalarField:
    """Extend a planar field as a z-constant EvenZ field (cos slot m=0)."""
    pf.require(SPECTRAL)
    if parity is not Parity.EVEN_Z:
        raise InvalidFieldError("only the EvenZ basis contains z-constant fields")
    g = pf.grid
    data = np.zeros((g.nx, g.ny, g.nz), np.complex128)
    data[:, :, 0] = pf.data
    return ScalarField.spectral(g, Parity.EVEN_Z, data)


def vertical_velocity(v1: ScalarField, v2: ScalarField,
                      tol: float = COMPAT_TOL) -> ScalarField:
    """w = -int_0^z div_h v dxi, reconstructed spectrally.

    Requires the compatibility condition div_h vbar = 0: the depth mean of
    the divergence (its m = 0 cosine slice) must vanish to `tol` (relative
    to the divergence amplitude), and so must the m = nz-1 slice, whose
    antiderivative is invisible to the sine basis.  Violations raise
    IncompatibleDivergenceError rather than being projected away.
    """
    for f in (v1, v2):
        f.require(SPECTRAL)
        if f.parity is not Parity.EVEN_Z:
            raise InvalidFieldError("horizontal velocity components must be EvenZ")
    g = v1.grid
    div = ddx(v1).data + ddy(v2).data
    scale = max(1.0, float(np.max(np.abs(div))))
    mean_part = float(np.max(np.abs(div[:, :, 0])))
    if mean_part > tol * scale:
        raise IncompatibleDivergenceError(
            f"depth-averaged divergence {mean_part:.3e} exceeds tolerance {tol:.1e}"
        )
    nyq_part = float(np.max(np.abs(div[:, :, -1])))
    if nyq_part > tol * scale:
        raise IncompatibleDivergenceError(
            f"vertical-Nyquist divergence {nyq_part:.3e} has no sine antiderivative"
        )
    out = np.zeros_like(div)
    mpi = np.pi * g.m[1:g.nz - 1]
    out[:, :, 1:g.nz - 1] = -div[:, :, 1:g.nz - 1] / mpi
    return ScalarField.spectral(g, Parity.ODD_Z, out)


def divergence(v1: ScalarField, v2: ScalarField, w: ScalarField) -> ScalarField:
    """Three-dimensional divergence div_h v + w_z as an EvenZ field."""
    data = ddx(v1).data + ddy(v2).data + ddz(w).data
    return ScalarField.spectral(v1.grid, Parity.EVEN_Z, data)


# ---------------------------------------------------------------------------
# alias-free products at padded resolution
# ---------------------------------------------------------------------------

def _embed_fft_axis(a: np.ndarray, n_tgt: int, axis: int) -> np.ndarray:
    """Embed an FFT-ordered axis of length n into length n_tgt > n.

    The self-conjugate Nyquist slot (frequency -n/2) represents the real
    cosine mode and is split evenly between target frequencies +-n/2.
    """
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    half = n // 2
    out = np.zeros((n_tgt,) + a.shape[1:], dtype=a.dtype)
    out[:half] = a[:half]
    if half > 1:
        out[n_tgt - (half - 1):] = a[n - (half - 1):]
    nyq = 0.5 * a[half]
    out[half] += nyq
    out[n_tgt - half] += nyq
    return np.moveaxis(out, 0, axis)


def _restrict_fft_axis(a: np.ndarray, n_tgt: int, axis: int) -> np.ndarray:
    """Galerkin-restrict an FFT-ordered axis of length n to n_tgt < n."""
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    half = n_tgt // 2
    out = np.zeros((n_tgt,) + a.shape[1:], dtype=a.dtype)
    out[:half] = a[:half]
    if half > 1:
        out[half + 1:] = a[n - (half - 1):]
    out[half] = a[half] + a[n - half]
    return np.moveaxis(out, 0, axis)


def _pad_field(f: ScalarField, pgrid: Grid) -> ScalarField:
    data = _embed_fft_axis(f.data, pgrid.nx, 0)
    data = _embed_fft_axis(data, pgrid.ny, 1)
    out = np.zeros((pgrid.nx, pgrid.ny, pgrid.nz), np.complex128)
    out[:, :, : f.grid.nz] = data
    if f.parity is Parity.ODD_Z:
        out[:, :, f.grid.nz - 1] = 0.0  # structurally-zero slot stays zero
    return ScalarField.spectral(pgrid, f.parity, out)


def _restrict_field(f: ScalarField, grid: Grid) -> ScalarField:
    data = f.data[:, :, : grid.nz].copy()
    if f.parity is Parity.ODD_Z:
        data[:, :, grid.nz - 1] = 0.0
    data = _restrict_fft_axis(data, grid.nx, 0)
    data = _restrict_fft_axis(data, grid.ny, 1)
    return ScalarField.spectral(grid, f.parity, data)


def _product_parity(pa: Parity, pb: Parity) -> Parity:
    return Parity.EVEN_Z if pa is pb else Parity.ODD_Z


def multiply(f: ScalarField, g: ScalarField) -> ScalarField:
    """Pointwise product on the fields' own grid (pseudospectral, aliased).

    Callers are responsible for dealiasing; use :func:`multiply_exact` when
    the Galerkin-exact product is required.
    """
    fp = to_physical(f) if f.rep == SPECTRAL else f
    gp = to_physical(g) if g.rep == SPECTRAL else g
    prod = ScalarField.physical(f.grid, _product_parity(f.parity, g.parity), fp.data * gp.data)
    return to_spectral(prod)


def multiply_exact(f: ScalarField, g: ScalarField) -> ScalarField:
    """Alias-free product: evaluate on a doubled grid, restrict back.

    The result is exactly the Galerkin projection of f*g onto the original
    basis (horizontal modes |k| <= n/2, vertical modes within parity range).
    """
    f.require(SPECTRAL)
    g.require(SPECTRAL)
    grid = f.grid
    pgrid = Grid(2 * grid.nx, 2 * grid.ny, 2 * grid.nz - 1)
    fp = to_physical(_pad_field(f, pgrid))
    gp = to_physical(_pad_field(g, pgrid))
    prod = ScalarField.physical(pgrid, _product_parity(f.parity, g.parity), fp.data * gp.data)
    return _restrict_field(to_spectral(prod), grid)


def multiply_exact_2d(f: PlanarField, g: PlanarField) -> PlanarField:
    """Alias-free planar product via a doubled horizontal grid."""
    f.require(SPECTRAL)
    g.require(SPECTRAL)
    grid = f.grid
    fd = _embed_fft_axis(_embed_fft_axis(f.data, 2 * grid.nx, 0), 2 * grid.ny, 1)
    gd = _embed_fft_axis(_embed_fft_axis(g.data, 2 * grid.nx, 0), 2 * grid.ny, 1)
    fp = sfft.ifft2(fd, norm="forward", workers=fft_workers())
    gp = sfft.ifft2(gd, norm="forward", workers=fft_workers())
    prod = sfft.fft2((fp * gp).real, norm="forward", workers=fft_workers())
    prod = _restrict_fft_axis(_restrict_fft_axis(prod, grid.nx, 0), grid.ny, 1)
    return PlanarField.spectral(grid, prod)
