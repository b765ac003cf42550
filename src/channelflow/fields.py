"""Scalar fields on the unit channel with parity-aware spectral bases.

The domain is the unit cube: periodic with period 1 in x and y, walls at
z = 0 and z = 1.  Vertical structure is encoded by parity:

* ``Parity.EVEN_Z`` fields expand in ``cos(m*pi*z)``, m = 0..nz-1.  Their
  z-derivative vanishes at the walls (stress-free condition).
* ``Parity.ODD_Z`` fields expand in ``sin(m*pi*z)``, m = 1..nz-2.  They
  vanish at the walls (no-normal-flow condition).  Coefficient slots
  m = 0 and m = nz-1 exist in storage but are structurally zero: the
  sine mode m = nz-1 vanishes at every collocation node and cannot be
  represented on this grid.

Basis convention (fixed once, used everywhere):

* collocation nodes: x_i = i/nx, y_j = j/ny, z_k = k/(nz-1) (walls included),
* horizontal basis: exp(2*pi*i*(kx*x + ky*y)) with coefficients in standard
  FFT ordering and forward scaling 1/(nx*ny) (coefficients are the actual
  Fourier coefficients of the sampled function),
* vertical basis: DCT-I / DST-I pairs on the nz-node grid; a spectral array
  c[kx, ky, m] means f = sum c * exp(2*pi*i*(kx x + ky y)) * basis_m(z).

Spectral storage is a full complex (nx, ny, nz) array, C-ordered so the
vertical index m is the fastest (stride-1) axis.  Hermitian symmetry in
(kx, ky), c(-kx, -ky, m) = conj(c(kx, ky, m)), encodes real-valuedness.

Transforms work on real data throughout: the forward transform is a real
DCT-I/DST-I in z, then ``rfft2`` in (x, y), with the ky < 0 half filled
by conjugation; the inverse is ``irfft2`` in (x, y) on the ky >= 0 half,
then a real DCT-I/DST-I in z.  The inverse reads only that half, so it
first checks the coefficients ``irfft2`` ignores: the ky < 0 half against
its partners, and the self-partnered columns ky = 0 and ky = ny/2.  The
largest real or imaginary part of c(k) - conj(c(-k)) there must stay
within 1e-10 of max(1, max |c|), or InvalidFieldError is raised.

Fields are immutable values: the data array is marked read-only at
construction and all operations return new fields, so fields may be shared
freely across threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import fft as sfft

from .errors import InvalidFieldError, RepresentationError

PHYSICAL = "physical"
SPECTRAL = "spectral"

#: relative tolerance for structural checks (wall values, Hermitian symmetry)
_STRUCTURE_RTOL = 1e-10


def fft_workers() -> int:
    """Worker count for FFT calls, capped by the CHANNELFLOW_THREADS env var."""
    try:
        return max(1, int(os.environ.get("CHANNELFLOW_THREADS", "1")))
    except ValueError:
        return 1


class Parity(Enum):
    EVEN_Z = "even"
    ODD_Z = "odd"


@dataclass(frozen=True)
class Grid:
    """Collocation grid for the unit channel (Lx = Ly = Lz = 1).

    nx, ny are horizontal sample counts (even, >= 8); nz is the vertical
    collocation count (>= 5), giving nz-1 intervals with nodes on the walls.
    """

    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        if self.nx % 2 or self.nx < 8:
            raise InvalidFieldError(f"nx must be even and >= 8, got {self.nx}")
        if self.ny % 2 or self.ny < 8:
            raise InvalidFieldError(f"ny must be even and >= 8, got {self.ny}")
        if self.nz < 5:
            raise InvalidFieldError(f"nz must be >= 5, got {self.nz}")

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) / self.nx

    @cached_property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) / self.ny

    @cached_property
    def z(self) -> np.ndarray:
        return np.arange(self.nz) / (self.nz - 1)

    @cached_property
    def kx(self) -> np.ndarray:
        """Integer horizontal wavenumbers in FFT ordering."""
        return sfft.fftfreq(self.nx, d=1.0 / self.nx)

    @cached_property
    def ky(self) -> np.ndarray:
        return sfft.fftfreq(self.ny, d=1.0 / self.ny)

    @cached_property
    def m(self) -> np.ndarray:
        """Vertical mode indices 0..nz-1."""
        return np.arange(self.nz, dtype=float)

    @cached_property
    def kx3(self) -> np.ndarray:
        return self.kx[:, None, None]

    @cached_property
    def ky3(self) -> np.ndarray:
        return self.ky[None, :, None]

    @cached_property
    def m3(self) -> np.ndarray:
        return self.m[None, None, :]

    @cached_property
    def kh_sq(self) -> np.ndarray:
        """|2*pi*k_h|^2 multiplier, shape (nx, ny, 1)."""
        return (2.0 * np.pi) ** 2 * (self.kx3**2 + self.ky3**2)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule retention mask: True where a mode is kept.

        The vertical cut uses the interval count nz-1 (the cosine/sine grid
        has effective period 2(nz-1)): retaining m <= floor(2(nz-1)/3) is
        what makes quadratic products alias-free, hence exactly
        energy-conserving, on this grid.
        """
        keep_x = np.abs(self.kx3) <= self.nx / 3.0
        keep_y = np.abs(self.ky3) <= self.ny / 3.0
        keep_m = self.m3 <= (2 * (self.nz - 1)) // 3
        return keep_x & keep_y & keep_m

    @cached_property
    def wz(self) -> np.ndarray:
        """Trapezoid quadrature weights over z (walls half-weighted)."""
        w = np.full(self.nz, 1.0 / (self.nz - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def l2_weights(self, parity: Parity) -> np.ndarray:
        """Squared-L2 weight of each vertical basis function (length nz)."""
        th = np.full(self.nz, 0.5)
        if parity is Parity.EVEN_Z:
            th[0] = 1.0
        else:
            th[0] = 0.0
            th[-1] = 0.0
        return th

    def index_kx(self, kx: int) -> int:
        if not -self.nx // 2 < kx < self.nx // 2:
            raise InvalidFieldError(f"kx={kx} outside resolvable range for nx={self.nx}")
        return kx % self.nx

    def index_ky(self, ky: int) -> int:
        if not -self.ny // 2 < ky < self.ny // 2:
            raise InvalidFieldError(f"ky={ky} outside resolvable range for ny={self.ny}")
        return ky % self.ny


def _beyond_tolerance(residue: float, data: np.ndarray) -> bool:
    """residue > _STRUCTURE_RTOL * max(1, max |data|).

    The scale is at least 1, so it is computed only for a residue above
    the bare tolerance.
    """
    return (residue > _STRUCTURE_RTOL
            and residue > _STRUCTURE_RTOL * max(1.0, float(np.max(np.abs(data)))))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ScalarField:
    """A scalar on the channel in physical or spectral representation.

    Construct through :meth:`physical` / :meth:`spectral`; the data array is
    taken over and frozen.  Physical data is real (nx, ny, nz); spectral data
    is complex (nx, ny, nz) with Hermitian symmetry in (kx, ky) and
    parity-forbidden vertical slots exactly zero.
    """

    grid: Grid
    parity: Parity
    rep: str
    data: np.ndarray

    @classmethod
    def physical(cls, grid: Grid, parity: Parity, data: np.ndarray) -> "ScalarField":
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (grid.nx, grid.ny, grid.nz):
            raise InvalidFieldError(
                f"physical data shape {data.shape} does not match grid "
                f"({grid.nx}, {grid.ny}, {grid.nz})"
            )
        return cls(grid, parity, PHYSICAL, _freeze(data))

    @classmethod
    def spectral(cls, grid: Grid, parity: Parity, data: np.ndarray) -> "ScalarField":
        data = np.asarray(data, dtype=np.complex128)
        if data.shape != (grid.nx, grid.ny, grid.nz):
            raise InvalidFieldError(
                f"spectral data shape {data.shape} does not match grid "
                f"({grid.nx}, {grid.ny}, {grid.nz})"
            )
        if parity is Parity.ODD_Z:
            bad = max(float(np.max(np.abs(data[:, :, 0]))),
                      float(np.max(np.abs(data[:, :, -1]))))
            if bad > 0.0:
                if _beyond_tolerance(bad, data):
                    raise InvalidFieldError(
                        "OddZ spectral field has nonzero parity-forbidden slots "
                        f"m=0 or m=nz-1 (max {bad:.3e})"
                    )
                data = data.copy()
                data[:, :, 0] = 0.0
                data[:, :, -1] = 0.0
        return cls(grid, parity, SPECTRAL, _freeze(data))

    @classmethod
    def zeros(cls, grid: Grid, parity: Parity, rep: str = SPECTRAL) -> "ScalarField":
        if rep == SPECTRAL:
            return cls.spectral(grid, parity, np.zeros((grid.nx, grid.ny, grid.nz), np.complex128))
        return cls.physical(grid, parity, np.zeros((grid.nx, grid.ny, grid.nz)))

    @classmethod
    def from_modes(cls, grid: Grid, parity: Parity,
                   modes: dict[tuple[int, int, int], complex]) -> "ScalarField":
        """Build a spectral field from {(kx, ky, m): coefficient}.

        The Hermitian partner at (-kx, -ky, m) is filled in automatically;
        pass each (kx, ky) pair only once (the coefficient at (0, 0, m) must
        be real).
        """
        data = np.zeros((grid.nx, grid.ny, grid.nz), np.complex128)
        mmin = 0 if parity is Parity.EVEN_Z else 1
        mmax = grid.nz - 1 if parity is Parity.EVEN_Z else grid.nz - 2
        for (kx, ky, m), c in modes.items():
            if not mmin <= m <= mmax:
                raise InvalidFieldError(f"mode m={m} not representable for {parity}")
            ix, iy = grid.index_kx(kx), grid.index_ky(ky)
            data[ix, iy, m] += c
            if kx == 0 and ky == 0:
                if abs(complex(c).imag) > 0:
                    raise InvalidFieldError("coefficient at (0, 0, m) must be real")
            else:
                data[grid.index_kx(-kx), grid.index_ky(-ky), m] += np.conj(c)
        return cls.spectral(grid, parity, data)

    @classmethod
    def from_function(cls, grid: Grid, parity: Parity,
                      fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]) -> "ScalarField":
        """Sample fn(x, y, z) on the collocation nodes (physical field)."""
        xx = grid.x[:, None, None]
        yy = grid.y[None, :, None]
        zz = grid.z[None, None, :]
        return cls.physical(grid, parity, fn(xx, yy, zz) + np.zeros((grid.nx, grid.ny, grid.nz)))

    def require(self, rep: str) -> None:
        if self.rep != rep:
            raise RepresentationError(f"expected {rep} representation, got {self.rep}")


# ---------------------------------------------------------------------------
# forward / inverse transforms and dealiasing
# ---------------------------------------------------------------------------

def _conj_reflect(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = conj(a[-i mod nx]) along axis 0 (row 0 is its own partner)."""
    np.conjugate(a[0], out=out[0])
    np.conjugate(a[:0:-1], out=out[1:])
    return out


def _hermitian_fill(half: np.ndarray, ny: int) -> np.ndarray:
    """Full (nx, ny, nz) coefficients from the ky >= 0 half of ``rfft2``:
    slot (kx, ky) with ky < 0 is conj of slot (-kx, -ky) in the half."""
    h = ny // 2
    out = np.empty(half.shape[:1] + (ny,) + half.shape[2:], np.complex128)
    out[:, :h + 1] = half
    _conj_reflect(half[:, h - 1:0:-1], out[:, h + 1:])
    return out


def _hermitian_residue(data: np.ndarray) -> float:
    """Max real or imaginary part of c(k) - conj(c(-k)) over the
    coefficients ``irfft2`` ignores.

    Those are the ky < 0 half (checked against its partners in the
    ky > 0 half) and the self-partnered columns ky = 0 and ky = ny/2 (an
    imaginary (0, 0, m) entry, or an entry whose partner in the same column
    differs, makes that column's inverse along x complex).
    """
    h = data.shape[1] // 2
    res = 0.0
    for cols, partners in ((slice(h + 1, None), slice(h - 1, 0, -1)), ([0, h], [0, h])):
        own = data[:, cols]
        diff = _conj_reflect(data[:, partners], np.empty(own.shape, np.complex128))
        diff -= own
        parts = diff.view(np.float64)
        res = max(res, float(parts.max()), -float(parts.min()))
    return res


def to_spectral(f: ScalarField) -> ScalarField:
    """Forward transform; inverse of :func:`to_physical` to ~1e-12.

    A real DCT-I (EvenZ) or DST-I (OddZ) in z, then ``rfft2`` in (x, y);
    the ky < 0 half is filled by conjugation.  OddZ input must vanish on
    the walls (the sine basis cannot carry wall values); violations raise
    InvalidFieldError.
    """
    f.require(PHYSICAL)
    data = f.data
    nz = f.grid.nz
    if f.parity is Parity.ODD_Z:
        wall = max(float(np.max(np.abs(data[:, :, 0]))),
                   float(np.max(np.abs(data[:, :, -1]))))
        if _beyond_tolerance(wall, data):
            raise InvalidFieldError(
                f"OddZ physical field does not vanish on the walls (max {wall:.3e})"
            )
        vert = np.zeros(data.shape)
        vert[:, :, 1:-1] = sfft.dst(data[:, :, 1:-1], type=1, axis=2, workers=fft_workers())
        vert[:, :, 1:-1] /= nz - 1
    else:
        vert = sfft.dct(data, type=1, axis=2, workers=fft_workers())
        vert /= nz - 1
        vert[:, :, 0] *= 0.5
        vert[:, :, -1] *= 0.5
    half = sfft.rfft2(vert, axes=(0, 1), norm="forward", overwrite_x=True, workers=fft_workers())
    return ScalarField.spectral(f.grid, f.parity, _hermitian_fill(half, f.grid.ny))


def to_physical(f: ScalarField) -> ScalarField:
    """Inverse transform back to node values.

    ``irfft2`` in (x, y) on the ky >= 0 half, then a real DCT-I (EvenZ) or
    DST-I (OddZ) in z.  Raises InvalidFieldError if the coefficients break
    Hermitian symmetry (the reconstructed field would not be real).
    """
    f.require(SPECTRAL)
    g = f.grid
    data = f.data
    residue = _hermitian_residue(data)
    if _beyond_tolerance(residue, data):
        raise InvalidFieldError(
            f"spectral data breaks Hermitian symmetry (residue {residue:.3e})"
        )
    vals = sfft.irfft2(data[:, :g.ny // 2 + 1], s=(g.nx, g.ny), axes=(0, 1), norm="forward",
                       workers=fft_workers())
    # f = sum c_m basis_m(z) is half the DCT-I/DST-I of c with the
    # interior slots halved (the DCT-I counts the end slots once)
    vals[:, :, 1:-1] *= 0.5
    if f.parity is Parity.EVEN_Z:
        vals = sfft.dct(vals, type=1, axis=2, overwrite_x=True, workers=fft_workers())
    else:
        vals[:, :, 1:-1] = sfft.dst(vals[:, :, 1:-1], type=1, axis=2, workers=fft_workers())
        vals[:, :, 0] = 0.0
        vals[:, :, -1] = 0.0
    return ScalarField.physical(g, f.parity, vals)


def dealias(f: ScalarField) -> ScalarField:
    """2/3-rule truncation: zero |kx| > nx/3, |ky| > ny/3, m > floor(2 nz/3)."""
    f.require(SPECTRAL)
    return ScalarField.spectral(f.grid, f.parity, f.data * f.grid.dealias_mask)


def random_band_coefficients(grid: Grid, rng: np.random.Generator, max_kx: int, max_ky: int,
                             n_inner: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients of a random Hermitian band |kx|<=max_kx, |ky|<=max_ky.

    The (kx, ky) pairs run kx = 0..max_kx, ky = -max_ky..max_ky, skipping
    kx = 0, ky < 0 (the Hermitian partners); each pair holds `n_inner`
    coefficients, and each coefficient takes two standard normals (re, im),
    all drawn in one call in that order.  The (0, 0) coefficients are real
    (re); the others are (re + i im)/2.  Returns the (kx, ky) pairs and the
    (pairs, n_inner) coefficients.  Caps beyond the grid raise
    InvalidFieldError unless there is nothing to draw.
    """
    kx, ky = np.meshgrid(np.arange(max_kx + 1), np.arange(-max_ky, max_ky + 1), indexing="ij")
    keep = (kx > 0) | (ky >= 0)
    kx, ky = kx[keep], ky[keep]
    n_inner = max(n_inner, 0)
    if kx.size and n_inner:
        grid.index_kx(max_kx)
        grid.index_ky(max_ky)
    z = rng.standard_normal(2 * kx.size * n_inner).reshape(kx.size, n_inner, 2)
    c = np.empty((kx.size, n_inner), np.complex128)
    c.real = z[..., 0] / 2.0
    c.imag = z[..., 1] / 2.0
    origin = (kx == 0) & (ky == 0)
    c[origin] = z[origin, :, 0]
    return kx, ky, c


def random_band_limited(grid: Grid, parity: Parity, rng: np.random.Generator,
                        max_kx: int, max_ky: int, max_m: int) -> ScalarField:
    """Random real field with modes |kx|<=max_kx, |ky|<=max_ky, m<=max_m.

    The draw order is fixed by the mode caps alone, so the same rng state
    produces the same continuum function on any grid large enough to hold
    it (used for refinement studies).
    """
    mmin = 0 if parity is Parity.EVEN_Z else 1
    if max_m > grid.nz - 2:
        raise InvalidFieldError(f"max_m={max_m} exceeds representable range for nz={grid.nz}")
    kx, ky, c = random_band_coefficients(grid, rng, max_kx, max_ky, max_m + 1 - mmin)
    data = np.zeros((grid.nx, grid.ny, grid.nz), np.complex128)
    m = slice(mmin, max_m + 1)
    data[kx % grid.nx, ky % grid.ny, m] = c
    partner = (kx > 0) | (ky > 0)
    data[-kx[partner] % grid.nx, -ky[partner] % grid.ny, m] = np.conj(c[partner])
    return ScalarField.spectral(grid, parity, data)


# ---------------------------------------------------------------------------
# checkpoint field blocks (consumed by the cli module)
# ---------------------------------------------------------------------------

def encode_field_block(name: str, f: ScalarField) -> bytes:
    """One checkpoint block: ASCII descriptor line + raw little-endian payload.

    Spectral payload is complex128 stored as (re, im) float64 pairs in
    C order over (kx, ky, m); physical payload is float64 node values.
    """
    desc = (f"name={name} parity={f.parity.value} rep={f.rep} "
            f"nx={f.grid.nx} ny={f.grid.ny} nz={f.grid.nz}\n").encode("ascii")
    if f.rep == SPECTRAL:
        payload = np.ascontiguousarray(f.data).astype("<c16", copy=False).tobytes()
    else:
        payload = np.ascontiguousarray(f.data).astype("<f8", copy=False).tobytes()
    return desc + payload


def decode_field_block(buf: bytes, offset: int) -> tuple[str, ScalarField, int]:
    """Inverse of :func:`encode_field_block`; returns (name, field, next offset)."""
    end = buf.index(b"\n", offset)
    fields = dict(item.split("=", 1) for item in buf[offset:end].decode("ascii").split())
    nx, ny, nz = int(fields["nx"]), int(fields["ny"]), int(fields["nz"])
    grid = Grid(nx, ny, nz)
    parity = Parity(fields["parity"])
    count = nx * ny * nz
    start = end + 1
    if fields["rep"] == SPECTRAL:
        nbytes = count * 16
        data = np.frombuffer(buf[start:start + nbytes], dtype="<c16").reshape(nx, ny, nz)
        field = ScalarField.spectral(grid, parity, data.astype(np.complex128))
    else:
        nbytes = count * 8
        data = np.frombuffer(buf[start:start + nbytes], dtype="<f8").reshape(nx, ny, nz)
        field = ScalarField.physical(grid, parity, data.astype(np.float64))
    return fields["name"], field, start + nbytes
