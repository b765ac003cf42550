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

Spectral storage is the ky >= 0 half of a real field's spectrum: a complex
(nx, ny//2 + 1, nz) array, C-ordered so the vertical index m is the fastest
(stride-1) axis; a planar spectrum (``calculus.PlanarField``) is one such
m plane, (nx, ny//2 + 1), under the same checks.  The ky < 0 half is
implied by Hermitian symmetry, c(-kx, -ky, m) = conj(c(kx, ky, m)), which
encodes real-valuedness; the last stored column is ky = ny/2.

:class:`Grid` owns every spectral symbol (derivative, Laplacian and
Poisson multipliers), built once per grid; other modules only read
them.  First-derivative symbols (ikx, iky, kz) are 0 on the Nyquist lines
kx = nx/2, ky = ny/2 and on m = nz-1, as the collocation derivative is:
each such mode is a real cosine whose derivative vanishes on the nodes,
and an odd symbol would break its Hermitian pairing.  Quadratic symbols
(kh_sq, kz_sq, k_sq) keep the real wavenumbers: they are the dissipation
of the energy law.

A box of modes is a :class:`Band` (kx in two row slices, ky < c, m < d),
built by :meth:`Grid.box` from its caps; it gathers a half spectrum's box
into one compact array, scatters it back, and carries the Laplacian and
projection symbols on the box.  A grid owns two: :attr:`Grid.band`, the
2/3-rule box (about 30% of the stored half), and :attr:`Grid.whole_band`.
The 2/3 rule has this one mechanism: dealiasing is a gather and scatter
on :attr:`Grid.band`, the stepper works on its band, and every Leray
projection runs on a band.  A seeded field is drawn into its box's compact
array (:func:`random_band_coefficients`) and scattered once, when finished.

Transforms work on real data throughout, from ``numpy.fft`` and BLAS
products; the package imports no scipy.  The forward transform is one
matrix product in z with a cached analysis matrix, the trapezoid
quadrature of the cosine or sine basis, which is exact for every mode
the grid carries; then ``rfft`` in y and ``fft`` in x, whose output is
the stored half.  An EvenZ field is analysed with its bottom-node plane
subtracted and added back to m = 0, so z-constant data maps to exact
zeros in every m > 0.  The inverse transforms only the lines that carry
coefficients: ``ifft`` in x up to the last live ky and m, ``irfft`` in
y on the live m planes, then one matrix product in z: the (x, y) node
values of the n_m live planes times the first n_m rows of a cached
synthesis matrix, cos(pi m k/(nz-1)) or sin(pi m k/(nz-1)).  At these
grid sizes a dense product in z is cheaper than a fast transform.  The
inverse samples onto a finer grid, and the forward transform restricts
onto a coarser one, without building a padded spectrum (the alias-free
products use both).  Each transform's (x, y) part is a function of its
own, :func:`to_physical_planes` and :func:`to_spectral_planes`, which
the depth-averaged products call without the z step; they are also the
planar transforms, a planar spectrum being one m plane.  No other
module calls an FFT.  Two stored columns still constrain themselves:
ky = 0 and ky = ny/2 each hold both (kx, ky) and its partner (-kx, -ky).
The inverse checks them
(:func:`check_hermitian`): the largest real or imaginary part of
c(k) - conj(c(-k)) there must stay within 1e-10 of max(1, max |c|), or
InvalidFieldError is raised.

Checkpoint blocks keep the full (nx, ny, nz) layout on disk: writing fills
the ky < 0 half by conjugation, and reading checks that half (and the two
self-partnered columns) under the same rule before keeping the ky >= 0 half.

Fields are immutable values: the data array is marked read-only at
construction and all operations return new fields, so fields may be shared
freely across threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import BinaryIO, Callable

import numpy as np
from numpy import fft as nfft

from .errors import InvalidFieldError, RepresentationError
from .threads import fft_workers  # noqa: F401  (cli and perfbench read it here)

PHYSICAL = "physical"
SPECTRAL = "spectral"

#: relative tolerance for structural checks (wall values, Hermitian symmetry)
_STRUCTURE_RTOL = 1e-10


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
        return nfft.fftfreq(self.nx, d=1.0 / self.nx)

    @cached_property
    def ky(self) -> np.ndarray:
        """Integer wavenumbers of the whole y axis in FFT ordering."""
        return nfft.fftfreq(self.ny, d=1.0 / self.ny)

    @cached_property
    def m(self) -> np.ndarray:
        """Vertical mode indices 0..nz-1."""
        return np.arange(self.nz, dtype=float)

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        """Shape of a stored spectrum: the ky >= 0 half."""
        return (self.nx, self.ny // 2 + 1, self.nz)

    @cached_property
    def kx3(self) -> np.ndarray:
        return self.kx[:, None, None]

    @cached_property
    def ky3(self) -> np.ndarray:
        """ky of the stored columns 0..ny/2 (the last one as -ny/2)."""
        return self.ky[None, :self.ny // 2 + 1, None]

    @cached_property
    def ikx(self) -> np.ndarray:
        """d/dx symbol 2*pi*i*kx, shape (nx, 1, 1), 0 on the Nyquist row."""
        k = self.kx3.copy()
        k[self.nx // 2] = 0.0
        return _freeze(2j * np.pi * k)

    @cached_property
    def iky(self) -> np.ndarray:
        """d/dy symbol 2*pi*i*ky, shape (1, ny//2 + 1, 1), 0 on ky = ny/2."""
        k = self.ky3.copy()
        k[:, -1] = 0.0
        return _freeze(2j * np.pi * k)

    @cached_property
    def kz(self) -> np.ndarray:
        """d/dz symbol pi*m (length nz), 0 on m = 0 and m = nz-1; ddz
        multiplies cosine coefficients by -kz and sine coefficients by kz."""
        k = np.pi * self.m
        k[[0, -1]] = 0.0
        return _freeze(k)

    @cached_property
    def kz_inv(self) -> np.ndarray:
        """1/kz where kz is nonzero, else 0."""
        return _freeze(_inverse(self.kz))

    @cached_property
    def kh_sq(self) -> np.ndarray:
        """|2*pi*k_h|^2 on the stored half, shape (nx, ny//2 + 1, 1)."""
        return _freeze((2.0 * np.pi) ** 2 * (self.kx3**2 + self.ky3**2))

    @cached_property
    def kz_sq(self) -> np.ndarray:
        """(pi*m)^2 (length nz), the top mode m = nz-1 included."""
        return _freeze((np.pi * self.m) ** 2)

    @property
    def k_sq(self) -> np.ndarray:
        """|k|^2 = kh_sq + kz_sq, the symbol of -Laplacian: built on each of
        its rare reads, so that no grid holds one more full-size array."""
        return _freeze(self.kh_sq + self.kz_sq)

    @cached_property
    def poisson_inv(self) -> np.ndarray:
        """1/k_sq, 0 on the mean mode (kx, ky, m) = (0, 0, 0)."""
        return _freeze(_inverse(self.k_sq))

    @cached_property
    def band(self) -> "Band":
        """The 2/3-rule box, the modes a dealiased run keeps:
        |kx| <= nx/3, 0 <= ky <= ny/3 and m <= floor(2(nz-1)/3).

        The vertical cut uses the interval count nz-1 (the cosine/sine grid
        has effective period 2(nz-1)): retaining m <= floor(2(nz-1)/3) is
        what makes quadratic products alias-free, hence exactly
        energy-conserving, on this grid.  The box is at most 30% of the
        stored half (29.9% at 64x64x33).
        """
        return self.box(self.nx // 3, self.ny // 3, (2 * (self.nz - 1)) // 3)

    def box(self, kx_max: int, ky_max: int, m_max: int) -> "Band":
        """The :class:`Band` of the modes |kx| <= kx_max, 0 <= ky <= ky_max
        and m <= m_max, each cap clipped to the grid (|kx| < nx/2); the grid
        keeps each box it builds, as every seeded draw asks for its box."""
        k = min(max(kx_max, 0), self.nx // 2 - 1)
        key = (k, min(max(ky_max, 0), self.ny // 2) + 1, min(max(m_max, 0), self.nz - 1) + 1)
        if key not in self._boxes:
            self._boxes[key] = Band(self, (slice(0, k + 1), slice(self.nx - k, self.nx)), *key[1:])
        return self._boxes[key]

    @cached_property
    def _boxes(self) -> dict[tuple[int, int, int], "Band"]:
        return {}

    @cached_property
    def whole_band(self) -> "Band":
        """The whole stored half as a :class:`Band`, which gathers and
        scatters without a copy."""
        return Band(self, (slice(0, self.nx),), self.ny // 2 + 1, self.nz)

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


class Band:
    """A box of a grid's stored half spectrum, held as one compact array.

    The box is the kx rows `rows` (slices of the FFT-ordered kx axis, in
    increasing order), the columns ky = 0..c-1 and the planes m = 0..d-1.
    :meth:`gather` copies a half spectrum's box into a C-ordered
    (n_rows, c, d) array, its rows in the order of `rows`, and
    :meth:`scatter` puts such an array back into a half spectrum that is
    exactly +0.0 outside the box.  A band that is the whole half spectrum
    (:attr:`Grid.whole_band`) gathers and scatters without a copy.

    The band's symbols ``ikx``, ``iky``, ``kz`` and ``k_sq`` carry the
    grid's names and its values at the box's modes, bit for bit;
    ``leray_inv``, 1/(|ikx|^2 + |iky|^2 + kz^2) from real squares (0 where
    that is 0), is the band's own, so each mode gets the same bits in every
    band that holds it.  All are read-only and built at the box's size.
    """

    def __init__(self, grid: Grid, rows: tuple[slice, ...], c: int, d: int):
        # no reference to `grid`, which caches its bands: the cycle would
        # keep a dead grid's symbol arrays until the cyclic collector ran
        self.rows = rows
        self.c = c
        self.d = d
        self.spectral_shape = grid.spectral_shape
        self.shape = (sum(r.stop - r.start for r in rows), c, d)
        self.whole = self.shape == grid.spectral_shape
        # the kx rows outside the box, the gaps between and around `rows`
        edges = [0] + [e for r in rows for e in (r.start, r.stop)] + [grid.nx]
        self._gaps = [slice(a, b) for a, b in zip(edges[::2], edges[1::2]) if a < b]
        self.ikx = self._rows(grid.ikx)
        self.iky = grid.iky[:, :c]
        self.kz = grid.kz[:d]
        self.kh_sq = self._rows(grid.kh_sq[:, :c])
        self.kz_sq = grid.kz_sq[:d]
        self.leray_inv = _freeze(_inverse(self.ikx.imag**2 + self.iky.imag**2 + self.kz**2))

    def _rows(self, a: np.ndarray) -> np.ndarray:
        """The box's kx rows of `a` (kx on its leading axis), read-only."""
        return _freeze(np.concatenate([a[r] for r in self.rows]))

    @property
    def k_sq(self) -> np.ndarray:
        """|k|^2 on the box, built on each read as :attr:`Grid.k_sq` is."""
        return _freeze(self.kh_sq + self.kz_sq)

    def gather(self, a: np.ndarray) -> np.ndarray:
        """The box of the half spectrum `a`: a new compact array, or `a`
        itself for the whole band.  What lies outside the box is not read;
        :meth:`covers` says whether it is zero."""
        if self.whole:
            return a
        return np.concatenate([a[r, :self.c, :self.d] for r in self.rows])

    def scatter(self, b: np.ndarray) -> np.ndarray:
        """The half spectrum whose box is the compact array `b` (same dtype)
        and which is exactly +0.0 (False) elsewhere; `b` itself for the
        whole band.  A 2-D `b` (the box's m = 0 plane) gives a planar one."""
        if self.whole:
            return b
        out = np.zeros(self.spectral_shape[:b.ndim], b.dtype)
        start = 0
        for r in self.rows:
            stop = start + r.stop - r.start
            out[(r, slice(self.c), slice(self.d))[:b.ndim]] = b[start:stop]
            start = stop
        return out

    def covers(self, a: np.ndarray) -> bool:
        """True if every coefficient of the half spectrum `a` outside the
        box is zero (+0.0 or -0.0), so that :meth:`gather` drops nothing.

        It reads the 70% of `a` outside the box, about 0.06 ms per
        64x64x33 half spectrum."""
        outside = [a[r] for r in self._gaps]
        for r in self.rows:
            outside += [a[r, self.c:], a[r, :self.c, self.d:]]
        return not any(part.any() for part in outside)


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


def _inverse(symbol: np.ndarray) -> np.ndarray:
    """1/symbol where symbol > 0, else 0."""
    out = np.zeros(symbol.shape)
    np.divide(1.0, symbol, out=out, where=symbol > 0)
    return out


@dataclass(frozen=True)
class ScalarField:
    """A scalar on the channel in physical or spectral representation.

    Construct through :meth:`physical` / :meth:`spectral`; the data array is
    taken over and frozen.  Physical data is real (nx, ny, nz); spectral data
    is the complex ky >= 0 half (nx, ny//2 + 1, nz) with parity-forbidden
    vertical slots exactly zero.
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
        if data.shape != grid.spectral_shape:
            raise InvalidFieldError(
                f"spectral data shape {data.shape} is not the ky >= 0 half "
                f"{grid.spectral_shape} of grid ({grid.nx}, {grid.ny}, {grid.nz})"
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
            return cls.spectral(grid, parity, np.zeros(grid.spectral_shape, np.complex128))
        return cls.physical(grid, parity, np.zeros((grid.nx, grid.ny, grid.nz)))

    @classmethod
    def from_modes(cls, grid: Grid, parity: Parity,
                   modes: dict[tuple[int, int, int], complex]) -> "ScalarField":
        """Build a spectral field from {(kx, ky, m): coefficient}.

        The Hermitian partner at (-kx, -ky, m) is implied; pass each
        (kx, ky) pair only once (the coefficient at (0, 0, m) must be real).
        Whichever of the two lies in the ky >= 0 half is stored; on ky = 0
        both are.
        """
        data = np.zeros(grid.spectral_shape, np.complex128)
        mmin = 0 if parity is Parity.EVEN_Z else 1
        mmax = grid.nz - 1 if parity is Parity.EVEN_Z else grid.nz - 2
        for (kx, ky, m), c in modes.items():
            if not mmin <= m <= mmax:
                raise InvalidFieldError(f"mode m={m} not representable for {parity}")
            ix, iy = grid.index_kx(kx), grid.index_ky(ky)
            if kx == 0 and ky == 0 and abs(complex(c).imag) > 0:
                raise InvalidFieldError("coefficient at (0, 0, m) must be real")
            if ky >= 0:
                data[ix, iy, m] += c
            if ky <= 0 and (kx or ky):
                data[grid.index_kx(-kx), -ky, m] += np.conj(c)
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
    np.conjugate(a[:1], out=out[:1])
    np.conjugate(a[:0:-1], out=out[1:])
    return out


def check_hermitian(data: np.ndarray, what: str, full: bool = False) -> None:
    """Raise InvalidFieldError naming `what` if a real or imaginary part of
    c(k) - conj(c(-k)) exceeds the structural tolerance of max(1, max |c|)
    on the self-partnered columns ky = 0 and ky = ny/2 of a stored half,
    planar (nx, ny//2 + 1) or 3-D (nx, ny//2 + 1, nz), or, for a `full`
    (nx, ny, ...) spectrum, also on its ky < 0 half against the ky > 0 half.

    An imaginary (0, 0, m) entry, or an entry whose partner in the same
    column differs, makes that column's inverse along x complex.
    """
    h = data.shape[1] // 2 if full else data.shape[1] - 1
    self_partnered = data[:, ::h]  # the columns 0 and h, as one view
    pairs = [(self_partnered, self_partnered)]
    if full:
        pairs.append((data[:, h + 1:], data[:, h - 1:0:-1]))
    residue = 0.0
    for own, partners in pairs:
        diff = _conj_reflect(partners, np.empty(own.shape, np.complex128))
        diff -= own
        parts = diff.view(np.float64)
        residue = max(residue, float(parts.max()), -float(parts.min()))
    if _beyond_tolerance(residue, data):
        raise InvalidFieldError(f"{what} breaks Hermitian symmetry (residue {residue:.3e})")


def to_spectral(f: ScalarField, grid: Grid | None = None) -> ScalarField:
    """Forward transform; inverse of :func:`to_physical` to ~1e-12.

    The z pass is one matrix product of the node values with a cached
    analysis matrix (:func:`_analysis`), the trapezoid quadrature of the
    cosine or sine basis; then the horizontal pass
    (:func:`to_spectral_planes`).  An EvenZ field is analysed with its
    bottom-node plane subtracted, which is added back to m = 0, so
    z-constant data maps to exact zeros in every m > 0.  On a coarser
    `grid` it is the Galerkin restriction, the mirror of
    :func:`to_physical` onto a finer grid: the product takes only the
    target's first nz columns (for OddZ its slot m = nz-1 is zero), and
    the horizontal pass restricts kx and ky on the half spectrum.  OddZ
    input must vanish on the walls (the sine basis cannot carry wall
    values); violations raise InvalidFieldError, as does a finer `grid`.
    """
    f.require(PHYSICAL)
    g = f.grid
    tgt = grid or g
    if tgt.nx > g.nx or tgt.ny > g.ny or tgt.nz > g.nz:
        raise InvalidFieldError(f"target grid {tgt} is finer than the field's grid {g}")
    data = f.data
    analysis = _analysis(g.nz, f.parity)[:, :tgt.nz]
    if f.parity is Parity.ODD_Z:
        wall = max(float(np.max(np.abs(data[:, :, 0]))),
                   float(np.max(np.abs(data[:, :, -1]))))
        if _beyond_tolerance(wall, data):
            raise InvalidFieldError(
                f"OddZ physical field does not vanish on the walls (max {wall:.3e})"
            )
        vert = data.reshape(-1, g.nz) @ analysis
        vert[:, -1] = 0.0  # the target's sine slot m = nz-1
    else:
        base = data[:, :, :1]
        vert = (data - base).reshape(-1, g.nz) @ analysis
        vert[:, 0] += base.ravel()
    vert = vert.reshape(g.nx, g.ny, tgt.nz)
    return ScalarField.spectral(tgt, f.parity, to_spectral_planes(vert, tgt))


def to_spectral_planes(vals: np.ndarray, grid: Grid) -> np.ndarray:
    """Horizontal pass of :func:`to_spectral`: the stored ky >= 0 half on
    `grid` of real (x, y) node values, one plane (nx', ny') or a stack
    (nx', ny', n), sampled on a grid no coarser in x and y.

    ``rfft`` in y, whose columns ky <= ny/2 of `grid` are kept, then
    ``fft`` in x in place, then the Galerkin restriction of kx and ky onto
    `grid` (a target Nyquist line is the sum of +-n/2).  `vals` is left
    unchanged, so a read-only field's data may be passed.
    """
    nx, ny = vals.shape[:2]
    h, k = grid.ny // 2, grid.nx // 2
    half = nfft.rfft(vals, axis=1, norm="forward")[:, :h + 1]
    half = nfft.fft(half, axis=0, norm="forward", out=half)
    if grid.ny < ny:
        half[:, h] += _conj_reflect(half[:, h], np.empty_like(half[:, h]))
    if grid.nx < nx:
        half = np.concatenate((half[:k], half[k:k + 1] + half[nx - k:nx - k + 1],
                               half[nx - k + 1:]))
    return np.ascontiguousarray(half)


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


@lru_cache(maxsize=16)
def _synthesis(nz: int, parity: Parity) -> np.ndarray:
    """Vertical synthesis matrix on the nz-node grid: f(z_k) = sum_m c_m B[m, k].

    B[m, k] = cos(pi m k/(nz-1)) (EvenZ) or sin(pi m k/(nz-1)) (OddZ, whose
    rows m = 0, nz-1 and wall columns are exactly 0).  The index m*k is
    reduced mod 2(nz-1) before scaling, so the angle carries no error that
    grows with m*k, and every cos(0) or cos(pi) entry is exact.
    """
    n = nz - 1
    angle = np.outer(np.arange(nz), np.arange(nz)) % (2 * n) * (np.pi / n)
    if parity is Parity.EVEN_Z:
        return _freeze(np.cos(angle))
    b = np.sin(angle)
    b[[0, -1]] = 0.0
    b[:, [0, -1]] = 0.0
    return _freeze(b)


@lru_cache(maxsize=16)
def _analysis(nz: int, parity: Parity) -> np.ndarray:
    """Vertical analysis matrix on the nz-node grid: c_m = sum_k f(z_k) A[k, m],
    exact for every mode the grid carries (its inverse is :func:`_synthesis`).

    A[k, m] = (2/(nz-1)) w_k B[m, k] with the trapezoid weights w (1/2 on
    the walls) and the columns m = 0 and nz-1 halved: the DCT-I (EvenZ) or
    DST-I (OddZ) as one product.
    """
    a = _synthesis(nz, parity).T * (2.0 / (nz - 1))
    a[[0, -1]] *= 0.5
    a[:, [0, -1]] *= 0.5
    return _freeze(a)


def to_physical_planes(f: ScalarField, grid: Grid) -> np.ndarray:
    """Horizontal pass of :func:`to_physical`: the (x, y) node values of
    f's m planes 0..n_m-1, an (nx, ny, n_m) array on `grid` (the field's
    own or a finer one), where n_m is one past the last live m (1 if none
    is).  A spectral ``calculus.PlanarField`` is read as the one m plane
    of a spectrum, so its values come back as (nx, ny, 1).

    Only lines that carry coefficients are transformed: ``ifft`` in x on
    the stored (ky, m) lines up to the last live ky and the last live m,
    then ``irfft`` in y on the live m planes.  On a finer `grid` this
    samples the same band-limited planes: the kx Nyquist row is split
    evenly between +-nx/2, the ky = ny/2 column is halved (``irfft``
    supplies its conjugate at -ny/2), and the missing kx and ky are zero.
    Raises InvalidFieldError if the self-partnered columns ky = 0 or
    ky = ny/2 break Hermitian symmetry (the planes would not be real) or
    if `grid` is coarser than the field's grid on any axis.
    """
    f.require(SPECTRAL)
    g, tgt = f.grid, grid
    if tgt.nx < g.nx or tgt.ny < g.ny or tgt.nz < g.nz:
        raise InvalidFieldError(f"target grid {tgt} is coarser than the field's grid {g}")
    h = g.ny // 2
    half = f.data.reshape(g.nx, h + 1, -1)
    check_hermitian(half, "spectral data")
    # an empty spectrum takes the same path through one zero line
    live_ky, live_m = np.nonzero(np.any(half, axis=0))
    n_ky, n_m = live_ky.max(initial=0) + 1, live_m.max(initial=0) + 1
    lines = half[:, :n_ky, :n_m]
    if tgt.nx > g.nx:
        lines = _embed_fft_axis(lines, tgt.nx, 0)
    lines = nfft.ifft(lines, axis=0, norm="forward")
    if n_ky > h and tgt.ny > g.ny:
        lines[:, h] *= 0.5  # split with the ky = -ny/2 column irfft supplies
    return nfft.irfft(lines, n=tgt.ny, axis=1, norm="forward")


def to_physical(f: ScalarField, grid: Grid | None = None) -> ScalarField:
    """Inverse transform: node values on the field's grid, or on a finer `grid`.

    The horizontal pass (:func:`to_physical_planes`) gives the (x, y) node
    values of the live m planes; the z pass is one matrix product of those
    planes with the first n_m rows of the target's synthesis matrix
    (:func:`_synthesis`), which writes every node.  It equals a DCT-I
    (EvenZ) or DST-I (OddZ) to roundoff, OddZ walls come out exactly 0,
    and on a finer `grid` the missing m are zero.  Raises InvalidFieldError
    as :func:`to_physical_planes` does.
    """
    tgt = f.grid if grid is None else grid
    planes = to_physical_planes(f, tgt)
    n_m = planes.shape[2]
    vals = planes.reshape(-1, n_m) @ _synthesis(tgt.nz, f.parity)[:n_m]
    return ScalarField.physical(tgt, f.parity, vals.reshape(tgt.nx, tgt.ny, tgt.nz))


def dealias(f: ScalarField) -> ScalarField:
    """2/3-rule truncation: f's coefficients on :attr:`Grid.band` (|kx| <=
    nx/3, |ky| <= ny/3, m <= floor(2(nz-1)/3)), exactly +0.0 elsewhere."""
    f.require(SPECTRAL)
    band = f.grid.band
    return ScalarField.spectral(f.grid, f.parity, band.scatter(band.gather(f.data)))


def random_band_coefficients(grid: Grid, parity: Parity, rng: np.random.Generator,
                             max_kx: int, max_ky: int, max_m: int) -> np.ndarray:
    """The compact array of ``grid.box(max_kx, max_ky, max_m)`` holding a
    random Hermitian band |kx|<=max_kx, |ky|<=max_ky, m<=max_m of `parity`.

    The (kx, ky) pairs run kx = 0..max_kx, ky = -max_ky..max_ky, skipping
    kx = 0, ky < 0 (the Hermitian partners); each pair holds one
    coefficient per m (from m = 1 for OddZ, whose plane m = 0 stays zero),
    and each coefficient takes two standard normals (re, im), all drawn in
    one call in that order.  The (0, 0) coefficients are real (re); the
    others are (re + i im)/2.  The box's rows are in :class:`Band` order
    (kx = 0..max_kx, then -max_kx..-1), so row -kx is the partner of row
    kx: each drawn (kx, ky) is stored where ky >= 0, its partner (-kx, -ky)
    where -ky >= 0; on ky = 0 both are.  Caps beyond the grid raise
    InvalidFieldError unless there is nothing to draw, in which case the
    box is zero and `rng` is not used.
    """
    mmin = 0 if parity is Parity.EVEN_Z else 1
    if max_m > grid.nz - 2:
        raise InvalidFieldError(f"max_m={max_m} exceeds representable range for nz={grid.nz}")
    pairs = _band_pairs(max_kx, max_ky)
    data = np.zeros(grid.box(max_kx, max_ky, max_m).shape, np.complex128)
    n_inner = max_m + 1 - mmin
    if not (pairs.count and n_inner > 0):
        return data
    grid.index_kx(max_kx)
    grid.index_ky(max_ky)
    z = rng.standard_normal(2 * pairs.count * n_inner).reshape(pairs.count, n_inner, 2)
    c = np.empty((pairs.count, n_inner), np.complex128)
    c.real = z[..., 0] / 2.0
    c.imag = z[..., 1] / 2.0
    c[pairs.origin] = z[pairs.origin, :, 0]
    data[pairs.up_rows, pairs.up_cols, mmin:] = c[pairs.up]
    data[pairs.down_rows, pairs.down_cols, mmin:] = np.conj(c[pairs.down])
    return data


@dataclass(frozen=True)
class _BandPairs:
    """The (kx, ky) pairs a draw with caps (max_kx, max_ky) runs over, in
    draw order, as read-only index tables: `count` pairs; the masks
    `origin` (the pair (0, 0)), `up` (ky >= 0) and `down` (kx > 0,
    ky <= 0); and the box rows and columns where the `up` pairs and the
    partners of the `down` pairs are stored."""

    count: int
    origin: np.ndarray
    up: np.ndarray
    down: np.ndarray
    up_rows: np.ndarray
    up_cols: np.ndarray
    down_rows: np.ndarray
    down_cols: np.ndarray


@lru_cache(maxsize=16)
def _band_pairs(max_kx: int, max_ky: int) -> _BandPairs:
    """The index tables of :func:`random_band_coefficients` for its caps,
    built once per (max_kx, max_ky): they do not depend on the grid."""
    kx, ky = np.meshgrid(np.arange(max_kx + 1), np.arange(-max_ky, max_ky + 1), indexing="ij")
    keep = (kx > 0) | (ky >= 0)
    kx, ky = kx[keep], ky[keep]
    up, down = ky >= 0, (kx > 0) & (ky <= 0)
    return _BandPairs(kx.size, *map(_freeze, ((kx == 0) & (ky == 0), up, down, kx[up], ky[up],
                                              -kx[down], -ky[down])))


def random_band_limited(grid: Grid, parity: Parity, rng: np.random.Generator,
                        max_kx: int, max_ky: int, max_m: int) -> ScalarField:
    """Random real field with modes |kx|<=max_kx, |ky|<=max_ky, m<=max_m:
    :func:`random_band_coefficients` scattered from its box.

    The draw order is fixed by the mode caps alone, so the same rng state
    produces the same continuum function on any grid large enough to hold
    it (used for refinement studies).
    """
    drawn = random_band_coefficients(grid, parity, rng, max_kx, max_ky, max_m)
    return ScalarField.spectral(grid, parity, grid.box(max_kx, max_ky, max_m).scatter(drawn))


# ---------------------------------------------------------------------------
# checkpoint field blocks (consumed by the io module)
# ---------------------------------------------------------------------------

#: longest descriptor line a block reader accepts (the writer's are < 80 bytes)
_DESCRIPTOR_MAX = 256


def write_field_block(fh: BinaryIO, name: str, f: ScalarField) -> None:
    """Write one checkpoint block to `fh`: ASCII descriptor line + raw
    little-endian payload.

    Only spectral fields are stored: the payload is the full complex128
    (nx, ny, nz) spectrum, the stored half with its ky < 0 half filled by
    conjugation, as (re, im) float64 pairs in C order over (kx, ky, m).  It
    is written from that one array, with no bytes copy.
    """
    f.require(SPECTRAL)
    fh.write((f"name={name} parity={f.parity.value} rep={f.rep} "
              f"nx={f.grid.nx} ny={f.grid.ny} nz={f.grid.nz}\n").encode("ascii"))
    h = f.grid.ny // 2
    full = np.empty((f.grid.nx, f.grid.ny, f.grid.nz), np.complex128)
    full[:, :h + 1] = f.data
    _conj_reflect(f.data[:, h - 1:0:-1], full[:, h + 1:])
    fh.write(full.astype("<c16", copy=False))


def read_field_block(fh: BinaryIO, grid: Grid | None = None) -> tuple[str, ScalarField]:
    """Read one block written by :func:`write_field_block` from the seekable
    `fh`, leaving it at the block's end; returns (name, field).

    The field is on `grid` when the block's dimensions are its own, so
    blocks read against one grid share that instance and its cached
    symbols; otherwise on a new Grid.  A block that is not spectral raises
    RepresentationError; a descriptor or payload cut short, a non-finite
    coefficient, or a ky < 0 half or self-partnered column that breaks
    Hermitian symmetry raises InvalidFieldError, each naming the block.
    """
    line = fh.readline(_DESCRIPTOR_MAX)
    if not line.endswith(b"\n"):
        raise InvalidFieldError(f"block descriptor {line[:40]!r} is cut short")
    fields = dict(item.split("=", 1) for item in line.decode("ascii").split())
    if fields["rep"] != SPECTRAL:
        raise RepresentationError(f"block {fields['name']!r} is {fields['rep']!r}, "
                                  f"expected {SPECTRAL!r}")
    nx, ny, nz = int(fields["nx"]), int(fields["ny"]), int(fields["nz"])
    if grid is None or (grid.nx, grid.ny, grid.nz) != (nx, ny, nz):
        grid = Grid(nx, ny, nz)
    # the payload must be in the stream before its buffer is allocated, so
    # a corrupt descriptor cannot ask for an arbitrarily large one
    nbytes = nx * ny * nz * 16
    here = fh.tell()
    left = fh.seek(0, os.SEEK_END) - here
    fh.seek(here)
    if left < nbytes:
        raise InvalidFieldError(f"block {fields['name']!r} is cut short "
                                f"({left} of {nbytes} payload bytes)")
    data = np.empty((nx, ny, nz), "<c16")
    fh.readinto(data)
    if not np.isfinite(data).all():
        raise InvalidFieldError(f"block {fields['name']!r} has non-finite coefficients")
    check_hermitian(data, f"block {fields['name']!r}", full=True)
    half = np.ascontiguousarray(data[:, :ny // 2 + 1], dtype=np.complex128)
    return fields["name"], ScalarField.spectral(grid, Parity(fields["parity"]), half)
