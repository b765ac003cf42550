"""Differential and integral operators on channel fields.

Derivatives act on spectral data as diagonal multipliers: horizontal
derivatives multiply by 2*pi*i*k, the vertical derivative maps between the
cosine and sine bases with factor -m*pi (even -> odd) or +m*pi (odd -> even).
The vertical average and fluctuation realize the barotropic/baroclinic
split; the vertical velocity is reconstructed from the horizontal field by
term-by-term antidifferentiation of the divergence.

Alias-free products take one of two paths, which share the loop that
samples each distinct factor once.  A product needed as a 3-D field goes
through :func:`multiply_exact_sums` on the 3/2-padded 3-D grid.  A product
needed only as its depth average (both sides of the averaged-nonlinearity
identity, the planar :func:`multiply_exact_2d`) goes through
:func:`depth_average_sums`: by Parseval in z the depth average of a
product is a weighted sum of products of (x, y) planes, and only the
horizontal product can alias, so it is padded 3/2 in x and y only, with
no z nodes and one planar forward transform per sum.

This module calls no FFT.  The transforms and their horizontal passes
live in :mod:`fields`, and a planar field is transformed by those passes
as the one m plane of a spectrum.

All operators are pure functions on immutable fields and are safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import IncompatibleDivergenceError, InvalidFieldError, RepresentationError
from .fields import (
    PHYSICAL,
    SPECTRAL,
    Grid,
    Parity,
    ScalarField,
    random_band_coefficients,
    to_physical,
    to_physical_planes,
    to_spectral,
    to_spectral_planes,
)

#: tolerance of vertical_velocity's compatibility checks
COMPAT_TOL = 1e-10


# ---------------------------------------------------------------------------
# planar fields on the horizontal torus M
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarField:
    """A scalar on the horizontal periodic square M (z extent ignored).

    Physical data is real (nx, ny).  Spectral data is stored like one m
    plane of a :class:`ScalarField` spectrum: the complex ky >= 0 half
    (nx, ny//2 + 1), read as the m = 0 cosine plane (its `parity`).
    """

    parity: ClassVar[Parity] = Parity.EVEN_Z
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
        if data.shape != grid.spectral_shape[:2]:
            raise InvalidFieldError(f"planar spectral data shape {data.shape} is not the "
                                    f"ky >= 0 half {grid.spectral_shape[:2]}")
        data.flags.writeable = False
        return cls(grid, SPECTRAL, data)

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "PlanarField":
        xx = grid.x[:, None]
        yy = grid.y[None, :]
        return cls.physical(grid, fn(xx, yy) + np.zeros((grid.nx, grid.ny)))

    def require(self, rep: str) -> None:
        if self.rep != rep:
            raise RepresentationError(f"expected {rep} planar representation, got {self.rep}")


def to_spectral_2d(f: PlanarField) -> PlanarField:
    """Forward transform: the ky >= 0 half of the spectrum, by the
    horizontal pass :func:`fields.to_spectral_planes` (``rfft2``)."""
    f.require(PHYSICAL)
    return PlanarField.spectral(f.grid, to_spectral_planes(f.data, f.grid))


def to_physical_2d(f: PlanarField) -> PlanarField:
    """Node values by the horizontal pass :func:`fields.to_physical_planes`,
    which reads the plane as one m plane.  Raises RepresentationError on a
    physical field, and InvalidFieldError if the self-partnered columns
    ky = 0 or ky = ny/2 break Hermitian symmetry."""
    g = f.grid
    return PlanarField.physical(g, to_physical_planes(f, g).reshape(g.nx, g.ny))


def ddx_2d(f: PlanarField) -> PlanarField:
    f.require(SPECTRAL)
    return PlanarField.spectral(f.grid, f.grid.ikx[:, :, 0] * f.data)


def ddy_2d(f: PlanarField) -> PlanarField:
    f.require(SPECTRAL)
    return PlanarField.spectral(f.grid, f.grid.iky[:, :, 0] * f.data)


def random_band_limited_2d(grid: Grid, rng: np.random.Generator,
                           max_kx: int, max_ky: int) -> PlanarField:
    """Random real planar field with modes |kx|<=max_kx, |ky|<=max_ky.

    Draw order depends only on the caps, so the same rng state gives the
    same function on any sufficiently large grid; the spectrum is the
    m = 0 plane of ``random_band_limited(grid, EVEN_Z, rng, max_kx, max_ky, 0)``.
    """
    drawn = random_band_coefficients(grid, Parity.EVEN_Z, rng, max_kx, max_ky, 0)
    return PlanarField.spectral(grid, grid.box(max_kx, max_ky, 0).scatter(drawn[:, :, 0]))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def ddx(f: ScalarField) -> ScalarField:
    """d/dx as the multiplier :attr:`Grid.ikx` = 2*pi*i*kx (0 on the
    Nyquist row); parity unchanged."""
    f.require(SPECTRAL)
    return ScalarField.spectral(f.grid, f.parity, f.grid.ikx * f.data)


def ddy(f: ScalarField) -> ScalarField:
    f.require(SPECTRAL)
    return ScalarField.spectral(f.grid, f.parity, f.grid.iky * f.data)


def ddz(f: ScalarField) -> ScalarField:
    """Vertical derivative; flips parity.

    Even -> odd carries cos slot m to sine slot m with factor -m*pi, odd ->
    even sine to cosine with +m*pi (:attr:`Grid.kz`).  The cosine mode
    m = nz-1 has a derivative that vanishes at every collocation node and
    is dropped (exact on band-limited fields).
    """
    f.require(SPECTRAL)
    if f.parity is Parity.EVEN_Z:
        return ScalarField.spectral(f.grid, Parity.ODD_Z, -f.grid.kz * f.data)
    return ScalarField.spectral(f.grid, Parity.EVEN_Z, f.grid.kz * f.data)


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
    int_0^1 sin(m pi z) dz = 2/(m pi) for odd m and 0 for even m.  Both
    spectra store the ky >= 0 half, so the average is taken column by
    column.
    """
    f.require(SPECTRAL)
    g = f.grid
    if f.parity is Parity.EVEN_Z:
        return PlanarField.spectral(g, np.ascontiguousarray(f.data[:, :, 0]))
    w = np.zeros(g.nz)
    w[1::2] = 2.0 * g.kz_inv[1::2]
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


def z_extend(pf: PlanarField) -> ScalarField:
    """Extend a planar field as a z-constant EvenZ field (cos slot m=0).

    The plane is copied as it is stored; self-partnered columns that break
    Hermitian symmetry raise InvalidFieldError at the next :func:`to_physical`.
    """
    pf.require(SPECTRAL)
    g = pf.grid
    data = np.zeros(g.spectral_shape, np.complex128)
    data[:, :, 0] = pf.data
    return ScalarField.spectral(g, Parity.EVEN_Z, data)


def vertical_velocity(v1: ScalarField, v2: ScalarField) -> ScalarField:
    """w = -int_0^z div_h v dxi, reconstructed spectrally.

    Requires the compatibility condition div_h vbar = 0: the depth mean of
    the divergence (its m = 0 cosine slice) must vanish to COMPAT_TOL (of
    the divergence amplitude), and so must the m = nz-1 slice, whose
    antiderivative is invisible to the sine basis.  Violations raise
    IncompatibleDivergenceError rather than being projected away.
    """
    for f in (v1, v2):
        f.require(SPECTRAL)
        if f.parity is not Parity.EVEN_Z:
            raise InvalidFieldError("horizontal velocity components must be EvenZ")
    g = v1.grid
    div = g.ikx * v1.data + g.iky * v2.data
    scale = max(1.0, float(np.max(np.abs(div))))
    mean_part = float(np.max(np.abs(div[:, :, 0])))
    if mean_part > COMPAT_TOL * scale:
        raise IncompatibleDivergenceError(
            f"depth-averaged divergence {mean_part:.3e} exceeds tolerance {COMPAT_TOL:.1e}"
        )
    nyq_part = float(np.max(np.abs(div[:, :, -1])))
    if nyq_part > COMPAT_TOL * scale:
        raise IncompatibleDivergenceError(
            f"vertical-Nyquist divergence {nyq_part:.3e} has no sine antiderivative"
        )
    return ScalarField.spectral(g, Parity.ODD_Z, -div * g.kz_inv)


def divergence(v1: ScalarField, v2: ScalarField, w: ScalarField) -> ScalarField:
    """Divergence div_h v + w_z of spectral v1, v2 and OddZ w (EvenZ field)."""
    for f in (v1, v2, w):
        f.require(SPECTRAL)
    if w.parity is not Parity.ODD_Z:
        raise InvalidFieldError("the vertical component must be OddZ")
    g = v1.grid
    return ScalarField.spectral(g, Parity.EVEN_Z,
                                g.ikx * v1.data + g.iky * v2.data + g.kz * w.data)


# ---------------------------------------------------------------------------
# alias-free products at padded resolution
# ---------------------------------------------------------------------------

def padded_grid(grid: Grid) -> Grid:
    """Smallest grid on which a product of two fields on `grid` is exact.

    A product of horizontal modes |k| <= n/2 reaches |k| <= n; on M points
    its modes alias by M, so the retained band |k| <= n/2 stays clean iff
    M - n > n/2, and the Nyquist mode, split into +-n/2, is clean only with
    strict inequality: M is the smallest even integer > 3n/2.  In z the
    cosine/sine basis on P nodes has period 2(P-1) and products reach
    m <= 2(nz-1), so 2(P-1) - 2(nz-1) > nz-1, i.e. 2(P-1) > 3(nz-1).
    Example: 32 x 32 x 17 pads to 50 x 50 x 26.
    """
    return Grid(2 * (3 * grid.nx // 4) + 2, 2 * (3 * grid.ny // 4) + 2,
                3 * (grid.nz - 1) // 2 + 2)


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


def _sum_parities(sums: list[list[tuple[ScalarField, ScalarField]]]) -> list[Parity]:
    """The product parity of each sum; InvalidFieldError unless there are
    sums, each nonempty and of one product parity."""
    parities = [{_product_parity(f.parity, g.parity) for f, g in pairs} for pairs in sums]
    if not sums or any(len(p) != 1 for p in parities):
        raise InvalidFieldError("product sums must be nonempty, each of one product parity")
    return [p.pop() for p in parities]


def _sum_sampled_products(sums: list[list[tuple[ScalarField, ScalarField]]],
                          parities: list[Parity],
                          sample: Callable[[ScalarField], np.ndarray],
                          product: Callable[[ScalarField, ScalarField, np.ndarray, np.ndarray],
                                            np.ndarray],
                          finish: Callable[[np.ndarray, Parity], object]) -> list:
    """finish(total, parity) for each sum of (f, g) pairs and its product
    parity, where total adds product(f, g, sample(f), sample(g)) over the
    sum's pairs in order.

    Each distinct factor across all the sums is sampled once and dropped
    after its last pair, to bound the memory; each sum is finished before
    the next one starts.
    """
    last_use = {id(f): (i, j) for i, pairs in enumerate(sums)
                for j, pair in enumerate(pairs) for f in pair}
    sampled: dict[int, np.ndarray] = {}
    out = []
    for i, (pairs, parity) in enumerate(zip(sums, parities)):
        total = None
        for j, (f, g) in enumerate(pairs):
            for h in (f, g):
                if id(h) not in sampled:
                    sampled[id(h)] = sample(h)
            prod = product(f, g, sampled[id(f)], sampled[id(g)])
            total = prod if total is None else np.add(total, prod, out=total)
            sampled = {key: vals for key, vals in sampled.items() if last_use[key] > (i, j)}
        out.append(finish(total, parity))
    return out


def multiply_exact_sums(sums: list[list[tuple[ScalarField, ScalarField]]]) -> list[ScalarField]:
    """Alias-free sums of f*g: one field per list of (f, g) pairs of one
    product parity.

    Each distinct factor is sampled on :func:`padded_grid` once, by one
    inverse transform that builds no padded spectrum; each sum is added
    there and forward-transformed onto the fields' grid once.  The Galerkin
    projection is linear, so this is the sum of the exact products.
    """
    parities = _sum_parities(sums)
    grid = sums[0][0][0].grid
    pgrid = padded_grid(grid)
    return _sum_sampled_products(
        sums, parities, lambda h: to_physical(h, pgrid).data, lambda f, g, a, b: a * b,
        lambda total, parity: to_spectral(ScalarField.physical(pgrid, parity, total), grid))


def depth_average_sums(sums: list[list[tuple[ScalarField, ScalarField]]]) -> list[PlanarField]:
    """Exact depth averages of sums of f*g: one planar field per list of
    (f, g) pairs, each pair EvenZ*EvenZ or OddZ*OddZ.

    Parseval in z: int_0^1 cos(m pi z) cos(m' pi z) dz = theta_m delta_mm'
    (theta = :meth:`Grid.l2_weights`), and likewise for sines, so the depth
    average of f*g is sum_m theta_m F_m G_m over the (x, y) planes of the
    vertical coefficients.  Only the horizontal product aliases: each
    distinct factor's live m planes are sampled on the (nx, ny) of
    :func:`padded_grid` once (no z nodes), and each sum is restricted onto
    the fields' grid by one planar forward transform.  Equals
    ``vertical_average(multiply_exact_sums(sums))`` to roundoff.
    """
    if any(f.parity is not g.parity for pairs in sums for f, g in pairs):
        raise InvalidFieldError("depth_average_sums takes EvenZ*EvenZ or OddZ*OddZ pairs only")
    parities = _sum_parities(sums)
    grid = sums[0][0][0].grid
    pgrid = padded_grid(grid)

    def weighted(f, g, a, b):
        n = min(a.shape[2], b.shape[2])
        prod = a[:, :, :n] * b[:, :, :n]
        return (prod.reshape(-1, n) @ grid.l2_weights(f.parity)[:n]).reshape(a.shape[:2])

    return _sum_sampled_products(
        sums, parities, lambda h: to_physical_planes(h, pgrid), weighted,
        lambda total, parity: PlanarField.spectral(grid, to_spectral_planes(total, grid)))


def multiply_exact(f: ScalarField, g: ScalarField) -> ScalarField:
    """Alias-free product: evaluate on :func:`padded_grid`, restrict back.

    The result is exactly the Galerkin projection of f*g onto the original
    basis (horizontal modes |k| <= n/2, vertical modes within parity range).
    """
    return multiply_exact_sums([[(f, g)]])[0]


def multiply_exact_2d(f: PlanarField, g: PlanarField) -> PlanarField:
    """Alias-free planar product: the depth average of the product of the
    z-constant extensions, one m plane sampled on the padded (nx, ny)."""
    return depth_average_sums([[(z_extend(f), z_extend(g))]])[0]
