"""Norm functionals: Lebesgue norms on the channel and its horizontal
square, Sobolev norms and seminorms from spectral multipliers, and mixed
time-space accumulators.

Lq norms integrate |f|^q over the collocation nodes with trapezoid weights
in z (walls half-weighted) and the uniform periodic rule in x, y; this is
exact for band-limited integrands and second-order otherwise.  L2-type
quantities computed from spectral coefficients use the exact basis weights
(cos(m pi z) and sin(m pi z) carry squared L2 mass 1/2 for m >= 1, the
constant mode mass 1).  A spectrum, 3-D or planar, stores its ky >= 0
half, so each interior column 0 < ky < ny/2 counts twice (once for its
ky < 0 partner, which has the same |c|^2), and the columns ky = 0 and
ky = ny/2 once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .calculus import PlanarField, fluctuation
from .fields import PHYSICAL, SPECTRAL, ScalarField, to_physical


def quad_weights_3d(grid) -> np.ndarray:
    """Physical quadrature weights of the collocation nodes of Omega."""
    return grid.wz[None, None, :] / (grid.nx * grid.ny)


def _lq(mean_power: Callable[[tuple[np.ndarray, ...]], np.floating],
        fields: tuple[ScalarField | PlanarField, ...], q: float) -> float:
    """mean_power(data) ** (1/q) for the physical `fields`' data, mean_power
    being the quadrature of |f|^q; only if that overflows is it taken of
    f/s, s = max |f|, and the root scaled back by s, so a representable norm
    stays finite and one whose quadrature is finite keeps its bits."""
    if q < 1:
        raise ValueError(f"Lq norm requires q >= 1, got {q}")
    for f in fields:
        f.require(PHYSICAL)
    arrays = tuple(f.data for f in fields)
    with np.errstate(over="ignore"):
        total = mean_power(arrays)
    if total == math.inf:
        s = max(float(np.max(np.abs(a))) for a in arrays)
        if s < math.inf:
            return s * float(mean_power(tuple(a / s for a in arrays)) ** (1.0 / q))
    return float(total ** (1.0 / q))


def lq_norm(f: ScalarField, q: float) -> float:
    """Lq(Omega) norm by quadrature over the collocation nodes."""
    w = quad_weights_3d(f.grid)
    return _lq(lambda d: np.sum(np.abs(d[0]) ** q * w), (f,), q)


def lq_norm_vector(components: tuple[ScalarField, ...], q: float) -> float:
    """Lq norm of the pointwise magnitude of a vector field."""
    w = quad_weights_3d(components[0].grid)
    return _lq(lambda d: np.sum(sum(a**2 for a in d) ** (q / 2.0) * w), components, q)


def baroclinic_nodes(v1: ScalarField, v2: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Node values of vtilde = v - vbar of the spectral horizontal velocity (v1, v2)."""
    return to_physical(fluctuation(v1)), to_physical(fluctuation(v2))


def baroclinic_lr(v1: ScalarField, v2: ScalarField, r: float) -> float:
    """||vtilde||_r of the baroclinic part of (v1, v2) (:func:`baroclinic_nodes`)."""
    return lq_norm_vector(baroclinic_nodes(v1, v2), r)


def lq_norm_2d(f: PlanarField, q: float) -> float:
    """Lq(M) norm over the horizontal periodic square."""
    return _lq(lambda d: np.sum(np.abs(d[0]) ** q) / (f.grid.nx * f.grid.ny), (f,), q)


# ---------------------------------------------------------------------------
# spectral L2 / H1 machinery
# ---------------------------------------------------------------------------

def _with_partners(a: np.ndarray, grid) -> np.ndarray:
    """`a` over the stored half with its interior ky columns doubled in
    place, so that sums over it are sums over the full spectrum (each
    ky < 0 partner carries the same value), as a (kx*ky, m) matrix; a
    planar `a` is one m plane."""
    a[:, 1:grid.ny // 2] *= 2.0
    return a.reshape(a.shape[0] * a.shape[1], -1)


def sq_norms(f: ScalarField | PlanarField) -> tuple[float, float, float]:
    """(||f||^2, ||grad_h f||^2, ||f_z||^2) from one |c|^2 pass; their sum is
    h1_norm(f)^2.  A planar field is its m = 0 cosine plane, so its
    ||f_z||^2 is 0."""
    f.require(SPECTRAL)
    g = f.grid
    a = _with_partners(np.abs(f.data) ** 2, g)
    per_m, n_m = a.sum(axis=0), a.shape[1]
    th = g.l2_weights(f.parity)[:n_m]
    return (float(per_m @ th), float((g.kh_sq.ravel() @ a) @ th),
            0.5 * float(per_m @ g.kz_sq[:n_m]))


def velocity_norms(v1: ScalarField, v2: ScalarField, w: ScalarField) -> dict[str, float]:
    """A velocity's norms from one :func:`sq_norms` pass per component:
    energy = ||v||^2 + ||w||^2; gradh_v, gradh_w, vz, wz, the squared L2
    norms of grad_h v, grad_h w, v_z, w_z; and the H1 norms h1_v, h1_w."""
    s1, s2, sw = (sq_norms(c) for c in (v1, v2, w))
    return {"energy": s1[0] + s2[0] + sw[0], "gradh_v": s1[1] + s2[1], "gradh_w": sw[1],
            "vz": s1[2] + s2[2], "wz": sw[2], "h1_v": math.sqrt(sum(s1) + sum(s2)),
            "h1_w": math.sqrt(sum(sw))}


def sq_l2_norm(data: np.ndarray, grid, parity) -> float:
    """||f||^2 of the `parity` field with coefficients `data`: its stored
    half on `grid`, a box of it (``Grid.box``: ky < c, m < d), or one
    planar spectrum (parity EVEN_Z, its m = 0 plane)."""
    a = _with_partners(np.abs(data) ** 2, grid)
    return float(a.sum(axis=0) @ grid.l2_weights(parity)[:a.shape[1]])


def l2_norm(f: ScalarField) -> float:
    """Exact L2 norm from spectral coefficients."""
    f.require(SPECTRAL)
    return math.sqrt(sq_l2_norm(f.data, f.grid, f.parity))


def grad_h_norm(f: ScalarField) -> float:
    """L2 norm of the horizontal gradient, from multipliers."""
    return math.sqrt(sq_norms(f)[1])


def dz_norm(f: ScalarField) -> float:
    """L2 norm of the vertical derivative, from multipliers.

    The derivative basis functions all carry squared mass 1/2, so the sum
    includes the m = nz-1 slot of EvenZ fields even though collocation ddz
    annihilates it; the two agree on band-limited fields.
    """
    return math.sqrt(sq_norms(f)[2])


def h1_norm(f: ScalarField) -> float:
    """Full H1(Omega) norm: (||f||^2 + ||grad_h f||^2 + ||f_z||^2)^(1/2)."""
    return math.sqrt(sum(sq_norms(f)))


def inner(f: ScalarField, g: ScalarField) -> float:
    """L2 inner product of two same-parity spectral fields."""
    f.require(SPECTRAL)
    g.require(SPECTRAL)
    if f.parity is not g.parity:
        return 0.0  # orthogonal bases
    prod = _with_partners((f.data * np.conj(g.data)).real, f.grid)
    return float(prod.sum(axis=0) @ f.grid.l2_weights(f.parity))


def l2_norm_2d(f: PlanarField) -> float:
    return math.sqrt(sq_norms(f)[0])


def grad_h_norm_2d(f: PlanarField) -> float:
    return math.sqrt(sq_norms(f)[1])


def h1_norm_2d(f: PlanarField) -> float:
    return math.sqrt(sum(sq_norms(f)))


# ---------------------------------------------------------------------------
# time series and mixed L^alpha(0,T; X) norms
# ---------------------------------------------------------------------------

@dataclass
class TimeSeries:
    """Samples (t_i, value_i) of a nonnegative norm along a run.

    Times are strictly increasing; values are finite unless the series is
    flagged as a blow-up record.
    """

    times: np.ndarray
    values: np.ndarray
    blowup: bool = field(default=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if len(self.times) >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")
        if not self.blowup and not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite values require the blow-up flag")


def time_lalpha(series: TimeSeries, alpha: float) -> float:
    """(int_0^T value(t)^alpha dt)^(1/alpha) by the trapezoid rule.

    Returns inf when the series carries a blow-up flag or non-finite values.
    """
    if alpha < 1:
        raise ValueError(f"time exponent must satisfy alpha >= 1, got {alpha}")
    if len(series.times) < 2:
        raise ValueError("time integration needs at least 2 samples")
    if series.blowup or not np.all(np.isfinite(series.values)):
        return math.inf
    integral = float(np.trapezoid(series.values**alpha, series.times))
    return integral ** (1.0 / alpha)
