"""Norm functionals and time-series accumulators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channelflow.calculus import PlanarField, to_spectral_2d
from channelflow.fields import Grid, Parity, ScalarField, random_band_limited, to_physical, to_spectral
from channelflow.norms import (
    TimeSeries,
    dz_norm,
    grad_h_norm,
    grad_h_norm_2d,
    h1_norm,
    h1_norm_2d,
    inner,
    l2_norm,
    l2_norm_2d,
    lq_norm,
    lq_norm_2d,
    lq_norm_vector,
    sq_l2_norm,
    sq_norms,
    time_lalpha,
)
from conftest import full_spectrum


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 4.5, 6.0])
def test_unit_cube_constant_norm(grid, q):
    one = ScalarField.from_function(grid, Parity.EVEN_Z, lambda x, y, z: 1.0 + 0 * x)
    assert lq_norm(one, q) == pytest.approx(1.0, abs=1e-13)


def test_cos_l2_l4(grid):
    f = ScalarField.from_function(grid, Parity.EVEN_Z, lambda x, y, z: np.cos(2 * np.pi * x))
    assert lq_norm(f, 2.0) == pytest.approx(2.0**-0.5, rel=1e-13)
    assert lq_norm(f, 4.0) == pytest.approx((3.0 / 8.0) ** 0.25, rel=1e-13)


def test_lq_rejects_small_exponent(grid):
    f = ScalarField.zeros(grid, Parity.EVEN_Z, rep="physical")
    with pytest.raises(ValueError):
        lq_norm(f, 0.5)


@pytest.mark.parametrize("q", [2.0, 4.0, 7.5])
def test_lq_norms_of_huge_fields_are_finite(grid, rng, q):
    """|f|^q overflowed to inf, with an overflow warning, once max |f| was
    above about 1e77 at q = 4, though the norm is representable: a
    quadrature that overflows is taken of f / max |f| instead."""
    f = to_physical(random_band_limited(grid, Parity.EVEN_Z, rng, 4, 4, 4))
    big = ScalarField.physical(grid, f.parity, 1e100 * f.data)
    plane, big_plane = (PlanarField.physical(grid, a[:, :, 3]) for a in (f.data, big.data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = [(lq_norm(big, q), lq_norm(f, q)),
                 (lq_norm_vector((big, big), q), lq_norm_vector((f, f), q)),
                 (lq_norm_2d(big_plane, q), lq_norm_2d(plane, q))]
    for huge, norm in pairs:
        assert huge == pytest.approx(1e100 * norm, rel=1e-14)


def test_planar_norms(grid):
    one = PlanarField.from_function(grid, lambda x, y: 1.0 + 0 * x)
    assert lq_norm_2d(one, 3.0) == pytest.approx(1.0)
    sinsin = PlanarField.from_function(grid, lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    assert lq_norm_2d(sinsin, 2.0) == pytest.approx(0.5, rel=1e-13)


def test_holder_monotonicity(grid, rng):
    f = to_physical(random_band_limited(grid, Parity.EVEN_Z, rng, 4, 4, 4))
    norms = [lq_norm(f, q) for q in (2.0, 3.0, 4.0, 6.0)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_triangle_inequality(grid, rng):
    f = to_physical(random_band_limited(grid, Parity.EVEN_Z, rng, 4, 4, 4))
    g = to_physical(random_band_limited(grid, Parity.EVEN_Z, rng, 4, 4, 4))
    both = ScalarField.physical(grid, Parity.EVEN_Z, f.data + g.data)
    for q in (2.0, 3.0, 4.0):
        assert lq_norm(both, q) <= lq_norm(f, q) + lq_norm(g, q) + 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), q=st.sampled_from([2.0, 3.0, 4.0]))
def test_triangle_inequality_hypothesis(seed, q):
    grid = Grid(8, 8, 6)
    r = np.random.default_rng(seed)
    f = to_physical(random_band_limited(grid, Parity.EVEN_Z, r, 2, 2, 2))
    g = to_physical(random_band_limited(grid, Parity.EVEN_Z, r, 2, 2, 2))
    both = ScalarField.physical(grid, Parity.EVEN_Z, f.data + g.data)
    assert lq_norm(both, q) <= lq_norm(f, q) + lq_norm(g, q) + 1e-12


def test_h1_norm_constant(grid):
    c = to_spectral(ScalarField.from_function(grid, Parity.EVEN_Z, lambda x, y, z: -3.0 + 0 * x))
    assert h1_norm(c) == pytest.approx(3.0, rel=1e-13)


def test_grad_h_norm_oracle(grid):
    f = to_spectral(ScalarField.from_function(grid, Parity.EVEN_Z, lambda x, y, z: np.cos(2 * np.pi * x)))
    assert grad_h_norm(f) == pytest.approx(2 * np.pi / math.sqrt(2), rel=1e-13)


def test_dz_norm_oracle(grid):
    f = to_spectral(ScalarField.from_function(grid, Parity.EVEN_Z,
                                              lambda x, y, z: np.cos(np.pi * z) + 0 * x))
    assert dz_norm(f) == pytest.approx(np.pi / math.sqrt(2), rel=1e-13)


def test_vector_norm_matches_magnitude(grid):
    f1 = ScalarField.from_function(grid, Parity.EVEN_Z, lambda x, y, z: np.cos(2 * np.pi * x))
    f2 = ScalarField.from_function(grid, Parity.EVEN_Z, lambda x, y, z: np.sin(2 * np.pi * x))
    # |(cos, sin)| = 1 pointwise
    assert lq_norm_vector((f1, f2), 3.0) == pytest.approx(1.0, rel=1e-13)


def test_inner_cross_parity_is_zero(grid, rng):
    f = random_band_limited(grid, Parity.EVEN_Z, rng, 3, 3, 3)
    g = random_band_limited(grid, Parity.ODD_Z, rng, 3, 3, 3)
    assert inner(f, g) == 0.0


def test_inner_matches_quadrature(grid, rng):
    f = random_band_limited(grid, Parity.EVEN_Z, rng, 3, 3, 3)
    g = random_band_limited(grid, Parity.EVEN_Z, rng, 3, 3, 3)
    quad = np.sum(to_physical(f).data * to_physical(g).data
                  * grid.wz[None, None, :]) / (grid.nx * grid.ny)
    assert inner(f, g) == pytest.approx(quad, rel=1e-11)


def _full_band(grid, parity, rng):
    """A field on every representable mode, from random node values: the
    ky = 0 and ky = ny/2 columns and the kx = nx/2 row all carry content.
    A `parity` of None gives a planar field."""
    if parity is None:
        f = to_spectral_2d(PlanarField.physical(grid, rng.standard_normal((grid.nx, grid.ny))))
    else:
        data = rng.standard_normal((grid.nx, grid.ny, grid.nz))
        if parity is Parity.ODD_Z:
            data[:, :, [0, -1]] = 0.0
        f = to_spectral(ScalarField.physical(grid, parity, data))
    for line in (f.data[:, 0], f.data[:, grid.ny // 2], f.data[grid.nx // 2]):
        assert np.abs(line).max() > 1e-3
    return f


def _full_reference_norms(f):
    """(||f||^2, ||grad_h f||^2, ||f_z||^2) summed over the full spectrum;
    a planar field is its m = 0 cosine plane."""
    g = f.grid
    c_sq = np.abs(full_spectrum(f.data, g.ny)).reshape(g.nx, g.ny, -1) ** 2
    n_m = c_sq.shape[2]
    th = g.l2_weights(f.parity)[:n_m]
    kh_sq = (2 * np.pi) ** 2 * (g.kx[:, None, None] ** 2 + g.ky[None, :, None] ** 2)
    return (float(np.sum(c_sq * th)), float(np.sum(kh_sq * c_sq * th)),
            0.5 * float(np.sum((np.pi * g.m[:n_m]) ** 2 * c_sq)))


@pytest.mark.parametrize("shape", [(16, 16, 9), (12, 14, 7)])
@pytest.mark.parametrize("parity", list(Parity), ids=lambda p: p.value)
def test_half_spectrum_norms_match_full_reference(shape, parity):
    """Each interior ky column stands for its ky < 0 partner too; the
    columns ky = 0 and ky = ny/2 count once.  A planar field is read as
    the m = 0 cosine plane, and its named norms are square roots of its
    squared norms."""
    grid = Grid(*shape)
    rng = np.random.default_rng(21)
    f, other = _full_band(grid, parity, rng), _full_band(grid, parity, rng)
    l2_sq, gh_sq, dz_sq = _full_reference_norms(f)
    refs = {l2_norm: math.sqrt(l2_sq), grad_h_norm: math.sqrt(gh_sq),
            dz_norm: math.sqrt(dz_sq), h1_norm: math.sqrt(l2_sq + gh_sq + dz_sq)}
    for norm, ref in refs.items():
        assert norm(f) == pytest.approx(ref, rel=1e-14, abs=0.0), norm.__name__
    assert sq_norms(f) == pytest.approx((l2_sq, gh_sq, dz_sq), rel=1e-14, abs=0.0)
    g = ScalarField.spectral(grid, parity, f.data + 0.5 * other.data)
    th = grid.l2_weights(parity)
    full_f, full_g = full_spectrum(f.data, grid.ny), full_spectrum(g.data, grid.ny)
    ref = float(np.sum((full_f * np.conj(full_g)).real * th))
    assert inner(f, g) == pytest.approx(ref, rel=1e-14, abs=0.0)

    pf = _full_band(grid, None, rng)
    sq = sq_norms(pf)
    assert sq == pytest.approx(_full_reference_norms(pf), rel=1e-14, abs=0.0)
    assert sq[2] == 0.0
    assert (l2_norm_2d(pf), grad_h_norm_2d(pf), h1_norm_2d(pf)) == (
        math.sqrt(sq[0]), math.sqrt(sq[1]), math.sqrt(sum(sq)))
    assert sq_l2_norm(pf.data, grid, Parity.EVEN_Z) == sq[0]


def test_time_lalpha_constant_series():
    series = TimeSeries(np.linspace(0.0, 2.0, 21), np.full(21, 3.0))
    assert time_lalpha(series, 4.0) == pytest.approx(3.0 * 2.0 ** (1.0 / 4.0), rel=1e-13)


def test_time_lalpha_single_interval_exact():
    series = TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
    # trapezoid of value^2: (1 + 9)/2 = 5
    assert time_lalpha(series, 2.0) == pytest.approx(math.sqrt(5.0))


def test_time_lalpha_second_order_convergence():
    exact = (1.0 / 3.0) ** 0.5
    errs = []
    for n in (11, 21, 41):
        t = np.linspace(0.0, 1.0, n)
        errs.append(abs(time_lalpha(TimeSeries(t, t), 2.0) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_time_lalpha_blowup_propagates():
    series = TimeSeries(np.array([0.0, 1.0]), np.array([1.0, np.inf]), blowup=True)
    assert time_lalpha(series, 4.0) == math.inf


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0]), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        time_lalpha(TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 1.0])), 0.5)
    with pytest.raises(ValueError):
        time_lalpha(TimeSeries(np.array([0.0]), np.array([1.0])), 2.0)
