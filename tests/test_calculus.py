"""Derivative operators, the barotropic/baroclinic split, and the vertical
velocity reconstruction."""

import re

import numpy as np
import pytest
from scipy import fft as sfft

from channelflow import calculus
from channelflow.calculus import (
    PlanarField,
    ddx,
    ddx_2d,
    ddy,
    ddy_2d,
    ddz,
    depth_average_sums,
    divergence,
    fluctuation,
    laplacian_h,
    multiply,
    multiply_exact,
    multiply_exact_2d,
    multiply_exact_sums,
    random_band_limited_2d,
    to_physical_2d,
    to_spectral_2d,
    vertical_average,
    vertical_velocity,
    z_extend,
)
from channelflow.errors import (
    IncompatibleDivergenceError,
    InvalidFieldError,
    RepresentationError,
)
from channelflow.fields import (
    Grid,
    Parity,
    ScalarField,
    _embed_fft_axis,
    _synthesis,
    random_band_limited,
    to_physical,
    to_spectral,
)
from channelflow.monitor import check_identity_avg_nonlinear
from channelflow.norms import grad_h_norm, inner, l2_norm
from conftest import full_band, full_band_state, full_spectrum, half_spectrum


def _sampled(grid, parity, fn):
    return to_spectral(ScalarField.from_function(grid, parity, fn))


def test_ddx_oracle(grid):
    f = _sampled(grid, Parity.EVEN_Z, lambda x, y, z: np.cos(2 * np.pi * x))
    expected = ScalarField.from_function(grid, Parity.EVEN_Z,
                                         lambda x, y, z: -2 * np.pi * np.sin(2 * np.pi * x))
    assert np.allclose(to_physical(ddx(f)).data, expected.data, atol=1e-12)


def test_ddx_constant_is_zero(grid):
    f = _sampled(grid, Parity.EVEN_Z, lambda x, y, z: 1.7 + 0 * x)
    assert np.max(np.abs(ddx(f).data)) < 1e-15


def test_horizontal_derivatives_commute(grid, rng):
    f = random_band_limited(grid, Parity.EVEN_Z, rng, 4, 4, 4)
    assert np.max(np.abs(ddx(ddy(f)).data - ddy(ddx(f)).data)) < 1e-12


def test_ddx_requires_spectral(grid):
    with pytest.raises(RepresentationError):
        ddx(ScalarField.zeros(grid, Parity.EVEN_Z, rep="physical"))


def test_divergence_checks_its_inputs(grid):
    """divergence reads the symbols in one expression, so it checks each
    input's representation and w's parity itself."""
    even, odd = ScalarField.zeros(grid, Parity.EVEN_Z), ScalarField.zeros(grid, Parity.ODD_Z)
    for i in range(3):
        args = [even, even, odd]
        args[i] = ScalarField.zeros(grid, args[i].parity, rep="physical")
        with pytest.raises(RepresentationError):
            divergence(*args)
    with pytest.raises(InvalidFieldError, match="OddZ"):
        divergence(even, even, even)


def test_ddz_oracle(grid):
    f = _sampled(grid, Parity.EVEN_Z, lambda x, y, z: np.cos(np.pi * z) + 0 * x)
    d = ddz(f)
    assert d.parity is Parity.ODD_Z
    expected = ScalarField.from_function(grid, Parity.ODD_Z,
                                         lambda x, y, z: -np.pi * np.sin(np.pi * z) + 0 * x)
    assert np.allclose(to_physical(d).data, expected.data, atol=1e-12)


def test_ddz_constant_in_z_is_zero(grid):
    f = _sampled(grid, Parity.EVEN_Z, lambda x, y, z: np.sin(2 * np.pi * y) + 0 * z)
    assert np.max(np.abs(ddz(f).data)) == 0.0


def test_ddz_twice_multiplier(grid, rng):
    f = random_band_limited(grid, Parity.EVEN_Z, rng, 3, 3, grid.nz - 2)
    twice = ddz(ddz(f))
    assert twice.parity is Parity.EVEN_Z
    expected = -grid.kz_sq * f.data
    expected[:, :, -1] = 0.0  # collocation ddz drops the cosine Nyquist slot
    assert np.max(np.abs(twice.data - expected)) < 1e-12


def test_laplacian_h_oracle(grid):
    f = _sampled(grid, Parity.EVEN_Z, lambda x, y, z: np.cos(2 * np.pi * x))
    lap = to_physical(laplacian_h(f))
    expected = ScalarField.from_function(grid, Parity.EVEN_Z,
                                         lambda x, y, z: -4 * np.pi**2 * np.cos(2 * np.pi * x))
    assert np.allclose(lap.data, expected.data, atol=1e-11)


def test_laplacian_h_kills_vertical_profiles(grid):
    f = _sampled(grid, Parity.EVEN_Z, lambda x, y, z: np.cos(2 * np.pi * z) + 0 * x)
    assert np.max(np.abs(laplacian_h(f).data)) == 0.0


def test_laplacian_h_parseval(grid, rng):
    f = random_band_limited(grid, Parity.EVEN_Z, rng, 4, 4, 4)
    assert inner(laplacian_h(f), f) == pytest.approx(-grad_h_norm(f) ** 2, rel=1e-12)


@pytest.mark.parametrize("fn,expected", [
    (lambda x, y, z: 3.0 + 0 * x, 3.0),
    (lambda x, y, z: np.cos(np.pi * z) + 0 * x, 0.0),
])
def test_vertical_average_even(grid, fn, expected):
    avg = vertical_average(_sampled(grid, Parity.EVEN_Z, fn))
    assert avg.data[0, 0].real == pytest.approx(expected, abs=1e-14)


def test_vertical_average_odd_closed_form(grid):
    avg = vertical_average(_sampled(grid, Parity.ODD_Z, lambda x, y, z: np.sin(np.pi * z) + 0 * x))
    assert avg.data[0, 0].real == pytest.approx(2.0 / np.pi, abs=1e-14)


def test_fluctuation_constant_and_cos(grid):
    const = _sampled(grid, Parity.EVEN_Z, lambda x, y, z: 4.0 + 0 * x)
    assert np.max(np.abs(fluctuation(const).data)) == 0.0
    cosz = ScalarField.from_modes(grid, Parity.EVEN_Z, {(0, 0, 1): 1.0})
    assert np.array_equal(fluctuation(cosz).data, cosz.data)


def test_fluctuation_rejects_odd(grid):
    with pytest.raises(InvalidFieldError):
        fluctuation(ScalarField.zeros(grid, Parity.ODD_Z))


def test_decomposition_exact_and_idempotent(grid, rng):
    f = random_band_limited(grid, Parity.EVEN_Z, rng, 4, 4, 4)
    fluct = fluctuation(f)
    rebuilt = z_extend(vertical_average(f)).data + fluct.data
    assert np.max(np.abs(rebuilt - f.data)) == 0.0
    assert np.max(np.abs(vertical_average(fluct).data)) < 1e-14


def test_vertical_velocity_horizontally_uniform(grid):
    v1 = _sampled(grid, Parity.EVEN_Z, lambda x, y, z: np.cos(np.pi * z) + 0 * x)
    v2 = ScalarField.zeros(grid, Parity.EVEN_Z)
    assert np.max(np.abs(vertical_velocity(v1, v2).data)) == 0.0


def test_vertical_velocity_oracle(grid):
    v1 = _sampled(grid, Parity.EVEN_Z, lambda x, y, z: np.sin(2 * np.pi * x) * np.cos(np.pi * z))
    v2 = ScalarField.zeros(grid, Parity.EVEN_Z)
    w = vertical_velocity(v1, v2)
    expected = ScalarField.from_function(
        grid, Parity.ODD_Z, lambda x, y, z: -2.0 * np.cos(2 * np.pi * x) * np.sin(np.pi * z))
    assert np.allclose(to_physical(w).data, expected.data, atol=1e-12)


def test_vertical_velocity_divergence_identity(grid, rng):
    v1 = random_band_limited(grid, Parity.EVEN_Z, rng, 4, 4, 4)
    v2 = random_band_limited(grid, Parity.EVEN_Z, rng, 4, 4, 4)
    # project the barotropic (m = 0) plane so a reconstruction exists
    d1, d2 = v1.data.copy(), v2.data.copy()
    k1 = 2.0 * np.pi * grid.kx[:, None]
    k2 = 2.0 * np.pi * grid.ky3[:, :, 0]  # the stored ky >= 0 columns
    div0 = 1j * (k1 * d1[:, :, 0] + k2 * d2[:, :, 0])
    kk = k1**2 + k2**2
    p = np.where(kk > 0, -div0 / np.where(kk > 0, kk, 1.0), 0.0)
    d1[:, :, 0] -= 1j * k1 * p
    d2[:, :, 0] -= 1j * k2 * p
    v1 = ScalarField.spectral(grid, Parity.EVEN_Z, d1)
    v2 = ScalarField.spectral(grid, Parity.EVEN_Z, d2)
    w = vertical_velocity(v1, v2)
    div = divergence(v1, v2, w)
    assert np.max(np.abs(div.data)) < 1e-12


def test_vertical_velocity_incompatible_raises(grid):
    v1 = _sampled(grid, Parity.EVEN_Z, lambda x, y, z: np.sin(2 * np.pi * x) + 0 * z)
    v2 = ScalarField.zeros(grid, Parity.EVEN_Z)
    with pytest.raises(IncompatibleDivergenceError):
        vertical_velocity(v1, v2)  # div_h v has a nonzero depth mean


def test_integration_by_parts(grid, rng):
    f = random_band_limited(grid, Parity.EVEN_Z, rng, 3, 3, 3)
    g = random_band_limited(grid, Parity.ODD_Z, rng, 3, 3, 3)
    lhs = inner(ddz(f), g)
    rhs = -inner(f, ddz(g))
    assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


def test_multiply_exact_matches_direct_in_band(grid, rng):
    a = random_band_limited(grid, Parity.EVEN_Z, rng, 3, 3, 3)
    b = random_band_limited(grid, Parity.ODD_Z, rng, 3, 3, 3)
    exact = multiply_exact(a, b)
    direct = multiply(a, b)
    assert exact.parity is Parity.ODD_Z
    assert np.max(np.abs(exact.data - direct.data)) < 1e-13


def test_multiply_exact_known_product(grid):
    cosz = _sampled(grid, Parity.EVEN_Z, lambda x, y, z: np.cos(np.pi * z) + 0 * x)
    prod = multiply_exact(cosz, cosz)
    # cos^2(pi z) = 1/2 + cos(2 pi z)/2
    assert prod.data[0, 0, 0].real == pytest.approx(0.5, abs=1e-13)
    assert prod.data[0, 0, 2].real == pytest.approx(0.5, abs=1e-13)
    rest = prod.data.copy()
    rest[0, 0, 0] = rest[0, 0, 2] = 0.0
    assert np.max(np.abs(rest)) < 1e-13


def test_planar_round_trip_and_derivative(grid):
    pf = PlanarField.from_function(grid, lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    spec = to_spectral_2d(pf)
    assert np.allclose(to_physical_2d(spec).data, pf.data, atol=1e-13)
    dx = to_physical_2d(ddx_2d(spec))
    expected = PlanarField.from_function(
        grid, lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
    assert np.allclose(dx.data, expected.data, atol=1e-12)


def test_l2_norm_planar_average_consistency(grid, rng):
    f = random_band_limited(grid, Parity.EVEN_Z, rng, 4, 4, 4)
    avg = vertical_average(f)
    assert np.array_equal(avg.data, f.data[:, :, 0])
    assert l2_norm(f) >= 0


def test_planar_spectral_rejects_full_plane(grid):
    """A planar spectrum is stored like one m plane: the ky >= 0 half."""
    PlanarField.spectral(grid, np.zeros(grid.spectral_shape[:2]))
    with pytest.raises(InvalidFieldError, match="ky >= 0 half"):
        PlanarField.spectral(grid, np.zeros((grid.nx, grid.ny)))


def test_vertical_average_inverts_z_extend(grid, rng):
    """z_extend stores the plane as slot m = 0, which the average reads back."""
    p = to_spectral_2d(PlanarField.physical(grid, rng.standard_normal((grid.nx, grid.ny))))
    ext = z_extend(p)
    assert np.array_equal(ext.data[:, :, 0], p.data)
    assert np.array_equal(vertical_average(ext).data, p.data)


@pytest.mark.parametrize("column", ["ky_zero", "ky_nyquist"])
def test_to_physical_2d_rejects_broken_self_partnered_column(grid, column):
    """Columns ky = 0 and ky = ny/2 hold each (kx, ky) and its partner
    (-kx, -ky); an entry whose partner differs gives complex node values."""
    col = 0 if column == "ky_zero" else grid.ny // 2
    data = np.zeros(grid.spectral_shape[:2], np.complex128)
    data[1, col] = 1.0  # partner: row -1 of the same column
    with pytest.raises(InvalidFieldError, match="Hermitian"):
        to_physical_2d(PlanarField.spectral(grid, data.copy()))
    data[-1, col] = 1.0
    to_physical_2d(PlanarField.spectral(grid, data))


def _loop_random_band_limited_2d(grid, rng, max_kx, max_ky):
    """The original per-mode planar generator loop: the reference for draw order."""
    data = np.zeros((grid.nx, grid.ny), np.complex128)
    for kx in range(0, max_kx + 1):
        for ky in range(-max_ky, max_ky + 1):
            if kx == 0 and ky < 0:
                continue
            re, im = rng.standard_normal(2)
            c = complex(re, 0.0) if (kx == 0 and ky == 0) else complex(re, im) / 2.0
            data[grid.index_kx(kx), grid.index_ky(ky)] += c
            if kx or ky:
                data[grid.index_kx(-kx), grid.index_ky(-ky)] += np.conj(c)
    return data


@pytest.mark.parametrize("caps", [(0, 0), (0, 3), (3, 0), (4, 4), (7, 7)])
def test_random_band_limited_2d_matches_loop_bit_for_bit(grid, caps):
    """The planar draw is the loop's, and the m = 0 plane of the 3-D draw."""
    ref_rng, rng, rng_3d = (np.random.default_rng(5) for _ in range(3))
    ref = _loop_random_band_limited_2d(grid, ref_rng, *caps)
    f = random_band_limited_2d(grid, rng, *caps)
    assert np.array_equal(f.data, half_spectrum(ref))
    f_3d = random_band_limited(grid, Parity.EVEN_Z, rng_3d, *caps, 0)
    assert np.array_equal(f.data, f_3d.data[:, :, 0])
    assert rng.bit_generator.state == ref_rng.bit_generator.state == rng_3d.bit_generator.state


@pytest.mark.parametrize("caps", [(8, 2), (2, 8)])
def test_random_band_limited_2d_rejects_caps_beyond_grid(grid, caps):
    with pytest.raises(InvalidFieldError):
        random_band_limited_2d(grid, np.random.default_rng(0), *caps)


# ---------------------------------------------------------------------------
# alias-free products on full-band inputs
# ---------------------------------------------------------------------------

def _pad_field(f, pgrid):
    """The zero-padded spectrum of f on pgrid, each Nyquist line split
    evenly between +-n/2."""
    full = full_spectrum(f.data, f.grid.ny)
    data = _embed_fft_axis(_embed_fft_axis(full, pgrid.nx, 0), pgrid.ny, 1)
    out = np.zeros((pgrid.nx, pgrid.ny, pgrid.nz), np.complex128)
    out[:, :, :f.grid.nz] = data
    return ScalarField.spectral(pgrid, f.parity, half_spectrum(out))


def _padded_planes(f, target=None):
    """Horizontal node values of every m plane of f on `target` (default:
    its own grid), from the whole padded spectrum through ``irfft2``."""
    if target is not None:
        f = _pad_field(f, target)
    g = f.grid
    return sfft.irfft2(f.data, s=(g.nx, g.ny), axes=(0, 1), norm="forward")


def _unpruned_to_physical(f, target=None):
    """Node values of f on `target` from unpruned horizontal transforms and
    the package's synthesis rows over the same live m: the reference for
    the x/y pruning and embedding.  (The m pruning cannot be compared bit
    for bit, because a product's bits depend on its inner length; see
    test_to_physical_synthesis_matches_dct_type1.)"""
    planes = _padded_planes(f, target)
    n_m = np.nonzero(np.any(f.data, axis=(0, 1)))[0].max(initial=0) + 1
    rows = _synthesis(planes.shape[2], f.parity)[:n_m]
    live = np.ascontiguousarray(planes[:, :, :n_m])
    return (live.reshape(-1, n_m) @ rows).reshape(planes.shape)


def _dct_to_physical(f, target=None):
    """Node values of f on `target` through ``irfft2`` and a DCT-I (EvenZ)
    or DST-I (OddZ) over every node: the fast-transform reference."""
    vals = _padded_planes(f, target)
    # f = sum c_m basis_m(z) is the DCT-I/DST-I of c with the interior
    # slots halved (the DCT-I counts the end slots once)
    vals[:, :, 1:-1] *= 0.5
    if f.parity is Parity.EVEN_Z:
        return sfft.dct(vals, type=1, axis=2)
    vals[:, :, 1:-1] = sfft.dst(vals[:, :, 1:-1], type=1, axis=2)
    vals[:, :, [0, -1]] = 0.0
    return vals


def _restrict_fft_axis(a, n_tgt, axis):
    """Galerkin-restrict an FFT-ordered axis of length n to n_tgt < n: the
    target Nyquist slot is the sum of frequencies +-n_tgt/2."""
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    half = n_tgt // 2
    out = np.zeros((n_tgt,) + a.shape[1:], dtype=a.dtype)
    out[:half] = a[:half]
    out[half + 1:] = a[n - (half - 1):]
    out[half] = a[half] + a[n - half]
    return np.moveaxis(out, 0, axis)


def _restrict_field(f, grid):
    """f restricted onto `grid` from its full spectrum, on the axes that
    shrink only: the reference for ``to_spectral(f, grid)``."""
    data = full_spectrum(f.data, f.grid.ny)
    if grid.nz < f.grid.nz:
        data = data[:, :, :grid.nz].copy()
        if f.parity is Parity.ODD_Z:
            data[:, :, -1] = 0.0
    for axis, n_tgt in ((0, grid.nx), (1, grid.ny)):
        if n_tgt < data.shape[axis]:
            data = _restrict_fft_axis(data, n_tgt, axis)
    return ScalarField.spectral(grid, f.parity, half_spectrum(data))


def _doubled_multiply_exact(f, g):
    """The product on the doubled grid (2nx, 2ny, 2nz-1): the reference."""
    grid = f.grid
    pgrid = Grid(2 * grid.nx, 2 * grid.ny, 2 * grid.nz - 1)
    parity = Parity.EVEN_Z if f.parity is g.parity else Parity.ODD_Z
    vals = _unpruned_to_physical(f, pgrid) * _unpruned_to_physical(g, pgrid)
    return _restrict_field(to_spectral(ScalarField.physical(pgrid, parity, vals)), grid)


def _doubled_multiply_exact_2d(f, g):
    grid = f.grid
    embed = _embed_fft_axis
    ff, gf = full_spectrum(f.data, grid.ny), full_spectrum(g.data, grid.ny)
    fp = sfft.ifft2(embed(embed(ff, 2 * grid.nx, 0), 2 * grid.ny, 1), norm="forward")
    gp = sfft.ifft2(embed(embed(gf, 2 * grid.nx, 0), 2 * grid.ny, 1), norm="forward")
    prod = sfft.fft2((fp * gp).real, norm="forward")
    return half_spectrum(_restrict_fft_axis(_restrict_fft_axis(prod, grid.nx, 0), grid.ny, 1))


def _rel_err(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


_PARITY_PAIRS = [(pa, pb) for pa in Parity for pb in Parity]
_SHAPES = [(10, 8, 6), (12, 14, 7), (32, 32, 17)]


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("kind", ["band_limited", "full_band"])
def test_planar_transforms_are_one_m_plane_of_the_3d_ones(shape, kind):
    """The planar transforms are the horizontal passes on one m plane:
    to_physical_2d equals every z level of to_physical(z_extend(f)) bit
    for bit, for f and its first derivatives, and to_spectral_2d leaves
    its read-only input unchanged."""
    grid = Grid(*shape)
    rng = np.random.default_rng(16)
    if kind == "band_limited":
        f = random_band_limited_2d(grid, rng, grid.nx // 4, grid.ny // 4)
    else:
        phys = PlanarField.physical(grid, rng.standard_normal((grid.nx, grid.ny)))
        before = phys.data.copy()
        f = to_spectral_2d(phys)
        assert not phys.data.flags.writeable and np.array_equal(phys.data, before)
        assert np.abs(f.data[grid.nx // 2]).min() > 0 and np.abs(f.data[:, -1]).max() > 1e-3
    for p in (f, ddx_2d(f), ddy_2d(f)):
        vals = to_physical_2d(p).data
        ext = to_physical(z_extend(p)).data
        assert all(np.array_equal(vals, ext[:, :, k]) for k in range(grid.nz))


def _only(f, index):
    """f with every coefficient outside `index` set to zero."""
    data = np.zeros_like(f.data)
    data[index] = f.data[index]
    return ScalarField.spectral(f.grid, f.parity, data)


def _transform_inputs(grid, parity, rng):
    """Fields whose live lines reach the edges of the pruned passes."""
    full = full_band(grid, parity, rng)
    top = grid.nz - 1 if parity is Parity.EVEN_Z else grid.nz - 2
    return {
        "full_band": full,
        "nyquist_row": _only(full, np.s_[grid.nx // 2]),
        "nyquist_column": _only(full, np.s_[:, grid.ny // 2]),
        "top_mode": _only(full, np.s_[:, :, top]),
        "band_limited": random_band_limited(grid, parity, rng, grid.nx // 3, grid.ny // 3,
                                            2 * (grid.nz - 1) // 3),
        "zero": ScalarField.zeros(grid, parity),
    }


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("parity", list(Parity), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", ["full_band", "nyquist_row", "nyquist_column", "top_mode",
                                  "band_limited", "zero"])
def test_to_physical_matches_unpruned_transform_bit_for_bit(shape, parity, kind):
    """Pruned x and y lines and sampling onto a target grid change no bit:
    own grid, padded, doubled and one-axis targets."""
    grid = Grid(*shape)
    f = _transform_inputs(grid, parity, np.random.default_rng(15))[kind]
    p = calculus.padded_grid(grid)
    targets = [None, p, Grid(2 * grid.nx, 2 * grid.ny, 2 * grid.nz - 1),
               Grid(p.nx, grid.ny, grid.nz), Grid(grid.nx, p.ny, grid.nz),
               Grid(grid.nx, grid.ny, p.nz)]
    for target in targets:
        got = to_physical(f, target)
        assert got.grid == (target or grid) and got.parity is parity
        assert np.array_equal(got.data, _unpruned_to_physical(f, target)), target


@pytest.mark.parametrize("shape", _SHAPES + [(64, 64, 33)])
@pytest.mark.parametrize("parity", list(Parity), ids=lambda p: p.value)
def test_to_physical_synthesis_matches_dct_type1(shape, parity):
    """The synthesis product over the live m equals the DCT-I/DST-I over
    every node to roundoff on own, padded and doubled targets; OddZ walls
    are exactly 0 and an m = 0 field is exactly constant in z."""
    grid = Grid(*shape)
    rng = np.random.default_rng(16)
    f = full_band(grid, parity, rng)
    m0 = _only(random_band_limited(grid, Parity.EVEN_Z, rng, grid.nx // 3, grid.ny // 3, 4),
               np.s_[:, :, 0])
    for target in [None, calculus.padded_grid(grid),
                   Grid(2 * grid.nx, 2 * grid.ny, 2 * grid.nz - 1)]:
        got = to_physical(f, target).data
        ref = _dct_to_physical(f, target)
        assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref)), target
        if parity is Parity.ODD_Z:
            assert np.all(got[:, :, [0, -1]] == 0.0)
        flat = to_physical(m0, target).data
        assert np.array_equal(flat, np.repeat(flat[:, :, :1], flat.shape[2], axis=2))
        assert np.max(np.abs(flat)) > 0.1


def _dct_to_spectral(f, grid=None):
    """Coefficients of the physical f through a DCT-I (EvenZ) or DST-I
    (OddZ) over every node and ``rfft2``, restricted onto `grid` from the
    full spectrum: the fast-transform reference of ``to_spectral``."""
    g = f.grid
    if f.parity is Parity.EVEN_Z:
        vert = sfft.dct(f.data, type=1, axis=2) / (g.nz - 1)
        vert[:, :, [0, -1]] *= 0.5
    else:
        vert = np.zeros(f.data.shape)
        vert[:, :, 1:-1] = sfft.dst(f.data[:, :, 1:-1], type=1, axis=2) / (g.nz - 1)
    half = sfft.rfft2(vert, axes=(0, 1), norm="forward")
    ref = ScalarField.spectral(g, f.parity, half[:, :g.ny // 2 + 1])
    return ref if grid is None else _restrict_field(ref, grid)


@pytest.mark.parametrize("shape", _SHAPES + [(64, 64, 33)])
@pytest.mark.parametrize("parity", list(Parity), ids=lambda p: p.value)
def test_to_spectral_analysis_matches_dct_type1(shape, parity):
    """The analysis product over every node equals the DCT-I/DST-I and
    ``rfft2`` to 4e-15 of the largest coefficient, on the field's own grid
    and restricted from the padded grid (a product, so that the dropped
    modes are live)."""
    grid = Grid(*shape)
    rng = np.random.default_rng(17)
    f = full_band(grid, parity, rng)
    even = full_band(grid, Parity.EVEN_Z, rng)
    p = calculus.padded_grid(grid)
    fine = ScalarField.physical(p, parity, to_physical(f, p).data * to_physical(even, p).data)
    for phys, target in [(to_physical(f), None), (fine, grid)]:
        got = to_spectral(phys, target)
        ref = _dct_to_spectral(phys, target)
        assert got.grid == ref.grid == grid
        assert np.max(np.abs(got.data - ref.data)) <= 4e-15 * np.max(np.abs(ref.data)), target


@pytest.mark.parametrize("shape", _SHAPES + [(64, 64, 33)])
def test_z_constant_field_analyses_to_exact_zeros_above_m0(shape):
    """EvenZ node values that are constant in z have exact zeros in every
    m > 0, on the field's own grid and restricted from the padded grid: the
    Taylor-Green and shear runs rely on it.  scipy's DCT-I left roundoff
    there with nz = 6, 11, 26 and 50 (the padded nz of 7, 17 and 33)."""
    grid = Grid(*shape)
    rng = np.random.default_rng(18)
    for source, target in [(grid, None), (calculus.padded_grid(grid), grid)]:
        plane = rng.standard_normal((source.nx, source.ny, 1))
        f = ScalarField.physical(source, Parity.EVEN_Z, np.repeat(plane, source.nz, axis=2))
        spec = to_spectral(f, target).data
        assert np.all(spec[:, :, 1:] == 0.0), target
        assert np.max(np.abs(spec[:, :, 0])) > 1e-3


def test_first_derivatives_of_nyquist_lines_vanish(grid, rng):
    """The Nyquist row and column are real cosines whose first derivatives
    vanish on the nodes, so derivatives of full-band fields (3D and planar)
    keep Hermitian symmetry and transform back."""
    f = full_band(grid, Parity.EVEN_Z, rng)
    assert np.all(ddx(_only(f, np.s_[grid.nx // 2])).data == 0.0)
    assert np.all(ddy(_only(f, np.s_[:, grid.ny // 2])).data == 0.0)
    for d in (ddx, ddy):
        to_physical(d(f))
    p = to_spectral_2d(PlanarField.physical(grid, rng.standard_normal((grid.nx, grid.ny))))
    for d in (ddx_2d, ddy_2d):
        to_physical_2d(d(p))


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("parity", list(Parity), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", ["full_band", "nyquist_row", "nyquist_column", "top_mode",
                                  "band_limited", "zero"])
def test_to_spectral_restriction_matches_full_transform_bit_for_bit(shape, parity, kind):
    """Restricting onto a coarser grid inside the forward transform changes
    no bit against restricting the full spectrum: padded and doubled
    sources, and one-axis targets (only the axis that shrinks is restricted)."""
    grid = Grid(*shape)
    rng = np.random.default_rng(16)
    f = _transform_inputs(grid, parity, rng)[kind]
    even = full_band(grid, Parity.EVEN_Z, rng)
    p = calculus.padded_grid(grid)
    doubled = Grid(2 * grid.nx, 2 * grid.ny, 2 * grid.nz - 1)
    cases = [(p, grid), (doubled, grid), (p, Grid(grid.nx, p.ny, p.nz)),
             (p, Grid(p.nx, grid.ny, p.nz)), (p, Grid(p.nx, p.ny, grid.nz))]
    for source, target in cases:
        # a product on the finer grid, so every retained and dropped mode is live
        vals = to_physical(f, source).data * to_physical(even, source).data
        fine = ScalarField.physical(source, parity, vals)
        got = to_spectral(fine, target)
        assert got.grid == target and got.parity is parity
        assert np.array_equal(got.data, _restrict_field(to_spectral(fine), target).data), target


@pytest.mark.parametrize("target", [(50, 50, 26), (32, 34, 17), (32, 32, 18)])
def test_to_spectral_rejects_finer_target(target):
    grid = Grid(32, 32, 17)
    f = ScalarField.zeros(grid, Parity.EVEN_Z, rep="physical")
    with pytest.raises(InvalidFieldError, match=re.escape(f"{Grid(*target)} is finer than "
                                                          f"the field's grid {grid}")):
        to_spectral(f, Grid(*target))


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("parities", _PARITY_PAIRS, ids=lambda p: f"{p[0].value}-{p[1].value}")
def test_multiply_exact_full_band_matches_doubled_grid(shape, parities):
    grid = Grid(*shape)
    rng = np.random.default_rng(11)
    a, b = (full_band(grid, p, rng) for p in parities)
    got = multiply_exact(a, b)
    assert got.parity is (Parity.EVEN_Z if parities[0] is parities[1] else Parity.ODD_Z)
    assert _rel_err(got.data, _doubled_multiply_exact(a, b).data) <= 1e-13


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("parities", _PARITY_PAIRS, ids=lambda p: f"{p[0].value}-{p[1].value}")
def test_multiply_exact_sum_matches_separate_products(shape, parities):
    """One padded pass equals the sum of the separately restricted products
    (the projection is linear); `a` and `b` recur to exercise the reuse of
    a transformed factor."""
    grid = Grid(*shape)
    rng = np.random.default_rng(14)
    a, b, c, d = (full_band(grid, p, rng) for p in parities + parities)
    pairs = [(a, b), (c, d), (a, d), (c, b), (a, b)]
    got, = multiply_exact_sums([pairs])
    ref = sum(multiply_exact(f, g).data for f, g in pairs)
    assert got.parity is multiply_exact(a, b).parity
    assert _rel_err(got.data, ref) <= 1e-13


@pytest.mark.parametrize("parities", _PARITY_PAIRS, ids=lambda p: f"{p[0].value}-{p[1].value}")
def test_multiply_exact_sums_share_factors_bit_for_bit(parities):
    """Sums that share factors, taken in one call, equal the one-sum calls
    bit for bit: a shared factor is sampled once and kept until its last
    pair, and each sum adds its products in the same order."""
    grid = Grid(12, 14, 7)
    rng = np.random.default_rng(17)
    a, b, c, d = (full_band(grid, p, rng) for p in parities + parities)
    first, second = [(a, b), (c, d), (a, d)], [(c, b), (a, b), (c, d)]
    got = multiply_exact_sums([first, second])
    for one, pairs in zip(got, (first, second)):
        ref, = multiply_exact_sums([pairs])
        assert one.parity is ref.parity
        assert np.array_equal(one.data, ref.data)


def test_multiply_exact_sum_rejects_mixed_or_no_pairs(grid, rng):
    even = random_band_limited(grid, Parity.EVEN_Z, rng, 2, 2, 2)
    odd = random_band_limited(grid, Parity.ODD_Z, rng, 2, 2, 2)
    for sums in ([[(even, even), (even, odd)]], [], [[]], [[(even, even)], []]):
        with pytest.raises(InvalidFieldError, match="one product parity"):
            multiply_exact_sums(sums)


@pytest.mark.parametrize("shape", _SHAPES)
def test_multiply_exact_2d_full_band_matches_doubled_grid(shape):
    grid = Grid(*shape)
    rng = np.random.default_rng(12)
    a, b = (to_spectral_2d(PlanarField.physical(grid, rng.standard_normal((grid.nx, grid.ny))))
            for _ in range(2))
    assert _rel_err(multiply_exact_2d(a, b).data, _doubled_multiply_exact_2d(a, b)) <= 1e-13


def test_multiply_exact_2d_rejects_broken_hermitian_symmetry(grid, rng):
    """A factor without its conjugate partner has complex node values; the
    real part of their product would be a wrong product."""
    good = random_band_limited_2d(grid, rng, 3, 3)
    data = np.zeros(grid.spectral_shape[:2], np.complex128)
    data[1, 0] = 1.0  # partner (-1, 0), in the same column, missing
    broken = PlanarField.spectral(grid, data)
    for f, g in ((good, broken), (broken, good)):
        with pytest.raises(InvalidFieldError, match="Hermitian"):
            multiply_exact_2d(f, g)


@pytest.mark.parametrize("shape", [(8, 8, 5), (16, 12, 9), (32, 32, 17)])
@pytest.mark.parametrize("kind", ["even", "odd", "both"])
def test_depth_average_sums_match_averaged_padded_products(shape, kind):
    """Parseval in z equals the depth average of the padded 3-D products on
    full-band factors (Nyquist row and column, top cosine mode), with
    factors shared within and across sums."""
    grid = Grid(*shape)
    rng = np.random.default_rng(18)
    a, b, c = (full_band(grid, Parity.EVEN_Z, rng) for _ in range(3))
    d, e = (full_band(grid, Parity.ODD_Z, rng) for _ in range(2))
    sums = {
        "even": [[(a, b), (c, a), (b, b)], [(b, c), (a, b)]],
        "odd": [[(d, e), (e, e)], [(e, d), (d, d)]],
        "both": [[(a, b), (d, e), (c, a)], [(e, e), (b, c), (d, e)]],
    }[kind]
    got = depth_average_sums(sums)
    ref = multiply_exact_sums(sums)
    for one, full in zip(got, ref):
        assert one.rep == "spectral" and one.grid == grid
        assert _rel_err(one.data, vertical_average(full).data) <= 1e-13


def test_depth_average_sums_reject_mixed_parity_or_empty(grid, rng):
    even = random_band_limited(grid, Parity.EVEN_Z, rng, 2, 2, 2)
    odd = random_band_limited(grid, Parity.ODD_Z, rng, 2, 2, 2)
    for sums in ([[(even, odd)]], [[(even, even), (odd, even)]], [], [[]], [[(even, even)], []]):
        with pytest.raises(InvalidFieldError):
            depth_average_sums(sums)


def test_identity_check_holds_on_full_band_state():
    """The averaged-nonlinearity identity is exact for any band-limited
    divergence-free state, not only a dealiased one: the full-band state
    keeps the Nyquist row, column and top mode."""
    assert check_identity_avg_nonlinear(full_band_state(Grid(32, 32, 17))) <= 1e-9


def test_padded_grid_sizes():
    assert calculus.padded_grid(Grid(32, 32, 17)) == Grid(50, 50, 26)
    assert calculus.padded_grid(Grid(10, 8, 6)) == Grid(16, 14, 9)


@pytest.mark.parametrize("smaller", [(48, 50, 26), (50, 48, 26), (50, 50, 25)],
                         ids=["nx_3n_over_2", "ny_3n_over_2", "nz_one_less"])
def test_full_band_product_check_sees_aliasing(monkeypatch, smaller):
    """Negative control: one size below padded_grid aliases visibly."""
    grid = Grid(32, 32, 17)
    rng = np.random.default_rng(13)
    a, b = full_band(grid, Parity.EVEN_Z, rng), full_band(grid, Parity.EVEN_Z, rng)
    ref = _doubled_multiply_exact(a, b).data
    monkeypatch.setattr(calculus, "padded_grid", lambda g: Grid(*smaller))
    assert _rel_err(multiply_exact(a, b).data, ref) > 1e-3
