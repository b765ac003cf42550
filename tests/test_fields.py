"""Transforms, dealiasing, and structural invariants of channel fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channelflow.errors import InvalidFieldError, RepresentationError
from channelflow.fields import (
    Grid,
    Parity,
    ScalarField,
    dealias,
    decode_field_block,
    encode_field_block,
    random_band_limited,
    to_physical,
    to_spectral,
)
from channelflow.norms import l2_norm, lq_norm


@pytest.mark.parametrize("nx,ny,nz", [(7, 16, 9), (16, 9, 9), (16, 16, 4), (6, 16, 9)])
def test_grid_validation(nx, ny, nz):
    with pytest.raises(InvalidFieldError):
        Grid(nx, ny, nz)


def test_constant_field_single_coefficient(grid):
    f = to_spectral(ScalarField.from_function(grid, Parity.EVEN_Z, lambda x, y, z: 2.5 + 0 * x))
    assert f.data[0, 0, 0] == pytest.approx(2.5)
    rest = f.data.copy()
    rest[0, 0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-14


def test_cos2pix_energy_at_unit_modes(grid):
    f = to_spectral(ScalarField.from_function(grid, Parity.EVEN_Z, lambda x, y, z: np.cos(2 * np.pi * x)))
    assert f.data[1, 0, 0] == pytest.approx(0.5, abs=1e-14)
    assert f.data[-1, 0, 0] == pytest.approx(0.5, abs=1e-14)
    masked = f.data.copy()
    masked[1, 0, 0] = masked[-1, 0, 0] = 0.0
    assert np.max(np.abs(masked)) < 1e-14


def test_single_vertical_mode_synthesis(grid):
    f = ScalarField.from_modes(grid, Parity.EVEN_Z, {(0, 0, 1): 1.0})
    phys = to_physical(f)
    expected = np.cos(np.pi * grid.z)
    assert np.allclose(phys.data[3, 5, :], expected, atol=1e-14)


def test_zero_spectral_is_zero_physical(grid):
    assert np.all(to_physical(ScalarField.zeros(grid, Parity.ODD_Z)).data == 0.0)


@pytest.mark.parametrize("parity", [Parity.EVEN_Z, Parity.ODD_Z])
def test_round_trip(grid, rng, parity):
    f = random_band_limited(grid, parity, rng, 4, 4, 4)
    back = to_spectral(to_physical(f))
    scale = np.max(np.abs(f.data))
    assert np.max(np.abs(back.data - f.data)) < 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), parity=st.sampled_from([Parity.EVEN_Z, Parity.ODD_Z]))
def test_round_trip_hypothesis(seed, parity):
    grid = Grid(8, 8, 6)
    f = random_band_limited(grid, parity, np.random.default_rng(seed), 2, 2, 2)
    phys = to_physical(f)
    back = to_spectral(phys)
    scale = max(1.0, np.max(np.abs(f.data)))
    assert np.max(np.abs(back.data - f.data)) < 1e-12 * scale


def test_oddz_vanishes_on_walls(grid, rng):
    f = to_physical(random_band_limited(grid, Parity.ODD_Z, rng, 4, 4, 4))
    assert np.max(np.abs(f.data[:, :, 0])) < 1e-12
    assert np.max(np.abs(f.data[:, :, -1])) < 1e-12


def test_evenz_wall_derivative_vanishes_second_order(rng):
    """One-sided FD estimate of f_z at the wall decays at order >= 2."""
    caps = dict(max_kx=2, max_ky=2, max_m=3)
    estimates = []
    for nz in (9, 17):
        grid = Grid(16, 16, nz)
        f = to_physical(random_band_limited(grid, Parity.EVEN_Z,
                                            np.random.default_rng(7), **caps))
        h = 1.0 / (nz - 1)
        fd = (-3.0 * f.data[:, :, 0] + 4.0 * f.data[:, :, 1] - f.data[:, :, 2]) / (2 * h)
        estimates.append(np.max(np.abs(fd)))
    assert estimates[1] < estimates[0] / 3.0  # ratio ~4 at order 2


def test_parseval(grid, rng):
    f = random_band_limited(grid, Parity.EVEN_Z, rng, 4, 4, 4)
    quad = lq_norm(to_physical(f), 2.0) ** 2
    spect = l2_norm(f) ** 2
    assert abs(quad - spect) <= 1e-10 * spect


def test_dealias_retains_low_mode():
    grid = Grid(32, 32, 17)
    f = ScalarField.from_modes(grid, Parity.EVEN_Z, {(1, 0, 0): 1.0})
    assert np.array_equal(dealias(f).data, f.data)


def test_dealias_truncates_high_mode():
    grid = Grid(32, 32, 17)
    f = ScalarField.from_modes(grid, Parity.EVEN_Z, {(15, 0, 0): 1.0})
    assert np.all(dealias(f).data == 0.0)


def test_dealias_projection_properties(grid, rng):
    f = random_band_limited(grid, Parity.EVEN_Z, rng, 7, 7, 7)
    once = dealias(f)
    assert np.array_equal(dealias(once).data, once.data)
    assert l2_norm(once) <= l2_norm(f)


def test_dealias_cutoffs():
    grid = Grid(32, 32, 17)
    mask = grid.dealias_mask
    assert mask[grid.index_kx(10), 0, 0] and not mask[grid.index_kx(11), 0, 0]
    # vertical cut floor(2*(nz-1)/3) = 10: the alias-free band of the
    # 16-interval cosine grid (products of retained modes stay exact)
    assert mask[0, 0, 10] and not mask[0, 0, 11]


def test_dealiased_products_conserve_energy():
    """Within the retained band, the pseudospectral product is exactly the
    Galerkin product: the advective term's energy input is zero."""
    from channelflow.calculus import multiply, multiply_exact

    grid = Grid(16, 16, 9)
    rng = np.random.default_rng(3)
    kcut = 16 // 3
    mcut = (2 * (9 - 1)) // 3
    a = random_band_limited(grid, Parity.EVEN_Z, rng, kcut, kcut, mcut)
    b = random_band_limited(grid, Parity.ODD_Z, rng, kcut, kcut, mcut)
    aliased = dealias(multiply(a, b))
    exact = dealias(multiply_exact(a, b))
    assert np.max(np.abs(aliased.data - exact.data)) < 1e-13


#: coefficients that irfft2 ignores, each set without its conjugate partner:
#: (parity, kx index, ky index, m, value)
BROKEN_SYMMETRY = {
    "unpaired_ky0": (Parity.EVEN_Z, 1, 0, 0, 1.0),
    "imaginary_origin": (Parity.EVEN_Z, 0, 0, 2, 1j),
    "unpaired_ky_nyquist_column": (Parity.EVEN_Z, 3, 8, 1, 1.0),
    "unpaired_kx_nyquist_row": (Parity.EVEN_Z, 8, 3, 1, 1.0),
    "unpaired_ky_negative": (Parity.EVEN_Z, 2, 13, 0, 0.5 + 0.5j),
    "oddz": (Parity.ODD_Z, 1, 2, 1, 1.0),
}


@pytest.mark.parametrize("case", sorted(BROKEN_SYMMETRY))
def test_broken_hermitian_symmetry_raises(grid, case):
    parity, ix, iy, m, value = BROKEN_SYMMETRY[case]
    data = np.zeros((grid.nx, grid.ny, grid.nz), np.complex128)
    data[ix, iy, m] = value  # missing conjugate partner
    with pytest.raises(InvalidFieldError, match="Hermitian"):
        to_physical(ScalarField.spectral(grid, parity, data))


def test_symmetry_check_tolerates_roundoff(grid, rng):
    f = random_band_limited(grid, Parity.EVEN_Z, rng, 4, 4, 4)
    data = f.data.copy()
    data[1, 0, 0] += 1e-12  # partner (-1, 0, 0) left unchanged
    back = to_physical(ScalarField.spectral(grid, Parity.EVEN_Z, data))
    assert np.max(np.abs(back.data - to_physical(f).data)) < 1e-11


def _vertical_basis(grid: Grid, parity: Parity) -> np.ndarray:
    """B[k, m] = basis_m(z_k) over the parity's representable modes."""
    if parity is Parity.EVEN_Z:
        return np.cos(np.pi * np.outer(grid.z, grid.m))
    basis = np.sin(np.pi * np.outer(grid.z, grid.m))
    basis[:, [0, -1]] = 0.0
    return basis


def _direct_synthesis(c: np.ndarray, grid: Grid, parity: Parity) -> np.ndarray:
    """f(x_i, y_j, z_k) = sum c[kx, ky, m] exp(2 pi i (kx x + ky y)) basis_m(z)."""
    ex = np.exp(2j * np.pi * np.outer(grid.x, grid.kx))
    ey = np.exp(2j * np.pi * np.outer(grid.y, grid.ky))
    vals = np.einsum("ia,jb,kc,abc->ijk", ex, ey, _vertical_basis(grid, parity), c)
    return vals.real


def _direct_analysis(f: np.ndarray, grid: Grid, parity: Parity) -> np.ndarray:
    """Coefficients c with f = sum c * basis, by solving the basis system."""
    ex = np.exp(-2j * np.pi * np.outer(grid.kx, grid.x)) / grid.nx
    ey = np.exp(-2j * np.pi * np.outer(grid.ky, grid.y)) / grid.ny
    horiz = np.einsum("ai,bj,ijk->abk", ex, ey, f)
    basis = _vertical_basis(grid, parity)
    modes = slice(None) if parity is Parity.EVEN_Z else slice(1, -1)
    c = np.zeros(f.shape, np.complex128)
    c[:, :, modes] = horiz[:, :, modes] @ np.linalg.inv(basis[modes, modes]).T
    return c


@pytest.mark.parametrize("parity", [Parity.EVEN_Z, Parity.ODD_Z])
def test_transforms_match_direct_basis_sums(parity):
    grid = Grid(8, 8, 5)
    f = np.random.default_rng(11).standard_normal((grid.nx, grid.ny, grid.nz))
    if parity is Parity.ODD_Z:
        f[:, :, [0, -1]] = 0.0
    c = _direct_analysis(f, grid, parity)  # includes both Nyquist lines
    spec = to_spectral(ScalarField.physical(grid, parity, f))
    assert np.max(np.abs(spec.data - c)) < 1e-13
    phys = to_physical(ScalarField.spectral(grid, parity, c))
    assert np.max(np.abs(phys.data - _direct_synthesis(c, grid, parity))) < 1e-13


def test_oddz_forbidden_slots_raise(grid):
    data = np.zeros((grid.nx, grid.ny, grid.nz), np.complex128)
    data[0, 0, 0] = 1.0
    with pytest.raises(InvalidFieldError):
        ScalarField.spectral(grid, Parity.ODD_Z, data)


def test_oddz_nonvanishing_wall_data_rejected(grid):
    phys = ScalarField.physical(grid, Parity.ODD_Z, np.ones((grid.nx, grid.ny, grid.nz)))
    with pytest.raises(InvalidFieldError):
        to_spectral(phys)


def test_representation_mismatch(grid):
    f = ScalarField.zeros(grid, Parity.EVEN_Z, rep="physical")
    with pytest.raises(RepresentationError):
        dealias(f)
    with pytest.raises(RepresentationError):
        to_physical(f)


def test_fields_are_immutable(grid):
    f = ScalarField.zeros(grid, Parity.EVEN_Z)
    with pytest.raises(ValueError):
        f.data[0, 0, 0] = 1.0


def test_field_block_round_trip(grid, rng):
    f = random_band_limited(grid, Parity.ODD_Z, rng, 3, 3, 3)
    blob = encode_field_block("w", f)
    name, back, offset = decode_field_block(blob, 0)
    assert name == "w" and offset == len(blob)
    assert back.parity is Parity.ODD_Z
    assert np.array_equal(back.data, f.data)
    assert encode_field_block("w", back) == blob


def _loop_random_band_limited(grid, parity, rng, max_kx, max_ky, max_m):
    """The original per-mode generator loop: the reference for draw order."""
    mmin = 0 if parity is Parity.EVEN_Z else 1
    data = np.zeros((grid.nx, grid.ny, grid.nz), np.complex128)
    for kx in range(0, max_kx + 1):
        for ky in range(-max_ky, max_ky + 1):
            if kx == 0 and ky < 0:
                continue
            for m in range(mmin, max_m + 1):
                re, im = rng.standard_normal(2)
                c = complex(re, 0.0) if (kx == 0 and ky == 0) else complex(re, im) / 2.0
                data[grid.index_kx(kx), grid.index_ky(ky), m] += c
                if kx or ky:
                    data[grid.index_kx(-kx), grid.index_ky(-ky), m] += np.conj(c)
    return data


@pytest.mark.parametrize("parity", [Parity.EVEN_Z, Parity.ODD_Z])
@pytest.mark.parametrize("caps", [(0, 0, 0), (0, 3, 2), (2, 0, 1), (4, 4, 4), (7, 5, 7), (3, 2, 0)])
def test_random_band_limited_matches_loop_bit_for_bit(grid, parity, caps):
    """Same coefficients and same rng state afterwards (later fields are
    drawn from the same generator); max_m = 7 is the limit nz - 2."""
    ref_rng, rng = np.random.default_rng(99), np.random.default_rng(99)
    ref = _loop_random_band_limited(grid, parity, ref_rng, *caps)
    f = random_band_limited(grid, parity, rng, *caps)
    assert np.array_equal(f.data, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("caps", [(8, 2, 2), (2, 8, 2), (2, 2, 8)])
def test_random_band_limited_rejects_caps_beyond_grid(grid, caps):
    with pytest.raises(InvalidFieldError):
        random_band_limited(grid, Parity.EVEN_Z, np.random.default_rng(0), *caps)
