"""Transforms, dealiasing, and structural invariants of channel fields."""

import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channelflow.calculus import padded_grid
from channelflow.errors import InvalidFieldError, RepresentationError
from channelflow.fields import (
    Grid,
    Parity,
    ScalarField,
    dealias,
    random_band_limited,
    read_field_block,
    to_physical,
    to_spectral,
    write_field_block,
)
from channelflow.norms import l2_norm, lq_norm
from conftest import half_spectrum


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


#: coefficients of a full (16, 16, 9) spectrum, each set without its
#: conjugate partner: (parity, kx index, ky index, m, value)
BROKEN_SYMMETRY = {
    "unpaired_ky0": (Parity.EVEN_Z, 1, 0, 0, 1.0),
    "imaginary_origin": (Parity.EVEN_Z, 0, 0, 2, 1j),
    "unpaired_ky_nyquist_column": (Parity.EVEN_Z, 3, 8, 1, 1.0),
    "unpaired_kx_nyquist_row": (Parity.EVEN_Z, 8, 3, 1, 1.0),
    "unpaired_ky_negative": (Parity.EVEN_Z, 2, 13, 0, 0.5 + 0.5j),
    "oddz": (Parity.ODD_Z, 1, 2, 1, 1.0),
}

#: the cases whose unpaired coefficient and partner are both stored: the
#: self-partnered columns ky = 0 and ky = ny/2 (elsewhere the stored half
#: implies the partner, so only a full spectrum can break symmetry)
STORED_BROKEN_SYMMETRY = ("imaginary_origin", "unpaired_ky0", "unpaired_ky_nyquist_column")


def _broken_full(grid, case):
    parity, ix, iy, m, value = BROKEN_SYMMETRY[case]
    data = np.zeros((grid.nx, grid.ny, grid.nz), np.complex128)
    data[ix, iy, m] = value  # missing conjugate partner
    return parity, data


@pytest.mark.parametrize("case", STORED_BROKEN_SYMMETRY)
def test_broken_hermitian_symmetry_raises(grid, case):
    """On the field's own grid and on a padded target."""
    parity, data = _broken_full(grid, case)
    f = ScalarField.spectral(grid, parity, half_spectrum(data))
    for target in (None, padded_grid(grid)):
        with pytest.raises(InvalidFieldError, match="Hermitian"):
            to_physical(f, target)


@pytest.mark.parametrize("case", sorted(BROKEN_SYMMETRY))
def test_broken_hermitian_symmetry_in_checkpoint_block_raises(grid, case):
    """A checkpoint block holds the full spectrum; the reader checks the
    ky < 0 half it drops and the self-partnered columns it keeps."""
    parity, data = _broken_full(grid, case)
    block = (f"name=v1 parity={parity.value} rep=spectral nx={grid.nx} ny={grid.ny} "
             f"nz={grid.nz}\n").encode("ascii") + data.astype("<c16").tobytes()
    with pytest.raises(InvalidFieldError, match="block 'v1' breaks Hermitian symmetry"):
        read_field_block(io.BytesIO(block))


def test_spectral_rejects_full_array(grid):
    with pytest.raises(InvalidFieldError, match=re.escape("(16, 9, 9)")) as err:
        ScalarField.spectral(grid, Parity.EVEN_Z, np.zeros((16, 16, 9), np.complex128))
    assert "ky >= 0 half" in str(err.value)


@pytest.mark.parametrize("coarse", [(14, 16, 9), (16, 14, 9), (16, 16, 8), (32, 32, 5)])
def test_to_physical_rejects_coarser_target(grid, rng, coarse):
    """Sampling onto fewer nodes would drop modes silently."""
    f = random_band_limited(grid, Parity.EVEN_Z, rng, 2, 2, 2)
    target = Grid(*coarse)
    with pytest.raises(InvalidFieldError, match="coarser") as err:
        to_physical(f, target)
    assert str(target) in str(err.value) and str(grid) in str(err.value)


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
    assert np.max(np.abs(spec.data - half_spectrum(c))) < 1e-13
    phys = to_physical(ScalarField.spectral(grid, parity, half_spectrum(c)))
    assert np.max(np.abs(phys.data - _direct_synthesis(c, grid, parity))) < 1e-13


def test_oddz_forbidden_slots_raise(grid):
    data = np.zeros(grid.spectral_shape, np.complex128)
    data[0, 0, 0] = 1.0
    with pytest.raises(InvalidFieldError, match="parity-forbidden"):
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
    buf = io.BytesIO()
    write_field_block(buf, "w", f)
    blob = buf.getvalue()
    fh = io.BytesIO(blob)
    name, back = read_field_block(fh)
    assert name == "w" and fh.tell() == len(blob)
    assert back.parity is Parity.ODD_Z
    assert np.array_equal(back.data, f.data)
    again = io.BytesIO()
    write_field_block(again, "w", back)
    assert again.getvalue() == blob


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
    assert np.array_equal(f.data, half_spectrum(ref))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("caps", [(8, 2, 2), (2, 8, 2), (2, 2, 8)])
def test_random_band_limited_rejects_caps_beyond_grid(grid, caps):
    with pytest.raises(InvalidFieldError):
        random_band_limited(grid, Parity.EVEN_Z, np.random.default_rng(0), *caps)


def test_random_band_limited_caps_beyond_grid_with_nothing_to_draw():
    """An OddZ field with max_m = 0 has no coefficient to draw, so caps
    beyond the grid are allowed; the partner scatter used to index them
    anyway and raised a bare IndexError."""
    grid = Grid(8, 8, 5)
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    f = random_band_limited(grid, Parity.ODD_Z, rng, 100, 100, 0)
    assert f.data.shape == grid.spectral_shape and not np.any(f.data)
    assert rng.bit_generator.state == before


def test_from_modes_stores_the_ky_nonnegative_half(grid):
    """Each mode and its implied partner land where ky >= 0, as the half of
    the full spectrum built with both."""
    modes = {(0, 0, 1): 2.0, (1, 0, 2): 1 + 2j, (-3, 0, 3): 0.5j, (2, 5, 0): 1 - 1j,
             (-4, -6, 4): 3.0 + 0.25j, (0, -2, 5): -1j, (0, 3, 5): 0.75, (7, -7, 8): 1j}
    full = np.zeros((grid.nx, grid.ny, grid.nz), np.complex128)
    for (kx, ky, m), c in modes.items():
        full[grid.index_kx(kx), grid.index_ky(ky), m] += c
        if kx or ky:
            full[grid.index_kx(-kx), grid.index_ky(-ky), m] += np.conj(c)
    f = ScalarField.from_modes(grid, Parity.EVEN_Z, modes)
    assert np.array_equal(f.data, half_spectrum(full))


def _package_modules():
    """(name, module) of every module of the package."""
    import importlib
    import pkgutil

    import channelflow

    for info in pkgutil.iter_modules(channelflow.__path__):
        yield info.name, importlib.import_module(f"channelflow.{info.name}")


def test_only_fields_binds_an_fft():
    """`fields` owns every transform: no other package module holds
    scipy.fft, numpy.fft or one of their public functions."""
    import numpy.fft
    import scipy.fft

    fft_modules = (scipy.fft, numpy.fft)
    fft_objects = [*fft_modules, *(getattr(m, n) for m in fft_modules for n in m.__all__)]
    bound = {}
    for name, module in _package_modules():
        names = [n for n, v in vars(module).items() if any(v is o for o in fft_objects)]
        if names:
            bound[name] = names
    assert set(bound) == {"fields"}


def test_only_fields_reads_raw_wavenumbers():
    """`Grid` owns every spectral symbol: no other package module reads a
    raw wavenumber (kx, ky, m or their broadcast forms) to build one."""
    import inspect

    raw = re.compile(r"\.(kx|ky|kx3|ky3|m|m3)\b")
    readers = {name: raw.findall(inspect.getsource(module))
               for name, module in _package_modules() if name != "fields"}
    assert {name: hits for name, hits in readers.items() if hits} == {}


@pytest.mark.parametrize("shape", [(8, 8, 5), (10, 12, 6), (32, 32, 17)])
def test_grid_symbol_table(shape):
    """First-derivative symbols are 2 pi i k and pi m with the Nyquist lines
    and m = nz-1 at 0; quadratic symbols keep the real wavenumbers; each
    inverse is the reciprocal of its symbol and exactly 0 where it is 0."""
    grid = Grid(*shape)
    nx, ny, nz = shape
    kx = np.fft.fftfreq(nx, 1.0 / nx)
    ky = np.fft.fftfreq(ny, 1.0 / ny)[:ny // 2 + 1]
    m = np.arange(nz)
    dkx, dky = kx.copy(), ky.copy()
    dkx[nx // 2] = dky[ny // 2] = 0.0
    assert np.array_equal(grid.ikx, 2j * np.pi * dkx[:, None, None])
    assert np.array_equal(grid.iky, 2j * np.pi * dky[None, :, None])
    assert grid.kz[0] == grid.kz[nz - 1] == 0.0
    assert np.array_equal(grid.kz[1:-1], np.pi * m[1:-1])
    kh_sq = (2 * np.pi) ** 2 * (kx[:, None, None] ** 2 + ky[None, :, None] ** 2)
    assert np.array_equal(grid.kh_sq, kh_sq)
    assert np.array_equal(grid.kz_sq, (np.pi * m) ** 2)
    assert np.array_equal(grid.k_sq, kh_sq + (np.pi * m) ** 2)
    leray = (2 * np.pi) ** 2 * (dkx[:, None, None] ** 2 + dky[None, :, None] ** 2) + grid.kz**2
    for inv, symbol in ((grid.poisson_inv, grid.k_sq), (grid.leray_inv, leray),
                        (grid.kz_inv, grid.kz)):
        assert inv.shape == symbol.shape
        assert np.all(inv[symbol == 0] == 0.0)
        assert np.allclose(inv[symbol != 0] * symbol[symbol != 0], 1.0, rtol=0, atol=1e-15)
    assert np.count_nonzero(grid.poisson_inv == 0) == 1
    for name in ("ikx", "iky", "kz", "kz_inv", "kh_sq", "kz_sq", "k_sq",
                 "poisson_inv", "leray_inv"):
        assert not getattr(grid, name).flags.writeable, name
