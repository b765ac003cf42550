"""Derivative operators, the barotropic/baroclinic split, and the vertical
velocity reconstruction."""

import numpy as np
import pytest

from channelflow.calculus import (
    PlanarField,
    ddx,
    ddx_2d,
    ddy,
    ddz,
    divergence,
    fluctuation,
    laplacian_h,
    multiply,
    multiply_exact,
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
from channelflow.fields import Parity, ScalarField, random_band_limited, to_physical, to_spectral
from channelflow.norms import grad_h_norm, inner, l2_norm


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
    expected = -(np.pi * grid.m3) ** 2 * f.data
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
    k2 = 2.0 * np.pi * grid.ky[None, :]
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
    ref_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
    ref = _loop_random_band_limited_2d(grid, ref_rng, *caps)
    f = random_band_limited_2d(grid, rng, *caps)
    assert np.array_equal(f.data, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("caps", [(8, 2), (2, 8)])
def test_random_band_limited_2d_rejects_caps_beyond_grid(grid, caps):
    with pytest.raises(InvalidFieldError):
        random_band_limited_2d(grid, np.random.default_rng(0), *caps)
