"""The inequality lab: trivial cases, homogeneity, and refinement stability."""

import math

import numpy as np
import pytest

from channelflow.calculus import PlanarField, to_physical_2d, to_spectral_2d
from channelflow.errors import RepresentationError
from channelflow.fields import (
    Grid,
    Parity,
    ScalarField,
    random_band_limited,
    to_physical,
    to_spectral,
)
from channelflow.inequalities import (
    SWEEP_EPS,
    SWEEP_R,
    FamilySpec,
    _Sampled,
    check_gn_2d,
    check_gn_3d,
    check_interp_2d,
    check_lemma_ll,
    check_minkowski,
    check_poincare_pz,
    field_family,
    planar_family,
    sweep_family,
)
from channelflow.norms import l2_norm, sq_l2_norm
from channelflow.solver import random_divergence_free_state


@pytest.fixture
def planar_sin(grid):
    return to_spectral_2d(PlanarField.from_function(
        grid, lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)))


def test_gn2d_alpha2_degenerates_to_equality(planar_sin):
    rep = check_gn_2d(planar_sin, 2.0)
    assert rep.empirical_constant == 1.0
    assert rep.passed


def test_gn2d_refinement_stable(planar_sin):
    coarse = check_gn_2d(planar_sin, 4.0)
    fine_grid = Grid(64, 64, 17)
    fine = check_gn_2d(to_spectral_2d(PlanarField.from_function(
        fine_grid, lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))), 4.0)
    assert abs(fine.empirical_constant - coarse.empirical_constant) \
        <= 0.1 * coarse.empirical_constant


def test_gn2d_scale_invariant(planar_sin):
    base = check_gn_2d(planar_sin, 4.0).empirical_constant
    scaled_sin = PlanarField.spectral(planar_sin.grid, planar_sin.data * 10.0)
    scaled = check_gn_2d(scaled_sin, 4.0).empirical_constant
    assert abs(scaled - base) <= 1e-10 * base


def test_gn2d_zero_field(grid):
    rep = check_gn_2d(to_spectral_2d(PlanarField.from_function(grid, lambda x, y: 0.0 * x)), 4.0)
    assert rep.passed and rep.empirical_constant == 0.0


def test_gn2d_domain_error(planar_sin):
    with pytest.raises(ValueError):
        check_gn_2d(planar_sin, 1.5)


def test_gn3d_alpha2_exact_one(grid):
    f = to_spectral(ScalarField.from_function(
        grid, Parity.ODD_Z, lambda x, y, z: np.sin(2 * np.pi * x) * np.sin(np.pi * z)))
    assert check_gn_3d(f, 2.0).empirical_constant == 1.0


def test_gn3d_alpha6_finite_and_refinement_stable(grid):
    fn = lambda x, y, z: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y) * np.sin(np.pi * z)
    coarse = check_gn_3d(to_spectral(ScalarField.from_function(grid, Parity.ODD_Z, fn)), 6.0)
    fine = check_gn_3d(to_spectral(ScalarField.from_function(Grid(32, 32, 17), Parity.ODD_Z,
                                                             fn)), 6.0)
    assert math.isfinite(coarse.empirical_constant) and coarse.empirical_constant > 0
    assert abs(fine.empirical_constant - coarse.empirical_constant) \
        <= 0.1 * coarse.empirical_constant


def test_gn3d_scale_invariant(grid, rng):
    from channelflow.fields import random_band_limited

    f = random_band_limited(grid, Parity.EVEN_Z, rng, 3, 3, 3)
    base = check_gn_3d(f, 4.0).empirical_constant
    scaled_f = ScalarField.spectral(f.grid, f.parity, f.data * 10.0)
    scaled = check_gn_3d(scaled_f, 4.0).empirical_constant
    assert abs(scaled - base) <= 1e-10 * base


@pytest.mark.parametrize("alpha", [1.9, 6.1])
def test_gn3d_domain_error(grid, alpha):
    with pytest.raises(ValueError):
        check_gn_3d(ScalarField.zeros(grid, Parity.EVEN_Z), alpha)


def test_interp_constant_field(grid):
    rep = check_interp_2d(to_spectral_2d(PlanarField.from_function(grid, lambda x, y: 2.0 + 0 * x)),
                          2.0, 4.0)
    assert rep.passed
    assert rep.empirical_constant <= 1.0 + 1e-12


def test_interp_finite_and_stable(grid):
    fn = lambda x, y: np.sin(2 * np.pi * x) + 0 * y
    coarse = check_interp_2d(to_spectral_2d(PlanarField.from_function(grid, fn)), 2.0, 4.0)
    fine = check_interp_2d(to_spectral_2d(PlanarField.from_function(Grid(32, 32, 9), fn)),
                           2.0, 4.0)
    assert math.isfinite(coarse.empirical_constant)
    assert abs(fine.empirical_constant - coarse.empirical_constant) \
        <= 0.1 * coarse.empirical_constant


def test_interp_scale_invariant(planar_sin):
    base = check_interp_2d(planar_sin, 2.0, 4.0).empirical_constant
    scaled_sin = PlanarField.spectral(planar_sin.grid, planar_sin.data * 10.0)
    scaled = check_interp_2d(scaled_sin, 2.0, 4.0).empirical_constant
    assert abs(scaled - base) <= 1e-10 * base


def test_interp_domain_error(planar_sin):
    with pytest.raises(ValueError):
        check_interp_2d(planar_sin, 4.0, 4.0)


def test_minkowski_separable_equality():
    xi = np.linspace(0, 1, 24)
    eta = np.linspace(0, 1, 31)
    f = np.outer(np.sin(2 * np.pi * xi) + 2.0, np.cos(np.pi * eta) ** 2)
    rep = check_minkowski(f, 2.0)
    assert rep.empirical_constant == pytest.approx(1.0, abs=1e-12)
    assert rep.passed


def test_minkowski_beta1_is_fubini(rng):
    f = rng.random((17, 23))
    rep = check_minkowski(f, 1.0)
    assert rep.lhs == pytest.approx(rep.rhs_structure, rel=1e-13)


def test_minkowski_random_holds(rng):
    rep = check_minkowski(rng.random((40, 50)), 2.0)
    assert rep.passed and rep.empirical_constant <= 1.0 + 1e-10


def test_minkowski_reverse_fails(rng):
    rep = check_minkowski(rng.random((40, 50)), 2.0, reverse=True)
    assert not rep.passed


def test_minkowski_domain_error(rng):
    with pytest.raises(ValueError):
        check_minkowski(rng.random((4, 4)), 0.5)


def test_poincare_z_independent(grid):
    p = to_spectral(ScalarField.from_function(grid, Parity.EVEN_Z,
                                              lambda x, y, z: np.cos(2 * np.pi * x)))
    rep = check_poincare_pz(p)
    assert rep.passed and rep.empirical_constant == 0.0


def test_poincare_cos_closed_form(grid_acc):
    p = to_spectral(ScalarField.from_function(grid_acc, Parity.EVEN_Z,
                                              lambda x, y, z: np.cos(np.pi * z) + 0 * x))
    rep = check_poincare_pz(p)
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)       # max |p - pbar|
    assert rep.rhs_structure == pytest.approx(2.0, rel=1e-2)  # int_0^1 pi|sin| dz = 2


def test_poincare_random_family_no_violation(grid, rng):
    from channelflow.fields import random_band_limited

    for _ in range(10):
        p = random_band_limited(grid, Parity.EVEN_Z, rng, 4, 4, 4)
        assert check_poincare_pz(p).passed


def test_lemma_zero_velocity(grid):
    phi = ScalarField.from_modes(grid, Parity.EVEN_Z, {(1, 0, 1): 1.0})
    psi = ScalarField.from_modes(grid, Parity.ODD_Z, {(0, 1, 1): 1.0})
    zero_v = random_divergence_free_state(grid, seed=0, amplitude=0.0)
    rep = check_lemma_ll(phi, psi, zero_v, r=3.5, eps=0.1)
    assert rep.passed and rep.empirical_constant == 0.0


def test_lemma_zero_phi(grid):
    psi = ScalarField.from_modes(grid, Parity.ODD_Z, {(0, 1, 1): 1.0})
    v = random_divergence_free_state(grid, seed=3)
    rep = check_lemma_ll(ScalarField.zeros(grid, Parity.EVEN_Z), psi, v, r=3.5, eps=0.1)
    assert rep.passed and rep.empirical_constant == 0.0


def test_lemma_refinement_stable_small_eps(grid):
    """Small eps keeps the clamped numerator active, exercising C_eps > 0."""
    spec = FamilySpec(count=1, seed=11, max_kx=3, max_ky=3, max_m=3)
    reps = []
    for g in (grid, Grid(32, 32, 17)):
        phi = next(field_family(g, Parity.EVEN_Z, spec))
        psi = next(field_family(g, Parity.ODD_Z, spec))
        v = random_divergence_free_state(g, seed=5, kmax=3, mmax=3)
        reps.append(check_lemma_ll(phi, psi, v, r=3.5, eps=1e-4))
    assert reps[0].empirical_constant > 0
    assert math.isfinite(reps[0].empirical_constant)
    assert abs(reps[1].empirical_constant - reps[0].empirical_constant) \
        <= 0.1 * reps[0].empirical_constant


@pytest.mark.parametrize("r,eps", [(3.0, 0.1), (4.0, 0.1), (3.5, 0.0)])
def test_lemma_domain_errors(grid, r, eps):
    phi = ScalarField.zeros(grid, Parity.EVEN_Z)
    psi = ScalarField.zeros(grid, Parity.ODD_Z)
    v = random_divergence_free_state(grid, seed=0)
    with pytest.raises(ValueError):
        check_lemma_ll(phi, psi, v, r=r, eps=eps)


#: each field check called with one physical argument
PHYSICAL_CALLS = {
    "gn_2d": lambda planar, phi, psi, v: check_gn_2d(planar, 4.0),
    "gn_3d": lambda planar, phi, psi, v: check_gn_3d(phi, 4.0),
    "interp_2d": lambda planar, phi, psi, v: check_interp_2d(planar, 2.0, 4.0),
    "poincare_pz": lambda planar, phi, psi, v: check_poincare_pz(phi),
    "lemma_ll_phi": lambda planar, phi, psi, v: check_lemma_ll(phi, to_spectral(psi), v, 3.5, 0.1),
    "lemma_ll_psi": lambda planar, phi, psi, v: check_lemma_ll(to_spectral(phi), psi, v, 3.5, 0.1),
}


@pytest.mark.parametrize("call", sorted(PHYSICAL_CALLS))
def test_checks_reject_physical_fields(grid, planar_sin, call):
    """The checks take spectral fields only; a physical one was silently
    transformed and is now a RepresentationError."""
    phi = to_physical(ScalarField.from_modes(grid, Parity.EVEN_Z, {(1, 0, 1): 1.0}))
    psi = to_physical(ScalarField.from_modes(grid, Parity.ODD_Z, {(0, 1, 1): 1.0}))
    v = random_divergence_free_state(grid, seed=3)
    with pytest.raises(RepresentationError):
        PHYSICAL_CALLS[call](to_physical_2d(planar_sin), phi, psi, v)


def test_family_sweep_small(grid):
    spec = FamilySpec.for_grid(grid, count=5, seed=99)
    rows = sweep_family(grid, spec)
    assert len(rows) == 5 * 7
    assert all(rep.passed for _, rep in rows)


def test_family_reproducible_across_grids(grid):
    spec = FamilySpec(count=2, seed=5, max_kx=3, max_ky=3, max_m=3)
    coarse = next(field_family(grid, Parity.EVEN_Z, spec))
    fine = next(field_family(Grid(32, 32, 17), Parity.EVEN_Z, spec))
    # same continuum function: compare a shared low mode coefficient
    assert coarse.data[1, 2, 1] == pytest.approx(fine.data[1, 2, 1], rel=1e-12)


@pytest.mark.parametrize("kind", ["even", "odd", "planar"])
def test_family_unit_normalized(grid, kind):
    """Each family field has unit L2 norm and is, to roundoff, the old
    construction: the draw scattered to a half spectrum, then rescaled by
    its l2_norm there."""
    spec = FamilySpec.for_grid(grid, count=3, seed=1)
    parity = Parity.ODD_Z if kind == "odd" else Parity.EVEN_Z
    family = planar_family(grid, spec) if kind == "planar" else field_family(grid, parity, spec)
    rng = np.random.default_rng(spec.seed + ("even", "odd", "planar").index(kind))
    for f in family:
        assert abs(sq_l2_norm(f.data, grid, parity) - 1.0) <= 1e-14
        old = random_band_limited(grid, parity, rng, spec.max_kx, spec.max_ky,
                                  0 if kind == "planar" else spec.max_m)
        want = old.data * (1.0 / l2_norm(old))
        want = want[:, :, 0] if kind == "planar" else want
        assert np.max(np.abs(f.data - want)) <= 1e-15 * np.max(np.abs(want))


def test_sweep_rows_equal_the_public_checks_one_by_one(grid):
    """The sweep hands its checks each field's node values from one
    transform; its rows are, float for float, those of the seven checks
    called on the same fields and seeded states, each transforming its own
    input."""
    spec = FamilySpec.for_grid(grid, count=3, seed=7)
    rows = sweep_family(grid, spec)
    w1 = np.full(grid.nx, 1.0 / grid.nx)
    w2 = np.kron(np.full(grid.ny, 1.0 / grid.ny), grid.wz)
    families = zip(field_family(grid, Parity.EVEN_Z, spec), field_family(grid, Parity.ODD_Z, spec),
                   planar_family(grid, spec))
    expected = []
    for i, (even, odd, planar) in enumerate(families):
        state = random_divergence_free_state(grid, seed=spec.seed * 1000 + i,
                                             kmax=min(spec.max_kx, spec.max_ky), mmax=spec.max_m)
        samples = to_physical(even).data.reshape(grid.nx, grid.ny * grid.nz)
        expected += [(i, rep) for rep in (
            check_gn_2d(planar, 4.0), check_gn_3d(even, 4.0), check_gn_3d(odd, 6.0),
            check_interp_2d(planar, 2.0, 4.0), check_minkowski(samples, 2.0, w1, w2),
            check_poincare_pz(even), check_lemma_ll(even, odd, state, SWEEP_R, SWEEP_EPS))]
    assert len(rows) == len(expected) == 3 * 7
    for got, want in zip(rows, expected):
        assert repr(got) == repr(want)  # repr keeps every bit of a float


def test_sweep_transforms_each_field_once(grid, count_calls):
    """Per field: 6 inverse transforms (even and odd field once each, the
    Poincare check's fluctuation and p_z, Lemma LL's two velocity
    fluctuations) and 5 planar ones (the planar field, its x and y
    derivatives, and Lemma LL's two depth-average planes, which with the
    fluctuations give the velocity's nodes), down from 11 and 4 when each
    check transformed its own input and 8 and 3 when Lemma LL transformed
    v1, v2 as well as their fluctuations."""
    from channelflow import calculus, fields

    inverse = count_calls(fields.to_physical)
    planar = count_calls(calculus.to_physical_2d)
    sweep_family(grid, FamilySpec.for_grid(grid, count=3, seed=7))
    assert (inverse.calls, planar.calls) == (3 * 6, 3 * 5)


def test_squared_norms_take_one_pass_each(grid, count_calls):
    """Per swept field, 13 |c|^2 passes: the three families' normalisations,
    the seeded state's energy (three), one H1 pass in each of check_gn_2d
    and the two check_gn_3d, and four in Lemma LL, which takes phi's three
    squared norms from one pass, psi's from one, and one per barotropic
    plane (18 and 8 when each named norm made its own pass)."""
    from channelflow import norms

    passes = count_calls(norms._with_partners)
    sweep_family(grid, FamilySpec.for_grid(grid, count=3, seed=7))
    assert passes.calls == 3 * 13
    rng = np.random.default_rng(5)
    even, odd = (random_band_limited(grid, p, rng, 3, 3, 3) for p in (Parity.EVEN_Z, Parity.ODD_Z))
    state = random_divergence_free_state(grid, seed=9, kmax=3, mmax=3)
    passes.calls = 0
    check_lemma_ll(even, odd, state, SWEEP_R, SWEEP_EPS)
    assert passes.calls == 4


def test_sampled_field_carries_its_own_node_values(grid, planar_sin):
    f = ScalarField.from_modes(grid, Parity.ODD_Z, {(1, 2, 3): 1 - 0.5j})
    sampled = _Sampled(f)
    assert sampled.field is f
    assert np.array_equal(sampled.nodes.data, to_physical(f).data)
    assert np.array_equal(_Sampled(planar_sin).nodes.data, to_physical_2d(planar_sin).data)
    with pytest.raises(RepresentationError):
        _Sampled(to_physical(f))
