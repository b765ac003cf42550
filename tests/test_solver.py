"""Nonlinear term, pressure solve, projection, stepping, and full runs."""

import math

import numpy as np
import pytest

from channelflow.calculus import ddx, ddy, ddz, divergence, laplacian_h
from channelflow.errors import ConfigError
from channelflow.fields import Grid, Parity, ScalarField, to_physical, to_spectral
from channelflow.norms import l2_norm
from channelflow.solver import (
    ForcingRecipe,
    ForcingSpec,
    InitRecipe,
    SolverConfig,
    Stepper,
    VelocityState,
    exact_shear,
    exact_taylor_green,
    leray_project,
    make_forcing,
    nonlinear,
    pressure_solve,
    random_divergence_free_state,
    run,
    taylor_green_pressure,
)


def _state_diff(a, b):
    return math.sqrt(sum(
        l2_norm(ScalarField.spectral(x.grid, x.parity, x.data - y.data)) ** 2
        for x, y in ((a.v1, b.v1), (a.v2, b.v2), (a.w, b.w))))


def _state_norm(s):
    return math.sqrt(sum(l2_norm(f) ** 2 for f in (s.v1, s.v2, s.w)))


def _base_config(grid, **kw):
    defaults = dict(nu=1.0, dt=1e-3, t_end=0.1, grid=grid, init=InitRecipe("shear"))
    defaults.update(kw)
    return SolverConfig(**defaults)


@pytest.mark.parametrize("key,value", [
    ("nu", 0.0), ("dt", -1e-3), ("t_end", -1.0), ("r", 3.0), ("r", 4.0),
    ("q", 1.0), ("alpha", 3.0), ("diag_every", 0), ("lambda1", 0.0),
    ("scheme", "rk4"),
])
def test_config_validation(grid, key, value):
    with pytest.raises(ConfigError):
        _base_config(grid, **{key: value})


def test_init_and_forcing_recipe_validation():
    with pytest.raises(ConfigError):
        InitRecipe("vortex_sheet")
    with pytest.raises(ConfigError):
        ForcingRecipe("sinusoid")


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------

def test_exact_solutions_satisfy_boundary_conditions(grid_acc):
    for state in (exact_shear(grid_acc, 0.3, 1.0), exact_taylor_green(grid_acc, 0.3, 1.0)):
        for v in (state.v1, state.v2):
            dzv = to_physical(ddz(v))
            assert np.max(np.abs(dzv.data[:, :, 0])) < 1e-12
            assert np.max(np.abs(dzv.data[:, :, -1])) < 1e-12
        wphys = to_physical(state.w)
        assert np.max(np.abs(wphys.data[:, :, 0])) == 0.0
        assert np.max(np.abs(wphys.data[:, :, -1])) == 0.0


def test_shear_substitution_residual(grid_acc):
    """Apply the discrete operators to the shear oracle; residual ~ roundoff."""
    nu, t = 0.7, 0.2
    state = exact_shear(grid_acc, t, nu)
    n1, _, _ = nonlinear(state)
    p = pressure_solve(state, ForcingSpec.zero(grid_acc))
    dt_v1 = -nu * np.pi**2 * state.v1.data  # analytic time derivative
    residual = dt_v1 - nu * laplacian_h(state.v1).data - nu * ddz(ddz(state.v1)).data \
        + n1.data + ddx(p).data
    assert np.max(np.abs(residual)) < 1e-12


def test_taylor_green_energy_closed_form(grid_acc):
    nu, t = 0.5, 0.13
    state = exact_taylor_green(grid_acc, t, nu)
    assert state.energy() == pytest.approx(0.5 * math.exp(-16 * np.pi**2 * nu * t), rel=1e-12)


def test_taylor_green_pressure_by_substitution(grid_acc):
    """The advection term of the vortex equals minus the pressure gradient."""
    state = exact_taylor_green(grid_acc, 0.0, 1.0)
    n1, n2, nw = nonlinear(state)
    p = taylor_green_pressure(grid_acc, 0.0, 1.0)
    assert np.max(np.abs(n1.data + ddx(p).data)) < 1e-12
    assert np.max(np.abs(n2.data + ddy(p).data)) < 1e-12
    assert np.max(np.abs(nw.data)) < 1e-14


# ---------------------------------------------------------------------------
# nonlinear term
# ---------------------------------------------------------------------------

def test_nonlinear_zero_state(grid):
    zero = VelocityState(ScalarField.zeros(grid, Parity.EVEN_Z),
                         ScalarField.zeros(grid, Parity.EVEN_Z),
                         ScalarField.zeros(grid, Parity.ODD_Z), 0.0)
    for piece in nonlinear(zero):
        assert np.all(piece.data == 0.0)


def test_nonlinear_shear_vanishes(grid_acc):
    for piece in nonlinear(exact_shear(grid_acc, 0.0, 1.0)):
        assert np.max(np.abs(piece.data)) == 0.0


def test_nonlinear_taylor_green_is_pure_gradient(grid_acc):
    state = exact_taylor_green(grid_acc, 0.0, 1.0)
    n1, n2, nw = nonlinear(state)
    assert np.max(np.abs(nw.data)) < 1e-14
    p1, p2, pw = leray_project(n1.data, n2.data, nw.data, grid_acc)
    scale = max(np.max(np.abs(n1.data)), 1.0)
    assert np.max(np.abs(p1)) < 1e-13 * scale
    assert np.max(np.abs(p2)) < 1e-13 * scale


@pytest.mark.parametrize("shape", [(8, 8, 5), (10, 12, 6), (32, 32, 17)])
def test_leray_projection_of_full_band_data_is_divergence_free(shape):
    """The projection and the divergence read the same symbols, so data on
    every mode, the Nyquist lines and the plane m = nz-1 included, projects
    onto the kernel of the discrete divergence."""
    grid = Grid(*shape)
    rng = np.random.default_rng(21)
    parities = (Parity.EVEN_Z, Parity.EVEN_Z, Parity.ODD_Z)
    data = []
    for parity in parities:
        vals = rng.standard_normal((grid.nx, grid.ny, grid.nz))
        if parity is Parity.ODD_Z:
            vals[:, :, [0, -1]] = 0.0
        data.append(to_spectral(ScalarField.physical(grid, parity, vals)).data)
    for d in data[:2]:
        for line in (d[grid.nx // 2], d[:, -1], d[:, :, -1]):
            assert np.abs(line).max() > 1e-3
    projected = leray_project(*data, grid)
    div = divergence(*(ScalarField.spectral(grid, p, d) for p, d in zip(parities, projected)))
    assert np.abs(div.data).max() <= 1e-12 * max(np.abs(d).max() for d in data)


@pytest.mark.parametrize("shape", [(8, 8, 5), (10, 12, 6), (32, 32, 17)])
def test_leray_projection_in_place_has_the_same_bits(shape):
    """`out` may be the inputs themselves, as in the stepper's update: the
    projection then overwrites them with the bits of the allocating call."""
    grid = Grid(*shape)
    rng = np.random.default_rng(22)
    data = [rng.standard_normal(grid.spectral_shape) + 1j * rng.standard_normal(grid.spectral_shape)
            for _ in range(3)]
    data[2][:, :, [0, -1]] = 0.0
    want = leray_project(*data, grid)
    work = [d.copy() for d in data]
    got = leray_project(*work, grid, out=work)
    for g, w, d in zip(got, work, want):
        assert g is w
        assert np.array_equal(g, d)


def test_nonlinear_parities(grid):
    state = random_divergence_free_state(grid, seed=1)
    n1, n2, nw = nonlinear(state)
    assert n1.parity is Parity.EVEN_Z and n2.parity is Parity.EVEN_Z
    assert nw.parity is Parity.ODD_Z


# ---------------------------------------------------------------------------
# pressure
# ---------------------------------------------------------------------------

def test_pressure_zero_sources(grid):
    zero = VelocityState(ScalarField.zeros(grid, Parity.EVEN_Z),
                         ScalarField.zeros(grid, Parity.EVEN_Z),
                         ScalarField.zeros(grid, Parity.ODD_Z), 0.0)
    p = pressure_solve(zero, ForcingSpec.zero(grid))
    assert np.all(p.data == 0.0)


def test_pressure_taylor_green_closed_form(grid_acc):
    state = exact_taylor_green(grid_acc, 0.05, 1.0)
    p = pressure_solve(state, ForcingSpec.zero(grid_acc))
    pex = taylor_green_pressure(grid_acc, 0.05, 1.0)
    err = l2_norm(ScalarField.spectral(grid_acc, Parity.EVEN_Z, p.data - pex.data))
    assert err <= 1e-8 * l2_norm(pex)


def test_pressure_consistency(grid, rng):
    """-Lap p reproduces the divergence source spectrally."""
    state = random_divergence_free_state(grid, seed=5)
    forcing = make_forcing(ForcingRecipe("random", amplitude=1.0, seed=2), grid)
    nl = nonlinear(state)
    p = pressure_solve(state, forcing, nl=nl)
    lap_p = -(grid.kh_sq + (np.pi * grid.m3) ** 2) * p.data
    src = ddx(nl[0]).data + ddy(nl[1]).data + ddz(nl[2]).data \
        - ddx(forcing.f1).data - ddy(forcing.f2).data - ddz(forcing.g).data
    src[0, 0, 0] = 0.0  # gauge slot
    assert np.max(np.abs(lap_p + src)) < 1e-11 * max(1.0, np.max(np.abs(src)))


def test_pressure_gauge_and_parity(grid):
    state = random_divergence_free_state(grid, seed=9)
    p = pressure_solve(state, ForcingSpec.zero(grid))
    assert p.parity is Parity.EVEN_Z
    assert p.data[0, 0, 0] == 0.0


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_zero_stays_zero(grid):
    cfg = _base_config(grid, nu=50.0, init=InitRecipe("zero"))
    zero = VelocityState(ScalarField.zeros(grid, Parity.EVEN_Z),
                         ScalarField.zeros(grid, Parity.EVEN_Z),
                         ScalarField.zeros(grid, Parity.ODD_Z), 0.0)
    res = Stepper(cfg, make_forcing(cfg.forcing, grid, cfg.nu)).step(zero, None)
    assert _state_norm(res.state) == 0.0
    assert np.all(res.pressure.data == 0.0)


def test_step_shear_single_step_exact(grid_acc):
    cfg = _base_config(grid_acc)
    stepper = Stepper(cfg, make_forcing(cfg.forcing, grid_acc, cfg.nu))
    res = stepper.step(exact_shear(grid_acc, 0.0, cfg.nu), None)
    expected = exact_shear(grid_acc, cfg.dt, cfg.nu)
    assert _state_diff(res.state, expected) < 1e-12  # well inside O(dt^3)


def test_step_preserves_divergence(grid):
    cfg = _base_config(grid, dt=2e-3)
    state = random_divergence_free_state(grid, seed=4)
    stepper = Stepper(cfg, make_forcing(cfg.forcing, grid, cfg.nu))
    prev = None
    for _ in range(5):
        res = stepper.step(state, prev)
        state, prev = res.state, res.rhs
        assert state.divergence_inf() <= 1e-11
        assert state.v1.parity is Parity.EVEN_Z and state.w.parity is Parity.ODD_Z



def _cnab2_reference_advance(cfg, state, rhs, prev_rhs):
    """The original Crank-Nicolson/AB2 update, (cn_num u + expl) / cn_den with
    expl = dt g or dt (1.5 g - 0.5 g_prev), then projected."""
    grid = cfg.grid
    lam = -(grid.kh_sq + (np.pi * grid.m3) ** 2)
    cn_num = 1.0 + 0.5 * cfg.nu * cfg.dt * lam
    cn_den = 1.0 - 0.5 * cfg.nu * cfg.dt * lam
    new = []
    for uc, gc, pc in zip((state.v1.data, state.v2.data, state.w.data), rhs,
                          prev_rhs or (None,) * 3):
        expl = cfg.dt * gc if pc is None else cfg.dt * (1.5 * gc - 0.5 * pc)
        new.append((cn_num * uc + expl) / cn_den)
    n1, n2, nw = leray_project(new[0], new[1], new[2], grid)
    return VelocityState(ScalarField.spectral(grid, Parity.EVEN_Z, n1),
                         ScalarField.spectral(grid, Parity.EVEN_Z, n2),
                         ScalarField.spectral(grid, Parity.ODD_Z, nw), state.t + cfg.dt)


def test_cnab2_matches_reference_update(grid):
    """cnab2 through the shared coefficient update equals the original
    Crank-Nicolson formula to roundoff, on the self-starting step and after
    four AB2 steps of a forced random flow."""
    cfg = _base_config(grid, nu=0.5, dt=2e-3, scheme="cnab2",
                       forcing=ForcingRecipe("random", 1.0, 7))
    stepper = Stepper(cfg, make_forcing(cfg.forcing, grid, cfg.nu))
    state = ref = random_divergence_free_state(grid, seed=5)
    prev = ref_prev = None
    for n in range(1, 6):
        res = stepper.step(state, prev)
        state, prev = res.state, res.rhs
        ref_rhs, _ = stepper.rhs_at(ref)
        ref, ref_prev = _cnab2_reference_advance(cfg, ref, ref_rhs, ref_prev), ref_rhs
        if n in (1, 5):
            assert state.t == ref.t
            assert _state_diff(state, ref) <= 1e-14 * _state_norm(ref)

def test_run_zero_horizon_returns_initial_record(grid):
    cfg = _base_config(grid, t_end=0.0)
    res = run(cfg)
    assert len(res.records) == 1
    assert res.records[0].t == 0.0
    assert res.final_state.t == 0.0


def test_run_takes_divergence_on_recorded_states_only(grid, monkeypatch):
    """divergence_inf ran after every step, about 2% of a 64^2 x 33 step,
    for a maximum nothing else reads; it now runs once per record, and
    max_divergence is the maximum over the recorded states."""
    calls = []
    measure = VelocityState.divergence_inf
    monkeypatch.setattr(VelocityState, "divergence_inf",
                        lambda st: calls.append(st) or measure(st))
    cfg = _base_config(grid, t_end=0.007, diag_every=3, init=InitRecipe("random", 0.5, 2),
                       forcing=ForcingRecipe("random", 1.0, 3))
    res = run(cfg, keep_states=True)
    assert [r.t for r in res.records] == pytest.approx([0.0, 0.003, 0.006, 0.007])
    assert len(calls) == len(res.snapshots)
    assert all(a is b for a, b in zip(calls, res.snapshots))
    assert res.max_divergence == max(measure(st) for st in res.snapshots)


def test_run_shear_accuracy(grid_acc):
    cfg = _base_config(grid_acc)
    res = run(cfg)
    exact = exact_shear(grid_acc, 0.1, 1.0)
    assert _state_diff(res.final_state, exact) / _state_norm(exact) <= 1e-8
    assert res.max_divergence <= 1e-11
    assert res.max_reconstruction_error <= 1e-10


def test_run_taylor_green_accuracy(grid_acc):
    cfg = _base_config(grid_acc, init=InitRecipe("taylor_green"))
    res = run(cfg)
    exact = exact_taylor_green(grid_acc, 0.1, 1.0)
    assert _state_diff(res.final_state, exact) / _state_norm(exact) <= 1e-8


def test_spatial_resolution_spectral(grid):
    """Once the oracle's modes are resolved, refining the grid changes nothing."""
    for g in (Grid(16, 16, 9), Grid(32, 32, 17)):
        cfg = _base_config(g, init=InitRecipe("taylor_green"), t_end=0.05)
        res = run(cfg)
        exact = exact_taylor_green(g, 0.05, 1.0)
        assert _state_diff(res.final_state, exact) / _state_norm(exact) < 1e-10


def test_cnab2_temporal_order_on_shear(grid_acc):
    finals = []
    for dt in (2e-3, 1e-3, 5e-4):
        cfg = _base_config(grid_acc, dt=dt, t_end=0.04, scheme="cnab2")
        finals.append(run(cfg).final_state)
    d1 = _state_diff(finals[0], finals[1])
    d2 = _state_diff(finals[1], finals[2])
    assert math.log2(d1 / d2) == pytest.approx(2.0, abs=0.2)


def test_etdab2_temporal_order_forced(grid_acc):
    finals = []
    for dt in (2e-3, 1e-3, 5e-4):
        cfg = _base_config(grid_acc, dt=dt, t_end=0.04,
                           init=InitRecipe("taylor_green"),
                           forcing=ForcingRecipe("random", amplitude=2.0, seed=3))
        finals.append(run(cfg).final_state)
    d1 = _state_diff(finals[0], finals[1])
    d2 = _state_diff(finals[1], finals[2])
    assert math.log2(d1 / d2) == pytest.approx(2.0, abs=0.3)


def test_energy_monotone_unforced(grid):
    cfg = _base_config(grid, init=InitRecipe("random", amplitude=1.0, seed=6), t_end=0.05)
    res = run(cfg)
    energies = [r.energy for r in res.records]
    assert all(a >= b - 1e-15 for a, b in zip(energies, energies[1:]))


def test_blowup_energy_threshold(grid):
    cfg = _base_config(grid, nu=1e-3, t_end=0.5, dt=1e-3, init=InitRecipe("zero"),
                       forcing=ForcingRecipe("random", amplitude=1e5, seed=1))
    res = run(cfg)
    assert res.blowup
    assert res.last_valid_time < 0.5
    assert res.records  # partial series still returned


def test_forcing_zero_mean(grid):
    forcing = make_forcing(ForcingRecipe("random", amplitude=1.0, seed=8), grid)
    assert forcing.f1.data[0, 0, 0] == 0.0
    assert forcing.f2.data[0, 0, 0] == 0.0


def test_random_state_divergence_free(grid):
    st = random_divergence_free_state(grid, seed=12)
    assert st.divergence_inf() < 1e-12
    assert st.reconstruction_error() < 1e-12
    assert st.energy() == pytest.approx(1.0, rel=1e-12)
