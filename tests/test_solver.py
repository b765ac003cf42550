"""Nonlinear term, pressure solve, projection, stepping, and full runs."""

import math

import numpy as np
import pytest

from channelflow.calculus import ddx, ddy, ddz, divergence, laplacian_h
from channelflow.errors import ConfigError, InvalidFieldError, RepresentationError
from channelflow.fields import (
    Grid,
    Parity,
    ScalarField,
    dealias,
    random_band_limited,
    to_physical,
    to_spectral,
)
from channelflow.io import parse_config_text
from channelflow.norms import l2_norm
from channelflow.solver import (
    BLOWUP_ENERGY_FACTOR,
    _phi1,
    _phi2,
    _zero_mean_scaled,
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
)
from conftest import taylor_green_pressure


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
    p1, p2, pw = leray_project(n1.data, n2.data, nw.data, grid_acc.whole_band)
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
    projected = leray_project(*data, grid.whole_band)
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
    want = leray_project(*data, grid.whole_band)
    work = [d.copy() for d in data]
    got = leray_project(*work, grid.whole_band, out=work)
    for g, w, d in zip(got, work, want):
        assert g is w
        assert np.array_equal(g, d)


@pytest.mark.parametrize("kmax,mmax", [(7, 7), (None, None)], ids=["beyond_band", "default"])
def test_random_state_projects_on_the_box_of_its_draw(kmax, mmax):
    """The seeded state is projected on the box of its draw only; with caps
    beyond the 2/3-rule box (|kx|, ky <= 7 and m <= 7 on 16x16x9) or the
    default caps (4 and 3 there), it has the bits of a whole-band
    projection of the same draw, and it is divergence-free."""
    grid = Grid(16, 16, 9)
    state = random_divergence_free_state(grid, seed=4, amplitude=0.7, kmax=kmax, mmax=mmax)
    rng = np.random.default_rng(4)
    k, m = (4, 3) if kmax is None else (kmax, mmax)
    drawn = [random_band_limited(grid, f.parity, rng, k, k, m).data for f in _fields(state)]
    box = grid.box(k, k, m)
    projected = leray_project(*drawn, grid.whole_band)
    want = _zero_mean_scaled(grid, box, tuple(map(box.gather, projected)), 0.7)
    for got, ref in zip(_fields(state), want):
        assert got.data.tobytes() == ref.data.tobytes()
    assert state.divergence_inf() <= 1e-11


@pytest.mark.parametrize("caps", [(None, None), (3, 2), (7, 7)], ids=["default", "3_2", "7_7"])
@pytest.mark.parametrize("shape", [(16, 16, 9), (32, 32, 17)])
def test_seeded_state_has_the_energy_of_its_amplitude(shape, caps):
    """The scale factor is the norms' L2 rule taken on the box of the
    draw: the state's energy is amplitude^2 to roundoff."""
    grid = Grid(*shape)
    state = random_divergence_free_state(grid, seed=9, amplitude=0.3, kmax=caps[0], mmax=caps[1])
    assert state.energy() == pytest.approx(0.09, rel=1e-14)


@pytest.mark.parametrize("shape", [(16, 16, 9), (32, 32, 17)])
def test_random_forcing_has_the_energy_of_its_amplitude(shape):
    grid = Grid(*shape)
    forcing = make_forcing(ForcingRecipe("random", 2.5, 42), grid, nu=1.0)
    energy = sum(l2_norm(f) ** 2 for f in (forcing.f1, forcing.f2, forcing.g))
    assert energy == pytest.approx(6.25, rel=1e-14)


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
    forcing = make_forcing(ForcingRecipe("random", amplitude=1.0, seed=2), grid, nu=1.0)
    nl = nonlinear(state)
    p = pressure_solve(state, forcing, nl=nl)
    lap_p = -(grid.kh_sq + grid.kz_sq) * p.data
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
    lam = -(grid.kh_sq + grid.kz_sq)
    cn_num = 1.0 + 0.5 * cfg.nu * cfg.dt * lam
    cn_den = 1.0 - 0.5 * cfg.nu * cfg.dt * lam
    new = []
    for uc, gc, pc in zip((state.v1.data, state.v2.data, state.w.data), rhs,
                          prev_rhs or (None,) * 3):
        expl = cfg.dt * gc if pc is None else cfg.dt * (1.5 * gc - 0.5 * pc)
        new.append((cn_num * uc + expl) / cn_den)
    n1, n2, nw = leray_project(new[0], new[1], new[2], grid.whole_band)
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
        ref_rhs = tuple(stepper.band.scatter(g) for g in stepper.rhs_at(ref)[0])
        ref, ref_prev = _cnab2_reference_advance(cfg, ref, ref_rhs, ref_prev), ref_rhs
        if n in (1, 5):
            assert state.t == ref.t
            assert _state_diff(state, ref) <= 1e-14 * _state_norm(ref)


def _full_array_reference_step(cfg, forcing, state, prev_rhs):
    """The stepper's update before it moved to the band, kept as the
    reference: the coefficient arrays from the grid's k_sq, the projected
    forcing, P(F) - P(N), the update and its projection all on full half
    spectra.  Returns the new state and the rhs."""
    grid = cfg.grid
    lam = -grid.k_sq
    nudt = cfg.nu * cfg.dt
    if cfg.scheme == "etdab2":
        z = nudt * lam
        prop, w_euler = np.exp(z), cfg.dt * _phi1(z)
        w_now, w_prev = cfg.dt * (_phi1(z) + _phi2(z)), -cfg.dt * _phi2(z)
    else:
        den = 1.0 - 0.5 * nudt * lam
        prop, w_euler = (1.0 + 0.5 * nudt * lam) / den, cfg.dt / den
        w_now, w_prev = 1.5 * cfg.dt / den, -0.5 * cfg.dt / den
    whole = grid.whole_band
    pforce = leray_project(forcing.f1.data, forcing.f2.data, forcing.g.data, whole)
    nl = nonlinear(state, use_dealias=cfg.dealias)
    rhs = tuple(p - g for p, g in zip(pforce, leray_project(*(c.data for c in nl), whole)))
    new = []
    for uc, gc, pc in zip((state.v1.data, state.v2.data, state.w.data), rhs,
                          prev_rhs or (None,) * 3):
        new.append(prop * uc + w_euler * gc if pc is None
                   else (prop * uc + w_now * gc) + w_prev * pc)
    n1, n2, nw = leray_project(*new, whole)
    return VelocityState(ScalarField.spectral(grid, Parity.EVEN_Z, n1),
                         ScalarField.spectral(grid, Parity.EVEN_Z, n2),
                         ScalarField.spectral(grid, Parity.ODD_Z, nw), state.t + cfg.dt), rhs


def _fields(state):
    return (state.v1, state.v2, state.w)


def _arrays(state):
    return tuple(f.data for f in _fields(state))


@pytest.mark.parametrize("dealiased", [True, False])
@pytest.mark.parametrize("scheme", ["etdab2", "cnab2"])
def test_band_step_matches_full_array_reference_bit_for_bit(grid, scheme, dealiased):
    """The stepper updates its band only (the 2/3-rule box, or the whole
    half spectrum without dealiasing), and over 5 forced steps its states
    and histories have the bytes of the full-array update; the rhs it
    hands out, from step or rhs_at, is a band array, which scatters to
    exactly +0.0 outside the band.  The energy a step sums on its band is
    the new state's energy() to roundoff."""
    cfg = _base_config(grid, nu=0.5, dt=2e-3, scheme=scheme, dealias=dealiased,
                       forcing=ForcingRecipe("random", 1.0, 7))
    forcing = make_forcing(cfg.forcing, grid, cfg.nu)
    stepper = Stepper(cfg, forcing)
    state = random_divergence_free_state(grid, seed=5)
    if dealiased:
        state = VelocityState(*(dealias(f) for f in _fields(state)), 0.0)
    band = grid.band if dealiased else grid.whole_band
    keep = band.scatter(np.ones(band.shape, bool))
    prev = None
    ref, ref_prev = state, None
    for _ in range(5):
        res = stepper.step(state, prev)
        ref, ref_prev = _full_array_reference_step(cfg, forcing, ref, ref_prev)
        assert res.state.t == ref.t
        assert abs(res.energy - res.state.energy()) <= 1e-14 * res.state.energy()
        full_rhs = tuple(stepper.band.scatter(g) for g in res.rhs)
        for got, want in zip(_arrays(res.state) + full_rhs, _arrays(ref) + ref_prev):
            assert got.shape == grid.spectral_shape
            assert got.tobytes() == want.tobytes()
        rhs_at, _ = stepper.rhs_at(state)
        for a, b, full in zip(rhs_at, res.rhs, full_rhs):
            assert a.shape == stepper.band.shape
            assert a.tobytes() == b.tobytes()
            outside = full[~keep].view(np.float64)
            assert np.all(outside == 0.0) and not np.signbit(outside).any()
        state, prev = res.state, res.rhs


def _leak(a, grid):
    """A copy of the half spectrum `a` with a coefficient at (kx, ky, m) =
    (nx/2 - 1, 1, 1), outside the 2/3-rule box (ky = 1 has no partner in
    the stored half, so the spectrum stays Hermitian)."""
    out = a.copy()
    out[grid.nx // 2 - 1, 1, 1] += 1e-3
    return out


@pytest.mark.parametrize("where", ["state", "history", "forcing"])
def test_stepper_rejects_coefficients_outside_the_band(grid, where):
    """With dealias = on the stepper works on the 2/3-rule box, so a
    coefficient outside it would be dropped: an entering state or a
    forcing with one is an InvalidFieldError, and so is an AB2 history
    that is not a band array (here a full half spectrum)."""
    cfg = _base_config(grid, forcing=ForcingRecipe("random", 1.0, 7))
    forcing = make_forcing(cfg.forcing, grid, cfg.nu)
    if where == "forcing":
        leaky = ForcingSpec(ScalarField.spectral(grid, Parity.EVEN_Z, _leak(forcing.f1.data, grid)),
                            forcing.f2, forcing.g)
        with pytest.raises(InvalidFieldError, match="forcing has coefficients outside"):
            Stepper(cfg, leaky)
        return
    stepper = Stepper(cfg, forcing)
    start = random_divergence_free_state(grid, seed=5)
    start = VelocityState(*(dealias(f) for f in _fields(start)), 0.0)
    first = stepper.step(start, None)
    state, prev = first.state, first.rhs
    if where == "state":
        state = VelocityState(ScalarField.spectral(grid, Parity.EVEN_Z,
                                                   _leak(state.v1.data, grid)),
                              state.v2, state.w, state.t)
        match = "entering state"
    else:
        prev = (prev[0], prev[1], _leak(stepper.band.scatter(prev[2]), grid))
        match = "AB2 history"
    with pytest.raises(InvalidFieldError, match=match):
        stepper.step(state, prev)
    stepper.step(first.state, first.rhs)  # the stepper's own result passes


@pytest.mark.parametrize("where", ["state", "history"])
def test_dealiased_run_rejects_a_restart_outside_the_band(grid, where):
    """A dealias = off run's state and history have coefficients outside
    the 2/3-rule box; restarting them with dealias = on would drop them
    and mix the two discretisations, so run raises a ConfigError naming
    dealias.  The same restart with dealias = off runs."""
    off = _base_config(grid, t_end=0.004, dealias=False, init=InitRecipe("random", 0.5, 3),
                       forcing=ForcingRecipe("random", 1.0, 7))
    res = run(off)
    on = _base_config(grid, t_end=0.008, init=InitRecipe("random", 0.5, 3),
                      forcing=ForcingRecipe("random", 1.0, 7))
    state, history = res.final_state, res.final_rhs
    if where == "history":
        # a state inside the band, with the undealiased run's history
        state = VelocityState(*(dealias(f) for f in _fields(state)), state.t)
    assert not any(grid.band.covers(a) for a in history)
    with pytest.raises(ConfigError, match="dealias"):
        run(on, restart=(state, history))
    assert not run(_base_config(grid, t_end=0.008, dealias=False,
                                forcing=ForcingRecipe("random", 1.0, 7)),
                   restart=(res.final_state, history)).blowup


@pytest.mark.parametrize("dealiased", [False, True])
def test_run_rejects_a_restart_history_of_the_wrong_shape(dealiased):
    """A restart history must be three half spectra of config.grid: with
    dealias = off a sliced one used to end in a numpy broadcast error, and
    with dealias = on a band array (a StepResult.rhs) was blamed on a
    dealias = off checkpoint.  Both are a ConfigError naming the restart
    history and the expected shape."""
    grid = Grid(8, 8, 5)
    kw = dict(dealias=dealiased, init=InitRecipe("random", 0.5, 3),
              forcing=ForcingRecipe("random", 1.0, 7))
    res = run(_base_config(grid, t_end=0.002, **kw))
    cfg = _base_config(grid, t_end=0.004, **kw)
    if dealiased:
        stepper = Stepper(cfg, res.forcing)
        history = stepper.step(res.final_state, None).rhs
        assert history[0].shape == stepper.band.shape != grid.spectral_shape
    else:
        history = tuple(a[:, :3] for a in res.final_rhs)
    with pytest.raises(ConfigError, match=r"restart history .*\(8, 5, 5\)"):
        run(cfg, restart=(res.final_state, history))


def test_run_zero_horizon_returns_initial_record(grid):
    cfg = _base_config(grid, t_end=0.0)
    res = run(cfg)
    assert len(res.records) == 1
    assert res.records[0].t == 0.0
    assert res.final_state.t == 0.0


def test_run_takes_divergence_on_recorded_states_only(grid, monkeypatch):
    """divergence_inf ran after every step, about 2% of a 64^2 x 33 step,
    for a maximum nothing else reads; the record checks (divergence_errors)
    now run once per record, and max_divergence is the maximum over the
    recorded states."""
    calls = []
    measure = VelocityState.divergence_errors
    monkeypatch.setattr(VelocityState, "divergence_errors",
                        lambda st: calls.append(st) or measure(st))
    cfg = _base_config(grid, t_end=0.007, diag_every=3, init=InitRecipe("random", 0.5, 2),
                       forcing=ForcingRecipe("random", 1.0, 3))
    res = run(cfg, keep_states=True)
    assert [r.t for r in res.records] == pytest.approx([0.0, 0.003, 0.006, 0.007])
    assert len(calls) == len(res.snapshots)
    assert all(a is b for a, b in zip(calls, res.snapshots))
    assert res.max_divergence == max(st.divergence_inf() for st in res.snapshots)


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


#: the CLI's blow-up configs: (text, end time, number of records)
BLOWUPS = {
    "energy_cap": ("nu = 0.001\ndt = 0.001\nt_end = 0.5\nnx = 16\nny = 16\nnz = 9\n"
                   "init = zero\nforcing = random\nforcing_amplitude = 1e5\n", 0.004, 1),
    "non_finite": ("nu = 1.0\ndt = 0.001\nt_end = 0.01\nnx = 8\nny = 8\nnz = 5\n"
                   "init = random\ninit_amplitude = 1e200\ndiag_every = 1\n", 0.0, 0),
}


@pytest.mark.parametrize("name", sorted(BLOWUPS))
def test_blowup_ends_on_the_last_valid_state(name):
    """A step whose energy is over the cap ends the run on its new state;
    one whose energy is not finite (the 1e200 state's first step) ends it
    on the entering state, unrecorded.  Either way the final state is the
    last valid one and finite."""
    text, t_end, n_records = BLOWUPS[name]
    res = run(parse_config_text(text))
    assert res.blowup
    assert res.final_state.t == res.last_valid_time == t_end
    assert len(res.records) == n_records
    assert all(np.isfinite(f.data).all() for f in _fields(res.final_state))
    if name == "energy_cap":
        cap = BLOWUP_ENERGY_FACTOR * max(res.initial_state.energy(), 1.0)
        assert res.final_state.energy() > cap


def test_run_takes_one_divergence_per_record_check(count_calls):
    """divergence_inf and reconstruction_error each took the divergence of
    the recorded state: a forced diag_every = 1 run of N steps made 3(N+1)
    + 1 divergence calls (the pressure solve's, the two checks', and the
    forcing's cached one), 16 at N = 4.  The checks share one: 2(N+1) + 1,
    with both maxima bit for bit."""
    from channelflow import calculus

    config = parse_config_text("nu = 1.0\ndt = 0.001\nt_end = 0.004\nnx = 8\nny = 8\nnz = 5\n"
                               "init = random\nforcing = random\ndiag_every = 1\n")
    calls = count_calls(calculus.divergence)
    res = run(config, keep_states=True)
    assert len(res.snapshots) == 5
    assert calls.calls == 2 * 5 + 1
    assert res.max_reconstruction_error == max(st.reconstruction_error() for st in res.snapshots)
    for st in res.snapshots:
        assert st.divergence_errors() == (st.divergence_inf(), st.reconstruction_error())


def test_forcing_zero_mean(grid):
    forcing = make_forcing(ForcingRecipe("random", amplitude=1.0, seed=8), grid, nu=1.0)
    assert forcing.f1.data[0, 0, 0] == 0.0
    assert forcing.f2.data[0, 0, 0] == 0.0


def test_random_state_divergence_free(grid):
    st = random_divergence_free_state(grid, seed=12)
    assert st.divergence_inf() < 1e-12
    assert st.reconstruction_error() < 1e-12
    assert st.energy() == pytest.approx(1.0, rel=1e-12)


def test_reconstruction_error_is_the_distance_to_the_reconstructed_w(grid):
    """||div / kz|| equals ||w - vertical_velocity(v1, v2)|| also for a w
    that is not the reconstruction of (v1, v2)."""
    from channelflow.calculus import vertical_velocity
    from channelflow.norms import sq_l2_norm

    st = random_divergence_free_state(grid, seed=12)
    w = random_band_limited(grid, Parity.ODD_Z, np.random.default_rng(3), 4, 4, 4)
    off = VelocityState(st.v1, st.v2, w, 0.0)
    expected = math.sqrt(sq_l2_norm(w.data - vertical_velocity(st.v1, st.v2).data,
                                    grid, Parity.ODD_Z))
    assert expected > 0.1
    assert off.reconstruction_error() == pytest.approx(expected, rel=1e-13)


def _zeros(grid, parities):
    return [ScalarField.zeros(grid, p) for p in parities]


#: builds a velocity state or a forcing from a list of three components
_each_triple = pytest.mark.parametrize("build", [
    lambda fs: VelocityState(*fs, 0.0), lambda fs: ForcingSpec(*fs)], ids=["state", "forcing"])


@_each_triple
def test_velocity_triples_reject_components_on_different_grids(grid, build):
    """A state with v2 on another grid constructed, and its divergence_inf()
    failed with a bare numpy broadcast error."""
    other = Grid(8, 8, 5)
    fs = _zeros(grid, (Parity.EVEN_Z, Parity.EVEN_Z, Parity.ODD_Z))
    fs[1] = ScalarField.zeros(other, Parity.EVEN_Z)
    with pytest.raises(InvalidFieldError, match="on grids") as err:
        build(fs)
    assert str(grid) in str(err.value) and str(other) in str(err.value)


@_each_triple
@pytest.mark.parametrize("parities", [
    (Parity.ODD_Z, Parity.EVEN_Z, Parity.ODD_Z), (Parity.EVEN_Z, Parity.ODD_Z, Parity.ODD_Z),
    (Parity.EVEN_Z, Parity.EVEN_Z, Parity.EVEN_Z)])
def test_velocity_triples_reject_wrong_parities(grid, build, parities):
    """A forcing whose f1 is OddZ constructed silently."""
    with pytest.raises(InvalidFieldError, match=r"\(EvenZ, EvenZ, OddZ\)"):
        build(_zeros(grid, parities))


@_each_triple
def test_velocity_triples_reject_physical_components(grid, build):
    fs = _zeros(grid, (Parity.EVEN_Z, Parity.EVEN_Z, Parity.ODD_Z))
    fs[2] = to_physical(fs[2])
    with pytest.raises(RepresentationError):
        build(fs)
