"""Diagnostics records, bound constants, identity checks, and verdicts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from channelflow import calculus, fields, monitor
from channelflow.errors import CoverageError, InvalidFieldError
from channelflow.fields import Grid, Parity, ScalarField
from channelflow.io import read_diagnostics_csv, write_diagnostics_csv
from channelflow.monitor import (
    DiagnosticsRecord,
    check_baroclinic_residual,
    check_identity_avg_nonlinear,
    compute_bounds,
    energy_residual,
    k2,
    k11,
    k12,
    kr,
    record,
    run_norms,
    segment_bounds,
    verdict,
)
from channelflow.norms import TimeSeries, time_lalpha
from channelflow.solver import (
    ForcingRecipe,
    ForcingSpec,
    InitRecipe,
    SolverConfig,
    VelocityState,
    exact_shear,
    exact_taylor_green,
    pressure_solve,
    random_divergence_free_state,
    run,
)
from conftest import full_band_state


def _cfg(grid, **kw):
    defaults = dict(nu=1.0, dt=1e-3, t_end=0.1, grid=grid, init=InitRecipe("shear"))
    defaults.update(kw)
    return SolverConfig(**defaults)


def _norms(v0_sq=0.0, w0_sq=0.0, v0_h1=0.0, w0_h1=0.0, f_sq=0.0, g_sq=0.0, f_lr=0.0):
    from channelflow.monitor import RunNorms

    return RunNorms(v0_sq + w0_sq, v0_h1, w0_h1, f_sq + g_sq, f_lr)


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------

def test_record_zero_state(grid):
    zero = VelocityState(ScalarField.zeros(grid, Parity.EVEN_Z),
                         ScalarField.zeros(grid, Parity.EVEN_Z),
                         ScalarField.zeros(grid, Parity.ODD_Z), 0.0)
    rec = record(zero, ScalarField.zeros(grid, Parity.EVEN_Z), _cfg(grid),
                 ForcingSpec.zero(grid))
    assert rec.energy == 0.0 and rec.pz_norm == 0.0 and rec.vtilde_r == 0.0
    assert rec.criterion_accum == 0.0 and rec.h1_v == 0.0


def test_record_shear_closed_forms(grid_acc):
    nu, t = 1.0, 0.07
    cfg = _cfg(grid_acc, nu=nu)
    state = exact_shear(grid_acc, t, nu)
    p = pressure_solve(state, ForcingSpec.zero(grid_acc))
    rec = record(state, p, cfg, ForcingSpec.zero(grid_acc))
    assert rec.energy == pytest.approx(0.5 * math.exp(-2 * nu * np.pi**2 * t), rel=1e-12)
    assert rec.pz_norm == 0.0
    # vbar = 0 for the shear profile, so vtilde_r = ||v||_r
    assert rec.vtilde_r > 0


def test_record_taylor_green_pz_zero(grid_acc):
    cfg = _cfg(grid_acc)
    state = exact_taylor_green(grid_acc, 0.02, 1.0)
    p = pressure_solve(state, ForcingSpec.zero(grid_acc))
    rec = record(state, p, cfg, ForcingSpec.zero(grid_acc))
    assert rec.pz_norm == 0.0


def test_criterion_accumulates_by_trapezoid(grid_acc):
    cfg = _cfg(grid_acc, init=InitRecipe("zero"),
               forcing=ForcingRecipe("random", amplitude=2.0, seed=7), t_end=0.05)
    res = run(cfg)
    accum = [r.criterion_accum for r in res.records]
    assert all(a <= b + 1e-18 for a, b in zip(accum, accum[1:]))
    series = TimeSeries(np.array([r.t for r in res.records]),
                        np.array([r.pz_norm for r in res.records]))
    assert accum[-1] == pytest.approx(time_lalpha(series, cfg.alpha) ** cfg.alpha,
                                      rel=1e-10, abs=1e-300)


# ---------------------------------------------------------------------------
# bound constants
# ---------------------------------------------------------------------------

def test_k11_zero_forcing(grid):
    cfg = _cfg(grid)
    assert k11(cfg, _norms(v0_sq=1.0)) == 1.0


def test_k11_formula_arithmetic(grid):
    cfg = _cfg(grid, nu=1.0, lambda1=np.pi**2)
    assert k11(cfg, _norms(f_sq=np.pi**4)) == pytest.approx(1.0, rel=1e-14)


def test_k12_at_zero(grid):
    cfg = _cfg(grid)
    assert k12(0.0, cfg, _norms(v0_sq=0.3, w0_sq=0.2)) == pytest.approx(0.5)


def _records_from(times, pz):
    return [DiagnosticsRecord(t=t, energy=0.0, gradh_v=0.0, gradh_w=0.0, vz=0.0,
                              wz=0.0, pz_norm=p, vtilde_r=0.0, h1_v=0.0, h1_w=0.0,
                              criterion_accum=0.0) for t, p in zip(times, pz)]


def test_kr_zero_horizon_zero_init(grid):
    cfg = _cfg(grid)
    recs = _records_from([0.0, 0.1], [0.0, 0.0])
    assert kr(0.0, cfg, recs, _norms()) == 1.0


def test_kr_zero_horizon_nonzero_init_as_printed(grid):
    """K12(0) > 0 for nonzero data, so the T=0 exponent does not vanish."""
    cfg = _cfg(grid)
    norms = _norms(v0_sq=1.0, v0_h1=2.0)
    recs = _records_from([0.0, 0.1], [0.0, 0.0])
    K11 = k11(cfg, norms)
    expo = K11 * 1.0 + K11 ** (2.0 / (cfg.r - 2.0)) * 1.0
    assert kr(0.0, cfg, recs, norms) == pytest.approx(math.exp(expo) * (1 + 2.0**6), rel=1e-12)


def test_kr_unforced_closed_form(grid):
    """Zero forcing and zero pressure series: K_R = e^{C T}(1 + ||v0||_H1^6)."""
    cfg = _cfg(grid)
    norms = _norms(v0_h1=0.5)
    recs = _records_from([0.0, 0.05, 0.1], [0.0, 0.0, 0.0])
    expected = math.exp(1.0 * 0.1) * (1.0 + 0.5**6)
    assert kr(0.1, cfg, recs, norms) == pytest.approx(expected, rel=1e-12)


def test_kr_monotone_in_horizon(grid):
    cfg = _cfg(grid)
    norms = _norms(v0_sq=0.1, v0_h1=0.3, f_sq=0.2, f_lr=0.4)
    recs = _records_from(np.linspace(0, 0.1, 11), np.linspace(0.0, 0.5, 11))
    vals = [kr(T, cfg, recs, norms) for T in (0.0, 0.03, 0.06, 0.1)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_k2_zero_horizon(grid):
    cfg = _cfg(grid)
    recs = _records_from([0.0, 0.1], [0.0, 0.0])
    norms = _norms(v0_h1=0.4, w0_h1=0.1, f_sq=0.25, g_sq=0.05)
    assert k2(0.0, cfg, recs, norms) == pytest.approx(0.4 + 0.1 + 0.25 + 0.05, rel=1e-12)


def test_k2_zero_data(grid):
    cfg = _cfg(grid)
    recs = _records_from([0.0, 0.1], [0.0, 0.0])
    assert k2(0.1, cfg, recs, _norms()) == 0.0


def test_k2_monotone(grid):
    cfg = _cfg(grid)
    norms = _norms(v0_sq=0.01, v0_h1=0.1, f_sq=0.01, f_lr=0.1)
    recs = _records_from(np.linspace(0, 0.1, 11), np.linspace(0.0, 0.2, 11))
    vals = [k2(T, cfg, recs, norms) for T in (0.0, 0.05, 0.1)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_kr_coverage_error(grid):
    cfg = _cfg(grid)
    recs = _records_from([0.0, 0.05], [0.0, 0.0])
    with pytest.raises(CoverageError):
        kr(0.2, cfg, recs, _norms())


# ---------------------------------------------------------------------------
# energy residual
# ---------------------------------------------------------------------------

def test_energy_residual_zero_run(grid):
    cfg = _cfg(grid, init=InitRecipe("zero"), t_end=0.02)
    res = run(cfg)
    _, residuals = energy_residual(res.records)
    assert np.max(np.abs(residuals)) == 0.0


def test_energy_residual_second_order(grid_acc):
    maxres = []
    for dt in (1e-3, 5e-4):
        cfg = _cfg(grid_acc, dt=dt)
        res = run(cfg)
        _, residuals = energy_residual(res.records)
        maxres.append(np.max(np.abs(residuals)))
    assert maxres[0] / maxres[1] == pytest.approx(4.0, abs=0.8)


def test_energy_residual_steady_forced_state(grid_acc):
    """Forcing balancing the shear profile gives an exactly steady run."""
    cfg = _cfg(grid_acc, forcing=ForcingRecipe("steady_shear", amplitude=1.0), t_end=0.05)
    res = run(cfg)
    energies = [r.energy for r in res.records]
    assert max(energies) - min(energies) < 1e-13
    _, residuals = energy_residual(res.records)
    assert np.max(np.abs(residuals)) < 1e-11


# ---------------------------------------------------------------------------
# the record pipeline: each record from its state, pressure and predecessor
# ---------------------------------------------------------------------------

def _forced_cfg(grid, t_end=0.006):
    return _cfg(grid, nu=0.5, t_end=t_end, diag_every=2,
                init=InitRecipe("random", amplitude=0.3, seed=3),
                forcing=ForcingRecipe("random", amplitude=1.0, seed=4))


def test_online_residual_equals_energy_residual_bit_for_bit(grid):
    """Each record's energy_residual is the energy law over the interval
    since the previous record, written out here term by term."""
    cfg = _forced_cfg(grid)
    records = run(cfg).records
    assert records[0].energy_residual == 0.0
    for a, b in zip(records, records[1:]):
        grads = [r.gradh_v + r.gradh_w + r.vz + r.wz for r in (a, b)]
        want = ((b.energy - a.energy) / (b.t - a.t)) / 2.0 + cfg.nu * 0.5 * (grads[0] + grads[1]) \
            - 0.5 * (a.forcing_power + b.forcing_power)
        assert b.energy_residual == want != 0.0


def test_energy_residual_of_records_read_back_is_the_runs(grid, tmp_path):
    """The CSV keeps no forcing_power, so a forced run's residuals
    recomputed from the records read back were the unforced ones; they are
    the records' own, the CSV's energy_residual column."""
    res = run(_forced_cfg(grid))
    path = str(tmp_path / "diagnostics.csv")
    write_diagnostics_csv(path, res.records)
    t, want = energy_residual(res.records)
    assert want.tolist() == [r.energy_residual for r in res.records[1:]]
    t_read, got = energy_residual(read_diagnostics_csv(path))
    assert got.tolist() == want.tolist() and t_read.tolist() == t.tolist()


def test_first_record_of_each_segment_starts_both_accumulators(grid):
    """Both a fresh and a restarted segment open with criterion_accum and
    energy_residual at 0.0; the restart does not carry the earlier sums."""
    cfg = _forced_cfg(grid)
    half = run(_forced_cfg(grid, t_end=0.004))
    resumed = run(cfg, restart=(half.final_state, half.final_rhs))
    assert resumed.records[0].t == half.records[-1].t
    for segment in (half, resumed):
        first, last = segment.records[0], segment.records[-1]
        assert first.criterion_accum == 0.0 and first.energy_residual == 0.0
        assert last.criterion_accum > 0.0 and last.energy_residual != 0.0


def test_record_from_snapshots_equals_the_run_record(grid):
    """record(state, p, config, forcing, prev) is all a run's record is."""
    cfg = _forced_cfg(grid)
    res = run(cfg, keep_states=True)
    prev = None
    for snap, rec in zip(res.snapshots, res.records, strict=True):
        prev = record(snap, pressure_solve(snap, res.forcing), cfg, res.forcing, prev)
        assert prev == rec


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def test_identity_z_independent_state(grid_acc):
    assert check_identity_avg_nonlinear(exact_taylor_green(grid_acc, 0.0, 1.0)) < 1e-12


def test_identity_shear_state(grid_acc):
    assert check_identity_avg_nonlinear(exact_shear(grid_acc, 0.0, 1.0)) < 1e-12


def test_identity_random_states(grid):
    for seed in range(5):
        state = random_divergence_free_state(grid, seed=seed)
        assert check_identity_avg_nonlinear(state) <= 1e-9


def test_baroclinic_residual_zero_state(grid):
    zero = VelocityState(ScalarField.zeros(grid, Parity.EVEN_Z),
                         ScalarField.zeros(grid, Parity.EVEN_Z),
                         ScalarField.zeros(grid, Parity.ODD_Z), 0.0)
    later = VelocityState(zero.v1, zero.v2, zero.w, 0.01)
    latest = VelocityState(zero.v1, zero.v2, zero.w, 0.02)
    res = check_baroclinic_residual(zero, later, latest,
                                    ScalarField.zeros(grid, Parity.EVEN_Z),
                                    ForcingSpec.zero(grid), nu=1.0)
    assert res == 0.0


def _shear_baroclinic_residual(grid, dt):
    cfg = _cfg(grid, dt=dt, t_end=0.1, diag_every=10)
    res = run(cfg, keep_states=True)
    snaps = res.snapshots
    i = len(snaps) // 2
    p = pressure_solve(snaps[i], res.forcing)
    return check_baroclinic_residual(snaps[i - 1], snaps[i], snaps[i + 1], p,
                                     res.forcing, cfg.nu)


def test_baroclinic_residual_second_order(grid_acc):
    r1 = _shear_baroclinic_residual(grid_acc, 1e-3)
    r2 = _shear_baroclinic_residual(grid_acc, 5e-4)
    assert r1 / r2 == pytest.approx(4.0, abs=0.5)


def _seven_product_baroclinic_residual(prev_state, state, next_state, p, forcing, nu):
    """The baroclinic residual with its advection written out as the
    advection of vtilde plus four shear products, each product taken alone."""
    from channelflow.calculus import (ddx, ddx_2d, ddy, ddy_2d, ddz, fluctuation, laplacian_h,
                                      multiply_exact, vertical_average,
                                      vertical_velocity, z_extend)
    from channelflow.norms import l2_norm

    grid = state.grid
    v1, v2 = state.v1, state.v2
    vb1, vb2 = vertical_average(v1), vertical_average(v2)
    tv1, tv2 = fluctuation(v1), fluctuation(v2)
    w_t = vertical_velocity(tv1, tv2)
    div_tv = ScalarField.spectral(grid, Parity.EVEN_Z, ddx(tv1).data + ddy(tv2).data)
    total_sq = 0.0
    for j, (tvj, vbj) in enumerate(((tv1, vb1), (tv2, vb2))):
        self_term = multiply_exact(tv1, ddx(tvj)).data + multiply_exact(tv2, ddy(tvj)).data \
            + multiply_exact(div_tv, tvj).data
        avg = vertical_average(ScalarField.spectral(grid, Parity.EVEN_Z, self_term)).data
        advection = multiply_exact(tv1, ddx(tvj)).data + multiply_exact(tv2, ddy(tvj)).data \
            + multiply_exact(w_t, ddz(tvj)).data \
            + multiply_exact(tv1, z_extend(ddx_2d(vbj))).data \
            + multiply_exact(tv2, z_extend(ddy_2d(vbj))).data \
            + multiply_exact(z_extend(vb1), ddx(tvj)).data \
            + multiply_exact(z_extend(vb2), ddy(tvj)).data
        dvj = (next_state.v1, next_state.v2)[j].data - (prev_state.v1, prev_state.v2)[j].data
        dt_tvj = fluctuation(ScalarField.spectral(grid, Parity.EVEN_Z,
                                                  dvj / (next_state.t - prev_state.t)))
        residual = dt_tvj.data - nu * (laplacian_h(tvj).data + ddz(ddz(tvj)).data) + advection \
            - avg[:, :, None] * (np.arange(grid.nz) == 0) + (ddx, ddy)[j](fluctuation(p)).data \
            - fluctuation((forcing.f1, forcing.f2)[j]).data
        total_sq += l2_norm(ScalarField.spectral(grid, Parity.EVEN_Z, residual)) ** 2
    return math.sqrt(total_sq)


def test_baroclinic_residual_matches_seven_product_formula(grid_acc):
    """Advection of v with w from vtilde, less the barotropic term, is the
    advection of vtilde plus its four shear products (bilinearity)."""
    cfg = _cfg(grid_acc, nu=0.05, t_end=0.02, diag_every=5,
               init=InitRecipe("random", seed=2), forcing=ForcingRecipe("random", seed=4))
    res = run(cfg, keep_states=True)
    snaps = res.snapshots
    i = len(snaps) // 2
    args = (snaps[i - 1], snaps[i], snaps[i + 1], pressure_solve(snaps[i], res.forcing),
            res.forcing, cfg.nu)
    ref = _seven_product_baroclinic_residual(*args)
    assert ref > 1e-3
    assert abs(check_baroclinic_residual(*args) - ref) <= 1e-12 * ref


def _baroclinic_args(grid):
    """Three seeded snapshots 0.01 apart, the middle one's pressure and a
    zero forcing: the arguments of check_baroclinic_residual but nu."""
    snaps = [replace(random_divergence_free_state(grid, seed=s), t=0.01 * s) for s in range(3)]
    forcing = ForcingSpec.zero(grid)
    return (*snaps, pressure_solve(snaps[1], forcing), forcing)


def test_baroclinic_residual_rejects_snapshot_times_that_do_not_increase(grid):
    """One state as all three snapshots has no time difference to divide by."""
    state, _, _, p, forcing = _baroclinic_args(grid)
    with pytest.raises(InvalidFieldError, match=r"snapshot times \[0\.0, 0\.0, 0\.0\]"):
        check_baroclinic_residual(state, state, state, p, forcing, nu=1.0)


@pytest.mark.parametrize("odd_one", ["prev_state", "next_state", "p", "forcing"])
def test_baroclinic_residual_rejects_fields_on_different_grids(grid, odd_one):
    names = ("prev_state", "state", "next_state", "p", "forcing")
    args = dict(zip(names, _baroclinic_args(grid)))
    other = dict(zip(names, _baroclinic_args(Grid(8, 8, 5))))
    args[odd_one] = other[odd_one]
    with pytest.raises(InvalidFieldError, match="on grids") as err:
        check_baroclinic_residual(**args, nu=1.0)
    assert str(grid) in str(err.value) and str(Grid(8, 8, 5)) in str(err.value)


def _five_pair_avg_nonlinear_rhs(v1, v2):
    """The averaged right side as written: (vbar.grad_h)vbar_j with vbar a
    z-constant field, plus the baroclinic pairs (vtilde.grad_h)vtilde_j and
    (div_h vtilde) vtilde_j, five pairs per sum through depth_average_sums."""
    from channelflow.calculus import ddx, ddy, fluctuation, vertical_average, z_extend

    tv1, tv2 = fluctuation(v1), fluctuation(v2)
    bv1, bv2 = z_extend(vertical_average(v1)), z_extend(vertical_average(v2))
    div_tv = ScalarField.spectral(v1.grid, Parity.EVEN_Z, ddx(tv1).data + ddy(tv2).data)
    return calculus.depth_average_sums([
        [(bv1, ddx(bvj)), (bv2, ddy(bvj)), (tv1, ddx(tvj)), (tv2, ddy(tvj)), (div_tv, tvj)]
        for bvj, tvj in ((bv1, tv1), (bv2, tv2))])


_STATES = {
    **{f"random{s}": lambda g, s=s: random_divergence_free_state(g, seed=s) for s in range(4)},
    "full_band": full_band_state,
    "taylor_green": lambda g: exact_taylor_green(g, 0.0, 1.0),
    "shear": lambda g: exact_shear(g, 0.0, 1.0),
}


@pytest.mark.parametrize("kind", sorted(_STATES))
def test_avg_nonlinear_rhs_matches_the_five_pair_form(grid_acc, kind):
    """By Parseval in z the barotropic and baroclinic advective pairs fold
    into (v.grad_h)v_j, and (div_h vtilde) vtilde_j averages as
    (div_h vtilde) v_j: the folded sums equal the literal five pairs."""
    state = _STATES[kind](grid_acc)
    v1, v2 = state.v1, state.v2
    got = calculus.depth_average_sums(
        monitor._avg_nonlinear_rhs(v1, v2, monitor._advection_sums(v1, v2, state.w)))
    for got_j, ref_j in zip(got, _five_pair_avg_nonlinear_rhs(v1, v2)):
        err = np.max(np.abs(got_j.data - ref_j.data))
        assert err <= 1e-13 * np.max(np.abs(ref_j.data))


def test_identity_check_sees_a_perturbed_w(grid_acc, monkeypatch):
    """Negative control: the two sides share every factor but the last pair's,
    so w off by 0.1% in one interior mode must show far above roundoff."""
    original = monitor.vertical_velocity

    def perturbed(v1, v2):
        w = original(v1, v2)
        assert abs(w.data[1, 2, 3]) > 1e-3
        data = w.data.copy()
        data[1, 2, 3] *= 1.001
        return ScalarField.spectral(w.grid, w.parity, data)

    monkeypatch.setattr(monitor, "vertical_velocity", perturbed)
    assert check_identity_avg_nonlinear(random_divergence_free_state(grid_acc, seed=1)) > 1e-9


def _transform_counts(count_calls, check, *args):
    """The 3-D and planar transform calls made by check(*args)."""
    counts = {fn.__name__: count_calls(fn) for fn in (
        fields.to_physical, fields.to_spectral, fields.to_physical_planes,
        fields.to_spectral_planes)}
    check(*args)
    return {name: c.calls for name, c in counts.items()}


def test_identity_check_transform_counts(grid_acc, count_calls):
    """Both sides are depth averages by Parseval in z, and the right side
    reuses the left side's horizontal pairs: each of the 10 distinct
    factors (v1, v2, w, the x, y and z derivatives of v1 and v2, and the
    fluctuation of div_h v) gets one horizontal pass onto the padded
    (nx, ny) and each of the 4 sums one planar restriction, with no 3-D
    transform.  That calculus calls no FFT of its own is
    tests/test_fields.py's guard."""
    state = random_divergence_free_state(grid_acc, seed=1)
    assert _transform_counts(count_calls, check_identity_avg_nonlinear, state) == {
        "to_physical": 0, "to_spectral": 0, "to_physical_planes": 10, "to_spectral_planes": 4}


def test_baroclinic_check_transform_counts(grid_acc, count_calls):
    """The advection goes through multiply_exact_sums (9 distinct factors,
    2 sums: 9 padded 3-D inverses and 2 forwards, each making one planar
    pass of its own); the averaged right side samples its 7 distinct
    factors (v1, v2, their x and y derivatives and the fluctuation of
    div_h v) once and restricts its 2 sums once each: 9 + 7 and 2 + 2."""
    args = _baroclinic_args(grid_acc)
    assert _transform_counts(count_calls, check_baroclinic_residual, *args, 1.0) == {
        "to_physical": 9, "to_spectral": 2, "to_physical_planes": 16, "to_spectral_planes": 4}

# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------

def test_verdict_zero_run(grid):
    cfg = _cfg(grid, init=InitRecipe("zero"), t_end=0.02)
    res = run(cfg)
    norms = run_norms(res.initial_state, res.forcing, cfg.r)
    bounds = compute_bounds(0.02, cfg, res.records, norms)
    rep = verdict(res.records, bounds, cfg)
    assert rep.criterion_integral == 0.0 and rep.criterion_finite
    assert rep.energy_bound_held and rep.vtilde_bound_held and rep.h1_bound_held
    assert not rep.blowup


def test_verdict_shear_energy_equality_at_start(grid_acc):
    cfg = _cfg(grid_acc)
    res = run(cfg)
    norms = run_norms(res.initial_state, res.forcing, cfg.r)
    bounds = compute_bounds(0.1, cfg, res.records, norms)
    rep = verdict(res.records, bounds, cfg)
    assert rep.criterion_integral == 0.0
    assert rep.energy_bound_held
    assert rep.energy_max_ratio == pytest.approx(1.0, rel=1e-12)  # equality at t=0


def test_verdict_blowup_flag(grid):
    cfg = _cfg(grid, nu=1e-3, t_end=0.5, init=InitRecipe("zero"),
               forcing=ForcingRecipe("random", amplitude=1e5, seed=1))
    res = run(cfg)
    assert res.blowup
    norms = run_norms(res.initial_state, res.forcing, cfg.r)
    horizon = res.records[-1].t - res.records[0].t
    bounds = compute_bounds(horizon, cfg, res.records, norms)
    rep = verdict(res.records, bounds, cfg, blowup=res.blowup,
                  last_valid_time=res.last_valid_time)
    assert rep.blowup and rep.last_valid_time == res.last_valid_time
    assert "blow-up" in rep.to_text()


@pytest.mark.parametrize("seed", range(6))
def test_start_norms_have_one_formula(seed):
    """run_norms, segment_bounds and state.energy() take a state's norms as
    its record does, bit for bit: squaring l2_norm or h1_norm instead moves
    K11 in its last digit."""
    cfg = SolverConfig(nu=1.0, dt=0.001, t_end=0.02, grid=Grid(16, 16, 9),
                       init=InitRecipe("random", amplitude=0.5, seed=seed),
                       forcing=ForcingRecipe("random", seed=8))
    res = run(cfg)
    span = res.records[-1].t - res.records[0].t
    assert (compute_bounds(span, cfg, res.records, run_norms(res.initial_state, res.forcing, cfg.r))
            == segment_bounds(cfg, res.records, res.forcing))
    assert res.initial_state.energy() == res.records[0].energy


def test_verdict_report_rendering(grid):
    cfg = _cfg(grid, t_end=0.02)
    res = run(cfg)
    norms = run_norms(res.initial_state, res.forcing, cfg.r)
    bounds = compute_bounds(0.02, cfg, res.records, norms)
    rep = verdict(res.records, bounds, cfg)
    text = rep.to_text()
    assert "criterion report" in text and "k11" in text
    assert rep.to_kv()["criterion_integral"] == rep.criterion_integral
