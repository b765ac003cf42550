"""Acceptance suite: every criterion at its stated tolerance, one printed
pass line per criterion.

Criteria 1/2 run the benchmark configuration (nu=1, 32x32x17, dt=1e-3,
t_end=0.1) under the default exact-diffusion scheme; criterion 3 measures
the temporal order with the cnab2 scheme, where the oracle trajectories
carry a measurable O(dt^2) signal (the default scheme reproduces them to
roundoff, which the convergence command reports as its floor guard).
"""

import math
import os
import time
from itertools import islice

import numpy as np
import pytest

from channelflow.calculus import PlanarField
from channelflow.cli import EXIT_OK, main
from channelflow.fields import Grid, Parity, ScalarField
from channelflow.inequalities import (
    FamilySpec,
    check_gn_2d,
    check_gn_3d,
    check_interp_2d,
    field_family,
    planar_family,
    sweep_family,
)
from channelflow.monitor import (
    check_baroclinic_residual,
    check_identity_avg_nonlinear,
    compute_bounds,
    energy_residual,
    k2,
    k11,
    kr,
    run_norms,
    verdict,
)
from channelflow.norms import TimeSeries, l2_norm, time_lalpha
from channelflow.solver import (
    ForcingRecipe,
    InitRecipe,
    SolverConfig,
    exact_shear,
    exact_taylor_green,
    pressure_solve,
    random_divergence_free_state,
    run,
)
from conftest import taylor_green_pressure

GRID = Grid(32, 32, 17)


def _passline(n, msg):
    print(f"ACCEPTANCE {n:2d}: PASS - {msg}")


def _state_diff(a, b):
    return math.sqrt(sum(
        l2_norm(ScalarField.spectral(x.grid, x.parity, x.data - y.data)) ** 2
        for x, y in ((a.v1, b.v1), (a.v2, b.v2), (a.w, b.w))))


def _state_norm(s):
    return math.sqrt(sum(l2_norm(f) ** 2 for f in (s.v1, s.v2, s.w)))


def _bench_config(**kw):
    defaults = dict(nu=1.0, dt=1e-3, t_end=0.1, grid=GRID, init=InitRecipe("shear"))
    defaults.update(kw)
    return SolverConfig(**defaults)


@pytest.fixture(scope="module")
def shear_run():
    t0 = time.perf_counter()
    result = run(_bench_config())
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def tg_run():
    return run(_bench_config(init=InitRecipe("taylor_green")))


@pytest.fixture(scope="module")
def forced_run():
    cfg = _bench_config(init=InitRecipe("zero"), t_end=0.05,
                        forcing=ForcingRecipe("random", amplitude=2.0, seed=7))
    return cfg, run(cfg)


def test_criterion_1_exact_shear_decay(shear_run):
    result, elapsed = shear_run
    exact = exact_shear(GRID, 0.1, 1.0)
    rel = _state_diff(result.final_state, exact) / _state_norm(exact)
    assert rel <= 1e-8
    assert elapsed < 10.0
    _passline(1, f"shear decay rel L2 error {rel:.2e} <= 1e-8, runtime {elapsed:.2f}s < 10s")


def test_criterion_2_taylor_green(tg_run):
    exact = exact_taylor_green(GRID, 0.1, 1.0)
    rel = _state_diff(tg_run.final_state, exact) / _state_norm(exact)
    assert rel <= 1e-8
    p = pressure_solve(tg_run.final_state, tg_run.forcing)
    pex = taylor_green_pressure(GRID, 0.1, 1.0)
    perr = l2_norm(ScalarField.spectral(GRID, Parity.EVEN_Z, p.data - pex.data)) / l2_norm(pex)
    assert perr <= 1e-8
    _passline(2, f"taylor-green rel L2 error {rel:.2e}, pressure gauge error {perr:.2e} <= 1e-8")


def test_criterion_3_temporal_order(tmp_path, capsys):
    base = ("nu = 1.0\ndt = 0.002\nt_end = 0.02\nnx = 32\nny = 32\nnz = 17\n"
            "scheme = cnab2\n")
    orders = {}
    for init in ("shear", "taylor_green"):
        path = tmp_path / f"{init}.cfg"
        path.write_text(base + f"init = {init}\n")
        assert main(["convergence", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        orders[init] = float(out.rsplit("observed temporal order:", 1)[1].strip())
        assert 1.8 <= orders[init] <= 2.2
    _passline(3, f"cmd_convergence order shear={orders['shear']:.3f}, "
                 f"taylor_green={orders['taylor_green']:.3f} within 2.0 +/- 0.2")


def test_criterion_4_divergence_and_reconstruction(shear_run, tg_run, forced_run):
    _, forced = forced_run
    worst_div = max(shear_run[0].max_divergence, tg_run.max_divergence,
                    forced.max_divergence)
    worst_rec = max(shear_run[0].max_reconstruction_error,
                    tg_run.max_reconstruction_error,
                    forced.max_reconstruction_error)
    assert worst_div <= 1e-11
    assert worst_rec <= 1e-10
    _passline(4, f"max spectral divergence {worst_div:.2e} <= 1e-11, "
                 f"max ||w - reconstruction||_2 {worst_rec:.2e} <= 1e-10")


def test_criterion_5_energy_law():
    # nonincreasing recorded energy on unforced runs, smooth and multi-mode
    for init in (InitRecipe("shear"), InitRecipe("random", amplitude=0.5, seed=5)):
        result = run(_bench_config(init=init, nu=0.05 if init.kind == "random" else 1.0))
        energies = [r.energy for r in result.records]
        assert all(a >= b - 1e-15 for a, b in zip(energies, energies[1:]))
    # order-2 decay of the energy-law residual, measured on the smooth run
    # (rough multi-mode data is pre-asymptotic at this record cadence)
    maxres = []
    for dt in (1e-3, 5e-4):
        result = run(_bench_config(dt=dt))
        _, residuals = energy_residual(result.records)
        maxres.append(float(np.max(np.abs(residuals))))
    ratio = maxres[0] / maxres[1]
    assert 3.2 <= ratio <= 4.8
    _passline(5, f"unforced energy nonincreasing; residual ratio under dt halving "
                 f"{ratio:.2f} (order 2)")


def test_criterion_6_k11_bound_hard():
    ratios = []
    for seed in range(5):
        cfg = _bench_config(t_end=0.05,
                            init=InitRecipe("random", amplitude=0.5, seed=seed),
                            forcing=ForcingRecipe("random", amplitude=1.0, seed=100 + seed))
        result = run(cfg)
        norms = run_norms(result.initial_state, result.forcing, cfg.r)
        bound = k11(cfg, norms)
        worst = max(r.energy for r in result.records) / bound
        assert all(r.energy <= bound * (1 + 1e-12) for r in result.records)
        ratios.append(worst)
    _passline(6, f"energy <= K11 held on 5 seeded forced runs "
                 f"(worst E/K11 = {max(ratios):.3f})")


def test_criterion_7_averaged_nonlinearity_identity():
    worst = 0.0
    for seed in range(20):
        state = random_divergence_free_state(GRID, seed=seed)
        worst = max(worst, check_identity_avg_nonlinear(state))
    assert worst <= 1e-9
    _passline(7, f"averaged-nonlinearity identity discrepancy {worst:.2e} <= 1e-9 "
                 "on 20 seeded states")


def test_criterion_8_baroclinic_residual_order():
    residuals = []
    for dt in (1e-3, 5e-4):
        cfg = _bench_config(dt=dt)
        result = run(cfg, keep_states=True)
        snaps = result.snapshots
        i = len(snaps) // 2
        p = pressure_solve(snaps[i], result.forcing)
        residuals.append(check_baroclinic_residual(
            snaps[i - 1], snaps[i], snaps[i + 1], p, result.forcing, cfg.nu))
    ratio = residuals[0] / residuals[1]
    assert abs(ratio - 4.0) <= 0.5
    _passline(8, f"baroclinic residual ratio under dt halving {ratio:.3f} = 4 +/- 0.5")


def test_criterion_9_inequality_suite():
    t0 = time.perf_counter()
    spec = FamilySpec.for_grid(GRID, count=100, seed=1234)
    rows = sweep_family(GRID, spec)
    assert all(rep.passed for _, rep in rows)
    mink = [rep.empirical_constant for _, rep in rows if rep.name == "minkowski"]
    assert all(c <= 1.0 + 1e-10 for c in mink)
    assert all(rep.passed for _, rep in rows if rep.name == "poincare_pz")
    ratio_names = ("gn2d_a4", "gn3d_a4", "gn3d_a6", "twe_a2_b4", "lemma_ll")
    base_max = {n: max(rep.empirical_constant for _, rep in rows if rep.name == n)
                for n in ratio_names}
    assert all(math.isfinite(v) for v in base_max.values())

    # scale invariance (homogeneous checks) on a sample of the family
    even = islice(field_family(GRID, Parity.EVEN_Z, spec), 10)
    planar = islice(planar_family(GRID, spec), 10)
    for f, pf in zip(even, planar):
        for make in (lambda g: check_gn_3d(g, 4.0),):
            c0 = make(f).empirical_constant
            c1 = make(ScalarField.spectral(f.grid, f.parity, f.data * 10.0)).empirical_constant
            assert abs(c1 - c0) <= 1e-10 * max(c0, 1e-300)
        for make in (lambda g: check_gn_2d(g, 4.0),
                     lambda g: check_interp_2d(g, 2.0, 4.0)):
            c0 = make(pf).empirical_constant
            c1 = make(PlanarField.spectral(pf.grid, pf.data * 10.0)).empirical_constant
            assert abs(c1 - c0) <= 1e-10 * max(c0, 1e-300)

    # refinement stability of the family max between N and 2N
    fine = Grid(2 * GRID.nx, 2 * GRID.ny, 2 * GRID.nz - 1)
    fine_rows = sweep_family(fine, spec)
    drift = {}
    for n in ratio_names:
        fine_max = max(rep.empirical_constant for _, rep in fine_rows if rep.name == n)
        drift[n] = abs(fine_max - base_max[n])
        assert drift[n] <= 0.1 * max(base_max[n], 1e-300)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    worst_drift = max(drift[n] / max(base_max[n], 1e-300) for n in ratio_names if base_max[n] > 0)
    _passline(9, f"100-field suite: minkowski <= 1+1e-10, poincare clean, constants "
                 f"finite/scale-invariant, refinement drift <= {worst_drift:.1e}, "
                 f"runtime {elapsed:.1f}s < 60s")


def test_criterion_10_criterion_accounting(tg_run, forced_run):
    assert tg_run.records[-1].criterion_accum == 0.0  # p is z-independent
    cfg, forced = forced_run
    accum = [r.criterion_accum for r in forced.records]
    assert all(a <= b + 1e-18 for a, b in zip(accum, accum[1:]))
    series = TimeSeries(np.array([r.t for r in forced.records]),
                        np.array([r.pz_norm for r in forced.records]))
    expected = time_lalpha(series, cfg.alpha) ** cfg.alpha
    assert abs(accum[-1] - expected) <= 1e-10 * max(1.0, expected)
    _passline(10, f"taylor-green criterion integral exactly 0; forced accumulator "
                  f"nondecreasing and equals time_lalpha^alpha (value {accum[-1]:.3e})")


def test_criterion_11_bound_monotonicity(forced_run):
    cfg, forced = forced_run
    norms = run_norms(forced.initial_state, forced.forcing, cfg.r)
    assert norms.v0_h1 == 0.0  # zero-init run, so the T=0 exponent is empty
    kr0 = kr(0.0, cfg, forced.records, norms)
    assert kr0 == 1.0 + norms.v0_h1**6
    horizons = [r.t for r in forced.records]
    krs = [kr(T, cfg, forced.records, norms) for T in horizons]
    k2s = [k2(T, cfg, forced.records, norms) for T in horizons]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(krs, krs[1:]))
    assert all(a <= b * (1 + 1e-12) for a, b in zip(k2s, k2s[1:]))
    bounds = compute_bounds(horizons[-1], cfg, forced.records, norms)
    rep = verdict(forced.records, bounds, cfg)
    assert rep.criterion_finite
    _passline(11, f"K_R, K_2 nondecreasing over {len(horizons)} horizons; "
                  f"K_R(0) = 1 + ||v0||_H1^6 exactly ({kr0})")


def test_criterion_12_checkpoint_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("CHANNELFLOW_THREADS", "1")
    cfg_text = ("nu = 1.0\ndt = 0.001\nt_end = 0.1\nnx = 32\nny = 32\nnz = 17\n"
                "init = taylor_green\nforcing = random\nforcing_amplitude = 0.5\n")
    full_cfg = tmp_path / "full.cfg"
    full_cfg.write_text(cfg_text)
    half_cfg = tmp_path / "half.cfg"
    half_cfg.write_text(cfg_text.replace("t_end = 0.1", "t_end = 0.05"))
    for name, cfg in (("full", full_cfg), ("half", half_cfg)):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == EXIT_OK
    assert main(["run", "--config", str(full_cfg), "--out", str(tmp_path / "resumed"),
                 "--restart", str(tmp_path / "half" / "final.ckpt")]) == EXIT_OK
    full = (tmp_path / "full" / "final.ckpt").read_bytes()
    resumed = (tmp_path / "resumed" / "final.ckpt").read_bytes()
    assert full == resumed
    _passline(12, "restart from checkpoint reproduces the trajectory bit-exactly "
                  f"({len(full)} bytes compared)")
