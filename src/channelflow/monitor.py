"""Regularity-criterion engine: per-record diagnostics, a priori bound
constants, derivation identity checks, and the run verdict.

The monitored quantity is ||p_z||_{L^{2q}} accumulated as
int_0^t ||p_z||_{2q}^alpha ds (trapezoid on the record cadence); finiteness
of that integral with alpha > 3, q > 1 is the strong-solution criterion.
A record is built from its state and pressure and from the previous record,
which carries the integral and the energy-law residual up to it.
The bound constants are evaluated from their closed forms:

    K11    = (||f||^2 + ||g||^2) / (nu^2 lambda1^2) + ||v0||^2 + ||w0||^2
    K12(t) = (||f||^2 + ||g||^2) t / (nu lambda1)   + ||v0||^2 + ||w0||^2
    K_R    = exp(C T + K11 K12(T) + K11^{2/(r-2)} K12(T))
             * [1 + ||v0||_{H1}^6 + int_0^T ||p_z||_{2q}^r + ||f||_r^r T]
    K_2    = exp(C T + K11 (T + K12(T)) + K_R^{2/(r-3)} T)
             * [||v0||_{H1} + ||w0||_{H1} + ||f||_2^2 + ||g||_2^2]

with C the generic constant C_GENERIC = 1, which theory does not fix: the
K_R / K_2 checks are therefore informational, while the K11 energy bound is
sharp enough to assert outright.  `segment_bounds` is the one entry point
that picks the horizon and the start norms for a run's records.  Both
derivation checks share `_advection_sums` (the pairs of the advection)
and `_avg_nonlinear_rhs`.  Every depth-averaged product, both sides of
the identity check and the averaged right side of the baroclinic check,
goes through `depth_average_sums`: by Parseval in z the depth average of
a product is a weighted sum of products of (x, y) planes, so it needs
3/2 padding in x and y only and no z nodes, and the right side's advective
pairs fold into the advection's own.  Only the baroclinic check's
advection, a 3-D field in its residual, goes through `multiply_exact_sums`
on the 3/2-padded 3-D grid.  Each call samples every distinct factor once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .calculus import (
    PlanarField,
    ddx,
    ddy,
    ddz,
    depth_average_sums,
    fluctuation,
    laplacian_h,
    multiply_exact_sums,
    vertical_velocity,
)
from .errors import CoverageError, InvalidFieldError
from .fields import ScalarField, to_physical
from .norms import (
    baroclinic_lr,
    inner,
    lq_norm,
    lq_norm_vector,
    sq_l2_norm,
    velocity_norms,
)
from .solver import ForcingSpec, PressureField, SolverConfig, VelocityState

_EXP_OVERFLOW = 700.0
_Sums = list[list[tuple[ScalarField, ScalarField]]]  # one list of (f, g) pairs per product sum

#: the generic constant C in the K_R and K_2 exponents
C_GENERIC = 1.0


# ---------------------------------------------------------------------------
# per-sample diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time sample of all monitored norms and criterion accumulators.

    gradh_v, gradh_w, vz, wz are squared L2 norms; h1_v, h1_w are full H1
    norms; criterion_accum is int_0^t ||p_z||_{2q}^alpha ds.  It and the
    energy-law residual of the interval ending at t come from the previous
    record (0.0 on the first record of a segment).  The fields before
    forcing_power are the CSV columns in order (pz_norm is the pz_l2q
    column); the CSV writer and reader rely on that order.
    """

    t: float
    energy: float
    gradh_v: float
    gradh_w: float
    vz: float
    wz: float
    pz_norm: float
    vtilde_r: float
    h1_v: float
    h1_w: float
    criterion_accum: float
    energy_residual: float = 0.0
    forcing_power: float = 0.0

    CSV_COLUMNS = ("t", "energy", "gradh_v", "gradh_w", "vz", "wz", "pz_l2q",
                   "vtilde_r", "h1_v", "h1_w", "criterion_accum", "energy_residual")

    def csv_values(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in fields(self)[:len(self.CSV_COLUMNS)])

    @property
    def grad_sum(self) -> float:
        return self.gradh_v + self.gradh_w + self.vz + self.wz


def record(state: VelocityState, p: PressureField, config: SolverConfig,
           forcing: ForcingSpec,
           prev: DiagnosticsRecord | None = None) -> DiagnosticsRecord:
    """Compute one diagnostics record under the run's `forcing` (``ForcingSpec.zero`` if none).

    The criterion integral and the energy-law residual extend those of
    `prev`, the segment's previous record, over the interval since it; with
    no `prev` both are 0.0.
    """
    v1, v2, w = state.v1, state.v2, state.w
    pz_norm = lq_norm(to_physical(ddz(p)), 2.0 * config.q)
    fpow = inner(forcing.f1, v1) + inner(forcing.f2, v2) + inner(forcing.g, w)
    criterion = 0.0 if prev is None else prev.criterion_accum + 0.5 * (state.t - prev.t) * (
        _guarded_pow(pz_norm, config.alpha) + _guarded_pow(prev.pz_norm, config.alpha))
    rec = DiagnosticsRecord(
        t=state.t,
        pz_norm=pz_norm,
        vtilde_r=baroclinic_lr(v1, v2, config.r),
        criterion_accum=criterion,
        **velocity_norms(v1, v2, w),
        forcing_power=fpow,
    )
    if prev is None:
        return rec
    return replace(rec, energy_residual=_interval_residual(prev, rec, config.nu))


class RunMonitor:
    """Accumulates records along a run; consumed by solver.run."""

    def __init__(self, config: SolverConfig, forcing: ForcingSpec):
        self.config = config
        self.forcing = forcing
        self.records: list[DiagnosticsRecord] = []

    def observe(self, state: VelocityState, pressure: PressureField) -> None:
        prev = self.records[-1] if self.records else None
        self.records.append(record(state, pressure, self.config, self.forcing, prev))

    def finalize(self) -> list[DiagnosticsRecord]:
        """The records taken; each is complete when it is taken."""
        return self.records


# ---------------------------------------------------------------------------
# bound constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunNorms:
    """Norms of the initial data and forcing entering the bound formulas.

    The formulas use ||v0||^2 + ||w0||^2 and ||f||^2 + ||g||^2 only as
    sums, so those are stored whole.
    """

    u0_l2_sq: float
    v0_h1: float
    w0_h1: float
    forcing_l2_sq: float
    f_lr: float


def _forcing_norms(forcing: ForcingSpec, r: float) -> tuple[float, float]:
    """(||f||^2 + ||g||^2, ||f||_r) of a forcing."""
    return (sum(sq_l2_norm(c.data, c.grid, c.parity)
                for c in (forcing.f1, forcing.f2, forcing.g)),
            lq_norm_vector((to_physical(forcing.f1), to_physical(forcing.f2)), r))


def run_norms(init_state: VelocityState, forcing: ForcingSpec, r: float) -> RunNorms:
    """Bound-formula norms of a run started from `init_state`: the start
    norms are those a record of it holds (:func:`norms.velocity_norms`)."""
    start = velocity_norms(init_state.v1, init_state.v2, init_state.w)
    return RunNorms(start["energy"], start["h1_v"], start["h1_w"], *_forcing_norms(forcing, r))


def k11(config: SolverConfig, norms: RunNorms) -> float:
    """Energy bound: sup_t (||v||^2 + ||w||^2) <= K11."""
    return norms.forcing_l2_sq / (config.nu**2 * config.lambda1**2) + norms.u0_l2_sq


def k12(t: float, config: SolverConfig, norms: RunNorms) -> float:
    """Dissipation-integral bound: nu int_0^t ||grad u||^2 <= K12(t)."""
    return norms.forcing_l2_sq * t / (config.nu * config.lambda1) + norms.u0_l2_sq


def _pz_power_integral(T: float, records: list[DiagnosticsRecord], power: float) -> float:
    """Trapezoid of ||p_z||_{2q}^power over a horizon of length T.

    The window starts at the first record time (zero for a fresh run, the
    resume time for a restarted segment); the records must cover it.
    """
    if not records:
        raise CoverageError("no records available")
    times = np.array([r.t for r in records])
    with np.errstate(over="ignore"):  # saturates to inf, as _guarded_pow does
        vals = np.array([r.pz_norm for r in records]) ** power
    t_hi = times[0] + T
    tol = 1e-9 * max(1.0, abs(t_hi))
    if times[-1] < t_hi - tol:
        raise CoverageError(
            f"records cover [{times[0]}, {times[-1]}], requested horizon {T}")
    if T <= 0:
        return 0.0
    keep = times <= t_hi + tol
    t_kept, v_kept = times[keep], vals[keep]
    if t_kept[-1] < t_hi - tol:
        # partial last interval by linear interpolation of the integrand
        v_at_T = float(np.interp(t_hi, times, vals))
        t_kept = np.append(t_kept, t_hi)
        v_kept = np.append(v_kept, v_at_T)
    return float(np.trapezoid(v_kept, t_kept))


def _guarded_exp(x: float) -> float:
    return math.inf if x > _EXP_OVERFLOW else math.exp(x)


def _guarded_pow(base: float, power: float) -> float:
    """base**power for base >= 0, saturating to inf instead of overflowing."""
    if base == 0.0:
        return 0.0
    if not math.isfinite(base):
        return math.inf
    if power * math.log(base) > _EXP_OVERFLOW:
        return math.inf
    return base**power


def kr(T: float, config: SolverConfig, records: list[DiagnosticsRecord],
       norms: RunNorms) -> float:
    """Gronwall bound on ||vtilde||_r^r, evaluated as printed.

    Note the integrand exponent is r (not the criterion's alpha), and the
    exponent carries K12(T), which is nonzero at T = 0 for nonzero initial
    data; both follow the printed formula.
    """
    K11 = k11(config, norms)
    K12T = k12(T, config, norms)
    expo = C_GENERIC * T + K11 * K12T + _guarded_pow(K11, 2.0 / (config.r - 2.0)) * K12T
    bracket = (1.0 + _guarded_pow(norms.v0_h1, 6) + _pz_power_integral(T, records, config.r)
               + _guarded_pow(norms.f_lr, config.r) * T)
    return _guarded_exp(expo) * bracket


def k2(T: float, config: SolverConfig, records: list[DiagnosticsRecord],
       norms: RunNorms) -> float:
    """Gronwall bound on the H1 seminorm sum, evaluated as printed."""
    K11 = k11(config, norms)
    K12T = k12(T, config, norms)
    KR = kr(T, config, records, norms)
    bracket = norms.v0_h1 + norms.w0_h1 + norms.forcing_l2_sq
    if bracket == 0.0:
        return 0.0
    if not math.isfinite(KR):
        return math.inf
    kr_term = 0.0 if T == 0.0 else _guarded_pow(KR, 2.0 / (config.r - 3.0)) * T
    expo = C_GENERIC * T + K11 * (T + K12T) + kr_term
    return _guarded_exp(expo) * bracket


@dataclass(frozen=True)
class BoundConstants:
    """Evaluated bound constants for a run horizon T."""

    T: float
    k11: float
    kr: float
    k2: float


def compute_bounds(T: float, config: SolverConfig, records: list[DiagnosticsRecord],
                   norms: RunNorms) -> BoundConstants:
    return BoundConstants(T=T, k11=k11(config, norms), kr=kr(T, config, records, norms),
                          k2=k2(T, config, records, norms))


def segment_bounds(config: SolverConfig, records: list[DiagnosticsRecord],
                   forcing: ForcingSpec) -> BoundConstants:
    """Bounds over the records' own span, from the first record's norms.

    The start norms are the first record's (energy, h1_v, h1_w), so a run
    and a report re-rendered from its CSV (written with repr, hence exact)
    use the same numbers, and a restarted segment uses its own start state
    and horizon (the Gronwall bounds apply on any subinterval).
    """
    first = records[0]
    forcing_sq, f_lr = _forcing_norms(forcing, config.r)
    norms = RunNorms(first.energy, first.h1_v, first.h1_w, forcing_sq, f_lr)
    return compute_bounds(records[-1].t - first.t, config, records, norms)


# ---------------------------------------------------------------------------
# energy-law residual
# ---------------------------------------------------------------------------

def _interval_residual(a: DiagnosticsRecord, b: DiagnosticsRecord, nu: float) -> float:
    """Energy-law residual of the record interval from a to b."""
    return ((b.energy - a.energy) / (b.t - a.t)) / 2.0 + nu * 0.5 * (a.grad_sum + b.grad_sum) \
        - 0.5 * (a.forcing_power + b.forcing_power)


def energy_residual(records: list[DiagnosticsRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Discrete residual of the energy law per record interval, as each
    record holds it (:func:`record`, or the CSV's energy_residual column).

    residual = dE/dt / 2 + nu * sum of squared gradient norms - <(f,g),(v,w)>
    with the derivative as a difference quotient and the other terms
    averaged over the interval endpoints; second order in the record
    spacing.  Returns (interval midpoints, residuals).
    """
    return (np.array([0.5 * (a.t + b.t) for a, b in zip(records, records[1:])]),
            np.array([b.energy_residual for b in records[1:]]))


# ---------------------------------------------------------------------------
# derivation identity checks
# ---------------------------------------------------------------------------

def _advection_sums(v1: ScalarField, v2: ScalarField, w: ScalarField) -> _Sums:
    """The pairs of (v.grad_h)v_j + w dz v_j for j = 1, 2."""
    return [[(v1, ddx(vj)), (v2, ddy(vj)), (w, ddz(vj))] for vj in (v1, v2)]


def _avg_nonlinear_rhs(v1: ScalarField, v2: ScalarField, advection: _Sums) -> _Sums:
    """The pairs whose depth averages are (vbar.grad_h)vbar_j + the average of
    (vtilde.grad_h)vtilde_j + (div_h vtilde) vtilde_j, j = 1, 2.  By Parseval
    in z (vbar is plane m = 0, vtilde the planes m >= 1) the advective pairs
    fold into (v.grad_h)v_j, the horizontal pairs of `advection`, reused as
    they are, and (div_h vtilde) vtilde_j averages as (div_h vtilde) v_j."""
    div_t = fluctuation(ScalarField.spectral(v1.grid, v1.parity, ddx(v1).data + ddy(v2).data))
    return [pairs[:2] + [(div_t, vj)] for pairs, vj in zip(advection, (v1, v2))]


def check_identity_avg_nonlinear(state: VelocityState) -> float:
    """L2(M) discrepancy of the averaged-nonlinearity identity.

    Left side: depth average of (v.grad_h)v - (int_0^z div_h v) v_z; right
    side: (vbar.grad_h)vbar + average of the baroclinic self-interaction
    (:func:`_avg_nonlinear_rhs`).  The two sides are four sums of one
    :func:`depth_average_sums` call (10 distinct factors, each sampled once)
    and agree to roundoff for divergence-free states.
    """
    v1, v2 = state.v1, state.v2
    advection = _advection_sums(v1, v2, vertical_velocity(v1, v2))
    lhs1, lhs2, rhs1, rhs2 = depth_average_sums(advection + _avg_nonlinear_rhs(v1, v2, advection))
    return math.sqrt(sq_l2_norm(lhs1.data - rhs1.data, state.grid, PlanarField.parity)
                     + sq_l2_norm(lhs2.data - rhs2.data, state.grid, PlanarField.parity))


def check_baroclinic_residual(prev_state: VelocityState, state: VelocityState,
                              next_state: VelocityState, p: PressureField,
                              forcing: ForcingSpec, nu: float) -> float:
    """L2 residual of the baroclinic momentum equation at the middle state.

    The time derivative is the centered difference of the neighbouring
    snapshots; every other term is evaluated spectrally (alias-free
    products), so the residual is O(record spacing^2) plus scheme error.
    Its advection is that of v, w from vtilde, less the averaged right side.
    """
    times = [s.t for s in (prev_state, state, next_state)]
    if not times[0] < times[1] < times[2]:
        raise InvalidFieldError(f"snapshot times {times} do not increase")
    grids = [f.grid for f in (prev_state, state, next_state, p, forcing.f1)]
    if len(set(grids)) > 1:
        raise InvalidFieldError(f"prev_state, state, next_state, p, forcing on grids {grids}")
    grid = state.grid
    v1, v2 = state.v1, state.v2
    tv1, tv2 = fluctuation(v1), fluctuation(v2)
    sums = _advection_sums(v1, v2, vertical_velocity(tv1, tv2))
    advection = multiply_exact_sums(sums)
    rhs_avg = depth_average_sums(_avg_nonlinear_rhs(v1, v2, sums))
    p_t = fluctuation(p)
    total_sq = 0.0
    for j, (tvj, d) in enumerate(((tv1, ddx), (tv2, ddy))):
        dvj = (next_state.v1, next_state.v2)[j].data - (prev_state.v1, prev_state.v2)[j].data
        dt_tvj = fluctuation(ScalarField.spectral(grid, v1.parity, dvj / (times[2] - times[0])))
        diffusion = laplacian_h(tvj).data + ddz(ddz(tvj)).data
        residual = dt_tvj.data - nu * diffusion + advection[j].data \
            + d(p_t).data - fluctuation((forcing.f1, forcing.f2)[j]).data
        residual[:, :, 0] -= rhs_avg[j].data  # the averaged right side is z-constant
        total_sq += sq_l2_norm(residual, grid, v1.parity)
    return math.sqrt(total_sq)


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriterionReport:
    """Summary verdict of a run against the regularity criterion and bounds."""

    t_final: float
    alpha: float
    q: float
    r: float
    criterion_integral: float
    criterion_finite: bool
    r_integral: float
    energy_bound_held: bool
    energy_max_ratio: float
    k11: float
    vtilde_bound_held: bool
    kr: float
    h1_bound_held: bool
    k2: float
    blowup: bool
    last_valid_time: float

    def to_text(self) -> str:
        lines = [
            "criterion report",
            "================",
            f"final time                      : {self.t_final:.6g}",
            f"criterion integral (alpha={self.alpha:g})   : {self.criterion_integral:.6e}"
            f"  finite: {self.criterion_finite}",
            f"companion integral (power r={self.r:g}) : {self.r_integral:.6e}",
            f"energy bound  E(t) <= K11       : {'HELD' if self.energy_bound_held else 'VIOLATED'}"
            f"  (K11={self.k11:.6e}, max E/K11={self.energy_max_ratio:.3f})",
            f"baroclinic ||vtilde||_r^r <= K_R: "
            f"{'held' if self.vtilde_bound_held else 'exceeded'} (informational, K_R={self.kr:.6e})",
            f"H1 seminorm sum <= K_2          : "
            f"{'held' if self.h1_bound_held else 'exceeded'} (informational, K_2={self.k2:.6e})",
            f"blow-up                         : {self.blowup}"
            + (f" (last valid time {self.last_valid_time:.6g})" if self.blowup else ""),
            "",
            "key-value block",
            "---------------",
        ]
        lines += [f"{k} = {v!r}" for k, v in self.to_kv().items()]
        return "\n".join(lines) + "\n"

    def to_kv(self) -> dict:
        return asdict(self)


def verdict(records: list[DiagnosticsRecord], bounds: BoundConstants,
            config: SolverConfig, blowup: bool = False,
            last_valid_time: float | None = None) -> CriterionReport:
    """Evaluate the criterion accounting and bound checks over a run.

    The K11 energy bound is a hard check; the K_R and K_2 comparisons are
    informational because their generic constant C is not fixed by theory.
    """
    if not records:
        raise CoverageError("verdict requires at least one record")
    t_final = records[-1].t
    criterion_integral = records[-1].criterion_accum
    r_integral = _pz_power_integral(t_final - records[0].t, records, config.r)
    energies = np.array([r.energy for r in records])
    ratio = float(np.max(energies) / bounds.k11) if bounds.k11 > 0 else (
        0.0 if float(np.max(energies)) == 0.0 else math.inf)
    vt = np.array([r.vtilde_r for r in records]) ** config.r
    h1s = np.array([r.grad_sum for r in records])
    return CriterionReport(
        t_final=t_final,
        alpha=config.alpha,
        q=config.q,
        r=config.r,
        criterion_integral=criterion_integral,
        criterion_finite=bool(np.isfinite(criterion_integral)),
        r_integral=r_integral,
        energy_bound_held=bool(ratio <= 1.0 + 1e-12),
        energy_max_ratio=ratio,
        k11=bounds.k11,
        vtilde_bound_held=bool(np.all(vt <= bounds.kr)),
        kr=bounds.kr,
        h1_bound_held=bool(np.all(h1s <= bounds.k2)),
        k2=bounds.k2,
        blowup=blowup,
        last_valid_time=t_final if last_valid_time is None else last_valid_time,
    )
