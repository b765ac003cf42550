"""Time integration of the channel Navier-Stokes system.

The unknowns are the horizontal velocity (v1, v2) (EvenZ), the vertical
velocity w (OddZ), and the pressure (EvenZ, zero-mean gauge), advanced on
the divergence-free subspace by an exact spectral Leray projection.

Two IMEX schemes are provided, both second order in time with the nonlinear
term and forcing handled by Adams-Bashforth-style extrapolation (one
nonlinear evaluation per step, self-starting first step):

* ``etdab2`` (default): exponential time differencing; diffusion is applied
  through the exact propagator exp(nu L dt) per mode and the explicit terms
  through the phi1/phi2 quadrature weights, so the scheme is exact for
  band-limited exact solutions of the unforced equations and for constant
  right-hand sides, with no stiff order reduction;
* ``cnab2``: classical Crank-Nicolson / Adams-Bashforth-2, kept for
  trajectories where a measurable O(dt^2) error signal is wanted.

Pressure never enters the update (the projection eliminates its gradient):
it is recovered diagnostically from the Poisson problem
-Lap p = div(N) - div(F).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .calculus import ddx, ddy, ddz, divergence, vertical_velocity
from .errors import BlowUpError, ConfigError, InvalidFieldError
from .fields import (
    Grid,
    Parity,
    ScalarField,
    dealias,
    random_band_limited,
    to_physical,
    to_spectral,
)
from .norms import l2_norm

#: a pressure field is an EvenZ ScalarField with zero (0,0,0) coefficient
PressureField = ScalarField

#: energy growth factor (relative to max(E0, 1)) treated as blow-up
BLOWUP_ENERGY_FACTOR = 1e6

#: relative distance of t_end/dt from an integer accepted as a whole step count
STEP_RTOL = 1e-9


# ---------------------------------------------------------------------------
# state and configuration types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VelocityState:
    """Spectral velocity snapshot (v1, v2 EvenZ; w OddZ) at time t.

    Valid states are discretely divergence-free (max spectral coefficient of
    div_h v + w_z below ~1e-11) with w equal to the vertical integral
    reconstruction from (v1, v2).
    """

    v1: ScalarField
    v2: ScalarField
    w: ScalarField
    t: float

    def __post_init__(self):
        if self.v1.parity is not Parity.EVEN_Z or self.v2.parity is not Parity.EVEN_Z:
            raise InvalidFieldError("v1, v2 must be EvenZ")
        if self.w.parity is not Parity.ODD_Z:
            raise InvalidFieldError("w must be OddZ")

    @property
    def grid(self) -> Grid:
        return self.v1.grid

    def divergence_inf(self) -> float:
        """Max spectral coefficient magnitude of div_h v + w_z."""
        return float(np.max(np.abs(divergence(self.v1, self.v2, self.w).data)))

    def energy(self) -> float:
        """||v||_2^2 + ||w||_2^2."""
        return l2_norm(self.v1) ** 2 + l2_norm(self.v2) ** 2 + l2_norm(self.w) ** 2

    def reconstruction_error(self) -> float:
        """L2 distance between w and its reconstruction from (v1, v2)."""
        w_rec = vertical_velocity(self.v1, self.v2, tol=np.inf)
        diff = ScalarField.spectral(self.grid, Parity.ODD_Z, self.w.data - w_rec.data)
        return l2_norm(diff)


@dataclass(frozen=True)
class ForcingSpec:
    """Time-independent momentum forcing (f1, f2 EvenZ; g OddZ), band-limited,
    with zero total mean on the horizontal components."""

    f1: ScalarField
    f2: ScalarField
    g: ScalarField

    @classmethod
    def zero(cls, grid: Grid) -> "ForcingSpec":
        return cls(
            ScalarField.zeros(grid, Parity.EVEN_Z),
            ScalarField.zeros(grid, Parity.EVEN_Z),
            ScalarField.zeros(grid, Parity.ODD_Z),
        )


@dataclass(frozen=True)
class InitRecipe:
    """Initial-state generator id plus parameters."""

    kind: str = "zero"
    amplitude: float = 1.0
    seed: int = 0

    KINDS = ("zero", "shear", "taylor_green", "random")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown init kind {self.kind!r}; choose from {self.KINDS}")


@dataclass(frozen=True)
class ForcingRecipe:
    """Forcing generator id plus parameters."""

    kind: str = "none"
    amplitude: float = 1.0
    seed: int = 0

    KINDS = ("none", "random", "steady_shear")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown forcing kind {self.kind!r}; choose from {self.KINDS}")


@dataclass(frozen=True)
class SolverConfig:
    """Validated run parameters.

    Constraint ranges follow the regularity setting: r in (3, 4), q > 1,
    alpha > 3; lambda1 is the Poincare constant of the mean-zero symmetric
    space (smallest eigenvalue pi^2, the cos(pi z) mode).
    """

    nu: float
    dt: float
    t_end: float
    grid: Grid
    init: InitRecipe
    forcing: ForcingRecipe = field(default_factory=ForcingRecipe)
    dealias: bool = True
    diag_every: int = 10
    lambda1: float = math.pi**2
    r: float = 3.5
    q: float = 2.0
    alpha: float = 4.0
    scheme: str = "etdab2"

    def __post_init__(self):
        checks = [
            (self.nu > 0, "nu", "must be > 0"),
            (self.dt > 0, "dt", "must be > 0"),
            (self.t_end >= 0, "t_end", "must be >= 0"),
            (self.diag_every >= 1, "diag_every", "must be >= 1"),
            (self.lambda1 > 0, "lambda1", "must be > 0"),
            (3.0 < self.r < 4.0, "r", "must lie in the open interval (3, 4)"),
            (self.q > 1.0, "q", "must be > 1"),
            (self.alpha > 3.0, "alpha", "must be > 3"),
            (self.scheme in ("etdab2", "cnab2"), "scheme", "must be 'etdab2' or 'cnab2'"),
        ]
        for ok, key, msg in checks:
            if not ok:
                raise ConfigError(f"{key} {msg} (got {getattr(self, key)!r})")
        steps = self.t_end / self.dt
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= STEP_RTOL * max(1.0, steps)):
            raise ConfigError(f"t_end must be a whole number of dt steps "
                              f"(got t_end={self.t_end!r}, dt={self.dt!r})")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


# ---------------------------------------------------------------------------
# exact solutions and generators
# ---------------------------------------------------------------------------

def exact_shear(grid: Grid, t: float, nu: float, amplitude: float = 1.0) -> VelocityState:
    """Decaying shear v = (a cos(pi z) e^{-nu pi^2 t}, 0), w = 0, p = const."""
    decay = amplitude * math.exp(-nu * math.pi**2 * t)
    v1 = ScalarField.from_modes(grid, Parity.EVEN_Z, {(0, 0, 1): decay})
    return VelocityState(v1, ScalarField.zeros(grid, Parity.EVEN_Z),
                         ScalarField.zeros(grid, Parity.ODD_Z), t)


def exact_taylor_green(grid: Grid, t: float, nu: float, amplitude: float = 1.0) -> VelocityState:
    """Two-dimensional Taylor-Green vortex, z-independent, w = 0."""
    decay = amplitude * math.exp(-8.0 * math.pi**2 * nu * t)
    v1 = to_spectral(ScalarField.from_function(
        grid, Parity.EVEN_Z,
        lambda x, y, z: decay * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0 * z))
    v2 = to_spectral(ScalarField.from_function(
        grid, Parity.EVEN_Z,
        lambda x, y, z: -decay * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y) + 0 * z))
    return VelocityState(v1, v2, ScalarField.zeros(grid, Parity.ODD_Z), t)


def taylor_green_pressure(grid: Grid, t: float, nu: float, amplitude: float = 1.0) -> PressureField:
    """Pressure of the Taylor-Green vortex in the zero-mean gauge.

    Verified by substitution into the momentum balance: with
    v = (sin 2pix cos 2piy, -cos 2pix sin 2piy) F the advection term equals
    -grad of p = (F^2/4)(cos 4pix + cos 4piy).
    """
    decay_sq = amplitude**2 * math.exp(-16.0 * math.pi**2 * nu * t)
    return to_spectral(ScalarField.from_function(
        grid, Parity.EVEN_Z,
        lambda x, y, z: 0.25 * decay_sq * (np.cos(4 * np.pi * x) + np.cos(4 * np.pi * y)) + 0 * z))


def random_divergence_free_state(grid: Grid, seed: int, amplitude: float = 1.0,
                                 t: float = 0.0, kmax: int | None = None,
                                 mmax: int | None = None) -> VelocityState:
    """Seeded band-limited divergence-free state with zero total momentum.

    Explicit mode caps pin the continuum function across grid refinements
    (the projection multipliers depend only on the mode indices).
    """
    rng = np.random.default_rng(seed)
    kmax = max(1, min(grid.nx, grid.ny) // 4) if kmax is None else kmax
    mmax = max(1, grid.nz // 3) if mmax is None else mmax
    v1 = random_band_limited(grid, Parity.EVEN_Z, rng, kmax, kmax, mmax)
    v2 = random_band_limited(grid, Parity.EVEN_Z, rng, kmax, kmax, mmax)
    w = random_band_limited(grid, Parity.ODD_Z, rng, kmax, kmax, mmax)
    d1, d2, dw = leray_project(v1.data, v2.data, w.data, grid)
    d1 = d1.copy()
    d2 = d2.copy()
    d1[0, 0, 0] = 0.0
    d2[0, 0, 0] = 0.0
    energy = sum(
        float(np.sum(np.abs(d) ** 2 * grid.l2_weights(p)[None, None, :]))
        for d, p in ((d1, Parity.EVEN_Z), (d2, Parity.EVEN_Z), (dw, Parity.ODD_Z))
    )
    scale = amplitude / math.sqrt(energy) if energy > 0 else 0.0
    return VelocityState(
        ScalarField.spectral(grid, Parity.EVEN_Z, d1 * scale),
        ScalarField.spectral(grid, Parity.EVEN_Z, d2 * scale),
        ScalarField.spectral(grid, Parity.ODD_Z, dw * scale),
        t,
    )


def make_initial_state(recipe: InitRecipe, grid: Grid, nu: float) -> VelocityState:
    if recipe.kind == "zero":
        return VelocityState(
            ScalarField.zeros(grid, Parity.EVEN_Z),
            ScalarField.zeros(grid, Parity.EVEN_Z),
            ScalarField.zeros(grid, Parity.ODD_Z), 0.0)
    if recipe.kind == "shear":
        return exact_shear(grid, 0.0, nu, recipe.amplitude)
    if recipe.kind == "taylor_green":
        return exact_taylor_green(grid, 0.0, nu, recipe.amplitude)
    return random_divergence_free_state(grid, recipe.seed, recipe.amplitude)


def make_forcing(recipe: ForcingRecipe, grid: Grid, nu: float = 1.0) -> ForcingSpec:
    """Materialize a forcing recipe: band-limited, zero-mean horizontal parts."""
    if recipe.kind == "none":
        return ForcingSpec.zero(grid)
    if recipe.kind == "steady_shear":
        # balances the shear profile: -nu (cos pi z)_zz = nu pi^2 cos(pi z)
        f1 = ScalarField.from_modes(grid, Parity.EVEN_Z,
                                    {(0, 0, 1): recipe.amplitude * nu * math.pi**2})
        return ForcingSpec(f1, ScalarField.zeros(grid, Parity.EVEN_Z),
                           ScalarField.zeros(grid, Parity.ODD_Z))
    rng = np.random.default_rng(recipe.seed)
    kmax = max(1, min(grid.nx, grid.ny) // 4)
    mmax = max(1, grid.nz // 3)
    f1 = random_band_limited(grid, Parity.EVEN_Z, rng, kmax, kmax, mmax)
    f2 = random_band_limited(grid, Parity.EVEN_Z, rng, kmax, kmax, mmax)
    g = random_band_limited(grid, Parity.ODD_Z, rng, kmax, kmax, mmax)
    a1, a2, ag = f1.data.copy(), f2.data.copy(), g.data.copy()
    a1[0, 0, 0] = 0.0
    a2[0, 0, 0] = 0.0
    total = math.sqrt(sum(
        float(np.sum(np.abs(d) ** 2 * grid.l2_weights(p)[None, None, :]))
        for d, p in ((a1, Parity.EVEN_Z), (a2, Parity.EVEN_Z), (ag, Parity.ODD_Z))))
    scale = recipe.amplitude / total if total > 0 else 0.0
    return ForcingSpec(
        ScalarField.spectral(grid, Parity.EVEN_Z, a1 * scale),
        ScalarField.spectral(grid, Parity.EVEN_Z, a2 * scale),
        ScalarField.spectral(grid, Parity.ODD_Z, ag * scale),
    )


# ---------------------------------------------------------------------------
# spatial operators of the scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Multipliers:
    """Per-grid spectral multipliers of the projection and the pressure
    Poisson solve; inverse symbols are 0 where the symbol vanishes."""

    ik1: np.ndarray
    ik2: np.ndarray
    kv: np.ndarray
    leray_inv: np.ndarray
    poisson_inv: np.ndarray


def _inverse(symbol: np.ndarray) -> np.ndarray:
    out = np.zeros(symbol.shape)
    np.divide(1.0, symbol, out=out, where=symbol > 0)
    return out


@lru_cache(maxsize=8)
def _multipliers(grid: Grid) -> _Multipliers:
    k1 = 2.0 * np.pi * grid.kx3
    k2 = 2.0 * np.pi * grid.ky3
    kv = np.pi * grid.m3.copy()
    kv[..., 0] = 0.0
    kv[..., -1] = 0.0
    return _Multipliers(
        ik1=1j * k1, ik2=1j * k2, kv=kv,
        leray_inv=_inverse(k1**2 + k2**2 + kv**2),
        poisson_inv=_inverse(grid.kh_sq + (np.pi * grid.m3) ** 2),
    )


def leray_project(v1: np.ndarray, v2: np.ndarray, w: np.ndarray,
                  grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthogonal projection onto discretely divergence-free fields.

    Per mode (kx, ky, m) the wavevector is (2 pi kx, 2 pi ky, m pi); on the
    planes m = 0 and m = nz-1, where no sine degree of freedom exists, the
    vertical component is absent and the projection acts horizontally (this
    is the barotropic constraint div_h vbar = 0 on the m = 0 plane).
    """
    mult = _multipliers(grid)
    # q = div / |k|^2, accumulated in place: fewer full-size temporaries
    # keep the stepping loop's peak memory down
    tmp = np.empty(v1.shape, np.complex128)
    q = mult.ik1 * v1
    q += np.multiply(mult.ik2, v2, out=tmp)
    q += np.multiply(mult.kv, w, out=tmp)
    q *= mult.leray_inv
    out1 = np.multiply(mult.ik1, q)
    out1 += v1
    out2 = np.multiply(mult.ik2, q)
    out2 += v2
    outw = np.subtract(w, np.multiply(mult.kv, q, out=tmp), out=tmp)
    return out1, out2, outw


def nonlinear(state: VelocityState, use_dealias: bool = True
              ) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Advective terms ((v.grad_h)v + w v_z,  v.grad_h w + w w_z).

    Pseudospectral evaluation: transform to physical, form pointwise
    products, transform back; products inherit the correct parities
    structurally (N1, N2 EvenZ; Nw OddZ).
    """
    grid = state.grid
    vel = (state.v1, state.v2, state.w)
    v1, v2, w = (to_physical(c).data for c in vel)
    out = []
    for c in vel:
        # (v1 c_x + v2 c_y) + w c_z, with one gradient field alive at a time
        n = v1 * to_physical(ddx(c)).data
        n += v2 * to_physical(ddy(c)).data
        n += w * to_physical(ddz(c)).data
        out.append(to_spectral(ScalarField.physical(grid, c.parity, n)))
    if use_dealias:
        out = [dealias(o) for o in out]
    return out[0], out[1], out[2]


def pressure_solve(state: VelocityState, forcing: ForcingSpec,
                   nl: tuple[ScalarField, ScalarField, ScalarField] | None = None
                   ) -> PressureField:
    """Diagnostic pressure: -Lap p = div(N) - div(F), zero-mean gauge.

    `nl` may pass a precomputed nonlinear term to avoid re-evaluation.
    """
    grid = state.grid
    if nl is None:
        nl = nonlinear(state)
    n1, n2, nw = nl
    src = ddx(n1).data + ddy(n2).data + ddz(nw).data
    src = src - (ddx(forcing.f1).data + ddy(forcing.f2).data + ddz(forcing.g).data)
    p = src * _multipliers(grid).poisson_inv
    p[0, 0, 0] = 0.0
    return ScalarField.spectral(grid, Parity.EVEN_Z, p)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepResult:
    """Outcome of one step: the advanced state, the pressure consistent with
    the *entering* state (the one the scheme evaluated), and the projected
    right-hand side at the entering time (Adams-Bashforth history)."""

    state: VelocityState
    pressure: PressureField
    rhs: tuple[np.ndarray, np.ndarray, np.ndarray]


def _phi1(z: np.ndarray) -> np.ndarray:
    """phi_1(z) = (e^z - 1)/z, the exponential-Euler weight."""
    zs = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, np.expm1(zs) / zs)


def _phi2(z: np.ndarray) -> np.ndarray:
    """phi_2(z) = (e^z - 1 - z)/z^2, with a series branch near 0."""
    small = np.abs(z) < 1e-3
    zs = np.where(small, 0.0, z)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = np.where(small, 0.0, (np.expm1(zs) - zs) / np.where(small, 1.0, zs**2))
    series = 0.5 + z / 6.0 + z**2 / 24.0 + z**3 / 120.0 + z**4 / 720.0
    return np.where(small, series, direct)


class Stepper:
    """Precomputed per-config stepping kernels (pure apart from caches)."""

    def __init__(self, config: SolverConfig, forcing: ForcingSpec):
        self.config = config
        self.forcing = forcing
        grid = config.grid
        lam = -(grid.kh_sq + (np.pi * grid.m3) ** 2)  # diffusion eigenvalues
        nudt = config.nu * config.dt
        if config.scheme == "etdab2":
            z = nudt * lam
            self.prop = np.exp(z)
            self.w_euler = config.dt * _phi1(z)
            phi2 = _phi2(z)
            self.w_now = config.dt * (_phi1(z) + phi2)
            self.w_prev = -config.dt * phi2
        else:  # cnab2
            self.cn_num = 1.0 + 0.5 * nudt * lam
            self.cn_den = 1.0 - 0.5 * nudt * lam
        pf = leray_project(forcing.f1.data, forcing.f2.data, forcing.g.data, grid)
        self.pforce = pf

    def rhs_at(self, state: VelocityState
               ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray],
                          tuple[ScalarField, ScalarField, ScalarField]]:
        """Projected explicit right-hand side P(-N + F) and the raw N."""
        nl = nonlinear(state, use_dealias=self.config.dealias)
        g1, g2, gw = leray_project(-nl[0].data, -nl[1].data, -nl[2].data, self.config.grid)
        return (g1 + self.pforce[0], g2 + self.pforce[1], gw + self.pforce[2]), nl

    def advance(self, state: VelocityState,
                rhs: tuple[np.ndarray, np.ndarray, np.ndarray],
                prev_rhs: tuple[np.ndarray, np.ndarray, np.ndarray] | None
                ) -> VelocityState:
        grid = self.config.grid
        dt = self.config.dt
        u = (state.v1.data, state.v2.data, state.w.data)
        new = []
        if self.config.scheme == "etdab2":
            for uc, gc, pc in zip(u, rhs, prev_rhs or (None,) * 3):
                if pc is None:
                    new.append(self.prop * uc + self.w_euler * gc)
                else:
                    new.append(self.prop * uc + self.w_now * gc + self.w_prev * pc)
        else:
            for uc, gc, pc in zip(u, rhs, prev_rhs or (None,) * 3):
                expl = dt * gc if pc is None else dt * (1.5 * gc - 0.5 * pc)
                new.append((self.cn_num * uc + expl) / self.cn_den)
        n1, n2, nw = leray_project(new[0], new[1], new[2], grid)
        for arr in (n1, n2, nw):
            if not np.all(np.isfinite(arr)):
                raise BlowUpError(state.t)
        return VelocityState(
            ScalarField.spectral(grid, Parity.EVEN_Z, n1),
            ScalarField.spectral(grid, Parity.EVEN_Z, n2),
            ScalarField.spectral(grid, Parity.ODD_Z, nw),
            state.t + dt,
        )

    def step(self, state: VelocityState,
             prev_rhs: tuple[np.ndarray, np.ndarray, np.ndarray] | None) -> StepResult:
        rhs, nl = self.rhs_at(state)
        pressure = pressure_solve(state, self.forcing, nl=nl)
        new_state = self.advance(state, rhs, prev_rhs)
        return StepResult(new_state, pressure, rhs)


@lru_cache(maxsize=8)
def _cached_stepper(config: SolverConfig) -> Stepper:
    return Stepper(config, make_forcing(config.forcing, config.grid, config.nu))


def step(state: VelocityState, config: SolverConfig,
         prev_nonlinear: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> StepResult:
    """Advance one IMEX step; prev_nonlinear carries the AB2 history (None
    triggers the self-starting first step)."""
    return _cached_stepper(config).step(state, prev_nonlinear)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Everything a run produces, including partial output after blow-up."""

    config: SolverConfig
    initial_state: VelocityState
    final_state: VelocityState
    records: list
    forcing: ForcingSpec
    blowup: bool = False
    last_valid_time: float = 0.0
    max_divergence: float = 0.0
    max_reconstruction_error: float = 0.0
    snapshots: list[VelocityState] | None = None
    final_rhs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def run(config: SolverConfig, keep_states: bool = False,
        restart: tuple[VelocityState, tuple | None] | None = None) -> RunResult:
    """Integrate to t_end (or blow-up), emitting diagnostics records.

    The horizon t_end is a whole number of steps (SolverConfig checks it).
    Records are taken at t = 0, every `diag_every` steps, and at the final
    time.  With `restart` the loop resumes from a
    checkpointed state and AB2 history, reproducing the uninterrupted
    trajectory bit-exactly at a fixed thread count.
    """
    from .monitor import RunMonitor

    grid = config.grid
    forcing = make_forcing(config.forcing, grid, config.nu)
    stepper = Stepper(config, forcing)
    if restart is not None:
        state, prev_rhs = restart
        if state.grid != grid:
            raise ConfigError("restart state grid does not match config grid")
    else:
        state = make_initial_state(config.init, grid, config.nu)
        if config.dealias:
            state = VelocityState(dealias(state.v1), dealias(state.v2), dealias(state.w), state.t)
        prev_rhs = None
    start_step = int(round(state.t / config.dt))
    n_steps = config.n_steps

    monitor = RunMonitor(config, forcing)
    snapshots: list[VelocityState] | None = [] if keep_states else None
    e0 = state.energy()
    e_cap = BLOWUP_ENERGY_FACTOR * max(e0, 1.0)
    result = RunResult(config, state, state, monitor.records, forcing,
                       snapshots=snapshots, last_valid_time=state.t)

    def observe(st: VelocityState, pressure: PressureField) -> None:
        monitor.observe(st, pressure)
        result.max_reconstruction_error = max(result.max_reconstruction_error,
                                              st.reconstruction_error())
        if snapshots is not None:
            snapshots.append(st)

    result.max_divergence = state.divergence_inf()
    k = start_step
    try:
        while k < n_steps:
            res = stepper.step(state, prev_rhs)
            if k % config.diag_every == 0:
                observe(state, res.pressure)
            state = res.state
            prev_rhs = res.rhs
            result.last_valid_time = state.t
            result.max_divergence = max(result.max_divergence, state.divergence_inf())
            if state.energy() > e_cap:
                raise BlowUpError(state.t, "energy exceeded blow-up threshold")
            k += 1
        final_nl = nonlinear(state, use_dealias=config.dealias)
        observe(state, pressure_solve(state, forcing, nl=final_nl))
        result.final_rhs = prev_rhs
    except BlowUpError as exc:
        result.blowup = True
        result.last_valid_time = exc.last_valid_time
    result.final_state = state
    result.records = monitor.finalize()
    return result
