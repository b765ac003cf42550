"""Time integration of the channel Navier-Stokes system.

The unknowns are the horizontal velocity (v1, v2) (EvenZ), the vertical
velocity w (OddZ), and the pressure (EvenZ, zero-mean gauge), advanced on
the divergence-free subspace by an exact spectral Leray projection.

Two IMEX schemes are provided, both second order in time with the nonlinear
term and forcing handled by Adams-Bashforth-style extrapolation (one
nonlinear evaluation per step, self-starting first step).  Both are the
same per-mode linear update of the projected right-hand side g,

    u' = prop * u + w_now * g + w_prev * g_prev   (w_euler * g on the first step),

and differ only in the coefficient arrays, built once per config:

* ``etdab2`` (default): exponential time differencing; prop = exp(nu L dt)
  is the exact diffusion propagator per mode and the weights are the
  phi1/phi2 quadrature weights, so the scheme is exact for band-limited
  exact solutions of the unforced equations and for constant right-hand
  sides, with no stiff order reduction;
* ``cnab2``: classical Crank-Nicolson / Adams-Bashforth-2, with
  den = 1 - nu dt L / 2, prop = (1 + nu dt L / 2) / den, w_euler = dt / den,
  w_now = 1.5 dt / den, w_prev = -0.5 dt / den; kept for trajectories where
  a measurable O(dt^2) error signal is wanted.

Pressure never enters the update (the projection eliminates its gradient):
it is recovered diagnostically from the Poisson problem
-Lap p = div(N) - div(F).

The update runs on the stepper's band (``fields.Band``): with dealiasing
on, every spectrum it updates lies in the 2/3-rule box, about 30% of the
stored half, so the coefficient arrays, the projected forcing, both
projections of a step and its blow-up test, one energy sum, cover that box
only.  The AB2 history stays a band array from step to step; the new state
is scattered back to full half spectra, and ``run`` scatters the history
once, for the checkpoint.  With dealiasing off the band is the whole half
spectrum.  Every Leray projection runs on a band, so a dealiased run
builds no full-size projection array.  A seeded state or forcing, like an
inequality family field, is drawn (and projected) on the box of its draw,
scaled there by the norms' L2 rule (:func:`scatter_scaled`), then scattered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .calculus import ddx, ddy, ddz, divergence
from .errors import BlowUpError, ConfigError, InvalidFieldError
from .fields import (
    SPECTRAL,
    Band,
    Grid,
    Parity,
    ScalarField,
    dealias,
    random_band_coefficients,
    to_physical,
    to_spectral,
)
from .norms import sq_l2_norm

#: a pressure field is an EvenZ ScalarField with zero (0,0,0) coefficient
PressureField = ScalarField

#: energy growth factor (relative to max(E0, 1)) treated as blow-up
BLOWUP_ENERGY_FACTOR = 1e6

#: relative distance of t_end/dt from an integer accepted as a whole step count
STEP_RTOL = 1e-9


def whole_steps(key: str, span: float, dt: float) -> int:
    """The number of dt steps in `span`, which must be a whole number of
    them up to STEP_RTOL; otherwise a ConfigError naming `key` and dt."""
    steps = span / dt
    if not (math.isfinite(steps) and abs(steps - round(steps)) <= STEP_RTOL * max(1.0, steps)):
        raise ConfigError(f"{key} must be a whole number of dt steps "
                          f"(got {key}={span!r}, dt={dt!r})")
    return int(round(steps))


# ---------------------------------------------------------------------------
# state and configuration types
# ---------------------------------------------------------------------------

_TRIPLE_PARITIES = (Parity.EVEN_Z, Parity.EVEN_Z, Parity.ODD_Z)


def _require_triple(what: str, components: tuple[ScalarField, ...]) -> None:
    """InvalidFieldError naming `what` unless its three components are
    (EvenZ, EvenZ, OddZ) and on one grid; RepresentationError unless they
    are spectral."""
    for c in components:
        c.require(SPECTRAL)
    parities = tuple(c.parity for c in components)
    if parities != _TRIPLE_PARITIES:
        raise InvalidFieldError(f"{what} components must be (EvenZ, EvenZ, OddZ) "
                                f"(got {tuple(p.name for p in parities)})")
    grids = [c.grid for c in components]
    if not grids[0] == grids[1] == grids[2]:
        raise InvalidFieldError(f"{what} components on grids {grids}")


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
        _require_triple("velocity", (self.v1, self.v2, self.w))

    @property
    def grid(self) -> Grid:
        return self.v1.grid

    def divergence_inf(self) -> float:
        """Max spectral coefficient magnitude of div_h v + w_z."""
        return float(np.max(np.abs(divergence(self.v1, self.v2, self.w).data)))

    def energy(self) -> float:
        """||v||_2^2 + ||w||_2^2, as a diagnostics record holds it."""
        return sum(sq_l2_norm(c.data, c.grid, c.parity) for c in (self.v1, self.v2, self.w))

    def reconstruction_error(self) -> float:
        """L2 distance between w and its reconstruction w_rec from (v1, v2)
        (:func:`calculus.vertical_velocity`, unchecked) as ||div / kz||: w - w_rec
        = (div_h v + kz w) / kz where kz != 0, and both are 0 on m = 0, nz-1."""
        return _reconstruction_error(divergence(self.v1, self.v2, self.w).data, self.grid)

    def divergence_errors(self) -> tuple[float, float]:
        """(:meth:`divergence_inf`, :meth:`reconstruction_error`), bit for
        bit, from one divergence: a run's checks of each record."""
        d = divergence(self.v1, self.v2, self.w).data
        return float(np.max(np.abs(d))), _reconstruction_error(d, self.grid)


def _reconstruction_error(div: np.ndarray, grid: Grid) -> float:
    """||div / kz|| over the OddZ weights, from the divergence's coefficients."""
    return math.sqrt(sq_l2_norm(div * grid.kz_inv, grid, Parity.ODD_Z))


@dataclass(frozen=True)
class ForcingSpec:
    """Time-independent momentum forcing (f1, f2 EvenZ; g OddZ), band-limited,
    with zero total mean on the horizontal components."""

    f1: ScalarField
    f2: ScalarField
    g: ScalarField

    def __post_init__(self):
        _require_triple("forcing", (self.f1, self.f2, self.g))

    @classmethod
    def zero(cls, grid: Grid) -> "ForcingSpec":
        return cls(
            ScalarField.zeros(grid, Parity.EVEN_Z),
            ScalarField.zeros(grid, Parity.EVEN_Z),
            ScalarField.zeros(grid, Parity.ODD_Z),
        )

    @cached_property
    def divergence_data(self) -> np.ndarray:
        """Spectral div F, computed once per forcing (read-only)."""
        return divergence(self.f1, self.f2, self.g).data


def _check_recipe(prefix: str, amplitude: float, seed: int) -> None:
    """A recipe's amplitude must be finite and its seed a usable rng seed;
    the error names the config key (``<prefix>_amplitude``/``<prefix>_seed``)."""
    if not math.isfinite(amplitude):
        raise ConfigError(f"{prefix}_amplitude must be finite (got {amplitude!r})")
    if not seed >= 0:
        raise ConfigError(f"{prefix}_seed must be >= 0 (got {seed!r})")


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
        _check_recipe("init", self.amplitude, self.seed)


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
        _check_recipe("forcing", self.amplitude, self.seed)


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
        for key in ("nu", "dt", "t_end", "lambda1", "r", "q", "alpha"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite (got {getattr(self, key)!r})")
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
        whole_steps("t_end", self.t_end, self.dt)

    @property
    def n_steps(self) -> int:
        return whole_steps("t_end", self.t_end, self.dt)


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


def _random_band_triple(grid: Grid, rng: np.random.Generator, kmax: int | None = None,
                        mmax: int | None = None) -> tuple[Band, tuple[np.ndarray, ...]]:
    """The box of the draw (|kx|, ky <= kmax, m <= mmax) and, on it, three
    band-limited fields (EvenZ, EvenZ, OddZ) drawn in that order; the caps
    default to a quarter of the horizontal and a third of the vertical
    resolution."""
    kmax = max(1, min(grid.nx, grid.ny) // 4) if kmax is None else kmax
    mmax = max(1, grid.nz // 3) if mmax is None else mmax
    box = grid.box(kmax, kmax, mmax)
    return box, tuple(random_band_coefficients(grid, p, rng, kmax, kmax, mmax)
                      for p in _TRIPLE_PARITIES)


def scatter_scaled(grid: Grid, box: Band, drawn: tuple[np.ndarray, ...],
                   parities: tuple[Parity, ...], amplitude: float) -> list[np.ndarray]:
    """The compact arrays `drawn` of `box`, of `parities` (a 2-D array is a
    planar spectrum, EVEN_Z), scaled in place to total L2 norm `amplitude`
    (0 stays 0) and each scattered once.  The norm is the norms' L2 rule
    (``norms.sq_l2_norm``) on the box."""
    energy = sum(sq_l2_norm(d, grid, p) for d, p in zip(drawn, parities))
    scale = amplitude / math.sqrt(energy) if energy > 0 else 0.0
    return [box.scatter(np.multiply(d, scale, out=d)) for d in drawn]


def _zero_mean_scaled(grid: Grid, box: Band, drawn: tuple[np.ndarray, ...],
                      amplitude: float) -> tuple[ScalarField, ...]:
    """(EvenZ, EvenZ, OddZ) fields from the arrays `drawn` of `box`, the means
    of the first two zeroed, by :func:`scatter_scaled` to norm `amplitude`."""
    drawn[0][0, 0, 0] = drawn[1][0, 0, 0] = 0.0
    return tuple(ScalarField.spectral(grid, p, s) for p, s in zip(
        _TRIPLE_PARITIES, scatter_scaled(grid, box, drawn, _TRIPLE_PARITIES, amplitude)))


def random_divergence_free_state(grid: Grid, seed: int, amplitude: float = 1.0,
                                 kmax: int | None = None,
                                 mmax: int | None = None) -> VelocityState:
    """Seeded band-limited divergence-free state at t = 0 with zero total
    momentum.

    Explicit mode caps pin the continuum function across grid refinements
    (the projection multipliers depend only on the mode indices).  The
    draw, its projection and its scaling stay on the box of the draw,
    which holds every drawn mode.
    """
    box, drawn = _random_band_triple(grid, np.random.default_rng(seed), kmax, mmax)
    leray_project(*drawn, box, out=drawn)
    return VelocityState(*_zero_mean_scaled(grid, box, drawn, amplitude), 0.0)


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


def make_forcing(recipe: ForcingRecipe, grid: Grid, nu: float) -> ForcingSpec:
    """Materialize a forcing recipe at viscosity `nu`: band-limited, zero-mean horizontal parts."""
    if recipe.kind == "none":
        return ForcingSpec.zero(grid)
    if recipe.kind == "steady_shear":
        # balances the shear profile: -nu (cos pi z)_zz = nu pi^2 cos(pi z)
        f1 = ScalarField.from_modes(grid, Parity.EVEN_Z,
                                    {(0, 0, 1): recipe.amplitude * nu * math.pi**2})
        return ForcingSpec(f1, ScalarField.zeros(grid, Parity.EVEN_Z),
                           ScalarField.zeros(grid, Parity.ODD_Z))
    box, drawn = _random_band_triple(grid, np.random.default_rng(recipe.seed))
    return ForcingSpec(*_zero_mean_scaled(grid, box, drawn, recipe.amplitude))


# ---------------------------------------------------------------------------
# spatial operators of the scheme
# ---------------------------------------------------------------------------

def leray_project(v1: np.ndarray, v2: np.ndarray, w: np.ndarray, band: Band,
                  out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthogonal projection onto discretely divergence-free fields, of the
    compact arrays of a :class:`fields.Band` (``band.gather`` of half
    spectra; for :attr:`Grid.whole_band`, the half spectra themselves).

    Per mode (kx, ky, m) the wavevector is that of the first-derivative
    symbols :attr:`Grid.ikx`, :attr:`Grid.iky` and :attr:`Grid.kz`, which
    are 0 on the Nyquist lines and on the planes m = 0 and m = nz-1.  On
    those two planes no sine degree of freedom exists, the vertical
    component is absent and the projection acts horizontally (this is the
    barotropic constraint div_h vbar = 0 on the m = 0 plane).  The band
    carries these symbols and its ``leray_inv`` on its box, so each mode
    gets the same bits in every band that holds it.

    The result goes into new arrays, or into the writable arrays `out`,
    which may be the inputs themselves: the projection is then in place,
    with the same bits, and allocates two scratch arrays only.
    """
    # q = div / |k|^2, accumulated in place: fewer full-size temporaries
    # keep the stepping loop's peak memory down
    tmp = np.empty(v1.shape, np.complex128)
    q = band.ikx * v1
    q += np.multiply(band.iky, v2, out=tmp)
    q += np.multiply(band.kz, w, out=tmp)
    q *= band.leray_inv
    out1, out2, outw = (None, None, tmp) if out is None else out
    out1 = np.add(v1, np.multiply(band.ikx, q, out=tmp), out=out1)
    out2 = np.add(v2, np.multiply(band.iky, q, out=tmp), out=out2)
    outw = np.subtract(w, np.multiply(band.kz, q, out=tmp), out=outw)
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
        del n
        if use_dealias:  # as produced, so no undealiased spectrum piles up
            out[-1] = dealias(out[-1])
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
    p = divergence(*nl).data - forcing.divergence_data
    p *= grid.poisson_inv
    p[0, 0, 0] = 0.0
    return ScalarField.spectral(grid, Parity.EVEN_Z, p)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepResult:
    """Outcome of one step: the advanced state, the pressure consistent with
    the *entering* state (the one the scheme evaluated), and the projected
    right-hand side at the entering time (Adams-Bashforth history), three
    read-only compact arrays of the stepper's band (``band.shape``); and
    the advanced state's energy, summed on the band."""

    state: VelocityState
    pressure: PressureField
    rhs: tuple[np.ndarray, np.ndarray, np.ndarray]
    energy: float


def _phi1(z: np.ndarray) -> np.ndarray:
    """phi_1(z) = (e^z - 1)/z, the exponential-Euler weight."""
    zs = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, np.expm1(zs) / zs)


def _phi2(z: np.ndarray) -> np.ndarray:
    """phi_2(z) = (e^z - 1 - z)/z^2, with a series branch near 0.

    The series is evaluated on the |z| < 1e-3 entries only: its powers go
    through libm ``pow``, which is slow on negative bases.
    """
    small = np.abs(z) < 1e-3
    zs = np.where(small, 0.0, z)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(small, 0.0, (np.expm1(zs) - zs) / np.where(small, 1.0, zs**2))
    zn = z[small]
    out[small] = 0.5 + zn / 6.0 + zn**2 / 24.0 + zn**3 / 120.0 + zn**4 / 720.0
    return out


class Stepper:
    """Precomputed per-config stepping kernels on the config's band.

    The band is the grid's 2/3-rule box (:attr:`Grid.band`) when the
    config dealiases and the whole half spectrum otherwise.  The
    coefficient arrays (prop, w_euler, w_now, w_prev) and the projected
    forcing `pforce` are compact band arrays, built once.  A step takes
    and returns its AB2 history as band arrays and hands back the new
    state as full half spectra.  Nothing outside the band is ever dropped
    silently: a forcing or an entering state with a nonzero coefficient
    there, or a history that is not of the band's shape, raises
    InvalidFieldError.
    """

    def __init__(self, config: SolverConfig, forcing: ForcingSpec):
        self.config = config
        self.forcing = forcing
        grid = config.grid
        self.band = band = grid.band if config.dealias else grid.whole_band
        lam = -band.k_sq  # diffusion eigenvalues
        nudt = config.nu * config.dt
        if config.scheme == "etdab2":
            z = nudt * lam
            self.prop = np.exp(z)
            self.w_euler = config.dt * _phi1(z)
            phi2 = _phi2(z)
            self.w_now = config.dt * (_phi1(z) + phi2)
            self.w_prev = -config.dt * phi2
        else:  # cnab2: (1 - nudt L/2) u' = (1 + nudt L/2) u + dt * AB2(g)
            den = 1.0 - 0.5 * nudt * lam
            self.prop = (1.0 + 0.5 * nudt * lam) / den
            self.w_euler = config.dt / den
            self.w_now = 1.5 * config.dt / den
            self.w_prev = -0.5 * config.dt / den
        f = (forcing.f1.data, forcing.f2.data, forcing.g.data)
        self._require_band("forcing", f)
        self.pforce = leray_project(*(band.gather(a) for a in f), band)

    def _require_band(self, what: str, arrays: tuple[np.ndarray, ...]) -> None:
        """InvalidFieldError naming `what` unless each of `arrays` is zero
        outside the band."""
        if not all(self.band.covers(a) for a in arrays):
            raise InvalidFieldError(f"{what} has coefficients outside the 2/3-rule band "
                                    "of a dealias = on run")

    def rhs_at(self, state: VelocityState
               ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray],
                          tuple[ScalarField, ScalarField, ScalarField]]:
        """Projected explicit right-hand side P(F) - P(N), as band arrays,
        and the raw N.

        The projection is linear and IEEE rounding is sign-symmetric, so
        this equals P(-N) + P(F) bit for bit.
        """
        nl = nonlinear(state, use_dealias=self.config.dealias)
        band = self.band
        g1, g2, gw = leray_project(*(band.gather(c.data) for c in nl), band)
        pf = self.pforce
        return (np.subtract(pf[0], g1, out=g1), np.subtract(pf[1], g2, out=g2),
                np.subtract(pf[2], gw, out=gw)), nl

    def advance(self, state: VelocityState,
                rhs: tuple[np.ndarray, np.ndarray, np.ndarray],
                prev_rhs: tuple[np.ndarray, np.ndarray, np.ndarray] | None
                ) -> tuple[VelocityState, float]:
        """The projected update of `state` by the band arrays `rhs` and
        `prev_rhs` (None on the self-starting step), as a full state, and
        its energy, summed on the band; BlowUpError at the entering time if
        that is not finite (a NaN or inf coefficient, or a square overflows).

        `state` must be zero outside the band (:meth:`step` checks it)."""
        grid = self.config.grid
        band = self.band
        # each component is built in place with one scratch array; the
        # summation order is that of the plain expression in the comment
        tmp = np.empty(band.shape, np.complex128)
        new = []
        for uc, gc, pc in zip((state.v1.data, state.v2.data, state.w.data), rhs,
                              prev_rhs or (None,) * 3):
            # prop*u + w_euler*g, or (prop*u + w_now*g) + w_prev*p
            out = np.multiply(self.prop, band.gather(uc))
            if pc is None:
                out += np.multiply(self.w_euler, gc, out=tmp)
            else:
                out += np.multiply(self.w_now, gc, out=tmp)
                out += np.multiply(self.w_prev, pc, out=tmp)
            new.append(out)
        del tmp  # the projection takes its own scratch
        leray_project(*new, band, out=new)
        energy = sum(sq_l2_norm(a, grid, p) for a, p in zip(new, _TRIPLE_PARITIES))
        if not math.isfinite(energy):
            raise BlowUpError(state.t)
        return VelocityState(*(ScalarField.spectral(grid, p, band.scatter(a))
                               for a, p in zip(new, _TRIPLE_PARITIES)),
                             state.t + self.config.dt), energy

    def step(self, state: VelocityState,
             prev_rhs: tuple[np.ndarray, np.ndarray, np.ndarray] | None) -> StepResult:
        """One step from `state` with the AB2 history `prev_rhs` (a
        StepResult.rhs, or None on the first step).  Raises
        InvalidFieldError if `state` has a nonzero coefficient outside the
        band or `prev_rhs` has an array not of the band's shape: a band
        array holds nothing outside the band."""
        self._require_band("entering state", (state.v1.data, state.v2.data, state.w.data))
        if prev_rhs is not None and any(a.shape != self.band.shape for a in prev_rhs):
            raise InvalidFieldError(f"AB2 history must be band arrays of shape "
                                    f"{self.band.shape} (got {[a.shape for a in prev_rhs]})")
        rhs, nl = self.rhs_at(state)
        pressure = pressure_solve(state, self.forcing, nl=nl)
        del nl  # N is dead once the pressure has its divergence
        new_state, energy = self.advance(state, rhs, prev_rhs)
        for a in rhs:
            a.flags.writeable = False
        return StepResult(new_state, pressure, rhs, energy)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Everything a run produces, including partial output after blow-up.

    `max_divergence` and `max_reconstruction_error` are maxima over the
    recorded states (the states of `records`); every step's state is
    checked by its band energy only (non-finite, or over the cap).  `final_rhs` is
    the AB2 history at the final state, three full half spectra (None after
    blow-up or without a step), as a checkpoint stores it.
    """

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
    time.  With `restart` the loop resumes from a checkpointed state and AB2
    history, reproducing the uninterrupted trajectory bit-exactly at a fixed
    thread count; a checkpoint at or past t_end, or at a time off the dt
    step grid, is a ConfigError.
    """
    from .monitor import RunMonitor

    grid = config.grid
    forcing = make_forcing(config.forcing, grid, config.nu)
    stepper = Stepper(config, forcing)
    if restart is not None:
        state, prev_rhs = restart
        if state.grid != grid:
            raise ConfigError("restart state grid does not match config grid")
        # the restored fields take config.grid, whose symbols the stepper uses
        state = VelocityState(*(ScalarField.spectral(grid, f.parity, f.data)
                                for f in (state.v1, state.v2, state.w)), state.t)
        if prev_rhs is not None and (len(prev_rhs) != 3 or any(
                np.shape(a) != grid.spectral_shape for a in prev_rhs)):
            raise ConfigError(f"restart history must be three half spectra of shape "
                              f"{grid.spectral_shape} (got {[np.shape(a) for a in prev_rhs]})")
        arrays = (state.v1.data, state.v2.data, state.w.data, *(prev_rhs or ()))
        if not all(stepper.band.covers(a) for a in arrays):
            raise ConfigError("dealias = on, but the restart state or history has "
                              "coefficients outside the 2/3-rule band (a dealias = off "
                              "checkpoint?)")
        prev_rhs = prev_rhs and tuple(stepper.band.gather(a) for a in prev_rhs)
    else:
        state = make_initial_state(config.init, grid, config.nu)
        if config.dealias:
            state = VelocityState(dealias(state.v1), dealias(state.v2), dealias(state.w), state.t)
        prev_rhs = None
    start_step = whole_steps("restart time t", state.t, config.dt)
    n_steps = config.n_steps
    if restart is not None and start_step >= n_steps:
        raise ConfigError(f"t_end = {config.t_end!r} is not after the restart time "
                          f"t = {state.t!r}")

    monitor = RunMonitor(config, forcing)
    snapshots: list[VelocityState] | None = [] if keep_states else None
    # overflow and NaN in a non-finite or huge state have one handler, the
    # blow-up test on each step's energy
    with np.errstate(over="ignore", invalid="ignore"):
        e0 = state.energy()
    e_cap = BLOWUP_ENERGY_FACTOR * max(e0, 1.0)
    result = RunResult(config, state, state, monitor.records, forcing,
                       snapshots=snapshots, last_valid_time=state.t)

    def observe(st: VelocityState, pressure: PressureField) -> None:
        monitor.observe(st, pressure)
        div_inf, rec_err = st.divergence_errors()
        result.max_divergence = max(result.max_divergence, div_inf)
        result.max_reconstruction_error = max(result.max_reconstruction_error, rec_err)
        if snapshots is not None:
            snapshots.append(st)

    k = start_step
    try:
        while k < n_steps:
            with np.errstate(over="ignore", invalid="ignore"):
                res = stepper.step(state, prev_rhs)
            # the old history is dead: drop it before the record's arrays
            prev_rhs = res.rhs
            if k % config.diag_every == 0:
                observe(state, res.pressure)
            state = res.state
            result.last_valid_time = state.t
            if res.energy > e_cap:
                raise BlowUpError(state.t, "energy exceeded blow-up threshold")
            k += 1
        final_nl = nonlinear(state, use_dealias=config.dealias)
        observe(state, pressure_solve(state, forcing, nl=final_nl))
        result.final_rhs = prev_rhs and tuple(stepper.band.scatter(a) for a in prev_rhs)
    except BlowUpError as exc:
        result.blowup = True
        result.last_valid_time = exc.last_valid_time
    result.final_state = state
    result.records = monitor.finalize()
    return result
