"""Numerical verification of the functional inequalities behind the
a priori estimates.

Each check evaluates the left side and the constant-free structural right
side of one inequality and reports their ratio as an empirical constant.
Generic constants are never asserted to equal a specific value: the checks
claim finiteness, invariance under field rescaling (both sides are
homogeneous of the same degree), and stability under grid refinement;
DEFAULT_CAP turns the reports into pass/fail.  The Minkowski exchange and
pointwise Poincare inequalities hold with constant exactly 1 and are
asserted outright, within EXACT_TOL and POINCARE_TOL.

Every field check takes spectral fields, the representation the families,
the solver and the norms use, and raises RepresentationError on a
physical one; node values are computed inside the check.  The sweep
transforms each family field once: it hands the checks a
:class:`_Sampled` field, which carries the node values computed from that
field, and a check reads them in place of its own transform.  The seeded
families are generators: the sweep holds one field of each at a time.
Each field is drawn on the box of its caps, normalized there
(``solver.scatter_scaled``) and scattered once.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .calculus import (
    PlanarField,
    ddx_2d,
    ddy_2d,
    ddz,
    fluctuation,
    to_physical_2d,
    vertical_average,
)
from .errors import ConfigError
from .fields import Grid, Parity, ScalarField, random_band_coefficients, to_physical
from .norms import (
    baroclinic_nodes,
    h1_norm,
    h1_norm_2d,
    lq_norm,
    lq_norm_2d,
    lq_norm_vector,
    quad_weights_3d,
    sq_l2_norm,
    sq_norms,
)
from .solver import VelocityState, random_divergence_free_state, scatter_scaled

DEFAULT_CAP = 100.0

#: the baroclinic exponent r and the eps of Lemma LL in the family sweep
SWEEP_R = 3.5
SWEEP_EPS = 0.1

#: slack for inequalities that hold with constant exactly 1, and per node
#: for the pointwise Poincare bound
EXACT_TOL = 1e-10
POINCARE_TOL = 1e-8


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality check.

    empirical_constant = lhs / rhs_structure (0 for the zero field); passed
    means the constant is finite and at most DEFAULT_CAP, except for
    the exact-constant checks, which pass iff the inequality itself holds
    within roundoff slack.
    """

    name: str
    lhs: float
    rhs_structure: float
    empirical_constant: float
    passed: bool


class _Sampled:
    """A spectral field and its node values, computed from it on
    construction: the only way to hand a check node values, so they cannot
    belong to another field.  Built once per family field by the sweep and
    passed to each check that reads that field's nodes."""

    __slots__ = ("field", "nodes")

    def __init__(self, f: ScalarField | PlanarField):
        self.field = f
        self.nodes = to_physical(f) if isinstance(f, ScalarField) else to_physical_2d(f)


def _sampled(f: ScalarField | PlanarField | _Sampled) -> tuple:
    """(spectral field, node values) of a field or of a :class:`_Sampled`
    one; a physical field raises RepresentationError."""
    s = f if isinstance(f, _Sampled) else _Sampled(f)
    return s.field, s.nodes


def _ratio_report(name: str, lhs: float, rhs: float) -> InequalityReport:
    if rhs == 0.0:
        if lhs <= 1e-14:
            return InequalityReport(name, lhs, rhs, 0.0, True)
        return InequalityReport(name, lhs, rhs, math.inf, False)
    c = lhs / rhs
    return InequalityReport(name, lhs, rhs, c, bool(math.isfinite(c) and c <= DEFAULT_CAP))


# ---------------------------------------------------------------------------
# interpolation inequalities
# ---------------------------------------------------------------------------

def check_gn_2d(phi: PlanarField | _Sampled, alpha: float) -> InequalityReport:
    """2D interpolation: ||phi||_{L^a(M)} <= C ||phi||_2^{2/a} ||phi||_{H1}^{(a-2)/a}."""
    if alpha < 2:
        raise ValueError(f"check_gn_2d requires alpha >= 2, got {alpha}")
    phi, phys = _sampled(phi)
    lhs = lq_norm_2d(phys, alpha)
    l2 = lq_norm_2d(phys, 2.0)
    h1 = h1_norm_2d(phi)
    rhs = l2 ** (2.0 / alpha) * h1 ** ((alpha - 2.0) / alpha)
    return _ratio_report(f"gn2d_a{alpha:g}", lhs, rhs)


def check_gn_3d(psi: ScalarField | _Sampled, alpha: float) -> InequalityReport:
    """3D interpolation with exponents (6-a)/2a and 3(a-2)/2a, a in [2, 6]."""
    if not 2.0 <= alpha <= 6.0:
        raise ValueError(f"check_gn_3d requires alpha in [2, 6], got {alpha}")
    psi, phys = _sampled(psi)
    lhs = lq_norm(phys, alpha)
    l2 = lq_norm(phys, 2.0)
    h1 = h1_norm(psi)
    rhs = l2 ** ((6.0 - alpha) / (2.0 * alpha)) * h1 ** (3.0 * (alpha - 2.0) / (2.0 * alpha))
    return _ratio_report(f"gn3d_a{alpha:g}", lhs, rhs)


def check_interp_2d(phi: PlanarField | _Sampled, alpha: float, beta: float) -> InequalityReport:
    """Weighted-gradient interpolation on M for beta > alpha >= 2:

    ||phi||_{L^b} <= C [ ||phi||_{L^a}^{a/b}
                         (int |phi|^{a-2} |grad_h phi|^2)^{(b-a)/(ab)} + ||phi||_{L^a} ].
    """
    if alpha < 2:
        raise ValueError(f"check_interp_2d requires alpha >= 2, got {alpha}")
    if beta <= alpha:
        raise ValueError(f"check_interp_2d requires beta > alpha, got beta={beta}")
    phi, phys = _sampled(phi)
    lhs = lq_norm_2d(phys, beta)
    la = lq_norm_2d(phys, alpha)
    px = to_physical_2d(ddx_2d(phi)).data
    py = to_physical_2d(ddy_2d(phi)).data
    grad_int = float(np.sum(np.abs(phys.data) ** (alpha - 2.0) * (px**2 + py**2))
                     / (phi.grid.nx * phi.grid.ny))
    rhs = la ** (alpha / beta) * grad_int ** ((beta - alpha) / (alpha * beta)) + la
    return _ratio_report(f"twe_a{alpha:g}_b{beta:g}", lhs, rhs)


# ---------------------------------------------------------------------------
# exact-constant inequalities
# ---------------------------------------------------------------------------

def check_minkowski(samples: np.ndarray, beta: float,
                    weights1: np.ndarray | None = None,
                    weights2: np.ndarray | None = None,
                    reverse: bool = False) -> InequalityReport:
    """Integral Minkowski exchange inequality on a tabulated rectangle:

    [ int_1 ( int_2 |f| )^b ]^{1/b}  <=  int_2 ( int_1 |f|^b )^{1/b}.

    Holds with constant exactly 1; passes iff lhs <= rhs + 1e-10.  `reverse`
    swaps the orientation (a deliberately false claim) for harness
    self-tests.
    """
    if beta < 1:
        raise ValueError(f"check_minkowski requires beta >= 1, got {beta}")
    f = np.abs(np.asarray(samples, dtype=float))
    if f.ndim != 2:
        raise ValueError("samples must be a 2-d array over Omega1 x Omega2")
    w1 = np.full(f.shape[0], 1.0 / f.shape[0]) if weights1 is None else np.asarray(weights1)
    w2 = np.full(f.shape[1], 1.0 / f.shape[1]) if weights2 is None else np.asarray(weights2)
    inner2 = f @ w2
    lhs = float(np.sum(w1 * inner2**beta) ** (1.0 / beta))
    inner1 = np.sum(w1[:, None] * f**beta, axis=0) ** (1.0 / beta)
    rhs = float(np.sum(w2 * inner1))
    if reverse:
        lhs, rhs = rhs, lhs
    constant = 0.0 if (rhs == 0.0 and lhs == 0.0) else (lhs / rhs if rhs > 0 else math.inf)
    return InequalityReport("minkowski", lhs, rhs, constant, bool(lhs <= rhs + EXACT_TOL))


def check_poincare_pz(p: ScalarField) -> InequalityReport:
    """Pointwise bound |p - pbar| <= int_0^1 |p_z| dz, checked on every node.

    lhs / rhs_structure report the extreme fluctuation and column integral;
    the empirical constant is the worst column ratio; pass means no node
    violates the inequality beyond POINCARE_TOL.
    """
    pt = np.abs(to_physical(fluctuation(p)).data)
    pz = np.abs(to_physical(ddz(p)).data)
    column = pz @ p.grid.wz  # int_0^1 |p_z| dz per (x, y)
    violation = float(np.max(pt - column[:, :, None]))
    lhs = float(np.max(pt))
    rhs = float(np.max(column))
    col_max = np.max(pt, axis=2)
    mask = column > 1e-14
    constant = float(np.max(col_max[mask] / column[mask])) if np.any(mask) else 0.0
    return InequalityReport("poincare_pz", lhs, rhs, constant, bool(violation <= POINCARE_TOL))


# ---------------------------------------------------------------------------
# the trilinear lemma bound
# ---------------------------------------------------------------------------

def check_lemma_ll(phi: ScalarField | _Sampled, psi: ScalarField | _Sampled, v: VelocityState,
                   r: float, eps: float) -> InequalityReport:
    """Empirical constant of the trilinear estimate

    int |v||phi||psi| <= eps (||grad_h phi||^2 + ||phi_z||^2 + ||psi||^2)
        + C_eps [ ||vt||_r^{2r/(r-3)} + ||vt||_r^2
                  + (1 + ||vb||_2^2)(||vb||_2^2 + ||grad_h vb||_2^2) ] ||phi||_2^2

    with vb/vt the barotropic/baroclinic parts of the horizontal velocity.
    The gradient in the eps-term is horizontal (phi_z enters separately).
    C_eps is isolated by subtracting the eps-part (clamped at zero) and
    dividing by the bracketed factor.
    """
    if not 3.0 < r < 4.0:
        raise ValueError(f"check_lemma_ll requires r in (3, 4), got {r}")
    if eps <= 0:
        raise ValueError(f"check_lemma_ll requires eps > 0, got {eps}")
    (phi, phi_p), (psi, psi_p) = _sampled(phi), _sampled(psi)
    vt = baroclinic_nodes(v.v1, v.v2)
    vb = vertical_average(v.v1), vertical_average(v.v2)
    # v's nodes: the fluctuation nodes ||vt||_r reads plus the depth-average plane
    v1p, v2p = (t.data + to_physical_2d(b).data[:, :, None] for t, b in zip(vt, vb))
    vmag = np.sqrt(v1p**2 + v2p**2)
    lhs = float(np.sum(vmag * np.abs(phi_p.data) * np.abs(psi_p.data)
                       * quad_weights_3d(phi.grid)))
    phi_sq, gphi_sq, phi_z_sq = sq_norms(phi)
    eps_part = eps * (gphi_sq + phi_z_sq + sq_l2_norm(psi.data, psi.grid, psi.parity))
    vt_r = lq_norm_vector(vt, r)
    sb1, sb2 = map(sq_norms, vb)
    vb_sq, gvb_sq = sb1[0] + sb2[0], sb1[1] + sb2[1]
    bracket = vt_r ** (2.0 * r / (r - 3.0)) + vt_r**2 + (1.0 + vb_sq) * (vb_sq + gvb_sq)
    denom = bracket * phi_sq
    report = _ratio_report("lemma_ll", max(0.0, lhs - eps_part), denom)
    return replace(report, lhs=lhs, rhs_structure=eps_part + denom)


# ---------------------------------------------------------------------------
# seeded field families and the full sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """Deterministic band-limited field family.

    Mode caps are fixed by the base grid (horizontal modes up to nx/4), so
    the same family can be materialized on a refined grid for stability
    studies.
    """

    count: int = 100
    seed: int = 1234
    max_kx: int = 8
    max_ky: int = 8
    max_m: int = 4

    def __post_init__(self):
        if not self.seed >= 0:
            raise ConfigError(f"seed must be >= 0 (got {self.seed!r})")

    @classmethod
    def for_grid(cls, grid: Grid, count: int = 100, seed: int = 1234) -> "FamilySpec":
        return cls(count=count, seed=seed,
                   max_kx=max(1, grid.nx // 4), max_ky=max(1, grid.ny // 4),
                   max_m=max(1, grid.nz // 4))


def field_family(grid: Grid, parity: Parity, spec: FamilySpec) -> Iterator[ScalarField]:
    """Unit-L2-normalized random fields, reproducible across grid sizes,
    each drawn and normalized on the box of its caps, then scattered."""
    rng = np.random.default_rng(spec.seed if parity is Parity.EVEN_Z else spec.seed + 1)
    box = grid.box(spec.max_kx, spec.max_ky, spec.max_m)
    for _ in range(spec.count):
        drawn = random_band_coefficients(grid, parity, rng, spec.max_kx, spec.max_ky, spec.max_m)
        data, = scatter_scaled(grid, box, (drawn,), (parity,), 1.0)
        yield ScalarField.spectral(grid, parity, data)


def planar_family(grid: Grid, spec: FamilySpec) -> Iterator[PlanarField]:
    """Unit-L2-normalized random planar fields: the m = 0 plane of an EvenZ
    draw with max_m = 0, normalized on its box, then scattered."""
    rng = np.random.default_rng(spec.seed + 2)
    box = grid.box(spec.max_kx, spec.max_ky, 0)
    for _ in range(spec.count):
        drawn = random_band_coefficients(grid, Parity.EVEN_Z, rng, spec.max_kx, spec.max_ky, 0)
        data, = scatter_scaled(grid, box, (drawn[:, :, 0],), (Parity.EVEN_Z,), 1.0)
        yield PlanarField.spectral(grid, data)


def sweep_family(grid: Grid, spec: FamilySpec, reverse_minkowski: bool = False
                 ) -> list[tuple[int, InequalityReport]]:
    """Run every inequality check over the seeded family.

    Returns (field index, report) rows; the Minkowski check tabulates each
    3D field over the x-axis times the (y, z) rectangle with the physical
    quadrature weights, and Lemma LL runs at (SWEEP_R, SWEEP_EPS) on a
    seeded state capped at min(max_kx, max_ky).  The families are drawn
    as they are used, and each field is transformed once
    (:class:`_Sampled`) for every check of its nodes.
    """
    families = zip(field_family(grid, Parity.EVEN_Z, spec), field_family(grid, Parity.ODD_Z, spec),
                   planar_family(grid, spec))
    rows: list[tuple[int, InequalityReport]] = []
    w1 = np.full(grid.nx, 1.0 / grid.nx)
    w2 = np.kron(np.full(grid.ny, 1.0 / grid.ny), grid.wz)
    for i, fields in enumerate(families):
        even, odd, planar = map(_Sampled, fields)
        rows.append((i, check_gn_2d(planar, 4.0)))
        rows.append((i, check_gn_3d(even, 4.0)))
        rows.append((i, check_gn_3d(odd, 6.0)))
        rows.append((i, check_interp_2d(planar, 2.0, 4.0)))
        samples = even.nodes.data.reshape(grid.nx, grid.ny * grid.nz)
        rows.append((i, check_minkowski(samples, 2.0, w1, w2, reverse=reverse_minkowski)))
        rows.append((i, check_poincare_pz(even.field)))
        state = random_divergence_free_state(grid, seed=spec.seed * 1000 + i,
                                             kmax=min(spec.max_kx, spec.max_ky), mmax=spec.max_m)
        rows.append((i, check_lemma_ll(even, odd, state, SWEEP_R, SWEEP_EPS)))
    return rows
