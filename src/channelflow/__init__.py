"""Pseudospectral channel Navier-Stokes with pressure-regularity diagnostics.

Incompressible flow in the unit channel (horizontally periodic, stress-free
walls), integrated spectrally on the divergence-free subspace, together
with a diagnostics engine that monitors the vertical pressure gradient in
L^alpha_t L^{2q}_x, evaluates the associated a priori bound constants, and
numerically verifies the functional inequalities those bounds rest on.
"""

import os as _os

from .errors import (
    BlowUpError,
    ChannelFlowError,
    ConfigError,
    CoverageError,
    IncompatibleDivergenceError,
    InvalidFieldError,
    RepresentationError,
)
from .threads import fft_workers as _fft_workers

# OpenBLAS and OpenMP size their thread pools when numpy loads them, and
# OpenBLAS's default (every core) doubles the CPU of the z product in each
# transform.  So both default to CHANNELFLOW_THREADS before
# numpy is imported; a variable already set wins, and a bad
# CHANNELFLOW_THREADS is left for the CLI to report (exit 1).
try:
    _threads = str(_fft_workers())
except ConfigError:
    pass
else:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .fields import Grid, Parity, ScalarField, dealias, to_physical, to_spectral
from .calculus import (
    PlanarField,
    ddx,
    ddy,
    ddz,
    divergence,
    fluctuation,
    laplacian_h,
    vertical_average,
    vertical_velocity,
)
from .norms import TimeSeries, h1_norm, l2_norm, lq_norm, lq_norm_2d, time_lalpha
from .solver import (
    ForcingRecipe,
    ForcingSpec,
    InitRecipe,
    SolverConfig,
    VelocityState,
    exact_shear,
    exact_taylor_green,
    nonlinear,
    pressure_solve,
    run,
)
from .monitor import (
    BoundConstants,
    CriterionReport,
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
    segment_bounds,
    verdict,
)
from .inequalities import (
    InequalityReport,
    check_gn_2d,
    check_gn_3d,
    check_interp_2d,
    check_lemma_ll,
    check_minkowski,
    check_poincare_pz,
)

__version__ = "0.1.0"
