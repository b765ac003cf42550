#!/usr/bin/env python3
"""Shear-decay benchmark: integrate the exact decaying shear profile and
report the error against the closed form, the divergence drift, and timing.
"""

import math
import time

from channelflow.fields import Grid
from channelflow.norms import sq_l2_norm
from channelflow.solver import InitRecipe, SolverConfig, exact_shear, run


def main():
    grid = Grid(32, 32, 17)
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=0.1, grid=grid, init=InitRecipe("shear"))
    t0 = time.perf_counter()
    result = run(config)
    elapsed = time.perf_counter() - t0

    exact = exact_shear(grid, config.t_end, config.nu)
    final = result.final_state
    err = math.sqrt(sum(sq_l2_norm(a.data - b.data, grid, a.parity)
                        for a, b in ((final.v1, exact.v1), (final.v2, exact.v2), (final.w, exact.w))))
    ref = math.sqrt(sum(sq_l2_norm(f.data, grid, f.parity) for f in (exact.v1, exact.v2, exact.w)))

    print(f"steps                  : {config.n_steps}")
    print(f"runtime                : {elapsed:.2f} s")
    print(f"relative L2 error      : {err / ref:.3e}")
    print(f"max spectral divergence: {result.max_divergence:.3e}")
    print(f"max w-reconstruction   : {result.max_reconstruction_error:.3e}")
    print("energy trace:")
    for rec in result.records:
        analytic = 0.5 * math.exp(-2 * config.nu * math.pi**2 * rec.t)
        print(f"  t={rec.t:6.3f}  E={rec.energy:.10f}  (exact {analytic:.10f})")


if __name__ == "__main__":
    main()
