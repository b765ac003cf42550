#!/usr/bin/env python3
"""Drive a z-dependent forced run and print the full criterion report:
the accumulated pressure-gradient integral, the energy bound check, and
the Gronwall bound constants.
"""

from channelflow.fields import Grid
from channelflow.monitor import segment_bounds, verdict
from channelflow.solver import ForcingRecipe, InitRecipe, SolverConfig, run

CONFIG = SolverConfig(
    nu=0.5, dt=1e-3, t_end=0.1, grid=Grid(32, 32, 17),
    init=InitRecipe("random", amplitude=0.3, seed=11),
    forcing=ForcingRecipe("random", amplitude=1.0, seed=42),
)


def main():
    result = run(CONFIG)
    bounds = segment_bounds(CONFIG, result.records, result.forcing)
    report = verdict(result.records, bounds, CONFIG, blowup=result.blowup,
                     last_valid_time=result.last_valid_time)
    print(report.to_text())
    print("per-record ||p_z||_{2q} trace:")
    for rec in result.records:
        print(f"  t={rec.t:6.3f}  pz={rec.pz_norm:.6e}  accum={rec.criterion_accum:.6e}")


if __name__ == "__main__":
    main()
