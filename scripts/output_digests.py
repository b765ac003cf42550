#!/usr/bin/env python3
"""Write a fixed set of outputs into DIR and print one "sha256  path" line
per file (path relative to DIR), so that two checkouts can be compared
byte for byte by diffing what this script prints in each of them.

    python3 scripts/output_digests.py DIR

The set: ``run`` on configs/forced.cfg, shear.cfg and taylor_green.cfg
and on a random 16x16x9 ``dealias = off`` config; a restarted pair,
forced.cfg to half its horizon (``forced_half``) and then ``--restart``
from that checkpoint to the end (``forced_restarted``), so the checkpoint
writer and reader and the restarted run are compared too; each run giving
its diagnostics.csv, report.txt and final.ckpt (manifest.json holds
timestamps and is left out); and the ``verify-inequalities`` CSVs at
``--grid 32 32 17 --count 20 --seed 1`` and ``--grid 16 16 9 --count 5``.
Each CLI call runs in a subprocess against this checkout's src/ with one
FFT and one BLAS thread, so the bytes do not depend on the machine's
thread counts.
"""

import hashlib
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

UNDEALIASED_CONFIG = ("nu = 1.0\ndt = 0.001\nt_end = 0.01\nnx = 16\nny = 16\nnz = 9\n"
                      "init = random\ninit_seed = 3\ndealias = off\ndiag_every = 2\n")

RUN_FILES = ("diagnostics.csv", "report.txt", "final.ckpt")


def _cli(args: list[str]) -> None:
    src = str(ROOT / "src")
    env = {**os.environ, "CHANNELFLOW_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    subprocess.run([sys.executable, "-m", "channelflow.cli", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.exit(f"usage: {pathlib.Path(__file__).name} DIR")
    out = pathlib.Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    undealiased = out / "undealiased.cfg"
    undealiased.write_text(UNDEALIASED_CONFIG)
    configs = {name: ROOT / "configs" / f"{name}.cfg"
               for name in ("forced", "shear", "taylor_green")}
    configs["undealiased"] = undealiased
    forced = configs["forced"].read_text()
    t_end = float(re.search(r"^t_end = (.*)$", forced, re.M).group(1))
    configs["forced_half"] = out / "forced_half.cfg"
    configs["forced_half"].write_text(forced.replace(f"t_end = {t_end!r}",
                                                     f"t_end = {t_end / 2!r}"))
    runs = [(name, cfg, []) for name, cfg in configs.items()]
    runs.append(("forced_restarted", configs["forced"],
                 ["--restart", str(out / "forced_half" / "final.ckpt")]))
    files = []
    for name, cfg, extra in runs:
        _cli(["run", "--config", str(cfg), "--out", str(out / name), *extra])
        files += [out / name / f for f in RUN_FILES]
    for name, grid, extra in (("inequalities32", "32 32 17", ["--count", "20", "--seed", "1"]),
                              ("inequalities16", "16 16 9", ["--count", "5"])):
        _cli(["verify-inequalities", "--grid", *grid.split(), *extra,
              "--out", str(out / name)])
        files.append(out / name / "inequalities.csv")
    for path in files:
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")


if __name__ == "__main__":
    main()
