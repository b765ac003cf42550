#!/usr/bin/env python3
"""Write a fixed set of outputs into DIR and print one "sha256  path" line
per file (path relative to DIR), so that two checkouts can be compared
byte for byte by diffing what this script prints in each of them.

    python3 scripts/output_digests.py DIR

The set: ``run`` on configs/forced.cfg, shear.cfg and taylor_green.cfg,
on forced.cfg with ``scheme = cnab2`` (``forced_cnab2``), on forced.cfg
from a seeded random state (``init = random``, ``init_amplitude = 0.3``,
``init_seed = 11``) under its ``dealias = on`` (``forced_random``) and on a
random 16x16x9 ``dealias = off`` config (``undealiased``); two restarted pairs,
forced.cfg to half its horizon (``forced_half``) and then ``--restart``
from that checkpoint to the end (``forced_restarted``), and the same on
the ``dealias = off`` config, whose band is the whole half spectrum
(``undealiased_half``, ``undealiased_restarted``), so the checkpoint
writer and reader and the restarted runs are compared too; taylor_green.cfg
with ``t_end = 0`` (``taylor_green_unstepped``), the one run whose
checkpoint holds the dealiased initial state, never stepped; each run giving
its diagnostics.csv, report.txt and final.ckpt (manifest.json holds
timestamps and is left out); the two blow-up paths, a 16x16x9 forced run
whose energy passes the cap (``blowup_cap``) and an 8x8x5 run from a 1e200
state that is non-finite from its first step (``blowup_nonfinite``, which
writes no report), each giving the run files it wrote; and the
``verify-inequalities`` CSVs at ``--grid 32 32 17 --count 20 --seed 1`` and
``--grid 16 16 9 --count 5``.
Each CLI call runs in a subprocess against this checkout's src/ with
``CHANNELFLOW_THREADS`` and ``OPENBLAS_NUM_THREADS`` at 1, so the BLAS
products that make the z pass of every transform run on one thread
(``numpy.fft`` always runs on one), and the bytes do not depend on the
machine's thread counts.
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

#: replaces forced.cfg's ``init = zero``: a seeded initial state under dealiasing
RANDOM_INIT = "init = random\ninit_amplitude = 0.3\ninit_seed = 11\n"

#: runs that end in blow-up (exit code 2): over the energy cap, non-finite
BLOWUP_CONFIGS = {
    "blowup_cap": ("nu = 0.001\ndt = 0.001\nt_end = 0.5\nnx = 16\nny = 16\nnz = 9\n"
                   "init = zero\nforcing = random\nforcing_amplitude = 1e5\n"),
    "blowup_nonfinite": ("nu = 1.0\ndt = 0.001\nt_end = 0.01\nnx = 8\nny = 8\nnz = 5\n"
                         "init = random\ninit_amplitude = 1e200\ndiag_every = 1\n"),
}

RUN_FILES = ("diagnostics.csv", "report.txt", "final.ckpt")

EXIT_BLOWUP = 2


def _cli(args: list[str], status: int) -> None:
    """Run the CLI on `args`; an exit code other than `status` raises."""
    src = str(ROOT / "src")
    env = {**os.environ, "CHANNELFLOW_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "channelflow.cli", *args], env=env,
                          stdout=subprocess.DEVNULL)
    if done.returncode != status:
        raise subprocess.CalledProcessError(done.returncode, done.args)


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
    configs["forced_cnab2"] = out / "forced_cnab2.cfg"
    configs["forced_cnab2"].write_text(forced + "scheme = cnab2\n")
    configs["forced_random"] = out / "forced_random.cfg"
    configs["forced_random"].write_text(forced.replace("init = zero\n", RANDOM_INIT))
    for name, derived, scale in (("forced", "forced_half", 0.5),
                                 ("undealiased", "undealiased_half", 0.5),
                                 ("taylor_green", "taylor_green_unstepped", 0.0)):
        text = configs[name].read_text()
        t_end = float(re.search(r"^t_end = (.*)$", text, re.M).group(1))
        configs[derived] = out / f"{derived}.cfg"
        configs[derived].write_text(text.replace(f"t_end = {t_end!r}",
                                                 f"t_end = {t_end * scale!r}"))
    runs = [(name, cfg, []) for name, cfg in configs.items()]
    runs += [(f"{name}_restarted", configs[name],
              ["--restart", str(out / f"{name}_half" / "final.ckpt")])
             for name in ("forced", "undealiased")]
    files = []
    for name, cfg, extra in runs:
        _cli(["run", "--config", str(cfg), "--out", str(out / name), *extra], 0)
        files += [out / name / f for f in RUN_FILES]
    for name, text in BLOWUP_CONFIGS.items():
        cfg = out / f"{name}.cfg"
        cfg.write_text(text)
        _cli(["run", "--config", str(cfg), "--out", str(out / name)], EXIT_BLOWUP)
        files += [out / name / f for f in RUN_FILES if (out / name / f).exists()]
    for name, grid, extra in (("inequalities32", "32 32 17", ["--count", "20", "--seed", "1"]),
                              ("inequalities16", "16 16 9", ["--count", "5"])):
        _cli(["verify-inequalities", "--grid", *grid.split(), *extra,
              "--out", str(out / name)], 0)
        files.append(out / name / "inequalities.csv")
    for path in files:
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")


if __name__ == "__main__":
    main()
