#!/usr/bin/env python3
"""Compare two directories written by scripts/output_digests.py, file by
file, and print one line per file of DIR_A:

    python3 scripts/compare_outputs.py DIR_A DIR_B

Each CSV and the key-value block of each report.txt is compared value by
value: the line says "identical", or gives the number of changed values,
the number of `passed` flips (a changed ``passed`` column or True/False
value) and the largest relative change |a - b| / max(|a|, |b|) of each
column or key that moved (inf for a changed non-number).  Each final.ckpt
is read through ``io.read_checkpoint`` and the line gives the largest
relative difference max |a - b| / max |a| over its arrays and its time.
A file missing from DIR_B, or a table of another shape, is named as such.
"""

import math
import pathlib
import sys

import numpy as np

from channelflow.io import read_checkpoint

VERDICTS = ("True", "False")


def _rel(diff: float, scale: float) -> float:
    return diff / scale if scale > 0 else diff


def _rel_printed(a: str, b: str) -> float:
    """Relative change between two printed values; inf unless both are numbers."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    return _rel(abs(x - y), max(abs(x), abs(y)))


def _compare_tables(a: list[list[str]], b: list[list[str]]) -> str:
    """Compare two tables whose first row names the columns."""
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)) or a[0] != b[0]:
        return "tables differ in shape or column names"
    changed, flips, worst = 0, 0, {}
    for ra, rb in zip(a[1:], b[1:]):
        for name, x, y in zip(a[0], ra, rb):
            if x != y:
                changed += 1
                flips += name == "passed" or (x in VERDICTS and y in VERDICTS)
                worst[name] = max(worst.get(name, 0.0), _rel_printed(x, y))
    if not changed:
        return "identical"
    moved = ", ".join(f"{name} {rel:.1e}" for name, rel in worst.items())
    return f"{changed} values changed, {flips} passed flips; largest relative change: {moved}"


def _csv(path: pathlib.Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines() if line]


def _report(path: pathlib.Path) -> list[list[str]]:
    """The key-value block of a report as a one-row table."""
    block = path.read_text().split("key-value block\n", 1)[-1]
    pairs = [line.split(" = ", 1) for line in block.splitlines() if " = " in line]
    return [[k for k, _ in pairs], [v for _, v in pairs]]


def _checkpoint(a: pathlib.Path, b: pathlib.Path) -> str:
    (sa, ha), (sb, hb) = read_checkpoint(str(a)), read_checkpoint(str(b))
    arrays_a = [sa.v1.data, sa.v2.data, sa.w.data, *(ha or ())]
    arrays_b = [sb.v1.data, sb.v2.data, sb.w.data, *(hb or ())]
    if len(arrays_a) != len(arrays_b) or any(x.shape != y.shape
                                             for x, y in zip(arrays_a, arrays_b)):
        return "checkpoints differ in shape or history"
    rel = max([_rel(abs(sa.t - sb.t), sa.t)]
              + [_rel(float(np.max(np.abs(x - y))), float(np.max(np.abs(x))))
                 for x, y in zip(arrays_a, arrays_b)])
    return f"largest relative array difference {rel:.1e}"


def compare(a: pathlib.Path, b: pathlib.Path) -> str:
    """One line on how file `b` differs from file `a`."""
    if not b.exists():
        return "missing from DIR_B"
    if a.read_bytes() == b.read_bytes():
        return "identical"
    if a.name == "final.ckpt":
        return _checkpoint(a, b)
    read = _report if a.name == "report.txt" else _csv
    return _compare_tables(read(a), read(b))


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(f"usage: {pathlib.Path(__file__).name} DIR_A DIR_B")
    dir_a, dir_b = map(pathlib.Path, argv)
    paths = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*")
                   if p.name in ("report.txt", "final.ckpt") or p.suffix == ".csv")
    for rel in paths:
        print(f"{rel}: {compare(dir_a / rel, dir_b / rel)}")


if __name__ == "__main__":
    main()
