"""Stage probe: per-prime stage times of `dlcusp verify`, and one long range.

Run it from anywhere, naming one or more source trees (each holding src/):

    python tests/stages.py [--runs N] TREE [TREE ...]

For each prime in PRIMES it runs `verify --range p p --no-cache --format
json` N times per tree in fresh processes, the trees in
alternating order, and takes the median of each entry of the report's
`stages` and of the wall time of the process (import included).  Then it
times `verify --range 7 600 --no-cache --jobs 2` N times per tree, alike.
It prints one JSON document: per tree, per prime, the medians in seconds,
and the range's median wall time with its exit codes.  It is not a test:
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PRIMES = (31, 101, 199, 397, 599)
RANGE = ("--range", "7", "600", "--no-cache", "--jobs", "2")


def run(tree: Path, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """One `python -m dlcusp ARGS` from tree's src/, and its wall time."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "dlcusp", "verify", *args], env=env, capture_output=True, text=True)
    return time.perf_counter() - start, done


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("trees", nargs="+", type=Path)
    args = parser.parse_args()
    trees = [tree.resolve() for tree in args.trees]
    out = {str(tree): {} for tree in trees}
    for p in PRIMES:
        samples = {tree: [] for tree in trees}
        for i in range(args.runs):
            for tree in trees if i % 2 == 0 else trees[::-1]:
                wall, done = run(tree, ["--range", str(p), str(p), "--no-cache", "--format", "json"])
                samples[tree].append({**json.loads(done.stdout)["primes"][0]["stages"], "wall": wall})
        for tree, rows in samples.items():
            out[str(tree)][p] = {stage: round(statistics.median(r[stage] for r in rows), 4) for stage in rows[0]}
    walls = {tree: [] for tree in trees}
    for i in range(args.runs):
        for tree in trees if i % 2 == 0 else trees[::-1]:
            wall, done = run(tree, list(RANGE))
            walls[tree].append((wall, done.returncode))
    for tree, rows in walls.items():
        out[str(tree)]["range_7_600_jobs2"] = {"wall": round(statistics.median(w for w, _ in rows), 3),
                                               "exit_codes": [code for _, code in rows]}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
