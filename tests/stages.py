"""Stage probe: per-prime stage times of `dlcusp verify`, one long range,
and the cache's build against load.

Run it from anywhere, naming one or more source trees (each holding src/):

    python tests/stages.py [--runs N] TREE [TREE ...]

For each prime in PRIMES it runs `verify --range p p --no-cache --format
json` N times per tree in fresh processes, the trees in
alternating order, and takes the median of each entry of the report's
`stages` and of the wall time of the process (import included).  Then it
times `verify --range 7 600 --no-cache --jobs 2` N times per tree, alike.

The cache probe runs one process per tree, the trees in alternating
order, N times.  In each, for every prime in CACHE_PRIMES, it times in
process a build (`CharacterData(p)`) and a load (gunzip, `json.loads` and
`CharacterData.from_json_dict` of the file the tree's own cache writer
wrote), each followed by its audit (`validate_table`), and keeps the
median of CACHE_REPEATS of each; it also reports each file's bytes, and
the bytes of the files of every prime in 7..101.  The figures are the
medians over the N processes.

It prints one JSON document: per tree, per prime, the medians in seconds,
the range's median wall time with its exit codes, and the cache probe.
It is not a test: pytest does not collect it.
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
CACHE_PRIMES = (7, 43, 101, 599)
CACHE_REPEATS = 7

# Run in a fresh interpreter with a tree's src/ on the path; prints one JSON line.
CACHE_PROBE = """
import json, statistics, sys, tempfile, time
from pathlib import Path
from dlcusp.chartable import CharacterData, validate_table
from dlcusp.cli import _read_gzip, cache_path, load_character_data
from dlcusp.numtheory import primes_in_range

def timed(make):
    times = []
    for _ in range(REPEATS + 1):  # one warm-up
        start = time.perf_counter()
        validate_table(make())
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])

out = {}
with tempfile.TemporaryDirectory() as tmp:
    cache = Path(tmp)
    for p in primes_in_range(7, 101):
        load_character_data(p, cache)
    out["bytes_7_101"] = sum(cache_path(cache, p).stat().st_size for p in primes_in_range(7, 101))
    for p in PRIMES:
        load_character_data(p, cache)
        path = cache_path(cache, p)
        build = timed(lambda: CharacterData(p))
        load = timed(lambda: CharacterData.from_json_dict(json.loads(_read_gzip(path))))
        out[p] = {"build_audit_s": build, "load_audit_s": load, "build_over_load": build / load, "file_bytes": path.stat().st_size}
print(json.dumps(out))
"""


def env_of(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def run(tree: Path, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """One `python -m dlcusp ARGS` from tree's src/, and its wall time."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "dlcusp", "verify", *args], env=env_of(tree), capture_output=True, text=True)
    return time.perf_counter() - start, done


def alternating(trees: list[Path], runs: int):
    """(run, tree) in the order the probes use: the trees alternate which goes first."""
    for i in range(runs):
        for tree in trees if i % 2 == 0 else trees[::-1]:
            yield i, tree


def stage_probe(trees: list[Path], runs: int, out: dict):
    for p in PRIMES:
        samples = {tree: [] for tree in trees}
        for _, tree in alternating(trees, runs):
            wall, done = run(tree, ["--range", str(p), str(p), "--no-cache", "--format", "json"])
            samples[tree].append({**json.loads(done.stdout)["primes"][0]["stages"], "wall": wall})
        for tree, rows in samples.items():
            out[str(tree)][p] = {stage: round(statistics.median(r[stage] for r in rows), 4) for stage in rows[0]}
    walls = {tree: [] for tree in trees}
    for _, tree in alternating(trees, runs):
        wall, done = run(tree, list(RANGE))
        walls[tree].append((wall, done.returncode))
    for tree, rows in walls.items():
        out[str(tree)]["range_7_600_jobs2"] = {"wall": round(statistics.median(w for w, _ in rows), 3),
                                               "exit_codes": [code for _, code in rows]}


def cache_probe(trees: list[Path], runs: int, out: dict):
    code = f"PRIMES, REPEATS = {CACHE_PRIMES!r}, {CACHE_REPEATS}\n{CACHE_PROBE}"
    samples = {tree: [] for tree in trees}
    for _, tree in alternating(trees, runs):
        done = subprocess.run([sys.executable, "-c", code], env=env_of(tree), capture_output=True, text=True, check=True)
        samples[tree].append(json.loads(done.stdout))
    for tree, rows in samples.items():
        probe = {"bytes_7_101": rows[0]["bytes_7_101"]}
        for p in map(str, CACHE_PRIMES):
            probe[p] = {key: round(statistics.median(r[p][key] for r in rows), 5) for key in rows[0][p]}
        out[str(tree)]["cache"] = probe


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("trees", nargs="+", type=Path)
    args = parser.parse_args()
    trees = [tree.resolve() for tree in args.trees]
    out = {str(tree): {} for tree in trees}
    stage_probe(trees, args.runs, out)
    cache_probe(trees, args.runs, out)
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
