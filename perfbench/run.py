"""Benchmark of `dlcusp verify`: what a user waits for and pays to prove the theorem.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree; it runs the CLI from `src/` with the
interpreter it was started with.  Each timed invocation is one closed-loop
`python3 -m dlcusp verify ... --format json` in a fresh subprocess: the next
starts when the previous has exited.  Workloads (why each was chosen):

  verify-cold     `verify --range 7 43` with an empty cache: a first-time
                  user's run, through every layer, table build included.
  verify-warm     the same command against the cache a cold run left: the
                  cache load replaces the build.
  verify-large-p  `verify --range 101 101` with an empty cache: the pairing
                  kernel in validate_table dominates.
  verify-jobs2    verify-cold with `--jobs 2`: the only user of the process pool.

The inputs are fixed, so the seed is only recorded: a prime drawn from the
seed would make the spread over seeds measure the prime, not the code.

With `--trace 0` it repeats the workload's command for `--seconds` (at least
once) and reports, for each end-to-end metric, the median over invocations:

  wall_s         wall time of one invocation;
  setup_s        interpreter start plus `import dlcusp.cli`, median of five;
                 for verify-warm, the cold run that fills the cache instead
                 (median of three fills, each of which includes the import);
  peak_rss_mb    peak RSS of the command, from wait4: the largest of the
                 main process and its pool workers;
  written_bytes  bytes in the cache directory after the command, plus the
                 report it printed.

With `--trace 1` it runs the command once untraced, then in-process under
`perfbench/tracer.py` with `--jobs 1`, and reports per-layer metrics
(self times per module, call and structural counts, the pool's busy ratio,
the tracing overhead and the time no layer accounts for).

Every command passes a correctness gate: exit code 0, aggregate "pass", the
report's primes equal the selected primes, and the linearity cell count and
points checked equal those recorded from the seed commit in
`perfbench/expected.json`.  A command that fails the gate counts all its
primes as failed.  The last line of standard output is the JSON result
`{"correct", "attempted", "failed", "metrics"}`; the line before it records
the seed, interpreter, core count, git sha and the samples behind the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402

RANGE = (7, 43)
LARGE_PRIME = 101
WORKLOADS = ("verify-cold", "verify-warm", "verify-large-p", "verify-jobs2")
JOBS = {"verify-jobs2": 2}
IMPORT_SETUPS = 5
WARM_FILLS = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s
NOTE = (
    "wall-clock on a shared host; the host allows no CPU pinning and no "
    "page-cache dropping, so neither was done"
)


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 7), hi + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


def verify_args(lo: int, hi: int, jobs: int) -> list[str]:
    return ["verify", "--range", str(lo), str(hi), "--format", "json", "--jobs", str(jobs)]


def workload_args(workload: str, jobs: int | None = None) -> list[str]:
    """The `dlcusp` arguments of the workload, with its own --jobs unless jobs is given."""
    lo, hi = (LARGE_PRIME, LARGE_PRIME) if workload == "verify-large-p" else RANGE
    return verify_args(lo, hi, jobs or JOBS.get(workload, 1))


def selected_primes(args: list[str]) -> list[int]:
    i = args.index("--range")
    return primes_between(int(args[i + 1]), int(args[i + 2]))


# -- running one command ------------------------------------------------------


@dataclass
class Outcome:
    returncode: int | None  # None: killed at the deadline
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def _stop_group(pgid: int):
    """Kill what is left of a command's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_command(cmd: list[str], env: dict, deadline: float, scratch: Path) -> Outcome:
    """Run cmd in its own process group; time it and take its peak RSS."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return Outcome(None, 0.0, 0.0, "", "deadline reached before start")
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True)
        killed = threading.Event()

        def kill():
            killed.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted, e.g. by SIGTERM: stop the command first
            kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            _stop_group(proc.pid)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _stop_group(proc.pid)
    return Outcome(
        None if killed.is_set() else proc.returncode,
        wall,
        usage.ru_maxrss / 1024,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


def program_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["DLCUSP_CACHE"] = str(cache_dir)
    env["PYTHONHASHSEED"] = "0"
    return env


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# -- correctness gate -----------------------------------------------------------


def gate(outcome: Outcome, args: list[str], expected: dict) -> tuple[dict | None, list[str]]:
    """The parsed report and the reasons the command fails the gate (none if it passes)."""
    if outcome.returncode is None:
        return None, ["timed out"]
    reasons = []
    if outcome.returncode != 0:
        reasons.append(f"exit code {outcome.returncode}: {outcome.stderr.strip()[-300:]}")
    try:
        report = json.loads(outcome.stdout)
    except ValueError:
        return None, reasons + ["report is not JSON"]
    if not isinstance(report, dict):
        return None, reasons + ["report is not a JSON object"]
    if report.get("aggregate") != "pass":
        reasons.append(f"aggregate {report.get('aggregate')!r}")
    primes = selected_primes(args)
    got = [row.get("p") for row in report.get("primes", [])]
    if got != primes:
        reasons.append(f"primes {got} != {primes}")
    i = args.index("--range")
    key = f"{args[i + 1]}-{args[i + 2]}"
    want = expected.get(key)
    lin = report.get("linearity", {})
    if want is None:
        reasons.append(f"no recorded linearity for {key}")
    elif (lin.get("cells"), lin.get("points_checked")) != (want["cells"], want["points_checked"]):
        reasons.append(f"linearity {lin.get('cells')} cells / {lin.get('points_checked')} points != {want}")
    return report, reasons


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, outcome: Outcome, args: list[str], expected: dict) -> dict | None:
        n = len(selected_primes(args))
        report, reasons = gate(outcome, args, expected)
        self.attempted += n
        if reasons:
            self.failed += n
            self.reasons.extend(f"{' '.join(args)}: {r}" for r in reasons)
        return report


# -- one benchmark run ------------------------------------------------------------


class Run:
    def __init__(self, workload: str, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.expected = json.loads((HERE / "expected.json").read_text())
        self.tally = Tally()
        self.warm_cache = scratch / "warm-cache"

    def cache_for(self) -> Path:
        """The cache the next timed command uses: the filled one for
        verify-warm, a fresh empty one otherwise."""
        if self.workload == "verify-warm":
            return self.warm_cache
        cold = self.scratch / "cold-cache"
        shutil.rmtree(cold, ignore_errors=True)
        return cold

    def cli(self, args: list[str], cache: Path) -> tuple[Outcome, dict | None]:
        outcome = run_command([sys.executable, "-m", "dlcusp"] + args, program_env(cache), self.deadline, self.scratch)
        return outcome, self.tally.add(outcome, args, self.expected)

    def setup(self) -> list[float]:
        """Set up several times; the wall times of the set-ups."""
        if self.workload == "verify-warm":
            walls = []
            for _ in range(WARM_FILLS):
                shutil.rmtree(self.warm_cache, ignore_errors=True)
                outcome, _ = self.cli(workload_args(self.workload), self.warm_cache)
                walls.append(outcome.wall_s)
            return walls
        walls = []
        for _ in range(IMPORT_SETUPS):
            outcome = run_command(
                [sys.executable, "-c", "import dlcusp.cli"], program_env(self.scratch / "unused"), self.deadline, self.scratch
            )
            if outcome.returncode != 0:
                self.tally.reasons.append(f"import dlcusp.cli failed: {outcome.stderr.strip()[-300:]}")
            walls.append(outcome.wall_s)
        return walls

    def timed(self, seconds: float) -> tuple[dict[str, float], dict]:
        setup = self.setup()
        args = workload_args(self.workload)
        samples: dict[str, list[float]] = {"wall_s": [], "peak_rss_mb": [], "written_bytes": []}
        cache_bytes = []
        start = time.monotonic()
        while True:
            cache = self.cache_for()
            outcome, _ = self.cli(args, cache)
            cache_bytes.append(dir_bytes(cache) if cache.exists() else 0)
            samples["wall_s"].append(outcome.wall_s)
            samples["peak_rss_mb"].append(outcome.peak_rss_mb)
            samples["written_bytes"].append(cache_bytes[-1] + len(outcome.stdout.encode()))
            elapsed = time.monotonic() - start
            if self.tally.failed or elapsed + statistics.median(samples["wall_s"]) > seconds:
                break
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        metrics["setup_s"] = statistics.median(setup)
        info = {"samples": samples, "setup_samples": setup, "cache_bytes": cache_bytes}
        return metrics, info

    def traced(self) -> tuple[dict[str, float], dict]:
        self.setup()
        jobs = JOBS.get(self.workload, 1)
        args, serial = workload_args(self.workload), workload_args(self.workload, jobs=1)
        outcome, report = self.cli(args, self.cache_for())
        busy = sum(row.get("seconds", 0.0) for row in (report or {}).get("primes", []))
        pool_busy_ratio = busy / (jobs * outcome.wall_s) if report else 0.0
        untraced_wall = outcome.wall_s if jobs == 1 else self.in_process(serial, None)[0].wall_s
        spans_path = self.scratch / "spans.json"
        outcome, report = self.in_process(serial, spans_path)
        report = report or {}
        dumps = [json.loads(spans_path.read_text())] if spans_path.exists() else []
        checks_failed = {"chartable": 0, "cuspform": 0}
        for row in report.get("primes", []):
            for check, ok in row.get("checks", {}).items():
                if not ok:
                    checks_failed["chartable" if check == "table_valid" else "cuspform"] += 1
        metrics, by_prime, absent = tracer.summarize(dumps)
        metrics["cli.cache_hits"] = report.get("cache_hits", 0)
        metrics["cli.pool_busy_ratio"] = pool_busy_ratio
        metrics["chartable.checks_failed"] = checks_failed["chartable"]
        metrics["cuspform.checks_failed"] = checks_failed["cuspform"]
        metrics["trace.overhead_s"] = outcome.wall_s - untraced_wall
        info = {
            "absent": absent,
            "traced_wall_s": outcome.wall_s,
            "untraced_wall_s": untraced_wall,
            "span_s_by_prime": {str(p): row for p, row in sorted(by_prime.items())},
        }
        return metrics, info

    def in_process(self, args: list[str], spans: Path | None) -> tuple[Outcome, dict | None]:
        """The command in-process under the tracer (untraced if spans is None)."""
        cmd = [sys.executable, str(HERE / "tracer.py")] + (["--spans", str(spans)] if spans else []) + ["--"] + args
        outcome = run_command(cmd, program_env(self.cache_for()), self.deadline, self.scratch)
        return outcome, self.tally.add(outcome, args, self.expected)


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "dlcusp" / "cli.py").is_file():
        print(f"no dlcusp source at {SRC}: run from the root of a source tree", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = Run(args.workload, scratch)
        if args.trace:
            metrics, info = run.traced()
        else:
            metrics, info = run.timed(args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "note": NOTE,
        "gate_failures": run.tally.reasons,
        **info,
    }
    result = {
        "correct": not run.tally.reasons,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared_metrics(args.trace).items()},
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1)
    )
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
