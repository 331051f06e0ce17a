"""Collect the results `run.py` left in perfbench/work/ into one baseline file.

    python3 perfbench/baseline.py perfbench/baselines/NAME.json

For every workload it keeps each run's metrics and samples, the median and
quartiles of each untraced metric over the runs with its spread (quartile
distance over median), and the traced runs' per-prime span times.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

WORK = Path(__file__).resolve().parent / "work"
ENVIRONMENT = ("interpreter", "nproc", "cpu_count", "git_sha", "note", "seconds")


def collect(work: Path = WORK) -> dict:
    environment: dict = {}
    workloads: dict[str, dict] = {}
    for path in sorted(work.glob("*-seed*-trace*.json")):
        doc = json.loads(path.read_text())
        record, result = doc["record"], doc["result"]
        environment = {key: record[key] for key in ENVIRONMENT}
        entry = workloads.setdefault(record["workload"], {"untraced": [], "traced": []})
        run = {key: result[key] for key in ("correct", "attempted", "failed")}
        run["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
        run.update((key, value) for key, value in record.items() if key not in ENVIRONMENT + ("workload", "note"))
        entry["traced" if record["trace"] else "untraced"].append(run)
    for entry in workloads.values():
        runs = entry["untraced"]
        summary = {}
        for name in runs[0]["metrics"] if runs else []:
            values = [r["metrics"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": len(values)}
        entry["summary"] = summary
    return {"environment": environment, "workloads": workloads}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    doc = collect()
    if not doc["workloads"]:
        print(f"no results in {WORK}", file=sys.stderr)
        return 1
    Path(argv[0]).parent.mkdir(parents=True, exist_ok=True)
    Path(argv[0]).write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
