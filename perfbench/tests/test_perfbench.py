"""Tests of the benchmark itself: the correctness gate, absent layers, and
that traced counts repeat exactly."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
if str(BENCH.parent / "src") not in sys.path:
    sys.path.insert(0, str(BENCH.parent / "src"))

import run as bench  # noqa: E402
import tracer  # noqa: E402

ARGS_7_11 = bench.verify_args(7, 11, jobs=1)
LINEARITY_7_11 = {"7-11": {"cells": 0, "points_checked": 0}}


def _report(statuses: dict[int, str]) -> str:
    return json.dumps(
        {
            "aggregate": "pass" if all(s == "pass" for s in statuses.values()) else "fail",
            "primes": [{"p": p, "status": s} for p, s in statuses.items()],
            "linearity": {"cells": 0, "points_checked": 0},
        }
    )


def test_passing_command_counts_no_failure():
    tally = bench.Tally()
    tally.add(bench.Outcome(0, 1.0, 20.0, _report({7: "pass", 11: "pass"}), ""), ARGS_7_11, LINEARITY_7_11)
    assert (tally.attempted, tally.failed, tally.reasons) == (2, 0, [])


@pytest.mark.parametrize(
    "outcome",
    [
        bench.Outcome(1, 1.0, 20.0, _report({7: "pass", 11: "fail"}), ""),  # a failing prime
        bench.Outcome(1, 1.0, 20.0, "", "internal error: boom"),  # exit code 1, no report
        bench.Outcome(None, 170.0, 0.0, "", ""),  # killed at the deadline
        bench.Outcome(0, 1.0, 20.0, _report({7: "pass"}), ""),  # a prime missing from the report
    ],
    ids=["failing-prime", "exit-1", "timeout", "missing-prime"],
)
def test_gate_failure_counts_every_prime_failed(outcome):
    tally = bench.Tally()
    tally.add(outcome, ARGS_7_11, LINEARITY_7_11)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.reasons


def test_linearity_counts_must_match_the_recorded_ones():
    tally = bench.Tally()
    tally.add(bench.Outcome(0, 1.0, 20.0, _report({7: "pass", 11: "pass"}), ""), ARGS_7_11,
              {"7-11": {"cells": 1, "points_checked": 0}})
    assert tally.failed == 2 and "linearity" in tally.reasons[0]


def test_missing_function_is_reported_absent(monkeypatch):
    import dlcusp.cli
    import dlcusp.cuspform

    monkeypatch.delattr(dlcusp.cuspform, "remark_pipeline")
    original = dlcusp.cli.validate_table
    t = tracer.Tracer(span_targets=tracer.SPAN_TARGETS + (("no_such_module", "f", "gone.f"),))
    t.install()
    try:
        assert dlcusp.cli.validate_table is not original
    finally:
        t.uninstall()
    assert dlcusp.cli.validate_table is original
    assert {"cuspform.remark_pipeline", "gone.f"} <= set(t.absent)
    metrics, _, absent = tracer.summarize([t.dump()])
    assert "cuspform.remark_s" in absent and metrics["cuspform.remark_s"] == 0
    assert "chartable.validate_s" not in absent


def test_self_times_exclude_child_spans():
    spans = [
        {"id": 0, "name": tracer.ROOT_SPAN, "start": 0.0, "end": 10.0, "parent": None, "prime": None},
        {"id": 1, "name": "chartable.validate_table", "start": 1.0, "end": 4.0, "parent": 0, "prime": 7},
        {"id": 2, "name": "classfun.inner_product", "start": 2.0, "end": 3.0, "parent": 1, "prime": 7},
    ]
    dump = {"spans": spans, "counts": {}, "tables": [], "absent": []}
    metrics, by_prime, _ = tracer.summarize([dump])
    assert metrics["trace.unattributed_s"] == 7.0
    assert metrics["chartable.validate_s"] == 2.0
    assert metrics["classfun.inner_product_s"] == 1.0
    assert metrics["classfun.inner_product_calls"] == 1
    assert by_prime == {7: {"chartable.validate_table": 3.0, "classfun.inner_product": 1.0}}


def _traced_counts(tmp_path: Path, n: int) -> dict:
    scratch = tmp_path / f"run{n}"
    scratch.mkdir()
    spans = scratch / "spans.json"
    args = bench.verify_args(7, 13, jobs=1)
    cmd = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans), "--"] + args
    outcome = bench.run_command(cmd, bench.program_env(scratch / "cache"), time.monotonic() + 120, scratch)
    assert outcome.returncode == 0, outcome.stderr
    assert json.loads(outcome.stdout)["aggregate"] == "pass"
    dump = json.loads(spans.read_text())
    metrics, _, absent = tracer.summarize([dump])
    assert absent == []
    names = sorted(s["name"] for s in dump["spans"])
    return {k: v for k, v in metrics.items() if not k.endswith("_s")} | {"span_names": names}


def test_two_traced_runs_give_identical_counts(tmp_path):
    first, second = _traced_counts(tmp_path, 1), _traced_counts(tmp_path, 2)
    assert first == second
    assert first["cyclotomic.values_built"] > 0 and first["classfun.inner_product_calls"] > 0
