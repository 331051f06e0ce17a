"""In-process tracing of one `dlcusp` command, for the benchmark's per-layer figures.

Run as a script, it calls `dlcusp.cli.main` in this process and, with
`--spans PATH`, records a span for every call of the public functions in
`SPAN_TARGETS` and a count for every call in `COUNT_TARGETS`:

    python3 perfbench/tracer.py [--spans PATH] -- verify --range 7 13 --jobs 1

Each target is wrapped wherever a caller looks it up: every `dlcusp` module
namespace that holds the function, or the class that holds the method.
Spans stay in memory and are written to PATH when the command returns.
A target that no longer exists is listed as absent rather than failing the
run, so the benchmark outlives refactors that delete a layer.

`summarize` turns the written spans into per-layer metrics; a layer's time
is the self time of its spans (duration minus the time of child spans), so
the layer times plus `trace.unattributed_s` add up to the traced wall time.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import sys
import time
from pathlib import Path

# (module, attribute path, span name).  Spans of CharacterData.__init__ are
# recorded only for a fresh build; a cache hit goes through from_json_dict.
SPAN_TARGETS = (
    ("cli", "load_character_data", "cli.load_character_data"),
    ("chartable", "CharacterData.__init__", "chartable.CharacterData"),
    ("chartable", "CharacterData.from_json_dict", "chartable.from_json_dict"),
    ("chartable", "validate_table", "chartable.validate_table"),
    ("group", "build_conjugacy_table", "group.build_conjugacy_table"),
    ("group", "build_subgroup", "group.build_subgroup"),
    ("group", "build_torus", "group.build_torus"),
    ("classfun", "inner_product", "classfun.inner_product"),
    ("cuspform", "decompose_dl", "cuspform.decompose_dl"),
    ("cuspform", "weinstein_character", "cuspform.weinstein_character"),
    ("cuspform", "verify_torus_placement", "cuspform.verify_torus_placement"),
    ("cuspform", "remark_pipeline", "cuspform.remark_pipeline"),
    ("cuspform", "corollary_all_appear", "cuspform.corollary_all_appear"),
    ("cuspform", "linearity_fit", "cuspform.linearity_fit"),
)

# Calls counted without spans: one span per arithmetic operation would
# swamp the run.
COUNT_TARGETS = (
    ("cyclotomic", "CycNumber.__init__", "cyclotomic.values_built"),
    ("cyclotomic", "CycNumber.__mul__", "cyclotomic.mul_calls"),
)

PACKAGE = "dlcusp"
ROOT_SPAN = "cli.main"

# Per-layer metric fed by each span's self time.
SELF_TIME_METRIC = {
    "cli.load_character_data": "cli.cache_io_s",
    "chartable.CharacterData": "chartable.characters_s",
    "chartable.from_json_dict": "chartable.from_json_s",
    "chartable.validate_table": "chartable.validate_s",
    "group.build_conjugacy_table": "group.classes_s",
    "group.build_subgroup": "group.classes_s",
    "group.build_torus": "group.classes_s",
    "classfun.inner_product": "classfun.inner_product_s",
    "cuspform.decompose_dl": "cuspform.decompose_s",
    "cuspform.weinstein_character": "cuspform.weinstein_s",
    "cuspform.verify_torus_placement": "cuspform.placement_s",
    "cuspform.remark_pipeline": "cuspform.remark_s",
    "cuspform.corollary_all_appear": "cuspform.corollary_s",
    "cuspform.linearity_fit": "cuspform.linearity_s",
    ROOT_SPAN: "trace.unattributed_s",
}

# Per-layer metric fed by the number of spans of a name.
CALL_COUNT_METRIC = {"classfun.inner_product": "classfun.inner_product_calls"}

# Structural counts read from each table that validate_table receives.
TABLE_METRICS = ("chartable.common_order", "chartable.table_terms")


def _prime_of(args) -> int | None:
    """The prime a call works on: the first int argument, or the `p` of the
    first argument (or of its conjugacy table) that has one."""
    for a in args:
        if isinstance(a, int) and not isinstance(a, bool):
            return a
        for obj in (a, getattr(a, "table", None)):
            p = getattr(obj, "p", None)
            if isinstance(p, int):
                return p
    return None


def _table_shape(data) -> tuple[int, int]:
    """(common cyclotomic order, total terms) over all irreducible values."""
    order, terms = 1, 0
    for irr in data.irreducibles:
        for v in irr.chi.values:
            order = math.lcm(order, v.order)
            terms += len(v.terms)
    return order, terms


class Tracer:
    """Wraps the targets in place; `uninstall` puts every original back."""

    def __init__(self, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS):
        self.span_targets = span_targets
        self.count_targets = count_targets
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.counts: dict[str, int] = {name: 0 for _, _, name in count_targets}
        self.tables: list[tuple[int, int, int]] = []  # (prime, common order, terms)
        self.absent: list[str] = []
        self._stack: list[tuple[int, int | None]] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open_span(self, prime: int | None = None) -> tuple[int, int | None, int | None]:
        parent, parent_prime = self._stack[-1] if self._stack else (None, None)
        sid = self._next_id
        self._next_id += 1
        prime = prime if prime is not None else parent_prime
        self._stack.append((sid, prime))
        return sid, parent, prime

    def close_span(self, sid: int, name: str, start: float, parent: int | None, prime: int | None):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, prime))

    def _spanned(self, fn, name: str, only_fresh_build: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_fresh_build and kwargs.get("_cached", args[2] if len(args) > 2 else None) is not None:
                return fn(*args, **kwargs)
            sid, parent, prime = self.open_span(_prime_of(args))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(sid, name, start, parent, prime)
            if name == "chartable.validate_table":
                self._record_table(args[0])
            return result

        return wrapper

    def _record_table(self, data):
        try:
            order, terms = _table_shape(data)
        except AttributeError:  # the value representation changed
            self.absent.extend(m for m in TABLE_METRICS if m not in self.absent)
            return
        self.tables.append((data.p, order, terms))

    def _counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        for module, _, _ in self.span_targets + self.count_targets:
            try:
                importlib.import_module(f"{PACKAGE}.{module}")
            except ModuleNotFoundError:
                pass  # its targets are reported absent
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module, attr, name in self.span_targets:
            self._wrap(modules, module, attr, name, lambda fn, n=name, a=attr: self._spanned(fn, n, a == "CharacterData.__init__"))
        for module, attr, name in self.count_targets:
            self._wrap(modules, module, attr, name, lambda fn, n=name: self._counted(fn, n))

    def _wrap(self, modules, module: str, attr: str, name: str, make):
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        raw = vars(owner).get(member) if owner is not None else None
        if raw is None:
            self.absent.append(name)
            return
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        # Every name bound to the original: re-exports in other modules, or
        # aliases such as `__rmul__ = __mul__` on a class.
        namespaces = [owner] if owner_name else modules
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is raw:
                    self._restore.append((ns, key, raw))
                    setattr(ns, key, replacement)

    def uninstall(self):
        for ns, key, raw in reversed(self._restore):
            setattr(ns, key, raw)
        self._restore.clear()

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": s, "name": n, "start": a, "end": b, "parent": par, "prime": p}
                for s, n, a, b, par, p in self.spans
            ],
            "counts": self.counts,
            "tables": [{"p": p, "common_order": o, "terms": t} for p, o, t in self.tables],
            "absent": self.absent,
        }


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the summed duration of its child spans."""
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0) for s in spans}


def layer_metric_names() -> list[str]:
    names = dict.fromkeys(SELF_TIME_METRIC.values())
    names.update(dict.fromkeys(CALL_COUNT_METRIC.values()))
    names.update(dict.fromkeys(TABLE_METRICS))
    names.update(dict.fromkeys(name for _, _, name in COUNT_TARGETS))
    return list(names)


def summarize(dumps: list[dict]) -> tuple[dict[str, float], dict[int, dict[str, float]], list[str]]:
    """Per-layer metrics summed over traced commands, the total duration of
    each span name per prime (child spans included), and the names of absent
    targets and metrics."""
    totals: dict[str, float] = {m: 0 for m in layer_metric_names()}
    by_prime: dict[int, dict[str, float]] = {}
    absent: set[str] = set()
    for d in dumps:
        absent.update(d["absent"])
        own = self_times(d["spans"])
        for s in d["spans"]:
            metric = SELF_TIME_METRIC.get(s["name"])
            if metric is not None:
                totals[metric] += own[s["id"]]
            if s["prime"] is not None:
                row = by_prime.setdefault(s["prime"], {})
                row[s["name"]] = row.get(s["name"], 0.0) + s["end"] - s["start"]
            metric = CALL_COUNT_METRIC.get(s["name"])
            if metric is not None:
                totals[metric] += 1
        for name, n in d["counts"].items():
            totals[name] += n
        for t in d["tables"]:
            totals["chartable.common_order"] = max(totals["chartable.common_order"], t["common_order"])
            totals["chartable.table_terms"] += t["terms"]
    # A metric is absent when every span or count that feeds it is absent.
    feeds: dict[str, list[str]] = {}
    for span, metric in list(SELF_TIME_METRIC.items()) + list(CALL_COUNT_METRIC.items()):
        feeds.setdefault(metric, []).append(span)
    for _, _, name in COUNT_TARGETS:
        feeds.setdefault(name, []).append(name)
    absent.update(m for m, srcs in feeds.items() if all(s in absent for s in srcs))
    if "chartable.validate_table" in absent:
        absent.update(TABLE_METRICS)
    return totals, by_prime, sorted(absent)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, default=None, help="trace and write the spans here")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the dlcusp arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    if args.spans is not None:
        tracer.install()
    from dlcusp.cli import main as cli_main

    sid, parent, prime = tracer.open_span()
    start = time.perf_counter()
    try:
        code = cli_main(cli_args)
    finally:
        tracer.close_span(sid, ROOT_SPAN, start, parent, prime)
        tracer.uninstall()
        if args.spans is not None:
            args.spans.write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
