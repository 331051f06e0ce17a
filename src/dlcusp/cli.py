"""Command-line verifier: batch runs over prime ranges with cached tables.

Commands: classes, chartable, decompose, verify, corollaries, papertable.
Exit codes: 0 all checks verified, 1 mathematical mismatch, 2 usage error.
Output is deterministic; the timestamp and timing fields are suppressed by
--no-timestamp so that identical configurations give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import zlib
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .chartable import CACHE_SCHEMA, CharacterData, TableValidationError, ensure_audited, validate_table
from .cuspform import (
    READINGS,
    RESIDUES,
    SET_LABELS,
    DecompositionResult,
    VerificationError,
    coefficient_line,
    corollary_all_appear,
    corollary_odd_multiplicity,
    decompose_dl,
    linearity_fit,
    remark_pipeline,
    verify_torus_placement,
    weinstein_character,
)
from .group import build_conjugacy_table
from .numtheory import is_prime, primes_in_range

EXIT_OK = 0
EXIT_MISMATCH = 1

# The largest prime any command accepts.  One prime's time grows about as
# p^2: verify --range p p --no-cache took 0.21-0.34 s and 17.5 MB peak RSS
# at p = 199, and 0.93-1.51 s and 26.6 MB at p = 599 (CPython 3.11, a shared
# 2-core host, ten runs each).  Above the bound, a typo such as --range 7
# 1000000000000 is refused before any prime search instead of running for days.
MAX_PRIME = 600

# The most bytes a cache load reads from a file, and the most it inflates:
# the document at p = 599 is 0.31 MB on disk and 1.1 MB inflated, so a file
# past the bound is not a document, and it is rebuilt without being read in full.
MAX_CACHE_BYTES = 16 << 20


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "))


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# -- cache ---------------------------------------------------------------------


def default_cache_dir() -> Path:
    env = os.environ.get("DLCUSP_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "dlcusp"


def cache_path(cache_dir: Path, p: int) -> Path:
    return cache_dir / f"sl2_p{p}.json.gz"


def load_character_data(p: int, cache_dir: Path | None) -> tuple[CharacterData, bool]:
    """Build or load the per-prime tables; invalid cache entries are rebuilt,
    and a cache that cannot be read or written is done without.  The table
    is not audited here: decompose_dl audits every table it decomposes
    (chartable.ensure_audited), and chartable audits the table it prints."""
    if cache_dir is not None:
        path = cache_path(cache_dir, p)
        if path.is_file():
            try:
                doc = json.loads(_read_gzip(path))
                if isinstance(doc, dict) and doc.get("schema") == CACHE_SCHEMA and doc.get("p") == p:
                    return CharacterData.from_json_dict(doc), True
            except (ValueError, KeyError, IndexError, TypeError, AttributeError, OSError, RecursionError, zlib.error):
                pass  # a malformed or stale document of any shape is rebuilt below
    data = CharacterData(p)
    if cache_dir is not None:
        # level 1 and a zero header mtime: fast, and the same table gives the same bytes
        deflate = zlib.compressobj(1, zlib.DEFLATED, 31)
        text = json.dumps(data.to_cache_dict(), separators=(",", ":")).encode()
        try:
            _atomic_write(cache_path(cache_dir, p), deflate.compress(text) + deflate.flush())
        except OSError:
            pass  # like an unreadable cache: the table was built, so go on without the file
    return data, False


def _read_gzip(path: Path) -> bytes:
    """The contents of the one gzip stream that is the file at path.  At
    most MAX_CACHE_BYTES are read and at most as many inflated; a file past
    the bound, a stream that inflates past it, a truncated stream and bytes
    after the stream raise ValueError, and a corrupt stream zlib.error."""
    with open(path, "rb") as fh:
        packed = fh.read(MAX_CACHE_BYTES + 1)
    if len(packed) > MAX_CACHE_BYTES:
        raise ValueError(f"{path} holds more than {MAX_CACHE_BYTES} bytes")
    inflate = zlib.decompressobj(31)
    text = inflate.decompress(packed, MAX_CACHE_BYTES)
    if not inflate.eof or inflate.unused_data:
        raise ValueError(f"{path} is not one whole gzip stream of at most {MAX_CACHE_BYTES} bytes")
    return text


def _atomic_write(path: Path, blob: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- shared helpers --------------------------------------------------------------


def _require_prime(parser: argparse.ArgumentParser, p: int):
    if p > MAX_PRIME:
        parser.error(f"p must be at most {MAX_PRIME}, the largest supported prime")
    if not is_prime(p) or p < 7:
        parser.error("p must be prime >= 7")


def _selected_primes(parser, args) -> list[int]:
    lo, hi = args.range
    if lo > hi:
        parser.error("range minimum exceeds maximum")
    if hi > MAX_PRIME:
        parser.error(f"range maximum exceeds {MAX_PRIME}, the largest supported prime")
    primes = [p for p in primes_in_range(lo, hi) if p >= 7]
    if args.mod12 is not None:
        if args.mod12 % 12 not in (1, 5, 7, 11):
            parser.error("--mod12 must be 1, 5, 7, or 11")
        primes = [p for p in primes if p % 12 == args.mod12 % 12]
    if not primes:
        parser.error("no primes >= 7 in the selected range")
    return primes


def _cache_dir_from_args(args) -> Path | None:
    if args.no_cache:
        return None
    if args.cache_dir:
        return Path(args.cache_dir)
    return default_cache_dir()


def _decomposition_reasons(data: CharacterData, res: DecompositionResult) -> dict[str, str]:
    """Why a decomposition is not exact or does not match the table, by the
    check that fails: the first class where the rebuild differs from s, and
    the first mismatch with the coefficient table; empty where both hold."""
    reasons = {}
    if not res.exact:
        i = res.rebuild_differs_at
        reasons["exact"] = f"rebuild differs from s at class {i} ({data.table.classes[i].kind}) at p={data.p}"
    if res.mismatches:
        reasons["table_match"] = f"first mismatch at p={data.p}: {res.mismatches[0]}"
    return reasons


def _reason_text(reasons: dict[str, str]) -> str:
    return "; ".join(f"{check}: {reason}" for check, reason in sorted(reasons.items()))


def _decomposition_rows(res: DecompositionResult) -> list[dict]:
    rows = []
    for (torus, k) in sorted(res.coefficients):
        rows.append(
            {
                "torus": torus,
                "k_orbit": k,
                "set_label": res.labels[(torus, k)].label,
                "c": str(res.coefficients[(torus, k)]),
            }
        )
    return rows


# -- classes / chartable -----------------------------------------------------------


def cmd_classes(parser, args) -> int:
    p = args.p
    _require_prime(parser, p)
    table = build_conjugacy_table(p)
    doc = {
        "p": p,
        "group_order": table.group_order,
        "class_count": len(table),
        "classes": [
            {
                "index": i,
                "kind": r.kind,
                "trace": r.trace,
                "size": r.size,
                "centralizer_order": r.centralizer_order,
                "representative": list(r.rep.entries()),
                "inverse_class": r.inverse_class,
            }
            for i, r in enumerate(table.classes)
        ],
    }
    if args.format == "json":
        print(_json_dump(doc))
    else:
        print(f"SL2(F_{p}): order {table.group_order}, {len(table)} conjugacy classes")
        for c in doc["classes"]:
            a, b, cc, d = c["representative"]
            print(
                f"  [{c['index']:3d}] {c['kind']:<20} trace={c['trace']:<4} size={c['size']:<7} "
                f"centralizer={c['centralizer_order']:<7} rep=[[{a},{b}],[{cc},{d}]]"
            )
        print(f"  class equation: {' + '.join(str(c['size']) for c in doc['classes'])} = {table.group_order}")
    return EXIT_OK


def cmd_chartable(parser, args) -> int:
    p = args.p
    _require_prime(parser, p)
    data, _ = load_character_data(p, _cache_dir_from_args(args))
    ensure_audited(data)
    if args.format == "json":
        print(_json_dump(data.to_json_dict()))
        return EXIT_OK
    print(f"irreducible characters of SL2(F_{p}): {len(data.irreducibles)}")
    for irr in data.irreducibles:
        print(f"  {irr.name:<28} degree {irr.degree}")
        print("    " + " | ".join(v.to_text() for v in irr.chi.values))
    return EXIT_OK


# -- decompose ----------------------------------------------------------------------


def _decompose_doc(data: CharacterData, reading: str) -> dict:
    res = decompose_dl(data, reading=reading)
    return {
        "p": data.p,
        "residue": data.p % 12,
        "reading": reading,
        "coefficients": _decomposition_rows(res),
        "exact": res.exact,
        "table_match": res.table_match,
        "mismatches": res.mismatches,
    }


def cmd_decompose(parser, args) -> int:
    p = args.p
    _require_prime(parser, p)
    data, _ = load_character_data(p, _cache_dir_from_args(args))
    readings = list(READINGS) if args.reading == "both" else [args.reading]
    docs = [_decompose_doc(data, r) for r in readings]
    if args.reading == "both":
        out = {
            "p": p,
            "residue": p % 12,
            "readings": {d["reading"]: d for d in docs},
            "matching_readings": [d["reading"] for d in docs if d["exact"] and d["table_match"]],
        }
    else:
        out = docs[0]
    if args.format == "json":
        print(_json_dump(out))
    elif args.format == "csv":
        print("p,residue,reading,torus,k_orbit,set_label,c,exact,table_match")
        for d in docs:
            for row in d["coefficients"]:
                print(
                    f"{p},{p % 12},{d['reading']},{row['torus']},{row['k_orbit']},"
                    f"{row['set_label']},{row['c']},{d['exact']},{d['table_match']}"
                )
    else:
        for d in docs:
            print(f"p={p} (residue {p % 12} mod 12), reading={d['reading']}")
            print(f"  exact reconstruction: {d['exact']}   coefficient table match: {d['table_match']}")
            for row in d["coefficients"]:
                star = "" if row["c"] == "0" else "  *"
                print(f"  {row['torus']:<9} k={row['k_orbit']:<3} set {row['set_label']}  c = {row['c']}{star}")
            for mm in d["mismatches"]:
                print(f"  MISMATCH {mm}")
    if args.reading == "both":
        ok = bool(out["matching_readings"]) and all(d["exact"] for d in docs)
    else:
        ok = docs[0]["exact"] and docs[0]["table_match"]
    return EXIT_OK if ok else EXIT_MISMATCH


# -- verify -------------------------------------------------------------------------


_CHECKS = ("table_valid", "torus_placement", "degree_identity", "exact", "table_match", "remark_oracle")


def _check_names(p: int) -> tuple[str, ...]:
    """The checks verify makes at p: Corollary 2 holds only from p = 23 on."""
    return _CHECKS + ("corollary_2",) if p >= 23 else _CHECKS


def _verify_one(p: int, cache_dir_str: str | None, reading: str) -> dict:
    """Per-prime end-to-end verification; worker for the process pool."""
    cache_dir = Path(cache_dir_str) if cache_dir_str else None
    t0 = time.monotonic()
    names = _check_names(p)
    checks: dict[str, bool] = {}
    reasons: dict[str, str] = {}
    stages: dict[str, float] = {}

    def run(names: tuple[str, ...], stage: str, fn, *args):
        """fn(*args), timed into stages, or None once the named checks have
        failed with the reason: the text of a mismatch, or "internal: <stage>:
        <type>: <text>" for any other exception, so that a bug fails only the
        checks it hit and the report tells it apart from a mathematical mismatch."""
        start = time.monotonic()
        try:
            return fn(*args)
        except (TableValidationError, VerificationError) as exc:
            reason = str(exc)
        except Exception as exc:
            reason = f"internal: {stage}: {type(exc).__name__}: {exc}"
        finally:
            stages[stage] = round(time.monotonic() - start, 4)
        for name in names:
            checks[name] = False
            reasons[name] = reason
        return None

    def skipped(stage: str) -> None:
        """Fail every check not yet made, as skipped because stage failed."""
        for name in names:
            if name not in checks:
                checks[name] = False
                reasons[name] = f"skipped: {stage} failed"

    def check(data: CharacterData) -> DecompositionResult | None:
        """Every check of one table, in order; the decomposition, if made."""
        valid = run(("table_valid",), "validate_table", validate_table, data) is not None
        if valid:
            checks["table_valid"] = True
        if run(("torus_placement",), "verify_torus_placement", verify_torus_placement, data) is not None:
            checks["torus_placement"] = True
        s = run(("degree_identity",), "weinstein_character", weinstein_character, data)
        if s is not None:
            checks["degree_identity"] = True
        if not valid or s is None:  # placement and the degrees read no character; a decomposition needs both
            return skipped("weinstein_character" if valid else "validate_table")
        res = run(("exact", "table_match", "remark_oracle"), "decompose_dl", decompose_dl, data, s, reading)
        if res is None:
            return skipped("decompose_dl")
        checks["exact"] = res.exact
        checks["table_match"] = res.table_match
        reasons.update(_decomposition_reasons(data, res))
        remark = run(("remark_oracle",), "remark_pipeline", remark_pipeline, data)
        if remark is not None:
            checks["remark_oracle"] = remark == res.coefficients
            differ = [key for key in sorted(remark | res.coefficients) if remark.get(key) != res.coefficients.get(key)]
            if differ:
                key = differ[0]
                reasons["remark_oracle"] = (f"first difference at {key}: remark pipeline {remark.get(key)}, "
                                            f"decompose_dl {res.coefficients.get(key)} at p={p}")
        if "corollary_2" in names:
            appearance = run(("corollary_2",), "corollary_all_appear", corollary_all_appear, data, res)
            if appearance is not None:
                checks["corollary_2"] = appearance.complete
        return res

    # a table that cannot be had fails every check of its prime; the other
    # primes are still verified
    loaded = run(names, "load_character_data", load_character_data, p, cache_dir)
    data, hit = loaded if loaded is not None else (None, False)
    res = check(data) if data is not None else None
    row = {
        "p": p,
        "residue": p % 12,
        "cache_hit": hit,
        "checks": checks,
        "status": "pass" if all(checks.values()) else "fail",
        "mismatches": res.mismatches if res is not None else [],
        "seconds": round(time.monotonic() - t0, 3),
        "stages": stages,  # seconds per stage, by the name its reasons use
        "decomposition": res,  # for the linearity fit; not part of the report
    }
    if reasons:  # a failed check's exception text; passing rows stay as they were
        row["reasons"] = reasons
    return row


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, which taskset and cgroup cpusets narrow, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shares(primes: list[int], workers: int) -> list[list[int]]:
    """primes in workers shares of about equal cost, share 0 the parent's.

    Every stage of _verify_one grows as about p^2, so a prime is estimated
    to cost p^2; the primes go largest first, each to the share cheapest so
    far (the lowest index on a tie), so the small ones even out the ends."""
    shares: list[list[int]] = [[] for _ in range(workers)]
    costs = [0] * workers
    for p in sorted(primes, reverse=True):
        i = costs.index(min(costs))
        shares[i].append(p)
        costs[i] += p * p
    return shares


def _run_pool(primes: list[int], jobs: int, cache_dir: Path | None, reading: str, done=lambda r: r) -> list[dict]:
    """_verify_one at every prime, in order of p; done sees each row as the
    parent gets it: its own share's as each prime finishes, then each child's.

    The parent verifies share 0 itself and forks one child per other share.
    A child sends its rows through a pipe, pickled once at the end, and leaves
    through os._exit, so it never runs the parent's cleanup or flushes the
    parent's buffers.  A child that fails, or whose rows do not unpickle, is
    an error naming its primes, and no child outlives the call."""
    cd = str(cache_dir) if cache_dir else None
    # every worker starts up front, so never more than there is work or CPUs for
    workers = min(jobs, len(primes), _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [done(_verify_one(p, cd, reading)) for p in primes]
    # imported here, so that a serial run never imports them
    import pickle
    import signal

    shares = _shares(primes, workers)
    children = {}  # pid -> (the read end of its pipe, its share), until reaped
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    blob = pickle.dumps([_verify_one(p, cd, reading) for p in share])
                    with open(w, "wb") as pipe:
                        pipe.write(blob)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children[pid] = (open(r, "rb"), share)
        rows = [done(_verify_one(p, cd, reading)) for p in shares[0]]
        for pid, (pipe, share) in list(children.items()):
            with pipe:
                blob = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            worker = f"the worker for primes {', '.join(map(str, share))}"
            if status:
                raise RuntimeError(f"{worker} died of signal {-status}" if status < 0
                                   else f"{worker} exited with status {status}")
            try:
                got = pickle.loads(blob)
            except Exception as exc:
                raise RuntimeError(f"{worker} sent rows that do not unpickle: {type(exc).__name__}: {exc}") from exc
            rows += [done(row) for row in got]
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return sorted(rows, key=lambda r: r["p"])


def _progress(total: int):
    """The done callback of _run_pool: one line per finished prime on stderr
    when stderr is a terminal, and nothing otherwise, so that piped and
    redirected runs stay as they were; stdout is never touched."""
    if not sys.stderr.isatty():
        return lambda row: row
    finished = []

    def done(row: dict) -> dict:
        finished.append(row["p"])
        print(f"verify: p={row['p']} {row['status']} in {row['seconds']} s ({len(finished)}/{total})",
              file=sys.stderr, flush=True)
        return row

    return done


def cmd_verify(parser, args) -> int:
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    primes = _selected_primes(parser, args)
    rows = _run_pool(primes, args.jobs, _cache_dir_from_args(args), args.reading, _progress(len(primes)))
    lin = linearity_fit([r["decomposition"] for r in rows if r["decomposition"] is not None])
    aggregate = all(r["status"] == "pass" for r in rows) and lin.ok
    report = {
        "schema": "dlcusp-verify/1",
        "version": __version__,
        "range": list(args.range),
        "mod12": args.mod12,
        "reading": args.reading,
        "primes": rows,
        "linearity": {"ok": lin.ok, "cells": len(lin.fits), "points_checked": lin.checked, "failures": lin.failures},
        "aggregate": "pass" if aggregate else "fail",
        "cache_hits": sum(1 for r in rows if r["cache_hit"]),
    }
    if not args.no_timestamp:
        report["timestamp"] = _timestamp()
    else:
        for r in rows:
            r.pop("seconds", None)
            r.pop("stages", None)
    for r in rows:
        r.pop("decomposition", None)
    if args.format == "json":
        print(_json_dump(report))
    else:
        for r in rows:
            flags = " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in sorted(r["checks"].items()))
            tm = f" ({r['seconds']}s)" if "seconds" in r else ""
            print(f"p={r['p']:3d} [{r['status']}] {flags}{tm}")
            for check, reason in sorted(r.get("reasons", {}).items()):
                print(f"      reason {check}: {reason}")
            for mm in r["mismatches"]:
                print(f"      diff: {mm}")
        print(f"linearity: {'ok' if lin.ok else 'FAIL'} ({len(lin.fits)} cells, {lin.checked} extra points)")
        for f in lin.failures:
            reason = f.get("reason") or f"expected {f['expected']}, computed {f['computed']}"
            print(f"      failure {'/'.join(map(str, f['cell']))} at p={f.get('p', '-')}: {reason}")
        print(f"aggregate: {report['aggregate']} ({report['cache_hits']} cache hits)")
    return EXIT_OK if aggregate else EXIT_MISMATCH


# -- corollaries ----------------------------------------------------------------------


def cmd_corollaries(parser, args) -> int:
    primes = _selected_primes(parser, args)
    cache_dir = _cache_dir_from_args(args)
    out_rows = []
    ok = True
    for p in primes:
        data, hit = load_character_data(p, cache_dir)
        res = decompose_dl(data)
        row: dict = {"p": p, "cache_hit": hit}
        if not (res.exact and res.table_match):
            row["decomposition"] = "fail"
            row["reasons"] = _decomposition_reasons(data, res)
            ok = False
        try:
            app = corollary_all_appear(data, res)
            row["all_nontrivial_appear"] = app.complete if p >= 23 else None
            row["missing"] = app.missing
            row["trivial_absent"] = app.trivial_absent
        except VerificationError as exc:
            row["all_nontrivial_appear"] = False
            row["error"] = str(exc)
            ok = False
        if p % 24 == 23:
            try:
                rep = corollary_odd_multiplicity(data, res)
                row["odd_multiplicities"] = [str(m) for m in rep.multiplicities]
            except VerificationError as exc:
                row["odd_multiplicities"] = None
                row["error"] = str(exc)
                ok = False
        out_rows.append(row)
    report = {"schema": "dlcusp-corollaries/1", "version": __version__, "primes": out_rows,
              "aggregate": "pass" if ok else "fail"}
    if not args.no_timestamp:
        report["timestamp"] = _timestamp()
    if args.format == "json":
        print(_json_dump(report))
    else:
        for row in out_rows:
            bits = [f"decomposition=FAIL ({_reason_text(row['reasons'])})"] if "reasons" in row else []
            if row.get("all_nontrivial_appear") is not None:
                bits.append(f"all-appear={'ok' if row['all_nontrivial_appear'] else 'FAIL'}")
            if row.get("missing"):
                bits.append(f"missing={','.join(row['missing'])}")
            if "odd_multiplicities" in row:
                bits.append(f"odd-multiplicities={row['odd_multiplicities']}")
            bits.append(f"trivial-absent={'ok' if row.get('trivial_absent') else 'FAIL'}")
            print(f"p={row['p']:3d} " + "  ".join(bits))
        print(f"aggregate: {report['aggregate']}")
    return EXIT_OK if ok else EXIT_MISMATCH


# -- papertable ------------------------------------------------------------------------


def render_cell(a: Fraction, b: Fraction) -> str:
    """Render c = a p + b as the canonical "(p-r)/12 + k" cell text, or as
    "a*p + b" where no such text is c: |a| is not 1/12, or a r + b is an
    integer at no residue r."""
    r = next((r for r in RESIDUES if (a * r + b).denominator == 1), None)
    if abs(a) != Fraction(1, 12) or r is None:
        return f"{a}*p + {b}"
    offset, core = int(a * r + b), f"{'-' if a < 0 else ''}(p-{r})/12"
    return f"{core} {'+' if offset > 0 else '-'} {abs(offset)}" if offset else core


def _table_markdown(cell) -> str:
    """The coefficient table with cell(label, torus, residue) in each cell."""
    lines = ["| set | 1 mod 12 | 5 mod 12 | 7 mod 12 | 11 mod 12 |", "| --- | --- | --- | --- | --- |"]
    for torus in ("split", "nonsplit"):
        for label in SET_LABELS:
            cells = " | ".join(cell(label, torus, r) for r in RESIDUES)
            lines.append(f"| {label}_{'s' if torus == 'split' else 'a'} | {cells} |")
    return "\n".join(lines)


def builtin_table_markdown() -> str:
    return _table_markdown(lambda label, torus, r: render_cell(*coefficient_line(label, torus, r)))


def computed_table_markdown(results: list[DecompositionResult]) -> str:
    """Regenerate the table from two-prime linear fits of computed coefficients.

    Cells whose set is empty at that residue at every prime of the range
    inherit the A-row fit of the same torus (the computed coefficients
    collapse onto A there).  A cell with data at one prime only cannot be
    fitted, and raises rather than inherit.
    """
    lin = linearity_fit(results)
    if not lin.ok:
        raise VerificationError(f"linearity failures: {lin.failures}")

    def cell(label: str, torus: str, r: int) -> str:
        key = (label, torus, r)
        if key not in lin.fits and key not in lin.single:
            key = ("A", torus, r)  # no data at any prime: the empty-set convention
        if key in lin.single:
            raise VerificationError(f"cell ({key[0]},{torus},{r}) has data only at p={lin.single[key]}, too few to fit")
        if key not in lin.fits:
            raise VerificationError(f"no data to fit cell ({label},{torus},{r})")
        return render_cell(*lin.fits[key])

    return _table_markdown(cell)


def cmd_papertable(parser, args) -> int:
    primes = _selected_primes(parser, args)
    cache_dir = _cache_dir_from_args(args)
    results = []
    for p in primes:
        data, _ = load_character_data(p, cache_dir)
        res = decompose_dl(data)
        if not (res.exact and res.table_match):
            print(f"decomposition failed at p={p}: {_reason_text(_decomposition_reasons(data, res))}", file=sys.stderr)
            return EXIT_MISMATCH
        results.append(res)
    computed = computed_table_markdown(results)
    builtin = builtin_table_markdown()
    print(computed)
    if computed != builtin:
        print("computed table differs from the built-in table", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# -- entry point -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlcusp",
        description="Exact verifier for the Deligne-Lusztig decomposition of the weight-2 cusp-form character of SL2(F_p).",
    )
    parser.add_argument("--version", action="version", version=f"dlcusp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_options(sp, cache: bool = True, prime_range: bool = False, timestamp: bool = False):
        """The shared options a command reads, and no others."""
        if prime_range:
            sp.add_argument("--range", nargs=2, type=int, default=(7, 101), metavar=("MIN", "MAX"))
            sp.add_argument("--mod12", type=int, default=None, help="restrict to primes with this residue mod 12")
        if cache:
            sp.add_argument("--cache-dir", default=None, help="character-table cache directory (env DLCUSP_CACHE)")
            sp.add_argument("--no-cache", action="store_true", help="disable the on-disk cache")
        if timestamp:
            sp.add_argument("--no-timestamp", action="store_true", help="suppress timestamp/timing for byte-stable output")

    sp = sub.add_parser("classes", help="list the conjugacy classes of SL2(F_p)")
    sp.add_argument("p", type=int)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("chartable", help="print or serialize the full character table")
    sp.add_argument("p", type=int)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    add_options(sp)

    sp = sub.add_parser("decompose", help="decompose the cusp-form character at one prime")
    sp.add_argument("p", type=int)
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sp.add_argument("--reading", choices=READINGS + ("both",), default="primary")
    add_options(sp)

    sp = sub.add_parser("verify", help="end-to-end verification over a prime range")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--reading", choices=READINGS, default="primary")
    sp.add_argument("--jobs", type=int, default=1)
    add_options(sp, prime_range=True, timestamp=True)

    sp = sub.add_parser("corollaries", help="appearance and odd-multiplicity checks over a range")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    add_options(sp, prime_range=True, timestamp=True)

    sp = sub.add_parser("papertable", help="regenerate the coefficient table from computation")
    add_options(sp, prime_range=True)

    return parser


_COMMANDS = {
    "classes": cmd_classes,
    "chartable": cmd_chartable,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
    "corollaries": cmd_corollaries,
    "papertable": cmd_papertable,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](parser, args)
    except (TableValidationError, VerificationError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except SystemExit:
        raise
    except Exception as exc:  # internal failure still counts as a mismatch, never a new code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
