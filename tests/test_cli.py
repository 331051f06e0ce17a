import contextlib
import gzip
import json
import re
import signal
from fractions import Fraction

import pytest

from dlcusp.chartable import CharacterData, validate_table
from dlcusp.cli import builtin_table_markdown, load_character_data, main, render_cell

import cachefiles
import propchecks

# one shared cache directory keeps the CLI tests from rebuilding tables
_CACHE = None


@pytest.fixture
def cache_dir(tmp_path_factory):
    global _CACHE
    if _CACHE is None:
        _CACHE = tmp_path_factory.mktemp("dlcusp-cache")
    return _CACHE


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classes_7(capsys, monkeypatch, cache_dir):
    monkeypatch.setenv("DLCUSP_CACHE", str(cache_dir))
    code, out = run(capsys, "classes", "7")
    assert code == 0
    sizes = sorted(int(line.split("size=")[1].split()[0]) for line in out.splitlines() if "size=" in line)
    assert sizes == [1, 1, 24, 24, 24, 24, 42, 42, 42, 56, 56]
    assert "= 336" in out


def test_classes_json(capsys, monkeypatch, cache_dir):
    monkeypatch.setenv("DLCUSP_CACHE", str(cache_dir))
    code, out = run(capsys, "classes", "11", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["class_count"] == 15 and doc["group_order"] == 1320
    assert sum(c["size"] for c in doc["classes"]) == 1320


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chartable", "6"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "prime" in err


def test_chartable_json_round_trip(capsys, cache_dir):
    """The table loaded from the cache file prints as chartable printed it."""
    code, out = run(capsys, "chartable", "7", "--format", "json", "--cache-dir", str(cache_dir))
    assert code == 0
    doc = json.loads(out)
    data, hit = load_character_data(7, cache_dir)
    assert hit
    report = validate_table(data)
    assert report["orthonormal"]
    assert data.to_json_dict() == doc


def test_decompose_7_json(capsys, cache_dir):
    code, out = run(capsys, "decompose", "7", "--format", "json", "--cache-dir", str(cache_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] and doc["table_match"] and doc["residue"] == 7
    nonzero = [row for row in doc["coefficients"] if row["c"] != "0"]
    assert nonzero == [{"torus": "nonsplit", "k_orbit": 4, "set_label": "C", "c": "-1"}]


def test_decompose_csv(capsys, cache_dir):
    code, out = run(capsys, "decompose", "11", "--format", "csv", "--cache-dir", str(cache_dir))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,residue,reading,torus,k_orbit,set_label,c,exact,table_match"
    assert "11,11,primary,nonsplit,6,D,-1,True,True" in lines


def test_decompose_alternative_reading_mismatch_exits_1(capsys, cache_dir):
    code, out = run(capsys, "decompose", "7", "--reading", "alternative", "--cache-dir", str(cache_dir))
    assert code == 1
    assert "MISMATCH" in out


def test_decompose_both_readings(capsys, cache_dir):
    # p = 23: both subgroups land in the same torus, so the readings coincide
    code, out = run(capsys, "decompose", "23", "--reading", "both", "--format", "json", "--cache-dir", str(cache_dir))
    assert code == 0
    assert json.loads(out)["matching_readings"] == ["primary", "alternative"]
    # p = 7: a single embedded subgroup separates them; only primary survives
    code, out = run(capsys, "decompose", "7", "--reading", "both", "--format", "json", "--cache-dir", str(cache_dir))
    assert code == 0
    assert json.loads(out)["matching_readings"] == ["primary"]


def test_verify_range(capsys, cache_dir):
    code, out = run(capsys, "verify", "--range", "7", "23", "--cache-dir", str(cache_dir), "--no-timestamp")
    assert code == 0
    assert "aggregate: pass" in out


def test_verify_json_deterministic_and_cache_neutral(capsys, tmp_path, cache_dir):
    args = ("verify", "--range", "7", "19", "--format", "json", "--no-timestamp")
    code1, cold = run(capsys, *args, "--no-cache")
    code2, warm = run(capsys, *args, "--cache-dir", str(cache_dir))
    code3, warm2 = run(capsys, *args, "--cache-dir", str(cache_dir))
    assert code1 == code2 == code3 == 0
    doc_cold, doc_warm, doc_warm2 = json.loads(cold), json.loads(warm), json.loads(warm2)
    assert doc_warm2["cache_hits"] == len(doc_warm2["primes"])
    for doc in (doc_cold, doc_warm, doc_warm2):
        doc.pop("cache_hits")
        for row in doc["primes"]:
            row.pop("cache_hit")
    assert doc_cold == doc_warm == doc_warm2
    assert warm2 == run(capsys, *args, "--cache-dir", str(cache_dir))[1]  # byte-identical rerun


def test_verify_mod12_filter(capsys, cache_dir):
    code, out = run(capsys, "verify", "--range", "7", "60", "--mod12", "11", "--format", "json",
                    "--cache-dir", str(cache_dir), "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert [row["p"] for row in doc["primes"]] == [11, 23, 47, 59]


@pytest.fixture
def usable_cpus(monkeypatch):
    """usable_cpus(n): the pool sees an affinity mask of n CPUs, whatever
    the host has, so that a test forks the workers it means to."""
    import os

    def usable(n: int):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return usable


def test_verify_jobs_match_serial(capsys, tmp_path, usable_cpus):
    """--jobs 3 on three CPUs prints what a serial run prints, cold and then
    warm, each from its own cache directory, and the cold runs write the same
    cache files byte for byte."""
    import os

    usable_cpus(3)
    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    args = ("verify", "--range", "7", "23", "--format", "json", "--no-timestamp")
    for hits in (0, 6):
        code, serial = run(capsys, *args, "--cache-dir", str(serial_dir))
        assert code == 0 and json.loads(serial)["cache_hits"] == hits
        assert run(capsys, *args, "--cache-dir", str(parallel_dir), "--jobs", "3") == (code, serial)
        names = sorted(path.name for path in serial_dir.iterdir())
        assert len(names) == 6 and sorted(path.name for path in parallel_dir.iterdir()) == names
        assert all((serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes() for name in names)
    with pytest.raises(ChildProcessError):  # every child reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--range", "7", "7", "--jobs", jobs, "--no-cache"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def _record_shares(monkeypatch) -> list[int]:
    """The worker count of every pool started from now on."""
    import dlcusp.cli

    started = []
    shares = dlcusp.cli._shares

    def recorded(primes, workers):
        started.append(workers)
        return shares(primes, workers)

    monkeypatch.setattr(dlcusp.cli, "_shares", recorded)
    return started


@pytest.mark.parametrize("cpus, workers", [(4, 3), (2, 2), (None, None)])
def test_pool_size_is_clamped(capsys, monkeypatch, cache_dir, cpus, workers):
    """min(jobs, primes, CPUs) workers, and no pool at all for one; with no
    affinity mask to read, the machine's CPU count is the clamp."""
    import os

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    started = _record_shares(monkeypatch)
    code, _ = run(capsys, "verify", "--range", "7", "13", "--jobs", "64", "--cache-dir", str(cache_dir),
                  "--no-timestamp")
    assert code == 0
    assert started == ([] if workers is None else [workers])


def test_the_pool_counts_only_the_cpus_it_may_use(capsys, monkeypatch, cache_dir, usable_cpus):
    """With an affinity mask of one CPU on a machine of four, --jobs 2 runs
    serially: it never forks."""
    import os

    def no_fork():
        raise AssertionError("forked with one usable CPU")

    usable_cpus(1)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    code, out = run(capsys, "verify", "--range", "7", "13", "--jobs", "2", "--cache-dir", str(cache_dir),
                    "--no-timestamp")
    assert code == 0 and "aggregate: pass" in out


def test_a_platform_without_fork_verifies_serially(capsys, monkeypatch, cache_dir, usable_cpus):
    """Where os.fork does not exist, --jobs 2 verifies every prime in this process."""
    import os

    usable_cpus(2)
    monkeypatch.delattr(os, "fork")
    started = _record_shares(monkeypatch)
    code, out = run(capsys, "verify", "--range", "7", "13", "--jobs", "2", "--cache-dir", str(cache_dir),
                    "--no-timestamp")
    assert code == 0 and "aggregate: pass" in out and started == []


def test_pool_gets_the_largest_primes_first():
    """The shares take the primes largest first, each to the share whose
    cost, at p^2 a prime, is lowest so far; share 0, the parent's, gets the
    largest prime, and every prime is in exactly one share."""
    from dlcusp.cli import _shares
    from dlcusp.numtheory import primes_in_range

    assert _shares([7, 11, 13], 2) == [[13], [11, 7]]
    assert _shares([13, 7, 11], 3) == [[13], [11], [7]]
    assert _shares(primes_in_range(7, 43), 2) == [[43, 31, 29, 17, 13], [41, 37, 23, 19, 11, 7]]
    for workers in (2, 3, 5):
        shares = _shares(primes_in_range(7, 101), workers)
        assert len(shares) == workers and sorted(sum(shares, [])) == primes_in_range(7, 101)
        assert all(share == sorted(share, reverse=True) for share in shares) and shares[0][0] == 101


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_reports_progress_only_to_a_terminal(capsys, monkeypatch, usable_cpus, jobs):
    """With stderr a terminal, verify prints one line per finished prime
    there; stdout is byte-identical either way, and a stderr that is not a
    terminal gets nothing."""
    import sys

    usable_cpus(2)
    args = ["verify", "--range", "7", "13", "--jobs", jobs, "--format", "json", "--no-timestamp", "--no-cache"]
    assert main(args) == 0
    quiet = capsys.readouterr()
    monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
    assert main(args) == 0
    loud = capsys.readouterr()
    assert quiet.err == "" and loud.out == quiet.out
    line = re.compile(r"verify: p=(\d+) pass in [0-9.]+ s \((\d)/3\)$")
    lines = [line.match(text).groups() for text in loud.err.splitlines()]
    assert [count for _, count in lines] == ["1", "2", "3"]
    # the parent's share [13] as it finishes, then the child's [11, 7]
    assert [int(p) for p, _ in lines] == ([7, 11, 13] if jobs == "1" else [13, 11, 7])


@pytest.mark.parametrize("fault, reason", [
    ("exit", "exited with status 3"),
    ("signal", "died of signal 9"),
    ("garbage", "sent rows that do not unpickle: UnpicklingError: "),
], ids=["exit", "signal", "garbage"])
def test_a_failing_worker_fails_the_run_and_names_its_primes(capsys, monkeypatch, usable_cpus, fault, reason):
    """A child that dies, or whose rows do not unpickle, ends the run as an
    internal error naming the primes of its share, and leaves no child."""
    import os
    import pickle
    import signal

    import dlcusp.cli

    usable_cpus(2)
    parent = os.getpid()
    verify_one = dlcusp.cli._verify_one

    def dying(p, *rest):
        if p == 11 and os.getpid() != parent:
            if fault == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(3)
        return verify_one(p, *rest)

    if fault != "garbage":
        monkeypatch.setattr(dlcusp.cli, "_verify_one", dying)
    else:
        monkeypatch.setattr(pickle, "dumps", lambda obj: b"not a pickle")
    code = main(["verify", "--range", "7", "13", "--jobs", "2", "--no-cache", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"internal error: RuntimeError: the worker for primes 11, 7 {reason}")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_raises_reports_its_exception(capfd, monkeypatch, usable_cpus):
    """A child whose own code raises (here pickle.dumps, outside every
    per-stage handler) writes the type and text of the exception to stderr
    before it exits; the parent's line and exit 1 stay as they were."""
    import os
    import pickle

    def planted(obj):
        raise pickle.PicklingError("planted")

    usable_cpus(2)
    monkeypatch.setattr(pickle, "dumps", planted)
    code = main(["verify", "--range", "7", "13", "--jobs", "2", "--no-cache", "--no-timestamp"])
    captured = capfd.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.splitlines() == [
        "PicklingError: planted",
        "internal error: RuntimeError: the worker for primes 11, 7 exited with status 1",
    ]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_home_directory_means_no_cache(capsys, monkeypatch):
    """With no DLCUSP_CACHE and no home directory to find (Path.home raises,
    as with HOME unset and no passwd entry for the uid), verify runs without
    a cache: every table is built, none is a hit, and the run passes."""
    from pathlib import Path

    from dlcusp.cli import default_cache_dir

    def homeless():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("DLCUSP_CACHE", raising=False)
    monkeypatch.setattr(Path, "home", homeless)
    assert default_cache_dir() is None
    code, out = run(capsys, "verify", "--range", "7", "11", "--format", "json", "--no-timestamp")
    report = json.loads(out)
    assert code == 0 and report["aggregate"] == "pass" and report["cache_hits"] == 0
    assert [row["cache_hit"] for row in report["primes"]] == [False, False]


def test_an_exception_in_the_parent_leaves_no_worker_behind(usable_cpus):
    """done raising in the parent propagates, and every child is killed and reaped."""
    import os

    from dlcusp.cli import _run_pool

    def done(row):
        raise RuntimeError("planted fault")

    usable_cpus(2)
    with pytest.raises(RuntimeError, match="planted fault"):
        _run_pool([7, 11, 13], 2, None, "primary", done)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_classes_builds_no_characters(capsys, monkeypatch, tmp_path):
    """classes needs only the conjugacy table: no character is built and no
    cache file is written."""
    import dlcusp.cli

    def no_characters(*args, **kwargs):
        raise AssertionError("classes built a character table")

    monkeypatch.setattr(dlcusp.cli, "CharacterData", no_characters)
    monkeypatch.setenv("DLCUSP_CACHE", str(tmp_path))
    code, out = run(capsys, "classes", "7")
    assert code == 0 and "class equation: 1 + 1 + 24 + 24 + 24 + 24 + 56 + 56 + 42 + 42 + 42 = 336" in out
    assert list(tmp_path.iterdir()) == []


def test_corollaries(capsys, cache_dir):
    code, out = run(capsys, "corollaries", "--range", "23", "71", "--cache-dir", str(cache_dir), "--no-timestamp")
    assert code == 0
    assert "odd-multiplicities=['3', '3']" in out
    assert "odd-multiplicities=['5', '5']" in out
    assert "odd-multiplicities=['7', '7']" in out
    assert "aggregate: pass" in out


def test_papertable_full_range_byte_matches(capsys, cache_dir):
    code, out = run(capsys, "papertable", "--range", "7", "101", "--cache-dir", str(cache_dir))
    assert code == 0
    assert out.strip() == builtin_table_markdown()
    assert "| A_s | (p-1)/12 | (p-5)/12 | (p-7)/12 | (p-11)/12 |" in out


def test_papertable_refuses_a_cell_with_one_prime(capsys, cache_dir):
    """Over 7..43 set B on the split torus has data at 1 mod 12 only at
    p = 37 (it is empty at 13): one point cannot fit the cell, so papertable
    names it and exits 1 instead of printing the A row's fit there."""
    assert main(["papertable", "--range", "7", "43", "--cache-dir", str(cache_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cell (B,split,1) has data only at p=37" in captured.err


def test_a_fit_without_a_twelfths_text_is_printed_as_a_line(capsys, monkeypatch, cache_dir):
    """A fit with |a| = 1/12 that is an integer at no residue has no
    "(p-r)/12 + k" text: render_cell prints it as a*p + b, and papertable
    prints the computed table and says that it differs from the built-in one."""
    import dlcusp.cli
    from dlcusp.cuspform import RESIDUES, SET_LABELS, LinearityReport, coefficient_line

    assert render_cell(Fraction(1, 12), Fraction(0)) == "1/12*p + 0"
    assert render_cell(Fraction(-1, 12), Fraction(1, 2)) == "-1/12*p + 1/2"
    fits = {(label, torus, r): coefficient_line(label, torus, r)
            for label in SET_LABELS for torus in ("split", "nonsplit") for r in RESIDUES}
    fits["A", "split", 1] = (Fraction(1, 12), Fraction(0))  # the built-in fits, but for this cell
    monkeypatch.setattr(dlcusp.cli, "linearity_fit", lambda results: LinearityReport(fits, 0, [], {}))
    code = main(["papertable", "--range", "7", "7", "--cache-dir", str(cache_dir)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == "computed table differs from the built-in table\n"
    assert "| A_s | 1/12*p + 0 | (p-5)/12 | (p-7)/12 | (p-11)/12 |" in captured.out.splitlines()


def test_cache_corruption_recovers(capsys, cache_dir):
    cachefiles.write(cache_dir, 13, "{not json")
    code, out = run(capsys, "decompose", "13", "--format", "json", "--cache-dir", str(cache_dir))
    assert code == 0
    assert cachefiles.read(cache_dir, 13)["p"] == 13  # rebuilt and rewritten


def _row_of(doc, label):
    return next(d for d in doc["irreducibles"] if d["label"] == label)


def _ids_of(doc, label):
    return _row_of(doc, label)["ids"]


def _fault(shape, doc):
    """Put one fault of a schema-2 document's shape into doc."""
    ids = _ids_of(doc, ["principal", 1])
    if shape == "inner":  # a number where the irreducibles go
        doc["irreducibles"] = [5]
    elif shape in ("id-out-of-range", "id-negative", "id-bool", "id-float"):
        ids[2] = {"id-out-of-range": len(doc["values"]), "id-negative": -1, "id-bool": True, "id-float": 1.0}[shape]
    elif shape == "row-length":
        ids.pop()
    elif shape == "equal-texts":  # a second copy of a value, one cell pointing at it
        doc["values"].append(doc["values"][ids[2]])
        ids[2] = len(doc["values"]) - 1
    elif shape == "zero-not-first":
        values = doc["values"]
        values[0], values[1] = values[1], values[0]
    elif shape == "non-canonical":
        doc["values"][doc["values"].index("1: 1")] = "1: 2/2"
    elif shape == "zero-denominator":
        doc["values"][doc["values"].index("1: 1")] = "1: 1/0"
    elif shape == "huge-order":  # a prime order: parsing would factor it by trial division for ages
        doc["values"][-1] = f"{2**89 - 1}: 1*z^1"
    elif shape == "schema-1":
        doc.clear()
        doc.update(CharacterData(7).to_json_dict())
    elif shape == "degree-bool":  # true == 1, so it would pass the audit as the trivial degree
        _row_of(doc, ["trivial"])["degree"] = True
    elif shape == "degree-float":
        _row_of(doc, ["steinberg"])["degree"] = 7.0
    elif shape == "label-bool":  # ("principal", True) == ("principal", 1)
        _row_of(doc, ["principal", 1])["label"] = ["principal", True]
    elif shape in ("label-string", "label-empty"):
        _row_of(doc, ["trivial"])["label"] = "trivial" if shape == "label-string" else []
    elif shape == "class-key":  # a class no build of p = 7 has
        doc["classes"][6] = ["split_semisimple", 99]


def _file_fault(shape, fresh) -> bytes:
    """The bytes of a cache file whose fault is in its gzip stream, around
    the document fresh."""
    from dlcusp.cli import MAX_CACHE_BYTES

    text = json.dumps(fresh).encode()
    whole = gzip.compress(text, mtime=0)
    if shape == "truncated":
        return whole[:-1]
    if shape == "bad-crc":
        return whole[:-8] + bytes([whole[-8] ^ 1]) + whole[-7:]
    if shape == "bytes-after-stream":
        return whole + b"trailing"
    if shape == "plain-json":
        return text
    if shape == "zeros-past-bound":  # 64 MiB of zeros in about 64 KB
        return gzip.compress(bytes(64 << 20), compresslevel=9, mtime=0)
    # a whole document, but only with whitespace that takes it one byte past the bound
    return gzip.compress(text + b" " * (MAX_CACHE_BYTES + 1 - len(text)), compresslevel=9, mtime=0)


@pytest.mark.parametrize(
    "shape",
    ["array", "string", "number", "null", "inner", "id-out-of-range", "id-negative", "id-bool", "id-float",
     "row-length", "equal-texts", "zero-not-first", "non-canonical", "zero-denominator", "huge-order", "schema-1",
     "nested", "degree-bool", "degree-float", "label-bool", "label-string", "label-empty", "class-key",
     "truncated", "bad-crc", "bytes-after-stream", "plain-json", "zeros-past-bound", "padded-past-bound", "sparse"],
)
def test_cache_of_any_malformed_shape_is_rebuilt(capsys, tmp_path, shape):
    fresh = CharacterData(7).to_cache_dict()
    blob = None
    if shape == "nested":  # deeper than the JSON decoder's recursion allows
        text = "[" * 200000 + "]" * 200000
    elif shape in ("array", "string", "number", "null"):
        text = json.dumps({"array": [1, 2], "string": "sl2", "number": 7, "null": None}[shape])
    elif shape in ("truncated", "bad-crc", "bytes-after-stream", "plain-json", "zeros-past-bound", "padded-past-bound"):
        blob = _file_fault(shape, fresh)
    elif shape != "sparse":  # right schema and prime (or the stale schema 1), one fault inside
        doc = json.loads(json.dumps(fresh))
        _fault(shape, doc)
        text = json.dumps(doc)

    def plant():
        if shape == "sparse":  # 64 MiB of zeros that take no disk
            with open(cachefiles.path(tmp_path, 7), "wb") as fh:
                fh.truncate(64 << 20)
        elif blob is not None:
            cachefiles.path(tmp_path, 7).write_bytes(blob)
        else:
            cachefiles.write(tmp_path, 7, text)

    plant()
    with _time_box(20):  # a fault no bound stops (huge-order unbounded) fails here, not after minutes
        code, out = run(capsys, "decompose", "7", "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["exact"]
    assert cachefiles.read(tmp_path, 7) == fresh  # rebuilt and rewritten
    plant()
    with _time_box(20):
        code, out = run(capsys, "verify", "--range", "7", "7", "--format", "json", "--no-timestamp",
                        "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["primes"][0]["cache_hit"] is False


class _Expired(Exception):
    """A time-boxed block ran past its time (_time_box)."""


@contextlib.contextmanager
def _time_box(seconds: float):
    """Raise _Expired in the block once it has run seconds of wall time.
    No handler of the cache reader catches it, so the test fails."""

    def expire(signum, frame):
        raise _Expired(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("past", (0, 1), ids=("at-bound", "one-byte-past"))
def test_a_cache_file_past_the_bound_is_refused_unread(capsys, monkeypatch, tmp_path, past):
    """A file longer than MAX_CACHE_BYTES is refused by its length alone.
    The inflate bound and the whole-stream check cannot stand in for it: a
    stored (uncompressed) gzip stream is longer than what it inflates to, so
    with the bound set one byte under the file's length it inflates whole.
    At the bound the same file is a cache hit."""
    from dlcusp import cli

    blob = gzip.compress(json.dumps(CharacterData(7).to_cache_dict()).encode(), compresslevel=0, mtime=0)
    monkeypatch.setattr(cli, "MAX_CACHE_BYTES", len(blob) - past)
    cachefiles.path(tmp_path, 7).write_bytes(blob)
    code, out = run(capsys, "verify", "--range", "7", "7", "--format", "json", "--no-timestamp", "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["primes"][0]["cache_hit"] is (not past)


def test_cache_rejects_wrong_prime_or_schema(cache_dir):
    from dlcusp.chartable import CharacterData

    doc = cachefiles.read(cache_dir, 7)
    with pytest.raises(ValueError):
        CharacterData(11, _cached=doc)
    doc["schema"] = "something-else/9"
    with pytest.raises(ValueError):
        CharacterData.from_json_dict(doc)


def test_invalid_mod12_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--range", "7", "31", "--mod12", "3", "--no-cache"])
    assert exc.value.code == 2


def test_inverted_range_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--range", "31", "7", "--no-cache"])
    assert exc.value.code == 2


def test_verify_alternative_reading_fails_where_discriminated(capsys, cache_dir):
    code, out = run(capsys, "verify", "--range", "7", "7", "--reading", "alternative",
                    "--cache-dir", str(cache_dir), "--no-timestamp")
    assert code == 1
    assert "table_match=FAIL" in out and "diff:" in out
    # where both subgroups share a torus the readings coincide and it passes
    code, out = run(capsys, "verify", "--range", "11", "11", "--reading", "alternative",
                    "--cache-dir", str(cache_dir), "--no-timestamp")
    assert code == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _corrupted_cache(directory):
    """A p = 7 cache whose principal(1) is negated at one split class."""
    from dlcusp.cyclotomic import CycNumber

    doc = CharacterData(7).to_cache_dict()
    values, ids = doc["values"], _ids_of(doc, ["principal", 1])
    cls = next(i for i, c in enumerate(doc["classes"]) if c[0] == "split_semisimple" and ids[i] != 0)
    negated = (-CycNumber.from_text(values[ids[cls]])).to_text()
    if negated not in values:
        values.append(negated)
    ids[cls] = values.index(negated)
    cachefiles.write(directory, 7, doc)
    return str(directory)


_BROKEN_ROW = r"principal\(1\) is 1: 1 at class 6 \(split_semisimple\), not 1: -1 at p=7"


@pytest.mark.parametrize(
    "command",
    [("decompose", "7"), ("corollaries", "--range", "7", "7"), ("papertable", "--range", "7", "7"), ("chartable", "7")],
)
def test_corrupted_cached_table_is_refused_before_use(capsys, tmp_path, command):
    code = main([*command, "--cache-dir", _corrupted_cache(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert re.fullmatch(f"verification failure: {_BROKEN_ROW}\n", captured.err)
    assert captured.out == ""


def test_verify_reports_why_a_check_failed(capsys, tmp_path, cache_dir):
    cache = _corrupted_cache(tmp_path)
    args = ("verify", "--range", "7", "7", "--no-timestamp", "--cache-dir")
    code, out = run(capsys, *args, cache, "--format", "json")
    row = json.loads(out)["primes"][0]
    assert code == 1 and row["checks"]["table_valid"] is False
    assert re.fullmatch(_BROKEN_ROW, row["reasons"]["table_valid"])
    code, out = run(capsys, *args, cache)
    assert code == 1 and re.search(f"^      reason table_valid: {_BROKEN_ROW}$", out, re.M)
    code, out = run(capsys, *args, str(cache_dir), "--format", "json")
    assert code == 0 and "reasons" not in json.loads(out)["primes"][0]  # only failing rows carry reasons


def test_cache_document_holds_only_the_irreducible_table(capsys, tmp_path):
    """The cache stores what validate_table audits, interned on one line:
    each class by its kind and key, each distinct text once, and per
    irreducible an id row; DL rows are derived."""
    code, _ = run(capsys, "decompose", "7", "--cache-dir", str(tmp_path))
    text = cachefiles.read_text(tmp_path, 7)
    doc = json.loads(text)
    assert code == 0 and sorted(doc) == ["classes", "irreducibles", "p", "schema", "values"]
    assert doc["schema"] == "dlcusp-chartable/3" and "\n" not in text
    assert doc["classes"] == [[r.kind, *r.key] for r in CharacterData(7).table.classes]
    assert len(doc["values"]) == len(set(doc["values"])) and doc["values"][0] == "1: 0"
    assert all(sorted(d) == ["degree", "ids", "label"] and len(d["ids"]) == len(doc["classes"])
               for d in doc["irreducibles"])


def test_old_format_dl_rows_are_never_read(capsys, tmp_path):
    """A cached document in the older format (schema 1) carries DL rows no
    check audits; it is stale, so a corrupted one is rebuilt before chartable
    or verify reads anything, and the rebuilt file then hits."""
    doc = CharacterData(7).to_json_dict()
    row = doc["dl_split"][2]["values"]
    cls = next(i for i, c in enumerate(doc["classes"]) if c["kind"] == "split_semisimple" and row[i] == "1: -1")
    row[cls] = "1: 1"
    cachefiles.write(tmp_path, 7, doc)
    args = ("verify", "--range", "7", "7", "--format", "json", "--no-timestamp", "--cache-dir", str(tmp_path))
    code, out = run(capsys, *args)
    assert code == 0 and json.loads(out)["primes"][0]["cache_hit"] is False
    fresh = run(capsys, "chartable", "7", "--format", "json", "--no-cache")
    cachefiles.write(tmp_path, 7, doc)
    assert run(capsys, "chartable", "7", "--format", "json", "--cache-dir", str(tmp_path)) == fresh
    code, out = run(capsys, *args)
    assert code == 0 and json.loads(out)["primes"][0]["cache_hit"]


def test_two_cold_runs_write_identical_cache_files(capsys, tmp_path):
    """A cache file is one gzip stream with a zero mtime in its header, so
    the same tables give the same bytes, run after run."""
    blobs = []
    for run_dir in (tmp_path / "first", tmp_path / "second"):
        code, _ = run(capsys, "verify", "--range", "7", "13", "--no-timestamp", "--cache-dir", str(run_dir))
        assert code == 0
        blobs.append({f.name: f.read_bytes() for f in sorted(run_dir.iterdir())})
    assert blobs[0] == blobs[1] and sorted(blobs[0]) == ["sl2_p11.json.gz", "sl2_p13.json.gz", "sl2_p7.json.gz"]
    assert all(blob[:10] == bytes.fromhex("1f8b0800000000000403") for blob in blobs[0].values())


def test_a_schema_2_document_beside_the_cache_file_is_ignored(capsys, tmp_path):
    """The plain-JSON sl2_p<p>.json of schema 2 is neither read nor deleted:
    a run next to one builds, writes the gzip file and hits it the next time."""
    from dlcusp.chartable import _class_records

    data = CharacterData(7)
    old = tmp_path / "sl2_p7.json"
    old.write_text(json.dumps({**data.to_cache_dict(), "schema": "dlcusp-chartable/2",
                               "classes": _class_records(data.table)}, separators=(",", ":")))
    before = old.read_bytes()
    args = ("verify", "--range", "7", "7", "--format", "json", "--no-timestamp", "--cache-dir", str(tmp_path))
    hits = []
    for _ in range(2):
        code, out = run(capsys, *args)
        assert code == 0
        hits.append(json.loads(out)["primes"][0]["cache_hit"])
    assert hits == [False, True] and old.read_bytes() == before
    assert cachefiles.read(tmp_path, 7) == data.to_cache_dict()


def _refused(capsys, tmp_path, p, message):
    """chartable and verify on the cached table at p both fail with message."""
    code = main(["chartable", str(p), "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert re.fullmatch(f"verification failure: {message}\n", captured.err)
    code, out = run(capsys, "verify", "--range", str(p), str(p), "--no-timestamp", "--cache-dir", str(tmp_path))
    assert code == 1 and "table_valid=FAIL" in out
    assert re.search(f"^      reason table_valid: {message}$", out, re.M)


def test_swapped_cached_degrees_are_refused(capsys, tmp_path):
    """Swapping the degree fields of principal(1) and discrete(1) keeps the
    degree-square sum; the audit of each label's degree names the row."""
    doc = CharacterData(7).to_cache_dict()
    rows = {tuple(d["label"]): d for d in doc["irreducibles"]}
    a, b = rows[("principal", 1)], rows[("discrete", 1)]
    a["degree"], b["degree"] = b["degree"], a["degree"]
    cachefiles.write(tmp_path, 7, doc)
    _refused(capsys, tmp_path, 7, r"principal\(1\) has degree 6, not 8 at p=7")


@pytest.mark.parametrize(
    "swap, message",
    [
        # principal(1) and principal(3) are both non-trivial on the center
        ((["principal", 1], ["principal", 3]), r"principal\(1\) is 1: 0 at the split torus generator, not .* at p=13"),
        ((["exceptional_split_plus"], ["exceptional_split_minus"]),
         r"exceptional_split_plus is 13: 1 \+ .* at class 2 \(unipotent\), not 13: -1\*z\^2 \+ .* at p=13"),
    ],
    ids=("principal_1_3", "exceptional_split"),
)
def test_swapped_cached_labels_are_refused(capsys, tmp_path, swap, message):
    """A cached table with two labels swapped passes every other audit check
    (the first swap would even pass every check of its decomposition, which
    verify therefore skips); the pin names the row."""
    doc = CharacterData(13).to_cache_dict()
    a, b = (next(d for d in doc["irreducibles"] if d["label"] == label) for label in swap)
    a["label"], b["label"] = b["label"], a["label"]
    cachefiles.write(tmp_path, 13, doc)
    _refused(capsys, tmp_path, 13, message)


@pytest.mark.parametrize(
    "p, pairs, message",
    [
        # two split classes a, b: the -a, -b columns still match, so only the
        # per-class torus values (and the center) can see it
        (11, [(7, 8)], r"principal\(1\) is .* at class 7 \(split_semisimple\), not .* at p=11"),
        (31, [(6, 8)], r"principal\(1\) is .* at class 6 \(split_semisimple\), not .* at p=31"),
        # a, b together with -a, -b: the center acts on the table as before
        (17, [(6, 9), (10, 11)], r"principal\(1\) is .* at class 6 \(split_semisimple\), not .* at p=17"),
        (31, [(6, 8), (16, 19)], r"principal\(1\) is .* at class 6 \(split_semisimple\), not .* at p=31"),
        (43, [(6, 8), (22, 25)], r"principal\(1\) is .* at class 6 \(split_semisimple\), not .* at p=43"),
        (101, [(7, 8), (49, 26)], r"principal\(1\) is .* at class 7 \(split_semisimple\), not .* at p=101"),
        # the two classes of -u: every pairing passes (the swap keeps class
        # sizes, commutes with inversion and leaves the semisimple classes
        # alone), and the pin names the first row that differs there
        (7, [(4, 5)], r"exceptional_split_plus is 7: .* at class 4 \(unipotent\), not 7: .* at p=7"),
        (13, [(4, 5)], r"exceptional_split_plus is 13: .* at class 4 \(unipotent\), not 13: .* at p=13"),
    ],
    ids=("p11", "p31", "p17_with_negatives", "p31_with_negatives", "p43_with_negatives", "p101_with_negatives",
         "p7_minus_u", "p13_minus_u"),
)
def test_cached_table_with_swapped_columns_is_refused(capsys, tmp_path, p, pairs, message):
    """Swapping two columns of equal class size in every id row keeps every
    pairing, every degree and duality; the audit still names the row."""
    doc = CharacterData(p).to_cache_dict()
    for d in doc["irreducibles"]:
        for a, b in pairs:
            d["ids"][a], d["ids"][b] = d["ids"][b], d["ids"][a]
    cachefiles.write(tmp_path, p, doc)
    _refused(capsys, tmp_path, p, message)


@pytest.mark.parametrize(
    "p, craft, message",
    [
        (7, propchecks.mixed_trivial_steinberg, r"trivial is 1: -17/25 at the split torus generator, not 1: 1 at p=7"),
        (29, propchecks.mixed_trivial_steinberg, r"trivial is 1: -391/421 at the split torus generator, not 1: 1 at p=29"),
        (29, propchecks.reflected_in_unipotent, r"trivial is 1: -1 at class 2 \(unipotent\), not 1: 1 at p=29"),
    ],
    ids=("p7_mixed", "p29_mixed", "p29_reflected"),
)
def test_a_cached_table_that_only_the_pin_refuses_is_refused(capsys, tmp_path, p, craft, message):
    """Two orthonormal tables that are not the character table, written as
    cache documents: the trivial and Steinberg rows mixed by a rational
    reflection, and every row reflected in the indicator of the
    unipotent-type classes.  Each keeps every degree, duality and the
    center, and (b) every torus cell too; the pin names the trivial row."""
    cachefiles.write(tmp_path, p, craft(CharacterData(p)).to_cache_dict())
    _refused(capsys, tmp_path, p, message)


def test_a_cache_that_cannot_be_written_is_done_without(capsys, tmp_path):
    """A cache directory that is a regular file fails every write; the table
    was built, so the commands go on without the cache."""
    path = tmp_path / "not-a-directory"
    path.write_text("")
    code, out = run(capsys, "verify", "--range", "7", "11", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["aggregate"] == "pass" and doc["cache_hits"] == 0
    code, out = run(capsys, "decompose", "7", "--cache-dir", str(path))
    assert code == 0 and "exact reconstruction: True   coefficient table match: True" in out
    assert path.read_text() == ""


def test_a_fresh_build_is_audited_before_use(capsys, monkeypatch):
    """A build whose closed form negates principal(1) at one split class is
    refused by chartable and decompose, naming the row, as a cached table
    with that fault is: every table a command uses is audited."""
    closed_rows = CharacterData._closed_rows

    def faulty(self, torus_type, ks, values, sign=1):
        rows = closed_rows(self, torus_type, ks, values, sign)
        if torus_type == "split" and ks[0] == 1:  # the principal rows, k = 1 first
            c = next(i for i, rec in enumerate(self.table.classes) if rec.kind == "split_semisimple")
            row = list(rows[0])
            row[c] = values.intern(-values[row[c]])
            rows[0] = tuple(row)
        return rows

    monkeypatch.setattr(CharacterData, "_closed_rows", faulty)
    for command in ("chartable", "decompose"):
        code = main([command, "7", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert re.fullmatch(f"verification failure: {_BROKEN_ROW}\n", captured.err)


def test_a_build_with_flipped_central_signs_fails_only_the_audit(capsys, monkeypatch):
    """Both exceptional pairs built with the wrong central sign in their
    difference pass every pairing and every label and degree; the build
    does not check the central character, and the audit's pin refuses the
    table at the first class of -u.  verify then decomposes nothing: the
    checks that read the decomposition are skipped, and placement and the
    degree identity, which read no character, still pass."""
    import dlcusp.chartable

    legendre = dlcusp.chartable.legendre
    monkeypatch.setattr(dlcusp.chartable, "legendre", lambda a, p: -legendre(a, p))
    message = ("exceptional_split_plus is 7: 1*z^1 + 1*z^2 + 1*z^4 at class 4 (unipotent), "
               "not 7: -1 + -1*z^1 + -1*z^2 + -1*z^4 at p=7")
    code = main(["decompose", "7", "--no-cache"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and captured.err == f"verification failure: {message}\n"
    code, out = run(capsys, "verify", "--range", "7", "7", "--format", "json", "--no-timestamp", "--no-cache")
    row = json.loads(out)["primes"][0]
    skipped = ["exact", "remark_oracle", "table_match"]
    assert code == 1 and sorted(name for name, ok in row["checks"].items() if not ok) == [*skipped, "table_valid"]
    assert row["reasons"] == {"table_valid": message, **dict.fromkeys(skipped, "skipped: validate_table failed")}


def test_an_internal_error_fails_only_its_check(capsys, monkeypatch, cache_dir):
    """An exception that is not a mismatch fails the check it hit, with the
    stage named, and every prime is still reported; the exit code stays 1."""
    import dlcusp.cli

    def broken(data):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(dlcusp.cli, "remark_pipeline", broken)
    args = ("verify", "--range", "7", "11", "--no-timestamp", "--cache-dir", str(cache_dir))
    code, out = run(capsys, *args, "--format", "json")
    report = json.loads(out)
    assert code == 1 and [r["p"] for r in report["primes"]] == [7, 11]
    for row in report["primes"]:
        assert [name for name, ok in row["checks"].items() if not ok] == ["remark_oracle"]
        assert row["reasons"] == {"remark_oracle": "internal: remark_pipeline: RuntimeError: planted fault"}
    code, out = run(capsys, *args)
    assert code == 1 and out.count("reason remark_oracle: internal: remark_pipeline: RuntimeError: planted fault") == 2


def test_an_internal_error_line_names_the_exception_type(capsys, monkeypatch):
    """main's catch-all prints the exception's type before its text, so an
    exception with an empty text, such as KeyError(''), still names itself."""
    import dlcusp.cli

    def broken(p):
        raise KeyError("")

    monkeypatch.setattr(dlcusp.cli, "build_conjugacy_table", broken)
    assert main(["classes", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "internal error: KeyError: ''\n"


@pytest.mark.parametrize("argv", [("verify", "--range", "7", "1000000000000"), ("chartable", "1000003"),
                                  ("decompose", "601"), ("papertable", "--range", "599", "601")])
def test_primes_above_the_bound_exit_2_before_any_search(capsys, monkeypatch, argv):
    """Above MAX_PRIME a command is a usage error at once: no prime search starts."""
    import time

    import dlcusp.cli

    def searched(*args):
        raise AssertionError("a prime search started")

    monkeypatch.setattr(dlcusp.cli, "primes_in_range", searched)
    monkeypatch.setattr(dlcusp.cli, "is_prime", searched)
    start = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2 and time.monotonic() - start < 1
    assert f"{dlcusp.cli.MAX_PRIME}, the largest supported prime" in capsys.readouterr().err
    assert dlcusp.cli.MAX_PRIME >= 199


def _loaded_by_importing_the_cli(*modules: str) -> list[str]:
    """Which of modules a fresh interpreter has loaded after import dlcusp.cli."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dlcusp

    src = str(Path(dlcusp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import dlcusp.cli, sys; print(*[m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                         timeout=60).stdout
    return out.split()


def test_importing_the_cli_leaves_the_process_pool_out():
    """No run pays for importing a process pool, and only a run that forks
    pays for pickle."""
    assert _loaded_by_importing_the_cli("concurrent.futures.process", "multiprocessing", "pickle") == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every invocation starts without dataclasses, whose import pulls in
    inspect, ast, dis and tokenize, and whose decorators generate code."""
    assert _loaded_by_importing_the_cli("dataclasses", "inspect") == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failing_load_fails_only_its_prime(capsys, monkeypatch, usable_cpus, cache_dir, jobs):
    """An exception while loading one prime's table fails every check of that
    prime with the stage named; the other primes are still verified and the
    exit code stays 1, with and without the pool, where 11 is the child's."""
    import os

    import dlcusp.cli

    load = dlcusp.cli.load_character_data
    fork = os.fork
    forks = []

    def broken(p, cache_dir):
        if p == 11:
            raise RuntimeError("planted fault")
        return load(p, cache_dir)

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(dlcusp.cli, "load_character_data", broken)
    monkeypatch.setattr(os, "fork", counted)
    usable_cpus(2)
    code, out = run(capsys, "verify", "--range", "7", "13", "--jobs", jobs, "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    report = json.loads(out)
    assert code == 1 and report["aggregate"] == "fail"
    assert len(forks) == (0 if jobs == "1" else 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    rows = {row["p"]: row for row in report["primes"]}
    assert list(rows) == [7, 11, 13] and rows[7]["status"] == rows[13]["status"] == "pass"
    failed = rows[11]
    names = {"table_valid", "torus_placement", "degree_identity", "exact", "table_match", "remark_oracle"}
    assert failed["status"] == "fail" and failed["cache_hit"] is False
    assert failed["checks"] == dict.fromkeys(names, False)
    assert failed["reasons"] == dict.fromkeys(names, "internal: load_character_data: RuntimeError: planted fault")


def _failed(report):
    return {row["p"]: sorted(name for name, ok in row["checks"].items() if not ok) for row in report["primes"]}


def _plant_fusion(monkeypatch, name, fuse):
    """verify_torus_placement reads subgroup name with the fusion fuse(table,
    sub) in place of its own; no other check sees the planted fusion."""
    from types import SimpleNamespace

    import dlcusp.cli

    check = dlcusp.cli.verify_torus_placement

    def planted(data):
        sub = data.subgroups[name]
        subgroups = {**data.subgroups, name: sub._replace(fusion=fuse(data.table, sub))}
        return check(SimpleNamespace(p=data.p, table=data.table, subgroups=subgroups, torus=data.torus))

    monkeypatch.setattr(dlcusp.cli, "verify_torus_placement", planted)


def test_a_torus_placement_fault_is_named(capsys, monkeypatch, cache_dir):
    """A Gx_tilde fusion that meets a split and a nonsplit class lies in no
    torus: torus_placement fails alone, with the reason."""

    def split_and_nonsplit(table, sub):
        split = next(c for c, rec in enumerate(table.classes) if rec.kind == "split_semisimple")
        fusion = (split,) + sub.fusion[1:]
        assert {table.classes[c].kind for c in fusion} >= {"split_semisimple", "nonsplit_semisimple"}
        return fusion

    _plant_fusion(monkeypatch, "Gx_tilde", split_and_nonsplit)
    code, out = run(capsys, "verify", "--range", "7", "7", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    report = json.loads(out)
    assert code == 1 and _failed(report) == {7: ["torus_placement"]}
    assert report["primes"][0]["reasons"] == {"torus_placement": "Gx_tilde embeds in no torus at p=7"}


def test_a_placement_in_both_tori_is_named(capsys, monkeypatch, cache_dir):
    """A Gx_tilde fusion of the two central classes only lies in both tori:
    torus_placement fails alone, naming both."""
    _plant_fusion(monkeypatch, "Gx_tilde", lambda table, sub: tuple(i % 2 for i in range(sub.order)))
    code, out = run(capsys, "verify", "--range", "7", "7", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    report = json.loads(out)
    assert code == 1 and _failed(report) == {7: ["torus_placement"]}
    assert report["primes"][0]["reasons"] == {"torus_placement": "Gx_tilde embeds in ['split', 'nonsplit'] at p=7"}


def test_a_placement_off_the_mod12_table_is_named(capsys, monkeypatch, cache_dir):
    """embedding_pattern with its tori swapped: the placement read off the
    class table disagrees with it, and torus_placement names that."""
    import dlcusp.cuspform

    pattern = dlcusp.cuspform.embedding_pattern
    swap = {"split": "nonsplit", "nonsplit": "split"}
    monkeypatch.setattr(dlcusp.cuspform, "embedding_pattern",
                        lambda p: {key: swap[t] for key, t in pattern(p).items()})
    code, out = run(capsys, "verify", "--range", "7", "7", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    report = json.loads(out)
    assert code == 1 and "torus_placement" in _failed(report)[7]
    assert report["primes"][0]["reasons"]["torus_placement"] == "placement disagrees with the mod-12 table at p=7"


def _plant_two_more_on_z(monkeypatch):
    """1_Z^G counted with 2 more at every class, as if twice the trivial
    character were added twice over."""
    import dlcusp.cuspform

    counted = dlcusp.cuspform._permutation_character

    def planted(table, sub):
        chi = counted(table, sub)
        return {c: chi.get(c, 0) + 2 for c in range(len(table))} if sub.name == "Z" else chi

    monkeypatch.setattr(dlcusp.cuspform, "_permutation_character", planted)


def test_a_degree_identity_fault_is_named(capsys, monkeypatch, cache_dir):
    """Twice the trivial character added twice over: the degree formulas
    disagree, degree_identity fails with both degrees in the reason, and no
    decomposition is attempted."""
    _plant_two_more_on_z(monkeypatch)
    code, out = run(capsys, "verify", "--range", "7", "7", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    report = json.loads(out)
    assert code == 1 and "degree_identity" in _failed(report)[7]
    assert report["primes"][0]["reasons"]["degree_identity"] == "degree 8 != index formula 6 / genus formula 6"


def test_an_exact_rebuild_fault_names_the_class(capsys, monkeypatch, cache_dir):
    """The rebuild's f fed a coefficient off by 1/2 at split k = 2 and by
    -1/2 at k = 4, which shifts f by 1 at principal(2) and by -1 at
    principal(4) and leaves the reported coefficients and multiplicities
    alone: exact fails on its own, naming the first class where
    principal(2) and principal(4) differ, as the rebuild less s is
    principal(2) - principal(4) there."""
    import dlcusp.cuspform

    from conftest import get_data

    rebuild = dlcusp.cuspform._rebuild_differs_at

    def shifted(data, coeff, mults):
        coeff = {**coeff, ("split", 2): coeff[("split", 2)] + Fraction(1, 2),
                 ("split", 4): coeff[("split", 4)] - Fraction(1, 2)}
        return rebuild(data, coeff, mults)

    monkeypatch.setattr(dlcusp.cuspform, "_rebuild_differs_at", shifted)
    data = get_data(11)
    plus, minus = (data.irreducible("principal", k).chi.values for k in (2, 4))
    i = next(c for c, (a, b) in enumerate(zip(plus, minus)) if a != b)
    code, out = run(capsys, "verify", "--range", "11", "11", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    report = json.loads(out)
    assert code == 1 and _failed(report) == {11: ["exact"]}
    kind = data.table.classes[i].kind
    assert kind == "split_semisimple"
    assert report["primes"][0]["reasons"] == {"exact": f"rebuild differs from s at class {i} ({kind}) at p=11"}


def test_a_corollary_2_fault_is_named(capsys, monkeypatch, cache_dir):
    """A non-trivial irreducible's multiplicity lost after the decomposition:
    only the appearance check reads it, and it fails with the row named."""
    import dlcusp.cli

    decompose = dlcusp.cli.decompose_dl

    def lost(data, s, reading):
        res = decompose(data, s, reading)
        res.multiplicities[("principal", 2)] = Fraction(0)
        return res

    monkeypatch.setattr(dlcusp.cli, "decompose_dl", lost)
    code, out = run(capsys, "verify", "--range", "23", "23", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    report = json.loads(out)
    assert code == 1 and _failed(report) == {23: ["corollary_2"]}
    reason = report["primes"][0]["reasons"]["corollary_2"]
    assert reason.startswith("appearance criterion fails at p=23") and "missing=['principal(2)']" in reason


def test_a_linearity_fault_is_named(capsys, monkeypatch, cache_dir):
    """A coefficient off by one at the third prime of its residue class,
    after that prime's own checks passed: the fit names the cell and prime."""
    import dlcusp.cli

    verify_one = dlcusp.cli._verify_one

    def shifted(p, cache_dir_str, reading):
        row = verify_one(p, cache_dir_str, reading)
        if p == 31:
            row["decomposition"].coefficients[("split", 0)] += 1
        return row

    monkeypatch.setattr(dlcusp.cli, "_verify_one", shifted)
    code, out = run(capsys, "verify", "--range", "7", "31", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    report = json.loads(out)
    assert code == 1 and report["aggregate"] == "fail"
    assert all(row["status"] == "pass" for row in report["primes"])
    assert report["linearity"]["ok"] is False
    assert [(f["cell"], f["p"]) for f in report["linearity"]["failures"]] == [(["E", "split", 7], 31)]


@pytest.mark.parametrize("p", (7, 23))
def test_checks_skipped_after_a_failed_stage_say_so(capsys, monkeypatch, cache_dir, p):
    """No decomposition after the degree identity failed: every check of the
    prime is still in the row, and each skipped one says which stage stopped it."""
    import dlcusp.cli

    _plant_two_more_on_z(monkeypatch)
    code, out = run(capsys, "verify", "--range", str(p), str(p), "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    row = json.loads(out)["primes"][0]
    skipped = ["exact", "remark_oracle", "table_match"] + (["corollary_2"] if p >= 23 else [])
    assert code == 1 and _failed(json.loads(out)) == {p: sorted(["degree_identity", *skipped])}
    assert set(row["checks"]) == set(dlcusp.cli._check_names(p))
    assert set(row["reasons"]) == {"degree_identity", *skipped}
    assert all(row["reasons"][name] == "skipped: weinstein_character failed" for name in skipped)


def test_corollary_2_after_a_failed_decomposition_says_so(capsys, monkeypatch, cache_dir):
    import dlcusp.cli

    def broken(data, s, reading):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(dlcusp.cli, "decompose_dl", broken)
    code, out = run(capsys, "verify", "--range", "23", "23", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    row = json.loads(out)["primes"][0]
    assert code == 1 and _failed(json.loads(out)) == {23: ["corollary_2", "exact", "remark_oracle", "table_match"]}
    assert row["reasons"]["corollary_2"] == "skipped: decompose_dl failed"
    assert row["reasons"]["exact"] == "internal: decompose_dl: RuntimeError: planted fault"


def test_one_exceptional_constituent_added_fails_exact_at_a_unipotent_class(capsys, monkeypatch, cache_dir):
    """s + exceptional_split_plus is outside the span: exact fails with the
    unipotent-type class named, and nothing raises."""
    import dlcusp.cli

    weinstein = dlcusp.cli.weinstein_character
    monkeypatch.setattr(dlcusp.cli, "weinstein_character",
                        lambda data: weinstein(data) + data.irreducible("exceptional_split_plus").chi)
    code, out = run(capsys, "verify", "--range", "13", "13", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    reasons = json.loads(out)["primes"][0]["reasons"]
    assert code == 1 and re.fullmatch(r"rebuild differs from s at class \d+ \(unipotent\) at p=13", reasons["exact"])


def test_a_set_with_two_coefficients_keeps_the_report(capsys, monkeypatch, cache_dir):
    """One set-A orbit relabelled E at p = 13: the E cell has two coefficients
    there.  The fit records it as a failure, every prime is still reported,
    and the exit code is 1; papertable refuses the same results."""
    import dlcusp.cli
    from dlcusp.cuspform import classify_theta

    decompose = dlcusp.cli.decompose_dl

    def relabelled(data, s=None, reading="primary"):
        res = decompose(data, s, reading)
        if data.p == 13:
            key = next(key for key, lab in res.labels.items() if lab.label == "A" and res.coefficients[key])
            res.labels[key] = classify_theta(13, key[0], 0)
        return res

    monkeypatch.setattr(dlcusp.cli, "decompose_dl", relabelled)
    args = ("verify", "--range", "7", "13", "--no-timestamp", "--cache-dir", str(cache_dir))
    code, out = run(capsys, *args, "--format", "json")
    report = json.loads(out)
    assert code == 1 and [row["p"] for row in report["primes"]] == [7, 11, 13]
    assert report["linearity"]["ok"] is False and report["aggregate"] == "fail"
    failure = report["linearity"]["failures"][0]
    assert failure == {"cell": ["E", failure["cell"][1], 1], "p": 13, "reason":
                       f"set E on {failure['cell'][1]} torus has non-constant coefficients at p=13"}
    code, out = run(capsys, *args)
    assert code == 1 and re.findall(r"^p=\s*(\d+) ", out, re.M) == ["7", "11", "13"]
    assert "linearity: FAIL" in out
    torus = failure["cell"][1]
    assert f"\n      failure E/{torus}/1 at p=13: set E on {torus} torus has non-constant coefficients at p=13\n" in out
    assert main(["papertable", "--range", "7", "13", "--cache-dir", str(cache_dir)]) == 1


def test_a_remark_oracle_fault_names_the_first_difference(capsys, monkeypatch, cache_dir):
    """The symbolic pipeline off by one at one orbit: remark_oracle fails
    alone, and its reason names that orbit and both coefficients."""
    import dlcusp.cli

    remark = dlcusp.cli.remark_pipeline

    def shifted(data):
        out = remark(data)
        out[("nonsplit", 2)] += 1
        return out

    monkeypatch.setattr(dlcusp.cli, "remark_pipeline", shifted)
    code, out = run(capsys, "verify", "--range", "13", "13", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    report = json.loads(out)
    want = remark(CharacterData(13))[("nonsplit", 2)]
    assert code == 1 and _failed(report) == {13: ["remark_oracle"]}
    reason = f"first difference at ('nonsplit', 2): remark pipeline {want + 1}, decompose_dl {want} at p=13"
    assert report["primes"][0]["reasons"] == {"remark_oracle": reason}


def test_a_table_that_fails_its_audit_is_never_decomposed(capsys, tmp_path, cache_dir):
    """A p = 13 cache with the labels of principal(2) and principal(4)
    swapped: the pin fails it, and verify decomposes nothing there.
    exact, table_match and remark_oracle are skipped rather than echoing
    the bad labels (or reading exactness off rows nobody audited), and p =
    13 adds nothing to the linearity fit, which stays clean."""
    import shutil

    for path in cache_dir.glob("sl2_p*.json.gz"):
        shutil.copy(path, tmp_path)
    doc = CharacterData(13).to_cache_dict()
    a, b = (next(d for d in doc["irreducibles"] if d["label"] == ["principal", k]) for k in (2, 4))
    a["label"], b["label"] = b["label"], a["label"]
    cachefiles.write(tmp_path, 13, doc)
    code, out = run(capsys, "verify", "--range", "7", "43", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(tmp_path))
    report = json.loads(out)
    skipped = ["exact", "remark_oracle", "table_match"]
    assert code == 1 and _failed(report) == {p: [] for p in (7, 11, 17, 19, 23, 29, 31, 37, 41, 43)} | {
        13: [*skipped, "table_valid"]}
    row = next(row for row in report["primes"] if row["p"] == 13)
    message = "principal(2) is 1: -1 at the split torus generator, not 1: 1 at p=13"
    assert row["reasons"] == {"table_valid": message, **dict.fromkeys(skipped, "skipped: validate_table failed")}
    assert row["checks"]["torus_placement"] and row["checks"]["degree_identity"]
    assert report["linearity"]["ok"] and report["linearity"]["failures"] == []


def test_a_table_match_fault_names_the_first_mismatch(capsys, cache_dir):
    """The alternative reading at p = 7 puts one orbit in the wrong set:
    table_match fails alone, and its reason is the first mismatch."""
    args = ("verify", "--range", "7", "7", "--reading", "alternative", "--no-timestamp", "--cache-dir", str(cache_dir))
    code, out = run(capsys, *args, "--format", "json")
    row = json.loads(out)["primes"][0]
    first = {"torus": "nonsplit", "k_orbit": 4, "set_label": "B", "computed": "-1", "table": "0"}
    reason = f"first mismatch at p=7: {first}"
    assert code == 1 and _failed(json.loads(out)) == {7: ["table_match"]}
    assert row["reasons"] == {"table_match": reason} and row["mismatches"][0] == first
    code, out = run(capsys, *args)
    assert code == 1 and f"      reason table_match: {reason}\n" in out



def _plant_one_mismatch(monkeypatch, at: int) -> str:
    """decompose_dl reports one table mismatch at p = at, and nothing else
    changes; returns the reason every command must give for it."""
    import dlcusp.cli

    decompose = dlcusp.cli.decompose_dl
    mismatch = {"torus": "split", "k_orbit": 0, "set_label": "E", "computed": "0", "table": "1"}

    def planted(data, s=None, reading="primary"):
        res = decompose(data, s, reading)
        return res._replace(table_match=False, mismatches=[mismatch]) if data.p == at else res

    monkeypatch.setattr(dlcusp.cli, "decompose_dl", planted)
    return f"first mismatch at p={at}: {mismatch}"


def test_corollaries_name_a_failed_decomposition(capsys, monkeypatch, cache_dir):
    """A table mismatch at p = 29: its text line and its JSON row give the
    reason verify gives, and the rows of the other primes keep none."""
    reason = _plant_one_mismatch(monkeypatch, 29)
    args = ("corollaries", "--range", "23", "31", "--cache-dir", str(cache_dir))
    code, out = run(capsys, *args)
    assert code == 1 and out.splitlines()[1:] == [
        f"p= 29 decomposition=FAIL (table_match: {reason})  all-appear=ok  trivial-absent=ok",
        "p= 31 all-appear=ok  trivial-absent=ok",
        "aggregate: fail",
    ]
    code, out = run(capsys, *args, "--format", "json", "--no-timestamp")
    rows = json.loads(out)["primes"]
    assert code == 1 and [row["p"] for row in rows] == [23, 29, 31]
    assert rows[1]["decomposition"] == "fail" and rows[1]["reasons"] == {"table_match": reason}
    assert all("reasons" not in row and "decomposition" not in row for row in (rows[0], rows[2]))


def test_papertable_names_a_failed_decomposition(capsys, monkeypatch, cache_dir):
    """A table mismatch at p = 13: papertable stops there, and its stderr
    line gives the reason verify gives."""
    reason = _plant_one_mismatch(monkeypatch, 13)
    code = main(["papertable", "--range", "7", "17", "--cache-dir", str(cache_dir)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"decomposition failed at p=13: table_match: {reason}\n"

def test_the_text_report_names_each_linearity_failure(capsys, monkeypatch, cache_dir):
    """After "linearity: FAIL" the text report gives one line per failure:
    its cell, its prime and its reason (expected and computed for a point
    off the fit)."""
    import dlcusp.cli

    verify_one = dlcusp.cli._verify_one

    def shifted(p, cache_dir_str, reading):
        row = verify_one(p, cache_dir_str, reading)
        if p == 31:
            row["decomposition"].coefficients[("split", 0)] += 1
        return row

    monkeypatch.setattr(dlcusp.cli, "_verify_one", shifted)
    code, out = run(capsys, "verify", "--range", "7", "31", "--no-timestamp", "--cache-dir", str(cache_dir))
    lines = out.splitlines()
    at = lines.index(next(line for line in lines if line.startswith("linearity: FAIL")))
    assert code == 1 and lines[at + 1] == "      failure E/split/7 at p=31: expected 2, computed 3"
    assert lines[at + 2].startswith("aggregate: fail")


def test_stage_times_are_reported_only_with_timestamps(capsys, cache_dir):
    """Each row times every stage it ran, under the name its reasons use;
    --no-timestamp drops them with the other timing fields."""
    args = ("verify", "--range", "23", "23", "--format", "json", "--cache-dir", str(cache_dir))
    code, out = run(capsys, *args)
    row = json.loads(out)["primes"][0]
    stages = ["corollary_all_appear", "decompose_dl", "load_character_data", "remark_pipeline", "validate_table",
              "verify_torus_placement", "weinstein_character"]
    assert code == 0 and sorted(row["stages"]) == stages
    assert all(isinstance(t, float) and 0 <= t <= row["seconds"] + 0.001 for t in row["stages"].values())
    code, out = run(capsys, *args, "--no-timestamp")
    assert code == 0 and "stages" not in json.loads(out)["primes"][0] and "seconds" not in out
