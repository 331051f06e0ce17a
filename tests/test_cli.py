import json
import re
from fractions import Fraction

import pytest

from dlcusp.chartable import CharacterData, validate_table
from dlcusp.cli import builtin_table_markdown, main

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
    data = CharacterData.from_json_dict(json.loads((cache_dir / "sl2_p7.json").read_text()))
    assert data.from_cache
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


def test_verify_jobs_match_serial(capsys, cache_dir):
    args = ("verify", "--range", "7", "23", "--format", "json", "--no-timestamp", "--cache-dir", str(cache_dir))
    _, serial = run(capsys, *args)
    _, parallel = run(capsys, *args, "--jobs", "3")
    assert serial == parallel


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--range", "7", "7", "--jobs", jobs, "--no-cache"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.fixture
def fake_pool(monkeypatch):
    """A ProcessPoolExecutor stand-in that runs in this process and records
    the worker counts it was started with and the primes handed to it, so no
    real pool is ever started.  The CLI imports the pool where it starts one,
    so the stand-in replaces it in concurrent.futures."""
    import concurrent.futures

    record = {"started": [], "submitted": []}

    class FakePool:
        def __init__(self, max_workers):
            record["started"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, primes, *rest):
            record["submitted"].extend(primes)
            return list(map(fn, primes, *rest))  # rows in submission order

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return record


@pytest.mark.parametrize("cpus, workers", [(4, 3), (2, 2), (None, None)])
def test_pool_size_is_clamped(capsys, monkeypatch, fake_pool, cache_dir, cpus, workers):
    """min(jobs, primes, cores) workers, and no pool at all for one."""
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, _ = run(capsys, "verify", "--range", "7", "13", "--jobs", "64", "--cache-dir", str(cache_dir),
                  "--no-timestamp")
    assert code == 0
    assert fake_pool["started"] == ([] if workers is None else [workers])


def test_pool_gets_the_largest_primes_first(capsys, monkeypatch, fake_pool, cache_dir):
    """Primes go to the pool largest first, and the report is still sorted."""
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out = run(capsys, "verify", "--range", "7", "13", "--jobs", "2", "--format", "json",
                    "--cache-dir", str(cache_dir), "--no-timestamp")
    assert code == 0
    assert fake_pool["submitted"] == [13, 11, 7]
    assert [row["p"] for row in json.loads(out)["primes"]] == [7, 11, 13]


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


def test_cache_corruption_recovers(capsys, cache_dir):
    bad = cache_dir / "sl2_p13.json"
    bad.write_text("{not json")
    code, out = run(capsys, "decompose", "13", "--format", "json", "--cache-dir", str(cache_dir))
    assert code == 0
    assert json.loads(bad.read_text())["p"] == 13  # rebuilt and rewritten


def _ids_of(doc, label):
    return next(d for d in doc["irreducibles"] if d["label"] == label)["ids"]


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
    elif shape == "huge-order":  # a prime order: parsing would factor it by trial division for ages
        doc["values"][-1] = f"{2**89 - 1}: 1*z^1"
    elif shape == "schema-1":
        doc.clear()
        doc.update(CharacterData(7).to_json_dict())


@pytest.mark.parametrize(
    "shape",
    ["array", "string", "number", "null", "inner", "id-out-of-range", "id-negative", "id-bool", "id-float",
     "row-length", "equal-texts", "zero-not-first", "non-canonical", "huge-order", "schema-1"],
)
def test_cache_of_any_malformed_shape_is_rebuilt(capsys, tmp_path, shape):
    fresh = CharacterData(7).to_cache_dict()
    if shape in ("array", "string", "number", "null"):
        doc = {"array": [1, 2], "string": "sl2", "number": 7, "null": None}[shape]
    else:  # right schema and prime (or the stale schema 1), one fault inside
        doc = json.loads(json.dumps(fresh))
        _fault(shape, doc)
    bad = tmp_path / "sl2_p7.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "decompose", "7", "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["exact"]
    assert json.loads(bad.read_text()) == fresh  # rebuilt and rewritten
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", "--range", "7", "7", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["primes"][0]["cache_hit"] is False


def test_cache_rejects_wrong_prime_or_schema(cache_dir):
    from dlcusp.chartable import CharacterData

    doc = json.loads((cache_dir / "sl2_p7.json").read_text())
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
    cls = next(i for i, c in enumerate(doc["classes"]) if c["kind"] == "split_semisimple" and ids[i] != 0)
    negated = (-CycNumber.from_text(values[ids[cls]])).to_text()
    if negated not in values:
        values.append(negated)
    ids[cls] = values.index(negated)
    (directory / "sl2_p7.json").write_text(json.dumps(doc))
    return str(directory)


_BROKEN_PAIR = r"<trivial, principal\(1\)> = .* at p=7"


@pytest.mark.parametrize(
    "command",
    [("decompose", "7"), ("corollaries", "--range", "7", "7"), ("papertable", "--range", "7", "7"), ("chartable", "7")],
)
def test_corrupted_cached_table_is_refused_before_use(capsys, tmp_path, command):
    code = main([*command, "--cache-dir", _corrupted_cache(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert re.fullmatch(f"verification failure: {_BROKEN_PAIR}\n", captured.err)
    assert captured.out == ""


def test_verify_reports_why_a_check_failed(capsys, tmp_path, cache_dir):
    cache = _corrupted_cache(tmp_path)
    args = ("verify", "--range", "7", "7", "--no-timestamp", "--cache-dir")
    code, out = run(capsys, *args, cache, "--format", "json")
    row = json.loads(out)["primes"][0]
    assert code == 1 and row["checks"]["table_valid"] is False
    assert re.fullmatch(_BROKEN_PAIR, row["reasons"]["table_valid"])
    code, out = run(capsys, *args, cache)
    assert code == 1 and re.search(f"^      reason table_valid: {_BROKEN_PAIR}$", out, re.M)
    code, out = run(capsys, *args, str(cache_dir), "--format", "json")
    assert code == 0 and "reasons" not in json.loads(out)["primes"][0]  # only failing rows carry reasons


def test_cache_document_holds_only_the_irreducible_table(capsys, tmp_path):
    """The cache stores what validate_table audits, interned on one line:
    each distinct text once, and per irreducible an id row; DL rows are derived."""
    code, _ = run(capsys, "decompose", "7", "--cache-dir", str(tmp_path))
    text = (tmp_path / "sl2_p7.json").read_text()
    doc = json.loads(text)
    assert code == 0 and sorted(doc) == ["classes", "irreducibles", "p", "schema", "values"]
    assert doc["schema"] == "dlcusp-chartable/2" and "\n" not in text
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
    (tmp_path / "sl2_p7.json").write_text(json.dumps(doc))
    args = ("verify", "--range", "7", "7", "--format", "json", "--no-timestamp", "--cache-dir", str(tmp_path))
    code, out = run(capsys, *args)
    assert code == 0 and json.loads(out)["primes"][0]["cache_hit"] is False
    fresh = run(capsys, "chartable", "7", "--format", "json", "--no-cache")
    (tmp_path / "sl2_p7.json").write_text(json.dumps(doc))
    assert run(capsys, "chartable", "7", "--format", "json", "--cache-dir", str(tmp_path)) == fresh
    code, out = run(capsys, *args)
    assert code == 0 and json.loads(out)["primes"][0]["cache_hit"]


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
    degree-square sum; the per-row degree audit names the row."""
    doc = CharacterData(7).to_cache_dict()
    rows = {tuple(d["label"]): d for d in doc["irreducibles"]}
    a, b = rows[("principal", 1)], rows[("discrete", 1)]
    a["degree"], b["degree"] = b["degree"], a["degree"]
    (tmp_path / "sl2_p7.json").write_text(json.dumps(doc))
    _refused(capsys, tmp_path, 7, r"principal\(1\) has degree 6 but chi\(1\) = 1: 8 at p=7")


@pytest.mark.parametrize(
    "swap, message",
    [
        # principal(1) and principal(3) are both non-trivial on the center
        ((["principal", 1], ["principal", 3]), r"principal\(1\) is 1: 0 at the split torus generator, not .* at p=13"),
        ((["exceptional_split_plus"], ["exceptional_split_minus"]),
         r"exceptional_split_plus - exceptional_split_minus is not the Gauss sum at the unipotent class \(1, 1\) at p=13"),
    ],
)
def test_swapped_cached_labels_are_refused(capsys, tmp_path, swap, message):
    """A cached table with two labels swapped passes every other check (the
    first swap even every verify check); the label audit names the row."""
    doc = CharacterData(13).to_cache_dict()
    a, b = (next(d for d in doc["irreducibles"] if d["label"] == label) for label in swap)
    a["label"], b["label"] = b["label"], a["label"]
    (tmp_path / "sl2_p13.json").write_text(json.dumps(doc))
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
        # the two classes of -u: every check but the center's passes (the
        # swap keeps class sizes, commutes with inversion and leaves the
        # semisimple classes and the unipotent class (1, 1) alone)
        (7, [(4, 5)], r"the center does not act on exceptional_split_plus by chi\(-1\)/chi\(1\) at class 2 at p=7"),
        (13, [(4, 5)], r"the center does not act on exceptional_split_plus by chi\(-1\)/chi\(1\) at class 2 at p=13"),
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
    (tmp_path / f"sl2_p{p}.json").write_text(json.dumps(doc))
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
    refused by chartable and decompose, naming the pair, as a cached table
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
        assert re.fullmatch(r"verification failure: <trivial, principal\(1\)> = .* at p=7\n", captured.err)


def test_a_build_with_flipped_central_signs_fails_only_the_center_check(capsys, monkeypatch):
    """Both exceptional pairs built with the wrong central sign in their
    difference pass every pairing, degree, duality and label check, and
    every other check of verify; the build no longer checks the central
    character, and the audit's center check refuses the table."""
    import dlcusp.chartable

    legendre = dlcusp.chartable.legendre
    monkeypatch.setattr(dlcusp.chartable, "legendre", lambda a, p: -legendre(a, p))
    message = "the center does not act on exceptional_split_plus by chi(-1)/chi(1) at class 2 at p=7"
    code = main(["decompose", "7", "--no-cache"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and captured.err == f"verification failure: {message}\n"
    code, out = run(capsys, "verify", "--range", "7", "7", "--format", "json", "--no-timestamp", "--no-cache")
    row = json.loads(out)["primes"][0]
    assert code == 1 and [name for name, ok in row["checks"].items() if not ok] == ["table_valid"]
    assert row["reasons"] == {"table_valid": message}


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


def test_importing_the_cli_leaves_the_process_pool_out():
    """Only a run with a pool pays for importing one."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dlcusp

    src = str(Path(dlcusp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, dlcusp.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out == "False\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failing_load_fails_only_its_prime(capsys, monkeypatch, fake_pool, cache_dir, jobs):
    """An exception while loading one prime's table fails every check of that
    prime with the stage named; the other primes are still verified and the
    exit code stays 1, with and without the pool."""
    import os

    import dlcusp.cli

    load = dlcusp.cli.load_character_data

    def broken(p, cache_dir):
        if p == 11:
            raise RuntimeError("planted fault")
        return load(p, cache_dir)

    monkeypatch.setattr(dlcusp.cli, "load_character_data", broken)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out = run(capsys, "verify", "--range", "7", "13", "--jobs", jobs, "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    report = json.loads(out)
    assert code == 1 and report["aggregate"] == "fail"
    assert fake_pool["submitted"] == ([] if jobs == "1" else [13, 11, 7])
    rows = {row["p"]: row for row in report["primes"]}
    assert list(rows) == [7, 11, 13] and rows[7]["status"] == rows[13]["status"] == "pass"
    failed = rows[11]
    names = {"table_valid", "torus_placement", "degree_identity", "exact", "table_match", "remark_oracle"}
    assert failed["status"] == "fail" and failed["cache_hit"] is False
    assert failed["checks"] == dict.fromkeys(names, False)
    assert failed["reasons"] == dict.fromkeys(names, "internal: load_character_data: RuntimeError: planted fault")


def _failed(report):
    return {row["p"]: sorted(name for name, ok in row["checks"].items() if not ok) for row in report["primes"]}


def test_a_torus_placement_fault_is_named(capsys, monkeypatch, cache_dir):
    """No conjugation witness found: torus_placement fails, with the reason."""
    import dlcusp.cuspform

    monkeypatch.setattr(dlcusp.cuspform, "conjugate_into_torus", lambda sub, torus: None)
    code, out = run(capsys, "verify", "--range", "7", "7", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    report = json.loads(out)
    assert code == 1 and _failed(report) == {7: ["torus_placement"]}
    assert report["primes"][0]["reasons"] == {"torus_placement": "Gx_tilde embeds in no torus at p=7"}


def test_a_degree_identity_fault_is_named(capsys, monkeypatch, cache_dir):
    """Twice the trivial character added twice over: the degree formulas
    disagree, degree_identity fails with both degrees in the reason, and no
    decomposition is attempted."""
    import dlcusp.cuspform

    trivial = dlcusp.cuspform.trivial_character
    monkeypatch.setattr(dlcusp.cuspform, "trivial_character", lambda table: trivial(table).scale(2))
    code, out = run(capsys, "verify", "--range", "7", "7", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    report = json.loads(out)
    assert code == 1 and "degree_identity" in _failed(report)[7]
    assert report["primes"][0]["reasons"]["degree_identity"] == "degree 8 != index formula 6 / genus formula 6"


def test_an_exact_rebuild_fault_names_the_class(capsys, monkeypatch, cache_dir):
    """One cell the rebuild reads changed, in the row of a Deligne-Lusztig
    character with a non-zero coefficient: the rebuild differs from s at
    that class only, and exact names it.  The rebuild reads the rows
    dl_terms names through CharacterData.irreducible; the multiplicities
    and the audit read data.irreducibles, so they see no fault."""
    import dataclasses

    from dlcusp.chartable import dl_terms
    from dlcusp.cuspform import decompose_dl

    from conftest import get_data

    data = get_data(11)
    coefficients = decompose_dl(data).coefficients
    (label, _), = next(dl_terms(11, *key) for key, c in coefficients.items() if c and len(dl_terms(11, *key)) == 1)
    i = next(i for i, rec in enumerate(data.table.classes) if rec.kind == "split_semisimple")
    irreducible = CharacterData.irreducible

    def faulty(self, *name):
        irr = irreducible(self, *name)
        if name != label:
            return irr
        ids = list(irr.ids)
        ids[i] = next(j for j, v in enumerate(self.values) if v != self.values[ids[i]])
        return dataclasses.replace(irr, ids=tuple(ids))

    monkeypatch.setattr(CharacterData, "irreducible", faulty)
    code, out = run(capsys, "verify", "--range", "11", "11", "--format", "json", "--no-timestamp",
                    "--cache-dir", str(cache_dir))
    report = json.loads(out)
    assert code == 1 and _failed(report) == {11: ["exact"]}
    assert report["primes"][0]["reasons"] == {"exact": f"rebuild differs from s at class {i} (split_semisimple) at p=11"}


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
    import dlcusp.cuspform

    trivial = dlcusp.cuspform.trivial_character
    monkeypatch.setattr(dlcusp.cuspform, "trivial_character", lambda table: trivial(table).scale(2))
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
