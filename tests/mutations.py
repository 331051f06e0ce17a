"""Mutations the test suite must kill, and a runner that applies them.

Each entry is (file, snippet, replacement, tests): a file of the source
tree, an exact snippet that occurs once in it, what the snippet becomes,
and the pytest node ids that must each fail once it is replaced.  A check
whose mutation no named test notices is a check nothing shows to fire.
test_mutations.py, in tier 1, only checks that every snippet still occurs
exactly once and that every test named is a def in its file, so that
neither an edit of the source nor a renamed test can retire a mutation
unnoticed.

Run the mutations from the repository root:

    python tests/mutations.py

Each mutation is applied alone to a copy of src/ and tests/ in a temporary
directory, and each of its tests runs there in its own pytest process, one
process at a time.  A test is red when pytest exits 1 (tests failed), not
when it cannot collect or finds no test.  The runner prints one line per
mutation and exits 1 if any mutation survives, i.e. if any of its named
tests stays green.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTATIONS = [
    # S(m) without its (-1)^m term: the torus part of every pattern pair is wrong
    (
        "src/dlcusp/chartable.py",
        "n * (m % n == 0) - 1 - (-1) ** m",
        "n * (m % n == 0) - 1",
        [
            "tests/test_chartable.py::test_cos_sums_are_the_canonical_sums",
            "tests/test_chartable.py::test_pattern_pairs_are_the_canonical_torus_sums",
            "tests/test_chartable.py::test_validate_table",
        ],
    ),
    # the wanted ids ignore the sign of a: -c_kd is looked up as c_kd
    (
        "src/dlcusp/chartable.py",
        "(x + n // 2 * (a < 0)) % n",
        "x % n",
        [
            "tests/test_chartable.py::test_every_built_row_has_its_familys_pattern",
            "tests/test_chartable.py::test_a_built_table_is_paired_by_its_patterns_alone",
            "tests/test_chartable.py::test_a_discrete_row_negated_on_its_torus_keeps_a_pattern",
        ],
    ),
    # a row is given a pattern with a c_e coordinate at one of its six other cells
    (
        "src/dlcusp/chartable.py",
        "coords[x] is not None and not coords[x][2]",
        "coords[x] is not None",
        ["tests/test_chartable.py::test_a_cos_value_off_the_tori_leaves_no_pattern"],
    ),
    # a pair with a row without a pattern passes unpaired
    (
        "src/dlcusp/chartable.py",
        "if value == one:",
        "if True:",
        [
            "tests/test_chartable.py::test_faults_outside_closed_coordinates_get_the_oracles_message",
            "tests/test_chartable.py::test_a_cos_value_off_the_tori_leaves_no_pattern",
        ],
    ),
    # every closed sum without its tau coefficient
    (
        "src/dlcusp/classfun.py",
        "tau += w * (eps * r * s2 + s * r2)",
        "pass",
        [
            "tests/test_classfun.py::test_closed_pairings_equal_the_per_class_reference",
            "tests/test_chartable.py::test_faults_outside_closed_coordinates_get_the_oracles_message",
        ],
    ),
    # the kernel's products outside closed coordinates dropped
    (
        "src/dlcusp/classfun.py",
        "return value + _frame_dot(rest, scale) if rest else value",
        "return value",
        [
            "tests/test_classfun.py::test_closed_pairings_equal_the_per_class_reference",
            "tests/test_chartable.py::test_faults_outside_closed_coordinates_get_the_oracles_message",
            "tests/test_cuspform.py::test_non_rational_multiplicity_names_the_first_row",
        ],
    ),
    # the assembly of a closed sum without its tau part
    (
        "src/dlcusp/chartable.py",
        "out += self.tau.scale(Fraction(tau, scale))",
        "pass",
        [
            "tests/test_classfun.py::test_closed_pairings_equal_the_per_class_reference",
            "tests/test_chartable.py::test_faults_in_closed_coordinates_agree_with_the_oracle",
            "tests/test_chartable.py::test_faults_outside_closed_coordinates_get_the_oracles_message",
        ],
    ),
    # _closed_rows with one memo for every class, keyed by the exponent alone
    (
        "src/dlcusp/chartable.py",
        "memos.setdefault((sign * c, pair), {})",
        "memos.setdefault(0, {})",
        ["tests/test_chartable.py::test_closed_rows_equal_the_per_cell_oracle"],
    ),
    # a cache load that inflates the whole stream, past the bound
    (
        "src/dlcusp/cli.py",
        "inflate.decompress(packed, MAX_CACHE_BYTES)",
        "inflate.decompress(packed)",
        ["tests/test_cli.py::test_cache_of_any_malformed_shape_is_rebuilt[padded-past-bound]"],
    ),
    # a cache load that accepts bytes after the gzip stream
    (
        "src/dlcusp/cli.py",
        " or inflate.unused_data",
        "",
        ["tests/test_cli.py::test_cache_of_any_malformed_shape_is_rebuilt[bytes-after-stream]"],
    ),
    # verify decomposes a table its audit failed
    (
        "src/dlcusp/cli.py",
        "if not valid or s is None:",
        "if s is None:",
        [
            "tests/test_cli.py::test_a_table_that_fails_its_audit_is_never_decomposed",
            "tests/test_cli.py::test_a_build_with_flipped_central_signs_fails_only_the_center_check",
        ],
    ),
    # the audit helper trusts a table no audit has passed
    (
        "src/dlcusp/chartable.py",
        "if not data._audited:",
        "if False:",
        [
            "tests/test_chartable.py::test_only_a_passing_audit_marks_a_table",
            "tests/test_cuspform.py::test_decompose_dl_refuses_a_copy_that_breaks_orthonormality",
        ],
    ),
    # setting the rows keeps the mark of the rows before
    (
        "src/dlcusp/chartable.py",
        "self._audited = False",
        "self._audited = getattr(self, '_audited', False)",
        ["tests/test_chartable.py::test_every_set_clears_the_mark"],
    ),
    # the naming step drops one of the rows where f and m differ
    (
        "src/dlcusp/cuspform.py",
        "for x, ids in diff)",
        "for x, ids in diff[1:])",
        [
            "tests/test_cuspform.py::test_rebuild_differs_at_equals_the_class_by_class_replay[13]",
            "tests/test_cuspform.py::test_one_half_of_an_exceptional_pair_leaves_the_span[13-exceptional_split_plus]",
        ],
    ),
    # chartable prints a table no audit has passed
    (
        "src/dlcusp/cli.py",
        "ensure_audited(data)",
        "None",
        ["tests/test_cli.py::test_corrupted_cached_table_is_refused_before_use[command3]"],
    ),
    # the remark's St (x) R without its point: one constant per torus only
    (
        "src/dlcusp/cuspform.py",
        'point[t1][k1 % len(point[t1])] += scale if t1 == "split" else -scale',
        "pass",
        ["tests/test_cuspform.py::test_remark_pipeline_equals_the_expansion_it_replaces"],
    ),
    # the remark's point with the split sign on the anisotropic torus too
    (
        "src/dlcusp/cuspform.py",
        'scale if t1 == "split" else -scale',
        "scale",
        ["tests/test_cuspform.py::test_remark_pipeline_equals_the_expansion_it_replaces"],
    ),
    # a permutation character counted with the class size for the centralizer order
    (
        "src/dlcusp/cuspform.py",
        "table.classes[c].centralizer_order",
        "table.classes[c].size",
        ["tests/test_cuspform.py::test_counted_s_equals_the_induced_s"],
    ),
    # each unipotent-type class linked to itself as its inverse, whatever (-1/p) is
    (
        "src/dlcusp/group.py",
        "first + (res * flip == -1)",
        "first + (res == -1)",
        ["tests/test_group.py::test_inverse_class_is_an_involution_matching_true_inverses"],
    ),
    # the rows the children send are dropped: only the parent's share is reported
    (
        "src/dlcusp/cli.py",
        "rows += [done(row) for row in got]",
        "pass",
        ["tests/test_cli.py::test_verify_jobs_match_serial"],
    ),
    # a child's exit status ignored: a worker that died is read as one that sent nothing
    (
        "src/dlcusp/cli.py",
        "if status:",
        "if False:",
        ["tests/test_cli.py::test_a_failing_worker_fails_the_run_and_names_its_primes[exit]"],
    ),
    # the pool clamped on the machine's CPUs, not on those the process may use
    (
        "src/dlcusp/cli.py",
        "return len(os.sched_getaffinity(0))",
        "return os.cpu_count() or 1",
        ["tests/test_cli.py::test_the_pool_counts_only_the_cpus_it_may_use"],
    ),
]


def _red(tree: Path, test: str) -> bool:
    """Whether test fails (pytest exits 1) in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 1


def run() -> int:
    survived = 0
    for file, snippet, replacement, tests in MUTATIONS:
        with tempfile.TemporaryDirectory(prefix="dlcusp-mutation-") as tmp:
            tree = Path(tmp)
            for part in ("src", "tests"):
                shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "pyproject.toml", tree)
            path = tree / file
            text = path.read_text()
            if text.count(snippet) != 1:
                raise SystemExit(f"{file}: the snippet {snippet!r} does not occur exactly once")
            path.write_text(text.replace(snippet, replacement))
            green = [test for test in tests if not _red(tree, test)]
        survived += bool(green)
        print(f"{'SURVIVED' if green else 'killed'}: {file}: {snippet.strip()!r}", *(f"  green: {t}" for t in green), sep="\n")
    print(f"{len(MUTATIONS) - survived} of {len(MUTATIONS)} mutations killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(run())
