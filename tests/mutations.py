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
when it cannot collect or finds no test.  A test still running after
TEST_TIMEOUT_S seconds is stopped, and its mutation's outcome is TIMEOUT:
a mutant that makes a test hang is neither killed nor shown to survive.
The runner prints one line per mutation and exits 1 unless every mutation
is killed, i.e. if any named test stays green or times out.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_TIMEOUT_S = 120  # the slowest named test takes a few seconds

MUTATIONS = [
    # S(m) without its (-1)^m term: the torus part of every pattern pair is wrong
    (
        "src/dlcusp/chartable.py",
        "sums = [-2, 0] * n  # -1 - (-1)^m",
        "sums = [-1, -1] * n",
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
            "tests/test_chartable.py::test_audit_agrees_with_the_cell_by_cell_oracle",
            "tests/test_chartable.py::test_a_planted_row_gets_the_pins_oracle_message[p11-discrete1-negated-on-its-torus]",
        ],
    ),
    # the pairs run before the pin, on rows no pin has matched to their labels
    (
        "src/dlcusp/chartable.py",
        "    _pin_rows(data)\n    _pair_rows(data)\n",
        "    _pair_rows(data)\n    _pin_rows(data)\n",
        [
            "tests/test_chartable.py::test_audit_agrees_with_the_cell_by_cell_oracle",
            "tests/test_chartable.py::test_a_planted_row_gets_the_pins_oracle_message[p7-principal1-2-rotated]",
        ],
    ),
    # a pair check that never raises
    (
        "src/dlcusp/chartable.py",
        "        if tau or rat != (i == j) * target:\n",
        "        if False:\n",
        ["tests/test_chartable.py::test_the_pair_check_fires_on_a_table_a_wrong_closed_form_pins"],
    ),
    # the pairs read each row's split pattern as its nonsplit one and back
    (
        "src/dlcusp/chartable.py",
        "(a, k), (b, l) = irr.patterns or _family(families, irr.label)[1:3]",
        "(a, k), (b, l) = (irr.patterns or _family(families, irr.label)[1:3])[::-1]",
        ["tests/test_chartable.py::test_validate_table", "tests/test_chartable.py::test_a_built_table_is_paired_by_its_patterns_alone"],
    ),
    # every closed sum without its tau coefficient
    (
        "src/dlcusp/classfun.py",
        "tau += w * (eps * r * s2 + s * r2)",
        "pass",
        ["tests/test_classfun.py::test_closed_pairings_equal_the_per_class_reference"],
    ),
    # the kernel's products outside closed coordinates dropped
    (
        "src/dlcusp/classfun.py",
        "return value + _frame_dot(rest, scale) if rest else value",
        "return value",
        [
            "tests/test_classfun.py::test_closed_pairings_equal_the_per_class_reference",
            "tests/test_cuspform.py::test_an_irrational_value_at_one_class_is_paired_in_the_integer_frame",
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
    # the write-out interns the rows in the table's order, not the build's (principal and discrete first)
    (
        "src/dlcusp/chartable.py",
        'key=lambda r: irrs[r].label[0] not in ("principal", "discrete")',
        "key=lambda r: 0",
        [
            "tests/test_chartable.py::test_a_built_table_writes_out_the_cell_by_cell_build",
            "tests/test_chartable.py::test_a_build_interns_values_in_the_order_of_their_first_cell",
        ],
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
            "tests/test_cli.py::test_a_build_with_flipped_central_signs_fails_only_the_audit",
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
    # a subgroup placed in a torus that holds the representative of any one of its classes, not of all
    (
        "src/dlcusp/cuspform.py",
        "all(r in data.torus(t).dlog for r in reps)",
        "any(r in data.torus(t).dlog for r in reps)",
        [
            "tests/test_cuspform.py::test_verify_torus_placement_matches_the_witness_oracle",
            "tests/test_acceptance.py::test_criterion_07_torus_placement",
            "tests/test_cli.py::test_a_torus_placement_fault_is_named",
        ],
    ),
    # the placement tests the split torus only
    (
        "src/dlcusp/cuspform.py",
        "placements = [t for t in TORI if",
        "placements = [t for t in TORI[:1] if",
        [
            "tests/test_cuspform.py::test_verify_torus_placement_matches_the_witness_oracle",
            "tests/test_acceptance.py::test_criterion_07_torus_placement",
        ],
    ),
    # the placement never compared with the mod-12 table
    (
        "src/dlcusp/cuspform.py",
        "if pattern != embedding_pattern(data.p):",
        "if False:",
        ["tests/test_cli.py::test_a_placement_off_the_mod12_table_is_named"],
    ),
    # a child that raises exits without saying why
    (
        "src/dlcusp/cli.py",
        'os.write(2, f"{type(exc).__name__}: {exc}\\n".encode())',
        "pass",
        ["tests/test_cli.py::test_a_worker_that_raises_reports_its_exception"],
    ),
    # no home directory ends the run instead of its cache
    (
        "src/dlcusp/cli.py",
        "except RuntimeError:  # HOME unset",
        "except KeyError:  # HOME unset",
        ["tests/test_cli.py::test_no_home_directory_means_no_cache"],
    ),
    # the pin reads each family on the torus where it is not zero only
    (
        "src/dlcusp/chartable.py",
        "if get(irr.ids) != wanted[pattern]:",
        "if pattern[0] and get(irr.ids) != wanted[pattern]:",
        ["tests/test_chartable.py::test_the_pin_names_a_planted_cell[principal_off_its_torus]"],
    ),
    # the pin skips the six cells at +-I and the unipotent-type classes
    (
        "src/dlcusp/chartable.py",
        "for c, s, *r in six:",
        "for c, s, *r in six[:0]:",
        [
            "tests/test_cli.py::test_a_cached_table_that_only_the_pin_refuses_is_refused[p29_reflected]",
            "tests/test_chartable.py::test_the_pin_names_a_planted_cell[steinberg_at_u]",
            "tests/test_cli.py::test_cached_table_with_swapped_columns_is_refused[p7_minus_u]",
        ],
    ),
    # the six cells pinned without the central sign s^k
    (
        "src/dlcusp/chartable.py",
        "rat, tau = s**k * rat, s**k * tau",
        "pass",
        [
            "tests/test_chartable.py::test_built_labels_name_their_rows[7]",
            "tests/test_chartable.py::test_the_pin_names_a_planted_cell[exceptional_at_minus_u]",
        ],
    ),
    # values left out of lowest terms: equal values no longer structurally equal
    (
        "src/dlcusp/cyclotomic.py",
        "return (n, den, num) if g == 1 else (n, den // g, {e: c // g for e, c in num.items()})",
        "return n, den, num",
        ["tests/test_cyclotomic.py::test_every_value_is_in_lowest_terms"],
    ),
    # a sum that rescales only its first operand to the common denominator
    (
        "src/dlcusp/cyclotomic.py",
        "m, f = n // other.order, sign * (den // other.den)",
        "m, f = n // other.order, sign",
        ["tests/test_cyclotomic.py::test_ring_axioms_randomized", "tests/test_cyclotomic.py::test_every_value_is_in_lowest_terms"],
    ),
    # the r + s tau decode accepts one exponent more than tau has
    (
        "src/dlcusp/chartable.py",
        "len(num) - (0 in num) == self._support",
        "len(num) - (0 in num) <= self._support + 1",
        ["tests/test_chartable.py::test_r_plus_s_tau_is_decoded_only_on_taus_exact_exponents"],
    ),
    # the shift c added back to a row other than the trivial one
    (
        "src/dlcusp/cuspform.py",
        'value + c if irr.label == ("trivial",) else value',
        'value + c if irr.label == ("steinberg",) else value',
        [
            "tests/test_cuspform.py::test_multiplicities_equal_the_pairwise_inner_products[7]",
            "tests/test_cuspform.py::test_decompose_p7",
        ],
    ),
    # s never checked integral
    (
        "src/dlcusp/cuspform.py",
        "if any(v.denominator != 1 for v in values):",
        "if False:",
        ["tests/test_cuspform.py::test_weinstein_refuses_a_non_integral_value"],
    ),
    # s never checked self-dual and trivial on the center
    (
        "src/dlcusp/cuspform.py",
        "if dual(s) != s or s.values[0] != s.values[1]:",
        "if False:",
        [
            "tests/test_cuspform.py::test_weinstein_refuses_a_value_off_the_center_or_duality[minus_identity]",
            "tests/test_cuspform.py::test_weinstein_refuses_a_value_off_the_center_or_duality[unipotent_not_self_inverse]",
        ],
    ),
    # a negative multiplicity read as an appearance
    (
        "src/dlcusp/cuspform.py",
        "if m < 0:",
        "if False:",
        ["tests/test_cuspform.py::test_corollary_all_appear_refuses_a_negative_multiplicity"],
    ),
    # a split exceptional half allowed in the cusp form at p = 23 mod 24
    (
        "src/dlcusp/cuspform.py",
        "if result.multiplicities[(name,)] != 0:",
        "if False:",
        ["tests/test_cuspform.py::test_corollary_odd_multiplicity_refuses_a_split_half"],
    ),
    # the odd-multiplicity report never raises
    (
        "src/dlcusp/cuspform.py",
        "if not (all_odd and real and dual_closed):",
        "if False:",
        ["tests/test_cuspform.py::test_corollary_odd_multiplicity_refuses_an_even_multiplicity"],
    ),
    # a fit outside (1/12)Z accepted
    (
        "src/dlcusp/cuspform.py",
        "if 12 % a.denominator or 12 % b.denominator:",
        "if False:",
        ["tests/test_cuspform.py::test_a_fit_outside_twelfths_is_a_failure"],
    ),
    # a cached text's order parsed unbounded: a huge prime order is factored by trial division
    (
        "src/dlcusp/chartable.py",
        "if not all(0 < n and field % n == 0 for n in",
        "if False and not all(0 < n and field % n == 0 for n in",
        ["tests/test_cli.py::test_cache_of_any_malformed_shape_is_rebuilt[huge-order]"],
    ),
    # a cache file read past its length bound
    (
        "src/dlcusp/cli.py",
        "if len(packed) > MAX_CACHE_BYTES:",
        "if False:",
        ["tests/test_cli.py::test_a_cache_file_past_the_bound_is_refused_unread[one-byte-past]"],
    ),
    # the pair groups keyed without the parity of a generic k
    (
        "src/dlcusp/chartable.py",
        "k % 2 - 2 if 0 < 2 * k < p - 1 else k, b, l % 2 - 2 if 0 < 2 * l < p + 1 else l",
        "-2 if 0 < 2 * k < p - 1 else k, b, -2 if 0 < 2 * l < p + 1 else l",
        ["tests/test_chartable.py::test_grouped_pairs_equal_the_pair_loop[odd-row-with-even-six-cells-13]"],
    ),
    # the diagonal pairs dropped: no norm is checked
    (
        "src/dlcusp/chartable.py",
        "pairs = [(i, i) for i in firsts] + ",
        "pairs = ",
        ["tests/test_chartable.py::test_grouped_pairs_equal_the_pair_loop[doubled-pattern-13]"],
    ),
    # a pair at k = k summed as if its two ks were generic and distinct: S(0) read as S(2)
    (
        "src/dlcusp/chartable.py",
        "ss[k - k2]",
        "ss[k - k2 or 2]",
        ["tests/test_chartable.py::test_validate_table", "tests/test_chartable.py::test_grouped_pairs_pass_every_built_table[13]"],
    ),
    # the build's patterns copied from the families, not read off the closed form
    (
        "src/dlcusp/chartable.py",
        "a, odd = divmod(2 * sign * max(own), den)",
        "a, odd = 2 * sign, 0",
        [
            "tests/test_chartable.py::test_a_build_from_a_wrong_closed_form_is_refused[doubled-13]",
            "tests/test_cli.py::test_a_fresh_build_is_audited_before_use",
        ],
    ),
    # the pattern pin compares six cells only, not patterns
    (
        "src/dlcusp/chartable.py",
        "if irr.patterns != family[1:3] or ",
        "if ",
        [
            "tests/test_chartable.py::test_a_pattern_fault_gets_the_pins_oracle_message[wrong-k-13]",
            "tests/test_chartable.py::test_a_pattern_fault_gets_the_pins_oracle_message[wrong-sign-of-a-7]",
        ],
    ),
    # the pattern pin compares patterns only, not six-cell ids
    (
        "src/dlcusp/chartable.py",
        " or list(map(closed.coords.__getitem__, irr.six)) != wanted[key]:",
        ":",
        ["tests/test_chartable.py::test_a_pattern_fault_gets_the_pins_oracle_message[wrong-six-id-13]"],
    ),
    # the pattern pin trusts the torus cells the build read
    (
        "src/dlcusp/chartable.py",
        "if [classes[c].trace for c, _ in cells] != [traces[d] for _, d in cells]:",
        "if False:",
        ["tests/test_chartable.py::test_a_build_from_a_wrong_closed_form_is_refused[swapped-13]"],
    ),
    # a cached pattern loaded whatever its shape
    (
        "src/dlcusp/chartable.py",
        "if not all(isinstance(x, list) and [*map(type, x)] == [int, int] and 0 <= x[1] <= n // 2 for x, n in zip(patterns, orders)):",
        "if False:",
        [
            "tests/test_cli.py::test_cache_of_any_malformed_shape_is_rebuilt[pattern-triple]",
            "tests/test_cli.py::test_cache_of_any_malformed_shape_is_rebuilt[pattern-bool]",
            "tests/test_cli.py::test_cache_of_any_malformed_shape_is_rebuilt[pattern-k-past-half]",
        ],
    ),
    # a load that takes its torus cells from the file, not from the closed forms
    (
        "src/dlcusp/chartable.py",
        'self._set_tori([_shapes(self._closed_form(torus), torus_order(p, torus))[0] for torus in ("split", "nonsplit")])',
        'self._set_tori([[tuple(cell) for cell in cells] for cells in doc["tori"]])',
        ["tests/test_cli.py::test_a_load_takes_its_torus_cells_from_the_tori"],
    ),
    # cells written out on an audited table are read unpinned
    (
        "src/dlcusp/chartable.py",
        "        if self._audited:\n",
        "        if False:\n",
        ["tests/test_cli.py::test_a_write_out_fault_is_refused_when_the_cells_are_written_out"],
    ),
    # a table whose cells were written out before its audit is pinned by pattern alone
    (
        "src/dlcusp/chartable.py",
        "data.six_values is None or data._values is not None or not _pinned_by_pattern(",
        "data.six_values is None or not _pinned_by_pattern(",
        ["tests/test_chartable.py::test_cells_written_out_before_the_audit_are_pinned_by_it"],
    ),
    # every b != 0 of a = +-1 counted at one residue, so in one unipotent-type class
    (
        "src/dlcusp/chartable.py",
        "by_residue.setdefault(s * b % p in squares, [b, 0])",
        "by_residue.setdefault(True, [b, 0])",
        ["tests/test_chartable.py::test_borel_buckets_equal_the_per_element_oracle[7]"],
    ),
]


def _outcome(tree: Path, test: str) -> str:
    """"red" if test fails (pytest exits 1) in tree, "timeout" if it runs
    past TEST_TIMEOUT_S, else "green"."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "red" if done.returncode == 1 else "green"


def run() -> int:
    killed = 0
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
            outcomes = {test: _outcome(tree, test) for test in tests}
        left = {test: o for test, o in outcomes.items() if o != "red"}
        verdict = "TIMEOUT" if "timeout" in left.values() else "SURVIVED" if left else "killed"
        killed += not left
        print(f"{verdict}: {file}: {snippet.strip()!r}", *(f"  {o}: {t}" for t, o in left.items()), sep="\n")
    print(f"{killed} of {len(MUTATIONS)} mutations killed")
    return 0 if killed == len(MUTATIONS) else 1


if __name__ == "__main__":
    sys.exit(run())
