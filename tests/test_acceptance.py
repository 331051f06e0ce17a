"""Acceptance suite: every criterion as one test, exact arithmetic throughout.

Each test prints a single PASS line on success (run with -s or see captured
output); any failure is a hard assertion with the offending prime attached.
The per-prime data is shared across criteria through a module-level cache.
"""

from fractions import Fraction

from dlcusp.chartable import quadratic_character_index, validate_table
from dlcusp.classfun import dual
from dlcusp.cuspform import (
    corollary_all_appear,
    corollary_odd_multiplicity,
    decompose_dl,
    embedding_pattern,
    linearity_fit,
    paper_coefficients,
    verify_torus_placement,
    weinstein_character,
)
from dlcusp.numtheory import primes_in_range

import propchecks
from conftest import get_data
from propchecks import steinberg_tensor_identity_holds, tensor

PRIMES = primes_in_range(7, 101)

_RESULTS = {}


def result_for(p):
    if p not in _RESULTS:
        _RESULTS[p] = decompose_dl(get_data(p))
    return _RESULTS[p]


def ok(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_01_theorem_reproduction():
    for p in PRIMES:
        res = result_for(p)
        assert res.exact, f"reconstruction not exact at p={p}"
        assert res.table_match, f"coefficient table mismatch at p={p}: {res.mismatches}"
    ok(1, f"exact decomposition and coefficient-table match at all {len(PRIMES)} primes in [7, 101]")


def test_criterion_02_linearity_rederivation():
    report = linearity_fit([result_for(p) for p in PRIMES])
    assert report.ok, report.failures
    assert report.checked >= 50
    for (label, torus, residue), (a, b) in report.fits.items():
        assert 12 % a.denominator == 0 and 12 % b.denominator == 0, (label, torus, residue)
        for p in PRIMES:
            if p % 12 != residue:
                continue
            cell = paper_coefficients(p)[(label, torus)]
            assert a * p + b == cell, (label, torus, p)
    ok(2, f"two-prime fits predict every further prime exactly ({len(report.fits)} cells, {report.checked} checks)")


def test_criterion_03_degree_identity():
    for p in PRIMES:
        s = weinstein_character(get_data(p))  # raises unless both closed forms agree
        deg = s.degree.as_rational()
        assert deg == 2 * (1 + Fraction((p * p - 1) * (p - 6), 24))
        half = p * (p * p - 1) // 2
        assert deg == half * (1 - Fraction(1, 2) - Fraction(1, 3) - Fraction(1, p)) + 2
        if p == 7:
            assert deg == 6
    ok(3, "degree equals both the index formula and the genus count at every prime")


def test_criterion_04_example_p7():
    data = get_data(7)
    res = result_for(7)
    alpha = quadratic_character_index(8)
    nonzero = {key: c for key, c in res.coefficients.items() if c}
    assert nonzero == {("nonsplit", alpha): Fraction(-1)}
    assert weinstein_character(data) == -data.dl("nonsplit", alpha)
    plus = data.irreducible("exceptional_nonsplit_plus")
    minus = data.irreducible("exceptional_nonsplit_minus")
    assert plus.degree == minus.degree == 3
    assert dual(plus.chi) == minus.chi
    ok(4, "p=7 cusp character is minus the anisotropic order-2 virtual character; degree-3 dual pair")


def test_criterion_05_steinberg_tensor_identity():
    for p in (7, 11, 13, 17):
        data = get_data(p)
        for k in range(p - 1):
            assert steinberg_tensor_identity_holds(data, "split", k), (p, "split", k)
        for k in range(p + 1):
            assert steinberg_tensor_identity_holds(data, "nonsplit", k), (p, "nonsplit", k)
    ok(5, "signed Steinberg tensor equals torus induction for every character of both tori at p in {7,11,13,17}")


def test_criterion_06_tensor_decomposition_cases():
    from test_chartable import _dl_orbit_coefficients, _expected_orbit_coefficients

    for p in (13, 17, 19, 23):
        data = get_data(p)
        st = data.irreducible("steinberg").chi
        for t1, n1 in (("split", p - 1), ("nonsplit", p + 1)):
            for k1 in range(0, n1, 2):
                phi = tensor(st, data.dl(t1, k1))
                assert _dl_orbit_coefficients(data, phi) == _expected_orbit_coefficients(data, t1, k1), (p, t1, k1)
    ok(6, "brute-force Steinberg-tensor coefficients match the seven tabulated cases at p in {13,17,19,23}")


def test_criterion_07_torus_placement():
    for p in PRIMES:
        data = get_data(p)
        pattern = verify_torus_placement(data)
        assert pattern == embedding_pattern(p), p
        # the class-table check agrees with explicit conjugation witnesses,
        # each replayed on every subgroup element by the oracle
        assert propchecks.witness_placement(data) == {key: [t] for key, t in pattern.items()}, p
    ok(7, "order-4/order-6 subgroup placement matches the four-residue table and replay-verified witnesses")


def test_criterion_08_odd_multiplicities():
    for p, want in ((23, 3), (47, 5), (71, 7)):
        rep = corollary_odd_multiplicity(get_data(p), result_for(p))
        assert rep.all_odd and rep.multiplicities == (want, want), p
        assert want == (p - 11) // 12 + 2
    ok(8, "both order-2-character constituents appear with odd multiplicity {3,5,7} at p in {23,47,71}")


def test_criterion_09_appearance():
    for p in PRIMES:
        if p < 23:
            continue
        rep = corollary_all_appear(get_data(p), result_for(p))
        assert rep.complete, (p, rep.missing)
    for p in (11, 13):
        rep = corollary_all_appear(get_data(p), result_for(p))
        assert rep.missing, f"expected a missing non-trivial constituent at p={p}"
        assert rep.trivial_absent
    ok(9, "every non-trivial center-quotient irreducible appears for 23 <= p <= 101; sharpness at 11 and 13")


def test_criterion_10_character_table_validity():
    for p in PRIMES:
        report = validate_table(get_data(p))
        assert report["orthonormal"] and report["second_orthogonality"] and report["dual_closed"], p
    ok(10, "square table, degree-square sum and orthonormality (hence second orthogonality) "
           f"hold at all {len(PRIMES)} primes")


def test_criterion_11_property_suites():
    counts = {
        "ring_axioms": propchecks.check_ring_axioms(),
        "canonical_uniqueness": propchecks.check_canonical_uniqueness(),
        "frobenius": sum(propchecks.check_frobenius_reciprocity(get_data(p)) for p in (7, 11, 13)),
        "conjugation_invariance": sum(propchecks.check_conjugation_invariance(get_data(p), seed=p) for p in (11, 13)),
        "dual_conjugate": sum(propchecks.check_dual_equals_conjugate(get_data(p)) for p in (7, 11)),
        "dual_closure": sum(propchecks.check_dual_closure(get_data(p)) for p in (7, 11, 13)),
    }
    assert all(n > 0 for n in counts.values())
    ok(11, "randomized suites pass with fixed seeds: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
