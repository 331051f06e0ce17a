import random

import pytest

from dlcusp.group import (
    GroupElement,
    build_conjugacy_table,
    build_subgroup,
    build_torus,
    identity,
)
from dlcusp.numtheory import factorize, primes_in_range

import propchecks
from conftest import get_data


def all_elements(p):
    return [
        GroupElement(p, a, b, c, (1 + b * c) * pow(a, -1, p) % p)
        for a in range(1, p)
        for b in range(p)
        for c in range(p)
    ] + [
        GroupElement(p, 0, b, -pow(b, -1, p) % p, d)
        for b in range(1, p)
        for d in range(p)
    ]


def test_element_arithmetic():
    e = identity(7)
    rng = random.Random(1)
    for _ in range(20):
        g = propchecks._random_element(rng, 7)
        assert e * g == g and g * e == g
        assert g * g.inverse() == e
    s = GroupElement(7, 0, 1, -1, 0)
    assert s.inverse() == GroupElement(7, 0, -1, 1, 0)
    u = GroupElement(7, 1, 1, 0, 1)
    assert u ** 7 == e


def test_determinant_rejected():
    with pytest.raises(ValueError, match=r"^determinant is not 1 mod 7$"):
        GroupElement(7, 1, 0, 0, 2)
    with pytest.raises(ValueError, match=r"^determinant is not 1 mod 11$"):
        GroupElement(11, 2, 3, 5, 7)


def test_entries_are_reduced_mod_p():
    g = GroupElement(7, 8, -1, 14, 1)
    assert g.entries() == (1, 6, 0, 1) and g == GroupElement(7, 1, 6, 0, 1)
    assert -g == GroupElement(7, 6, 1, 0, 6) and all(0 <= x < 7 for x in (-g).entries())


def test_elements_hash_and_compare_as_their_fields_but_not_as_tuples():
    """Equality and hash read (p, a, b, c, d), so dict and set lookups
    behave as they always did; an element is not its tuple of entries."""
    g = GroupElement(13, 2, 3, 5, 8)
    assert hash(g) == hash((13, 2, 3, 5, 8)) == hash(GroupElement(13, 15, 16, 18, 21))
    assert g != (13, 2, 3, 5, 8) and g != (2, 3, 5, 8) and g.entries() == (2, 3, 5, 8)
    assert g != GroupElement(7, 2, 3, 5, 1) and len({g, GroupElement(13, 2, 3, 5, 8)}) == 1
    assert repr(g) == "GroupElement(p=13, a=2, b=3, c=5, d=8)"


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        identity(7) * identity(11)


def test_class_counts():
    t7 = build_conjugacy_table(7)
    assert len(t7.classes) == 11
    assert sum(r.size for r in t7.classes) == 336
    t11 = build_conjugacy_table(11)
    assert len(t11.classes) == 15
    assert t11.group_order == 1320
    assert len(build_conjugacy_table(13).classes) == 17


def test_rejects_bad_modulus():
    for bad in (6, 5, 4, 1):
        with pytest.raises(ValueError):
            build_conjugacy_table(bad)


def test_central_class():
    t = build_conjugacy_table(11)
    minus = t.classes[1]
    assert minus.kind == "central" and minus.size == 1
    assert minus.centralizer_order == 11 * (11 * 11 - 1)


def test_inverse_class_is_an_involution_matching_true_inverses():
    for p in (7, 11, 13, 17):
        t = build_conjugacy_table(p)
        for i, rec in enumerate(t.classes):
            j = rec.inverse_class
            assert t.classes[j].inverse_class == i
            assert t.class_of(rec.rep.inverse()) == j


def test_brute_force_orbit_oracle_p7():
    """Closed-form classes equal exhaustive conjugation orbits at p = 7."""
    p = 7
    table = build_conjugacy_table(p)
    elems = all_elements(p)
    assert len(elems) == table.group_order
    seen = set()
    orbit_count = 0
    for g in elems:
        if g in seen:
            continue
        orbit = {h * g * h.inverse() for h in elems}
        seen |= orbit
        orbit_count += 1
        indices = {table.class_of(x) for x in orbit}
        assert len(indices) == 1
        assert table.classes[indices.pop()].size == len(orbit)
    assert orbit_count == p + 4


@pytest.mark.parametrize("p", (7, 11, 13))
def test_unipotent_residue_invariant_vs_orbit_search(p):
    """For trace +-2 the O(1) invariant agrees with explicit orbit membership."""
    table = build_conjugacy_table(p)
    elems = all_elements(p)
    orbits = {}
    for idx, rec in enumerate(table.classes):
        if rec.kind == "unipotent":
            orbits[idx] = {h * rec.rep * h.inverse() for h in elems}
    for g in elems:
        if g.trace in (2, p - 2) and not (g.b == 0 and g.c == 0):
            idx = table.class_of(g)
            assert g in orbits[idx]


def test_class_of_conjugation_invariance_randomized():
    for p in (11, 13):
        n = propchecks.check_conjugation_invariance(get_data(p), seed=p)
        assert n == (p + 4) * 100


def test_subgroup_orders():
    for p in (7, 11, 13):
        table = build_conjugacy_table(p)
        expect = {"Z": 2, "Gx_tilde": 4, "Gy_tilde": 6, "Gz_tilde": 2 * p, "Borel": p * (p - 1), "Ts": p - 1, "Ta": p + 1}
        for name, order in expect.items():
            sub = propchecks.build_subgroup(table, name)
            assert sub.order == order == len(sub.elements)
            assert identity(p) in sub.elements


def test_small_subgroups_closed_and_contain_center():
    for p in (7, 11):
        table = build_conjugacy_table(p)
        for name in ("Z", "Gx_tilde", "Gy_tilde", "Gz_tilde"):
            sub = build_subgroup(table, name)
            elems = set(sub.elements)
            assert -identity(p) in elems
            for x in elems:
                assert x.inverse() in elems
                for y in elems:
                    assert x * y in elems


def test_gx_gy_cyclic():
    table = build_conjugacy_table(7)
    gx = build_subgroup(table, "Gx_tilde")
    s = GroupElement(7, 0, 1, -1, 0)
    assert set(gx.elements) == {s**k for k in range(4)}
    gy = build_subgroup(table, "Gy_tilde")
    w = GroupElement(7, 0, 1, -1, -1)
    assert propchecks.element_order(w) == 3
    assert set(gy.elements) == {(-w) ** k for k in range(6)}


def test_torus_structure():
    for p in (7, 11, 13):
        table = build_conjugacy_table(p)
        ts = build_torus(table, "split")
        ta = build_torus(table, "nonsplit")
        assert ts.order == p - 1 and ta.order == p + 1
        for torus in (ts, ta):
            assert propchecks.element_order(torus.generator) == torus.order
            for q in factorize(torus.order):
                assert torus.generator ** (torus.order // q) != identity(p)
            for k in range(torus.order):
                assert torus.dlog[torus.generator**k] == k
        # both tori contain the center
        assert -identity(p) in ts.dlog and -identity(p) in ta.dlog


def test_torus_placement_matches_mod12_pattern():
    """Order-4 and order-6 subgroup placement over every prime up to 101."""
    for p in primes_in_range(7, 101):
        placement = propchecks.witness_placement(propchecks.placement_data(p))
        expect = {
            1: {"x": ["split"], "y": ["split"]},
            5: {"x": ["split"], "y": ["nonsplit"]},
            7: {"x": ["nonsplit"], "y": ["split"]},
            11: {"x": ["nonsplit"], "y": ["nonsplit"]},
        }[p % 12]
        assert placement == expect, p


def test_conjugate_into_torus_rejects_other_subgroups():
    table = build_conjugacy_table(7)
    torus = build_torus(table, "split")
    with pytest.raises(ValueError):
        propchecks.conjugate_into_torus(build_subgroup(table, "Z"), torus)


def test_conjugation_witness_replay():
    for p in (13, 19, 23):
        table = build_conjugacy_table(p)
        for name in ("Gx_tilde", "Gy_tilde"):
            sub = build_subgroup(table, name)
            for torus_type in ("split", "nonsplit"):
                torus = build_torus(table, torus_type)
                h = propchecks.conjugate_into_torus(sub, torus)
                if h is None:
                    assert torus.order % sub.order != 0
                    continue
                members = set(torus.elements)
                for x in sub.elements:
                    assert propchecks.conjugate(x, h) in members


@pytest.mark.parametrize("p", (7, 11, 13))
def test_class_of_trace_memo_matches_unmemoized(p):
    """A table that has memoized traces classifies every element, queried in
    shuffled order, as a table with an empty memo does."""
    table, fresh = build_conjugacy_table(p), build_conjugacy_table(p)
    elems = all_elements(p)
    random.Random(p).shuffle(elems)
    for g in elems:
        fresh._by_trace.clear()
        assert table.class_of(g) == fresh.class_of(g), g
    assert len(table._by_trace) == p - 2  # every trace but +-2


def test_torus_generator_by_prime_divisors_matches_order_search():
    """The least generator by entries, found from the prime divisors of |T|,
    is the least element of order |T| (propchecks.element_order as the oracle)."""
    for p in primes_in_range(7, 199):
        table = build_conjugacy_table(p)
        for torus_type in ("split", "nonsplit"):
            torus = build_torus(table, torus_type)
            elements = sorted(torus.elements, key=GroupElement.entries)
            assert torus.generator == next(g for g in elements if propchecks.element_order(g) == torus.order), (p, torus_type)


@pytest.mark.parametrize("p", primes_in_range(7, 101))
def test_nonsplit_torus_by_square_roots_matches_the_pair_search(p):
    """Solving b^2 = (a^2 - 1)/eps per a gives the elements of the search
    over all p^2 pairs (a, b), in the same order, so the same least
    generator and the same dlog."""
    table = build_conjugacy_table(p)
    torus, eps = build_torus(table, "nonsplit"), table.epsilon
    oracle = sorted(
        (GroupElement(p, a, b * eps, b, a) for a in range(p) for b in range(p) if (a * a - eps * b * b) % p == 1),
        key=GroupElement.entries,
    )
    assert list(torus.elements) == oracle
    generator = next(g for g in oracle if propchecks.element_order(g) == p + 1)
    assert torus.generator == generator
    assert torus.dlog == {generator**k: k for k in range(p + 1)}
