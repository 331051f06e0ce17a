import random
from fractions import Fraction

import pytest

from dlcusp.classfun import ClassFunction, dual, inner_product
from dlcusp.cyclotomic import ZERO

import propchecks
from conftest import get_data
from propchecks import build_subgroup, decompose_multiplicities, induce, restrict, root_of_unity, tensor, trivial_character


def test_inner_product_of_trivial():
    data = get_data(7)
    one = trivial_character(data.table)
    assert inner_product(one, one).as_rational() == 1


def test_borel_induction_norm_two():
    data = get_data(7)
    borel = build_subgroup(data.table, "Borel")
    ind = induce(data.table, borel, [1] * borel.order)
    assert ind.degree.as_rational() == 8
    assert inner_product(ind, ind).as_rational() == 2


@pytest.mark.parametrize("p", (7, 11))
def test_steinberg_norm_one(p):
    data = get_data(p)
    st = data.irreducible("steinberg").chi
    assert inner_product(st, st).as_rational() == 1


def test_tensor_basics(data7):
    one = trivial_character(data7.table)
    st = data7.irreducible("steinberg").chi
    assert tensor(one, st) == st
    assert tensor(st, st).degree.as_rational() == 49
    import random

    rng = random.Random(3)
    for _ in range(10):
        phi = ClassFunction(data7.table, [propchecks.random_cyc(rng, 24, 2) for _ in range(11)])
        psi = ClassFunction(data7.table, [propchecks.random_cyc(rng, 24, 2) for _ in range(11)])
        assert tensor(phi, psi) == tensor(psi, phi)


def test_dual_involution(data7):
    import random

    rng = random.Random(4)
    one = trivial_character(data7.table)
    assert dual(one) == one
    for _ in range(10):
        phi = ClassFunction(data7.table, [propchecks.random_cyc(rng, 24, 2) for _ in range(11)])
        assert dual(dual(phi)) == phi


def test_dual_of_discrete_series_swaps_exponent(data11):
    d2 = -data11.dl("nonsplit", 2)
    d10 = -data11.dl("nonsplit", 10)
    assert dual(d2) == d10
    assert dual(d2) == ClassFunction(data11.table, [v.conj() for v in d2.values])


def test_induction_degrees():
    for p in (7, 11, 13):
        data = get_data(p)
        for name in ("Z", "Gx_tilde", "Gy_tilde", "Gz_tilde"):
            sub = build_subgroup(data.table, name)
            ind = induce(data.table, sub, [1] * sub.order)
            assert ind.degree.as_rational() == data.table.group_order // sub.order


def test_induction_from_center_degree(data7):
    sub = build_subgroup(data7.table, "Z")
    ind = induce(data7.table, sub, [1, 1])
    assert ind.degree.as_rational() == 7 * 48 // 2


def test_frobenius_reciprocity_all_subgroups():
    for p in (7, 11, 13):
        assert propchecks.check_frobenius_reciprocity(get_data(p)) == 7 * (p + 4)


def test_restrict():
    data = get_data(7)
    z = build_subgroup(data.table, "Z")
    st = data.irreducible("steinberg").chi
    assert [v.as_rational() for v in restrict(st, z)] == [7, 7]
    one = trivial_character(data.table)
    assert all(v.as_rational() == 1 for v in restrict(one, build_subgroup(data.table, "Gy_tilde")))
    ind_b = data.dl("split", 0)
    assert [v.as_rational() for v in restrict(ind_b, z)] == [8, 8]


def test_hermitian_and_sesquilinear(data7):
    import random

    rng = random.Random(9)
    table = data7.table
    for _ in range(8):
        phi = ClassFunction(table, [propchecks.random_cyc(rng, 24, 2) for _ in range(11)])
        psi = ClassFunction(table, [propchecks.random_cyc(rng, 24, 2) for _ in range(11)])
        chi = ClassFunction(table, [propchecks.random_cyc(rng, 24, 2) for _ in range(11)])
        assert inner_product(phi, psi) == inner_product(psi, phi).conj()
        assert inner_product(phi + chi, psi) == inner_product(phi, psi) + inner_product(chi, psi)
        zeta = root_of_unity(8)
        scaled = ClassFunction(table, [zeta * v for v in phi.values])
        assert inner_product(scaled, psi) == zeta * inner_product(phi, psi)
        assert inner_product(psi, scaled) == zeta.conj() * inner_product(psi, phi)


def test_inner_product_matches_fraction_reference(data7):
    assert propchecks.check_integer_inner_product(data7) > 0


def test_decompose_multiplicities_borel_induction(data7):
    irrs = [irr.chi for irr in data7.irreducibles]
    ind_b = data7.dl("split", 0)
    mults = decompose_multiplicities(ind_b, irrs)
    by_label = dict(zip((irr.label for irr in data7.irreducibles), mults))
    assert by_label[("trivial",)] == 1 and by_label[("steinberg",)] == 1
    assert sum(mults) == 2


def test_decompose_multiplicities_steinberg(data7):
    irrs = [irr.chi for irr in data7.irreducibles]
    st = data7.irreducible("steinberg").chi
    mults = decompose_multiplicities(st, irrs)
    assert mults == [Fraction(1) if irr.label == ("steinberg",) else Fraction(0) for irr in data7.irreducibles]


def test_decompose_center_induction_reciprocity_oracle(data7):
    """Ind from the center contains each center-trivial chi with multiplicity chi(1)."""
    sub = build_subgroup(data7.table, "Z")
    ind = induce(data7.table, sub, [1, 1])
    irrs = [irr.chi for irr in data7.irreducibles]
    mults = decompose_multiplicities(ind, irrs)
    for irr, m in zip(data7.irreducibles, mults):
        central = irr.chi.values[0] == irr.chi.values[1]
        assert m == (irr.degree if central else 0), irr.label


def test_non_rational_multiplicity_rejected(data7):
    bad = ClassFunction(data7.table, [root_of_unity(5)] + [0] * 10)
    with pytest.raises(ValueError):
        decompose_multiplicities(bad, [irr.chi for irr in data7.irreducibles])


def test_shape_errors(data7, data11):
    with pytest.raises(ValueError):
        ClassFunction(data7.table, [1] * 10)  # needs p + 4 values
    with pytest.raises(ValueError):
        trivial_character(data7.table) + trivial_character(data11.table)
    sub = build_subgroup(data7.table, "Z")
    with pytest.raises(ValueError):
        induce(data7.table, sub, [1])  # one value per subgroup element


def test_dual_equals_conjugate_on_characters():
    for p in (7, 11):
        assert propchecks.check_dual_equals_conjugate(get_data(p)) == p + 4


@pytest.mark.parametrize("p", (7, 13))
def test_inner_product_equals_the_per_class_reference(p):
    """inner_product of every pair of rows, each paired in one integer
    frame, gives the per-class reference pairing, also for complex class
    functions (where a lost conjugation shows) and for ones that vanish on
    some classes."""
    data = get_data(p)
    rng = random.Random(p)
    n = len(data.table)
    randoms = [
        ClassFunction(data.table, [ZERO if i % 3 == j else propchecks.random_cyc(rng, 4 * p) for i in range(n)])
        for j in range(3)
    ]
    rows = [irr.chi for irr in data.irreducibles] + randoms
    for phi in rows:
        assert [inner_product(phi, psi) for psi in rows] == [propchecks.naive_inner_product(phi, psi) for psi in rows]


@pytest.mark.parametrize("p", (7, 13, 29))
def test_closed_pairings_equal_the_per_class_reference(p):
    """closed_pairings gives every pairing's canonical value, irrational ones
    included: s + principal(1), s + R_split(2) (2 + c_e at split classes,
    without closed coordinates), s plus one exceptional half, and a class
    function of random table values, where tau times c_e and c_e of two
    tori meet, each paired with every row, read off the patterns of a built
    table and off the id rows of the same table loaded from its cache
    document (CharacterData.column)."""
    from dlcusp.chartable import CharacterData
    from dlcusp.classfun import closed_pairings
    from dlcusp.cuspform import weinstein_character

    built = get_data(p)
    s = weinstein_character(built)
    rng = random.Random(p)
    mixed = ClassFunction(built.table, [rng.choice(built.values) for _ in built.table.classes])
    irrational = 0
    for data in (built, CharacterData.from_json_dict(built.to_cache_dict())):
        for phi in (
            s + built.irreducible("principal", 1).chi,
            s + built.dl("split", 2),
            s + built.irreducible("exceptional_split_plus").chi,
            mixed,
        ):
            want = [propchecks.naive_inner_product(phi, irr.chi) for irr in data.irreducibles]
            assert closed_pairings(data.closed, data.table, phi.values, data.column) == want
            irrational += sum(v.as_rational() is None for v in want)
    assert irrational


@pytest.mark.parametrize("p", (13, 101, 599))
def test_lifted_canonical_cosines_sum_to_the_canonical_form(p):
    """ClosedCoordinates.value sums a torus part sum_e H(e) c_e from the
    canonical forms of the c_e lifted to order n = p -+ 1 and hands the sum
    to _from_numerators, whose reduction must rewrite no exponent: the sum
    of the lifted forms must be the canonical form of the sum at n, for any
    histogram, a Galois-stable (so rational) one included."""
    from dlcusp.chartable import ClosedCoordinates
    from dlcusp.cyclotomic import CycNumber

    closed = ClosedCoordinates(p, [ZERO], {ZERO: 0})
    rng = random.Random(p)
    for n in (p - 1, p + 1):
        histograms = [{e: 1 for e in range(n // 2 + 1)}]
        histograms += [{rng.randrange(n // 2 + 1): rng.randint(-5, 5) for _ in range(6)} for _ in range(20)]
        for h in histograms:
            terms, raw = {}, {}
            for e, m in h.items():
                for k, a in closed.cos_terms[n][e]:
                    terms[k] = terms.get(k, 0) + m * a
                for k in (e, -e % n):
                    raw[k] = raw.get(k, 0) + m
            want = CycNumber._from_numerators(n, raw, 1)
            assert {k: a for k, a in terms.items() if a} == {e * (n // want.order): c for e, c in want.terms.items()}
