"""Seeded randomized property checks shared by the unit and acceptance suites."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from dlcusp.chartable import CharacterData, TableValidationError
from dlcusp.classfun import ClassFunction, dual, induce, induced_pairing, inner_product
from dlcusp.cyclotomic import ZERO, CycNumber, _common_frame, _raw_dot, root_of_unity
from dlcusp.group import GroupElement


def random_cyc(rng: random.Random, order: int, max_terms: int = 4, dens=None) -> CycNumber:
    """Random sparse value; denominators are drawn from dens when given."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = rng.randrange(order)
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9) if dens is None else rng.choice(dens))
    return CycNumber(order, terms)


def naive_dot(triples) -> CycNumber:
    """sum w * a * b over (w, a, b): Fraction products summed at the common
    order and reduced once by the public constructor.  The reference for the
    integer-numerator kernel behind products and pairings."""
    triples = list(triples)
    n = lcm(*(v.order for _, a, b in triples for v in (a, b)))
    raw: dict[int, Fraction] = {}
    for w, a, b in triples:
        ma, mb = n // a.order, n // b.order
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = (e1 * ma + e2 * mb) % n
                raw[e] = raw.get(e, 0) + w * c1 * c2
    return CycNumber(n, raw)


def naive_inner_product(phi: ClassFunction, psi: ClassFunction) -> CycNumber:
    triples = ((rec.size, a, b.conj()) for rec, a, b in zip(phi.table.classes, phi.values, psi.values))
    return naive_dot(triples).scale(Fraction(1, phi.table.group_order))


# Small denominators, as in the character table (whose values lie in
# 1/2 Z[zeta]); the torus orders p -+ 1 at p = 101; and 4p at p = 7 and
# p = 101, where the Gauss sum's field meets Q(i).
INTEGER_KERNEL_DENS = (1, 2, 3, 6)
INTEGER_KERNEL_ORDERS = (12, 28, 100, 102, 404)


def check_integer_mul(seed: int = 4101, orders=INTEGER_KERNEL_ORDERS, rounds: int = 12) -> int:
    """x * y equals the Fraction reference, at equal and at mixed orders."""
    rng = random.Random(seed)
    checked = 0
    for n1 in orders:
        for n2 in orders:
            for _ in range(rounds):
                x = random_cyc(rng, n1, dens=INTEGER_KERNEL_DENS)
                y = random_cyc(rng, n2, dens=INTEGER_KERNEL_DENS)
                got = x * y
                want = naive_dot([(1, x, y)])
                assert got == want and got.order == want.order, (x, y)
                checked += 1
    return checked


def check_integer_inner_product(data: CharacterData, seed: int = 31, orders=INTEGER_KERNEL_ORDERS, rounds=20) -> int:
    """inner_product on random class functions (zeros included) equals the
    per-class Fraction reference."""
    rng = random.Random(seed)
    table = data.table

    def value():
        return ZERO if rng.random() < 0.2 else random_cyc(rng, rng.choice(orders), dens=INTEGER_KERNEL_DENS)

    for _ in range(rounds):
        phi = ClassFunction(table, [value() for _ in range(len(table))])
        psi = ClassFunction(table, [value() for _ in range(len(table))])
        assert inner_product(phi, psi) == naive_inner_product(phi, psi)
    for irr in data.irreducibles:
        assert inner_product(irr.chi, irr.chi) == naive_inner_product(irr.chi, irr.chi) == 1
    return rounds + len(data.irreducibles)


def check_root_memo(orders=(1, 2, 12, 100, 102, 404)) -> int:
    """A memoized root of unity equals a freshly built one, for any k."""
    checked = 0
    for n in orders:
        for k in range(-n, 2 * n, max(1, n // 7)):
            fresh = CycNumber(n, {k % n: 1})
            assert root_of_unity(n, k) == fresh
            assert root_of_unity(n, k).to_text() == fresh.to_text()
            assert root_of_unity(n, k + n) is root_of_unity(n, k)  # one shared value per (n, k mod n)
            checked += 1
    return checked


def check_second_orthogonality(data: CharacterData) -> int:
    """Column relations sum_chi chi(c) conj(chi(c')) = |C(c)| [c = c'].

    validate_table does not check these: they follow from row orthonormality
    of the square table.  This oracle keeps them checked, through the
    Fraction reference rather than the integer kernel.
    """
    classes = data.table.classes
    irrs = data.irreducibles
    assert len(irrs) == len(classes)
    checked = 0
    for ci in range(len(classes)):
        for cj in range(ci, len(classes)):
            got = naive_dot((1, irr.chi.values[ci], irr.chi.values[cj].conj()) for irr in irrs)
            want = classes[ci].centralizer_order if ci == cj else 0
            assert got == want, (ci, cj, got)
            checked += 1
    return checked


def check_row_orthonormality(data: CharacterData) -> None:
    """<chi_i, chi_j> = delta_ij for every pair i <= j, cell by cell.

    The pair loop validate_table ran before it paired each distinct value
    pair once in packed coordinates; it raises the same message on the first
    offending pair, and is the reference for the packed check.
    """
    table, irrs = data.table, data.irreducibles
    n = len(irrs)
    order, dens = _common_frame(v for irr in irrs for v in irr.chi.values)
    rows = [[v._numerators(order, dens) for v in irr.chi.values] for irr in irrs]
    conj_rows = [[v._numerators(order, dens, conjugate=True) for v in irr.chi.values] for irr in irrs]
    sizes = [r.size for r in table.classes]
    den = dens * dens * table.group_order
    for i in range(n):
        for j in range(i, n):
            triples = ((w, a, b) for w, a, b in zip(sizes, rows[i], conj_rows[j]) if a and b)
            got = CycNumber._from_numerators(order, _raw_dot(order, triples), den)
            want = 1 if i == j else 0
            if got != want:
                raise TableValidationError(
                    f"<{irrs[i].name}, {irrs[j].name}> = {got.to_text()} at p={data.p}"
                )


def with_cell(data: CharacterData, row: int, cls: int, value: CycNumber) -> CharacterData:
    """A shallow copy of data whose irreducible number row takes value at class cls."""
    import copy

    irr = data.irreducibles[row]
    values = list(irr.chi.values)
    values[cls] = value
    broken = copy.copy(data)
    irrs = list(data.irreducibles)
    irrs[row] = type(irr)(irr.label, ClassFunction(data.table, values), irr.degree)
    broken.irreducibles = tuple(irrs)
    return broken


def single_cell_faults(data: CharacterData, seed: int = 5, count: int = 40):
    """Seeded single-cell faults: one value negated, plus a root of unity of
    order p - 1, p, p + 1 or 4, plus 1/2 or 1/3, or times zeta_{p+1}."""
    rng = random.Random(seed * 1009 + data.p)
    p = data.p
    faults = (
        lambda v: -v,
        lambda v: v + root_of_unity(rng.choice((p - 1, p, p + 1, 4)), rng.randrange(p + 1)),
        lambda v: v + Fraction(1, rng.choice((2, 3))),
        lambda v: v * root_of_unity(p + 1),
    )
    for _ in range(count):
        row, cls = rng.randrange(len(data.irreducibles)), rng.randrange(len(data.table))
        value = data.irreducibles[row].chi.values[cls]
        yield with_cell(data, row, cls, rng.choice(faults)(value))


def check_ring_axioms(seed: int = 20240611, orders=(12, 24, 168, 840), rounds: int = 12) -> int:
    """Associativity, commutativity, distributivity on random sparse values."""
    rng = random.Random(seed)
    checked = 0
    for order in orders:
        for _ in range(rounds):
            x, y, z = (random_cyc(rng, order) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x + y == y + x
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            assert x - x == 0
            checked += 1
    return checked


def check_canonical_uniqueness(seed: int = 97, orders=(24, 168), rounds: int = 40) -> int:
    """Equal values built along different routes get identical representations."""
    rng = random.Random(seed)
    checked = 0
    for order in orders:
        zero_sum = sum((root_of_unity(3, j) for j in range(3)), start=root_of_unity(1, 0) - 1)
        assert zero_sum.is_zero()
        for _ in range(rounds):
            x = random_cyc(rng, order)
            z = random_cyc(rng, order * 2)  # forces lifting through a larger field
            y = (x + z) - z
            assert y == x and y.order == x.order and y.terms == x.terms
            d = (y - x) + zero_sum.scale(rng.randint(1, 5))
            assert d.is_zero() and d.order == 1 and not d.terms
            checked += 1
    return checked


def check_conjugation_invariance(data: CharacterData, seed: int = 7, conjugators_per_class: int = 100) -> int:
    """class_of is constant along random conjugations of every representative."""
    rng = random.Random(seed)
    table = data.table
    p = table.p
    checked = 0
    for idx, rec in enumerate(table.classes):
        for _ in range(conjugators_per_class):
            h = _random_element(rng, p)
            assert table.class_of(rec.rep.conjugate_by(h)) == idx
            checked += 1
    return checked


def _random_element(rng: random.Random, p: int) -> GroupElement:
    while True:
        a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        if a:
            d = (1 + b * c) * pow(a, -1, p) % p
            return GroupElement(p, a, b, c, d)
        if b:  # a = 0 forces c = -1/b, d free
            c = -pow(b, -1, p) % p
            return GroupElement(p, 0, b, c, rng.randrange(p))


def check_frobenius_reciprocity(data: CharacterData) -> int:
    """<Ind_H 1, chi>_G == <1, Res_H chi>_H for all seven subgroups, all chi."""
    from dlcusp.group import build_subgroup

    table = data.table
    checked = 0
    for name in ("Z", "Gx_tilde", "Gy_tilde", "Gz_tilde", "Borel", "Ts", "Ta"):
        sub = build_subgroup(table, name)
        ind = induce(table, sub, [1] * sub.order)
        ones = [root_of_unity(1, 0)] * sub.order
        for irr in data.irreducibles:
            lhs = inner_product(ind, irr.chi)
            rhs = induced_pairing(sub, ones, irr.chi)
            assert lhs == rhs, (name, irr.label)
            checked += 1
    return checked


def check_dual_equals_conjugate(data: CharacterData) -> int:
    """On genuine characters, duality equals pointwise complex conjugation."""
    checked = 0
    for irr in data.irreducibles:
        assert dual(irr.chi) == ClassFunction(data.table, [v.conj() for v in irr.chi.values])
        checked += 1
    return checked


def check_dual_closure(data: CharacterData) -> int:
    chis = {irr.chi for irr in data.irreducibles}
    for irr in data.irreducibles:
        assert dual(irr.chi) in chis
    return len(chis)
