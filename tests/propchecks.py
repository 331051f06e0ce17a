"""Seeded randomized property checks shared by the unit and acceptance suites."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from dlcusp.chartable import CharacterData, TableValidationError
from dlcusp.classfun import ClassFunction, dual, induce, inner_product, restrict, tensor
from dlcusp.cuspform import VerificationError, embedded_subgroups
from dlcusp.cyclotomic import ZERO, CycNumber, _common_frame, _raw_dot, root_of_unity
from dlcusp.group import GroupElement, SubgroupData, build_subgroup


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


def check_exceptional_pairs(data: CharacterData) -> None:
    """The checks the build once made on each exceptional pair, which
    validate_table implies: the halves sum to the closed form of R(alpha)
    (split) or -R(alpha) (anisotropic), each has degree (p +- 1)/2 and norm
    one, the two are orthogonal, and the center acts on each by alpha(-I),
    the Legendre symbol of -1, negated on the anisotropic torus."""
    from dlcusp.chartable import _Values
    from dlcusp.numtheory import legendre

    p, table = data.p, data.table
    neg = [table.class_of(-rec.rep) for rec in table.classes]
    for torus, n, sign, deg in (("split", p - 1, 1, (p + 1) // 2), ("nonsplit", p + 1, -1, (p - 1) // 2)):
        values = _Values()
        (row,) = data._closed_rows(torus, (n // 2,), values, sign)
        pair = [data.irreducible(f"exceptional_{torus}_{half}") for half in ("plus", "minus")]
        plus, minus = (irr.chi for irr in pair)
        assert plus + minus == values.view(table, row), torus
        center_sign = sign * legendre(-1, p)
        for irr, chi in zip(pair, (plus, minus)):
            assert irr.degree == chi.degree == deg and naive_inner_product(chi, chi) == 1, torus
            assert all(chi.values[neg[c]] == v.scale(center_sign) for c, v in enumerate(chi.values)), torus
        assert naive_inner_product(plus, minus) == 0, torus


def with_row(data: CharacterData, row: int, chi: ClassFunction) -> CharacterData:
    """A shallow copy of data whose irreducible number row has the values of chi."""
    import copy

    irr = data.irreducibles[row]
    broken = copy.copy(data)
    irrs = list(data.irreducibles)
    irrs[row] = type(irr)(irr.label, chi, irr.degree)
    broken.irreducibles = tuple(irrs)
    return broken


def with_cell(data: CharacterData, row: int, cls: int, value: CycNumber) -> CharacterData:
    """A shallow copy of data whose irreducible number row takes value at class cls."""
    values = list(data.irreducibles[row].chi.values)
    values[cls] = value
    return with_row(data, row, ClassFunction(data.table, values))


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


def borel_buckets(p: int, table, split_torus) -> list[dict[int, int]]:
    """Per class, how many Borel elements [[a, b], [0, a^-1]] fuse there, by
    dlog of a: every element built and classified one at a time.  The oracle
    for the build's count, which classifies one element per a != +-1."""
    adlog = {g.a: d for g, d in split_torus.dlog.items()}
    buckets: list[dict[int, int]] = [dict() for _ in range(len(table))]
    for a in range(1, p):
        d = adlog[a]
        ainv = pow(a, -1, p)
        for b in range(p):
            i = table.class_of(GroupElement(p, a, b, 0, ainv))
            buckets[i][d] = buckets[i].get(d, 0) + 1
    return buckets


def check_frobenius_reciprocity(data: CharacterData) -> int:
    """<Ind_H 1, chi>_G == <1, Res_H chi>_H for all seven subgroups, all chi."""
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


# -- independent oracles ---------------------------------------------------------


@dataclass(frozen=True)
class TorusCharacter:
    """theta = (generator |-> zeta_|T|^k) on a fixed maximal torus."""

    torus_type: str
    order: int
    k: int

    def value_at_dlog(self, d: int) -> CycNumber:
        return root_of_unity(self.order, self.k * d)

    @property
    def is_trivial_on_center(self) -> bool:
        # -I is the unique order-2 element, the half-order power of the generator
        return self.k % 2 == 0

    @property
    def character_order(self) -> int:
        return self.order // gcd(self.k, self.order) if self.k else 1


def lemma_tensor_sign(torus_type: str) -> int:
    """Sign making St (x) R equal the induced torus character: +1 split, -1 not."""
    return 1 if torus_type == "split" else -1


def induced_torus_character(data: CharacterData, torus_type: str, k: int) -> ClassFunction:
    """Ind from the torus subgroup of theta_k, via fusion."""
    torus = data.torus(torus_type)
    sub = build_subgroup(data.table, "Ts" if torus_type == "split" else "Ta")
    theta = TorusCharacter(torus_type, torus.order, k % torus.order)
    values = [theta.value_at_dlog(torus.dlog[g]) for g in sub.elements]
    return induce(data.table, sub, values)


def steinberg_tensor_identity_holds(data: CharacterData, torus_type: str, k: int) -> bool:
    """(+-1) St (x) R_T^theta == Ind_T theta, exactly."""
    st = data.irreducible("steinberg").chi
    lhs = tensor(st, data.dl(torus_type, k)).scale(lemma_tensor_sign(torus_type))
    return lhs == induced_torus_character(data, torus_type, k)


def induced_pairing(sub: SubgroupData, chi_values: Sequence[CycNumber], phi: ClassFunction) -> CycNumber:
    """<chi, Res_H phi>_H, the right side of Frobenius reciprocity."""
    total = ZERO
    for a, b in zip(chi_values, restrict(phi, sub)):
        total = total + a * b.conj()
    return total.scale(Fraction(1, sub.order))


def decompose_multiplicities(phi: ClassFunction, irreducibles: Sequence[ClassFunction]) -> list[Fraction]:
    """Multiplicities against a complete orthonormal system; must rebuild phi."""
    mults = []
    for chi in irreducibles:
        m = inner_product(phi, chi).as_rational()
        if m is None:
            raise ValueError("non-rational multiplicity: character table is broken")
        mults.append(m)
    rebuilt = ClassFunction(phi.table, [ZERO] * len(phi.table))
    for m, chi in zip(mults, irreducibles):
        if m:
            rebuilt = rebuilt + chi.scale(m)
    if rebuilt != phi:
        raise ValueError("multiplicities do not rebuild the class function")
    return mults


def table_offset(label: str, torus_type: str, residue: int) -> int:
    """Structural form of the coefficient-table offsets, generated from the
    embedding pattern at a proxy prime of each residue."""
    p_proxy = {1: 13, 5: 17, 7: 19, 11: 23}[residue]
    emb = embedded_subgroups(p_proxy, torus_type)
    if label == "A":
        return 0
    if label == "B":
        return -2 if len(emb) == 2 else 0
    if label == "C":
        return -1 if "x" in emb else 0
    if label == "D":
        return -1 if "y" in emb else 0
    return 1 - len(emb)


def triangular_coefficients(p: int, mults: dict[tuple, Fraction]) -> dict[tuple[str, int], Fraction]:
    """The DL coefficients (per inversion-orbit representative with central
    character one) by the triangular solve over the irreducible
    multiplicities that decompose_dl once made: the trivial and Steinberg
    multiplicities give both k = 0 coefficients, each principal/discrete
    multiplicity one orbit, and an exceptional pair the order-2 character,
    whose two multiplicities must agree."""
    coeff = {
        ("split", 0): (mults[("trivial",)] + mults[("steinberg",)]) / 2,
        ("nonsplit", 0): (mults[("trivial",)] - mults[("steinberg",)]) / 2,
    }
    families = (("split", p - 1, "principal", 1, 1), ("nonsplit", p + 1, "discrete", -1, 3))
    for torus, n, family, sign, residue in families:
        for k in range(2, n // 2 + 1, 2):
            if 2 * k != n:
                coeff[(torus, k)] = sign * mults[(family, k)] / 2
            elif p % 4 == residue:
                m_plus = mults[(f"exceptional_{torus}_plus",)]
                if m_plus != mults[(f"exceptional_{torus}_minus",)]:
                    raise VerificationError(f"{torus} exceptional multiplicities differ at p={p}")
                coeff[(torus, k)] = sign * m_plus
    return coeff
