"""Seeded randomized property checks shared by the unit and acceptance suites."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, lcm
from types import SimpleNamespace
from typing import Sequence

from dlcusp import group
from dlcusp.chartable import CharacterData, TableValidationError, dl_terms
from dlcusp.classfun import ClassFunction, closed_sum, dual, inner_product
from dlcusp.cuspform import (
    _SUBGROUP_ORDERS,
    TORI,
    VerificationError,
    _zc_orbit_reps,
    embedded_subgroups,
    embedding_pattern,
    orbit_weight,
)
from dlcusp.cyclotomic import ONE, ZERO, CycNumber, _common_frame, _raw_dot, coerce, gauss_sum
from dlcusp.group import ConjugacyTable, GroupElement, SubgroupData, build_torus, torus_order


# -- test support: what the tests build that the package never needs ---------------


def root_of_unity(n: int, k: int = 1) -> CycNumber:
    """zeta_n^k as an exact value."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return _root_of_unity(n, k % n)


@lru_cache(maxsize=None)
def _root_of_unity(n: int, k: int) -> CycNumber:
    # values are immutable, so one shared instance per (n, k mod n) is safe
    return CycNumber(n, {k: 1})


def tensor(phi: ClassFunction, psi: ClassFunction) -> ClassFunction:
    """Pointwise product (character of the tensor product)."""
    phi._check(psi)
    return ClassFunction(phi.table, [a * b for a, b in zip(phi.values, psi.values)])


def trivial_character(table: ConjugacyTable) -> ClassFunction:
    return ClassFunction(table, [1] * len(table))


def induce(table: ConjugacyTable, sub: SubgroupData, values: Sequence[CycNumber | int | Fraction]) -> ClassFunction:
    """Induced class function: |C_G(g)|/|H| times the sum over fused elements.

    values are indexed by sub.elements and must be constant on the ambient
    fusion fibers within a subgroup class (automatic for linear characters).
    """
    if len(values) != sub.order:
        raise ValueError("need one value per subgroup element")
    vals = [coerce(v) for v in values]
    buckets: dict[int, list[CycNumber]] = {}
    for cls_idx, v in zip(sub.fusion, vals):
        buckets.setdefault(cls_idx, []).append(v)
    out = []
    for i, rec in enumerate(table.classes):
        hit = buckets.get(i)
        if hit is None:
            out.append(ZERO)
        else:
            out.append(sum(hit, ZERO).scale(Fraction(rec.centralizer_order, sub.order)))
    return ClassFunction(table, out)


def scaled(phi: ClassFunction, r: Fraction | int) -> ClassFunction:
    """r times phi, class by class."""
    return ClassFunction(phi.table, [v.scale(r) for v in phi.values])


def element_order(g: GroupElement) -> int:
    """The least n >= 1 with g^n = I, by repeated multiplication."""
    n, x, one = 1, g, group.identity(g.p)
    while x != one:
        x, n = x * g, n + 1
    return n


def conjugate(g: GroupElement, h: GroupElement) -> GroupElement:
    """h g h^-1."""
    return h * g * h.inverse()


def restrict(phi: ClassFunction, sub: SubgroupData) -> list[CycNumber]:
    """Values of phi on the subgroup elements, through the fusion map."""
    return [phi.values[i] for i in sub.fusion]


def build_subgroup(table: ConjugacyTable, name: str) -> SubgroupData:
    """group.build_subgroup, and the three subgroups only the tests use: the
    Borel subgroup and the split ("Ts") and anisotropic ("Ta") tori."""
    p = table.p
    if name == "Borel":
        elements = sorted((GroupElement(p, a, b, 0, pow(a, -1, p)) for a in range(1, p) for b in range(p)),
                          key=GroupElement.entries)
    elif name in ("Ts", "Ta"):
        elements = build_torus(table, "split" if name == "Ts" else "nonsplit").elements
    else:
        return group.build_subgroup(table, name)
    return SubgroupData(name, p, tuple(elements), len(elements), tuple(map(table.class_of, elements)))


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

    The full pair loop, one term-by-term sum per pair over the whole table's
    common frame; it raises the same message on the first offending pair
    as validate_table's pair check (chartable._pair_rows), and is the
    reference for that check.  validate_table pairs only a table its pin
    has passed, each pair in O(1) from the patterns the rows' labels name;
    so on a table the pin refuses, the message is the pin's
    (first_difference), and only a wrong closed form that a table matches
    lets a pair fail.  Each distinct value object is written in the frame
    once.
    """
    table, irrs = data.table, data.irreducibles
    n = len(irrs)
    distinct = {id(v): v for irr in irrs for v in irr.chi.values}
    order, dens = _common_frame(distinct.values())
    num = {k: v._numerators(order, dens) for k, v in distinct.items()}
    conj = {k: v._numerators(order, dens, conjugate=True) for k, v in distinct.items()}
    rows = [[num[id(v)] for v in irr.chi.values] for irr in irrs]
    conj_rows = [[conj[id(v)] for v in irr.chi.values] for irr in irrs]
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


def first_difference(built: CharacterData, broken: CharacterData) -> tuple | None:
    """The first row of broken, label by label in the build's order (the
    constituents dl_terms names across both tori), whose values differ from
    built's row of that label: (that row, a class where it differs, its
    value there, built's value there), or None where every row is built's.
    The class is the first that differs in the order the pin reads them:
    the split torus's regular classes, its generator's first, then the
    nonsplit torus's likewise, then +-I and the unipotent classes, each
    group in class order.

    The reference for chartable._pin_rows on a table whose labels and
    degrees are the build's: a built table is the closed-form table, so the
    pin refuses a row iff it differs from the build's.  It compares values
    class by class, not ids or closed coordinates."""
    p, table = built.p, built.table
    labels = dict.fromkeys(label for torus in TORI for k in range(torus_order(p, torus)) for label, _ in dl_terms(p, torus, k))
    gens = [table.class_of(t.generator) for t in (built.split_torus, built.nonsplit_torus)]
    rank = {"split_semisimple": 0, "nonsplit_semisimple": 1}
    order = sorted(range(len(table)), key=lambda c: (rank.get(table.classes[c].kind, 2), c not in gens, c))
    for label in labels:
        irr, want = broken.irreducible(*label), built.irreducible(*label).chi.values
        c = next((c for c in order if irr.chi.values[c] != want[c]), None)
        if c is not None:
            return irr, c, irr.chi.values[c], want[c]
    return None


def pin_message(built: CharacterData, broken: CharacterData) -> str | None:
    """The message the pin raises on broken, from first_difference: the row,
    the class (by the torus it generates, if it holds a torus generator),
    the row's value there and the build's; None where it finds none."""
    found = first_difference(built, broken)
    if found is None:
        return None
    irr, c, got, want = found
    table = built.table
    gens = {table.class_of(t.generator): t.torus_type for t in (built.split_torus, built.nonsplit_torus)}
    where = f"the {gens[c]} torus generator" if c in gens else f"class {c} ({table.classes[c].kind})"
    return f"{irr.name} is {got.to_text()} at {where}, not {want.to_text()} at p={built.p}"


def replay_rebuild_differs_at(data: CharacterData, coeff: dict, s: ClassFunction) -> int | None:
    """The first class where sum c w R_T^theta over the coefficients is not
    s, or None where the sum equals s at every class, replayed class by
    class on any table, audited or not.  The reference for
    cuspform._rebuild_differs_at, which reads the same answer off the
    audited basis.

    By dl_terms each R_T^theta is a signed sum of irreducibles, so the sum
    is sum_chi f_chi chi over the table's id rows, with f_chi the total of
    sign c w over the terms naming chi, each written as an integer over the
    lcm of their denominators.  At each class c, classfun.closed_sum sums
    those integers times conj(chi(c)), and minus the lcm times conj(s(c)),
    each as a product with the value one: f is rational, so that is the
    conjugate of the difference of the rebuilt sum and s at c (times the
    lcm), zero iff the difference is."""
    p, closed = data.p, data.coordinates
    f: dict[tuple, Fraction] = {}
    for (torus_type, k), c in coeff.items():
        for label, sign in dl_terms(p, torus_type, k):
            f[label] = f.get(label, 0) + sign * c * orbit_weight(p, torus_type, k)
    terms = [(x, data.irreducible(*label).ids) for label, x in f.items() if x]
    scale = lcm(*(x.denominator for x, _ in terms))
    one = closed.coordinate(ONE)
    left, last = [(x.numerator * (scale // x.denominator), ONE, one) for x, _ in terms], (-scale, ONE, one)
    for i, (target, *column) in enumerate(zip(s.values, *(ids for _, ids in terms))):  # per class, s(c) and the ids
        right = [*map(closed.cells.__getitem__, filter(None, column)), (target, closed.coordinate(target))]  # id 0 is zero
        if not closed_sum(closed, [*compress(left, column), last], right, scale).is_zero():
            return i
    return None


def closed_rows(data: CharacterData, torus_type: str, ks, values, sign: int = 1) -> list[tuple[int, ...]]:
    """The closed form of sign R_T^theta_k as one row of ids into values
    per k in ks, each distinct value made once: the cell-by-cell build that
    CharacterData._write_out replaced, kept as the write-out's oracle
    (closed_form_table) and checked against closed_rows_oracle.

    A class's closed form (_closed_form) has one of three shapes: {} on
    the classes of the other torus, {d: c} at +-I and the unipotent-type
    classes, and {d: u, -d: u} on its own torus.  At theta_k the value
    is c zeta_n^e / den with e = k d mod n (zero for {}, read as {0: 0}),
    or u (zeta_n^e + zeta_n^-e) / den, which is the same at e and n - e.
    So a cell's value is a function of its shape's coefficient and e, or
    min(e, n - e) for the pair: the classes of one (coefficient, shape)
    share a memo keyed by that exponent, and a key's value is made and
    interned at its first cell.  Interning is then in the order of each
    value's first cell, as when every cell is interned in turn, and a
    later cell gets the id interning its equal value would return.
    """
    p = data.p
    n = torus_order(p, torus_type)
    den = p * (p - 1) if torus_type == "split" else 1
    memos: dict[tuple[int, bool], dict[int, int]] = {}  # per (coefficient, pair shape), exponent -> id
    cells = []  # per class: (d, pair shape, coefficient, memo)
    for dmap in data._closed_form(torus_type):
        (d, c), *other = sorted(dmap.items()) or [(0, 0)]
        pair = bool(other)
        assert other == ([(n - d, c)] if pair else []), f"closed form {dmap} has none of the three shapes"
        cells.append((d, pair, sign * c, memos.setdefault((sign * c, pair), {})))
    rows = []
    for k in ks:
        row = []
        for d, pair, c, memo in cells:
            e = k * d % n
            if pair and 2 * e > n:
                e = n - e
            i = memo.get(e)
            if i is None:
                raw = ({e: 2 * c} if 2 * e % n == 0 else {e: c, n - e: c}) if pair else {e: c}
                i = memo[e] = values.intern(CycNumber._from_numerators(n, raw, den))
            row.append(i)
        rows.append(tuple(row))
    return rows


def closed_form_table(data: CharacterData):
    """(values, entries) of the table a build that writes every cell
    makes, entries the (label, id row, degree) of each irreducible in the
    table's order: the principal and discrete rows by closed_rows, then
    the trivial row, St = R_split(1) - 1 and the exceptional halves (b +-
    delta)/2 of b = R(alpha) (split) and -R(alpha) (anisotropic), each
    distinct value interned at its first cell.  The oracle of a built
    table's written-out values and id rows (CharacterData._write_out)."""
    from dlcusp.chartable import _Values
    from dlcusp.numtheory import legendre

    p, table = data.p, data.table
    values, ends, rows = _Values(), _Values(), {}
    for torus, sign in (("split", 1), ("nonsplit", -1)):
        half = torus_order(p, torus) // 2
        rows[torus] = closed_rows(data, torus, range(1, half), values, sign)
        rows[torus, "ends"] = closed_rows(data, torus, (0, half), ends, sign)
    def keyed_row(keys: list, make) -> tuple[int, ...]:  # make(key) interned per key, once per distinct key
        ids = {}
        for key in keys:
            if key not in ids:
                ids[key] = values.intern(make(key))
        return tuple(map(ids.__getitem__, keys))

    out = [(("trivial",), (values.intern(ONE),) * len(table), 1)]
    out.append((("steinberg",), keyed_row(rows["split", "ends"][0], lambda i: ends[i] - ONE), p))
    out += [(("principal", k), row, p + 1) for k, row in enumerate(rows["split"], 1)]
    out += [(("discrete", k), row, p - 1) for k, row in enumerate(rows["nonsplit"], 1)]
    tau, halves = gauss_sum(p), {}

    def plus(key):
        if key not in halves:
            halves[key] = (ends[key[0]] + tau.scale(key[1])).scale(Fraction(1, 2))
        return halves[key]

    for torus, deg, center_sign in (("split", (p + 1) // 2, legendre(-1, p)), ("nonsplit", (p - 1) // 2, -legendre(-1, p))):
        keys = [(b, rec.key[1] * (1 if rec.key[0] == 1 else center_sign) if rec.kind == "unipotent" else 0)
                for b, rec in zip(rows[torus, "ends"][1], table.classes)]
        out.append(((f"exceptional_{torus}_plus",), keyed_row(keys, plus), deg))
        out.append(((f"exceptional_{torus}_minus",), keyed_row(keys, lambda key: plus((key[0], -key[1]))), deg))
    return values, out


def closed_rows_oracle(data: CharacterData, torus_type: str, ks, values, sign: int = 1) -> list[tuple[int, ...]]:
    """The closed form of sign R_T^theta_k as one row of ids into values per
    k in ks, cell by cell: each cell's exponent map {k d mod n: c} made a
    value and interned in turn.  The reference for closed_rows, which makes
    each distinct value once."""
    p = data.p
    n = p - 1 if torus_type == "split" else p + 1
    den = p * (p - 1) if torus_type == "split" else 1
    rows = []
    for k in ks:
        row = []
        for dmap in data._closed_form(torus_type):
            raw: dict[int, int] = {}
            for d, c in dmap.items():
                e = k * d % n
                raw[e] = raw.get(e, 0) + sign * c
            row.append(values.intern(CycNumber._from_numerators(n, raw, den)))
        rows.append(tuple(row))
    return rows


def check_exceptional_pairs(data: CharacterData) -> None:
    """Each exceptional half is (b + delta)/2 or (b - delta)/2 in
    ClassFunction arithmetic, b the closed form of R(alpha) (split) or
    -R(alpha) (anisotropic), cell by cell, and delta the Gauss sum times the
    central sign and the residue symbol at the unipotent-type classes.  And
    the checks the build once made on each pair, which validate_table
    implies: the halves sum to b, each has degree (p +- 1)/2 and norm one,
    the two are orthogonal, and the center acts on each by alpha(-I), the
    Legendre symbol of -1, negated on the anisotropic torus."""
    from dlcusp.chartable import _Values
    from dlcusp.numtheory import legendre

    p, table = data.p, data.table
    tau = gauss_sum(p)
    neg = [table.class_of(-rec.rep) for rec in table.classes]
    for torus, n, sign, deg in (("split", p - 1, 1, (p + 1) // 2), ("nonsplit", p + 1, -1, (p - 1) // 2)):
        values = _Values()
        (row,) = closed_rows_oracle(data, torus, (n // 2,), values, sign)
        base = values.view(table, row)
        pair = [data.irreducible(f"exceptional_{torus}_{half}") for half in ("plus", "minus")]
        plus, minus = (irr.chi for irr in pair)
        center_sign = sign * legendre(-1, p)
        delta = ClassFunction(table, [
            tau.scale(rec.key[1] * (1 if rec.key[0] == 1 else center_sign)) if rec.kind == "unipotent" else ZERO
            for rec in table.classes
        ])
        assert plus == scaled(base + delta, Fraction(1, 2)) and minus == scaled(base + (-delta), Fraction(1, 2)), torus
        assert plus + minus == base, torus
        for irr, chi in zip(pair, (plus, minus)):
            assert irr.degree == chi.degree == deg and naive_inner_product(chi, chi) == 1, torus
            assert all(chi.values[neg[c]] == v.scale(center_sign) for c, v in enumerate(chi.values)), torus
        assert naive_inner_product(plus, minus) == 0, torus


# The four checks validate_table made before its pin (chartable._pin_rows),
# kept as oracles.  The pin implies each: every cell of a table that passes it
# equals its family's closed value, s^k deg at s I, (a/2) c_kd at the torus
# class of g^(+-d) and s^k (u + t r tau) at the unipotent class (s, r), and
# its labels are the p + 4 of the build, each with its family's degree.


def check_degrees(data: CharacterData) -> None:
    """Each stored degree is chi(1).  Implied by the pin: the degree is its
    family's, and so is the identity cell, s^k deg at s = 1."""
    for irr in data.irreducibles:
        if irr.chi.degree != irr.degree:
            raise TableValidationError(
                f"{irr.name} has degree {irr.degree} but chi(1) = {irr.chi.degree.to_text()} at p={data.p}"
            )


def check_id_row_duality(data: CharacterData) -> None:
    """The table is closed under duality: each id row read at the inverse
    classes is an id row of the table (equal ids are equal values).
    Implied by the pin: g and g^-1 lie in one class at +-I and on the tori,
    and the inverse of the unipotent class (s, r) is (s, (-1/p) r).  So the
    dual of a closed-form row is the row with t replaced by (-1/p) t: the
    row itself where t = 0, and the other half of its exceptional pair
    ((-1/p) = -1) or the half itself ((-1/p) = 1), both in the table."""
    id_rows = {irr.ids for irr in data.irreducibles}
    inverse = [rec.inverse_class for rec in data.table.classes]
    for irr in data.irreducibles:
        if tuple(irr.ids[c] for c in inverse) not in id_rows:
            raise TableValidationError(f"dual of {irr.name} is not in the table at p={data.p}")


def check_gauss_difference(data: CharacterData) -> None:
    """plus - minus of each exceptional pair is the Gauss sum tau at the
    unipotent class (1, 1).  Implied by the pin: there the halves are u +
    tau/2 and u - tau/2."""
    c = next(i for i, rec in enumerate(data.table.classes) if rec.kind == "unipotent" and rec.key == (1, 1))
    for torus in TORI:
        plus, minus = (data.irreducible(f"exceptional_{torus}_{s}").chi.values[c] for s in ("plus", "minus"))
        if plus - minus != gauss_sum(data.p):
            raise TableValidationError(
                f"exceptional_{torus}_plus - exceptional_{torus}_minus is not the Gauss sum "
                f"at the unipotent class (1, 1) at p={data.p}"
            )


def check_center(data: CharacterData) -> None:
    """The center {+-I} acts on each row by the sign chi(-1)/chi(1): chi(-g)
    = chi(g) at every class if chi(-1) = chi(1), and chi(-g) = -chi(g) at
    every class if chi(-1) = -chi(1); checked on id rows, with each value's
    negation looked up once.  Row orthonormality does not imply it; the pin
    does, with chi(-1)/chi(1) = (-1)^k.  -I is s I with s = -1, the
    unipotent class (s, r) goes to (-s, r), and on a torus of order n, -1 is
    g^(n/2), so -g^d = g^(d + n/2), where (a/2) c_(k(d + n/2)) = (-1)^k
    (a/2) c_kd."""
    negated = [data.values.ids.get(-v, -1) for v in data.values]
    neg = [data.table.class_of(-rec.rep) for rec in data.table.classes]  # the class of -g, per class of g
    for irr in data.irreducibles:
        image = irr.ids if irr.ids[neg[0]] == irr.ids[0] else tuple(map(negated.__getitem__, irr.ids))  # class 0 is I's
        if tuple(map(irr.ids.__getitem__, neg)) != image:  # the row at -g, class by class
            c = next(c for c, d in enumerate(neg) if irr.ids[d] != image[c])
            raise TableValidationError(f"the center does not act on {irr.name} by chi(-1)/chi(1) at class {c} at p={data.p}")


def with_row(data: CharacterData, row: int, chi: ClassFunction, label: tuple | None = None,
             degree: int | None = None) -> CharacterData:
    """A shallow copy of data whose irreducible number row has the values of
    chi, and label and degree where given.  The copy's values are a copy of
    data's, with only chi's values interned into it, so the other rows keep
    their ids; its list may then hold a value no cell holds, as a cache
    document's may, and the audit reads only the cells' ids."""
    import copy

    broken, values = copy.copy(data), copy.copy(data.values)
    values.ids = dict(data.values.ids)
    entries = [(irr.label, irr.ids, irr.degree) for irr in data.irreducibles]
    old_label, _, old_degree = entries[row]
    entries[row] = (label or old_label, tuple(map(values.intern, chi.values)), old_degree if degree is None else degree)
    broken._set(values, entries)
    return broken


def with_cell(data: CharacterData, row: int, cls: int, value: CycNumber) -> CharacterData:
    """A shallow copy of data whose irreducible number row takes value at class cls."""
    values = list(data.irreducibles[row].chi.values)
    values[cls] = value
    return with_row(data, row, ClassFunction(data.table, values))


def with_pattern(data: CharacterData, row: int, patterns: tuple | None = None, six: tuple | None = None) -> CharacterData:
    """A shallow copy of the built table data whose irreducible number row
    has patterns and six ids (into data.six_values) where given; its cells
    are written out from them."""
    import copy

    broken = copy.copy(data)
    entries = [(irr.label, irr.degree, irr.patterns, irr.six) for irr in data.irreducibles]
    label, degree, old_patterns, old_six = entries[row]
    entries[row] = (label, degree, patterns or old_patterns, six or old_six)
    broken._set_patterns(data.six_values, entries)
    return broken


def mixed_trivial_steinberg(data: CharacterData) -> CharacterData:
    """A copy of data whose trivial and Steinberg rows are a 1 + b St and
    b 1 - a St, with a = (1 - p^2)/(1 + p^2) and b = 2p/(1 + p^2).  The
    mix is a rational reflection: it keeps orthonormality, both degrees (1
    and p), duality and the action of the center, so only a check that
    pins the two rows' values refuses it."""
    p = data.p
    a, b = Fraction(1 - p * p, 1 + p * p), Fraction(2 * p, 1 + p * p)
    (i, one), (j, st) = ((i, irr.chi) for i, irr in enumerate(data.irreducibles) if irr.label in (("trivial",), ("steinberg",)))
    return with_row(with_row(data, i, scaled(one, a) + scaled(st, b)), j, scaled(one, b) + scaled(st, -a))


def reflected_in_unipotent(data: CharacterData) -> CharacterData:
    """A copy of data whose every row X is X - 2 <X, f> f / <f, f>, f the
    indicator of the four unipotent-type classes.  The reflection keeps
    orthonormality and changes rows at those four classes only: every torus
    cell, every degree, duality, the center and plus - minus at the class
    (1, 1) stay, so only a check that pins the unipotent cells refuses it."""
    table = data.table
    f = ClassFunction(table, [ONE if rec.kind == "unipotent" else ZERO for rec in table.classes])
    norm, broken = inner_product(f, f).as_rational(), data
    for i, irr in enumerate(data.irreducibles):
        c = inner_product(irr.chi, f).as_rational()
        if c:
            broken = with_row(broken, i, irr.chi + scaled(f, -2 * c / norm))
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


def closed_cell_faults(data: CharacterData, seed: int = 11, count: int = 40):
    """Seeded single-cell faults that keep every value in closed coordinates:
    a cell at a torus class becomes c_e of that torus, a cell at a central
    or unipotent class gains +-tau or +-tau/2, or a cell is negated."""
    rng = random.Random(seed * 1009 + data.p)
    p, tau = data.p, gauss_sum(data.p)
    tori = {"split_semisimple": p - 1, "nonsplit_semisimple": p + 1}
    for _ in range(count):
        row, cls = rng.randrange(len(data.irreducibles)), rng.randrange(len(data.table))
        value, n = data.irreducibles[row].chi.values[cls], tori.get(data.table.classes[cls].kind)
        if rng.random() < 0.25:
            value = -value
        elif n:
            e = rng.randrange(1, n // 2)
            value = root_of_unity(n, e) + root_of_unity(n, -e)
        else:
            value = value + tau.scale(Fraction(rng.choice((1, -1)), rng.choice((1, 2))))
        yield with_cell(data, row, cls, value)


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
            assert table.class_of(conjugate(rec.rep, h)) == idx
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


def placement_data(p: int) -> SimpleNamespace:
    """What cuspform.verify_torus_placement reads of a CharacterData (p, the
    class table, Gx_tilde and Gy_tilde, the tori), built without characters."""
    table = group.build_conjugacy_table(p)
    tori = {t: build_torus(table, t) for t in TORI}
    subgroups = {name: group.build_subgroup(table, name) for name in ("Gx_tilde", "Gy_tilde")}
    return SimpleNamespace(p=p, table=table, subgroups=subgroups, torus=tori.__getitem__)


def witness_placement(data) -> dict[str, list[str]]:
    """The tori each cyclic subgroup conjugates into, keyed "x"/"y", each
    found by an explicit conjugating element (conjugate_into_torus)."""
    return {key: [t for t in TORI if conjugate_into_torus(data.subgroups[name], data.torus(t)) is not None]
            for key, name in (("x", "Gx_tilde"), ("y", "Gy_tilde"))}


def conjugate_into_torus(sub: SubgroupData, torus) -> GroupElement | None:
    """h with h sub h^-1 inside the torus, or None when no embedding exists.

    Only the two cyclic subgroups with semisimple generators are eligible; a
    cyclic group embeds in a cyclic group iff its order divides, and the
    witness is assembled from companion-form base changes plus a centralizer
    correction that lands the determinant on 1.  Every witness is replayed
    on every element of sub before it is returned.
    """
    if sub.name not in ("Gx_tilde", "Gy_tilde"):
        raise ValueError("only Gx_tilde / Gy_tilde placement is supported")
    m = sub.order
    if torus.order % m != 0:
        return None
    g = min((x for x in sub.elements if element_order(x) == m), key=GroupElement.entries)
    step = torus.order // m
    for j in range(1, m):
        if gcd(j, m) != 1:
            continue
        u = torus.generator ** (step * j)
        if u.trace != g.trace:
            continue
        h = _conjugator(g, u)
        if h is not None:
            for x in sub.elements:
                assert conjugate(x, h) in torus.dlog
            return h
    return None


def _cyclic_vector(g: GroupElement) -> tuple[int, int]:
    p = g.p
    for v in ((1, 0), (0, 1), (1, 1)):
        w = ((g.a * v[0] + g.b * v[1]) % p, (g.c * v[0] + g.d * v[1]) % p)
        if (v[0] * w[1] - v[1] * w[0]) % p != 0:
            return v
    raise AssertionError("element is scalar, no cyclic vector")


def _conjugator(g: GroupElement, u: GroupElement) -> GroupElement | None:
    """Solve h g h^-1 = u with det h = 1 for regular semisimple g, u of equal trace."""
    p = g.p
    v = _cyclic_vector(g)
    w = _cyclic_vector(u)
    gv = ((g.a * v[0] + g.b * v[1]) % p, (g.c * v[0] + g.d * v[1]) % p)
    uw = ((u.a * w[0] + u.b * w[1]) % p, (u.c * w[0] + u.d * w[1]) % p)
    pm = (v[0], gv[0], v[1], gv[1])  # columns [v | gv]
    qm = (w[0], uw[0], w[1], uw[1])
    det_p = (pm[0] * pm[3] - pm[1] * pm[2]) % p
    inv_det = pow(det_p, -1, p)
    # h0 = Q P^-1 conjugates g to u, determinant arbitrary
    pinv = (pm[3] * inv_det % p, -pm[1] * inv_det % p, -pm[2] * inv_det % p, pm[0] * inv_det % p)
    h0 = (
        (qm[0] * pinv[0] + qm[1] * pinv[2]) % p,
        (qm[0] * pinv[1] + qm[1] * pinv[3]) % p,
        (qm[2] * pinv[0] + qm[3] * pinv[2]) % p,
        (qm[2] * pinv[1] + qm[3] * pinv[3]) % p,
    )
    d0 = (h0[0] * h0[3] - h0[1] * h0[2]) % p
    # correct by x + y*g inside the centralizer of g:
    # det(xI + yg) = x^2 + tr(g) xy + y^2 must equal d0^-1
    target = pow(d0, -1, p)
    t = g.trace
    for x in range(p):
        for y in range(p):
            if (x * x + t * x * y + y * y) % p == target:
                ca = (x + y * g.a) % p
                cb = y * g.b % p
                cc = y * g.c % p
                cd = (x + y * g.d) % p
                h = GroupElement(
                    p,
                    h0[0] * ca + h0[1] * cc,
                    h0[0] * cb + h0[1] * cd,
                    h0[2] * ca + h0[3] * cc,
                    h0[2] * cb + h0[3] * cd,
                )
                assert conjugate(g, h) == u
                return h
    return None


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
    lhs = scaled(tensor(st, data.dl(torus_type, k)), lemma_tensor_sign(torus_type))
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
            rebuilt = rebuilt + scaled(chi, m)
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


def weinstein_by_induction(data: CharacterData) -> ClassFunction:
    """s as weinstein_character once built it: 1_Z^G less the other three
    permutation characters, each induced through induce and summed as class
    functions, plus twice the trivial character; no check is made."""
    table = data.table
    s = induce(table, data.subgroups["Z"], [1, 1])
    for name in ("Gx_tilde", "Gy_tilde", "Gz_tilde"):
        sub = data.subgroups[name]
        s = s + -induce(table, sub, [1] * sub.order)
    return s + scaled(trivial_character(table), 2)


def steinberg_tensor_coefficients(p: int, t1: str, k1: int, torus_type: str, zc_ks: list[int]) -> dict[int, int]:
    """Per-character coefficient of each R with central character one in
    St (x) R_{T1}^{theta1}, for the seven tabulated cases: -1 on the other
    torus, and 1 +- [theta = theta1] on T1 (+ split, - anisotropic)."""
    if t1 != torus_type:
        return dict.fromkeys(zc_ks, -1)
    k1 %= torus_order(p, t1)
    sign = 1 if torus_type == "split" else -1
    return {k: 1 + sign * (k == k1) for k in zc_ks}


def remark_by_expansion(p: int) -> dict[tuple[str, int], Fraction]:
    """remark_pipeline as it once ran, in O(p^2): every Steinberg tensor
    expanded into a dict over every character with central character one
    (steinberg_tensor_coefficients), added into one accumulator, and the
    inversion orbits symmetrized."""
    zc = {t: [k for k in range(0, torus_order(p, t)) if k % 2 == 0] for t in TORI}
    acc: dict[tuple[str, int], int] = {(t, k): 0 for t in TORI for k in zc[t]}

    def add_tensor_expansion(t1: str, k1: int, scale: int):
        for torus_type in TORI:
            for k, c in steinberg_tensor_coefficients(p, t1, k1, torus_type, zc[torus_type]).items():
                acc[(torus_type, k)] += scale * c

    for k in zc["split"]:
        add_tensor_expansion("split", k, 1)
        acc[("split", k)] -= 1
    acc[("split", 0)] += 1
    acc[("nonsplit", 0)] += 1
    pattern = embedding_pattern(p)
    for s in ("x", "y"):
        torus_type = pattern[s]
        n = torus_order(p, torus_type)
        sign = -1 if torus_type == "split" else 1
        for k in range(0, n, _SUBGROUP_ORDERS[s]):
            add_tensor_expansion(torus_type, k, sign)

    out: dict[tuple[str, int], Fraction] = {}
    for torus_type in TORI:
        n = torus_order(p, torus_type)
        for k in _zc_orbit_reps(p, torus_type):
            total = sum(acc[(torus_type, j)] for j in {k, -k % n})
            out[(torus_type, k)] = Fraction(total, orbit_weight(p, torus_type, k))
    return out
