"""The weight-2 cusp-form character and its Deligne-Lusztig decomposition.

Builds the character of the weight-2 cusp-form space plus its dual at prime
level from Weinstein's permutation-character formula, reads the exact
rational coefficient of every Deligne-Lusztig character with central
character one off the irreducible multiplicities (Deligne-Lusztig
orthogonality), classifies each torus character into the five coefficient
sets, compares against the built-in coefficient table (rows by set and
torus, columns by the residue of p mod 12), and re-derives the same
coefficients through an independent symbolic pipeline that expands the
permutation characters by the Steinberg tensor identity.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .classfun import ClassFunction, closed_pairings, dual
from .chartable import CharacterData, dl_terms, ensure_audited, quadratic_character_index
from .cyclotomic import ZERO
from .group import ConjugacyTable, SubgroupData, torus_order

TORI = ("split", "nonsplit")
SET_LABELS = ("A", "B", "C", "D", "E")
RESIDUES = (1, 5, 7, 11)
READINGS = ("primary", "alternative")

# Order-4 and order-6 cyclic subgroup placement by residue of p mod 12:
# each embeds in the torus whose order it divides.
_SUBGROUP_ORDERS = {"x": 4, "y": 6}


class VerificationError(Exception):
    """An exact identity claimed by the decomposition failed."""


def embedded_subgroups(p: int, torus_type: str) -> tuple[str, ...]:
    """Which of the order-4 ("x") and order-6 ("y") subgroups embed in T."""
    return tuple(s for s, m in _SUBGROUP_ORDERS.items() if torus_order(p, torus_type) % m == 0)


def embedding_pattern(p: int) -> dict[str, str]:
    """Torus containing each cyclic subgroup, keyed "x"/"y".  For odd p, 4 and
    6 each divide exactly one of p - 1 and p + 1 (two even numbers 2 apart, of
    which exactly one is 0 mod 4 and, for p > 3, exactly one 0 mod 3), so each
    subgroup embeds in exactly one torus."""
    return {s: t for t in TORI for s in embedded_subgroups(p, t)}


def verify_torus_placement(data: CharacterData) -> dict[str, str]:
    """The torus each cyclic subgroup lies in a conjugate of, read off the
    class table: H lies in a conjugate of T iff the representative of every
    class H meets (set(H.fusion)) is in T.

    (<=) The class of a generator g of H has its representative r in T,
    so h g h^-1 = r for some h, and h H h^-1 = <r> lies in T.  (=>) Every
    element of H is conjugate into T, so its class meets T; and a class
    that meets a torus has its representative in it, as the table builds
    them: +-I in both, diag(k, k^-1) in the split torus and
    [[a, b eps], [b, a]] in the nonsplit one, while a unipotent-type class
    meets neither.

    Returns the same mapping as embedding_pattern; raises if a subgroup lies
    in no torus or in both, or if the placement is not that mapping.
    """
    classes = data.table.classes
    pattern = {}
    for key, name in (("x", "Gx_tilde"), ("y", "Gy_tilde")):
        reps = [classes[c].rep for c in set(data.subgroups[name].fusion)]
        placements = [t for t in TORI if all(r in data.torus(t).dlog for r in reps)]
        if len(placements) != 1:
            raise VerificationError(f"{name} embeds in {placements or 'no torus'} at p={data.p}")
        pattern[key] = placements[0]
    if pattern != embedding_pattern(data.p):
        raise VerificationError(f"placement disagrees with the mod-12 table at p={data.p}")
    return pattern


def _permutation_character(table: ConjugacyTable, sub: SubgroupData) -> dict[int, Fraction]:
    """1_H^G by counting, at the classes where it is not zero: at class c it
    is |C(c)| |H & c| / |H|, with |H & c| the subgroup elements that fuse
    to c."""
    return {c: Fraction(table.classes[c].centralizer_order * count, sub.order) for c, count in Counter(sub.fusion).items()}


def weinstein_character(data: CharacterData) -> ClassFunction:
    """The degree-2(1 + (p^2-1)(p-6)/24) character from the permutation formula.

    1_Z^G less the permutation characters of Gx_tilde, Gy_tilde and
    Gz_tilde, plus 2 at every class (twice the trivial character).  Each
    permutation character is counted off its subgroup's fusion
    (_permutation_character), so s is summed in rationals, one per class,
    and only then made a class function.  The degree is cross-checked
    against the index arithmetic and the genus count, and the values must
    be integers, self-dual and the same at I and -I.
    """
    table, p = data.table, data.p
    values = [2] * len(table)
    for name, sign in (("Z", 1), ("Gx_tilde", -1), ("Gy_tilde", -1), ("Gz_tilde", -1)):
        for c, v in _permutation_character(table, data.subgroups[name]).items():
            values[c] += sign * v
    deg = values[table.identity_index()]
    half = table.group_order // 2
    index_deg = Fraction(half) * (1 - Fraction(1, 2) - Fraction(1, 3) - Fraction(1, p)) + 2
    genus_deg = 2 * (1 + Fraction((p * p - 1) * (p - 6), 24))
    if not (deg == index_deg == genus_deg):
        raise VerificationError(f"degree {deg} != index formula {index_deg} / genus formula {genus_deg}")
    if any(v.denominator != 1 for v in values):
        raise VerificationError("permutation character has a non-integral value")
    s = ClassFunction(table, values)
    if dual(s) != s or s.values[0] != s.values[1]:
        raise VerificationError("cusp-form character must be self-dual and trivial on the center")
    return s


class ThetaSetLabel(NamedTuple):
    """Coefficient-set membership of one torus character."""

    label: str
    torus: str
    reading: str


def classify_theta(p: int, torus_type: str, k: int, reading: str = "primary") -> ThetaSetLabel:
    """Assign a torus character trivial on the center to one of the sets A-E.

    A subgroup condition is decidable only when the subgroup embeds in this
    torus; theta is trivial on the embedded order-m subgroup iff m | k.
    Primary reading: A = non-trivial on every embedded subgroup (or nothing
    embeds), B = trivial on both (requires both), then C (trivial on the
    embedded order-4 subgroup), then D (order-6), E = the trivial character.
    Alternative reading: B accepts a single embedded subgroup.
    """
    if reading not in READINGS:
        raise ValueError(f"unknown reading {reading!r}")
    k %= torus_order(p, torus_type)
    if k % 2 != 0:
        raise ValueError("set labels are defined only for characters trivial on the center")
    if k == 0:
        return ThetaSetLabel("E", torus_type, reading)
    emb = embedded_subgroups(p, torus_type)
    trivial_on = {s: k % _SUBGROUP_ORDERS[s] == 0 for s in emb}
    if not emb or not any(trivial_on.values()):
        return ThetaSetLabel("A", torus_type, reading)
    if all(trivial_on.values()) and (len(emb) == 2 or reading == "alternative"):
        return ThetaSetLabel("B", torus_type, reading)
    if trivial_on.get("x"):
        return ThetaSetLabel("C", torus_type, reading)
    if trivial_on.get("y"):
        return ThetaSetLabel("D", torus_type, reading)
    raise AssertionError("set classification is not a partition")


# -- the coefficient table ---------------------------------------------------
# c = (sign) (p - r)/12 + offset, one cell per (set, torus, residue r mod 12).
# The offsets track the subgroup placement: -1 exactly in the columns where
# the set's defining subgroup lies in this torus, -2 for B where both do, and
# 1 - (number of subgroups in this torus) for the trivial character.  Cells
# whose set is empty at that residue carry the A-row value.

_TABLE_OFFSETS = {
    ("A", "split"): {1: 0, 5: 0, 7: 0, 11: 0},
    ("B", "split"): {1: -2, 5: 0, 7: 0, 11: 0},
    ("C", "split"): {1: -1, 5: -1, 7: 0, 11: 0},
    ("D", "split"): {1: -1, 5: 0, 7: -1, 11: 0},
    ("E", "split"): {1: -1, 5: 0, 7: 0, 11: 1},
    ("A", "nonsplit"): {1: 0, 5: 0, 7: 0, 11: 0},
    ("B", "nonsplit"): {1: 0, 5: 0, 7: 0, 11: -2},
    ("C", "nonsplit"): {1: 0, 5: 0, 7: -1, 11: -1},
    ("D", "nonsplit"): {1: 0, 5: -1, 7: 0, 11: -1},
    ("E", "nonsplit"): {1: 1, 5: 0, 7: 0, 11: -1},
}


def coefficient_line(label: str, torus_type: str, residue: int) -> tuple[Fraction, Fraction]:
    """(a, b) with c = a p + b for the given table cell."""
    sign = 1 if torus_type == "split" else -1
    offset = _TABLE_OFFSETS[(label, torus_type)][residue]
    a = Fraction(sign, 12)
    b = Fraction(-sign * residue, 12) + offset
    return a, b


def paper_coefficients(p: int) -> dict[tuple[str, str], Fraction]:
    """Exact value of every table cell at this prime: a p + b of
    coefficient_line, summed as one integer over 12."""
    r = p % 12
    return {
        (label, torus_type): Fraction((1 if torus_type == "split" else -1) * (p - r) + 12 * offsets[r], 12)
        for (label, torus_type), offsets in _TABLE_OFFSETS.items()
    }


# -- decomposition ------------------------------------------------------------


class DecompositionResult(NamedTuple):
    """Exact coefficients of the cusp-form character over the DL spanning set."""

    p: int
    reading: str
    coefficients: dict[tuple[str, int], Fraction]  # (torus, orbit representative) -> c
    labels: dict[tuple[str, int], ThetaSetLabel]
    table_match: bool
    multiplicities: dict[tuple, Fraction]
    mismatches: list[dict]
    rebuild_differs_at: int | None = None  # the first class where the rebuilt sum is not s

    @property
    def exact(self) -> bool:
        return self.rebuild_differs_at is None


def orbit_weight(p: int, torus_type: str, k: int) -> int:
    """The size of theta_k's inversion orbit {k, -k}: how many torus
    characters give the one Deligne-Lusztig character R_T^theta_k."""
    n = torus_order(p, torus_type)
    return len({k % n, -k % n})


def _zc_orbit_reps(p: int, torus_type: str) -> range:
    """The inversion-orbit representatives 0 <= k <= |T|/2 of the torus
    characters with central character one (k even)."""
    return range(0, torus_order(p, torus_type) // 2 + 1, 2)


def decompose_dl(data: CharacterData, s: ClassFunction | None = None, reading: str = "primary") -> DecompositionResult:
    """The coefficients of the cusp-form character over the DL characters with
    central character one, read off its multiplicities on the audited table
    and compared with the coefficient table.

    Coefficients are stored per inversion-orbit representative; the full sum
    counts non-self-inverse orbits twice.  Each coefficient is half a pairing,
    c = <s, R>/2 = sum sign m_label / 2 over dl_terms, with m_label = <s, chi>
    the multiplicities.  By Deligne-Lusztig orthogonality the rows of
    distinct orbits (of one torus or of the two) are orthogonal, and <R, R>
    is 2 at theta = theta^-1 and 1 otherwise, so orbit weight times norm is
    2 for every orbit: if s = sum c w R, pairing with one R leaves <s, R> =
    2c.

    Per family this reads (m_trivial +- m_St)/2 at k = 0, m/2 and -m/2 for
    principal and discrete rows, and +-(m_plus + m_minus)/2 for an
    exceptional pair, which is +-m_plus wherever the two multiplicities
    agree.  Where they differ, s has a component along plus - minus, which
    is orthogonal to every spanning row, so s is outside the span and exact
    is false (_rebuild_differs_at).

    The multiplicities pair s - c, not s, by classfun.closed_pairings, with c
    the value s takes most often (the first on a tie), and add c to the
    trivial row's.  For any constant c, <s, chi> = <s - c, chi> + c <1, chi>
    by linearity in the first argument, and <1, chi> = [chi trivial] by
    orthonormality, the audit having pinned the trivial row to 1 at every
    class.  closed_pairings skips the classes where s - c is zero: for the
    cusp form c is 2 from p = 11 on, and s - 2 is zero off nine classes.

    The table is audited first (chartable.ensure_audited), and a table that
    fails raises TableValidationError: exactness is read off the audited
    basis, which a table nobody audited is not.
    """
    p = data.p
    ensure_audited(data)
    if s is None:
        s = weinstein_character(data)
    irrs, closed = data.irreducibles, data.closed
    counts = Counter(s.values)
    c = max(counts, key=counts.get)  # the first of the most frequent, as max keeps the first
    shifted = [ZERO if v == c else v - c for v in s.values]
    mults: dict[tuple, Fraction] = {}
    for irr, value in zip(irrs, closed_pairings(closed, data.table, shifted, data.column)):
        m = (value + c if irr.label == ("trivial",) else value).as_rational()
        if m is None:
            raise VerificationError(f"non-rational multiplicity for {irr.name} at p={p}")
        mults[irr.label] = m

    den = lcm(*(m.denominator for m in mults.values()))  # the coefficients are integers over 2 den
    num = {label: m.numerator * (den // m.denominator) for label, m in mults.items()}
    coeff: dict[tuple[str, int], Fraction] = {}
    labels: dict[tuple[str, int], ThetaSetLabel] = {}
    mismatches: list[dict] = []
    expected = paper_coefficients(p)
    for torus_type in TORI:
        for k in _zc_orbit_reps(p, torus_type):
            c = coeff[(torus_type, k)] = Fraction(sum(sign * num[label] for label, sign in dl_terms(p, torus_type, k)), 2 * den)
            lab = labels[(torus_type, k)] = classify_theta(p, torus_type, k, reading)
            want = expected[(lab.label, torus_type)]
            if c != want:
                mismatches.append(
                    {"torus": torus_type, "k_orbit": k, "set_label": lab.label, "computed": str(c), "table": str(want)}
                )
    return DecompositionResult(
        p=p,
        reading=reading,
        coefficients=coeff,
        labels=labels,
        table_match=not mismatches,
        multiplicities=mults,
        mismatches=mismatches,
        rebuild_differs_at=_rebuild_differs_at(data, coeff, mults),
    )


def _rebuild_differs_at(data: CharacterData, coeff: dict[tuple[str, int], Fraction], mults: dict[tuple, Fraction]) -> int | None:
    """The first class where sum c w R_T^theta over the coefficients is not
    s, or None where the sum equals s at every class, on an audited table
    whose multiplicities of s are mults.

    By dl_terms each R_T^theta is a signed sum of irreducibles, so the sum
    is sum_chi f_chi chi, with f_chi the total of sign c w over the terms
    naming chi (0 for a row no term names).  validate_table has proved the
    table square and orthonormal, so its rows are linearly independent (a
    relation sum a_chi chi = 0 paired with psi gives a_psi = 0) and, being
    as many as the classes, a basis of the class functions.  Pairing s =
    sum a_chi chi with psi gives a_psi = <s, psi> = m_psi, so s = sum m_chi
    chi, and the rebuild less s is sum (f_chi - m_chi) chi.  That is zero
    iff f_chi = m_chi for every row, so exact is f = m, with no class
    summed; and where f and m differ, its value at class c is the sum over
    the differing rows alone (_first_class_off).  f and m are compared as
    integers over the least common denominator of every c and m.
    """
    p = data.p
    den = lcm(*(x.denominator for x in (*coeff.values(), *mults.values())))
    f: dict[tuple, int] = {}  # den f_chi
    for (torus_type, k), c in coeff.items():
        for label, sign in dl_terms(p, torus_type, k):
            f[label] = f.get(label, 0) + sign * c.numerator * (den // c.denominator) * orbit_weight(p, torus_type, k)
    diff = [(Fraction(x, den), irr.ids) for irr in data.irreducibles
            if (x := f.get(irr.label, 0) - mults[irr.label].numerator * (den // mults[irr.label].denominator))]
    return _first_class_off(data, diff) if diff else None


def _first_class_off(data: CharacterData, diff: list[tuple[Fraction, tuple]]) -> int:
    """The first class c where sum (f_chi - m_chi) chi(c) is not zero, over
    the (f_chi - m_chi, id row) of the rows where f and m differ.  The rows
    are a basis, so some class is; should none be, next raises."""
    values = data.values
    return next(c for c in range(len(data.table)) if not sum((values[ids[c]].scale(x) for x, ids in diff), ZERO).is_zero())


# -- the independent symbolic pipeline ----------------------------------------


def remark_pipeline(data: CharacterData) -> dict[tuple[str, int], Fraction]:
    """Re-derive the decomposition symbolically, without class functions.

    Expands the permutation formula (the split-torus sum of St (x) R - R,
    twice the trivial character written as R_split(1) + R_nonsplit(1), and
    the two subgroup sums with their torus-rank signs), replacing every
    Steinberg tensor by its tabulated expansion, then symmetrizes inversion
    orbits: an orbit's coefficient is its characters' total over its weight.
    Each St (x) R_{T1}^{theta1} is one constant per torus plus one point: -1
    at every character of the other torus, and on T1 1 at every character
    plus +-1 at theta1 (+ split, - anisotropic).  So the coefficient of
    R_T^theta_k is base[T] + point[T][k], each expansion adds to two bases
    and one point, and the whole is O(p).  Every coefficient and sign is an
    integer, so the sums stay in int and only the orbit division makes a
    Fraction.  It reads only p and embedding_pattern(p), no table; output
    keys match decompose_dl's coefficients exactly.
    """
    p = data.p
    base = dict.fromkeys(TORI, 0)
    point = {t: [0] * torus_order(p, t) for t in TORI}

    def add_tensor_expansion(t1: str, k1: int, scale: int):
        for torus_type in TORI:
            base[torus_type] += scale if torus_type == t1 else -scale
        point[t1][k1 % len(point[t1])] += scale if t1 == "split" else -scale

    # sum over split characters trivial on the center: St (x) R - R
    for k in range(0, p - 1, 2):
        add_tensor_expansion("split", k, 1)
        point["split"][k] -= 1
    # 2 * trivial = R_split(1) + R_nonsplit(1)
    point["split"][0] += 1
    point["nonsplit"][0] += 1
    # the two cyclic-subgroup sums, with the tensor-identity sign of their torus
    pattern = embedding_pattern(p)
    for s in ("x", "y"):
        torus_type = pattern[s]
        sign = -1 if torus_type == "split" else 1
        for k in range(0, torus_order(p, torus_type), _SUBGROUP_ORDERS[s]):
            add_tensor_expansion(torus_type, k, sign)

    out: dict[tuple[str, int], Fraction] = {}
    for torus_type in TORI:
        n = torus_order(p, torus_type)
        for k in _zc_orbit_reps(p, torus_type):
            total = sum(base[torus_type] + point[torus_type][j] for j in {k, -k % n})
            out[(torus_type, k)] = Fraction(total, orbit_weight(p, torus_type, k))
    return out


# -- corollaries ---------------------------------------------------------------


class OddMultiplicityReport(NamedTuple):
    p: int
    torus: str
    multiplicities: tuple[Fraction, Fraction]
    all_odd: bool
    virtual_character_real: bool
    pair_dual_closed: bool


def corollary_odd_multiplicity(data: CharacterData, result: DecompositionResult | None = None) -> OddMultiplicityReport:
    """Odd multiplicities of the order-2-character constituents at p = 23 mod 24.

    At such p the order-2 character is trivial on the center only for the
    anisotropic torus, so its two degree-(p-1)/2 constituents are the ones
    that can and do appear; both multiplicities must be odd integers.  The
    split-torus pair is checked to be absent (central character mismatch).
    """
    p = data.p
    if p % 24 != 23:
        raise ValueError("this check applies only to p = 23 mod 24")
    if result is None:
        result = decompose_dl(data)
    mult_plus = result.multiplicities[("exceptional_nonsplit_plus",)]
    mult_minus = result.multiplicities[("exceptional_nonsplit_minus",)]
    for name in ("exceptional_split_plus", "exceptional_split_minus"):
        if result.multiplicities[(name,)] != 0:
            raise VerificationError(f"{name} appears despite a non-trivial central character at p={p}")
    plus = data.irreducible("exceptional_nonsplit_plus").chi
    minus = data.irreducible("exceptional_nonsplit_minus").chi
    alpha = data.dl("nonsplit", quadratic_character_index(p + 1))
    real = all(v.conj() == v for v in alpha.values)
    dual_closed = {dual(plus), dual(minus)} == {plus, minus}
    all_odd = all(m.denominator == 1 and m.numerator % 2 == 1 for m in (mult_plus, mult_minus))
    report = OddMultiplicityReport(p, "nonsplit", (mult_plus, mult_minus), all_odd, real, dual_closed)
    if not (all_odd and real and dual_closed):
        raise VerificationError(f"odd-multiplicity mechanism fails at p={p}: {report}")
    return report


class AppearanceReport(NamedTuple):
    p: int
    missing: list[str]  # non-trivial center-trivial irreducibles with multiplicity 0
    trivial_absent: bool

    @property
    def complete(self) -> bool:
        return not self.missing and self.trivial_absent


def corollary_all_appear(data: CharacterData, result: DecompositionResult | None = None) -> AppearanceReport:
    """Which irreducibles of the center quotient appear in the cusp character.

    For p >= 23 every non-trivial one must appear and the trivial one must
    not; below 23 the missing list is informational (the bound is sharp).
    """
    p = data.p
    if result is None:
        result = decompose_dl(data)
    missing = []
    trivial_absent = False
    for irr, one, minus_one in zip(data.irreducibles, data.column(0), data.column(1)):
        if one != minus_one:
            continue  # center acts non-trivially (chi(I) != chi(-I), equal ids being equal values): not a character of the quotient
        m = result.multiplicities[irr.label]
        if m < 0:
            raise VerificationError(f"negative multiplicity {m} for {irr.name} at p={p}")
        if irr.label == ("trivial",):
            trivial_absent = m == 0
        elif m == 0:
            missing.append(irr.name)
    report = AppearanceReport(p, sorted(missing), trivial_absent)
    if p >= 23 and not report.complete:
        raise VerificationError(f"appearance criterion fails at p={p}: {report}")
    return report


# -- linearity of the coefficients in p ----------------------------------------


class LinearityReport(NamedTuple):
    fits: dict[tuple[str, str, int], tuple[Fraction, Fraction]]  # (label, torus, residue) -> (a, b)
    checked: int
    failures: list[dict]
    single: dict[tuple[str, str, int], int]  # the cells with data at one prime only -> that prime

    @property
    def ok(self) -> bool:
        return not self.failures


def linearity_fit(results: list[DecompositionResult]) -> LinearityReport:
    """Fit c = a p + b per (set, torus, residue) from the two smallest primes
    with data and demand exactness at every further prime, with 12a, 12b in Z.
    A cell with data at one prime only has no fit; it goes into single.
    A set whose coefficients differ within one prime is a failure of its cell
    at that prime; the first of its coefficients there goes into the fit."""
    cells: dict[tuple[str, str, int], list[tuple[int, Fraction]]] = {}
    failures: list[dict] = []
    for res in sorted(results, key=lambda r: r.p):
        seen: dict[tuple[str, str], Fraction] = {}
        for key, lab in res.labels.items():
            c, cell = res.coefficients[key], (lab.label, key[0])
            if seen.setdefault(cell, c) != c:
                reason = f"set {lab.label} on {key[0]} torus has non-constant coefficients at p={res.p}"
                failures.append({"cell": (*cell, res.p % 12), "p": res.p, "reason": reason})
        for (label, torus), c in seen.items():
            cells.setdefault((label, torus, res.p % 12), []).append((res.p, c))
    fits: dict[tuple[str, str, int], tuple[Fraction, Fraction]] = {}
    single = {cell: points[0][0] for cell, points in cells.items() if len(points) == 1}
    checked = 0
    for cell, points in cells.items():
        if cell in single:
            continue
        (p1, c1), (p2, c2) = points[0], points[1]
        a = (c2 - c1) / (p2 - p1)
        b = c1 - a * p1
        if 12 % a.denominator or 12 % b.denominator:
            failures.append({"cell": cell, "reason": f"fit ({a}, {b}) is not in (1/12)Z"})
            continue
        fits[cell] = (a, b)
        for q, c in points[2:]:
            checked += 1
            if a * q + b != c:
                failures.append({"cell": cell, "p": q, "expected": str(a * q + b), "computed": str(c)})
    return LinearityReport(fits, checked, failures, single)
