"""Class functions on SL2(F_p) over exact cyclotomics.

The carrier for every character and virtual character in the package: one
CycNumber per conjugacy class, with the Hermitian pairing, pointwise tensor
product, duality, induction from a subgroup through its fusion data, and
restriction.  All operations are pure and exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cyclotomic import ZERO, CycNumber, _common_frame, _raw_dot, coerce
from .group import ConjugacyTable, SubgroupData


class ClassFunction:
    """A function on the conjugacy classes of one ConjugacyTable."""

    __slots__ = ("table", "values")

    def __init__(self, table: ConjugacyTable, values: Sequence[CycNumber | int | Fraction]):
        if len(values) != len(table):
            raise ValueError("value count must equal the class count")
        coerced = [coerce(v) for v in values]
        if any(v is NotImplemented for v in coerced):  # `in` would call __eq__ on every value
            raise TypeError("values must be CycNumber, int, or Fraction")
        self.table = table
        self.values = tuple(coerced)

    @classmethod
    def _raw(cls, table: ConjugacyTable, values: tuple[CycNumber, ...]) -> "ClassFunction":
        """Wrap one CycNumber per class without coercing them."""
        x = object.__new__(cls)
        x.table, x.values = table, values
        return x

    def _check(self, other: "ClassFunction"):
        if self.table is not other.table and self.table.p != other.table.p:
            raise ValueError("class functions live on different tables")

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(self.table, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(self.table, [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self) -> "ClassFunction":
        return ClassFunction(self.table, [-a for a in self.values])

    def scale(self, r: Fraction | int) -> "ClassFunction":
        return ClassFunction(self.table, [a.scale(r) for a in self.values])

    def __eq__(self, other) -> bool:
        return isinstance(other, ClassFunction) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    @property
    def degree(self) -> CycNumber:
        return self.values[self.table.identity_index()]

    def __repr__(self):
        return f"ClassFunction(p={self.table.p}, deg={self.degree.to_text()})"


def trivial_character(table: ConjugacyTable) -> ClassFunction:
    return ClassFunction(table, [1] * len(table))


def tensor(phi: ClassFunction, psi: ClassFunction) -> ClassFunction:
    """Pointwise product (character of the tensor product)."""
    phi._check(psi)
    return ClassFunction(phi.table, [a * b for a, b in zip(phi.values, psi.values)])


def dual(phi: ClassFunction) -> ClassFunction:
    """Value at c becomes the value at the inverse class of c."""
    classes = phi.table.classes
    return ClassFunction(phi.table, [phi.values[r.inverse_class] for r in classes])


def inner_product(phi: ClassFunction, psi: ClassFunction) -> CycNumber:
    """Hermitian pairing (1/|G|) sum |c| phi(c) conj(psi(c)), computed by
    inner_products with psi as one row whose cells are their own ids."""
    phi._check(psi)
    return inner_products(phi, psi.values, (range(len(psi.values)),))[0]


def inner_products(phi: ClassFunction, values: Sequence[CycNumber], rows: Sequence[Sequence[int]]) -> list[CycNumber]:
    """The Hermitian pairings (1/|G|) sum |c| phi(c) conj(psi(c)) of phi with
    each psi in rows, a row being one id into values per class, in one
    integer frame.

    The rows of a table index few distinct values, so the common order and
    denominator are taken once over phi's support and the values the rows
    hold there, phi's numerators are written once per class, and each such
    value's conjugate numerators once per id.  Each row is then one integer
    sum, reduced once to its canonical value.  A zero cell adds order 1 and
    denominator 1 to the frame and no term to a sum.
    """
    support = [(i, rec.size) for i, (rec, a) in enumerate(zip(phi.table.classes, phi.values)) if not a.is_zero()]
    used = {row[i] for row in rows for i, _ in support}
    n, den = _common_frame([phi.values[i] for i, _ in support] + [values[j] for j in used])
    left = [(i, w, phi.values[i]._numerators(n, den)) for i, w in support]
    conj = {j: values[j]._numerators(n, den, conjugate=True) for j in used}
    scale = den * den * phi.table.group_order
    return [
        CycNumber._from_numerators(n, _raw_dot(n, ((w, a, conj[row[i]]) for i, w, a in left)), scale) for row in rows
    ]


def closed_pairings(closed, table: ConjugacyTable, left: Sequence, rows: Sequence[Sequence[int]]) -> list:
    """The pairings (1/|G|) sum |c| phi(c) conj(psi(c)) of the phi whose
    values have the closed coordinates left (one per class, over closed.den)
    with each psi in rows (one id per class into the values closed.coords
    describes), summed in those coordinates (chartable.ClosedCoordinates),
    or None for each psi where they do not show the pairing rational.

    Per cell, with eps = (-1/p), so that conj(tau) = eps tau and tau^2 = eps p:
    - (r + s tau) conj(r' + s' tau) = r r' + p s s' + (eps r s' + s r') tau,
      a rational being r + 0 tau;
    - a rational times c_e is a multiple of c_e, and c_a c_b = c_(a+b) +
      c_(a-b) (c_b is real), summed per torus into a histogram H_T(e);
    - any other product (a cell without coordinates, tau times c_e, c_e of
      two tori) makes the pair None.
    The pairing is then R + S tau + sum_T sum_e H_T(e) c_e.  The three parts
    lie in Q(zeta_p), Q(zeta_(p-1)) and Q(zeta_(p+1)), and Q(zeta_a) meets
    Q(zeta_b) in Q(zeta_gcd(a, b)): gcd(p - 1, p(p + 1)) = gcd(p + 1,
    p(p - 1)) = 2 and gcd(p, p^2 - 1) = 1, and Q(zeta_2) = Q.  So the pairing
    is rational iff S = 0 (tau is irrational) and each torus sum is
    rational (closed.cos_sum); it is then R plus those rationals.  This is
    the disjointness argument: if R + S tau + h_split + h_nonsplit = q is
    rational, then h_split = q - R - S tau - h_nonsplit lies in
    Q(zeta_(p-1)) and in Q(zeta_(p(p+1))), so in Q; likewise h_nonsplit;
    then S tau is rational, and tau is not (tau^2 = +-p), so S = 0.
    """
    cells = [(c, rec.size, x) for c, (rec, x) in enumerate(zip(table.classes, left)) if x != (0, 0, 0, 0)]
    if any(x is None for _, _, x in cells):
        return [None] * len(rows)
    scale = closed.den * closed.den * table.group_order
    return [_closed_pairing(closed, cells, row, scale) for row in rows]


def _closed_pairing(closed, cells: list, row: Sequence[int], scale: int) -> Fraction | None:
    """One pairing of closed_pairings: phi's non-zero cells with one row."""
    coords, p, eps = closed.coords, closed.p, closed.eps
    rat = tau = 0
    hist: dict[int, dict[int, int]] = {}  # per torus order n, H_T(e) by e in [0, n/2]
    for c, w, (r, s, n, e) in cells:
        y = row[c]
        if not y:
            continue
        y = coords[y]
        if y is None:
            return None
        r2, s2, n2, e2 = y
        if not (n or n2):
            rat += w * (r * r2 + p * s * s2)
            tau += w * (eps * r * s2 + s * r2)
        elif s or s2 or (n and n2 and n != n2):
            return None
        else:  # c_e c_e2 = c_(e+e2) + c_|e-e2|, each e folded into [0, n/2] as c_e = c_(n-e)
            m, n = w * r * r2, n or n2
            h = hist.setdefault(n, {})
            for k in (min(e + e2, n - e - e2), abs(e - e2)) if e and e2 else (e + e2,):
                h[k] = h.get(k, 0) + m
    if tau:
        return None
    for n, h in hist.items():
        q = closed.cos_sum(n, h)
        if q is None:
            return None
        rat += q
    return Fraction(rat, scale)


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


def restrict(phi: ClassFunction, sub: SubgroupData) -> list[CycNumber]:
    """Values of phi on the subgroup elements, through the fusion map."""
    return [phi.values[i] for i in sub.fusion]
