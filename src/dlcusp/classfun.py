"""Class functions on SL2(F_p) over exact cyclotomics.

The carrier for every character and virtual character in the package: one
CycNumber per conjugacy class, with the Hermitian pairing and duality.  All
operations are pure and exact.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from .cyclotomic import CycNumber, _common_frame, _raw_dot, coerce
from .group import ConjugacyTable


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

    def __neg__(self) -> "ClassFunction":
        return ClassFunction(self.table, [-a for a in self.values])

    def __eq__(self, other) -> bool:
        return isinstance(other, ClassFunction) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    @property
    def degree(self) -> CycNumber:
        return self.values[self.table.identity_index()]


def dual(phi: ClassFunction) -> ClassFunction:
    """Value at c becomes the value at the inverse class of c."""
    classes = phi.table.classes
    return ClassFunction(phi.table, [phi.values[r.inverse_class] for r in classes])


def inner_product(phi: ClassFunction, psi: ClassFunction) -> CycNumber:
    """Hermitian pairing (1/|G|) sum |c| phi(c) conj(psi(c)), in one integer
    frame (_frame_dot)."""
    phi._check(psi)
    sizes = (rec.size for rec in phi.table.classes)
    return _frame_dot(zip(sizes, phi.values, psi.values), phi.table.group_order)


def _frame_dot(triples, scale: int) -> CycNumber:
    """sum w a conj(b) / scale over the (integer w, a, b) triples, in one
    integer frame: every a and b written as numerators over their common
    order and denominator, the products summed term by term and reduced
    once to the canonical value.  A zero value adds order 1 and
    denominator 1 to the frame and no term to the sum."""
    triples = list(triples)
    n, den = _common_frame(v for _, a, b in triples for v in (a, b))
    raw = _raw_dot(n, ((w, a._numerators(n, den), b._numerators(n, den, conjugate=True)) for w, a, b in triples))
    return CycNumber._from_numerators(n, raw, den * den * scale)


def closed_pairings(closed, table: ConjugacyTable, phi: Sequence[CycNumber], rows: Sequence[Sequence[int]]) -> list[CycNumber]:
    """The pairings (1/|G|) sum |c| phi(c) conj(psi(c)) of the class function
    with values phi with each psi in rows (one id per class into the values
    closed describes, chartable.ClosedCoordinates), each by closed_sum over
    the classes where neither is zero."""
    support = [c for c, v in enumerate(phi) if v.num]
    left = [(table.classes[c].size, phi[c], closed.coordinate(phi[c])) for c in support]
    out, cell = [], closed.cells.__getitem__
    for row in rows:
        ids = list(map(row.__getitem__, support))  # id 0 is zero
        out.append(closed_sum(closed, compress(left, ids), map(cell, filter(None, ids)), table.group_order))
    return out


def closed_sum(closed, left: Iterable, right: Iterable, scale: int) -> CycNumber:
    """sum w a conj(b) / scale over the left cells (w, a, x) and right cells
    (b, y) taken in turn, integer w and values a and b with the closed
    coordinates x and y (closed.coordinate, None for none), as a canonical
    value.

    Per product, with eps = (-1/p), so that conj(tau) = eps tau and tau^2 =
    eps p:
    - (r + s tau) conj(r' + s' tau) = r r' + p s s' + (eps r s' + s r') tau,
      a rational being r + 0 tau;
    - a rational times c_e is a multiple of c_e, and c_a c_b = c_(a+b) +
      c_(a-b) (c_b is real), summed per torus into a histogram H_T(e);
    - any other product (a value without coordinates, tau times c_e, c_e
      of two tori) is left to one integer frame (_frame_dot).
    The sum is closed.value(R, S, H) plus that frame's value.
    """
    p, eps = closed.p, closed.eps
    rat = tau = 0
    hist: dict[int, dict[int, int]] = defaultdict(dict)  # per torus order n, H_T(e) by e in [0, n/2]
    rest = []
    for (w, a, x), (b, y) in zip(left, right):
        if x is None or y is None:
            rest.append((w, a, b))
            continue
        r, s, n, e = x
        r2, s2, n2, e2 = y
        if not (n or s) and n2:  # a rational times c_e
            h = hist[n2]
            h[e2] = h.get(e2, 0) + w * r * r2
        elif not (n or n2):
            rat += w * (r * r2 + p * s * s2)
            tau += w * (eps * r * s2 + s * r2)
        elif n == n2:  # c_e c_e2 = c_(e+e2) + c_|e-e2|, each e folded into [0, n/2] as c_e = c_(n-e)
            h, m = hist[n], w * r * r2
            for k in (min(e + e2, n - e - e2), abs(e - e2)):
                h[k] = h.get(k, 0) + m
        elif n2 or s2:  # tau times c_e either way round, or c_e of two tori
            rest.append((w, a, b))
        else:  # c_e times a rational
            h = hist[n]
            h[e] = h.get(e, 0) + w * r * r2
    value = closed.value(rat, tau, hist, closed.den * closed.den * scale)
    return value + _frame_dot(rest, scale) if rest else value
