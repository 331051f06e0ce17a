"""Exact arithmetic in cyclotomic fields Q(zeta_N) with canonical sparse forms.

A value is a finite map exponent -> rational coefficient at a root-of-unity
order N.  Two invariants are maintained after every operation:

* exponents lie in a canonical residue basis of Q(zeta_N): for each prime
  power q^k | N the CRT coordinate of the exponent stays below phi(q^k), so
  the basis is the tensor product of the power bases of the prime-power
  subfields glued by CRT (q^k - phi(q^k) disallowed residues are rewritten
  with the vanishing-sum relation for zeta_q);
* N is minimal, i.e. equal to the conductor-adjusted order of the value
  (after basis reduction every exponent of a subfield value is divisible by
  the index, so dividing by the common gcd lands exactly on the subfield).

Equal values therefore have identical representations: equality, hashing and
the textual serialization are structural.  No floating point anywhere.

Products and pairings share one integer kernel: the values are lifted to a
common order and denominator as integer numerator maps (_common_frame,
CycNumber._numerators), multiplied term by term (_raw_dot), and each sum is
reduced once into the residue basis (CycNumber._from_numerators).  The
result is canonical, so exact comparison needs no bound on its size.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .numtheory import factorize, legendre

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _exact(c) -> Fraction:
    """Coerce to Fraction, refusing floats (no binary rounding may sneak in)."""
    if isinstance(c, float):
        raise TypeError("floating-point coefficients are not allowed in exact arithmetic")
    return Fraction(c)


class _Field:
    """Per-order reduction data: one row per prime power q^k dividing N.

    Row layout: (phi(q^k), q^k, inverse of N/q^k mod q^k, N/q, q).  An
    exponent e is basis-admissible at q iff (e * inv) % q^k < phi(q^k);
    otherwise zeta^e = -sum_{i=1}^{q-1} zeta^(e + i*N/q) rewrites it.
    """

    __slots__ = ("order", "rows")

    def __init__(self, n: int):
        self.order = n
        rows = []
        for q, k in sorted(factorize(n).items()):
            qk = q**k
            rows.append((qk - qk // q, qk, pow(n // qk, -1, qk), n // q, q))
        self.rows = tuple(rows)


@lru_cache(maxsize=None)
def _field(n: int) -> _Field:
    return _Field(n)


def _canonicalize(n: int, raw: dict[int, Fraction | int]) -> tuple[int, dict[int, Fraction | int]]:
    """Rewrite exponents into the residue basis, merge terms, minimize order.

    Coefficients are only added and negated, so integer ones stay integers.
    """
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    terms: dict[int, Fraction] = {}
    if n == 1:
        c = sum(raw.values(), _ZERO)
        return (1, {0: c} if c else {})
    rows = _field(n).rows
    stack = [(e % n, c) for e, c in raw.items() if c]
    while stack:
        e, c = stack.pop()
        for phi_qk, qk, inv, stride, q in rows:
            if (e * inv) % qk >= phi_qk:
                c = -c
                stack.extend(((e + i * stride) % n, c) for i in range(1, q))
                break
        else:
            prev = terms.get(e)
            if prev is None:
                terms[e] = c
            else:
                s = prev + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
    return _minimize(n, terms)


def _minimize(n: int, terms: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    """Drop to the smallest order; assumes exponents already basis-admissible."""
    if not terms:
        return 1, {}
    g = n
    for e in terms:
        g = gcd(g, e)
        if g == 1:
            return n, terms
    return n // g, {e // g: c for e, c in terms.items()}


def _denominator(terms: dict[int, Fraction]) -> int:
    """The least common denominator of a term map's coefficients."""
    # a loop rather than lcm(*...): the star-argument tuples of one or two
    # items, one per product, would pile up in the interpreter's tuple free list
    den = 1
    for c in terms.values():
        if den % c.denominator:
            den = lcm(den, c.denominator)
    return den


def _common_frame(values) -> tuple[int, int]:
    """The least common order and the least common denominator of values."""
    n = den = 1
    for v in values:
        n = lcm(n, v.order)
        den = lcm(den, _denominator(v.terms))
    return n, den


def _raw_dot(n: int, triples) -> dict[int, int]:
    """sum of w * a * b over (w, a, b) triples of raw integer exponent maps at
    order n; the result is raw too (not reduced into the residue basis)."""
    acc: dict[int, int] = {}
    get = acc.get
    for w, a, b in triples:
        for e1, c1 in a.items():
            wc = w * c1
            for e2, c2 in b.items():
                e = e1 + e2
                if e >= n:
                    e -= n
                acc[e] = get(e, 0) + wc * c2
    return acc


def _merge(n: int, a: dict[int, Fraction], b: dict[int, Fraction], sign: int) -> tuple[int, dict[int, Fraction]]:
    """Sum of two basis-admissible term maps at the same order (no rewrite needed)."""
    terms = dict(a)
    for e, c in b.items():
        prev = terms.get(e)
        if prev is None:
            terms[e] = sign * c
        else:
            s = prev + sign * c
            if s:
                terms[e] = s
            else:
                del terms[e]
    return _minimize(n, terms)


class CycNumber:
    """An element of Q(zeta_N), immutable, always in canonical form."""

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: dict[int, Fraction | int]):
        n, t = _canonicalize(order, {e: _exact(c) for e, c in terms.items()})
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "terms", t)

    @classmethod
    def _raw(cls, order: int, terms: dict[int, Fraction]) -> "CycNumber":
        """Wrap already-canonical data without re-reducing."""
        x = object.__new__(cls)
        object.__setattr__(x, "order", order)
        object.__setattr__(x, "terms", terms)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("CycNumber is immutable")

    # -- predicates and accessors ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def as_rational(self) -> Fraction | None:
        """The exact rational value, or None if the value is irrational."""
        if self.order != 1:
            return None
        return self.terms.get(0, _ZERO)

    # -- ring structure ----------------------------------------------------

    def _lift(self, n: int) -> dict[int, Fraction]:
        if n == self.order:
            return self.terms
        m = n // self.order
        return {e * m: c for e, c in self.terms.items()}

    def _numerators(self, n: int, den: int, conjugate: bool = False) -> dict[int, int]:
        """den * self (or its conjugate) at order n as a raw integer exponent
        map; den must be a multiple of every coefficient's denominator."""
        m = n // self.order
        sign = -m if conjugate else m
        return {(e * sign) % n: c.numerator * (den // c.denominator) for e, c in self.terms.items()}

    @classmethod
    def _from_numerators(cls, n: int, raw: dict[int, int], den: int) -> "CycNumber":
        """The canonical value of (sum raw[e] zeta_n^e) / den.

        The reduction only adds and negates coefficients, so it runs on the
        integers and each surviving term becomes one Fraction at the end.
        """
        n, terms = _canonicalize(n, raw)
        return cls._raw(n, {e: Fraction(c, den) for e, c in terms.items()})

    def __add__(self, other) -> "CycNumber":
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = lcm(self.order, other.order)
        return CycNumber._raw(*_merge(n, self._lift(n), other._lift(n), 1))

    __radd__ = __add__

    def __sub__(self, other) -> "CycNumber":
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = lcm(self.order, other.order)
        return CycNumber._raw(*_merge(n, self._lift(n), other._lift(n), -1))

    def __rsub__(self, other) -> "CycNumber":
        return -(self - other)

    def __neg__(self) -> "CycNumber":
        return CycNumber._raw(self.order, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "CycNumber":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, CycNumber):
            return NotImplemented
        if other.order == 1:
            return self.scale(other.as_rational())
        if self.order == 1:
            return other.scale(self.as_rational())
        n = lcm(self.order, other.order)
        da, db = _denominator(self.terms), _denominator(other.terms)
        raw = _raw_dot(n, ((1, self._numerators(n, da), other._numerators(n, db)),))
        return CycNumber._from_numerators(n, raw, da * db)

    __rmul__ = __mul__

    def scale(self, r: Fraction | int) -> "CycNumber":
        r = _exact(r)
        if not r:
            return ZERO
        return CycNumber._raw(self.order, {e: c * r for e, c in self.terms.items()})

    def __truediv__(self, r) -> "CycNumber":
        if isinstance(r, (int, Fraction)):
            return self.scale(Fraction(1, 1) / Fraction(r))
        return NotImplemented

    def __pow__(self, k: int) -> "CycNumber":
        if k < 0:
            raise ValueError("negative powers not supported")
        acc, base = ONE, self
        while k:
            if k & 1:
                acc = acc * base
            base, k = base * base, k >> 1
        return acc

    def conj(self) -> "CycNumber":
        """Complex conjugation: zeta^e -> zeta^(N-e), extended linearly."""
        n = self.order
        return CycNumber._raw(*_canonicalize(n, {-e % n: c for e, c in self.terms.items()}))

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __hash__(self):
        return hash((self.order, frozenset(self.terms.items())))

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form "N: c0 + c1*z^e1 + ..."; parses back exactly."""
        if not self.terms:
            return "1: 0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            parts.append(str(c) if e == 0 else f"{c}*z^{e}")
        return f"{self.order}: " + " + ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "CycNumber":
        head, _, body = text.partition(":")
        n = int(head.strip())
        terms: dict[int, Fraction] = {}
        body = body.strip()
        if body != "0":
            for part in body.split(" + "):
                coef, star, zpow = part.partition("*z^")
                e = int(zpow) if star else 0
                if e in terms:
                    raise ValueError(f"duplicate exponent in {text!r}")
                try:
                    terms[e] = Fraction(coef.strip())
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {text!r}") from None
        out = cls(n, terms)
        if out.to_text() != f"{n}: {body}" and not (n == 1 and body == "0"):
            raise ValueError(f"non-canonical cyclotomic text {text!r}")
        return out

    def __repr__(self):
        return f"Cyc({self.to_text()!r})"


ZERO = CycNumber._raw(1, {})
ONE = CycNumber._raw(1, {0: _ONE})


def coerce(x) -> "CycNumber":
    if isinstance(x, CycNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return embed_rational(x)
    return NotImplemented


def embed_rational(q: Fraction | int) -> CycNumber:
    q = _exact(q)
    if not q:
        return ZERO
    return CycNumber._raw(1, {0: q})


def gauss_sum(p: int) -> CycNumber:
    """Quadratic Gauss sum sum_t (t/p) zeta_p^t; its square is (-1)^((p-1)/2) p."""
    return CycNumber(p, {t: Fraction(legendre(t, p)) for t in range(1, p)})
