"""Exact arithmetic in cyclotomic fields Q(zeta_N) with canonical sparse forms.

A value is (sum_e num[e] zeta_N^e) / den: integer numerators over one
denominator, at a root-of-unity order N.  Three invariants are maintained
after every operation:

* exponents lie in a canonical residue basis of Q(zeta_N): for each prime
  power q^k | N the CRT coordinate of the exponent stays below phi(q^k), so
  the basis is the tensor product of the power bases of the prime-power
  subfields glued by CRT (q^k - phi(q^k) disallowed residues are rewritten
  with the vanishing-sum relation for zeta_q);
* N is minimal, i.e. equal to the conductor-adjusted order of the value
  (after basis reduction every exponent of a subfield value is divisible by
  the index, so dividing by the common gcd lands exactly on the subfield);
* den > 0 and gcd(den, every numerator) = 1.

Equal values therefore have identical representations: equality, hashing and
the textual serialization are structural.  No floating point anywhere.

Every operation runs on Python ints.  A sum rescales both numerator maps to
the common order and denominator; products and pairings lift the values to
a common frame (_common_frame, CycNumber._numerators) and multiply term by
term (_raw_dot); each result is reduced once into the residue basis and to
lowest terms (CycNumber._from_numerators).  The result is canonical, so
exact comparison needs no bound on its size.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .numtheory import factorize, legendre

_set = object.__setattr__


def _exact(c) -> int | Fraction:
    """c as an int or a Fraction, refusing floats (no binary rounding may
    sneak in); either has the numerator and denominator the kernel reads."""
    if isinstance(c, (int, Fraction)):
        return c
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


def _canonicalize(n: int, raw: dict[int, int]) -> tuple[int, dict[int, int]]:
    """Rewrite exponents into the residue basis, merge terms, minimize order.

    Coefficients are only added and negated, so integer ones stay integers.
    """
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    terms: dict[int, int] = {}
    if n == 1:
        c = sum(raw.values())
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


def _minimize(n: int, terms: dict[int, int]) -> tuple[int, dict[int, int]]:
    """Drop to the smallest order; assumes exponents already basis-admissible."""
    if not terms:
        return 1, {}
    g = n
    for e in terms:
        g = gcd(g, e)
        if g == 1:
            return n, terms
    return n // g, {e // g: c for e, c in terms.items()}


def _lowest(n: int, num: dict[int, int], den: int) -> tuple[int, int, dict[int, int]]:
    """(n, den, num) divided by gcd(den, every numerator); den must be > 0."""
    g = den
    for c in num.values():
        if g == 1:
            break
        g = gcd(g, c)
    return (n, den, num) if g == 1 else (n, den // g, {e: c // g for e, c in num.items()})


def _common_frame(values) -> tuple[int, int]:
    """The least common order and the least common denominator of values."""
    n = den = 1
    for v in values:
        n = lcm(n, v.order)
        den = lcm(den, v.den)
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


class CycNumber:
    """An element of Q(zeta_N), immutable, always in canonical form: the
    integer numerators num (exponent -> nonzero int) over den.  A rational
    hashes as the Fraction it equals, as equal objects must."""

    __slots__ = ("order", "den", "num", "_hash", "_terms")

    def __init__(self, order: int, terms: dict[int, Fraction | int]):
        coefs = [_exact(c) for c in terms.values()]
        den = lcm(1, *(c.denominator for c in coefs))
        raw = {e: c.numerator * (den // c.denominator) for e, c in zip(terms, coefs)}
        n, den, num = _lowest(*_canonicalize(order, raw), den)
        _set(self, "order", n)
        _set(self, "den", den)
        _set(self, "num", num)

    @classmethod
    def _raw(cls, order: int, den: int, num: dict[int, int]) -> "CycNumber":
        """Wrap already-canonical data without re-reducing."""
        x = object.__new__(cls)
        _set(x, "order", order)
        _set(x, "den", den)
        _set(x, "num", num)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("CycNumber is immutable")

    # -- predicates and accessors ------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    @property
    def terms(self) -> dict[int, Fraction]:
        """The coefficients as a map exponent -> Fraction, made on the first
        read and not to be modified."""
        try:
            return self._terms
        except AttributeError:
            _set(self, "_terms", {e: Fraction(c, self.den) for e, c in self.num.items()})
            return self._terms

    def as_rational(self) -> Fraction | None:
        """The exact rational value, or None if the value is irrational."""
        if self.order != 1:
            return None
        return Fraction(self.num.get(0, 0), self.den)

    # -- ring structure ----------------------------------------------------

    def _numerators(self, n: int, den: int, conjugate: bool = False) -> dict[int, int]:
        """den * self (or its conjugate) at order n as a raw integer exponent
        map; den must be a multiple of self.den."""
        m, f = n // self.order, den // self.den
        sign = -m if conjugate else m
        return {(e * sign) % n: c * f for e, c in self.num.items()}

    @classmethod
    def _from_numerators(cls, n: int, raw: dict[int, int], den: int) -> "CycNumber":
        """The canonical value of (sum raw[e] zeta_n^e) / den, den > 0."""
        return cls._raw(*_lowest(*_canonicalize(n, raw), den))

    def _plus(self, other, sign: int) -> "CycNumber":
        """self + sign * other.  Each is lifted to the common order, where a
        canonical form stays in the residue basis (a CRT coordinate b <
        phi(q^j) scaled by q^(k-j) stays below phi(q^k)), so the sum needs
        no rewrite, only the order and the denominator brought down."""
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n, den = lcm(self.order, other.order), lcm(self.den, other.den)
        m, f = n // self.order, den // self.den
        num = {e * m: c * f for e, c in self.num.items()}
        m, f = n // other.order, sign * (den // other.den)
        for e, c in other.num.items():
            s = num.get(e * m, 0) + c * f
            if s:
                num[e * m] = s
            else:
                del num[e * m]
        return CycNumber._raw(*_lowest(*_minimize(n, num), den))

    def __add__(self, other) -> "CycNumber":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "CycNumber":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "CycNumber":
        return -(self - other)

    def __neg__(self) -> "CycNumber":
        return CycNumber._raw(self.order, self.den, {e: -c for e, c in self.num.items()})

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
        raw = _raw_dot(n, ((1, self._numerators(n, self.den), other._numerators(n, other.den)),))
        return CycNumber._from_numerators(n, raw, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, r: Fraction | int) -> "CycNumber":
        r = _exact(r)
        if not r:
            return ZERO
        a = r.numerator
        return CycNumber._raw(*_lowest(self.order, {e: c * a for e, c in self.num.items()}, self.den * r.denominator))

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
        return CycNumber._from_numerators(n, {-e % n: c for e, c in self.num.items()}, self.den)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.num == other.num

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            if self.order == 1:  # as the int or Fraction it equals
                h = hash(self.num.get(0, 0)) if self.den == 1 else hash(Fraction(self.num[0], self.den))
            else:
                h = hash((self.order, self.den, frozenset(self.num.items())))
            _set(self, "_hash", h)
            return h

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form "N: c0 + c1*z^e1 + ..."; parses back exactly."""
        if not self.num:
            return "1: 0"
        parts, den = [], self.den
        for e in sorted(self.num):
            c = self.num[e]
            g = gcd(c, den)
            q = f"{c // g}" if g == den else f"{c // g}/{den // g}"
            parts.append(q if e == 0 else f"{q}*z^{e}")
        return f"{self.order}: " + " + ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "CycNumber":
        head, _, body = text.partition(":")
        n = int(head.strip())
        terms: dict[int, tuple[int, int]] = {}  # exponent -> (numerator, denominator)
        body = body.strip()
        if body != "0":
            for part in body.split(" + "):
                coef, star, zpow = part.partition("*z^")
                e = int(zpow) if star else 0
                if e in terms:
                    raise ValueError(f"duplicate exponent in {text!r}")
                a, slash, b = coef.partition("/")
                terms[e] = int(a), int(b) if slash else 1
                if not terms[e][1]:
                    raise ValueError(f"zero denominator in {text!r}")
        den = lcm(1, *(b for _, b in terms.values()))
        out = cls._from_numerators(n, {e: a * (den // b) for e, (a, b) in terms.items()}, den)
        if out.to_text() != f"{n}: {body}" and not (n == 1 and body == "0"):
            raise ValueError(f"non-canonical cyclotomic text {text!r}")
        return out

    def __repr__(self):
        return f"Cyc({self.to_text()!r})"


ZERO = CycNumber._raw(1, 1, {})
ONE = CycNumber._raw(1, 1, {0: 1})


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
    return CycNumber._raw(1, q.denominator, {0: q.numerator})


@lru_cache(maxsize=None)
def gauss_sum(p: int) -> CycNumber:
    """Quadratic Gauss sum sum_t (t/p) zeta_p^t; its square is (-1)^((p-1)/2) p.
    Memoized: a value is immutable, so one per p serves every caller."""
    return CycNumber(p, {t: legendre(t, p) for t in range(1, p)})
