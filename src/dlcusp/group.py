"""Exact arithmetic in SL2(F_p): elements, conjugacy classes, subgroups, tori.

Class data is built from closed forms (p + 4 classes for p >= 7), never by
orbit enumeration; identification of an arbitrary element is O(1) via trace,
discriminant, and a rank-one residue invariant for the unipotent-type
classes.  Everything is immutable after construction, apart from each
table's memo of the class of a trace.
"""

from __future__ import annotations

from typing import NamedTuple

from .numtheory import factorize, is_prime, legendre, smallest_nonsquare, sqrt_mod


class GroupElement:
    """A 2x2 matrix over Z/p with determinant 1, entries normalized to [0, p).

    Equal and hashed as the tuple (p, a, b, c, d), though never equal to it.
    """

    __slots__ = ("p", "a", "b", "c", "d")

    def __init__(self, p: int, a: int, b: int, c: int, d: int):
        self.p, self.a, self.b, self.c, self.d = p, a % p, b % p, c % p, d % p
        if (self.a * self.d - self.b * self.c) % p != 1:
            raise ValueError(f"determinant is not 1 mod {p}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.a, self.b, self.c, self.d) == (other.p, other.a, other.b, other.c, other.d)

    def __hash__(self) -> int:
        return hash((self.p, self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return f"GroupElement(p={self.p}, a={self.a}, b={self.b}, c={self.c}, d={self.d})"

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        p = self.p
        return GroupElement(
            p,
            (self.a * other.a + self.b * other.c) % p,
            (self.a * other.b + self.b * other.d) % p,
            (self.c * other.a + self.d * other.c) % p,
            (self.c * other.b + self.d * other.d) % p,
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.p, self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.p, -self.a, -self.b, -self.c, -self.d)

    def __pow__(self, k: int) -> "GroupElement":
        if k < 0:
            return self.inverse() ** (-k)
        acc, base = identity(self.p), self
        while k:
            if k & 1:
                acc = acc * base
            base, k = base * base, k >> 1
        return acc

    @property
    def trace(self) -> int:
        return (self.a + self.d) % self.p

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def identity(p: int) -> GroupElement:
    return GroupElement(p, 1, 0, 0, 1)


class ClassRecord(NamedTuple):
    """One conjugacy class: representative, size, centralizer, invariants."""

    rep: GroupElement
    size: int
    centralizer_order: int
    trace: int
    kind: str  # central | unipotent | split_semisimple | nonsplit_semisimple
    inverse_class: int
    key: tuple


class ConjugacyTable:
    """The p + 4 conjugacy classes of SL2(F_p), with O(1) identification."""

    def __init__(self, p: int):
        if not is_prime(p) or p < 7:
            raise ValueError("p must be a prime >= 7")
        self.p = p
        self.group_order = p * (p * p - 1)
        self.epsilon = smallest_nonsquare(p)
        self.classes: tuple[ClassRecord, ...] = tuple(self._build())
        self._index = {(r.kind, r.key): i for i, r in enumerate(self.classes)}
        self._by_trace: dict[int, int] = {}  # class_of's memo for traces other than +-2
        assert len(self.classes) == p + 4
        assert sum(r.size for r in self.classes) == self.group_order
        for r in self.classes:
            assert r.size * r.centralizer_order == self.group_order

    def _build(self):
        p, eps = self.p, self.epsilon
        order = self.group_order
        half = (p * p - 1) // 2
        records = []

        def central(sign):
            g = identity(p) if sign == 1 else -identity(p)
            return ClassRecord(g, 1, order, g.trace, "central", len(records), (sign,))

        records.append(central(1))
        records.append(central(-1))
        # unipotent-type classes z*u_c, u_c = [[1, c], [0, 1]], c in {1, eps}.  Every other
        # class is its own inverse (g^-1 has the trace of g); u_c^-1 = u_(-c), so the inverse
        # of the class with residue (c/p) is the one with (c/p)(-1/p)
        flip = legendre(-1, p)
        for sign in (1, -1):
            first = len(records)  # the (sign, 1) class; the (sign, -1) class follows it
            for c in (1, eps):
                u = GroupElement(p, 1, c, 0, 1)
                g = u if sign == 1 else -u
                res = legendre(c, p)
                records.append(ClassRecord(g, half, 2 * p, g.trace, "unipotent", first + (res * flip == -1), (sign, res)))
        # split semisimple d(a), keyed by min(a, a^-1)
        seen = set()
        for a in range(2, p - 1):
            k = min(a, pow(a, -1, p))
            if k in seen:
                continue
            seen.add(k)
            g = GroupElement(p, k, 0, 0, pow(k, -1, p))
            records.append(ClassRecord(g, p * (p + 1), p - 1, g.trace, "split_semisimple", len(records), (k,)))
        # nonsplit semisimple, keyed by trace t with t^2 - 4 a nonsquare
        inv2 = pow(2, -1, p)
        for t in range(p):
            if legendre(t * t - 4, p) != -1:
                continue
            a = t * inv2 % p
            b = sqrt_mod((a * a - 1) * pow(eps, -1, p) % p, p)
            assert b is not None
            g = GroupElement(p, a, b * eps, b, a)
            assert g.trace == t
            records.append(ClassRecord(g, p * (p - 1), p + 1, t, "nonsplit_semisimple", len(records), (t,)))
        return records

    def __len__(self) -> int:
        return len(self.classes)

    def identity_index(self) -> int:
        return 0

    def class_of(self, g: GroupElement) -> int:
        """Index of the class containing g (conjugation-invariant).

        Past the central and trace +-2 tests the answer reads only the trace
        t: the discriminant, its Legendre symbol and its square root are
        functions of t.  So a {t: index} memo returns exactly what the
        computation would; the central elements (trace +-2) never reach it,
        and the two unipotent-type classes of each trace +-2 are told apart
        by more than t, so those traces are never memoized.
        """
        p = self.p
        if g.p != p:
            raise ValueError("modulus mismatch")
        if g.b == 0 and g.c == 0 and g.a == g.d:
            return self._index[("central", (1 if g.a == 1 else -1,))]
        t = g.trace
        if t == 2:
            return self._index[("unipotent", (1, _unipotent_residue(g)))]
        if t == p - 2:
            return self._index[("unipotent", (-1, _unipotent_residue(-g)))]
        i = self._by_trace.get(t)
        if i is None:
            disc = (t * t - 4) % p
            if legendre(disc, p) == 1:
                r = sqrt_mod(disc, p)
                a = (t + r) * pow(2, -1, p) % p
                i = self._index[("split_semisimple", (min(a, pow(a, -1, p)),))]
            else:
                i = self._index[("nonsplit_semisimple", (t,))]
            self._by_trace[t] = i
        return i


def _unipotent_residue(g: GroupElement) -> int:
    """Residue invariant separating the two classes with trace 2, g != I.

    N = g - I has rank one; for any v with Nv != 0 the Legendre symbol of
    det([Nv | v]) does not depend on v and is constant on the class
    (conjugating by h multiplies the determinant by det h = 1).  It is +1 on
    the class of [[1,1],[0,1]].
    """
    p = g.p
    n00, n01, n10, n11 = (g.a - 1) % p, g.b, g.c, (g.d - 1) % p
    if n00 or n10:
        nv, v = (n00, n10), (1, 0)
    else:
        nv, v = (n01, n11), (0, 1)
    det = (nv[0] * v[1] - nv[1] * v[0]) % p
    return legendre(det, p)


def build_conjugacy_table(p: int) -> ConjugacyTable:
    return ConjugacyTable(p)


class SubgroupData(NamedTuple):
    """A distinguished subgroup with its fusion into the ambient classes."""

    name: str
    p: int
    elements: tuple[GroupElement, ...]
    order: int
    fusion: tuple[int, ...]  # element position -> ambient class index


def _closure(gens: list[GroupElement]) -> list[GroupElement]:
    p = gens[0].p
    seen = {identity(p)}
    frontier = [identity(p)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen, key=GroupElement.entries)


def build_subgroup(table: ConjugacyTable, name: str) -> SubgroupData:
    """One of the four distinguished subgroups of the permutation formula
    (Z, Gx_tilde, Gy_tilde, Gz_tilde), elements sorted and fused."""
    p = table.p
    if name == "Z":
        elements = [identity(p), -identity(p)]
        expected = 2
    elif name == "Gx_tilde":
        elements = _closure([GroupElement(p, 0, 1, -1, 0)])
        expected = 4
    elif name == "Gy_tilde":
        elements = _closure([GroupElement(p, 0, 1, -1, -1), -identity(p)])
        expected = 6
    elif name == "Gz_tilde":
        elements = _closure([GroupElement(p, 1, 1, 0, 1), -identity(p)])
        expected = 2 * p
    else:
        raise ValueError(f"unknown subgroup {name!r}")
    assert len(elements) == expected
    fusion = tuple(table.class_of(g) for g in elements)
    return SubgroupData(name, p, tuple(elements), expected, fusion)


class TorusData(NamedTuple):
    """A maximal torus of SL2(F_p): cyclic, with fixed generator and dlogs."""

    torus_type: str  # split | nonsplit
    p: int
    elements: tuple[GroupElement, ...]
    order: int
    generator: GroupElement
    dlog: dict  # GroupElement -> exponent of the generator
    epsilon: int | None


def torus_order(p: int, torus_type: str) -> int:
    """|T|: p - 1 for the split torus, p + 1 for the anisotropic one."""
    return p - 1 if torus_type == "split" else p + 1


def build_torus(table: ConjugacyTable, torus_type: str) -> TorusData:
    """The torus with its least generator by entries and the dlog of each element.

    The nonsplit torus is {[[a, b eps], [b, a]] : a^2 - eps b^2 = 1}: for
    each a, b is either square root of (a^2 - 1)/eps, where it has one.
    g generates the cyclic group of order n iff g^(n/q) != I for every prime
    q | n: the order of g divides n, and a proper divisor of n divides n/q
    for some such q.  Elements are sorted, so the first one found is the
    least generator, the same one a search by element order finds.
    """
    p = table.p
    if torus_type == "split":
        elements = [GroupElement(p, a, 0, 0, pow(a, -1, p)) for a in range(1, p)]
        eps = None
    elif torus_type == "nonsplit":
        eps = table.epsilon
        inv_eps, elements = pow(eps, -1, p), []
        for a in range(p):
            b = sqrt_mod((a * a - 1) * inv_eps, p)
            if b is not None:
                elements += [GroupElement(p, a, x * eps, x, a) for x in {b, -b % p}]
    else:
        raise ValueError(f"unknown torus type {torus_type!r}")
    order = torus_order(p, torus_type)
    assert len(elements) == order
    elements.sort(key=GroupElement.entries)
    one, cofactors = identity(p), [order // q for q in factorize(order)]
    generator = next(g for g in elements if all(g**c != one for c in cofactors))
    dlog, x = {}, identity(p)
    for k in range(order):
        dlog[x] = k
        x = x * generator
    assert len(dlog) == order
    return TorusData(torus_type, p, tuple(elements), order, generator, dlog, eps)

