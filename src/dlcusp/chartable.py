"""The complete character theory of SL2(F_p) in exact arithmetic.

Builds, for one prime, the p + 4 irreducible characters (trivial, Steinberg,
principal series, discrete series, and the four Gauss-sum exceptional
constituents) from the closed forms of the Deligne-Lusztig virtual
characters of both maximal tori.  The split virtual characters are computed
twice, by induction from the Borel subgroup and by the closed form, and the
two must agree exactly; that is the one thing the build proves.  The
exceptional constituents are the halves (R +- delta)/2 of R(alpha), with
delta the Gauss-sum correction, rather than a transcribed table.  A build
keeps each row as its torus patterns and six other cells, and writes its
cells out from them.  validate_table, which every command runs on every
table, built or cached, pins every row to its family's closed values and
then checks orthonormality: a table that passes is the closed-form table.
On a built table it reads the patterns and six cells, not the cells
written out from them (validate_table, "What the audit reads").
Whether that is the character table is not yet checked independently
(orthonormality alone pins no table).  The irreducible table is all that
is kept: every Deligne-Lusztig character is derived from it on demand.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter, mul

from .classfun import ClassFunction, inner_product
from .cyclotomic import ONE, ZERO, CycNumber, coerce, gauss_sum
from .group import (
    ConjugacyTable,
    GroupElement,
    TorusData,
    build_conjugacy_table,
    build_subgroup,
    build_torus,
    torus_order,
)
from .numtheory import legendre

SCHEMA = "dlcusp-chartable/1"  # the full table with DL rows, as chartable --format json prints it
CACHE_SCHEMA = "dlcusp-chartable/3"  # the interned irreducible table a cache file stores


class TableValidationError(Exception):
    """A character-table consistency check failed; carries the offender."""


def quadratic_character_index(torus_order: int) -> int:
    """k of the unique order-2 character (the quadratic residue symbol)."""
    return torus_order // 2


class Irreducible:
    """A labelled irreducible character; label is a stable report key.  On
    a table, ids is its row of ids into the table's values, chi their view,
    and six its ids at +-I and the four unipotent classes into the values
    CharacterData.closed describes.  A built row also holds its patterns
    (2a, k), split and nonsplit (validate_table); a cached row has patterns
    None.  Equal and hashed by (label, chi, degree): ids is not compared."""

    __slots__ = ("label", "chi", "degree", "ids", "patterns", "six")

    def __init__(self, label: tuple, chi: ClassFunction, degree: int, ids: tuple = (), patterns=None, six=()):
        self.label, self.chi, self.degree, self.ids, self.patterns, self.six = label, chi, degree, ids, patterns, six

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.label, self.chi, self.degree) == (other.label, other.chi, other.degree)

    def __hash__(self) -> int:
        return hash((self.label, self.chi, self.degree))

    def __repr__(self) -> str:
        return f"Irreducible(label={self.label!r}, chi={self.chi!r}, degree={self.degree!r}, ids={self.ids!r})"

    @property
    def name(self) -> str:
        return self.label[0] if len(self.label) == 1 else f"{self.label[0]}({self.label[1]})"


class CharacterData:
    """Everything character-theoretic attached to one prime p >= 7.

    values lists each distinct value of the irreducible table once, ZERO
    first, and each irreducible carries its row of ids into it, so equal
    ids are equal values.  A build also keeps per row its patterns and six
    ids into six_values, which the audit reads in place of the cells, and
    writes the cells out from them (_write_out); a cache load has the cells
    only, and six_values None.  Rows enter a table only through
    _set_patterns (a build) or _set (a cache load).
    """

    def __init__(self, p: int, _cached: dict | None = None):
        self.p = p
        self.table = build_conjugacy_table(p)
        self.subgroups = {name: build_subgroup(self.table, name) for name in ("Z", "Gx_tilde", "Gy_tilde", "Gz_tilde")}
        self.split_torus = build_torus(self.table, "split")
        self.nonsplit_torus = build_torus(self.table, "nonsplit")
        self.six_classes = [c for c, rec in enumerate(self.table.classes) if rec.kind in ("central", "unipotent")]
        if _cached is None:
            self._build_characters()
        else:
            self._load_characters(_cached)

    @property
    def irreducibles(self) -> tuple[Irreducible, ...]:
        return self._irreducibles

    def _set(self, values: "_Values", entries: list[tuple[tuple, tuple, int]]):
        """The cached table of (label, id row, degree) entries over values."""
        self.six_values, six = None, itemgetter(*self.six_classes)
        self._rows(values, [(label, degree, ids, None, six(ids)) for label, ids, degree in entries])

    def _set_patterns(self, six_values: "_Values", entries: list[tuple[tuple, int, tuple, tuple]]):
        """The built table of (label, degree, patterns, six ids into
        six_values) entries, on the torus cells the build read (_tori), its
        cells written out from them."""
        self.six_values = six_values
        values, ids = self._write_out(entries)
        self._rows(values, [(label, degree, row, pats, six) for (label, degree, pats, six), row in zip(entries, ids)])

    def _rows(self, values: "_Values", rows: list[tuple]):
        self.values, table = values, self.table
        self._irreducibles = tuple(
            Irreducible(label, values.view(table, ids), degree, ids, pats, six) for label, degree, ids, pats, six in rows
        )
        self._by_label = {irr.label: irr for irr in self._irreducibles}
        self._dl: dict[tuple[str, int], ClassFunction] = {}  # dl's rows, derived on first use
        self._coordinates = self._closed = None
        self._audited = False  # set by a passing validate_table only

    @property
    def coordinates(self) -> "ClosedCoordinates":
        """The closed coordinates of values, derived on first use."""
        if self._coordinates is None:
            self._coordinates = ClosedCoordinates(self.p, self.values, self.values.ids)
        return self._coordinates

    @property
    def closed(self) -> "ClosedCoordinates":
        """The closed coordinates the rows' six ids index: of six_values on
        a built table, of values on a cached one."""
        if self.six_values is None:
            return self.coordinates
        if self._closed is None:
            self._closed = ClosedCoordinates(self.p, self.six_values, self.six_values.ids)
        return self._closed

    def column(self, c: int) -> list[int]:
        """The ids into closed.cells of every row's cell at class c: off the
        id rows of a cached table, and off the six ids or the patterns (2a,
        k) of a built one, (a/2) c_kd at the class of g^(+-d)."""
        if self.six_values is None:
            return [irr.ids[c] for irr in self._irreducibles]
        t, x = self._at[c]
        if t is None:
            return [irr.six[x] for irr in self._irreducibles]
        n, torus_id = self._tori[t][0], self.closed.torus_id
        return [a and torus_id(n, a, k * x % n) for a, k in (irr.patterns[t] for irr in self._irreducibles)]

    # -- construction --------------------------------------------------------

    def _build_characters(self):
        """The irreducibles by their patterns, read off the closed forms of
        R_T^theta (split) and -R_T^theta (anisotropic) once Borel induction
        agrees.  A closed form has one of three shapes per class: {} on the
        other torus, {d: c}, d in {0, n/2}, at the six cells (+-I and the
        unipotent classes), and {d: u, n - d: u} at the class of g^(+-d) on
        its own torus, one u for all.  So at theta_k the row's pattern there
        is (2a, k) with a = +-u / den (- on the anisotropic torus), and its
        six cells are +-c zeta_n^(kd) / den: read off the maps, never copied
        from the families the pin compares them with.  St = R_split(1) - 1
        and the exceptional halves are made from the rows at k = 0 and |T|/2.
        The (class, dlog) of each torus cell is kept, for the write-out and
        the pin."""
        p, table = self.p, self.table
        forms = {torus: self._closed_form(torus) for torus in ("split", "nonsplit")}
        self._check_borel_induction(forms["split"])
        six_values, self._tori, rows, ends = _Values(), [], [], []
        for t, (torus, sign, family, deg) in enumerate((("split", 1, "principal", p + 1), ("nonsplit", -1, "discrete", p - 1))):
            n, den = torus_order(p, torus), p * (p - 1) if torus == "split" else 1
            cells, own, six = [], set(), []
            for c, dmap in enumerate(forms[torus]):
                (d, u), *other = sorted(dmap.items()) or [(0, 0)]
                if other == [(n - d, u)]:
                    cells.append((c, d))
                    own.add(u)
                elif other or 2 * d % n:
                    raise AssertionError(f"closed form {dmap} has none of the three shapes")
                elif dmap:
                    six.append((d, sign * u))
            a, odd = divmod(2 * sign * max(own), den)
            if odd or len(own) != 1 or len(six) != len(self.six_classes):
                raise AssertionError(f"the {torus} closed form has no pattern")
            self._tori.append((n, cells))
            # a six cell's zeta_n^(kd), d in {0, n/2}, is 1 or (-1)^k: so its ids at even and odd k
            six = [tuple(six_values.intern(CycNumber._from_numerators(1, {0: c * (-1) ** (k * (d > 0))}, den)) for d, c in six) for k in (0, 1)]
            rows += [((family, k), deg, ((a, k), (0, 0))[:: 1 - 2 * t], six[k % 2]) for k in range(1, n // 2)]
            ends.append([(((a, k), (0, 0))[:: 1 - 2 * t], six[k % 2]) for k in (0, n // 2)])  # R_T^theta_k at k = 0, n/2
        if self.six_classes + [c for _, cells in self._tori for c, _ in cells] != list(range(len(table))):
            raise AssertionError("the classes are not +-I and the unipotent classes, then each torus's")
        self._at = [(None, j) for j in range(len(self.six_classes))] + [(t, d) for t, (_, cells) in enumerate(self._tori) for _, d in cells]
        out = [(("trivial",), 1, ((1, 0), (1, 0)), (six_values.intern(ONE),) * len(self.six_classes))]
        out += [(("steinberg",), p, *self._steinberg(*ends[0][0], six_values)), *rows]
        halves = {}  # (value, coefficient of tau) -> (value + coefficient tau)/2, for both tori
        for torus, (_, end) in zip(("split", "nonsplit"), ends):
            out += self._exceptional_pair(torus, *end, six_values, halves)
        self._set_patterns(six_values, out)

    def _write_out(self, entries: list[tuple]) -> tuple["_Values", list[tuple[int, ...]]]:
        """The values and the id rows, in entries' order, of the table of
        (label, degree, patterns, six ids) entries, interned in the order of
        each value's first cell when every cell is interned in turn: the
        principal and discrete rows first, each class by class.  A torus
        cell with pattern (2a, k) at g^(+-d) is (a/2) c_x, x = kd mod n, and
        c_x = c_(n - x), so per (n, 2a) a list by x holds the id of each
        value interned; a row whose cells are all in the lists interns
        nothing and is read off them, any other is interned cell by cell."""
        values, six = _Values(), self.six_values
        six_ids = [-1] * len(six)  # per six id, its value's id once interned
        torus_ids = {}  # (n, 2a) -> the id of (a/2) c_x by x, -1 until interned
        tori = [(n, [d for _, d in cells]) for n, cells in self._tori]
        rows = [()] * len(entries)
        for r in sorted(range(len(entries)), key=lambda r: entries[r][0][0] not in ("principal", "discrete")):
            _, _, patterns, row_six = entries[r]
            if -1 in map(six_ids.__getitem__, row_six):
                for i in row_six:
                    six_ids[i] = values.intern(six[i])
            ids = list(map(six_ids.__getitem__, row_six))
            for (n, ds), (a, k) in zip(tori, patterns):
                if not a:
                    ids += (0,) * len(ds)
                    continue
                xs = [k * d % n for d in ds]
                at = torus_ids.setdefault((n, a), [-1] * n)
                if -1 in map(at.__getitem__, xs):
                    for x in xs:
                        if at[x] < 0:
                            at[x] = at[-x % n] = values.intern(_cos(n, x, a))
                ids += map(at.__getitem__, xs)
            rows[r] = tuple(ids)
        return values, rows

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

    def _check_borel_induction(self, closed_form: list[dict[int, int]]):
        """R for the split torus by Borel induction, against the closed form.

        Induction from B is linear in theta: at class c the induced value is
        sum_d count_d |C(c)| zeta^(k d) / |B| over the bucket of c.  Where the
        integer map {d: count_d |C(c)|} equals the closed form's, the raw maps
        {k d mod n: ...} agree for every k, and equal raw maps over the same
        denominator are equal values, so those classes are proved for all k at
        once.  Only the other classes (none on a true table) are compared at
        every k in canonical form, the full check.

        That comparison can only name the first k where a class fails, never
        pass it: the value at theta_k is the discrete Fourier transform at k
        of the integer map over Z/n, over den, and the transform is
        invertible, so two different maps differ at some k.
        """
        p = self.p
        n, den = p - 1, p * (p - 1)
        unequal = []
        for rec, bucket, closed in zip(self.table.classes, self._build_borel_buckets(), closed_form):
            induced = {d: count * rec.centralizer_order for d, count in bucket.items()}
            if induced != closed:
                unequal.append((induced, closed))
        for k in range(n):
            for induced, closed in unequal:
                got, want = (CycNumber._from_numerators(n, _exponents(m, k, n), den) for m in (induced, closed))
                if got != want:
                    raise TableValidationError(
                        f"split torus character k={k}: induction and closed form disagree at p={p}"
                    )

    def _steinberg(self, patterns: tuple, r1: tuple[int, ...], six_values: "_Values") -> tuple:
        """St = R_split(1) - 1 as (patterns, six ids), from R_split(1)'s
        patterns and six ids r1, with its norm checked.  A pattern (2a, 0)
        is a at every class of its torus, so St's is (2a - 1, 0).
        validate_table's orthonormality implies the check; it stays because
        it is the only classfun.inner_product call on the verify path, whose
        traced count the benchmark's tests require to be non-zero."""
        six = tuple(six_values.intern(six_values[i] - ONE) for i in r1)
        patterns = tuple((a - 1, 0) for a, _ in patterns)
        cells = [six_values[i] for i in six]
        for (a, _), (_, torus_cells) in zip(patterns, self._tori):
            cells += [coerce(a)] * len(torus_cells)
        st = ClassFunction._raw(self.table, tuple(cells))
        if inner_product(st, st).as_rational() != 1:
            raise TableValidationError(f"Steinberg norm is not 1 at p={self.p}")
        return patterns, six

    def _exceptional_pair(self, torus_type: str, patterns: tuple, base: tuple[int, ...], six_values: "_Values", halves: dict) -> list:
        """The (label, degree, patterns, six ids) entries of the two halves
        (b + delta)/2 and (b - delta)/2 of b, the order-2-character virtual
        character, given by its patterns and six ids base.  delta is zero on
        the tori, so a half's pattern is (a, |T|/2) where b's is (2a, |T|/2).
        At a six cell with value v and coefficient c of delta in tau, plus is
        (v + c tau)/2 and minus is plus at (v, -c): halves, one memo for both
        halves and both tori, makes each such value once per prime.

        b is R(alpha) for the split torus and -R(alpha) for the anisotropic
        one; delta is supported on the four unipotent-type classes, where it
        is the central sign times the residue symbol of the class parameter
        times the Gauss sum.  The overall sign of delta only swaps the pair,
        and "plus" is fixed as the constituent adding +tau at the parameter-1
        unipotent class.

        The build checks nothing here: validate_table, which audits every
        table a command uses, implies each check the pair once had.
        - plus + minus == b holds by construction: (b + d)/2 + (b - d)/2 = b
          exactly, in any field.
        - The degree and the central character: the pin (_pin_rows) checks
          each stored degree against (p +- 1)/2, and every cell against the
          half's closed value, so chi(1) is the degree and chi(-g) =
          (-1)^k chi(g).
        - Norm one and <plus, minus> = 0: both are pairs of the row
          orthonormality audit.
        """
        p, classes = self.p, self.table.classes
        tau = gauss_sum(p)
        if torus_type == "split":
            deg = (p + 1) // 2
            center_sign = legendre(-1, p)
        else:
            deg = (p - 1) // 2
            center_sign = -legendre(-1, p)  # alpha(-I) on the larger torus
        keys = []  # per six cell, (base value, the coefficient of delta in tau)
        for i, c in zip(base, self.six_classes):
            sign, *residue = classes[c].key
            keys.append((six_values[i], residue[0] * (1 if sign == 1 else center_sign) if residue else 0))

        def half(v: CycNumber, c: int) -> int:
            if (v, c) not in halves:
                halves[v, c] = six_values.intern((v + tau.scale(c)).scale(Fraction(1, 2)))
            return halves[v, c]

        patterns = tuple((a // 2, k) for a, k in patterns)
        return [
            ((f"exceptional_{torus_type}_plus",), deg, patterns, tuple(half(v, c) for v, c in keys)),
            ((f"exceptional_{torus_type}_minus",), deg, patterns, tuple(half(v, -c) for v, c in keys)),
        ]

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
        doc = self._document(SCHEMA, _class_records(self.table), lambda irr: {"values": [texts[i] for i in irr.ids]})
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
        """The document a cache file stores and from_json_dict reads: each
        class's identity [kind, *key], each distinct value's text once (zero
        first), and per irreducible its label, degree and row of ids into
        those texts."""
        doc = self._document(CACHE_SCHEMA, _class_keys(self.table), lambda irr: {"ids": list(irr.ids)})
        return {**doc, "values": [v.to_text() for v in self.values]}

    def _document(self, schema: str, classes: list, cells) -> dict:
        rows = [{"label": list(irr.label), "degree": irr.degree, **cells(irr)} for irr in self.irreducibles]
        return {"schema": schema, "p": self.p, "classes": classes, "irreducibles": rows}

    def _load_characters(self, doc: dict):
        """The irreducibles of a to_cache_dict document.  Every text is
        parsed and must be canonical; the texts must be distinct with zero
        first, since the audit reads equal ids as equal values; and every
        id row must hold one int in range per class, each degree must be an
        int and each label [str] or [str, int] (a bool is neither: it would
        compare equal to 1 and print as true).  Each text's order must
        divide N = p(p^2 - 1)/2 = lcm(p - 1, p, p + 1), as every character
        value of SL2(F_p) lies in Q(zeta_N); the bound is read before any
        parse, since parsing factors the order.  Anything else raises
        ValueError (or the TypeError/KeyError of a wrong shape)."""
        if doc.get("schema") != CACHE_SCHEMA or doc.get("p") != self.p:
            raise ValueError("character-table document does not match this prime/schema")
        if doc["classes"] != _class_keys(self.table):
            raise ValueError("cached class data disagrees with a fresh build")
        values, texts, field = _Values(), doc["values"], self.p * (self.p**2 - 1) // 2
        if not all(0 < n and field % n == 0 for n in (int(t.partition(":")[0]) for t in texts)):
            raise ValueError("a cached value lies outside Q(zeta_N), N = p(p^2 - 1)/2")
        if [values.intern(CycNumber.from_text(t)) for t in texts] != list(range(len(texts))):
            raise ValueError("cached values are not distinct with zero first")
        entries = []
        for d in doc["irreducibles"]:
            ids, label = tuple(d["ids"]), d["label"]
            if len(ids) != len(self.table) or set(map(type, ids)) != {int} or min(ids) < 0 or max(ids) >= len(values):
                raise ValueError("a cached id row is not one value id per class")
            shape = [type(d["degree"])] + ([*map(type, label)] if isinstance(label, list) else [])
            if shape not in ([int, str], [int, str, int]):
                raise ValueError("a cached degree is not an int, or a label not [str] or [str, int]")
            entries.append((tuple(label), ids, d["degree"]))
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

    def view(self, table: ConjugacyTable, ids) -> ClassFunction:
        return ClassFunction._raw(table, tuple(map(self.__getitem__, ids)))


class ClosedCoordinates:
    """The closed coordinates of distinct values (ZERO first, ids their ids)
    of the table at p, each derived once from the value alone.

    Every value of a true table is a rational, r + s tau with tau the Gauss
    sum, or c_e = zeta_n^e + zeta_n^-e on a torus of order n = p -+ 1 with
    0 < e < n/2 and c_e irrational; no sign is needed, as -c_e = c_(n/2 - e).
    coords[i] is (R, S, 0, 0) for (R + S tau)/den (S = 0 for a rational), or
    (den, 0, n, e) for c_e, in integers over den, the least common denominator;
    None where a value is none of these.  r + s tau is read straight off v's
    integer numerators (_exact); tau = gauss_sum(p) is made once per prime.
    c_e is looked up among the canonical c_e, 0 <= e <= n/2, of its torus
    (cosines), made per torus order on first use: the six-cell values of a
    built table (rationals and r + s tau) make none.  The pin compares six
    cells in coords, its pairs sum them there, and classfun.closed_sum, the
    kernel of cuspform.decompose_dl, sums in coords (a built row's torus
    cells from torus_id) and assembles its value with value.
    """

    def __init__(self, p: int, values: list[CycNumber], ids: dict):
        self.p, self.eps, self.ids = p, legendre(-1, p), ids
        self.tau = tau = gauss_sum(p)
        self._t = next(e for e in tau.num if e)
        self._support = len(tau.num) - (0 in tau.num)
        self.cosines = _PerOrder(lambda n: [_cos(n, e) for e in range(n // 2 + 1)])
        self.cos_terms = _PerOrder(lambda n: [[(k * (n // c.order), a) for k, a in c.num.items()] for c in self.cosines[n]])
        self._cos = _PerOrder(lambda n: {c: (1, 0, n, e) for e, c in enumerate(self.cosines[n]) if c.order > 1})
        self._torus = {}  # (n, 2a, x) -> torus_id
        exact = [self._exact(v) for v in values]
        self.den = den = lcm(*(c.denominator for x in exact if x for c in x[:2]))
        self.coords = [x and (int(x[0] * den), int(x[1] * den), x[2], x[3]) for x in exact]
        self.cells = list(zip(values, self.coords))  # (value, coordinates) by id, then torus_id's

    def _exact(self, v: CycNumber) -> tuple | None:
        """The coordinates of v in rationals: (r, s, 0, 0) for r + s tau,
        (1, 0, n, e) for c_e, or None.  An order-p v = (sum_e N_e zeta_p^e)/D
        is r + s tau iff its numerators off exponent 0 are D s times tau's,
        on exactly tau's exponents: s is read at one exponent t of tau, the
        rest are compared by cross-multiplying, and r = (N_0 - D s tau_0)/D."""
        if v.order == 1:
            return (v.as_rational(), 0, 0, 0)
        if v.order == self.p:
            num, tau, den = v.num, self.tau.num, v.den
            a, b = num.get(self._t, 0), tau[self._t]  # s = a / (D b)
            if a and len(num) - (0 in num) == self._support and all(
                num.get(e, 0) * b == a * c for e, c in tau.items() if e
            ):
                return (Fraction(num.get(0, 0) * b - a * tau.get(0, 0), den * b), Fraction(a, den * b), 0, 0)
            return None
        n = next((n for n in (self.p - 1, self.p + 1) if n % v.order == 0), None)
        return n and self._cos[n].get(v)

    def coordinate(self, v: CycNumber) -> tuple | None:
        """The coordinates of v over den: a table value's, or those of a
        rational, r + s tau or c_e whose coordinates den makes integers."""
        i = self.ids.get(v)
        if i is not None:
            return self.coords[i]
        if v.order == 1:
            r, rest = divmod(v.num.get(0, 0) * self.den, v.den)
            return None if rest else (r, 0, 0, 0)
        x = self._exact(v)
        if x is None:
            return None
        r, s = Fraction(x[0]) * self.den, Fraction(x[1]) * self.den
        return (r.numerator, s.numerator, x[2], x[3]) if r.denominator == s.denominator == 1 else None

    def torus_id(self, n: int, a: int, x: int) -> int:
        """The id in cells of (a/2) c_x on the torus of order n, appended on
        first use past the values' own; 0 where it is zero."""
        i = self._torus.get((n, a, x))
        if i is None:
            v = _cos(n, x, a)
            i = self._torus[n, a, x] = len(self.cells) if v.num else 0
            self.cells += [(v, self.coordinate(v))] if i else []
        return i

    def value(self, rat: int, tau: int, hist: dict[int, dict[int, int]], scale: int) -> CycNumber:
        """(rat + tau g + sum_n sum_e hist[n][e] c_e) / scale in canonical
        form, g the Gauss sum and c_e on the torus of order n.  Each part is
        a canonical value, so their sum is.  A torus's sum is summed from the
        canonical c_e lifted to order n (cos_terms), its exponent 0 added to
        rat: a lifted canonical form stays in the residue basis at n (a CRT
        coordinate b < phi(q^j) scaled by q^(k-j) stays below phi(q^k)), so
        the reduction of the rest rewrites no exponent."""
        parts = []
        for n, h in hist.items():
            terms, cos_terms = [0] * n, self.cos_terms[n]  # by exponent at order n
            for e, m in h.items():
                for k, a in cos_terms[e]:
                    terms[k] += m * a
            rat += terms[0]
            if any(terms[1:]):
                parts.append(CycNumber._from_numerators(n, {k: a for k, a in enumerate(terms) if a and k}, scale))
        out = CycNumber._from_numerators(1, {0: rat}, scale)
        if tau:
            out += self.tau.scale(Fraction(tau, scale))
        return sum(parts, out)


class _PerOrder(dict):
    """A map from a torus order n to make(n), made on first use."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, n: int):
        out = self[n] = self.make(n)
        return out


def _cos(n: int, e: int, a: int = 2) -> CycNumber:
    """(a/2) c_e in canonical form, c_e = zeta_n^e + zeta_n^-e: the
    rational 2 cos(2 pi j / m) where zeta_n^e has order m = 1, 2, 3, 4 or 6."""
    c = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}.get(n // gcd(n, e))
    if c is not None:
        return CycNumber._from_numerators(1, {0: a * c}, 2)
    return CycNumber._from_numerators(n, _exponents({1: a, n - 1: a}, e, n), 2)


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


def _class_keys(table: ConjugacyTable) -> list[list]:
    """Each class's identity [kind, *key], as a cache document stores it and
    is checked against: a fresh build derives every other field from it."""
    return [[r.kind, *r.key] for r in table.classes]


def _class_records(table: ConjugacyTable) -> list[dict]:
    """The per-class records of the chartable document."""
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


def _cos_sums(n: int) -> list[int]:
    """S(m) = sum_(0<d<n/2) c_md at 0 <= m < 2n, for even n, c_e = zeta_n^e
    + zeta_n^-e: the sum over all d of zeta_n^(md) is n [n | m], less its
    terms at d = 0 (1) and d = n/2 ((-1)^m), so -1 - (-1)^m off the
    multiples of n (which are even) and n - 2 on them.  S(m) depends on m
    mod n only, so the list also holds S(m) at -n <= m < 0, as Python
    indexes it."""
    sums = [-2, 0] * n  # -1 - (-1)^m
    sums[0] = sums[n] = n - 2
    return sums


def validate_table(data: CharacterData) -> dict:
    """Full orthogonality audit of the irreducible table.

    Checks that there is one irreducible per class, then the pin
    (_pin_rows): each label once with its family's degree, and every cell
    equal to its family's closed value; and then pairwise orthonormality.
    Raises TableValidationError naming the first offender; a pass marks data
    audited (ensure_audited).

    A table that passes is the closed-form table, cell for cell: whether
    that is the character table is not checked here, and orthonormality
    alone cannot say, as any unitary change of basis keeps it.  The pin
    implies four checks the audit once made (the tests keep each as an
    oracle in propchecks): each degree is chi(1), since the identity cell
    is the family's degree; the table is closed under duality, since a
    closed-form row read at the inverse classes is the row with t replaced
    by (-1/p) t, itself or the other half of its exceptional pair; plus -
    minus is the Gauss sum at the unipotent class (1, 1), where the halves
    are u +- tau/2; and the center acts on each row by chi(-1)/chi(1) =
    (-1)^k, since -g^d = g^(d + n/2) on a torus and c_(k(d + n/2)) = (-1)^k
    c_kd, and s I and the unipotent class (s, r) go to -s.

    The second (column) orthogonality relations follow and are not checked
    separately.  Let X be the table (rows = irreducibles, columns = classes)
    and D = diag(|c|).  Row orthonormality says X D X* = |G| I.  When X is
    square this makes X invertible with X^-1 = D X* / |G|, so X* X =
    |G| D^-1 = diag(|C(c)|), which is the column relations.  The squareness
    is therefore checked here rather than assumed, since a cached table
    never passes through the build.  The degree-square sum follows too: at
    the identity column X* X gives sum_chi |chi(1)|^2 = |C(1)| = |G|, and
    the pin makes each degree chi(1), so sum_chi degree^2 = |G|.

    The pin takes one of two paths (_pin_rows).  A built table holds per
    row its patterns (2a, k), read off the closed forms, and its six-cell
    ids: the pin checks once per table that the torus cells the build read
    are the tori's (the classes of each torus in order, each holding g^d
    by its trace), and then compares each row's patterns with its family's
    and its six cells with the family's closed values, in O(1) per row;
    any difference sends the table down the other path, which names the
    first differing cell.  A cached table (or a test's copy) is pinned
    cell by cell: on a torus of order n each row's ids at the regular
    classes, those of g^(+-d), 0 < d < n/2, each of size |G|/n, must be the
    ids its family's pattern wants there (_torus_patterns), equal ids being
    equal values, and its six cells are compared in closed coordinates.

    What the audit reads.  On a cached table, every cell.  On a built
    table, the patterns and six cells, and not the cells written out from
    them (CharacterData._write_out): those are right as far as the
    write-out is, and no audit reads them before a command does.  chartable
    prints a fresh build's written-out cells, and dl, the corollaries
    command's odd-multiplicity check and a failure message read them, as
    they are; verify and decompose read the patterns.  The tests hold the write-out to a cell-by-cell oracle at
    every prime in 7..101 (propchecks.closed_form_table), and a cache file
    written from a build is pinned cell by cell when it is next loaded, so
    a write-out fault is refused there.  Reading the written-out cells here
    would cost about what writing them out does, O(p^2) per table.

    Orthonormality stays, although on a table the pin passed it is the
    orthonormality of the closed-form table: norm 1 is what a proof that
    the closed-form table is the character table would need.  Each pair is
    paired in O(1) from the two rows' patterns, a built row's own and a
    cached row's taken from its label (_families), which the pin has made
    the row's own.  c_e is real and c_x c_y = c_(x+y) + c_(x-y), so
    the torus's part of |G| <chi, psi> for (2a, k) and (2b, l) is (|G|/n) a
    b (S(k + l) + S(k - l)), an integer by _cos_sums.  The six cells (+-I
    and the four unipotent classes) hold their closed values r + s tau, tau
    the Gauss sum, and sum as in classfun.closed_sum to R + S tau with R
    and S rational.  So |G| <chi, psi> is R' + S tau with R' rational, and
    tau is irrational (tau^2 = +-p): the pair passes iff S = 0 and R' =
    delta_ij |G|.  _pair_rows sums each two family groups once; a failing
    pair's message names the first failing pair i <= j in lexicographic
    order and prints (R' + S tau)/|G| in canonical form
    (ClosedCoordinates.value).
    """
    table, irrs = data.table, data.irreducibles
    n = len(irrs)
    if n != len(table.classes):
        raise TableValidationError(f"{n} irreducibles for {len(table.classes)} classes at p={data.p}")
    _pin_rows(data)
    _pair_rows(data)
    data._audited = True
    return {
        "p": data.p,
        "irreducibles": n,
        "orthonormal": True,
        "second_orthogonality": True,
        "dual_closed": True,
    }


def ensure_audited(data: CharacterData):
    """validate_table(data), unless it has passed on data since the rows were
    last set: a build and a cache load both start unaudited
    (CharacterData._rows)."""
    if not data._audited:
        validate_table(data)


def _families(p: int, k: int = 0) -> dict[str, tuple]:
    """Per family, at the label parameter k: its degree, its pattern (2a, k)
    on the split and on the nonsplit torus (validate_table): a c_kd at the
    class of g^(+-d), 2a = 0 being zero there, and (2u, 2t): its value at
    the unipotent class keyed (s, r) is s^k (u + t r tau), tau the Gauss
    sum, with k the parameter of its pattern (_pin_rows)."""
    hs, hn = (p - 1) // 2, (p + 1) // 2  # n/2 of the split and of the nonsplit torus
    return {
        "trivial": (1, (1, 0), (1, 0), 2, 0),
        "steinberg": (p, (1, 0), (-1, 0), 0, 0),
        "principal": (p + 1, (2, k), (0, 0), 2, 0),
        "discrete": (p - 1, (0, 0), (-2, k), -2, 0),
        **{f"exceptional_split_{s}": (hn, (1, hs), (0, 0), 1, t) for s, t in (("plus", 1), ("minus", -1))},
        **{f"exceptional_nonsplit_{s}": (hs, (0, 0), (-1, hn), -1, t) for s, t in (("plus", 1), ("minus", -1))},
    }


def _family(families: dict, label: tuple) -> tuple:
    """(degree, split pattern, nonsplit pattern, 2u, 2t) of label, from
    _families(p) made once per prime: a label's parameter k is the k of
    each of its patterns that is not zero."""
    deg, split, nonsplit, u, t = families[label[0]]
    if label[1:]:
        split, nonsplit = (split[0], split[0] and label[1]), (nonsplit[0], nonsplit[0] and label[1])
    return deg, split, nonsplit, u, t


def _labels(p: int) -> dict:
    """The p + 4 labels in the build's order: the constituents dl_terms
    names across both tori, which decompose_dl reads."""
    return dict.fromkeys(label for torus in ("split", "nonsplit") for k in range(torus_order(p, torus) // 2 + 1) for label, _ in dl_terms(p, torus, k))


def _torus_patterns(data: CharacterData) -> list[tuple]:
    """Per torus, split then nonsplit, (torus, cells, wanted).  cells are the
    (class, d) of its regular classes, the generator's first, each with the
    dlog d of one of its two elements g^(+-d) (either gives the same
    values).  wanted maps each label's pattern (2a, k) on the torus
    (_families) to its ids at cells, -1 where the table lacks the value.
    (a/2) c_kd is c_e for |a| = 2, the id of cosines[e], and c_e/2 for |a|
    = 1, where kd is 0 or n/2: 1 at e = 0 and -1 at e = n/2."""
    p, table, ids = data.p, data.table, data.values.ids
    families, labels = _families(p), _labels(p)
    out = []
    for side, torus in enumerate((data.split_torus, data.nonsplit_torus), 1):
        n, gen = torus.order, table.class_of(torus.generator)
        cells = {table.class_of(g): d for g, d in torus.dlog.items() if d % (n // 2)}
        cells = sorted(cells.items(), key=lambda cd: (cd[0] != gen, cd[0]))
        cos = [ids.get(c, -1) for c in data.coordinates.cosines[n]]
        lookup = {1: [ids.get(ONE, -1)] + [-1] * (n // 2 - 1) + [ids.get(-ONE, -1)], 2: cos}
        # per 2a and x, the id of (a/2) c_x = +-c_e or +-c_e/2, e in [0, n/2]: -c_x = c_(x + n/2), c_x = c_(n - x)
        at = {a: [lookup[abs(a)][min(e, n - e)] for e in ((x + n // 2 * (a < 0)) % n for x in range(n))] for a in (-2, -1, 1, 2)}
        own = sorted({_family(families, label)[side] for label in labels})
        wanted = {(0, 0): (0,) * len(cells)}  # the zero row
        wanted.update(((a, k), tuple([at[a][k * d % n] for _, d in cells])) for a, k in own if a)
        out.append((torus, cells, wanted))
    return out


def _pair_rows(data: CharacterData):
    """Pair every i <= j, raising at the first pair in lexicographic order
    that fails (validate_table), with one pair summed for all the pairs of
    each two family groups.

    A row's pair data is its six ids g and its patterns (2a, k) split and
    (2b, l) nonsplit, 0 <= k <= n/2 as the build and _families give them.
    S(m) = n [n | m] - 1 - (-1)^m (_cos_sums), so S(k + k') + S(k - k') is
    -2 - 2 (-1)^(k + k') where k is generic (0 < k < n/2) and k' is 0, n/2
    or generic and not k, and n - 4 at k = k' generic.  So the rows fall
    into groups keyed by g, 2a, 2b, and k where it is 0 or n/2 and its
    parity where it is generic: the pairs i != j of two groups, or of one,
    have one value, and so have the diagonal pairs of one group, as long as
    no two rows share a generic k on a torus where neither pattern is zero,
    which on a table the pin passed they do not (labels are distinct, and
    a family's generic k is its label's).  The groups are in the order of
    their first rows, so of each such set of pairs the one summed, that of
    the first rows it can take, is its first: the first failing sum names
    the first failing pair."""
    table, irrs, closed, p = data.table, data.irreducibles, data.closed, data.p
    coords, eps, order, den2 = closed.coords, closed.eps, table.group_order, closed.den**2
    target = 4 * den2 * order  # 4 den^2 |G| <chi, chi>, the scale the rational parts are summed at
    sizes = [table.classes[c].size for c in data.six_classes]
    (ws, ss), (wn, sn) = ((den2 * order // n, _cos_sums(n)) for n in (p - 1, p + 1))  # |G| den^2 / n and S per torus
    families, keys, rows, groups = _families(p), {}, [], {}
    for i, irr in enumerate(irrs):
        (a, k), (b, l) = irr.patterns or _family(families, irr.label)[1:3]
        g = keys.setdefault(irr.six, len(keys))
        rows.append((g, a, k, b, l))  # and in its group's key, a generic k by its parity, as -2 or -1
        groups.setdefault((g, a, k % 2 - 2 if 0 < 2 * k < p - 1 else k, b, l % 2 - 2 if 0 < 2 * l < p + 1 else l), []).append(i)
    vectors = []  # per key, R, S, |c| R and |c| S of its six cells, over den
    for key in keys:
        r, s = zip(*(coords[i][:2] for i in key))
        vectors.append((r, s, [*map(mul, sizes, r)], [*map(mul, sizes, s)]))
    firsts = [m[0] for m in groups.values()]
    pairs = [(i, i) for i in firsts] + [(m[0], m[1]) for m in groups.values() if m[1:]] + [*combinations(firsts, 2)]
    for i, j in sorted(pairs):
        (g, a, k, b, l), (h, a2, k2, b2, l2) = rows[i], rows[j]
        (_, _, wr, wt), (r, s, _, _) = vectors[g], vectors[h]
        rat = 4 * (sum(map(mul, wr, r)) + p * sum(map(mul, wt, s)))
        rat += ws * a * a2 * (ss[k + k2] + ss[k - k2]) + wn * b * b2 * (sn[l + l2] + sn[l - l2])
        tau = eps * sum(map(mul, wr, s)) + sum(map(mul, wt, r))
        if tau or rat != (i == j) * target:
            raise TableValidationError(f"<{irrs[i].name}, {irrs[j].name}> = {closed.value(rat, 4 * tau, {}, target).to_text()} at p={p}")


def _six_closed(six: list[tuple], den: int, family: tuple) -> list[tuple]:
    """Per six cell (class, s, *r), (class, coordinates over den or () where
    they are not integers, rat, tau) of its family's closed value, (rat + tau
    tau)/2: s^k deg at s I and s^k (u + t r tau) at the unipotent class
    keyed (s, r), family being (deg, split, nonsplit, 2u, 2t) (_family) and
    k its pattern parameter."""
    deg, split, nonsplit, u, t = family
    out, k = [], split[1] or nonsplit[1]
    for c, s, *r in six:
        rat, tau = (u, t * r[0]) if r else (2 * deg, 0)  # twice the value at s = 1
        rat, tau = s**k * rat, s**k * tau
        out.append((c, (rat * den // 2, tau * den // 2, 0, 0) if rat * den % 2 == tau * den % 2 == 0 else (), rat, tau))
    return out


def _pinned_by_pattern(data: CharacterData, families: dict, by_label: dict, six: list) -> bool:
    """Whether a built table's patterns and six cells are its families'
    closed-form table's: on
    each torus its cells are the classes of the torus's kind in order, the
    one holding g^d being the class of its trace (a regular semisimple class
    is told by its trace), and every row's patterns are its family's and its
    six cells its family's closed values."""
    p, classes, closed, wanted = data.p, data.table.classes, data.closed, {}
    for torus, (n, cells) in zip((data.split_torus, data.nonsplit_torus), data._tori):
        traces = [2, torus.generator.trace]  # of g^d: tr g^(d+1) = tr g tr g^d - tr g^(d-1), as det g = 1
        while len(traces) < n // 2:
            traces.append((traces[1] * traces[-1] - traces[-2]) % p)
        kind = f"{torus.torus_type}_semisimple"
        if n != torus.order or [c for c, _ in cells] != [c for c, rec in enumerate(classes) if rec.kind == kind]:
            return False
        if [classes[c].trace for c, _ in cells] != [traces[d] for _, d in cells]:
            return False
    for label, irr in by_label.items():
        family = _family(families, label)
        key = (label[0], (family[1][1] or family[2][1]) % 2)
        if key not in wanted:
            wanted[key] = [x for _, x, _, _ in _six_closed(six, closed.den, family)]
        if irr.patterns != family[1:3] or list(map(closed.coords.__getitem__, irr.six)) != wanted[key]:
            return False
    return True


def _pin_rows(data: CharacterData):
    """Each of the p + 4 labels once, with its family's degree, and then
    every row, label by label in the build's order (_labels), equal to its
    family's closed values at every class (validate_table).  A built table
    is compared by pattern (_pinned_by_pattern); a cached one, and a built
    one that differs anywhere, cell by cell.

    Cell by cell, on each torus (as _torus_patterns gives it) a row's ids at the regular classes must be those of its family's pattern
    (2a, k): at the class of g^(+-d), g the generator and n = |T|, (a/2)
    c_kd with c_e = zeta_n^e + zeta_n^-e.  The generator's class comes
    first, so a table with permuted labels fails there.  At the six other
    cells, the class of s I (s = +-1) holds s^k deg and the unipotent class
    keyed (s, r) holds s^k (u + t r tau), tau the Gauss sum, with k the
    family's pattern parameter and (2u, 2t) its last two fields
    (_families).  These are compared in the integer closed coordinates over
    den, never as values.  The first cell that differs raises, naming the
    row, its value there and its family's."""
    p, table = data.p, data.table
    families, expected = _families(p), _labels(p)
    by_label = {}
    for irr in data.irreducibles:
        if irr.label not in expected or irr.label in by_label:
            raise TableValidationError(f"unexpected or repeated label {list(irr.label)} at p={p}")
        by_label[irr.label] = irr
        if irr.degree != families[irr.label[0]][0]:
            raise TableValidationError(f"{irr.name} has degree {irr.degree}, not {families[irr.label[0]][0]} at p={p}")
    six = [(c, *table.classes[c].key) for c in data.six_classes]
    if data.six_values is not None and _pinned_by_pattern(data, families, by_label, six):
        return
    closed = data.coordinates
    on_tori = [(torus, cells, wanted, itemgetter(*(c for c, _ in cells))) for torus, cells, wanted in _torus_patterns(data)]

    def off(irr: Irreducible, c: int, want: CycNumber, gen: str = ""):  # irr is not want at class c
        where = f"the {gen} torus generator" if gen else f"class {c} ({table.classes[c].kind})"
        return TableValidationError(f"{irr.name} is {irr.chi.values[c].to_text()} at {where}, not {want.to_text()} at p={p}")

    for label in expected:
        irr, family = by_label[label], _family(families, label)
        for (torus, cells, wanted, get), pattern in zip(on_tori, family[1:3]):
            if get(irr.ids) != wanted[pattern]:
                c, d = next(cd for cd, w in zip(cells, wanted[pattern]) if irr.ids[cd[0]] != w)
                want = _cos(torus.order, pattern[1] * d, pattern[0])
                raise off(irr, c, want, torus.torus_type if c == cells[0][0] else "")
        for c, x, rat, tau in _six_closed(six, closed.den, family):
            if closed.coords[irr.ids[c]] != x:
                raise off(irr, c, closed.value(rat, tau, {}, 2))
