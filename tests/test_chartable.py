from fractions import Fraction

import pytest

from dlcusp.chartable import CharacterData, TableValidationError, dl_terms, quadratic_character_index, validate_table
from dlcusp.classfun import ClassFunction, dual, inner_product, tensor, trivial_character
from dlcusp.cyclotomic import ONE, ZERO
from dlcusp.numtheory import primes_in_range

import propchecks
from conftest import get_data
from propchecks import TorusCharacter, induced_torus_character, lemma_tensor_sign, steinberg_tensor_identity_holds


def test_torus_character_counts(data7):
    split, nonsplit = (
        [TorusCharacter(t.torus_type, t.order, k) for k in range(t.order)] for t in (data7.split_torus, data7.nonsplit_torus)
    )
    assert len(split) == 6 and sum(th.is_trivial_on_center for th in split) == 3
    assert len(nonsplit) == 8 and sum(th.is_trivial_on_center for th in nonsplit) == 4


def test_quadratic_character_center_values():
    # on the split torus alpha kills the center iff p = 1 mod 4, nonsplit iff p = 3 mod 4
    for p in (7, 11, 13, 17):
        split_alpha = TorusCharacter("split", p - 1, quadratic_character_index(p - 1))
        nonsplit_alpha = TorusCharacter("nonsplit", p + 1, quadratic_character_index(p + 1))
        assert split_alpha.character_order == 2 and nonsplit_alpha.character_order == 2
        assert split_alpha.is_trivial_on_center == (p % 4 == 1)
        assert nonsplit_alpha.is_trivial_on_center == (p % 4 == 3)


def test_split_series_trivial_theta(data7):
    r = data7.dl("split", 0)
    one = trivial_character(data7.table)
    st = data7.irreducible("steinberg").chi
    assert r == one + st
    assert r.degree.as_rational() == 8


def test_split_series_vanishes_on_nonsplit_classes(data7):
    for k in range(6):
        chi = data7.dl("split", k)
        for rec, v in zip(data7.table.classes, chi.values):
            if rec.kind == "nonsplit_semisimple":
                assert v.is_zero()


def test_split_series_gram_pattern(data11):
    p = 11
    alpha = quadratic_character_index(p - 1)
    for k in range(p - 1):
        for j in range(p - 1):
            got = inner_product(data11.dl("split", k), data11.dl("split", j)).as_rational()
            if j in (k, (p - 1 - k) % (p - 1)):
                want = 2 if k in (0, alpha) else 1
            else:
                want = 0
            assert got == want, (k, j)


def test_nonsplit_series_trivial_theta():
    for p in (7, 11):
        data = get_data(p)
        r = data.dl("nonsplit", 0)
        assert r == trivial_character(data.table) - data.irreducible("steinberg").chi
        assert r.degree.as_rational() == 1 - p


def test_inverse_exponents_give_equal_virtual_characters():
    for p in (7, 11, 13):
        data = get_data(p)
        for k in range(p - 1):
            assert data.dl("split", k) == data.dl("split", p - 1 - k)
            assert data.dl("split", k).degree.as_rational() == p + 1
        for k in range(p + 1):
            assert data.dl("nonsplit", k) == data.dl("nonsplit", p + 1 - k)
            assert data.dl("nonsplit", k).degree.as_rational() == 1 - p


def test_cross_series_orthogonality(data7):
    for k in range(6):
        for j in range(8):
            got = inner_product(data7.dl("split", k), data7.dl("nonsplit", j))
            assert got == ZERO, (k, j)


def test_steinberg_values(data7):
    st = data7.irreducible("steinberg").chi
    for rec, v in zip(data7.table.classes, st.values):
        want = {"central": 7, "unipotent": 0, "split_semisimple": 1, "nonsplit_semisimple": -1}[rec.kind]
        assert v.as_rational() == want


def test_exceptional_constituents_p7(data7):
    plus = data7.irreducible("exceptional_nonsplit_plus")
    minus = data7.irreducible("exceptional_nonsplit_minus")
    assert plus.degree == minus.degree == 3
    assert dual(plus.chi) == minus.chi and dual(minus.chi) == plus.chi
    base = -data7.dl("nonsplit", 4)
    assert plus.chi + minus.chi == base


def test_exceptional_constituents_p13_split():
    data = get_data(13)
    plus = data.irreducible("exceptional_split_plus")
    minus = data.irreducible("exceptional_split_minus")
    assert plus.degree == minus.degree == 7
    assert plus.chi + minus.chi == data.dl("split", 6)
    assert inner_product(plus.chi, minus.chi) == ZERO


def test_degree_multiset_p7(data7):
    degrees = sorted(irr.degree for irr in data7.irreducibles)
    assert degrees == [1, 3, 3, 4, 4, 6, 6, 6, 7, 8, 8]
    assert sum(d * d for d in degrees) == 336


def test_table_count():
    assert len(get_data(13).irreducibles) == 17


@pytest.mark.parametrize("p", (7, 11, 13))
def test_validate_table(p):
    report = validate_table(get_data(p))
    assert report["orthonormal"] and report["second_orthogonality"] and report["dual_closed"]


def test_validate_table_catches_corruption(data7):
    import copy

    broken = copy.copy(data7)
    irrs = list(data7.irreducibles)
    st = irrs[1]
    irrs[1] = type(st)(st.label, st.chi + trivial_character(data7.table), st.degree)
    broken.irreducibles = tuple(irrs)
    with pytest.raises(TableValidationError):
        validate_table(broken)


@pytest.mark.parametrize("p", (7, 11, 13, 31))
def test_second_orthogonality_oracle(p):
    """The column relations validate_table derives from row orthonormality."""
    assert propchecks.check_second_orthogonality(get_data(p)) == (p + 4) * (p + 5) // 2


def test_cached_table_missing_an_irreducible_is_rejected(data7):
    """Squareness is the hypothesis that makes the column relations follow;
    a cached document never passes through the build, so validate checks it."""
    doc = data7.to_cache_dict()
    del doc["irreducibles"][3]
    broken = CharacterData.from_json_dict(doc)
    with pytest.raises(TableValidationError, match=r"^10 irreducibles for 11 classes at p=7$"):
        validate_table(broken)


def _with_value(data, label, class_kind, new_value):
    """A shallow copy of data whose irreducible `label` takes new_value(v) at
    the first class of class_kind where it is non-zero."""
    import copy

    irr = data.irreducible(*label)
    idx = next(
        i for i, (rec, v) in enumerate(zip(data.table.classes, irr.chi.values))
        if rec.kind == class_kind and not v.is_zero()
    )
    values = list(irr.chi.values)
    values[idx] = new_value(values[idx])
    broken = copy.copy(data)
    broken.irreducibles = tuple(
        type(irr)(label, ClassFunction(data.table, values), irr.degree) if other.label == label else other
        for other in data.irreducibles
    )
    return broken


def test_negated_principal_series_value_is_caught(data7):
    broken = _with_value(data7, ("principal", 1), "split_semisimple", lambda v: -v)
    with pytest.raises(TableValidationError, match=r"^<trivial, principal\(1\)> = .* at p=7$"):
        validate_table(broken)


def test_changed_exceptional_value_at_unipotent_class_is_caught(data7):
    broken = _with_value(data7, ("exceptional_split_plus",), "unipotent", lambda v: v + 1)
    with pytest.raises(TableValidationError, match=r"^<trivial, exceptional_split_plus> = .* at p=7$"):
        validate_table(broken)


def _outcome(check, data):
    try:
        check(data)
    except TableValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("p", (7, 11, 13, 31))
def test_packed_pairing_agrees_with_cell_by_cell_oracle(p):
    """On seeded single-cell faults validate_table raises exactly when the
    cell-by-cell pair loop does, with the same message."""
    data = get_data(p)
    assert _outcome(validate_table, data) is _outcome(propchecks.check_row_orthonormality, data) is None
    changed = 0
    for broken in propchecks.single_cell_faults(data, count=40):
        want = _outcome(propchecks.check_row_orthonormality, broken)
        assert _outcome(validate_table, broken) == want
        # any changed cell breaks orthogonality to the trivial row (or, in
        # the trivial row, to some other), while negating or rotating a zero
        # cell changes nothing
        assert (want is not None) == (broken.irreducibles != data.irreducibles)
        changed += want is not None
    assert changed >= 20


def test_huge_coefficient_is_rejected(data7):
    """A cell with a coefficient far above |G| is still rejected, with the
    oracle's message (the digit width grows with the largest numerator;
    test_cyclotomic checks that packed ints decode exactly within it)."""
    from dlcusp.cyclotomic import root_of_unity

    row = next(i for i, irr in enumerate(data7.irreducibles) if irr.label == ("principal", 1))
    cls = next(i for i, rec in enumerate(data7.table.classes) if rec.kind == "split_semisimple")
    value = data7.irreducibles[row].chi.values[cls] + root_of_unity(6, 1).scale(2**70 + 1)
    broken = propchecks.with_cell(data7, row, cls, value)
    want = _outcome(propchecks.check_row_orthonormality, broken)
    assert want is not None and "1180591620717411303425" in want
    assert _outcome(validate_table, broken) == want


def _cells(doc):
    """The value ids of every cell of a cache document's irreducibles."""
    return [i for d in doc["irreducibles"] for i in d["ids"]]


def test_cache_load_parses_each_distinct_text_once(data7, monkeypatch):
    from dlcusp.cyclotomic import CycNumber

    doc = data7.to_cache_dict()
    parse = CycNumber.from_text
    seen = []
    monkeypatch.setattr(CycNumber, "from_text", classmethod(lambda cls, text: seen.append(text) or parse(text)))
    loaded = CharacterData.from_json_dict(doc)
    assert seen == doc["values"] and len(seen) == len(set(seen)) < len(_cells(doc))
    assert loaded.to_cache_dict() == doc
    ones = [v for irr in loaded.irreducibles for v in irr.chi.values if v == 1]
    assert len(ones) > 1 and all(v is ones[0] for v in ones)  # equal cells share one value


def _per_cell_document(data):
    """to_json_dict's document with every cell's text written afresh."""
    from dlcusp.chartable import SCHEMA, _class_records
    from dlcusp.group import torus_order

    def texts(chi):
        return [v.to_text() for v in chi.values]

    doc = {
        "schema": SCHEMA,
        "p": data.p,
        "classes": _class_records(data.table),
        "irreducibles": [
            {"label": list(irr.label), "degree": irr.degree, "values": texts(irr.chi)} for irr in data.irreducibles
        ],
    }
    for torus in ("split", "nonsplit"):
        doc[f"dl_{torus}"] = [{"k": k, "values": texts(data.dl(torus, k))} for k in range(torus_order(data.p, torus))]
    return doc


@pytest.mark.parametrize("p", (7, 13, 31))
def test_each_text_written_once_gives_the_per_cell_document(p):
    """Writing each distinct value's text once changes no cell: on a built
    table and on one loaded from its own cache document, the chartable
    document is the per-cell one, and the cache document's texts at its
    id rows are the irreducibles' cells."""
    built = get_data(p)
    loaded = CharacterData.from_json_dict(built.to_cache_dict())
    for data in (built, loaded):
        want = _per_cell_document(data)
        assert data.to_json_dict() == want
        cache = data.to_cache_dict()
        texts = [[cache["values"][i] for i in d["ids"]] for d in cache["irreducibles"]]
        assert texts == [d["values"] for d in want["irreducibles"]]
        assert len(cache["values"]) == len({t for row in texts for t in row})


def test_non_canonical_copy_of_a_repeated_text_is_rebuilt(data7, tmp_path):
    """Parsing once per distinct text still checks every text: a value
    written non-canonically, where many cells read it, is refused."""
    import json

    from dlcusp.cli import load_character_data

    doc = data7.to_cache_dict()
    one = doc["values"].index("1: 1")
    assert _cells(doc).count(one) > 10
    doc["values"][one] = "1: 2/2"
    with pytest.raises(ValueError, match="non-canonical"):
        CharacterData.from_json_dict(doc)
    path = tmp_path / "sl2_p7.json"
    path.write_text(json.dumps(doc))
    data, hit = load_character_data(7, tmp_path)
    assert not hit and json.loads(path.read_text()) == data7.to_cache_dict()


def test_dual_closure():
    for p in (7, 11, 13):
        propchecks.check_dual_closure(get_data(p))


def _flipped_central_sign(data7):
    """data7 with its split exceptional pair rebuilt with the wrong central
    sign in the difference, and that pair."""
    import copy

    from dlcusp.cyclotomic import gauss_sum
    from dlcusp.numtheory import legendre

    p = 7
    tau = gauss_sum(p)
    base = data7.dl("split", quadratic_character_index(p - 1))
    wrong = -legendre(-1, p)
    delta_vals = [ZERO] * len(data7.table)
    for i, rec in enumerate(data7.table.classes):
        if rec.kind == "unipotent":
            s, residue = rec.key
            delta_vals[i] = tau.scale(residue * (1 if s == 1 else wrong))
    delta = ClassFunction(data7.table, delta_vals)
    plus = (base + delta).scale(Fraction(1, 2))
    minus = (base - delta).scale(Fraction(1, 2))
    broken = copy.copy(data7)
    irrs = [
        type(irr)(irr.label, plus if irr.label == ("exceptional_split_plus",) else
                  minus if irr.label == ("exceptional_split_minus",) else irr.chi, irr.degree)
        for irr in data7.irreducibles
    ]
    broken.irreducibles = tuple(irrs)
    return broken, plus, minus


def test_flipped_central_sign_is_caught(data7):
    """A wrong central sign in the exceptional difference survives the norm
    checks (the residue-symbol sum hides it) but must fail the table audit
    through the exceptional-vs-exceptional pairings."""
    broken, plus, minus = _flipped_central_sign(data7)
    assert inner_product(plus, plus).as_rational() == 1  # the norm check alone is satisfied
    assert inner_product(plus, minus).is_zero()
    with pytest.raises(TableValidationError):
        validate_table(broken)


@pytest.mark.parametrize(
    "plant, message",
    [
        (lambda data: _flipped_central_sign(data)[0], r"exceptional_split_plus by chi\(-1\)/chi\(1\) at class 2"),
        (lambda data: propchecks.with_cell(data, 0, 1, ONE + ONE), r"trivial by chi\(-1\)/chi\(1\) at class 0"),
        (lambda data: propchecks.with_cell(data, 2, 6, -data.irreducible("principal", 1).chi.values[6]),
         r"principal\(1\) by chi\(-1\)/chi\(1\) at class 6"),
    ],
    ids=("flipped_sign", "value_at_minus_one", "odd_row_not_negated"),
)
def test_the_center_check_names_a_planted_row(data7, plant, message):
    """_check_center, which validate_table runs last, on rows whose center
    does not act by chi(-1)/chi(1): the flipped sign, a value at -I that is
    not +-chi(1), and one class of an odd row not negated at -g."""
    from dlcusp.chartable import _check_center

    _check_center(data7)
    with pytest.raises(TableValidationError, match=f"^the center does not act on {message} at p=7$"):
        _check_center(plant(data7))


@pytest.mark.parametrize("p", [*primes_in_range(7, 43), 101])
def test_built_exceptional_pairs_pass_the_dropped_build_checks(p):
    """Sum, degree, norms, orthogonality and central character of both
    exceptional pairs, which validate_table implies and the build no longer
    checks, still hold on every built table."""
    propchecks.check_exceptional_pairs(get_data(p))


@pytest.mark.parametrize("p", (7, 11, 13, 17))
def test_steinberg_tensor_identity(p):
    """(-1)^(1+rank) St (x) R equals induction from the torus, every theta."""
    data = get_data(p)
    for k in range(p - 1):
        assert steinberg_tensor_identity_holds(data, "split", k), ("split", k)
    for k in range(p + 1):
        assert steinberg_tensor_identity_holds(data, "nonsplit", k), ("nonsplit", k)


def test_tensor_sign_convention_is_forced(data7):
    """The opposite sign assignment fails, pinning the rank convention."""
    st = data7.irreducible("steinberg").chi
    k = 2
    lhs = tensor(st, data7.dl("split", k)).scale(-lemma_tensor_sign("split"))
    assert lhs != induced_torus_character(data7, "split", k)


def _dl_orbit_coefficients(data, phi):
    """Brute-force coefficients of phi over the full DL orbit spanning set."""
    p = data.p
    mults = {irr.label: inner_product(phi, irr.chi).as_rational() for irr in data.irreducibles}
    coeff = {}
    m1, mst = mults[("trivial",)], mults[("steinberg",)]
    coeff[("split", 0)] = (m1 + mst) / 2
    coeff[("nonsplit", 0)] = (m1 - mst) / 2
    for k in range(1, (p - 1) // 2 + 1):
        if k == quadratic_character_index(p - 1):
            assert mults[("exceptional_split_plus",)] == mults[("exceptional_split_minus",)]
            coeff[("split", k)] = mults[("exceptional_split_plus",)]
        else:
            coeff[("split", k)] = mults[("principal", k)]
    for k in range(1, (p + 1) // 2 + 1):
        if k == quadratic_character_index(p + 1):
            assert mults[("exceptional_nonsplit_plus",)] == mults[("exceptional_nonsplit_minus",)]
            coeff[("nonsplit", k)] = -mults[("exceptional_nonsplit_plus",)]
        else:
            coeff[("nonsplit", k)] = -mults[("discrete", k)]
    rebuilt = ClassFunction(data.table, [0] * len(data.table))
    for (torus, k), c in coeff.items():
        if c:
            rebuilt = rebuilt + data.dl(torus, k).scale(c)
    assert rebuilt == phi, "function is not in the DL span"
    return coeff


def _expected_orbit_coefficients(data, t1, k1):
    """Orbit totals of the tabulated per-character coefficient list.

    Same-torus targets get 1 +- <theta1, theta> per character (plus for the
    split torus, minus for the anisotropic one), other-torus targets get -1,
    and center-nontrivial targets get 0; orbits sum their members.
    """
    p = data.p
    out = {}
    for torus in ("split", "nonsplit"):
        n = p - 1 if torus == "split" else p + 1
        alpha = quadratic_character_index(n)
        for k in range(0, n // 2 + 1):
            if k % 2 == 1:  # non-trivial on the center: coefficient zero
                out[(torus, k)] = Fraction(0)
                continue
            orbit_size = 1 if k in (0, alpha) else 2
            if t1 != torus:
                out[(torus, k)] = Fraction(-orbit_size)
                continue
            hit = int(k1 % n in (k % n, (n - k) % n))
            delta = hit if torus == "split" else -hit
            out[(torus, k)] = Fraction(orbit_size + delta)
    return out


@pytest.mark.parametrize("p", (13, 17, 19, 23))
def test_steinberg_tensor_brute_force_matches_tabulated_cases(p):
    """Every St (x) R with center-trivial theta decomposes with the stated
    per-case coefficients, across all subgroup-embedding configurations."""
    data = get_data(p)
    st = data.irreducible("steinberg").chi
    for t1, n1 in (("split", p - 1), ("nonsplit", p + 1)):
        for k1 in range(0, n1, 2):
            phi = tensor(st, data.dl(t1, k1))
            got = _dl_orbit_coefficients(data, phi)
            want = _expected_orbit_coefficients(data, t1, k1)
            assert got == want, (t1, k1)


def _faulty_buckets(monkeypatch, fault):
    """Make every build apply fault to its Borel buckets."""
    build = CharacterData._build_borel_buckets

    def faulty(self):
        buckets = build(self)
        fault(self, buckets)
        return buckets

    monkeypatch.setattr(CharacterData, "_build_borel_buckets", faulty)


def _first_split_class(data):
    return next(i for i, rec in enumerate(data.table.classes) if rec.kind == "split_semisimple")


def _bump(data, buckets):
    bucket = buckets[_first_split_class(data)]
    d = min(bucket)
    bucket[d] += 1


def _move(data, buckets):
    bucket = buckets[_first_split_class(data)]
    d = min(bucket)
    bucket[d] -= 1
    bucket[(d + 1) % (data.p - 1)] = bucket.get((d + 1) % (data.p - 1), 0) + 1


@pytest.mark.parametrize("p", (7, 13))
@pytest.mark.parametrize("fault, k", [(_bump, 0), (_move, 1)])
def test_corrupted_borel_bucket_is_caught(monkeypatch, p, fault, k):
    """One Borel count changed: the degree (k = 0) sees a bumped count, only
    k = 1 sees a count moved to another dlog."""
    _faulty_buckets(monkeypatch, fault)
    with pytest.raises(TableValidationError, match=rf"^split torus character k={k}: induction and closed form disagree at p={p}$"):
        CharacterData(p)


def test_induction_falls_back_to_canonical_values(monkeypatch):
    """An induced map unequal to the closed form's but equal in value at some
    k is compared in canonical form there, not rejected: at p = 7 the
    counts +1, +1, -1, -1 at dlogs 0, 3, 1, 4 of an anisotropic class sum to
    zero at k = 0 and k = 1 (zeta_6^3 = -1), and first differ from zero at k = 2."""

    def fault(data, buckets):
        i = next(i for i, rec in enumerate(data.table.classes) if rec.kind == "nonsplit_semisimple")
        buckets[i].update({0: 1, 3: 1, 1: -1, 4: -1})

    _faulty_buckets(monkeypatch, fault)
    with pytest.raises(TableValidationError, match=r"^split torus character k=2: induction and closed form disagree at p=7$"):
        CharacterData(7)


def test_induction_is_proved_in_integers_on_true_tables():
    """The integer comparison settles every class of a true table, so no cell
    falls back to canonical forms."""
    for p in primes_in_range(7, 43):
        assert get_data(p).borel_fallbacks == 0, p


@pytest.mark.parametrize("p", [*primes_in_range(7, 101), 199])
def test_borel_buckets_equal_the_per_element_oracle(p):
    """Counting the p elements of each a != +-1 at once gives the buckets of
    classifying every Borel element one by one."""
    from types import SimpleNamespace

    from dlcusp.group import build_conjugacy_table, build_torus

    table = build_conjugacy_table(p)
    torus = build_torus(table, "split")
    built = CharacterData._build_borel_buckets(SimpleNamespace(p=p, table=table, split_torus=torus))
    assert built == propchecks.borel_buckets(p, table, torus)


def _closed(data, torus, ks, values, sign=1):
    """The closed-form rows of sign R_T^theta_k as class functions over values."""
    return [values.view(data.table, row) for row in data._closed_rows(torus, ks, values, sign)]


@pytest.mark.parametrize("p", (7, 11, 13, 31))
def test_cells_of_a_build_share_their_values(p):
    """The 2p(p + 4) closed-form Deligne-Lusztig cells of both tori are
    one id per distinct value (p + 4 of them for these p, zero included),
    the table holds each of its distinct values once (p + 12 of them from
    p = 11 on), and every cell of it is a view of its id: one value object
    per id."""
    from dlcusp.chartable import _Values

    data = get_data(p)
    values = _Values()
    rows = data._closed_rows("split", range(p - 1), values) + data._closed_rows("nonsplit", range(p + 1), values)
    assert sum(map(len, rows)) == 2 * p * (p + 4)
    assert len({i for row in rows for i in row}) == len(values) == p + 4
    assert len(data.values) == len(set(data.values)) == p + 12 - (p == 7) and data.values[0] == ZERO
    for irr in data.irreducibles:
        assert all(v is data.values[i] for v, i in zip(irr.chi.values, irr.ids))
    discrete = {i for irr in data.irreducibles if irr.label[0] == "discrete" for i in irr.ids}
    negated = {i for k in range(1, (p + 1) // 2) for i in rows[p - 1 + k]}
    assert len(discrete) == len(negated)


@pytest.mark.parametrize("p", [*primes_in_range(7, 43), 101])
def test_derived_dl_rows_equal_the_closed_form(p):
    """dl derives every R_T^theta from the irreducible table; at every k of
    both tori the row, and the signed sum of the rows dl_terms names, equal
    the build's closed form, value for value, and the build's anisotropic
    rows, -R, are the discrete rows."""
    from dlcusp.chartable import _Values

    data = get_data(p)
    values = _Values()
    for torus, n in (("split", p - 1), ("nonsplit", p + 1)):
        for k, closed in enumerate(_closed(data, torus, range(n), values)):
            assert data.dl(torus, k) == closed, (torus, k)
            assert data.dl(torus, k + n) is data.dl(torus, n - k)
            terms = dl_terms(p, torus, k)
            rows = [data.irreducible(*label).chi.scale(sign) for label, sign in terms]
            assert sum(rows[1:], rows[0]) == closed, (torus, k)
            if len(terms) == 1 and terms[0][1] == 1:  # an irreducible's own row
                assert data.dl(torus, k) is data.irreducible(*terms[0][0]).chi
    for k, row in enumerate(_closed(data, "nonsplit", range(1, (p + 1) // 2), values, sign=-1), 1):
        assert row == data.irreducible("discrete", k).chi


@pytest.mark.parametrize("p", (7, 11, 13, 31))
def test_degree_square_sum_oracle(p):
    """validate_table no longer sums the degree squares: with each degree
    checked to be chi(1), the column relation at the identity implies it."""
    data = get_data(p)
    assert sum(irr.degree**2 for irr in data.irreducibles) == data.table.group_order


def test_swapped_degrees_are_caught(data7):
    """Swapping two stored degrees keeps their square sum; the audit of each
    degree against the value at the identity names the row."""
    import copy

    broken = copy.copy(data7)
    swap = {("principal", 1): ("discrete", 1), ("discrete", 1): ("principal", 1)}
    broken.irreducibles = tuple(
        type(irr)(irr.label, irr.chi, data7.irreducible(*swap[irr.label]).degree) if irr.label in swap else irr
        for irr in data7.irreducibles
    )
    with pytest.raises(TableValidationError, match=r"^principal\(1\) has degree 6 but chi\(1\) = 1: 8 at p=7$"):
        validate_table(broken)


# -- one pair per Galois orbit ------------------------------------------------------


def _id_rows(data):
    """The id rows, distinct values, value ids and common order validate_table pairs."""
    from dlcusp.cyclotomic import _common_frame

    ids = {ZERO: 0}
    rows = [[ids.setdefault(v, len(ids)) for v in irr.chi.values] for irr in data.irreducibles]
    values = list(ids)
    return rows, values, ids, _common_frame(values)[0]


def _orbit_minima(perms, n):
    """The least pair i <= j of each component of the pair graph under perms,
    edges taken both ways: a union-find over all n^2 pairs, whose roots are
    kept at the least index i * n + j (lexicographic order)."""
    parent = list(range(n * n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in perms:
        for i in range(n):
            for j in range(i, n):
                a, b = sorted((perm[i], perm[j]))
                if a >= 0:
                    ra, rb = find(i * n + j), find(a * n + b)
                    parent[max(ra, rb)] = min(ra, rb)
    return sorted({divmod(find(i * n + j), n) for i in range(n) for j in range(i, n)})


@pytest.mark.parametrize("p", primes_in_range(7, 43))
def test_each_chosen_unit_permutes_the_rows(p):
    """sigma_u of each unit validate_table applies maps every row of a built
    table to a row of it, value for value, and the pairs fall into fewer orbits."""
    from dlcusp.chartable import _galois_units, _pair_representatives, _row_permutations

    data = get_data(p)
    irrs, n = data.irreducibles, len(data.irreducibles)
    rows, values, ids, order = _id_rows(data)
    perms = _row_permutations(rows, values, ids, order)
    units = _galois_units(order)
    assert len(perms) == len(units) == 3
    for u, perm in zip(units, perms):
        assert sorted(perm) == list(range(n)), u
        for irr, image in zip(irrs, perm):
            assert [v.galois(u) for v in irr.chi.values] == list(irrs[image].chi.values), (u, irr.label)
    assert len(_pair_representatives(perms, n)) < n * (n + 1) // 2


@pytest.mark.parametrize("p", (7, 11, 13, 31))
def test_representatives_are_the_orbit_minima(p):
    """The flat search picks the least pair of each orbit, each once and in
    lexicographic order, and validate_table pairs every one of them."""
    from dlcusp.chartable import _pair_representatives, _row_permutations

    data = get_data(p)
    n = len(data.irreducibles)
    perms = _row_permutations(*_id_rows(data))
    reps = _pair_representatives(perms, n)
    assert reps == _orbit_minima(perms, n)
    assert _pair_representatives([], n) == [(i, j) for i in range(n) for j in range(i, n)]
    assert validate_table(data)["pairs_paired"] == len(reps)


def test_a_repeated_row_gets_the_full_loop_and_the_oracles_message(data7):
    """A table with two equal rows uses no orbits, and fails with the
    message of the cell-by-cell pair loop, for every choice of the pair."""
    import copy

    from dlcusp.chartable import _row_permutations

    irrs = data7.irreducibles
    for i, src in enumerate(irrs):
        for j, dst in enumerate(irrs):
            if i == j:
                continue
            broken = copy.copy(data7)
            broken.irreducibles = irrs[:j] + (type(dst)(dst.label, src.chi, dst.degree),) + irrs[j + 1:]
            assert _row_permutations(*_id_rows(broken)) == []
            want = _outcome(propchecks.check_row_orthonormality, broken)
            assert want is not None and _outcome(validate_table, broken) == want, (i, j)


@pytest.mark.parametrize("p", (7, 13))
def test_a_row_scaled_by_two_fails_only_its_norm(p):
    """2 chi stays orthogonal to every other row, so only the pair (chi, chi)
    fails, wherever it falls in the order of representatives."""
    data = get_data(p)
    for row, irr in enumerate(data.irreducibles):
        broken = propchecks.with_row(data, row, irr.chi.scale(2))
        want = _outcome(propchecks.check_row_orthonormality, broken)
        assert want == f"<{irr.name}, {irr.name}> = 1: 4 at p={p}"
        assert _outcome(validate_table, broken) == want


def test_galois_action_commutes_with_the_pairing(data13):
    """<sigma phi, sigma psi> = sigma <phi, psi> on random class functions,
    the identity the orbit argument rests on."""
    import random

    rng = random.Random(13)
    table = data13.table

    def value():
        return ZERO if rng.random() < 0.2 else propchecks.random_cyc(rng, rng.choice((12, 28, 100, 52)))

    for _ in range(10):
        phi = ClassFunction(table, [value() for _ in range(len(table))])
        psi = ClassFunction(table, [value() for _ in range(len(table))]) + phi.scale(rng.randint(-2, 2))
        for u in (11, 17, 19):
            sigma_phi, sigma_psi = (ClassFunction(table, [v.galois(u) for v in f.values]) for f in (phi, psi))
            assert inner_product(sigma_phi, sigma_psi) == inner_product(phi, psi).galois(u)


# -- labels ---------------------------------------------------------------------------


def _relabelled(data, relabel):
    """A shallow copy of data whose irreducibles carry relabel.get(label, label)."""
    import copy

    broken = copy.copy(data)
    broken.irreducibles = tuple(
        type(irr)(relabel.get(irr.label, irr.label), irr.chi, irr.degree) for irr in data.irreducibles
    )
    return broken


@pytest.mark.parametrize(
    "relabel, message",
    [
        # both non-trivial on the center: every other check of the table passes
        ({("principal", 1): ("principal", 3), ("principal", 3): ("principal", 1)},
         r"principal\(1\) is 1: 0 at the split torus generator, not 12: -1\*z\^3 \+ -2\*z\^7 at p=13"),
        ({("discrete", 2): ("discrete", 4), ("discrete", 4): ("discrete", 2)},
         r"discrete\(2\) is .* at the nonsplit torus generator, not .* at p=13"),
        ({("exceptional_split_plus",): ("exceptional_split_minus",),
          ("exceptional_split_minus",): ("exceptional_split_plus",)},
         r"exceptional_split_plus - exceptional_split_minus is not the Gauss sum at the unipotent class \(1, 1\) at p=13"),
        ({("exceptional_nonsplit_plus",): ("exceptional_nonsplit_minus",),
          ("exceptional_nonsplit_minus",): ("exceptional_nonsplit_plus",)},
         r"exceptional_nonsplit_plus - exceptional_nonsplit_minus is not the Gauss sum .* at p=13"),
        ({("principal", 1): ("discrete", 1), ("discrete", 1): ("principal", 1)},
         r"discrete\(1\) has degree 14, not 12 at p=13"),
        ({("principal", 1): ("principal", 6)}, r"unexpected or repeated label \['principal', 6\] at p=13"),
        ({("principal", 1): ("principal", 2)}, r"unexpected or repeated label \['principal', 2\] at p=13"),
        ({("steinberg",): ("st",)}, r"unexpected or repeated label \['st'\] at p=13"),
    ],
)
def test_each_label_must_name_its_row(data13, relabel, message):
    """Rows under the wrong labels keep the table orthonormal, dual-closed
    and each degree equal to chi(1); the label audit names the first one."""
    broken = _relabelled(data13, relabel)
    assert _outcome(propchecks.check_row_orthonormality, broken) is None
    with pytest.raises(TableValidationError, match=f"^{message}$"):
        validate_table(broken)


@pytest.mark.parametrize("p", primes_in_range(7, 43))
def test_built_labels_name_their_rows(p):
    """Every built table passes the label audit, so its conditions are the
    paper's: theta_k at the torus generators and +tau at the class (1, 1)."""
    from dlcusp.chartable import _check_labels

    _check_labels(get_data(p))
