from fractions import Fraction

import pytest

from dlcusp.chartable import CharacterData, TableValidationError, dl_terms, quadratic_character_index, validate_table
from dlcusp.classfun import ClassFunction, dual, inner_product
from dlcusp.cyclotomic import ONE, ZERO
from dlcusp.numtheory import primes_in_range

import propchecks
from conftest import get_data
from propchecks import (
    TorusCharacter,
    induced_torus_character,
    lemma_tensor_sign,
    root_of_unity,
    scaled,
    steinberg_tensor_identity_holds,
    tensor,
    trivial_character,
)


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
        assert r == trivial_character(data.table) + -data.irreducible("steinberg").chi
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
    broken = propchecks.with_row(data7, 1, data7.irreducibles[1].chi + trivial_character(data7.table))
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
    row, irr = next((i, irr) for i, irr in enumerate(data.irreducibles) if irr.label == label)
    idx = next(
        i for i, (rec, v) in enumerate(zip(data.table.classes, irr.chi.values))
        if rec.kind == class_kind and not v.is_zero()
    )
    return propchecks.with_cell(data, row, idx, new_value(irr.chi.values[idx]))


def test_negated_principal_series_value_is_caught(data7):
    broken = _with_value(data7, ("principal", 1), "split_semisimple", lambda v: -v)
    with pytest.raises(TableValidationError, match=r"^principal\(1\) is 1: 1 at class 6 \(split_semisimple\), not 1: -1 at p=7$"):
        validate_table(broken)


def test_only_a_passing_audit_marks_a_table(monkeypatch):
    """A build starts unaudited, a failing validate_table leaves a table so,
    and a passing one marks it: ensure_audited then audits it no more."""
    import dlcusp.chartable
    from dlcusp.chartable import ensure_audited

    data = CharacterData(7)
    broken = _with_value(data, ("principal", 1), "split_semisimple", lambda v: -v)
    assert not data._audited and not broken._audited
    with pytest.raises(TableValidationError):
        validate_table(broken)
    assert not broken._audited
    validate_table(data)
    assert data._audited
    audits = []
    monkeypatch.setattr(dlcusp.chartable, "validate_table", lambda d: audits.append(d.p))
    ensure_audited(data)
    ensure_audited(broken)
    assert audits == [7]


def test_every_set_clears_the_mark():
    """A cache load and a with_row copy of an audited table each set the
    rows afresh, so each starts unaudited."""
    data = CharacterData(7)
    validate_table(data)
    loaded = CharacterData.from_json_dict(data.to_cache_dict())
    copied = propchecks.with_row(data, 0, data.irreducibles[0].chi)
    assert data._audited and not loaded._audited and not copied._audited


def test_changed_exceptional_value_at_unipotent_class_is_caught(data7):
    broken = _with_value(data7, ("exceptional_split_plus",), "unipotent", lambda v: v + 1)
    with pytest.raises(TableValidationError, match=r"^exceptional_split_plus is .* at class 2 \(unipotent\), not .* at p=7$"):
        validate_table(broken)
    assert _outcome(validate_table, broken) == propchecks.pin_message(data7, broken)


def _outcome(check, data, *args):
    try:
        check(data, *args)
    except TableValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("p", (7, 11, 13, 31, 43))
def test_audit_agrees_with_the_cell_by_cell_oracle(p):
    """On seeded single-cell faults validate_table raises exactly when the
    pin's oracle (propchecks.first_difference) finds a row that differs
    from the build's, with the message it gives.  Most of these faults
    leave the closed coordinates."""
    data = get_data(p)
    assert _outcome(validate_table, data) is propchecks.pin_message(data, data) is None
    changed = 0
    for broken in propchecks.single_cell_faults(data, count=40):
        want = propchecks.pin_message(data, broken)
        assert _outcome(validate_table, broken) == want
        # negating or rotating a zero cell changes nothing
        assert (want is not None) == (broken.irreducibles != data.irreducibles)
        changed += want is not None
    assert changed >= 20


@pytest.mark.parametrize("p", (7, 13, 43))
def test_faults_in_closed_coordinates_agree_with_the_oracle(p):
    """Seeded single-cell faults that keep every value in closed coordinates
    (another c_e at a torus class, tau added at a unipotent or central
    class, a negation), which the pin compares in ids and coordinates:
    validate_table raises exactly when the pin's oracle finds a row that
    differs from the build's, with its message."""
    data = get_data(p)
    changed = 0
    for broken in propchecks.closed_cell_faults(data):
        assert None not in broken.coordinates.coords
        want = propchecks.pin_message(data, broken)
        assert _outcome(validate_table, broken) == want
        assert (want is not None) == (broken.irreducibles != data.irreducibles)
        changed += want is not None
    assert changed >= 20


@pytest.mark.parametrize("p", (11, 13, 43))
@pytest.mark.parametrize(
    "kind, fault",
    [
        ("split_semisimple", lambda p, v: v + root_of_unity(p)),
        ("unipotent", lambda p, v: v + root_of_unity(p - 1)),
        ("nonsplit_semisimple", lambda p, v: root_of_unity(p - 1) + root_of_unity(p - 1, -1)),  # split c_1
    ],
    ids=["split-plus-zeta_p", "unipotent-plus-zeta_p-1", "split-c1-at-nonsplit"],
)
def test_faults_outside_closed_coordinates_get_the_oracles_message(p, kind, fault):
    """A cell the closed coordinates do not place on its own class (a value
    without coordinates, or c_e of the split torus at a nonsplit class)
    fails the pin, with the message of its oracle."""
    data = get_data(p)
    cls = next(c for c, rec in enumerate(data.table.classes) if rec.kind == kind)
    for label in (("trivial",), ("principal", 1), ("exceptional_nonsplit_plus",)):
        row = next(i for i, irr in enumerate(data.irreducibles) if irr.label == label)
        broken = propchecks.with_cell(data, row, cls, fault(p, data.irreducibles[row].chi.values[cls]))
        x = broken.coordinates.coords[broken.irreducibles[row].ids[cls]]
        assert x is None or x[2] == p - 1, label
        want = propchecks.pin_message(data, broken)
        assert want is not None and _outcome(validate_table, broken) == want, label


def test_huge_coefficient_is_rejected(data7):
    """A cell with a coefficient far above |G| is still rejected, with the
    oracle's message: the canonical values have no size bound."""
    row = next(i for i, irr in enumerate(data7.irreducibles) if irr.label == ("principal", 1))
    cls = next(i for i, rec in enumerate(data7.table.classes) if rec.kind == "split_semisimple")
    value = data7.irreducibles[row].chi.values[cls] + root_of_unity(6, 1).scale(2**70 + 1)
    broken = propchecks.with_cell(data7, row, cls, value)
    want = propchecks.pin_message(data7, broken)
    assert want is not None and "1180591620717411303425" in want
    assert _outcome(validate_table, broken) == want


def test_the_audit_holds_no_memo_of_products():
    """validate_table's traced peak on the built p = 101 table stays under
    0.5 MiB: each row's pairings are summed in one frame and dropped, so no
    product outlives its row."""
    import tracemalloc

    data = get_data(101)
    tracemalloc.start()
    try:
        validate_table(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024, peak


def _cells(doc):
    """The value ids of every six cell of a cache document's irreducibles."""
    return [i for d in doc["irreducibles"] for i in d["six"]]


def test_cache_load_parses_each_distinct_text_once(data7, monkeypatch):
    from dlcusp.cyclotomic import CycNumber

    doc = data7.to_cache_dict()
    parse = CycNumber.from_text
    seen = []
    monkeypatch.setattr(CycNumber, "from_text", classmethod(lambda cls, text: seen.append(text) or parse(text)))
    loaded = CharacterData.from_json_dict(doc)
    assert seen == doc["six_values"] and len(seen) == len(set(seen)) < len(_cells(doc))
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
    six ids are the irreducibles' six cells."""
    built = get_data(p)
    loaded = CharacterData.from_json_dict(built.to_cache_dict())
    six = built.six_classes
    for data in (built, loaded):
        want = _per_cell_document(data)
        assert data.to_json_dict() == want
        cache = data.to_cache_dict()
        texts = [[cache["six_values"][i] for i in d["six"]] for d in cache["irreducibles"]]
        assert texts == [[d["values"][c] for c in six] for d in want["irreducibles"]]
        assert len(cache["six_values"]) == len({t for row in texts for t in row}) + ("1: 0" not in sum(texts, []))


def test_non_canonical_copy_of_a_repeated_text_is_rebuilt(data7, tmp_path):
    """Parsing once per distinct text still checks every text: a value
    written non-canonically, where many cells read it, is refused."""
    import cachefiles
    from dlcusp.cli import load_character_data

    doc = data7.to_cache_dict()
    one = doc["six_values"].index("1: 1")
    assert _cells(doc).count(one) >= 6  # the trivial row's six cells
    doc["six_values"][one] = "1: 2/2"
    with pytest.raises(ValueError, match="non-canonical"):
        CharacterData.from_json_dict(doc)
    cachefiles.write(tmp_path, 7, doc)
    data, hit = load_character_data(7, tmp_path)
    assert not hit and cachefiles.read(tmp_path, 7) == data7.to_cache_dict()


def test_dual_closure():
    for p in (7, 11, 13):
        propchecks.check_dual_closure(get_data(p))


def _flipped_central_sign(data7):
    """data7 with its split exceptional pair rebuilt with the wrong central
    sign in the difference, and that pair."""
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
    plus = scaled(base + delta, Fraction(1, 2))
    minus = scaled(base + (-delta), Fraction(1, 2))
    broken = data7
    for i, irr in enumerate(data7.irreducibles):
        if irr.label[0].startswith("exceptional_split_"):
            broken = propchecks.with_row(broken, i, plus if irr.label == ("exceptional_split_plus",) else minus)
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
    """The center check, which validate_table's pin implies and which lives
    on as the oracle propchecks.check_center, on rows whose center does not
    act by chi(-1)/chi(1): the flipped sign, a value at -I that is not
    +-chi(1), and one class of an odd row not negated at -g."""
    propchecks.check_center(data7)
    with pytest.raises(TableValidationError, match=f"^the center does not act on {message} at p=7$"):
        propchecks.check_center(plant(data7))


@pytest.mark.parametrize("p", primes_in_range(7, 101))
def test_the_checks_the_pin_implies_hold_on_every_built_table(p):
    """The four checks validate_table dropped for its pin still hold on
    every built table: the center acts by chi(-1)/chi(1), the id rows are
    closed under duality, each degree is chi(1), and plus - minus is the
    Gauss sum at the class (1, 1)."""
    data = get_data(p)
    propchecks.check_center(data)
    propchecks.check_id_row_duality(data)
    propchecks.check_degrees(data)
    propchecks.check_gauss_difference(data)


@pytest.mark.parametrize("p", [*primes_in_range(7, 43), 101])
def test_built_exceptional_pairs_pass_the_dropped_build_checks(p):
    """Each half equals (b +- delta)/2 made in ClassFunction arithmetic;
    sum, degree, norms, orthogonality and central character of both
    exceptional pairs, which validate_table implies and the build no longer
    checks, still hold on every built table."""
    propchecks.check_exceptional_pairs(get_data(p))


@pytest.mark.parametrize("p", [*primes_in_range(7, 43), 101])
def test_closed_rows_equal_the_per_cell_oracle(p):
    """propchecks.closed_rows, the write-out's oracle, which makes each
    distinct value once from per-class keys, gives the id rows and the
    values list of making and interning every cell's exponent map in turn:
    at every k of both tori, with the sign 1 in increasing and the sign -1
    in shuffled order of k."""
    import random

    from dlcusp.chartable import _Values
    from dlcusp.group import torus_order

    data = get_data(p)
    for torus in ("split", "nonsplit"):
        ks = list(range(torus_order(p, torus)))
        shuffled = random.Random(p).sample(ks, len(ks))
        for sign, order in ((1, ks), (-1, shuffled)):
            got, want = _Values(), _Values()
            assert propchecks.closed_rows(data, torus, order, got, sign) == propchecks.closed_rows_oracle(data, torus, order, want, sign)
            assert list(got) == list(want), (torus, sign)


@pytest.mark.parametrize("p", [*primes_in_range(7, 43), 101])
def test_a_build_interns_values_in_the_order_of_their_first_cell(p):
    """A build writes its cells out from its patterns, each distinct value
    made once; its values list and id rows are those of interning every cell's
    value in turn, in the order the build makes its rows: the principal and
    discrete rows, then the trivial, Steinberg and exceptional rows.  So
    the cache bytes do not depend on how the values were found."""
    from dlcusp.chartable import _Values

    data = get_data(p)
    values = _Values()
    order = sorted(data.irreducibles, key=lambda irr: irr.label[0] not in ("principal", "discrete"))
    rows = {irr.label: tuple(map(values.intern, irr.chi.values)) for irr in order}
    assert list(values) == list(data.values)
    assert [rows[irr.label] for irr in data.irreducibles] == [irr.ids for irr in data.irreducibles]


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
    lhs = scaled(tensor(st, data7.dl("split", k)), -lemma_tensor_sign("split"))
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
            rebuilt = rebuilt + scaled(data.dl(torus, k), c)
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
    """The integer comparison settles every class of a true table: at every
    class the induced integer map is the closed form's, so no class is
    compared in canonical form."""
    for p in primes_in_range(7, 43):
        data = get_data(p)
        buckets, closed = data._build_borel_buckets(), data._closed_form("split")
        for c, rec in enumerate(data.table.classes):
            assert {d: count * rec.centralizer_order for d, count in buckets[c].items()} == closed[c], (p, c)


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
    return [values.view(data.table, row) for row in propchecks.closed_rows(data, torus, ks, values, sign)]


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
    rows = propchecks.closed_rows(data, "split", range(p - 1), values) + propchecks.closed_rows(data, "nonsplit", range(p + 1), values)
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
            rows = [scaled(data.irreducible(*label).chi, sign) for label, sign in terms]
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
    label's degree against its family's names the row."""
    broken = data7
    swap = {("principal", 1): ("discrete", 1), ("discrete", 1): ("principal", 1)}
    for i, irr in enumerate(data7.irreducibles):
        if irr.label in swap:
            broken = propchecks.with_row(broken, i, irr.chi, degree=data7.irreducible(*swap[irr.label]).degree)
    with pytest.raises(TableValidationError, match=r"^principal\(1\) has degree 6, not 8 at p=7$"):
        validate_table(broken)


# -- the pairing: every pair in lexicographic order ----------------------------------


@pytest.mark.parametrize("p", primes_in_range(7, 101))
def test_every_built_row_has_its_familys_pattern(p):
    """Each row of a built table is, on the regular classes of each torus,
    the ids its label's family's pattern (2a, k) wants there (_families,
    _torus_patterns), and holds r + s tau at its six other cells: the
    pattern validate_table's pairs take from the label is the row's own."""
    from dlcusp.chartable import _families, _torus_patterns

    data = get_data(p)
    tori, coords = _torus_patterns(data), data.coordinates.coords
    six = [c for c, rec in enumerate(data.table.classes) if rec.kind in ("central", "unipotent")]
    for irr in data.irreducibles:
        patterns = _families(p, *irr.label[1:])[irr.label[0]][1:3]
        for (torus, cells, wanted), pattern in zip(tori, patterns):
            assert tuple(irr.ids[c] for c, _ in cells) == wanted[pattern], (irr.label, torus.torus_type)
        assert all(coords[irr.ids[c]][2] == 0 for c in six), irr.label


def _canonical_cos_sum(n, pairs):
    """sum over the (x, y) pairs of c_x c_y at order n, multiplied out
    term by term and reduced once to canonical form (the integer frame)."""
    from dlcusp.cyclotomic import CycNumber, _raw_dot

    def c(x):
        raw = {}
        for e in (x % n, -x % n):
            raw[e] = raw.get(e, 0) + 1
        return raw

    return CycNumber._from_numerators(n, _raw_dot(n, ((1, c(x), c(y)) for x, y in pairs)), 1)


@pytest.mark.parametrize("n", sorted({p + s for p in primes_in_range(7, 101) for s in (-1, 1)} | {398, 400, 598, 600}))
def test_cos_sums_are_the_canonical_sums(n):
    """S(m) = sum_(0<d<n/2) c_md: summed in canonical form at every divisor
    m of n, and S(m) = S(gcd(m, n)) at every index -n <= m < 2n, as the
    true sum is (sigma_u permutes the d for u prime to n, which is odd and
    so fixes n/2)."""
    from math import gcd

    from dlcusp.chartable import _cos_sums

    sums = _cos_sums(n)
    for m in (m for m in range(1, n + 1) if n % m == 0):
        assert _canonical_cos_sum(n, [(m * d, 0) for d in range(1, n // 2)]) == 2 * sums[m], m  # c_0 = 2
    assert [sums[m] for m in range(-n, 2 * n)] == [sums[gcd(m, n)] for m in range(-n, 2 * n)]


@pytest.mark.parametrize("p", primes_in_range(7, 43))
def test_pattern_pairs_are_the_canonical_torus_sums(p):
    """For every two patterns (2a, k), (2b, l) validate_table reads on a
    torus, 4 ab (S(k + l) + S(k - l)), as the pairing indexes _cos_sums, is
    4 sum_(0<d<n/2) (a c_kd)(b c_ld) summed in canonical form."""
    from dlcusp.chartable import _cos_sums, _torus_patterns

    for torus, cells, wanted in _torus_patterns(get_data(p)):
        n, sums = torus.order, _cos_sums(torus.order)
        patterns = list(wanted)
        for i, (a, k) in enumerate(patterns):
            for b, l in patterns[i:]:
                got = a * b * (sums[k + l] + sums[k - l])
                want = _canonical_cos_sum(n, [(k * d, l * d) for d in range(1, n // 2)]).scale(a * b)
                assert want == got, (torus.torus_type, (a, k), (b, l))


@pytest.mark.parametrize("p", primes_in_range(7, 101))
def test_a_built_table_is_paired_by_its_patterns_alone(monkeypatch, p):
    """validate_table pairs every pair of a built table in O(1): it reaches
    neither per-cell kernel."""
    import dlcusp.classfun

    def unreachable(*args):
        raise AssertionError("a per-cell kernel was reached")

    monkeypatch.setattr(dlcusp.classfun, "closed_pairings", unreachable)
    monkeypatch.setattr(dlcusp.classfun, "closed_sum", unreachable)
    assert validate_table(get_data(p))["orthonormal"]


def _on_torus(label, kind, cells):
    """A plant: a copy of data whose row label takes cells(data, c, value)
    at each class c of kind."""
    def plant(data):
        row = next(i for i, irr in enumerate(data.irreducibles) if irr.label == label)
        kinds = [rec.kind for rec in data.table.classes]
        values = [cells(data, c, v) if kinds[c] == kind else v for c, v in enumerate(data.irreducibles[row].chi.values)]
        return propchecks.with_row(data, row, ClassFunction(data.table, values))

    return plant


def _with_cos(label, kind):
    """A plant: a copy whose row label holds c_1 of the split torus at the
    first class of kind."""
    def plant(data):
        row = next(i for i, irr in enumerate(data.irreducibles) if irr.label == label)
        cls = next(c for c, rec in enumerate(data.table.classes) if rec.kind == kind)
        return propchecks.with_cell(data, row, cls, root_of_unity(data.p - 1) + root_of_unity(data.p - 1, -1))

    return plant


def _rotated(k, k2):
    """A plant: a copy whose principal(k) and principal(k2) rows, chi and
    psi, are (3 chi + 4 psi)/5 and (4 chi - 3 psi)/5.  The change of basis
    is orthogonal, so the table stays orthonormal, and each row keeps its
    label and its stored degree."""
    def plant(data):
        (i, chi), (j, psi) = ((i, irr.chi) for i, irr in enumerate(data.irreducibles)
                              if irr.label in (("principal", k), ("principal", k2)))
        a, b = Fraction(3, 5), Fraction(4, 5)
        broken = propchecks.with_row(data, i, scaled(chi, a) + scaled(psi, b))
        return propchecks.with_row(broken, j, scaled(chi, b) + scaled(psi, -a))

    return plant


_PLANTED = {
    # a principal row with the split torus cells of another principal row
    **{f"p{p}-principal{k}-with-principal{k2}s-cells":
       (p, _on_torus(("principal", k), "split_semisimple", lambda data, c, v, k2=k2: data.irreducible("principal", k2).chi.values[c]))
       for p, k, k2 in [(7, 1, 2), (13, 2, 5), (13, 5, 1), (43, 3, 20)]},
    # a discrete row negated on its own torus only, so c_kd there
    **{f"p{p}-discrete{k}-negated-on-its-torus": (p, _on_torus(("discrete", k), "nonsplit_semisimple", lambda data, c, v: -v))
       for p, k in [(11, 1), (13, 3), (43, 10)]},
    # c_1 of the split torus at a central or unipotent class, where every row holds r + s tau
    **{f"p{p}-{label[0]}-c1-at-{kind}": (p, _with_cos(label, kind))
       for p in (13, 43) for kind in ("central", "unipotent")
       for label in (("trivial",), ("principal", 1), ("exceptional_nonsplit_plus",))},
    "p7-principal1-2-rotated": (7, _rotated(1, 2)),
    "p13-principal2-5-rotated": (13, _rotated(2, 5)),
}


@pytest.mark.parametrize("p, plant", _PLANTED.values(), ids=_PLANTED)
def test_a_planted_row_gets_the_pins_oracle_message(p, plant):
    """Rows that have some family's shape on a torus, or hold closed
    coordinates everywhere, or keep the table orthonormal, still differ
    from their family's closed values somewhere; validate_table names the
    first, with the message of the pin's oracle."""
    data = get_data(p)
    broken = plant(data)
    want = propchecks.pin_message(data, broken)
    assert want is not None and _outcome(validate_table, broken) == want


def test_the_rotated_principal_rows_stay_orthonormal():
    """The rotated rows keep every pair, so only the pin refuses them."""
    for p, plant in (_PLANTED["p7-principal1-2-rotated"], _PLANTED["p13-principal2-5-rotated"]):
        assert _outcome(propchecks.check_row_orthonormality, plant(get_data(p))) is None


def test_a_repeated_row_gets_the_full_loop_and_the_oracles_message(data7):
    """A table with two equal rows fails with the message of the pin's
    oracle, for every choice of the pair."""
    irrs = data7.irreducibles
    for i, src in enumerate(irrs):
        for j in range(len(irrs)):
            if i == j:
                continue
            broken = propchecks.with_row(data7, j, src.chi)
            want = propchecks.pin_message(data7, broken)
            assert want is not None and _outcome(validate_table, broken) == want, (i, j)


@pytest.mark.parametrize("p", (7, 13))
def test_a_row_scaled_by_two_fails_only_its_norm(p):
    """2 chi stays orthogonal to every other row, so of all pairs only (chi,
    chi) fails; the pin, which runs first, names the row at its first
    non-zero cell, with the message of its oracle."""
    data = get_data(p)
    for row, irr in enumerate(data.irreducibles):
        broken = propchecks.with_row(data, row, scaled(irr.chi, 2))
        assert _outcome(propchecks.check_row_orthonormality, broken) == f"<{irr.name}, {irr.name}> = 1: 4 at p={p}"
        want = propchecks.pin_message(data, broken)
        assert want is not None and _outcome(validate_table, broken) == want


def test_the_pair_check_fires_on_a_table_a_wrong_closed_form_pins(monkeypatch, data7):
    """With discrete's closed value at the unipotent class (s, r) made s^k
    in place of -s^k, and the discrete rows planted to match, the pin
    passes; the pairs then fail, with the message of the cell-by-cell pair
    loop (propchecks.check_row_orthonormality)."""
    import dlcusp.chartable
    from dlcusp.chartable import _pin_rows

    families = dlcusp.chartable._families

    def wrong(p, k=0):
        out = families(p, k)
        deg, split, nonsplit, _, t = out["discrete"]
        out["discrete"] = (deg, split, nonsplit, 2, t)
        return out

    broken, table = data7, data7.table
    for row, irr in enumerate(data7.irreducibles):
        if irr.label[0] == "discrete":
            values = [rec.key[0] ** irr.label[1] if rec.kind == "unipotent" else v
                      for rec, v in zip(table.classes, irr.chi.values)]
            broken = propchecks.with_row(broken, row, ClassFunction(table, values))
    monkeypatch.setattr(dlcusp.chartable, "_families", wrong)
    _pin_rows(broken)
    want = _outcome(propchecks.check_row_orthonormality, broken)
    assert want == "<trivial, discrete(2)> = 1: 4/7 at p=7"  # s^k sums to 0 over the unipotent classes at odd k
    assert _outcome(validate_table, broken) == want


# -- labels ---------------------------------------------------------------------------


def _relabelled(data, relabel):
    """A shallow copy of data whose irreducibles carry relabel.get(label, label)."""
    broken = data
    for i, irr in enumerate(data.irreducibles):
        if irr.label in relabel:
            broken = propchecks.with_row(broken, i, irr.chi, label=relabel[irr.label])
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
         r"exceptional_split_plus is 13: 1 \+ .* at class 2 \(unipotent\), not 13: -1\*z\^2 \+ .* at p=13"),
        ({("exceptional_nonsplit_plus",): ("exceptional_nonsplit_minus",),
          ("exceptional_nonsplit_minus",): ("exceptional_nonsplit_plus",)},
         r"exceptional_nonsplit_plus is .* at class 2 \(unipotent\), not .* at p=13"),
        ({("principal", 1): ("discrete", 1), ("discrete", 1): ("principal", 1)},
         r"discrete\(1\) has degree 14, not 12 at p=13"),
        ({("principal", 1): ("principal", 6)}, r"unexpected or repeated label \['principal', 6\] at p=13"),
        ({("principal", 1): ("principal", 2)}, r"unexpected or repeated label \['principal', 2\] at p=13"),
        ({("steinberg",): ("st",)}, r"unexpected or repeated label \['st'\] at p=13"),
    ],
    ids=("principal_1_3", "discrete_2_4", "exceptional_split", "exceptional_nonsplit", "principal_discrete_1",
         "principal_6", "principal_2_twice", "st"),
)
def test_each_label_must_name_its_row(data13, relabel, message):
    """Rows under the wrong labels keep the table orthonormal; the pin names
    the first one, by its label or its degree, or at the first class where
    its values are not its family's."""
    broken = _relabelled(data13, relabel)
    assert _outcome(propchecks.check_row_orthonormality, broken) is None
    with pytest.raises(TableValidationError, match=f"^{message}$"):
        validate_table(broken)


@pytest.mark.parametrize("p", primes_in_range(7, 43))
def test_built_labels_name_their_rows(p):
    """Every built table passes the pin cell by cell, on its cached copy,
    so its conditions are the paper's: theta_k at the torus generators and
    +tau at the class (1, 1)."""
    from dlcusp.chartable import _pin_rows

    _pin_rows(CharacterData.from_json_dict(get_data(p).to_cache_dict()))


@pytest.mark.parametrize(
    "label, cls, value, message",
    [
        # St is 0 at the unipotent classes
        (("steinberg",), 3, lambda data: ONE, r"steinberg is 1: 1 at class 3 \(unipotent\), not 1: 0"),
        # one exceptional half at the class (-1, 1) of -u takes its value at (-1, -1)
        (("exceptional_split_plus",), 4, lambda data: data.irreducible("exceptional_split_plus").chi.values[5],
         r"exceptional_split_plus is 7: 1\*z\^1 \+ 1\*z\^2 \+ 1\*z\^4 at class 4 \(unipotent\), "
         r"not 7: -1 \+ -1\*z\^1 \+ -1\*z\^2 \+ -1\*z\^4"),
        # principal(1) is 0 off its own torus; class 10 holds the nonsplit generator
        (("principal", 1), 10, lambda data: ONE, r"principal\(1\) is 1: 1 at the nonsplit torus generator, not 1: 0"),
    ],
    ids=("steinberg_at_u", "exceptional_at_minus_u", "principal_off_its_torus"),
)
def test_the_pin_names_a_planted_cell(data7, label, cls, value, message):
    """Single-cell faults at cells that no check but orthonormality read
    before the pin, given to the pin alone: its message names the row, the
    class, the cell's value there and its family's."""
    from dlcusp.chartable import _pin_rows

    row = next(i for i, irr in enumerate(data7.irreducibles) if irr.label == label)
    broken = propchecks.with_cell(data7, row, cls, value(data7))
    with pytest.raises(TableValidationError, match=f"^{message} at p=7$"):
        _pin_rows(broken)


@pytest.mark.parametrize("p", (7, 13))
def test_r_plus_s_tau_is_decoded_only_on_taus_exact_exponents(p):
    """ClosedCoordinates reads r + s tau off the numerators: r and s come
    back exactly, and a value with one exponent more or one fewer than tau
    off exponent 0 has no coordinates."""
    from dlcusp.chartable import ClosedCoordinates
    from dlcusp.cyclotomic import gauss_sum

    closed, tau = ClosedCoordinates(p, [ZERO], {ZERO: 0}), gauss_sum(p)
    r, s = Fraction(1, 3), Fraction(-2, 5)
    assert closed._exact(tau.scale(s) + r) == (r, s, 0, 0)
    assert closed._exact(tau) == (0, 1, 0, 0)
    spare = next(e for e in range(1, p - 1) if e not in tau.num)  # a basis exponent tau does not use
    used = next(e for e in tau.num if e)
    for v in (tau + root_of_unity(p, spare), tau - root_of_unity(p, used).scale(tau.num[used])):
        assert v.order == p and closed._exact(v) is None, v


# -- patterns: the write-out, pattern faults and grouped pairs --------------------


@pytest.mark.parametrize("p", primes_in_range(7, 101))
def test_a_built_table_writes_out_the_cell_by_cell_build(p):
    """A build keeps its rows' patterns and writes its cells out from
    them: its values, its id rows and its chartable document are those
    of the build that wrote every cell (propchecks.closed_form_table)."""
    import copy

    built = get_data(p)
    values, entries = propchecks.closed_form_table(built)
    oracle = copy.copy(built)
    oracle._set(values, entries)
    assert list(built.values) == list(values)
    assert [irr.ids for irr in built.irreducibles] == [ids for _, ids, _ in entries]
    assert built.to_json_dict() == oracle.to_json_dict()


def test_cells_written_out_before_the_audit_are_pinned_by_it(monkeypatch):
    """A table whose cells are read before its audit has them written out
    unpinned; its audit then pins them cell by cell, so a write-out fault
    is refused with the pin's message, though the patterns are right."""
    written_cells = CharacterData._written_cells

    def faulty(self):
        values, rows = written_cells(self)
        r = next(r for r, irr in enumerate(self.irreducibles) if irr.label == ("principal", 1))
        rows[r] = (*rows[r][:6], values.intern(-values[rows[r][6]]), *rows[r][7:])
        return values, rows

    monkeypatch.setattr(CharacterData, "_written_cells", faulty)
    data = CharacterData(7)
    assert data.irreducible("principal", 1).chi.values[6] == 1
    with pytest.raises(TableValidationError, match=r"^principal\(1\) is 1: 1 at class 6 \(split_semisimple\), not 1: -1 at p=7$"):
        validate_table(data)
    fresh = CharacterData(7)
    validate_table(fresh)
    with pytest.raises(TableValidationError, match=r"^principal\(1\) is 1: 1 at class 6"):
        fresh.irreducible("principal", 1).chi
    assert fresh._values is None and fresh._audited  # left unwritten, and still audited


def _pattern_fault(fault):
    """A planting of one fault in a built row: (label, patterns, six)."""
    def plant(data):
        row = next(i for i, irr in enumerate(data.irreducibles) if irr.label == fault[0])
        return propchecks.with_pattern(data, row, *fault[1](data))
    return plant


_PATTERN_FAULTS = {
    "wrong-k": (("principal", 1), lambda data: (((2, 2), (0, 0)), None)),
    "wrong-sign-of-a": (("discrete", 2), lambda data: (((0, 0), (2, 2)), None)),
    "wrong-sign-of-a-half": (("exceptional_split_minus",), lambda data: (((-1, (data.p - 1) // 2), (0, 0)), None)),
    "wrong-six-id": (("principal", 1), lambda data: (None, (*data.irreducible("principal", 1).six[:1],
                                                             *data.irreducible("principal", 2).six[1:2],
                                                             *data.irreducible("principal", 1).six[2:]))),
}


@pytest.mark.parametrize("p", (7, 13, 43))
@pytest.mark.parametrize("fault", _PATTERN_FAULTS.values(), ids=_PATTERN_FAULTS)
def test_a_pattern_fault_gets_the_pins_oracle_message(p, fault):
    """A built row with a wrong k, a wrong sign of a or a wrong
    six-cell id is refused with the message of the pin's oracle on the
    written-out table (propchecks.pin_message)."""
    data = get_data(p)
    broken = _pattern_fault(fault)(data)
    got = _outcome(validate_table, broken)  # first, on the table in pattern form: pin_message writes its cells out
    want = propchecks.pin_message(data, broken)
    assert want is not None and got == want


def _wrong_nonsplit_form(fault):
    """CharacterData._closed_form with the anisotropic map made wrong: its
    own-torus coefficient doubled, or the maps of its first two classes
    swapped."""
    closed_form = CharacterData._closed_form

    def wrong(self, torus_type):
        form = closed_form(self, torus_type)
        if torus_type == "nonsplit":
            own = [c for c, dmap in enumerate(form) if len(dmap) == 2]
            if fault == "doubled":
                form = [{d: 2 * u for d, u in dmap.items()} if c in own else dmap for c, dmap in enumerate(form)]
            else:
                form[own[0]], form[own[1]] = form[own[1]], form[own[0]]
        return form

    return wrong


@pytest.mark.parametrize("p", (7, 13, 29))
@pytest.mark.parametrize("fault", ("doubled", "swapped"))
def test_a_build_from_a_wrong_closed_form_is_refused(monkeypatch, p, fault):
    """The build reads its patterns and torus cells off _closed_form, which
    Borel induction does not check on the anisotropic torus.  A map made
    wrong there, with a doubled coefficient or two classes' maps swapped,
    gives a table the pin refuses, with its oracle's message: the patterns
    are the maps', not their families'."""
    built = get_data(p)
    monkeypatch.setattr(CharacterData, "_closed_form", _wrong_nonsplit_form(fault))
    broken = CharacterData(p)
    got = _outcome(validate_table, broken)  # first, on the table in pattern form: pin_message writes its cells out
    want = propchecks.pin_message(built, broken)
    assert want is not None and got == want


_PAIR_PLANTS = {
    "true": lambda data: data,
    "odd-row-with-even-six-cells": lambda data: propchecks.with_pattern(
        data, next(i for i, irr in enumerate(data.irreducibles) if irr.label == ("discrete", 3)), None,
        data.irreducible("discrete", 2).six),
    "doubled-pattern": lambda data: propchecks.with_pattern(data, 2, ((4, 1), (0, 0))),
    "doubled-discrete-pattern": lambda data: propchecks.with_pattern(
        data, next(i for i, irr in enumerate(data.irreducibles) if irr.label == ("discrete", 3)), ((0, 0), (-4, 3))),
}


@pytest.mark.parametrize("p", (7, 13, 31))
@pytest.mark.parametrize("plant", _PAIR_PLANTS.values(), ids=_PAIR_PLANTS)
def test_grouped_pairs_equal_the_pair_loop(p, plant):
    """_pair_rows, which sums each two family groups once, names the pair
    the cell-by-cell loop over every pair names (check_row_orthonormality),
    or none, on a built table and on planted tables the pin would
    refuse: an odd row with an even row's six cells, which shares its group
    but for the parity of k, and rows whose pattern is doubled, which only
    their norms tell."""
    from dlcusp.chartable import _pair_rows

    broken = plant(get_data(p))
    assert _outcome(_pair_rows, broken) == _outcome(propchecks.check_row_orthonormality, broken)


@pytest.mark.parametrize("p", primes_in_range(7, 43))
def test_grouped_pairs_pass_every_built_table(p):
    """Every built table in 7..43, and the same table loaded from its cache
    document, passes the grouped pairs, as it passes the loop over every
    pair."""
    from dlcusp.chartable import _pair_rows

    data = get_data(p)
    assert _outcome(_pair_rows, data) is None
    assert _outcome(_pair_rows, CharacterData.from_json_dict(data.to_cache_dict())) is None
