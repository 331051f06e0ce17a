from fractions import Fraction
from types import SimpleNamespace

import pytest

from dlcusp.cuspform import (
    TORI,
    VerificationError,
    classify_theta,
    corollary_all_appear,
    corollary_odd_multiplicity,
    decompose_dl,
    embedded_subgroups,
    embedding_pattern,
    linearity_fit,
    orbit_weight,
    paper_coefficients,
    remark_pipeline,
    verify_torus_placement,
    weinstein_character,
    _TABLE_OFFSETS,
)
from dlcusp.chartable import TableValidationError, validate_table
from dlcusp.classfun import ClassFunction, dual, inner_product
from dlcusp.group import torus_order
from dlcusp.numtheory import primes_in_range

import propchecks
from conftest import get_data
from propchecks import (
    naive_inner_product,
    remark_by_expansion,
    root_of_unity,
    scaled,
    table_offset,
    triangular_coefficients,
    weinstein_by_induction,
)


def test_degree_p7(data7):
    s = weinstein_character(data7)
    assert s.degree.as_rational() == 6


def test_degree_p11(data11):
    s = weinstein_character(data11)
    assert s.degree.as_rational() == 52
    # index arithmetic: 660 - 330 - 220 - 60 + 2
    assert 660 - 330 - 220 - 60 + 2 == 52


def test_center_acts_trivially_and_self_dual(data7):
    s = weinstein_character(data7)
    assert s.values[0] == s.values[1]
    assert dual(s) == s


def test_each_subgroup_embeds_in_exactly_one_torus():
    for p in primes_in_range(5, 600):
        pattern = embedding_pattern(p)
        assert sorted(pattern) == ["x", "y"], p
        for s, m in (("x", 4), ("y", 6)):
            assert [t for t in ("split", "nonsplit") if torus_order(p, t) % m == 0] == [pattern[s]], p


def test_embedding_pattern():
    assert embedding_pattern(13) == {"x": "split", "y": "split"}
    assert embedding_pattern(17) == {"x": "split", "y": "nonsplit"}
    assert embedding_pattern(7) == {"x": "nonsplit", "y": "split"}
    assert embedding_pattern(11) == {"x": "nonsplit", "y": "nonsplit"}
    assert embedded_subgroups(13, "split") == ("x", "y")
    assert embedded_subgroups(13, "nonsplit") == ()


def test_verify_torus_placement_matches_the_witness_oracle():
    """At every prime in 7..199 the placement read off the class table is
    embedding_pattern's, and the one that explicit conjugation witnesses
    give (propchecks.witness_placement, which replays each witness)."""
    for p in primes_in_range(7, 199):
        data = propchecks.placement_data(p)
        pattern = verify_torus_placement(data)
        assert pattern == embedding_pattern(p), p
        assert propchecks.witness_placement(data) == {key: [t] for key, t in pattern.items()}, p


def test_a_class_meets_a_torus_iff_its_representative_is_in_it():
    """The premise of (=>) in verify_torus_placement's proof, at every prime
    in 7..199: the classes that a torus's elements fall in are exactly the
    classes whose representative is in the torus."""
    for p in primes_in_range(7, 199):
        data = propchecks.placement_data(p)
        classes = data.table.classes
        for torus_type in TORI:
            torus = data.torus(torus_type)
            met = set(map(data.table.class_of, torus.elements))
            assert met == {c for c, rec in enumerate(classes) if rec.rep in torus.dlog}, (p, torus_type)


def test_classify_examples():
    # p=7: alpha on the anisotropic torus is trivial on the embedded order-4 subgroup
    assert classify_theta(7, "nonsplit", 4).label == "C"
    # p=11: alpha (k=6) is trivial on the embedded order-6 subgroup, not the order-4 one
    assert classify_theta(11, "nonsplit", 6).label == "D"
    assert classify_theta(11, "nonsplit", 4).label == "C"
    for p in (7, 11, 13, 17):
        assert classify_theta(p, "split", 0).label == "E"
        assert classify_theta(p, "nonsplit", 0).label == "E"
    # no embedded subgroup: everything lands in A
    assert classify_theta(13, "nonsplit", 2).label == "A"
    with pytest.raises(ValueError):
        classify_theta(13, "split", 3)  # non-trivial on the center


def test_classification_is_a_partition():
    for p in (13, 17, 19, 23):
        for torus in ("split", "nonsplit"):
            n = p - 1 if torus == "split" else p + 1
            for k in range(0, n, 2):
                assert classify_theta(p, torus, k).label in "ABCDE"


def test_paper_coefficients_spot_values():
    assert paper_coefficients(23)[("A", "split")] == 1
    assert paper_coefficients(7)[("C", "nonsplit")] == -1
    assert paper_coefficients(13)[("A", "split")] == 1
    assert paper_coefficients(13)[("B", "split")] == -1
    assert paper_coefficients(37)[("B", "split")] == 1
    assert paper_coefficients(17)[("D", "nonsplit")] == -2
    assert paper_coefficients(23)[("B", "nonsplit")] == -3


def test_offsets_follow_embedding_structure():
    for (label, torus), offsets in _TABLE_OFFSETS.items():
        for r in (1, 5, 7, 11):
            assert table_offset(label, torus, r) == offsets[r]


def test_decompose_p7(data7):
    res = decompose_dl(data7)
    assert res.exact and res.table_match
    nonzero = {k: c for k, c in res.coefficients.items() if c}
    assert nonzero == {("nonsplit", 4): Fraction(-1)}
    assert res.labels[("nonsplit", 4)].label == "C"


def test_decompose_p11(data11):
    res = decompose_dl(data11)
    assert res.exact and res.table_match
    assert res.coefficients[("nonsplit", 2)] == 0
    assert res.coefficients[("nonsplit", 4)] == -1
    assert res.coefficients[("nonsplit", 6)] == -1
    assert res.coefficients[("nonsplit", 0)] == -1
    assert res.coefficients[("split", 0)] == 1
    assert all(c == 0 for (t, k), c in res.coefficients.items() if t == "split" and k != 0)


def test_decomposition_degree_identity():
    for p in (7, 11, 13, 17, 19):
        data = get_data(p)
        s = weinstein_character(data)
        res = decompose_dl(data, s)
        total = Fraction(0)
        for (torus, k), c in res.coefficients.items():
            deg = p + 1 if torus == "split" else 1 - p
            total += c * deg * orbit_weight(p, torus, k)
        assert total == s.degree.as_rational()


@pytest.mark.parametrize("p", (7, 11, 13, 17, 19, 23))
def test_remark_pipeline_agrees(p):
    data = get_data(p)
    assert remark_pipeline(data) == decompose_dl(data).coefficients


def test_remark_pipeline_equals_the_expansion_it_replaces():
    """Each St (x) R as one constant per torus plus one point gives what
    expanding it over every character gave, at every prime in 7..199; fed
    the prime alone, remark_pipeline shows that it reads no table."""
    for p in primes_in_range(7, 199):
        assert remark_pipeline(SimpleNamespace(p=p)) == remark_by_expansion(p), p


def test_counted_s_equals_the_induced_s():
    """The permutation characters counted in rationals give, value for
    value, the s that induction and class-function sums give, at every
    prime in 7..101."""
    for p in primes_in_range(7, 101):
        data = get_data(p)
        assert weinstein_character(data).values == weinstein_by_induction(data).values, p


def test_alternative_reading_fails_at_p7(data7):
    res = decompose_dl(data7, reading="alternative")
    assert res.exact
    assert not res.table_match  # alpha would land in B with coefficient 0, but c = -1
    assert any(m["set_label"] == "B" for m in res.mismatches)


def test_alternative_reading_agrees_when_both_embed():
    res = decompose_dl(get_data(13), reading="alternative")
    assert res.exact and res.table_match  # readings only differ with one embedded subgroup


def test_corollary_odd_multiplicity_p23():
    data = get_data(23)
    rep = corollary_odd_multiplicity(data)
    assert rep.all_odd and rep.multiplicities == (3, 3)
    assert rep.virtual_character_real and rep.pair_dual_closed
    assert (23 - 11) // 12 + 2 == 3


def test_corollary_odd_multiplicity_guard(data13):
    with pytest.raises(ValueError):
        corollary_odd_multiplicity(data13)


def test_corollary_all_appear_p23():
    rep = corollary_all_appear(get_data(23))
    assert rep.complete and rep.missing == [] and rep.trivial_absent


def test_corollary_sharpness_below_23(data11, data13):
    rep11 = corollary_all_appear(data11)
    assert rep11.missing and rep11.trivial_absent
    assert any(name.startswith("principal") for name in rep11.missing)
    rep13 = corollary_all_appear(data13)
    assert "steinberg" in rep13.missing


def test_linearity_fit():
    results = [decompose_dl(get_data(p)) for p in (13, 17, 19, 23, 29, 31, 37, 41, 43, 47)]
    report = linearity_fit(results)
    assert report.ok
    assert report.fits[("A", "split", 1)] == (Fraction(1, 12), Fraction(-1, 12))
    assert report.fits[("E", "nonsplit", 11)] == (Fraction(-1, 12), Fraction(11, 12) - 1)
    for a, b in report.fits.values():
        assert 12 % a.denominator == 0 and 12 % b.denominator == 0


def test_linear_forms_extrapolate_beyond_the_fitted_range():
    """Coefficients at primes above the default range still follow a p + b."""
    for p in (103, 109):  # residues 7 and 1 mod 12
        data = get_data(p)
        res = decompose_dl(data)
        assert res.exact and res.table_match
        assert remark_pipeline(data) == res.coefficients


def test_nonsplit_exceptionals_absent_when_center_acts(data13):
    """At p = 1 mod 4 the anisotropic order-2 character moves the center, so
    its constituents cannot meet the center-trivial cusp character."""
    res = decompose_dl(data13)
    assert res.multiplicities[("exceptional_nonsplit_plus",)] == 0
    assert res.multiplicities[("exceptional_nonsplit_minus",)] == 0
    assert ("nonsplit", 7) not in res.coefficients


@pytest.mark.parametrize("p", (7, 13, 31))
def test_rebuild_tells_a_spanned_character_from_one_outside_the_span(p):
    """Adding principal(1), whose central character is not one, leaves the
    cusp-form character outside the span, so the rebuild must fail; adding
    R_split(2) stays inside, and the rebuild must succeed."""
    data = get_data(p)
    s = weinstein_character(data)
    assert not decompose_dl(data, s + data.irreducible("principal", 1).chi).exact
    assert decompose_dl(data, s + data.dl("split", 2)).exact


@pytest.mark.parametrize("p", [*primes_in_range(7, 43), 101])
def test_multiplicities_equal_the_pairwise_inner_products(p):
    """The p + 4 multiplicities, paired by classfun.closed_pairings, are the
    per-class reference inner products row by row, for s, s + principal(1)
    and s / 2."""
    data = get_data(p)
    s = weinstein_character(data)
    for phi in (s, s + data.irreducible("principal", 1).chi, scaled(s, Fraction(1, 2))):
        want = {irr.label: naive_inner_product(phi, irr.chi).as_rational() for irr in data.irreducibles}
        assert decompose_dl(data, phi).multiplicities == want


def test_non_rational_multiplicity_names_the_first_row(data7):
    zeta = ClassFunction(data7.table, [root_of_unity(3)] * len(data7.table))
    with pytest.raises(VerificationError, match=r"^non-rational multiplicity for trivial at p=7$"):
        decompose_dl(data7, weinstein_character(data7) + zeta)


@pytest.mark.parametrize("p", [*primes_in_range(7, 101), 199])
def test_coefficients_equal_the_triangular_solve(p):
    """Half the pairing, c = <s, R>/2, is the triangular solve over the
    multiplicities, for s, s + R_split(2) and s / 2."""
    data = get_data(p)
    s = weinstein_character(data)
    for phi in (s, s + data.dl("split", 2), scaled(s, Fraction(1, 2))):
        res = decompose_dl(data, phi)
        assert res.coefficients == triangular_coefficients(p, res.multiplicities)


@pytest.mark.parametrize("p", (7, 11, 13, 17, 23))
def test_orbit_weight_times_norm_is_two(p):
    """The premise of c = <s, R>/2: the rows of distinct orbits with central
    character one are orthogonal, and w <R, R> = 2 for each of them."""
    data = get_data(p)
    reps = [(t, k) for t in ("split", "nonsplit") for k in range(0, torus_order(p, t) // 2 + 1, 2)]
    rows = [data.dl(t, k) for t, k in reps]
    for (t, k), row in zip(reps, rows):
        pairings = [inner_product(row, other).as_rational() for other in rows]
        w = orbit_weight(p, t, k)
        assert pairings == [Fraction(2, w) if key == (t, k) else 0 for key in reps], (t, k)


@pytest.mark.parametrize("p, half", [(13, "exceptional_split_plus"), (7, "exceptional_nonsplit_plus")])
def test_one_half_of_an_exceptional_pair_leaves_the_span(p, half):
    """s plus one exceptional constituent has a component along plus - minus,
    which is orthogonal to every spanning row: no raise, and the rebuild
    differs from s at a unipotent-type class, where plus - minus lives."""
    data = get_data(p)
    torus, other = half.split("_")[1], half.replace("plus", "minus")
    res = decompose_dl(data, weinstein_character(data) + data.irreducible(half).chi)
    m_half, m_other = res.multiplicities[(half,)], res.multiplicities[(other,)]
    assert m_half == m_other + 1
    assert not res.exact and data.table.classes[res.rebuild_differs_at].kind == "unipotent"
    sign = 1 if torus == "split" else -1
    assert res.coefficients[(torus, torus_order(p, torus) // 2)] == sign * (m_half + m_other) / 2


@pytest.mark.parametrize("p, torus", [(13, "split"), (11, "nonsplit")])
def test_a_function_with_every_coefficient_zero_can_leave_the_span(p, torus):
    """plus - minus of an exceptional pair is orthogonal to every spanning
    row, so every coefficient is zero and the rebuilt sum is zero: it
    differs from plus - minus at a unipotent-type class, where that lives."""
    data = get_data(p)
    phi = data.irreducible(f"exceptional_{torus}_plus").chi + -data.irreducible(f"exceptional_{torus}_minus").chi
    res = decompose_dl(data, phi)
    assert set(res.coefficients.values()) == {0}
    assert not res.exact and data.table.classes[res.rebuild_differs_at].kind == "unipotent"


def _refused_with_the_audits_message(data, s):
    """decompose_dl raises what validate_table raises on data."""
    with pytest.raises(TableValidationError) as refused:
        decompose_dl(data, s)
    with pytest.raises(TableValidationError) as audit:
        validate_table(data)
    assert str(refused.value) == str(audit.value)


def test_decompose_dl_refuses_a_copy_that_breaks_orthonormality(data7):
    """principal(1) negated at a split class fails the audit's pin there:
    decompose_dl raises the audit's message, not a result."""
    import propchecks

    row = next(i for i, irr in enumerate(data7.irreducibles) if irr.label == ("principal", 1))
    values = data7.irreducibles[row].chi.values
    c = next(i for i, rec in enumerate(data7.table.classes) if rec.kind == "split_semisimple" and not values[i].is_zero())
    broken = propchecks.with_cell(data7, row, c, -values[c])
    with pytest.raises(TableValidationError, match=r"^principal\(1\) is 1: 1 at class 6 \(split_semisimple\), not 1: -1 at p=7$"):
        decompose_dl(broken)
    _refused_with_the_audits_message(broken, weinstein_character(data7))


@pytest.mark.parametrize("p, label, n", [(29, ("steinberg",), 30), (37, ("principal", 2), 36)])
def test_a_stray_torus_value_at_a_split_class_is_refused_before_the_rebuild(p, label, n):
    """One row with c_1 on the torus of order n at one split class, where
    s - 2 (s less twice the trivial character) is zero, so that every
    multiplicity stays rational.  decompose_dl reads exactness off the
    audited basis, so it refuses the copy with the audit's message.  The
    class-by-class replay, summed in closed coordinates on any table, first
    differs from s - 2 at that class: in the Steinberg row the anisotropic
    torus sum turns irrational and the rational part is off; in principal(2)
    only the split torus sum is off, and it is irrational."""
    import propchecks

    data = get_data(p)
    s = weinstein_character(data) + ClassFunction(data.table, [-2] * len(data.table))
    res = decompose_dl(data, s)
    assert res.exact
    c = next(i for i, rec in enumerate(data.table.classes) if rec.kind == "split_semisimple" and s.values[i].is_zero())
    row = next(i for i, irr in enumerate(data.irreducibles) if irr.label == label)
    stray = root_of_unity(n, 1) + root_of_unity(n, -1)
    assert stray != data.irreducibles[row].chi.values[c]
    broken = propchecks.with_cell(data, row, c, stray)
    assert broken.coordinates.coordinate(stray) == (broken.coordinates.den, 0, n, 1)
    _refused_with_the_audits_message(broken, s)
    assert propchecks.replay_rebuild_differs_at(broken, res.coefficients, s) == c


@pytest.mark.parametrize("p", primes_in_range(7, 101))
def test_a_built_table_and_its_cusp_form_are_summed_in_closed_coordinates(monkeypatch, p):
    """On a built table every value, and every value of the Weinstein s, has
    closed coordinates, so the audit, the multiplicities and the rebuild
    never reach the integer frame."""
    import dlcusp.classfun
    from dlcusp.chartable import validate_table

    def unreachable(*args):
        raise AssertionError("the integer frame was reached")

    data = get_data(p)
    s = weinstein_character(data)
    assert None not in data.coordinates.coords
    assert all(data.coordinates.coordinate(v) is not None for v in s.values)
    monkeypatch.setattr(dlcusp.classfun, "_frame_dot", unreachable)
    assert validate_table(data)["orthonormal"]
    assert decompose_dl(data, s).exact


@pytest.mark.parametrize("p", (29, 31))
def test_a_class_without_closed_coordinates_is_rebuilt_in_integers(p):
    """s + R_split(2) is 2 + c_e at split classes, which has no closed
    coordinates: its multiplicities are paired in one integer frame, and s
    + R_split(2) is in the span; likewise s + R_nonsplit(2).  A Steinberg
    cell 1 + c_1 at a split class where s - 2 is zero has no coordinates
    either: decompose_dl refuses that copy with the audit's message, and
    the class-by-class replay, summed in one integer frame there, differs
    from s - 2 at that class (St appears in s from p = 23 on, so its weight
    in the rebuild is not zero)."""
    import propchecks

    data = get_data(p)
    s = weinstein_character(data)
    for phi in (s + data.dl("split", 2), s + data.dl("nonsplit", 2)):
        assert any(data.coordinates.coordinate(v) is None for v in phi.values)
        assert decompose_dl(data, phi).exact
    s = s + ClassFunction(data.table, [-2] * len(data.table))
    c = next(i for i, rec in enumerate(data.table.classes) if rec.kind == "split_semisimple" and s.values[i].is_zero())
    row = next(i for i, irr in enumerate(data.irreducibles) if irr.label == ("steinberg",))
    stray = 1 + root_of_unity(p - 1, 1) + root_of_unity(p - 1, -1)
    broken = propchecks.with_cell(data, row, c, stray)
    assert broken.coordinates.coordinate(stray) is None
    _refused_with_the_audits_message(broken, s)
    assert propchecks.replay_rebuild_differs_at(broken, decompose_dl(data, s).coefficients, s) == c


@pytest.mark.parametrize("p", primes_in_range(7, 101))
def test_rebuild_differs_at_equals_the_class_by_class_replay(p):
    """Read off the audited basis, rebuild_differs_at is the first class
    where the class-by-class replay of sum c w R_T^theta differs from the
    input, or None where it never does, for s, two inputs in the span and
    two outside it."""
    import propchecks

    data = get_data(p)
    s = weinstein_character(data)
    inputs = {
        "s": s,
        "s + R_split(2)": s + data.dl("split", 2),
        "s + exceptional_split_plus": s + data.irreducible("exceptional_split_plus").chi,
        "s + principal(1)": s + data.irreducible("principal", 1).chi,
        "R_nonsplit(2)": data.dl("nonsplit", 2),
    }
    exact = {}
    for name, phi in inputs.items():
        res = decompose_dl(data, phi)
        assert res.rebuild_differs_at == propchecks.replay_rebuild_differs_at(data, res.coefficients, phi), name
        exact[name] = res.exact
    assert [name for name, ok in exact.items() if not ok] == ["s + exceptional_split_plus", "s + principal(1)"]


@pytest.mark.parametrize("p", primes_in_range(7, 101))
def test_the_cusp_form_is_exact_without_naming_a_class(monkeypatch, p):
    """For the Weinstein s the coefficients' f equals the multiplicities m
    row for row, so no class is ever summed."""
    import dlcusp.cuspform

    def unreachable(*args):
        raise AssertionError("the naming step ran")

    data = get_data(p)
    s = weinstein_character(data)
    monkeypatch.setattr(dlcusp.cuspform, "_first_class_off", unreachable)
    assert decompose_dl(data, s).exact


def _plant_in_s(monkeypatch, extra: dict):
    """Add extra {class: value} to the counted 1_Z^G, so that
    weinstein_character's s moves by extra at those classes."""
    from dlcusp import cuspform

    count = cuspform._permutation_character

    def planted(table, sub):
        out = count(table, sub)
        if sub.order == 2:  # Z
            for c, v in extra.items():
                out[c] = out.get(c, 0) + v
        return out

    monkeypatch.setattr(cuspform, "_permutation_character", planted)


def test_weinstein_refuses_a_non_integral_value(monkeypatch, data7):
    _plant_in_s(monkeypatch, {len(data7.table) - 1: Fraction(1, 2)})
    with pytest.raises(VerificationError, match=r"^permutation character has a non-integral value$"):
        weinstein_character(data7)


@pytest.mark.parametrize("c", (1, 2), ids=("minus_identity", "unipotent_not_self_inverse"))
def test_weinstein_refuses_a_value_off_the_center_or_duality(monkeypatch, data7, c):
    """At p = 7, class 1 is -I, and class 2 is a unipotent class whose
    inverse class is 3: one added there breaks s(I) = s(-I) or s = dual(s)."""
    assert data7.table.classes[1].key == (-1,) and data7.table.classes[2].inverse_class == 3
    _plant_in_s(monkeypatch, {c: 1})
    with pytest.raises(VerificationError, match=r"^cusp-form character must be self-dual and trivial on the center$"):
        weinstein_character(data7)


def test_corollary_all_appear_refuses_a_negative_multiplicity():
    data = get_data(23)
    res = decompose_dl(data)
    planted = res._replace(multiplicities={**res.multiplicities, ("principal", 2): Fraction(-1)})
    with pytest.raises(VerificationError, match=r"^negative multiplicity -1 for principal\(2\) at p=23$"):
        corollary_all_appear(data, planted)


def test_corollary_odd_multiplicity_refuses_a_split_half():
    data = get_data(23)
    res = decompose_dl(data)
    planted = res._replace(multiplicities={**res.multiplicities, ("exceptional_split_plus",): Fraction(1)})
    with pytest.raises(VerificationError, match=r"^exceptional_split_plus appears despite a non-trivial central character at p=23$"):
        corollary_odd_multiplicity(data, planted)


def test_corollary_odd_multiplicity_refuses_an_even_multiplicity():
    data = get_data(23)
    res = decompose_dl(data)
    planted = res._replace(multiplicities={**res.multiplicities, ("exceptional_nonsplit_plus",): Fraction(2)})
    with pytest.raises(VerificationError, match=r"^odd-multiplicity mechanism fails at p=23: .*all_odd=False"):
        corollary_odd_multiplicity(data, planted)


def test_a_fit_outside_twelfths_is_a_failure():
    """7 and 19 are both 7 mod 12; E on the split torus (k = 0) is a set of
    one, so a fifth added to its coefficient at 19 moves only its fit, to
    the slope 1/10."""
    first, second = (decompose_dl(get_data(p)) for p in (7, 19))
    planted = second._replace(coefficients={**second.coefficients, ("split", 0): second.coefficients[("split", 0)] + Fraction(1, 5)})
    report = linearity_fit([first, planted])
    assert [f["cell"] for f in report.failures] == [("E", "split", 7)]
    assert report.failures[0]["reason"] == "fit (1/10, -7/10) is not in (1/12)Z"
    assert ("E", "split", 7) not in report.fits


@pytest.mark.parametrize("p", primes_in_range(7, 43))
def test_the_decomposition_stays_in_exact_rationals(p):
    """Every multiplicity and coefficient decompose_dl returns is a
    Fraction, and every table value has int numerators over an int
    denominator.  The coefficients are sum(...) / 2 and a fit is (c2 - c1) /
    (p2 - p1): on int inputs either would silently be a float."""
    data = get_data(p)
    res = decompose_dl(data)
    assert {type(m) for m in res.multiplicities.values()} == {type(c) for c in res.coefficients.values()} == {Fraction}
    assert all(type(v.den) is int and all(type(c) is int for c in v.num.values()) for v in data.values)


def test_linearity_fits_stay_in_exact_rationals():
    fits = linearity_fit([decompose_dl(get_data(p)) for p in primes_in_range(7, 43)]).fits
    assert fits and {type(x) for fit in fits.values() for x in fit} == {Fraction}


def test_an_irrational_value_at_one_class_is_paired_in_the_integer_frame(data7):
    """zeta_3 added at one class leaves the shift c at -1, so s - c holds a
    value without closed coordinates there: closed_sum pairs it in the
    integer frame (classfun._frame_dot), and the trivial row, the first
    row, gets a non-rational multiplicity.  (zeta_3 added at every class
    moves c with it, and s - c stays rational.)"""
    values = list(weinstein_character(data7).values)
    values[6] += root_of_unity(3)
    with pytest.raises(VerificationError, match=r"^non-rational multiplicity for trivial at p=7$"):
        decompose_dl(data7, ClassFunction(data7.table, values))
