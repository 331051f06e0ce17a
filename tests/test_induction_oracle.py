"""Coset fixed-point oracle: induction of the trivial character from first
principles, with no shared code path with propchecks.induce or with the
counted permutation characters of cuspform.weinstein_character."""

from fractions import Fraction

import pytest

from dlcusp.group import GroupElement, build_subgroup

from conftest import get_data
from propchecks import induce
from test_group import all_elements


def fixed_point_counts(p, sub_elements):
    """Ind_H 1 evaluated at every class representative by counting cosets
    xH with g xH = xH, enumerated over the whole group."""
    elems = all_elements(p)
    members = set(sub_elements)
    cosets = {}
    for x in elems:
        key = min((x * h for h in sub_elements), key=GroupElement.entries)
        cosets.setdefault(key, x)
    reps = list(cosets.values())
    assert len(reps) == len(elems) // len(members)

    def value(g):
        count = 0
        for x in reps:
            if x.inverse() * g * x in members:
                count += 1
        return count

    return value


@pytest.mark.parametrize("name", ("Z", "Gx_tilde", "Gy_tilde", "Gz_tilde"))
def test_induce_matches_coset_counting_p7(name):
    data = get_data(7)
    sub = build_subgroup(data.table, name)
    ind = induce(data.table, sub, [1] * sub.order)
    oracle = fixed_point_counts(7, sub.elements)
    for rec, v in zip(data.table.classes, ind.values):
        assert v.as_rational() == oracle(rec.rep), (name, rec.kind, rec.key)


def test_cusp_character_values_from_coset_counting_p7():
    from dlcusp.cuspform import weinstein_character

    data = get_data(7)
    s = weinstein_character(data)
    oracles = {
        name: fixed_point_counts(7, build_subgroup(data.table, name).elements)
        for name in ("Z", "Gx_tilde", "Gy_tilde", "Gz_tilde")
    }
    for rec, v in zip(data.table.classes, s.values):
        g = rec.rep
        want = oracles["Z"](g) - oracles["Gx_tilde"](g) - oracles["Gy_tilde"](g) - oracles["Gz_tilde"](g) + 2
        assert v.as_rational() == Fraction(want), rec.kind
