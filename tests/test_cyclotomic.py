from fractions import Fraction

import pytest

from dlcusp.cyclotomic import CycNumber, ZERO, ONE, embed_rational, gauss_sum
from dlcusp.numtheory import legendre

import propchecks
from propchecks import root_of_unity


def z(n, k=1):
    return root_of_unity(n, k)


def test_minimal_polynomial_of_third_root():
    assert (ONE + z(3) + z(3, 2)).is_zero()


def test_fourth_root_squares_to_minus_one():
    assert z(4) * z(4) == -ONE
    assert z(4) ** 2 == embed_rational(-1)


def test_fifth_root_pair_product():
    lhs = (z(5) + z(5, 4)) * (z(5, 2) + z(5, 3))
    assert lhs == embed_rational(-1)


def test_conjugation():
    assert z(8).conj() == z(8, 7)
    assert embed_rational(Fraction(3, 7)).conj() == embed_rational(Fraction(3, 7))
    x = CycNumber(12, {1: Fraction(1, 2), 7: Fraction(-3)})
    assert x.conj().conj() == x


def test_conjugation_is_an_automorphism_on_random_values():
    import random

    rng = random.Random(11)
    for _ in range(25):
        x = propchecks.random_cyc(rng, 24)
        y = propchecks.random_cyc(rng, 24)
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()


def test_as_rational():
    assert (ONE + z(3) + z(3, 2) + embed_rational(5)).as_rational() == 5
    assert z(7).as_rational() is None
    assert (gauss_sum(7) ** 2).as_rational() == -7


def test_gauss_sum_squares():
    assert (gauss_sum(5) ** 2).as_rational() == 5
    assert (gauss_sum(7) ** 2).as_rational() == -7
    for p in (11, 13, 17, 19):
        want = p if p % 4 == 1 else -p
        assert (gauss_sum(p) ** 2).as_rational() == want


def test_gauss_sum_conjugate():
    for p in (5, 7, 11, 13):
        assert gauss_sum(p).conj() == gauss_sum(p).scale(legendre(-1, p))


def test_order_minimization():
    assert z(6).order == 3  # zeta_6 = 1 + zeta_3
    assert z(6) == ONE + z(3)
    assert root_of_unity(2 * 12, 2 * 5) == root_of_unity(12, 5)
    assert root_of_unity(840, 0) == ONE


def test_lift_and_reduce_round_trip():
    x = z(8) + embed_rational(Fraction(1, 3))
    lifted = x * root_of_unity(21)  # pushes into Q(zeta_168)
    back = lifted * root_of_unity(21, 20)
    assert back == x and back.order == x.order


def test_zero_handling():
    assert ZERO.is_zero() and ZERO.order == 1
    assert (z(5) - z(5)).is_zero()
    assert z(5).scale(0) == ZERO
    assert ZERO.to_text() == "1: 0"


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        embed_rational(0.5)
    with pytest.raises(TypeError):
        z(5).scale(0.25)
    with pytest.raises(TypeError):
        CycNumber(4, {1: 0.5})


def test_order_zero_rejected():
    with pytest.raises(ValueError):
        root_of_unity(0)
    with pytest.raises(ValueError):
        CycNumber(0, {0: 1})
    with pytest.raises(ValueError):
        z(5) ** -1


def test_serialization_round_trip():
    import random

    rng = random.Random(5)
    samples = [ZERO, ONE, gauss_sum(11), (ONE + gauss_sum(7)).scale(Fraction(1, 2))]
    samples += [propchecks.random_cyc(rng, n) for n in (12, 24, 168) for _ in range(10)]
    for x in samples:
        text = x.to_text()
        assert CycNumber.from_text(text) == x
        assert CycNumber.from_text(text).to_text() == text


def test_from_text_rejects_non_canonical():
    with pytest.raises(ValueError):
        CycNumber.from_text("3: 1*z^2 + 1*z^2")
    with pytest.raises(ValueError):
        CycNumber.from_text("6: 1*z^1")  # zeta_6 is not in canonical form at order 6
    with pytest.raises(ValueError, match="zero denominator"):
        CycNumber.from_text("4: 1/0*z^1")


def test_ring_axioms_randomized():
    assert propchecks.check_ring_axioms() > 0


def test_canonical_uniqueness_randomized():
    assert propchecks.check_canonical_uniqueness() > 0


def test_integer_mul_matches_fraction_reference():
    assert propchecks.check_integer_mul() > 0


def test_memoized_root_of_unity_matches_fresh_value():
    assert propchecks.check_root_memo() > 0


def test_high_precision_embedding_oracle():
    """The reducer preserves the complex value: check at 80 significant digits."""
    import random

    import mpmath

    mpmath.mp.dps = 80
    rng = random.Random(2024)
    for order in (12, 168, 840):
        for _ in range(8):
            raw = {rng.randrange(order): Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)}
            naive = mpmath.mpc(0)
            for e, c in raw.items():
                naive += mpmath.mpf(c.numerator) / c.denominator * mpmath.exp(2j * mpmath.pi * e / order)
            reduced = CycNumber(order, raw)
            canon = mpmath.mpc(0)
            for e, c in reduced.terms.items():
                canon += mpmath.mpf(c.numerator) / c.denominator * mpmath.exp(2j * mpmath.pi * e / reduced.order)
            assert abs(naive - canon) < mpmath.mpf("1e-30")


@pytest.mark.parametrize("n", (12, 100, 102, 404, 515100))
def test_a_root_of_unity_has_coordinates_in_signs(n):
    """In the residue basis zeta_n^u has every coordinate in {0, +-1}: the
    basis is a tensor product of prime-power power bases."""
    import random

    from dlcusp.cyclotomic import _canonicalize

    exponents = range(n) if n < 1000 else random.Random(n).sample(range(n), 400)
    for u in exponents:
        _, terms = _canonicalize(n, {u: 1})
        assert set(terms.values()) <= {1, -1}, u


@pytest.mark.parametrize("q", (0, 1, 2, -3, Fraction(1, 2), Fraction(-7, 3)))
def test_a_rational_hashes_as_the_number_it_equals(q):
    """Equal objects hash equal: a rational value is one set or dict key with
    the int or Fraction it equals, however the value was reached."""
    for v in (embed_rational(q), (embed_rational(q) + gauss_sum(7)) - gauss_sum(7)):
        assert v == q and hash(v) == hash(q) == hash(Fraction(q))
        assert q in {v} and v in {q} and Fraction(q) in {v}
    assert hash(ZERO) == hash(0) == hash(Fraction(0)) and ZERO in {0}
    assert hash(ONE) == hash(1) == hash(Fraction(1)) and ONE in {Fraction(1)}
    assert (gauss_sum(7) ** 2) in {-7}


def test_every_value_is_in_lowest_terms():
    """Each operation leaves den > 0 and gcd(den, every numerator) = 1, so
    equal values are structurally equal: (x + y) - y is x field for field,
    and a sum of halves is one."""
    import math
    import random

    rng = random.Random(36)
    half = embed_rational(Fraction(1, 2))
    assert half + half == ONE and (half + half).den == 1 and (half + half).num == {0: 1}
    for _ in range(40):
        x, y = (propchecks.random_cyc(rng, n, dens=(2, 4, 6)) for n in (12, 24))
        for v in (x + y, x - y, x * y, x.scale(Fraction(4, 3)), x.conj(), CycNumber.from_text(x.to_text())):
            assert v.den > 0 and math.gcd(v.den, *v.num.values()) == 1, v
        assert (x + y) - y == x and ((x + y) - y).num == x.num and ((x + y) - y).den == x.den
