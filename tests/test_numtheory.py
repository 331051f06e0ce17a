import pytest

from dlcusp.numtheory import (
    factorize,
    is_prime,
    legendre,
    primes_in_range,
    smallest_nonsquare,
    sqrt_mod,
)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert is_prime(104729)
    assert not is_prime(104729 * 104729)


def test_is_prime_agrees_with_a_sieve():
    """is_prime against the sieve of Eratosthenes at every n in 0..10,000."""
    limit = 10_000
    sieve = [False, False] + [True] * (limit - 1)
    for n in range(2, int(limit**0.5) + 1):
        if sieve[n]:
            sieve[n * n::n] = [False] * len(range(n * n, limit + 1, n))
    assert [is_prime(n) for n in range(limit + 1)] == sieve


def test_primes_in_range():
    primes = primes_in_range(7, 101)
    assert len(primes) == 23 and primes[0] == 7 and primes[-1] == 101


def test_factorize():
    assert factorize(168) == {2: 3, 3: 1, 7: 1}
    assert factorize(1) == {}
    assert factorize(101) == {101: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_legendre():
    assert [legendre(a, 7) for a in range(7)] == [0, 1, 1, -1, 1, -1, -1]
    assert legendre(-1, 13) == 1 and legendre(-1, 23) == -1


def test_smallest_nonsquare():
    assert smallest_nonsquare(7) == 3
    assert smallest_nonsquare(11) == 2
    assert smallest_nonsquare(73) == 5


@pytest.mark.parametrize("p", (7, 11, 13, 73, 101))
def test_sqrt_mod(p):
    for a in range(p):
        r = sqrt_mod(a, p)
        if legendre(a, p) == -1:
            assert r is None
        else:
            assert r is not None and r * r % p == a % p
