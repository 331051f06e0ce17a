"""Integer and modular arithmetic helpers shared across the package."""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Whether n is prime, by factorize's trial division: O(sqrt(n)), and
    the commands accept no prime above 600."""
    return n >= 2 and factorize(n) == {n: 1}


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi."""
    return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (orders here stay below ~10^6)."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1}, p an odd prime."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def smallest_nonsquare(p: int) -> int:
    """Smallest positive quadratic nonresidue modulo p."""
    for a in range(2, p):
        if legendre(a, p) == -1:
            return a
    raise ValueError(f"no quadratic nonresidue mod {p}")


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod p (odd prime), or None if a is a nonresidue."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = smallest_nonsquare(p)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
