"""Exact integer primitives: square tests, divisors, factorization, k-free parts.

Everything here is pure integer arithmetic on Python ints, so results are exact
at any size.  No floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Factorization",
    "perfect_square",
    "icbrt",
    "divisors",
    "is_prime",
    "factorize",
    "squarefree_decompose",
    "cubefree_decompose",
]

# deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10**24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 10_000


def perfect_square(n: int) -> int | None:
    """Return r >= 0 with r*r == n, or None when n is not a perfect square."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def icbrt(n: int) -> int:
    """Floor of the real cube root of n >= 0, exact at any size."""
    if n < 0:
        raise ValueError("icbrt requires n >= 0")
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // 3)  # seed above the root
    while True:
        s = (2 * r + n // (r * r)) // 3  # integer Newton step, decreasing
        if s >= r:
            break
        r = s
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def divisors(n: int) -> list[int]:
    """Ascending positive divisors of |n|; n must be nonzero."""
    if n == 0:
        raise ValueError("divisors of zero are undefined")
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all inputs below 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite n with no factor <= _TRIAL_LIMIT.

    Brent's cycle-finding variant of Pollard rho.  The polynomial increments
    are stepped deterministically (c = 1, 2, 3, ...) so repeated runs factor
    identically.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization: sign * prod(p**e), primes strictly increasing."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise ValueError("primes must be strictly increasing")
        if any(e < 1 for _, e in self.factors):
            raise ValueError("exponents must be >= 1")

    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v


def factorize(n: int) -> Factorization:
    """Canonical factorization of nonzero n: trial division, then Brent rho."""
    if n == 0:
        raise ValueError("cannot factorize zero")
    sign = -1 if n < 0 else 1
    n = abs(n)
    counts: dict[int, int] = {}
    for p in range(2, _TRIAL_LIMIT + 1):
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        g = _brent_rho(m)
        stack.append(g)
        stack.append(m // g)
    return Factorization(sign, tuple(sorted(counts.items())))


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = u * v**2 with u squarefree (sign of n) and v >= 1."""
    if n == 0:
        raise ValueError("cannot decompose zero")
    fac = factorize(n)
    u, v = fac.sign, 1
    for p, e in fac.factors:
        u *= p ** (e % 2)
        v *= p ** (e // 2)
    return u, v


def cubefree_decompose(n: int) -> tuple[int, int]:
    """Write n = u * v**3 with u cubefree, for n >= 1."""
    if n < 1:
        raise ValueError("cubefree_decompose requires n >= 1")
    fac = factorize(n)
    u, v = 1, 1
    for p, e in fac.factors:
        u *= p ** (e % 3)
        v *= p ** (e // 3)
    return u, v
