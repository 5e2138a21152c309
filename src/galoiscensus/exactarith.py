"""Exact integer primitives: square tests, divisors, factorization, cubefree parts.

Everything here is pure integer arithmetic on Python ints, so results are exact
at any size, except that ``is_prime`` refuses n >= psi_13 (about 3.3e24)
rather than guess.  The one float is ``iroot``'s first guess, which integer
steps then correct.
"""

from __future__ import annotations

import math

__all__ = [
    "perfect_square",
    "iroot",
    "divisors",
    "is_prime",
    "factorize",
    "cubefree_decompose",
]

# the first 13 primes: deterministic Miller-Rabin witnesses for all n < _MR_LIMIT
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # psi_13, the least strong pseudoprime to them

_TRIAL_LIMIT = 10_000


def perfect_square(n: int) -> int | None:
    """Return r >= 0 with r*r == n, or None when n is not a perfect square."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def iroot(n: int, k: int) -> int:
    """The largest r >= 0 with r^k <= n, for n >= 0 and k >= 1, exact at any size.

    Integer Newton steps from above the root fall to its floor.  They start
    from the float 2^(log2(n) / k), shifted past 52 bits and rounded up
    (``math.log2`` reads a big int by its top bits), after one step that
    lifts any seed to at least the floor (AM-GM); then they fall
    quadratically, where a power-of-two seed would take about k ln 2 steps.
    The last two loops make the result exact."""
    if n < 0:
        raise ValueError("iroot requires n >= 0")
    if n == 0:
        return 0
    t = n.bit_length() // k - 52
    if t < 0:
        t = 0
    r = int(2.0 ** (math.log2(n) / k - t) * (1 + 2.0**-40) + 1) << t
    r = ((k - 1) * r + n // r ** (k - 1)) // k
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k  # integer Newton step, decreasing
        if s >= r:
            break
        r = s
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
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
    """Trial division by the primes up to 37, then Miller-Rabin to the 13
    prime bases 2..41; exact for all n below psi_13 = 3,317,044,064,679,887,
    385,961,981 (Sorenson and Webster), and a ValueError at or above it.

    A composite n has a prime factor at most sqrt(n), so one below
    41^2 = 1681 has a prime factor at most 37, which the trial division
    finds: an n < 1681 that survives it is prime without Miller-Rabin.
    """
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is exact only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 1681:
        return True
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


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The ((p, e), ...) with |n| = prod(p^e), primes ascending and e >= 1,
    for nonzero n: trial division, then Brent rho.

    When the trial division stops at p with p^2 > n, every prime below p is
    divided out, so the cofactor n < p^2 has no prime factor below sqrt(n):
    it is 1 or a prime, and is recorded as it is.
    Only a cofactor left when the trial limit runs out is tested with
    ``is_prime``, which raises ValueError from psi_13 on, and split by
    ``_brent_rho``.
    """
    if n == 0:
        raise ValueError("cannot factorize zero")
    n = abs(n)
    counts: dict[int, int] = {}
    for p in range(2, _TRIAL_LIMIT + 1):
        if p * p > n:
            if n > 1:
                counts[n] = 1
            return tuple(counts.items())
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    stack = [n]
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
    return tuple(sorted(counts.items()))


def cubefree_decompose(n: int) -> tuple[int, int]:
    """Write n = u * v**3 with u cubefree, for n >= 1."""
    if n < 1:
        raise ValueError("cubefree_decompose requires n >= 1")
    u, v = 1, 1
    for p, e in factorize(n):
        u *= p ** (e % 3)
        v *= p ** (e // 3)
    return u, v
