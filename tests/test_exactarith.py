import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from galoiscensus import exactarith
from galoiscensus.exactarith import (
    cubefree_decompose,
    divisors,
    factorize,
    iroot,
    is_prime,
    perfect_square,
)


@pytest.mark.parametrize(
    "n,root",
    [(49, 7), (-4, None), (331776, 576), (0, 0), (1, 1), (2, None), (10**12, 10**6)],
)
def test_perfect_square_examples(n, root):
    assert perfect_square(n) == root


def test_perfect_square_against_naive_loop():
    squares = {r * r for r in range(1001)}
    for n in range(-(10**6), 10**6 + 1):
        assert (perfect_square(n) is not None) == (n in squares)


@given(st.integers(min_value=0, max_value=10**30))
def test_perfect_square_roundtrip(r):
    assert perfect_square(r * r) == r


@pytest.mark.parametrize(
    "n,divs",
    [(12, [1, 2, 3, 4, 6, 12]), (1, [1]), (49, [1, 7, 49]), (-18, [1, 2, 3, 6, 9, 18])],
)
def test_divisors_examples(n, divs):
    assert divisors(n) == divs


def test_divisors_rejects_zero():
    with pytest.raises(ValueError):
        divisors(0)


def test_divisors_against_sieve_oracle():
    limit = 10**5
    table = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            table[m].append(d)
    for n in range(1, limit + 1, 17):  # stride keeps the cross-product affordable
        assert divisors(n) == table[n]
    for n in range(1, 3000):
        assert divisors(n) == table[n]


@pytest.mark.parametrize(
    "n,sign,factors",
    [
        (360, 1, ((2, 3), (3, 2), (5, 1))),
        (-97, -1, ((97, 1),)),
        (1, 1, ()),
        (2**40, 1, ((2, 40),)),
    ],
)
def test_factorize_examples(n, sign, factors):
    # the factors of |n|; the sign is the caller's
    assert factorize(n) == factors
    assert sign * math.prod(p**e for p, e in factors) == n


def test_factorize_large_semiprime():
    p, q = 1_000_003, 998_244_353
    assert factorize(p * q) == ((p, 1), (q, 1))


def test_factorize_below_trial_limit_squared_skips_primality_work(monkeypatch):
    # below 10^8 = _TRIAL_LIMIT^2 the trial division always ends at p^2 > n,
    # so the cofactor is 1 or a prime and neither is_prime nor rho runs
    def forbidden(n):
        raise AssertionError(f"called on {n}")

    rng = random.Random(8)
    values = [rng.randint(1, 10**8 - 1) for _ in range(3000)]
    values += [1, 2, 9973, 9973**2, 99_999_989, 2**26, 3 * 33_333_331, 7919 * 7927, -(10**8 - 1)]
    with monkeypatch.context() as patch:
        patch.setattr(exactarith, "is_prime", forbidden)
        patch.setattr(exactarith, "_brent_rho", forbidden)
        facs = [factorize(n) for n in values]
    for n, fac in zip(values, facs):
        assert math.prod(p**e for p, e in fac) == abs(n)
        assert all(is_prime(p) for p, _ in fac)


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=300)
def test_factorize_reconstructs_with_prime_parts(n):
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac) == n
    primes = [p for p, _ in fac]
    assert primes == sorted(set(primes)), "primes strictly ascending"
    assert all(e >= 1 for _, e in fac)
    assert all(is_prime(p) for p in primes)


def test_is_prime_against_sieve():
    sieve = [True] * 10000
    sieve[0] = sieve[1] = False
    for i in range(2, 100):
        if sieve[i]:
            for j in range(i * i, 10000, i):
                sieve[j] = False
    for n in range(10000):
        assert is_prime(n) == sieve[n]


def test_is_prime_exact_range():
    # psi_12, the least strong pseudoprime to the 12 prime bases 2..37, is
    # composite; base 41 exposes it.  At psi_13, the least one to the 13
    # prime bases 2..41, no answer is given.
    psi12 = 318_665_857_834_031_151_167_461
    assert psi12 == 399_165_290_221 * 798_330_580_441
    assert not is_prime(psi12)
    psi13 = 3_317_044_064_679_887_385_961_981
    assert psi13 == 1_287_836_182_261 * 2_575_672_364_521
    with pytest.raises(ValueError, match="exact only below"):
        is_prime(psi13)
    with pytest.raises(ValueError, match="exact only below"):
        is_prime(psi13 + 1)
    # the largest prime below psi_13 is psi_13 - 168
    assert [n for n in range(psi13 - 200, psi13) if is_prime(n)][-1:] == [psi13 - 168]


@pytest.mark.parametrize("n,uv", [(54, (2, 3)), (1, (1, 1)), (216, (1, 6)), (250, (2, 5))])
def test_cubefree_examples(n, uv):
    assert cubefree_decompose(n) == uv


@given(st.integers(min_value=1, max_value=10**5))
@settings(max_examples=300)
def test_cubefree_invariants(n):
    u, v = cubefree_decompose(n)
    assert u * v**3 == n and u > 0 and v > 0
    assert all(e < 3 for _, e in factorize(u))


def test_decompose_domain_errors():
    for bad in (0, -5):
        with pytest.raises(ValueError):
            cubefree_decompose(bad)


@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=1, max_value=7))
def test_iroot(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_iroot_rejects_negative():
    with pytest.raises(ValueError):
        iroot(-1, 3)


def _iroot_bisect(n, k):
    """The largest r >= 0 with r^k <= n, by doubling and bisection."""
    lo, hi = 0, 1
    while hi**k <= n:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**k <= n else (lo, mid)
    return lo


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 20, 52, 53, 100, 1000, 5000])
def test_iroot_matches_bisection_at_and_around_exact_powers(k):
    # small and large k, roots on both sides of the 52 bits past which the
    # float seed is shifted, n kept to about 2e5 bits
    rng = random.Random(k)
    roots = [1, 2, 3, 10, 2**52 - 1, 2**52, 2**52 + 1, 2**53 + 1, 10**20 + 7, 3**100,
             rng.getrandbits(150) | 1]
    for r in (r for r in roots if r.bit_length() * k <= 2 * 10**5):
        n = r**k
        for m in (n - 1, n, n + 1):
            assert iroot(m, k) == _iroot_bisect(m, k), (r, k, m - n)
