import itertools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from galoiscensus import classify
from galoiscensus.classify import (
    CubicClass,
    FactorWitness,
    MonicCubic,
    MonicQuartic,
    QuarticGroup,
    classify_cubic,
    classify_quartic,
    disc_cubic,
    disc_quartic,
    frobenius_cycle_type,
    fujiwara_bound,
    integer_roots_monic_cubic,
    invariants_cubic,
    invariants_quartic,
    reducibility_witness,
    resolvent_coeffs,
    resolvent_integer_roots,
)
from galoiscensus.exactarith import divisors, perfect_square

coeff = st.integers(min_value=-50, max_value=50)


def _value(f: MonicQuartic, x: int) -> int:
    """f(x), by Horner."""
    a, b, c, d = f.coeffs()
    return (((x + a) * x + b) * x + c) * x + d


# --- discriminants and invariants ---

@pytest.mark.parametrize(
    "f,disc",
    [(MonicCubic(1, -2, -1), 49), (MonicCubic(0, 0, -2), -108), (MonicCubic(0, 0, 0), 0)],
)
def test_disc_cubic_examples(f, disc):
    assert disc_cubic(f) == disc


@pytest.mark.parametrize(
    "f,ij",
    [
        (MonicCubic(1, -2, -1), (7, -7)),
        (MonicCubic(0, 0, 0), (0, 0)),
        (MonicCubic(0, 0, -2), (0, -54)),
    ],
)
def test_invariants_cubic_examples(f, ij):
    assert invariants_cubic(f) == ij


@pytest.mark.parametrize(
    "f,disc",
    [
        (MonicQuartic(0, 0, 8, 12), 331776),
        (MonicQuartic(0, 0, 0, 1), 256),
        (MonicQuartic(0, 0, 0, 0), 0),
    ],
)
def test_disc_quartic_examples(f, disc):
    assert disc_quartic(f) == disc


@pytest.mark.parametrize(
    "f,ij",
    [
        (MonicQuartic(0, 0, 8, 12), (144, -1728)),
        (MonicQuartic(0, 0, 0, 0), (0, 0)),
        (MonicQuartic(0, 0, 0, 1), (12, 0)),
    ],
)
def test_invariants_quartic_examples(f, ij):
    assert invariants_quartic(f) == ij


def test_invariant_identity_exhaustive_cubic():
    for a, b, c in itertools.product(range(-5, 6), repeat=3):
        f = MonicCubic(a, b, c)
        I, J = invariants_cubic(f)
        assert 27 * disc_cubic(f) == 4 * I**3 - J * J


def test_invariant_identity_exhaustive_quartic():
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        f = MonicQuartic(a, b, c, d)
        I, J = invariants_quartic(f)
        assert 27 * disc_quartic(f) == 4 * I**3 - J * J


def test_quartic_terms_and_invariants_in_d():
    # the census relies on these shapes: disc = ((256 d + t2) d + t1) d + t0
    # with (t2, t1, t0) free of d, I(d) = I(0) + 12 d and
    # J(d) = J(0) + (72 b - 27 a^2) d
    from galoiscensus.classify import disc_quartic_terms, invariants_quartic_coeffs

    rng = random.Random(12)
    for _ in range(500):
        a, b, c, d = (rng.randint(-400, 400) for _ in range(4))
        t2, t1, t0 = disc_quartic_terms(a, b, c)
        assert ((256 * d + t2) * d + t1) * d + t0 == disc_quartic(MonicQuartic(a, b, c, d))
        i0, j0 = invariants_quartic_coeffs(a, b, c, 0)
        assert invariants_quartic(MonicQuartic(a, b, c, d)) == (i0 + 12 * d, j0 + (72 * b - 27 * a * a) * d)


def test_disc_quartic_against_sympy():
    import sympy
    from sympy.abc import x

    rng = random.Random(7)
    for _ in range(200):
        a, b, c, d = (rng.randint(-30, 30) for _ in range(4))
        ref = sympy.discriminant(x**4 + a * x**3 + b * x**2 + c * x + d, x)
        assert disc_quartic(MonicQuartic(a, b, c, d)) == ref


def test_disc_cubic_against_sympy():
    import sympy
    from sympy.abc import x

    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rng.randint(-30, 30) for _ in range(3))
        ref = sympy.discriminant(x**3 + a * x**2 + b * x + c, x)
        assert disc_cubic(MonicCubic(a, b, c)) == ref


# --- reducibility and resolvents ---

@pytest.mark.parametrize(
    "f,res",
    [
        (MonicQuartic(0, 0, 0, 1), MonicCubic(0, -4, 0)),
        (MonicQuartic(0, 0, 0, 0), MonicCubic(0, 0, 0)),
        (MonicQuartic(0, 0, 8, 12), MonicCubic(0, -48, -64)),
    ],
)
def test_resolvent_examples(f, res):
    assert resolvent_coeffs(*f.coeffs()) == res.coeffs()


@pytest.mark.parametrize(
    "f,reducible",
    [
        (MonicQuartic(0, 0, 0, -1), True),
        (MonicQuartic(0, 0, 0, 1), False),
        (MonicQuartic(0, 2, 0, 1), True),
        (MonicQuartic(0, 0, 0, 4), True),  # (X^2-2X+2)(X^2+2X+2)
    ],
)
def test_is_reducible_quartic_examples(f, reducible):
    assert (reducibility_witness(f) is not None) == reducible


def test_reducibility_witness_is_a_certificate():
    rng = random.Random(11)
    seen_split = 0
    for _ in range(4000):
        f = MonicQuartic(*(rng.randint(-8, 8) for _ in range(4)))
        w = reducibility_witness(f)
        if w is None:
            continue
        if w.kind == "root":
            assert _value(f, w.data[0]) == 0
        else:
            p, q, r, s = w.data
            seen_split += 1
            assert (p + r, p * r + q + s, p * s + q * r, q * s) == f.coeffs()
    assert seen_split > 0


def _divisor_pair_witness(f):
    """The reducibility oracle: integer roots scanned as divisors of d, and
    quadratic splits (X^2+pX+q)(X^2+rX+s) as divisor pairs q*s = d with
    p + r = a, pr = b - q - s, checked against ps + qr = c."""
    a, b, c, d = f.coeffs()
    if d == 0:
        return FactorWitness("root", (0,))
    divs = divisors(d)
    for t in divs:
        if _value(f, t) == 0:
            return FactorWitness("root", (t,))
        if _value(f, -t) == 0:
            return FactorWitness("root", (-t,))
    for t in divs:
        for q in (t, -t):
            s = d // q
            sq = perfect_square(a * a - 4 * (b - q - s))
            if sq is None:
                continue
            for root in {(a + sq), (a - sq)}:
                if root % 2:
                    continue
                p = root // 2
                r = a - p
                if p * s + q * r == c:
                    return FactorWitness("split", (p, q, r, s))
    return None


def _multiplies_back(f, w):
    if w.kind == "root":
        return _value(f, w.data[0]) == 0
    p, q, r, s = w.data
    return (p + r, p * r + q + s, p * s + q * r, q * s) == f.coeffs()


def test_reducibility_matches_divisor_pair_oracle_on_box():
    kinds = {"root": 0, "split": 0}
    for coeffs in itertools.product(range(-6, 7), repeat=4):
        f = MonicQuartic(*coeffs)
        w, ref = reducibility_witness(f), _divisor_pair_witness(f)
        assert (w is None) == (ref is None), coeffs
        if w is not None:
            assert w.kind == ref.kind and _multiplies_back(f, w), (coeffs, w)
            kinds[w.kind] += 1
        assert (classify_quartic(f).group is QuarticGroup.REDUCIBLE) == (w is not None)
    assert kinds["split"] > 100 and kinds["root"] > 1000


def test_seeded_products_are_always_found():
    rng = random.Random(12)
    for _ in range(300):
        t = rng.randint(-1000, 1000)
        g2, g1, g0 = (rng.randint(-1000, 1000) for _ in range(3))
        f = MonicQuartic(g2 - t, g1 - t * g2, g0 - t * g1, -t * g0)  # (X - t)(X^3 + g2 X^2 + g1 X + g0)
        w = reducibility_witness(f)
        assert w is not None and w.kind == "root" and _multiplies_back(f, w), f
        assert classify_quartic(f).group is QuarticGroup.REDUCIBLE
    for _ in range(300):
        p, q, r, s = (rng.randint(-700, 700) for _ in range(4))
        f = MonicQuartic(p + r, q + s + p * r, p * s + q * r, q * s)
        w = reducibility_witness(f)
        assert w is not None and _multiplies_back(f, w), (p, q, r, s)
        assert classify_quartic(f).group is QuarticGroup.REDUCIBLE


def _two_squares(a: int, b: int, d: int, roots: list[int]) -> bool:
    """The census's split criterion: some resolvent root x has both
    K(x) = a^2 - 4(b - x) and x^2 - 4d square, 0 included."""
    return any(
        perfect_square(a * a - 4 * (b - x)) is not None and perfect_square(x * x - 4 * d) is not None
        for x in roots
    )


def test_quadratic_split_exactly_when_two_squares():
    # the census reads a split off a resolvent root by the two squares alone;
    # the classifier also multiplies back to ps + qr = c, and the two must
    # agree on the whole box and on seeded products of two quadratics
    seen = {True: 0, False: 0}
    for a, b, c, d in itertools.product(range(-6, 7), repeat=4):
        roots = resolvent_integer_roots(MonicQuartic(a, b, c, d))
        split = classify._quadratic_split(a, b, c, d, roots) is not None
        assert split == _two_squares(a, b, d, roots), (a, b, c, d)
        seen[split] += 1
    assert seen[True] > 1000 and seen[False] > 10000
    rng = random.Random(15)
    for _ in range(20000):
        p, q, r, s = (rng.randint(-1000, 1000) for _ in range(4))
        a, b, c, d = p + r, q + s + p * r, p * s + q * r, q * s
        roots = resolvent_integer_roots(MonicQuartic(a, b, c, d))
        assert classify._quadratic_split(a, b, c, d, roots) is not None, (p, q, r, s)
        assert _two_squares(a, b, d, roots), (p, q, r, s)


def test_reducibility_against_sympy_factor_list():
    import sympy
    from sympy.abc import x

    rng = random.Random(13)
    seen = {True: 0, False: 0}
    for i in range(200):
        if i % 3:
            coeffs = tuple(rng.randint(-10**6, 10**6) for _ in range(4))
        else:  # a product of two random quadratics, to meet reducible ones too
            p, q, r, s = (rng.randint(-700, 700) for _ in range(4))
            coeffs = (p + r, q + s + p * r, p * s + q * r, q * s)
        a, b, c, d = coeffs
        factors = sympy.factor_list(x**4 + a * x**3 + b * x**2 + c * x + d)[1]
        reducible = len(factors) > 1 or factors[0][1] > 1
        assert (reducibility_witness(MonicQuartic(*coeffs)) is not None) == reducible, coeffs
        seen[reducible] += 1
    assert min(seen.values()) > 50


def test_root_certificate_never_rejects_a_root_residue():
    # an integer root r is a root mod every filter prime, so no residue class
    # of r, 0 included, may be certified root-free; d = 0 is met at r = 0
    # and at g0 = 0
    rng = random.Random(14)
    for p in classify._ROOT_FILTER_PRIMES:
        for t in range(p):
            for r in (t, t - p, t + 7 * p, t - 1000 * p):
                g2, g1 = rng.randint(-99, 99), rng.randint(-99, 99)
                for g0 in (rng.randint(-99, 99), 0):
                    a, b, c, d = g2 - r, g1 - r * g2, g0 - r * g1, -r * g0
                    root = classify._integer_root(a, b, c, d)
                    assert root is not None and _value(MonicQuartic(a, b, c, d), root) == 0, (p, r)


def test_root_tables_match_the_residue_loop():
    # entry ((a p + b) p + c) p + d is 1 exactly when some t mod p is a root
    # of X^4 + aX^3 + bX^2 + cX + d, evaluated here at every t for every
    # residue tuple, in the order of np.indices
    tables = classify._root_tables()
    assert [p for p, _ in tables] == list(classify._ROOT_FILTER_PRIMES)
    for p, table in tables:
        a, b, c, d = np.indices((p,) * 4).reshape(4, -1)
        has_root = np.zeros(p**4, dtype=bool)
        for t in range(p):
            has_root |= (t**4 + a * t**3 + b * t**2 + c * t + d) % p == 0
        assert np.frombuffer(table, dtype=np.uint8).tolist() == has_root.astype(np.uint8).tolist(), p


def test_root_tables_are_not_built_at_import():
    # census workers fork from a parent that imported the CLI; they never
    # classify a quartic, so they must not pay for the tables
    code = (
        "import galoiscensus.cli\n"
        "from galoiscensus import classify\n"
        "assert classify._root_tables.cache_info().currsize == 0\n"
    )
    src = os.path.dirname(os.path.dirname(classify.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_root_certificate_skips_the_divisor_scan(monkeypatch):
    calls = []

    def spy(n):
        calls.append(n)
        return divisors(n)

    monkeypatch.setattr(classify, "divisors", spy)
    # X^4 + 2 has no root mod 5 (fourth powers are 0 or 1 there)
    assert classify._integer_root(0, 0, 0, 2) is None and calls == []
    # X^4 - 16 has roots mod every prime, so it reaches the scan
    assert classify._integer_root(0, 0, 0, -16) == 2 and calls == [-16]


def test_root_filter_primes_each_certify_d4vc_members():
    # a filter prime that certifies no d4vc member only costs time there;
    # 3 is such a prime, since every member is X^4 mod 3
    from fractions import Fraction

    from galoiscensus.families import gen_d4vc_family

    fam = [coeffs for _, _, coeffs, _ in gen_d4vc_family(2 * 10**5, Fraction(1, 5))]

    def root_free(p, a, b, c, d):
        return all((t**4 + a * t**3 + b * t**2 + c * t + d) % p for t in range(p))

    for p in classify._ROOT_FILTER_PRIMES:
        assert any(root_free(p, *co) for co in fam), p
    assert not any(root_free(3, *co) for co in fam)
    certified = sum(any(root_free(p, *co) for p in classify._ROOT_FILTER_PRIMES) for co in fam)
    assert certified >= 0.99 * len(fam)


def test_integer_roots_monic_cubic_exhaustive():
    for p, q, r in itertools.product(range(-12, 13), repeat=3):
        bound = 1 + max(abs(p), abs(q), abs(r))
        brute = [x for x in range(-bound, bound + 1) if ((x + p) * x + q) * x + r == 0]
        assert integer_roots_monic_cubic(p, q, r) == brute


@given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10))
@settings(max_examples=200)
def test_integer_roots_from_constructed_factors(r1, r2, r3):
    # (X - r1)(X - r2)(X - r3)
    p = -(r1 + r2 + r3)
    q = r1 * r2 + r1 * r3 + r2 * r3
    r = -r1 * r2 * r3
    assert integer_roots_monic_cubic(p, q, r) == sorted({r1, r2, r3})


@given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10), st.integers(0, 10**6))
@settings(max_examples=200)
def test_fujiwara_bound_holds_for_a_family(r1, r2, r3, extra):
    # the bound covers the roots, and it grows with |q| and |r|, so a bound
    # taken at larger |q| and |r| still covers them (the census relies on this)
    p = -(r1 + r2 + r3)
    q = r1 * r2 + r1 * r3 + r2 * r3
    r = -r1 * r2 * r3
    bound = fujiwara_bound(p, q, r)
    assert max(abs(r1), abs(r2), abs(r3)) < bound
    assert bound <= fujiwara_bound(p, abs(q) + extra, -abs(r) - extra)


def test_integer_roots_huge_coefficients():
    # (X - 10**7)(X^2 + 3) has one integer root far outside divisor-scan comfort
    p, q, r = -(10**7), 3, -3 * 10**7
    assert integer_roots_monic_cubic(p, q, r) == [10**7]


def _planted(r1, r2, r3):
    """(p, q, r) of (X - r1)(X - r2)(X - r3)."""
    return -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3


@pytest.mark.parametrize("bound", [10**6, 10**12, 10**18])
def test_integer_roots_match_bisection_on_seeded_cubics(bound):
    rng = random.Random(bound)
    for _ in range(20000):
        p, q, r = (rng.randint(-bound, bound) for _ in range(3))
        assert integer_roots_monic_cubic(p, q, r) == classify._integer_roots_bisect(p, q, r), (p, q, r)


def test_integer_roots_match_bisection_on_planted_roots():
    rng = random.Random(17)
    cases = []
    for _ in range(6000):
        r1, r2, r3 = (rng.randint(-(10**5), 10**5) for _ in range(3))
        cases += [(r1, r2, r3), (r1, r1, r3), (r1, r1, r1)]
    cases += [(10**5, 10**5, -(10**5)), (-(10**5),) * 3, (0, 0, 1), (0, 0, 0)]
    for roots in cases:
        coeffs = _planted(*roots)
        got = integer_roots_monic_cubic(*coeffs)
        assert got == sorted(set(roots)) == classify._integer_roots_bisect(*coeffs), roots


def test_integer_roots_on_every_zero_disc_cubic_of_the_box():
    # D = 0 is decided in closed form, without floats
    seen = 0
    for p, q, r in itertools.product(range(-12, 13), repeat=3):
        if disc_cubic(MonicCubic(p, q, r)) == 0:
            seen += 1
            assert integer_roots_monic_cubic(p, q, r) == classify._integer_roots_bisect(p, q, r)
    assert seen > 40


@pytest.mark.parametrize(
    "coeffs,roots",
    [
        # (X - 10^20)(X^2 + 3): a root beyond 2^53, where a float guess no
        # longer locates a unit interval
        ((-(10**20), 3, -3 * 10**20), [10**20]),
        # (X - 2)(X^2 + 10^300) and X^3 + 10^300 X + 1: float() overflows
        ((-2, 10**300, -2 * 10**300), [2]),
        ((0, 10**300, 1), []),
        # X^3 - 10^20 X^2 + X - 1: one real root, within 10^-20 of 10^20
        ((-(10**20), 1, -1), []),
        # (X + 10^20)(X - 3)(X - 5)
        (_planted(-(10**20), 3, 5), [-(10**20), 3, 5]),
        # (X - 2^60)(X^2 - X - 1), and the same plus 1
        ((-(2**60) - 1, 2**60 - 1, 2**60), [2**60]),
        ((-(2**60) - 1, 2**60 - 1, 2**60 + 1), []),
    ],
)
def test_integer_roots_fallback_stays_exact(monkeypatch, coeffs, roots):
    calls = []
    bisect = classify._integer_roots_bisect
    monkeypatch.setattr(classify, "_integer_roots_bisect", lambda *c: calls.append(c) or bisect(*c))
    assert integer_roots_monic_cubic(*coeffs) == roots
    assert calls == [coeffs]


@pytest.mark.parametrize("bound", [10**18, 10**30])
def test_huge_cubics_match_bisection_and_planted_roots(bound):
    # |coefficient| up to bound: seeded cubics agree with the bisection, and
    # cubics built with one huge integer root beside two small ones give
    # exactly their roots, and beside a quadratic with small coefficients
    # the bisection's
    bisect = classify._integer_roots_bisect
    rng = random.Random(bound)
    for _ in range(3000):
        p, q, r = (rng.randint(-bound, bound) for _ in range(3))
        assert integer_roots_monic_cubic(p, q, r) == bisect(p, q, r), (p, q, r)
    scale = math.isqrt(math.isqrt(bound))  # small roots of size bound^(1/4)
    for _ in range(1000):
        big = rng.choice([-1, 1]) * rng.randint(bound // 1000, bound)
        r2, r3 = rng.randint(-scale, scale), rng.randint(-scale, scale)
        assert integer_roots_monic_cubic(*_planted(big, r2, r3)) == sorted({big, r2, r3})
        b, c = rng.randint(-scale, scale), rng.randint(-scale, scale)  # (X - big)(X^2 + bX + c)
        coeffs = (b - big, c - big * b, -big * c)
        roots = integer_roots_monic_cubic(*coeffs)
        assert big in roots and roots == bisect(*coeffs), coeffs


@pytest.mark.parametrize(
    "coeffs",
    [
        # roots near -0.763, -0.147 and 8.910: two share the interval (-1, 0),
        # which the certificate splits at the midpoint of their guesses
        (-8, -8, -1),
        # X^3 - 2(aX - 1)^2, a = 10^4: two roots near 1/a, about 1.4e-10 apart
        (-2 * 10**8, 4 * 10**4, -2),
        # one real root, about 3.7e-6 below the integer 237058096173
        (-237058096174, 237058983568, -92295601377),
    ],
)
def test_integer_roots_hard_for_floats_stay_exact(coeffs):
    assert integer_roots_monic_cubic(*coeffs) == classify._integer_roots_bisect(*coeffs) == []


def test_certificate_is_exact_whatever_the_guesses():
    # the floats only choose where to look: guesses off by up to 30 units,
    # one per real root, must still give the bisection's answer
    import numpy as np

    rng = random.Random(23)
    outcomes = set()
    for _ in range(4000):
        kind = rng.randrange(3)
        if kind == 0:
            p, q, r = _planted(*(rng.randint(-40, 40) for _ in range(3)))
        elif kind == 1:
            # (X - m)(X^2 + bX + c): an integer root beside two real
            # irrational ones, whose sign changes must not stand in for it
            m, b, c = rng.randint(-40, 40), rng.randint(-40, 40), rng.randint(-400, 0)
            p, q, r = b - m, c - m * b, -m * c
        else:
            p, q, r = (rng.randint(-300, 300) for _ in range(3))
        I, J = classify.invariants_cubic_coeffs(p, q, r)
        D = 4 * I**3 - J * J
        if D == 0:
            continue
        roots = sorted(np.roots([1, p, q, r]), key=lambda z: abs(z.imag))[: 3 if D > 0 else 1]
        scale = rng.choice([0.0, 0.01, 0.6, 3.0, 30.0])
        xs = sorted(float(z.real) + rng.uniform(-scale, scale) for z in roots)
        got = classify._certified_roots(p, q, r, xs)
        assert got == classify._integer_roots_bisect(p, q, r), (p, q, r, xs)
        outcomes.add(bool(got))
    assert outcomes == {False, True}


def test_integer_roots_certificate_decides_d4vc_and_a3(monkeypatch):
    # with the fallback made to fail, every answer below comes from the
    # float guesses and their exact certificate
    from fractions import Fraction

    from galoiscensus.census import list_a3_cubics
    from galoiscensus.families import gen_d4vc_family

    def no_fallback(*coeffs):
        raise AssertionError(f"fallback on {coeffs}")

    monkeypatch.setattr(classify, "_integer_roots_bisect", no_fallback)
    fam = gen_d4vc_family(10**5, Fraction(1, 5))
    assert len(fam) > 300
    for _, params, coeffs, _ in fam:
        assert resolvent_integer_roots(MonicQuartic(*coeffs)) == [dict(params)["x"]]
    a3 = list_a3_cubics(30)
    assert len(a3) > 700
    assert all(classify_cubic(MonicCubic(*c)) is CubicClass.A3 for c in a3)


# --- classification ---

@pytest.mark.parametrize(
    "f,cls",
    [
        (MonicCubic(0, -1, 0), CubicClass.REDUCIBLE),
        (MonicCubic(1, -2, -1), CubicClass.A3),
        (MonicCubic(0, 0, -2), CubicClass.S3),
        (MonicCubic(0, -3, -1), CubicClass.A3),
    ],
)
def test_classify_cubic_examples(f, cls):
    assert classify_cubic(f) is cls


@pytest.mark.parametrize(
    "f,group,root",
    [
        (MonicQuartic(0, 0, 0, 1), QuarticGroup.V4, None),
        (MonicQuartic(0, 0, 8, 12), QuarticGroup.A4, None),
        (MonicQuartic(1, 1, 1, 1), QuarticGroup.C4, 2),
        (MonicQuartic(0, 0, 0, -2), QuarticGroup.D4, 0),
        (MonicQuartic(0, 0, 0, -1), QuarticGroup.REDUCIBLE, None),  # a root at 1
        (MonicQuartic(0, 0, 0, 4), QuarticGroup.REDUCIBLE, None),  # (X^2 - 2X + 2)(X^2 + 2X + 2)
        (MonicQuartic(0, 0, 1, 1), QuarticGroup.S4, None),
        (MonicQuartic(0, 18, 8, 1), QuarticGroup.A4, None),  # the a4 family at u = v = 1
        (MonicQuartic(0, -10, 0, 5), QuarticGroup.C4, -10),
    ],
)
def test_classify_quartic_examples(f, group, root):
    res = classify_quartic(f)
    assert res.group is group
    assert res.resolvent_root == root


def test_nonreducible_implies_nonzero_disc():
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        f = MonicQuartic(a, b, c, d)
        if classify_quartic(f).group is not QuarticGroup.REDUCIBLE:
            assert disc_quartic(f) != 0
    for a, b, c in itertools.product(range(-5, 6), repeat=3):
        g = MonicCubic(a, b, c)
        if classify_cubic(g) is not CubicClass.REDUCIBLE:
            assert disc_cubic(g) != 0


@given(coeff, coeff, coeff, coeff)
@settings(max_examples=400)
def test_sign_symmetry_quartic(a, b, c, d):
    left = classify_quartic(MonicQuartic(a, b, c, d))
    right = classify_quartic(MonicQuartic(-a, b, -c, d))
    assert left.group is right.group


@given(coeff, coeff, coeff)
@settings(max_examples=400)
def test_sign_symmetry_cubic(a, b, c):
    assert classify_cubic(MonicCubic(a, b, c)) is classify_cubic(MonicCubic(-a, b, -c))


def _sympy_group_label(coeffs) -> str:
    import sympy
    from sympy.abc import x
    from sympy.polys.numberfields.galoisgroups import galois_group

    n = len(coeffs)
    poly = x**n + sum(coeffs[i] * x ** (n - 1 - i) for i in range(n))
    if not sympy.Poly(poly, x).is_irreducible:
        return "reducible"
    group, _ = galois_group(poly)
    order = group.order()
    if n == 3:
        return {6: "S3", 3: "A3"}[order]
    if order == 4:
        return "C4" if group.is_cyclic else "V4"
    return {24: "S4", 12: "A4", 8: "D4"}[order]


def test_classify_quartic_against_sympy_galois_group():
    rng = random.Random(2024)
    polys = [tuple(rng.randint(-20, 20) for _ in range(4)) for _ in range(60)]
    # make sure the rare classes are represented
    polys += [(0, 0, 8, 12), (1, 1, 1, 1), (0, 0, 0, -2), (0, 0, 0, 1), (0, 52, 0, 1)]
    for coeffs in polys:
        assert classify_quartic(MonicQuartic(*coeffs)).group.value == _sympy_group_label(coeffs)


def test_classify_cubic_against_sympy_galois_group():
    rng = random.Random(2025)
    polys = [tuple(rng.randint(-20, 20) for _ in range(3)) for _ in range(40)]
    polys += [(1, -2, -1), (0, -3, -1), (0, 0, -2)]
    for coeffs in polys:
        assert classify_cubic(MonicCubic(*coeffs)).value == _sympy_group_label(coeffs)


# --- Frobenius cycle types ---

@pytest.mark.parametrize(
    "f,p,cycle",
    [
        (MonicQuartic(0, 0, 0, 1), 3, (2, 2)),
        (MonicQuartic(0, 0, 0, 1), 17, (1, 1, 1, 1)),
        (MonicQuartic(1, 1, 1, 1), 2, (4,)),
        (MonicCubic(1, -2, -1), 13, (1, 1, 1)),
        (MonicCubic(0, 0, -2), 7, (3,)),
        (MonicCubic(0, -1, -1), 5, (1, 2)),
        (MonicQuartic(0, 0, -2, 1), 3, (1, 3)),
        (MonicQuartic(0, 0, 0, -1), 3, (1, 1, 2)),
        (MonicQuartic(0, 0, 0, -2), 5, (4,)),
    ],
)
def test_frobenius_examples(f, p, cycle):
    assert frobenius_cycle_type(f, p) == cycle


def test_frobenius_rejects_bad_primes():
    f = MonicQuartic(0, 0, 0, 1)  # disc 256
    with pytest.raises(ValueError, match="divides the discriminant"):
        frobenius_cycle_type(f, 2)
    with pytest.raises(ValueError, match="divides the discriminant"):
        frobenius_cycle_type(MonicCubic(0, 0, -2), 3)  # disc -108
    # 1681 = 41^2 is the first composite with no prime factor up to 37
    for p in (15, 0, 1, 4, 1681, -7):
        with pytest.raises(ValueError, match="not prime"):
            frobenius_cycle_type(f, p)


def test_frobenius_against_sympy_factorization():
    import sympy
    from sympy.abc import x

    rng = random.Random(5)
    for n in (3, 4):
        for _ in range(150):
            coeffs = [rng.randint(-15, 15) for _ in range(n)]
            f = MonicCubic(*coeffs) if n == 3 else MonicQuartic(*coeffs)
            disc = disc_cubic(f) if n == 3 else disc_quartic(f)
            p = rng.choice([2, 3, 5, 7, 11, 13, 17, 10007])
            if disc % p == 0:
                continue
            poly = sympy.Poly(
                x**n + sum(c * x ** (n - 1 - i) for i, c in enumerate(coeffs)), x, modulus=p
            )
            ref = tuple(sorted(g.degree() for g, e in poly.factor_list()[1] for _ in range(e)))
            assert frobenius_cycle_type(f, p) == ref


# A textbook F_p route, kept as the reference for frobenius_cycle_type:
# right-to-left powers of X with a trimmed remainder after every product,
# on f itself for cubics too.

def _oracle_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _oracle_rem(f: list[int], m: list[int], p: int) -> list[int]:
    f = _oracle_trim(f[:])
    dm = len(m) - 1
    inv = pow(m[-1], -1, p)
    while len(f) - 1 >= dm:
        k = len(f) - 1 - dm
        q = f[-1] * inv % p
        for i, mi in enumerate(m):
            f[k + i] = (f[k + i] - q * mi) % p
        f.pop()
        _oracle_trim(f)
    return f


def _oracle_mulmod(f: list[int], g: list[int], m: list[int], p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return _oracle_rem(out, m, p)


def _oracle_pow(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    """base^e mod (m, p), ascending and trimmed."""
    result, base = [1], _oracle_rem(base, m, p)
    while e:
        if e & 1:
            result = _oracle_mulmod(result, base, m, p)
        base = _oracle_mulmod(base, base, m, p)
        e >>= 1
    return result


def _oracle_root_count(f: list[int], xq: list[int], p: int) -> int:
    g = xq + [0] * (2 - len(xq))
    g[1] = (g[1] - 1) % p
    g = _oracle_trim(g)
    while g:
        f, g = g, _oracle_rem(f, g, p)
    return len(f) - 1


def _frobenius_oracle(f, p: int) -> tuple[int, ...]:
    fp = [c % p for c in f.coeffs()[::-1]] + [1]  # ascending, monic
    xp = _oracle_pow([0, 1], p, fp, p)
    linear = _oracle_root_count(fp, xp, p)
    rest = len(fp) - 1 - linear
    if rest == 4:
        quadratic_roots = _oracle_root_count(fp, _oracle_pow(xp, p, fp, p), p)
        return (2, 2) if quadratic_roots == 4 else (4,)
    return (1,) * linear + ((rest,) if rest else ())


_ORACLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 101, 199, 10007, 65537, 1000003)


def _seeded_frobenius_pairs(seed: int, count: int, degrees=(3, 4)):
    """count seeded (f, p) pairs with p prime to disc(f); coefficient heights
    12, 50 and the contract's 10^6."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        n = rng.choice(degrees)
        height = rng.choice((12, 50, 10**6))
        coeffs = [rng.randint(-height, height) for _ in range(n)]
        f = MonicCubic(*coeffs) if n == 3 else MonicQuartic(*coeffs)
        p = rng.choice(_ORACLE_PRIMES)
        if (disc_cubic(f) if n == 3 else disc_quartic(f)) % p:
            pairs.append((f, p))
    return pairs


def test_frobenius_matches_oracle_on_seeded_pairs(cycle_types):
    primes_seen, cycles_seen = set(), set()
    for f, p in _seeded_frobenius_pairs(15, 20_000):
        cycle = frobenius_cycle_type(f, p)
        assert cycle == _frobenius_oracle(f, p), (f, p)
        primes_seen.add((len(f.coeffs()), p))
        cycles_seen.add(cycle)
    # both degrees at p = 2 and at each large prime, and every realizable cycle type
    assert {(n, p) for n in (3, 4) for p in (2, 10007, 65537, 1000003)} <= primes_seen
    assert cycles_seen == set().union(*cycle_types.values())


def test_frobenius_square_power_by_composition_matches_oracle():
    # X^(p^2) mod f as xp(xp) equals the oracle's (X^p)^p, and X^p agrees too
    for f, p in _seeded_frobenius_pairs(16, 1500, degrees=(4,)):
        fp = [c % p for c in f.coeffs()[::-1]] + [1]
        coeffs, rows = classify._p_frame(f, p)
        xp = classify._p_xpow(rows, p)
        oracle_xp = _oracle_pow([0, 1], p, fp, p)
        assert list(xp) == oracle_xp + [0] * (4 - len(oracle_xp)), (f, p)
        xp2 = _oracle_pow(oracle_xp, p, fp, p)
        assert list(classify._p_compose(xp, rows, p)) == xp2 + [0] * (4 - len(xp2)), (f, p)


def test_frobenius_work_counts(monkeypatch):
    # X^p takes bit_length(p) - 1 squarings and no general product; only a
    # rootless quartic composes, with two general products (Horner's first
    # step is a scalar multiple)
    calls = {"sqr": 0, "mul": 0}
    sqr, mul = classify._p_sqr, classify._p_mul

    def counted_sqr(*args):
        calls["sqr"] += 1
        return sqr(*args)

    def counted_mul(*args):
        calls["mul"] += 1
        return mul(*args)

    monkeypatch.setattr(classify, "_p_sqr", counted_sqr)
    monkeypatch.setattr(classify, "_p_mul", counted_mul)
    rootless = 0
    for f, p in _seeded_frobenius_pairs(17, 2000):
        calls.update(sqr=0, mul=0)
        cycle = frobenius_cycle_type(f, p)
        assert calls["sqr"] == p.bit_length() - 1, (f, p)
        assert calls["mul"] == (2 if 1 not in cycle and len(f.coeffs()) == 4 else 0), (f, p)
        rootless += calls["mul"] > 0
    assert rootless > 100


def test_cycle_types_land_in_classified_group(cycle_types):
    rng = random.Random(99)
    primes = [p for p in range(3, 50) if all(p % q for q in range(2, p))]
    checked = 0
    while checked < 300:
        f = MonicQuartic(*(rng.randint(-12, 12) for _ in range(4)))
        label = classify_quartic(f).group.value
        if label == "reducible":
            continue
        checked += 1
        disc = disc_quartic(f)
        for p in primes:
            if disc % p == 0:
                continue
            assert frobenius_cycle_type(f, p) in cycle_types[label]


def test_resolvent_root_unique_in_d4c4_branch():
    # the decision table relies on uniqueness of the resolvent root there
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4):
        f = MonicQuartic(a, b, c, d)
        res = classify_quartic(f)
        if res.group in (QuarticGroup.D4, QuarticGroup.C4):
            assert len(resolvent_integer_roots(f)) == 1
