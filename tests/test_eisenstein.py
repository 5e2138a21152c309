import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from galoiscensus.census import list_a3_cubics
from galoiscensus.classify import MonicCubic
from galoiscensus.cli import main
from galoiscensus.eisenstein import (
    EisensteinError,
    ParamWitness,
    WitnessError,
    _conj,
    _cube_root_part,
    _eis_is_cubefree,
    _exact_div,
    _mul,
    _norm,
    _split_prime_above,
    canonical_associate,
    half_coords,
    param_xy,
    parametrize_cubic_witness,
)
from galoiscensus.exactarith import cubefree_decompose, factorize

small = st.integers(min_value=-60, max_value=60)
eis = st.tuples(small, small)
eis_nonzero = eis.filter(lambda z: z != (0, 0))

ONE = (1, 0)
UNITS = ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1))
LAMBDA = (2, 1)  # canonical associate of 1 - zeta, the prime over 3


def _prod(*factors):
    out = ONE
    for z in factors:
        out = _mul(out, z)
    return out


def _power(z, k):
    return _prod(*[z] * k)


# --- the oracle of the witness chain's cube root: a full factorization in Z[zeta]

def _divide_out(z, prime):
    """(z / prime^k, k) for the largest k with prime^k dividing z != 0."""
    k = 0
    while (quotient := _exact_div(z, prime)) is not None:
        z, k = quotient, k + 1
    return z, k


def eis_factor(z):
    """(unit, ((prime, exponent), ...)) with canonical primes, deterministic order.

    Rational primes behave by residue mod 3: p = 3 ramifies as (1-zeta)^2 up
    to a unit, p = 2 (mod 3) stays inert, and p = 1 (mod 3) splits into a
    conjugate pair of norm-p primes.
    """
    if z == (0, 0):
        raise EisensteinError("cannot factor zero")
    rest = z
    found = []
    for p, _ in factorize(_norm(z)):
        if p == 3:
            primes = (LAMBDA,)
        elif p % 3 == 2:
            primes = ((p, 0),)
        else:
            pi = _split_prime_above(p)
            primes = (pi, canonical_associate(_conj(pi)))
        for prime in primes:
            rest, k = _divide_out(rest, prime)
            if k:
                found.append((prime, k))
    assert _norm(rest) == 1, f"non-unit cofactor {rest} left over"
    found.sort(key=lambda t: (_norm(t[0]), t[0]))
    return rest, tuple(found)


def eis_cubefree_decompose(z):
    """z = d * alpha^3 with d cubefree; alpha is the canonical associate of
    the extracted cube root and d = z / alpha^3 exactly."""
    if z == (0, 0):
        raise EisensteinError("cannot decompose zero")
    _, primes = eis_factor(z)
    alpha = ONE
    for prime, e in primes:
        alpha = _mul(alpha, _power(prime, e // 3))
    alpha = canonical_associate(alpha)
    d = _exact_div(z, _power(alpha, 3))
    assert d is not None, "cube part does not divide its source"
    return d, alpha


# --- ring structure ---

def test_mul_examples():
    zeta = (0, 1)
    one_zeta = (1, 1)
    assert _mul(one_zeta, one_zeta) == zeta  # (1+z)^2 = z
    lam = (1, -1)
    assert _mul(lam, lam) == (0, -3)  # (1-z)^2 = -3z
    z = (5, -7)
    assert _mul(z, ONE) == z
    assert _conj(zeta) == (-1, -1)  # conj(zeta) = zeta^2 = -1 - zeta
    assert _exact_div(_mul(z, lam), lam) == z
    assert _exact_div(z, lam) is None  # N(lam) = 3 does not divide N(z) = 109


def test_norm_examples():
    assert _norm((1, 1)) == 1
    assert _norm((1, -1)) == 3
    assert _norm((2, 0)) == 4


@given(eis, eis)
def test_norm_multiplicative(a, b):
    assert _norm(_mul(a, b)) == _norm(a) * _norm(b)


@given(eis)
def test_norm_nonnegative(z):
    n = _norm(z)
    assert n >= 0
    assert (n == 0) == (z == (0, 0))
    assert _mul(z, _conj(z)) == (n, 0)


@given(eis)
def test_half_coordinates(z):
    q, r = half_coords(z)
    assert (q - r) % 2 == 0
    # (q + r sqrt(-3))/2 reconstructs m + n zeta
    m, n = z
    assert q == 2 * m - n and r == n


def test_canonical_associate_sector():
    for z in ((3, 1), (-2, 5), (0, -4), (1, 1), (7, 7)):
        m, n = canonical_associate(z)
        assert 0 <= n < m
        assert any((m, n) == _mul(z, u) for u in UNITS)
    with pytest.raises(EisensteinError):
        canonical_associate((0, 0))


@given(eis_nonzero)
def test_canonical_associate_is_unique(z):
    hits = [w for w in (_mul(z, u) for u in UNITS) if 0 <= w[1] < w[0]]
    assert len(hits) == 1
    assert canonical_associate(z) == hits[0]


# --- factorization ---

def test_factor_examples():
    unit, primes = eis_factor((6, 0))
    assert _norm(unit) == 1
    assert dict(primes) == {(2, 1): 2, (2, 0): 1}
    unit, primes = eis_factor((7, 0))
    assert [_norm(p) for p, _ in primes] == [7, 7]
    unit, primes = eis_factor((1, 1))
    assert primes == () and unit == (1, 1)


@given(eis_nonzero)
@settings(max_examples=200)
def test_factor_reconstructs(z):
    unit, primes = eis_factor(z)
    assert _prod(unit, *(_power(p, e) for p, e in primes)) == z
    # canonical primes, deterministically ordered, norms > 1
    assert all(0 <= p[1] < p[0] and _norm(p) > 1 for p, _ in primes)


def test_ramification_casework():
    # 3 ramifies: norm(lambda) = 3 and lambda^2 ~ 3
    assert _norm(LAMBDA) == 3
    unit, primes = eis_factor((3, 0))
    assert primes == ((LAMBDA, 2),)
    # 5 = 2 (mod 3) stays inert
    unit, primes = eis_factor((5, 0))
    assert primes == (((5, 0), 1),)
    # 13 = 1 (mod 3) splits into non-associate conjugates
    unit, primes = eis_factor((13, 0))
    assert len(primes) == 2 and all(_norm(p) == 13 for p, _ in primes)


def test_cubefree_examples():
    assert eis_cubefree_decompose((8, 0)) == ((1, 0), (2, 0))
    d, alpha = eis_cubefree_decompose((0, 1))
    assert d == (0, 1) and alpha == (1, 0)
    z = _power((1, -1), 4)
    d, alpha = eis_cubefree_decompose(z)
    assert _prod(d, alpha, alpha, alpha) == z
    assert canonical_associate(d) == LAMBDA and canonical_associate(alpha) == LAMBDA


@given(eis_nonzero, eis_nonzero)
@settings(max_examples=150, deadline=None)
def test_cubefree_roundtrip(d0, a0):
    z = _prod(d0, a0, a0, a0)
    d, alpha = eis_cubefree_decompose(z)
    assert _prod(d, alpha, alpha, alpha) == z
    assert _eis_is_cubefree(d)


@given(eis_nonzero, eis_nonzero)
@settings(max_examples=150, deadline=None)
def test_cubefree_part_of_conjugate(d0, a0):
    # why parametrize_cubic_witness need not decompose the conjugate side
    z = _prod(d0, a0, a0, a0)
    d, _ = eis_cubefree_decompose(z)
    d_conj, _ = eis_cubefree_decompose(_conj(z))
    assert _norm(d_conj) == _norm(d)
    assert canonical_associate(d_conj) == canonical_associate(_conj(d))


def _cubefree_by_factoring(z):
    # the route the witness check took before it read N(z): a full factorization in Z[zeta]
    _, primes = eis_factor(z)
    return all(e < 3 for _, e in primes)


small_nonzero = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda z: z != (0, 0))
with_cube = st.builds(lambda d0, a0: _prod(d0, a0, a0, a0), eis_nonzero, small_nonzero)
with_prime_powers = st.builds(
    lambda d0, k, kc: _prod(d0, _power((3, 1), k), _power(_conj((3, 1)), kc)),
    eis_nonzero, st.integers(0, 4), st.integers(0, 4),
)


@given(st.one_of(eis_nonzero, with_cube, with_prime_powers))
@settings(max_examples=400, deadline=None)
def test_cubefree_check_matches_factoring(z):
    assert _eis_is_cubefree(z) == _cubefree_by_factoring(z)


def test_cubefree_check_edge_cases():
    assert _eis_is_cubefree(_power(LAMBDA, 2))  # v_3(N) = 2
    assert not _eis_is_cubefree(_power(LAMBDA, 3))  # v_3(N) = 3
    assert _eis_is_cubefree((4, 0))  # 2 is inert: v_2(N) = 4
    assert not _eis_is_cubefree((8, 0))  # v_2(N) = 6
    pi = (3, 1)  # a split prime of norm 7
    assert _norm(pi) == 7
    d0 = (5, 1)
    assert not _eis_is_cubefree(_mul(d0, _power(pi, 3)))
    assert not _eis_is_cubefree(_mul(d0, _power(_conj(pi), 3)))
    assert _eis_is_cubefree(_mul(_power(pi, 2), _power(_conj(pi), 2)))  # v_7(N) = 4
    assert _eis_is_cubefree(_mul(_power(pi, 2), _conj(pi)))  # v_7(N) = 3
    assert not _eis_is_cubefree((0, 0))


# --- parametrization ---

def test_param_xy_examples():
    assert param_xy(2, 0, 2, 0) == (16, 0)
    assert param_xy(0, 2, 2, 0) == (0, 16)
    assert param_xy(2, 0, 1, 1) == (-16, 0)
    with pytest.raises(EisensteinError):
        param_xy(1, 0, 2, 0)


def test_param_xy_equals_ring_multiplication():
    # full |q|,|r|,|s|,|t| <= 20 window with valid parity
    pairs = [(q, r) for q in range(-20, 21) for r in range(-20, 21) if (q - r) % 2 == 0]
    for q, r in pairs:
        d = ((q + r) // 2, r)
        for s, t in pairs:
            alpha = ((s + t) // 2, t)
            xq, xr = half_coords(_prod(d, alpha, alpha, alpha))  # = (xq + xr sqrt(-3)) / 2
            assert param_xy(q, r, s, t) == (8 * xq, 8 * xr)


# --- the witness pipeline ---

def test_witness_spec_example():
    w = parametrize_cubic_witness(MonicCubic(1, -2, -1))
    assert (w.I, w.J, w.Y) == (7, -7, 21)
    assert w.g == 7 and (w.u, w.v) == (7, 1)
    assert (w.x, w.y, w.z) == (-1, 3, 2)
    assert 2 * (w.x**2 + 3 * w.y**2) == 56 == w.u * w.z**3
    w.verify()


def test_witness_second_example_validates():
    w = parametrize_cubic_witness(MonicCubic(0, -3, -1))
    assert (w.I, w.J) == (9, -27)
    w.verify()


def test_witness_rejects_non_a3():
    with pytest.raises(WitnessError):
        parametrize_cubic_witness(MonicCubic(0, 0, -2))  # S3
    with pytest.raises(WitnessError):
        parametrize_cubic_witness(MonicCubic(0, -1, 0))  # reducible


def test_witness_json_fields(capsys):
    w = parametrize_cubic_witness(MonicCubic(1, -2, -1))
    payload = json.loads(w.to_json())
    assert payload["cubic"] == [1, -2, -1]
    assert payload["u"] == 7
    assert set(payload) == {
        "cubic", "I", "J", "Y", "disc", "g", "u", "v", "x", "y", "z",
        "d", "alpha", "q", "r", "s", "t",
    }
    assert list(payload) == [f.name for f in dataclasses.fields(ParamWitness)]
    # the whole line, byte for byte
    assert main(["param-witness", "--coeffs", "1,-2,-1"]) == 0
    assert capsys.readouterr().out == (
        '{"cubic": [1, -2, -1], "I": 7, "J": -7, "Y": 21, "disc": 49, "g": 7, "u": 7, "v": 1, '
        '"x": -1, "y": 3, "z": 2, "d": [2, 6], "alpha": [1, 0], "q": -2, "r": 6, "s": 2, "t": 0}\n'
    )


def test_witness_all_a3_cubics_height12():
    for a, b, c in list_a3_cubics(12):
        w = parametrize_cubic_witness(MonicCubic(a, b, c))
        w.verify()
        assert w.u * (8 * w.z) ** 3 == 4 * (w.q**2 + 3 * w.r**2) * (w.s**2 + 3 * w.t**2) ** 3


# --- the witness chain's cube root against the factoring oracle

def test_witnesses_match_factoring_oracle_at_height100():
    cubics = list_a3_cubics(100)
    assert len(cubics) == 4946
    for coeffs in cubics:
        w = parametrize_cubic_witness(MonicCubic(*coeffs))
        d, alpha = eis_cubefree_decompose((w.x + w.y, 2 * w.y))
        (q, r), (s, t) = half_coords(d), half_coords(alpha)
        oracle = dataclasses.replace(w, d=d, alpha=alpha, q=q, r=r, s=s, t=t)
        assert w.to_json() == oracle.to_json()
        # N(alpha) is the odd part of z, as the argument in _cube_root_part says
        assert _norm(alpha) * (w.z & -w.z) == w.z


@given(st.one_of(eis_nonzero, with_cube, with_prime_powers))
@settings(max_examples=400, deadline=None)
def test_cube_root_part_matches_factoring(z):
    # 2z = q + r sqrt(-3), and over g = gcd(q, r) it is a chain input:
    # coprime x, y with 2(x^2 + 3y^2) = u v^3, u cubefree
    q, r = half_coords(z)
    g = math.gcd(q, r)
    x, y = q // g, r // g
    u, v = cubefree_decompose(2 * (x * x + 3 * y * y))
    assert _cube_root_part(x, y, v) == eis_cubefree_decompose((x + y, 2 * y))


def test_witness_verify_rejects_a_wrong_cube_root():
    # verify checks (d, alpha) by its own route: the product and N(d)
    w = next(
        w for w in (parametrize_cubic_witness(MonicCubic(*c)) for c in list_a3_cubics(30))
        if _norm(w.alpha) > 1
    )
    minus = (-w.alpha[0], -w.alpha[1])  # (-alpha)^3 = -alpha^3
    with pytest.raises(WitnessError, match=r"x \+ y sqrt\(-3\) = d alpha\^3"):
        dataclasses.replace(w, alpha=minus).verify()
    whole = _prod(w.d, w.alpha, w.alpha, w.alpha)  # d alpha^3 with alpha = 1: not cubefree
    with pytest.raises(WitnessError, match="d cubefree in Z"):
        dataclasses.replace(w, d=whole, alpha=ONE).verify()
