import json

import pytest
from hypothesis import given, settings, strategies as st

from galoiscensus.census import list_a3_cubics
from galoiscensus.classify import MonicCubic
from galoiscensus.eisenstein import (
    LAMBDA,
    UNITS,
    EisInt,
    EisensteinError,
    WitnessError,
    canonical_associate,
    eis_cubefree_decompose,
    eis_divmod,
    eis_factor,
    eis_gcd,
    param_xy,
    parametrize_cubic_witness,
    surface_family_point,
)

small = st.integers(min_value=-60, max_value=60)
eis = st.builds(EisInt, small, small)
eis_nonzero = eis.filter(bool)


# --- ring structure ---

def test_mul_examples():
    zeta = EisInt(0, 1)
    one_zeta = EisInt(1, 1)
    assert one_zeta * one_zeta == zeta  # (1+z)^2 = z
    lam = EisInt(1, -1)
    assert lam * lam == EisInt(0, -3)  # (1-z)^2 = -3z
    z = EisInt(5, -7)
    assert z * EisInt(1, 0) == z


def test_norm_examples():
    assert EisInt(1, 1).norm() == 1
    assert EisInt(1, -1).norm() == 3
    assert EisInt(2, 0).norm() == 4


@given(eis, eis)
def test_norm_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()


@given(eis)
def test_norm_nonnegative(z):
    n = z.norm()
    assert n >= 0
    assert (n == 0) == (not z)


@given(eis)
def test_half_coordinates(z):
    q, r = z.half_coords()
    assert (q - r) % 2 == 0
    # (q + r sqrt(-3))/2 reconstructs m + n zeta
    assert q == 2 * z.m - z.n and r == z.n


@given(eis, eis_nonzero)
def test_divmod_contract(a, b):
    q, r = eis_divmod(a, b)
    assert q * b + r == a
    assert 4 * r.norm() <= 3 * b.norm()


def test_canonical_associate_sector():
    for z in (EisInt(3, 1), EisInt(-2, 5), EisInt(0, -4), EisInt(1, 1), EisInt(7, 7)):
        w = canonical_associate(z)
        assert 0 <= w.n < w.m
        assert any(w == z * u for u in UNITS)
    with pytest.raises(EisensteinError):
        canonical_associate(EisInt(0, 0))


@given(eis_nonzero)
def test_canonical_associate_is_unique(z):
    hits = [z * u for u in UNITS if 0 <= (z * u).n < (z * u).m]
    assert len(hits) == 1
    assert canonical_associate(z) == hits[0]


# --- gcd and factorization ---

def test_gcd_examples():
    assert eis_gcd(EisInt(2, 0), EisInt(1, -1)) == EisInt(1, 0)
    assert eis_gcd(EisInt(6, 0), EisInt(2, 0)) == EisInt(2, 0)
    z = EisInt(4, -6)
    assert eis_gcd(z, EisInt(0, 0)) == canonical_associate(z)
    with pytest.raises(EisensteinError):
        eis_gcd(EisInt(0, 0), EisInt(0, 0))


@given(eis_nonzero, eis_nonzero)
@settings(max_examples=200)
def test_gcd_divides_both(a, b):
    from galoiscensus.eisenstein import eis_exact_div

    g = eis_gcd(a, b)
    assert eis_exact_div(a, g) is not None
    assert eis_exact_div(b, g) is not None


def test_factor_examples():
    unit, primes = eis_factor(EisInt(6, 0))
    assert unit.norm() == 1
    assert dict(((p.m, p.n), e) for p, e in primes) == {(2, 1): 2, (2, 0): 1}
    unit, primes = eis_factor(EisInt(7, 0))
    assert [p.norm() for p, _ in primes] == [7, 7]
    unit, primes = eis_factor(EisInt(1, 1))
    assert primes == () and unit == EisInt(1, 1)


@given(eis_nonzero)
@settings(max_examples=200)
def test_factor_reconstructs(z):
    unit, primes = eis_factor(z)
    acc = unit
    for p, e in primes:
        for _ in range(e):
            acc = acc * p
    assert acc == z
    # canonical primes, deterministically ordered, norms > 1
    assert all(0 <= p.n < p.m and p.norm() > 1 for p, _ in primes)


def test_ramification_casework():
    # 3 ramifies: norm(lambda) = 3 and lambda^2 ~ 3
    assert LAMBDA.norm() == 3
    unit, primes = eis_factor(EisInt(3, 0))
    assert primes == ((LAMBDA, 2),)
    # 5 = 2 (mod 3) stays inert
    unit, primes = eis_factor(EisInt(5, 0))
    assert primes == ((EisInt(5, 0), 1),)
    # 13 = 1 (mod 3) splits into non-associate conjugates
    unit, primes = eis_factor(EisInt(13, 0))
    assert len(primes) == 2 and all(p.norm() == 13 for p, _ in primes)


def test_cubefree_examples():
    assert eis_cubefree_decompose(EisInt(8, 0)) == (EisInt(1, 0), EisInt(2, 0))
    d, alpha = eis_cubefree_decompose(EisInt(0, 1))
    assert d == EisInt(0, 1) and alpha == EisInt(1, 0)
    lam = EisInt(1, -1)
    z = lam * lam * lam * lam
    d, alpha = eis_cubefree_decompose(z)
    assert d * alpha * alpha * alpha == z
    assert canonical_associate(d) == LAMBDA and canonical_associate(alpha) == LAMBDA


@given(eis_nonzero, eis_nonzero)
@settings(max_examples=150, deadline=None)
def test_cubefree_roundtrip(d0, a0):
    from galoiscensus.eisenstein import _eis_is_cubefree

    z = d0 * a0 * a0 * a0
    d, alpha = eis_cubefree_decompose(z)
    assert d * alpha * alpha * alpha == z
    assert _eis_is_cubefree(d)


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
        d = EisInt((q + r) // 2, r)
        for s, t in pairs:
            alpha = EisInt((s + t) // 2, t)
            cube = alpha * alpha * alpha
            xq, xr = (d * cube).half_coords()  # product = (xq + xr sqrt(-3)) / 2
            assert param_xy(q, r, s, t) == (8 * xq, 8 * xr)


def test_surface_family_examples():
    assert surface_family_point(1, 1) == (-16, 0, 4)
    assert surface_family_point(2, 1) == (-20, 18, 7)
    assert surface_family_point(0, 0) == (0, 0, 0)


@given(st.integers(-300, 300), st.integers(-300, 300))
def test_surface_family_on_surface(s, t):
    J, Y, I = surface_family_point(s, t)
    assert J * J + 3 * Y * Y == 4 * I**3


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


def test_witness_json_fields():
    w = parametrize_cubic_witness(MonicCubic(1, -2, -1))
    payload = json.loads(w.to_json())
    assert payload["cubic"] == [1, -2, -1]
    assert payload["u"] == 7 and payload["conjugate_used"] is False


def test_witness_all_a3_cubics_height12():
    for a, b, c in list_a3_cubics(12):
        w = parametrize_cubic_witness(MonicCubic(a, b, c))
        w.verify()
        assert w.u * (8 * w.z) ** 3 == 4 * (w.q**2 + 3 * w.r**2) * (w.s**2 + 3 * w.t**2) ** 3
