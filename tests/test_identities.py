import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from galoiscensus import identities
from galoiscensus.classify import (
    MonicQuartic,
    disc_quartic_coeffs,
    integer_roots_monic_cubic,
    invariants_quartic,
    resolvent,
)
from galoiscensus.identities import (
    STAR_INT64_WINDOW,
    check_symmetry_identity,
    disc_F_identity,
    disc_F_suite,
    run_suites,
    star_suite,
    surface_eval,
    surface_suite,
    symmetry_suite,
    _star_block,
    _star_rhs,
    _star_sides,
)


# --- independent oracles for the library's fast routes

def check_star_identity(u: int, v: int, w: int, x: int, a: int, sign: int = 1) -> bool:
    """The discriminant factorization under the resolvent-root substitutions.

    With d = (x^2 - u v^2)/4, b = x + (a^2 - u w^2)/4, c = (x a + s u v w)/2
    (exact rationals; the substitutions need not be integral), verifies

        64 disc(f) = u^2 (2v^2 + s a v w + w^2 x)^2 * RHS(u,v,w,x,a,s)

    in cleared-denominator form, RHS being the degree-4 polynomial whose
    integer points the V4/C4 counting rests on.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    d = Fraction(x * x - u * v * v, 4)
    b = x + Fraction(a * a - u * w * w, 4)
    c = Fraction(x * a + sign * u * v * w, 2)
    disc = disc_quartic_coeffs(Fraction(a), b, c, d)
    factor = u * (2 * v * v + sign * a * v * w + w * w * x)
    return 64 * disc == factor * factor * _star_rhs(u, v, w, x, a, sign)


def surface_eval_defining(I: int, J: int, a: int, c: int, d: int) -> int:
    """The defining form (I - 12d + 3ac)(96d + 3ac - 2I)^2 - (J + 27c^2 + 27a^2 d)^2."""
    return (I - 12 * d + 3 * a * c) * (96 * d + 3 * a * c - 2 * I) ** 2 - (
        J + 27 * c * c + 27 * a * a * d
    ) ** 2





def test_symmetry_examples():
    assert check_symmetry_identity(0, 0, 0, 1, 0)
    assert check_symmetry_identity(2, 1, 1, 1, -1)  # X^4+X^3+X^2+X+1 at x=2, e=b-x
    assert not check_symmetry_identity(1, 1, 1, 1, 0)


def test_symmetry_holds_at_resolvent_roots():
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4):
        f = MonicQuartic(a, b, c, d)
        res = resolvent(f)
        for x in integer_roots_monic_cubic(res.a, res.b, res.c):
            assert check_symmetry_identity(x, a, c, d, b - x)


def test_symmetry_suite_window3():
    rep = symmetry_suite(3)
    assert rep.ok and rep.cases_checked > 0


def test_star_examples():
    assert check_star_identity(1, 1, 1, 1, 1, 1)
    assert check_star_identity(1, 1, 1, 1, 1, -1)
    assert check_star_identity(1, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        check_star_identity(1, 1, 1, 1, 1, 3)


def test_star_scaled_agrees_with_fraction_route():
    # every cell of the int64 grid blocks against the Fraction route, the oracle
    window = 3
    rng = range(-window, window + 1)
    cells = 0
    for u in rng:
        lhs, rhs = _star_block(u, window, np.int64)
        holds = lhs == rhs
        for v, w, x, a in itertools.product(rng, repeat=4):
            for si, sign in enumerate((1, -1)):
                cell = (v + window, w + window, x + window, a + window, si)
                assert holds[cell] == check_star_identity(u, v, w, x, a, sign)
                cells += 1
    assert cells == 33_614


def test_star_failures_match_case_loop(monkeypatch):
    _assert_star_failures_match_case_loop(monkeypatch)


def test_star_failures_match_case_loop_on_object_blocks(monkeypatch):
    # the per-(u, v) object blocks list failures in the same order
    monkeypatch.setattr(identities, "STAR_INT64_WINDOW", 1)
    _assert_star_failures_match_case_loop(monkeypatch)


def _assert_star_failures_match_case_loop(monkeypatch):
    true_rhs = identities._star_rhs

    def broken_rhs(u, v, w, x, a, sign):
        wrong = ((u == 2) & (v == -1) & (x == 0) & (a == 1)) | (
            (u == -3) & (w == 3) & (x == -2) & (a == 0) & (sign == -1)
        )
        return np.where(wrong, true_rhs(u, v, w, x, a, sign) + 1, true_rhs(u, v, w, x, a, sign))

    monkeypatch.setattr(identities, "_star_rhs", broken_rhs)
    rep = star_suite(3)
    expected = []
    for u, v, w, x, a in itertools.product(range(-3, 4), repeat=5):
        for sign in (1, -1):
            lhs, rhs = _star_sides(u, v, w, x, a, sign)
            if lhs != rhs:
                expected.append({"u": u, "v": v, "w": w, "x": x, "a": a, "sign": sign})
    # 21 broken cells, less the 4 with factor = 0 where any RHS satisfies the identity
    assert len(expected) == 17
    assert rep.cases_checked == 33_614
    assert rep.failures == expected
    assert all(type(val) is int for case in rep.failures for val in case.values())
    assert json.loads(rep.to_json())["failures"] == expected


class _Majorant(int):
    """A bound on |value|: coefficients taken absolutely, every minus a plus.
    Records the largest bound built, so every partial result is covered."""

    peak = 0

    def __new__(cls, value):
        obj = super().__new__(cls, value)
        _Majorant.peak = max(_Majorant.peak, int(obj))
        return obj

    def __add__(self, other):
        return _Majorant(int(self) + abs(int(other)))

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        return _Majorant(int(self) * abs(int(other)))

    __rmul__ = __mul__

    def __neg__(self):
        return self

    def __pow__(self, k):
        return _Majorant(int(self) ** k)


def _star_majorants(window):
    _Majorant.peak = 0
    m = _Majorant(window)
    lhs, rhs = _star_sides(m, m, m, m, m, _Majorant(1))
    return int(lhs), int(rhs), _Majorant.peak


def test_star_int64_cap_argument():
    # the polynomials quoted in the identities module docstring
    disc_side = [128, 768, 8448, 52480, 180352, 399872, 622592, 604160, 311296, 65536, 0, 0, 0, 0, 0, 0]
    other_side = [256, 1024, 13824, 46080, 69888, 53248, 16384, 0, 0, 0, 0, 0, 0, 0, 0]
    for window in range(1, 20):
        lhs, rhs, peak = _star_majorants(window)
        assert lhs == sum(c * window ** (15 - i) for i, c in enumerate(disc_side))
        assert rhs == sum(c * window ** (14 - i) for i, c in enumerate(other_side))
        assert peak == max(lhs, rhs)
    assert _star_majorants(STAR_INT64_WINDOW)[2] < 2**63
    assert _star_majorants(STAR_INT64_WINDOW + 1)[2] >= 2**63


def test_star_int64_blocks_match_object_blocks_at_cap():
    cap = STAR_INT64_WINDOW
    seeded = random.Random(11).sample(range(-cap + 1, cap), 2)
    for u in (cap, -cap, 0, *seeded):
        for side, exact in zip(_star_block(u, cap, np.int64), _star_block(u, cap, object)):
            assert side.dtype == np.int64 and exact.dtype == object
            assert (side.astype(object) == exact).all()


def test_star_suite_selects_object_dtype_above_cap(monkeypatch):
    seen = []

    def spy(u, window, dtype, vs):
        seen.append((dtype, len(vs)))
        return np.zeros(1, dtype=dtype), np.zeros(1, dtype=dtype)

    monkeypatch.setattr(identities, "_star_block", spy)
    star_suite(STAR_INT64_WINDOW)
    # int64: one block per u, over every v
    assert set(seen) == {(np.int64, 2 * STAR_INT64_WINDOW + 1)}
    assert len(seen) == 2 * STAR_INT64_WINDOW + 1
    seen.clear()
    star_suite(STAR_INT64_WINDOW + 1)
    # object: one block per (u, v)
    assert set(seen) == {(object, 1)} and len(seen) == (2 * STAR_INT64_WINDOW + 3) ** 2


def test_star_suite_object_route(monkeypatch):
    # the object-dtype blocks run end to end, here below their usual windows
    monkeypatch.setattr(identities, "STAR_INT64_WINDOW", 1)
    rep = star_suite(3)
    assert rep.ok and rep.cases_checked == 33_614


def test_star_suite_window4():
    rep = star_suite(4)
    assert rep.ok
    assert rep.cases_checked == 9**5 * 2


# --- surfaces ---

def test_surface_eval_examples():
    assert surface_eval(144, -1728, 0, 8, 12) == 0  # X^4+8X+12 lies on its surface
    assert surface_eval(144, -1728, 0, 8, 13) != 0
    assert surface_eval(12, 0, 0, 0, 1) == 0  # X^4+1


def test_surface_coefficient_form_matches_defining_form():
    rng = random.Random(17)
    for _ in range(300):
        I, J = rng.randint(-40, 40), rng.randint(-40, 40)
        if 4 * I**3 == J * J:
            continue
        a, c, d = (rng.randint(-15, 15) for _ in range(3))
        assert surface_eval(I, J, a, c, d) == surface_eval_defining(I, J, a, c, d)


def test_quartics_lie_on_their_surface():
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        I, J = invariants_quartic(MonicQuartic(a, b, c, d))
        if 4 * I**3 == J * J:
            continue
        assert surface_eval(I, J, a, c, d) == 0


# --- the auxiliary cubic discriminant ---

def test_disc_F_examples():
    assert disc_F_identity(1, 1)  # both sides 5184 = 72^2
    assert disc_F_identity(0, 1)  # X^3 - 9X: disc 2916 = 54^2
    assert disc_F_identity(2, 1)  # (18*7)^2
    with pytest.raises(ValueError):
        disc_F_identity(3, 0)


def test_disc_F_window():
    rep = disc_F_suite(50)
    assert rep.ok
    assert rep.cases_checked == 101 * 101 - 101


# --- suite plumbing ---

def test_run_suites_dispatch():
    reports = run_suites(["symmetry", "discF"], window=2)
    assert [r.identity for r in reports] == ["symmetry", "discF"]
    assert all(r.ok for r in reports)
    with pytest.raises(ValueError):
        run_suites(["nope"])


def test_run_suites_rejects_negative_window():
    with pytest.raises(ValueError, match="window must be >= 0, got -1"):
        run_suites(["star"], window=-1)
    assert run_suites(["star"], window=0)[0].cases_checked == 2


def test_surface_suite_small():
    rep = surface_suite(2)
    assert rep.ok and rep.cases_checked > 0


def test_report_json():
    import json

    rep = disc_F_suite(3)
    payload = json.loads(rep.to_json())
    assert payload["identity_name"] == "discF"
    assert payload["cases_checked"] == rep.cases_checked
    assert payload["failures"] == []
