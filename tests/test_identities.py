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
    fujiwara_bound,
    integer_roots_monic_cubic,
    invariants_quartic,
    invariants_quartic_coeffs,
    resolvent_coeffs,
)
from galoiscensus.identities import (
    STAR_INT64_WINDOW,
    SURFACE_INT64_WINDOW,
    SYMMETRY_INT64_WINDOW,
    VerificationReport,
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
    _surface_block,
    _symmetry_block,
    _symmetry_bound,
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


def symmetry_suite_by_quartic(window: int) -> VerificationReport:
    """The symmetry suite one quartic at a time: the resolvent's integer roots
    from the per-polynomial root search, each checked on ints."""
    rep = VerificationReport("symmetry", window, 0)
    for a, b, c, d in itertools.product(range(-window, window + 1), repeat=4):
        for x in integer_roots_monic_cubic(*resolvent_coeffs(a, b, c, d)):
            rep.cases_checked += 1
            if not identities.check_symmetry_identity(x, a, c, d, b - x):
                rep.failures.append({"coeffs": [a, b, c, d], "x": x})
    return rep


def surface_suite_by_quartic(window: int) -> VerificationReport:
    """The surface suite one quartic at a time, on ints."""
    rep = VerificationReport("surface", window, 0)
    for a, b, c, d in itertools.product(range(-window, window + 1), repeat=4):
        I, J = invariants_quartic(MonicQuartic(a, b, c, d))
        if 4 * I**3 == J * J:
            continue
        rep.cases_checked += 1
        if identities.surface_eval(I, J, a, c, d) != 0:
            rep.failures.append({"coeffs": [a, b, c, d], "I": I, "J": J})
    return rep


def test_symmetry_examples():
    assert check_symmetry_identity(0, 0, 0, 1, 0)
    assert check_symmetry_identity(2, 1, 1, 1, -1)  # X^4+X^3+X^2+X+1 at x=2, e=b-x
    assert not check_symmetry_identity(1, 1, 1, 1, 0)


def test_symmetry_holds_at_resolvent_roots():
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4):
        for x in integer_roots_monic_cubic(*resolvent_coeffs(a, b, c, d)):
            assert check_symmetry_identity(x, a, c, d, b - x)


def test_symmetry_suite_window3():
    rep = symmetry_suite(3)
    assert not rep.failures and rep.cases_checked > 0


@pytest.mark.parametrize("window", range(5))
def test_symmetry_suite_matches_quartic_oracle(window):
    rep = symmetry_suite(window)
    assert rep.to_json() == symmetry_suite_by_quartic(window).to_json()
    assert not rep.failures and rep.cases_checked > 0


def _plant_symmetry_faults(monkeypatch):
    """check_symmetry_identity made wrong on a few cells, on ints and arrays."""
    true_check = identities.check_symmetry_identity

    def broken_check(x, a, c, d, e):
        wrong = ((a == 2) & (c == -1) & (x == -1)) | ((a == -3) & (d == 2))
        return true_check(x, a, c, d, e) != wrong

    monkeypatch.setattr(identities, "check_symmetry_identity", broken_check)


@pytest.mark.parametrize("cap", [SYMMETRY_INT64_WINDOW, 0], ids=["int64", "object"])
def test_symmetry_planted_faults_match_quartic_oracle(monkeypatch, cap):
    monkeypatch.setattr(identities, "SYMMETRY_INT64_WINDOW", cap)
    _plant_symmetry_faults(monkeypatch)
    rep, oracle = symmetry_suite(3), symmetry_suite_by_quartic(3)
    assert len(oracle.failures) == 12
    assert rep.cases_checked == oracle.cases_checked == 577
    assert rep.failures == oracle.failures
    assert all(type(v) is int for case in rep.failures for v in [*case["coeffs"], case["x"]])
    assert json.loads(rep.to_json()) == json.loads(oracle.to_json())


def test_symmetry_bound_holds_every_root():
    # the window's bound against the per-quartic bound of every resolvent
    for window in range(0, 8):
        bound = _symmetry_bound(window)
        for a, b, c, d in itertools.product((-window, 0, window), repeat=4):
            assert fujiwara_bound(*resolvent_coeffs(a, b, c, d)) <= bound
    assert _symmetry_bound(6) == 17


def _symmetry_majorant(window):
    _Majorant.peak = 0
    m, x = _Majorant(window), _Majorant(_symmetry_bound(window) - 1)
    p, q, r = resolvent_coeffs(m, m, m, m)
    resolvent_side = ((x + p) * x + q) * x + r
    check_symmetry_identity(x, m, m, m, m - x)  # e = b - x
    return int(resolvent_side), _Majorant.peak


def test_symmetry_int64_cap_argument():
    # the figures quoted in the identities module docstring
    cap = SYMMETRY_INT64_WINDOW
    for window in (1, 6, 100, cap, cap + 1):
        w, x = window, _symmetry_bound(window) - 1
        left = (x * x + 4 * w) * (w * w + 4 * w + 4 * x)
        assert _symmetry_majorant(window)[1] == max(left, (x * w + 2 * w) ** 2)
        assert _symmetry_majorant(window)[0] == ((x + w) * x + w * w + 4 * w) * x + w**3 + 5 * w * w
    assert _symmetry_bound(cap) - 1 == 77_930
    assert _symmetry_majorant(cap)[1] < 2**63 <= _symmetry_majorant(cap + 1)[1]
    assert _symmetry_majorant(cap)[0] < 9 * 10**14


def test_symmetry_int64_block_matches_object_block_at_cap():
    # the extreme values of the cap window; (b, c, d) = (b, 0, 0) has the root x = b
    cap = SYMMETRY_INT64_WINDOW
    edge = _symmetry_bound(cap) - 1
    axis = (-cap, -cap + 1, -1, 0, 1, cap - 1, cap)
    xs = (-edge, -cap, -1, 0, 1, cap, edge)
    for a, b in itertools.product((cap, -cap, 0, 1), (cap, -cap, 1)):
        fast = _symmetry_block(a, b, np.array(axis, dtype=np.int64), np.array(xs, dtype=np.int64))
        exact = _symmetry_block(a, b, np.array(axis, dtype=object), np.array(xs, dtype=object))
        assert fast[0].dtype == np.int64 and exact[0].dtype == object
        assert fast[3].size > 0
        for f, e in zip(fast, exact):
            assert f.tolist() == e.tolist()


class _Stop(Exception):
    pass


@pytest.mark.parametrize(
    "suite, block, cap",
    [(symmetry_suite, "_symmetry_block", SYMMETRY_INT64_WINDOW),
     (surface_suite, "_surface_block", SURFACE_INT64_WINDOW)],
    ids=["symmetry", "surface"],
)
def test_grid_suites_select_object_dtype_above_cap(monkeypatch, suite, block, cap):
    seen = []

    def spy(*args):
        axis, *rest = [arg for arg in args if isinstance(arg, np.ndarray)]
        seen.append((axis.dtype, axis.size, *(x.dtype for x in rest)))
        raise _Stop

    monkeypatch.setattr(identities, block, spy)
    for window in (cap, cap + 1):
        with pytest.raises(_Stop):
            suite(window)
    kinds = [np.dtype(np.int64), np.dtype(object)]
    assert [s[0] for s in seen] == kinds and [s[1] for s in seen] == [2 * cap + 1, 2 * cap + 3]
    assert all(set(s[2:]) <= {s[0]} for s in seen)


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
    assert not rep.failures and rep.cases_checked == 33_614


def test_star_suite_window4():
    rep = star_suite(4)
    assert not rep.failures
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


@pytest.mark.parametrize("window", range(5))
def test_surface_suite_matches_quartic_oracle(window):
    rep = surface_suite(window)
    assert rep.to_json() == surface_suite_by_quartic(window).to_json()
    assert not rep.failures and rep.cases_checked == (0, 68, 586, 2320, 6416)[window]


@pytest.mark.parametrize("cap", [SURFACE_INT64_WINDOW, 0], ids=["int64", "object"])
def test_surface_planted_faults_match_quartic_oracle(monkeypatch, cap):
    true_eval = identities.surface_eval

    def broken_eval(I, J, a, c, d):
        # the (0, 0, 1) cells include X^4 +- 2X^2 + 1, which are skipped
        wrong = ((a == 2) & (c == -1) & (d == 3)) | ((a == 0) & (c == 0) & (d == 1))
        return true_eval(I, J, a, c, d) + wrong

    monkeypatch.setattr(identities, "SURFACE_INT64_WINDOW", cap)
    monkeypatch.setattr(identities, "surface_eval", broken_eval)
    rep, oracle = surface_suite(3), surface_suite_by_quartic(3)
    assert len(oracle.failures) == 12
    assert rep.cases_checked == oracle.cases_checked == 2320
    assert rep.failures == oracle.failures
    assert all(type(v) is int for case in rep.failures for v in [*case["coeffs"], case["I"], case["J"]])
    assert json.loads(rep.to_json()) == json.loads(oracle.to_json())


def _surface_majorant(window):
    _Majorant.peak = 0
    m = _Majorant(window)
    I, J = invariants_quartic_coeffs(m, m, m, m)
    g = surface_eval(I, J, m, m, m)
    return int(I), int(J), int(g), _Majorant.peak


def test_surface_int64_cap_argument():
    # the polynomials quoted in the identities module docstring
    for window in range(1, 20):
        w = window
        assert _surface_majorant(w) == (
            4 * w**2 + 12 * w,
            38 * w**3 + 99 * w**2,
            4616 * w**6 + 26352 * w**5 + 145476 * w**4 + 345600 * w**3,
            4616 * w**6 + 26352 * w**5 + 145476 * w**4 + 345600 * w**3,
        )
    assert _surface_majorant(SURFACE_INT64_WINDOW)[3] < 2**63
    assert _surface_majorant(SURFACE_INT64_WINDOW + 1)[3] >= 2**63


def test_surface_int64_block_matches_object_block_at_cap():
    cap = SURFACE_INT64_WINDOW
    axis = (-cap, -cap + 1, -1, 0, 1, cap - 1, cap)
    for a in (cap, -cap, 0, 1):
        fast = _surface_block(a, np.array(axis, dtype=np.int64))
        exact = _surface_block(a, np.array(axis, dtype=object))
        for f, e in zip(fast, exact):
            assert f.dtype == np.int64 and e.dtype == object
            assert f.tolist() == e.tolist()


# --- the auxiliary cubic discriminant ---

def test_disc_F_examples():
    assert disc_F_identity(1, 1)  # both sides 5184 = 72^2
    assert disc_F_identity(0, 1)  # X^3 - 9X: disc 2916 = 54^2
    assert disc_F_identity(2, 1)  # (18*7)^2
    with pytest.raises(ValueError):
        disc_F_identity(3, 0)


def test_disc_F_window():
    rep = disc_F_suite(50)
    assert not rep.failures
    assert rep.cases_checked == 101 * 101 - 101


# --- suite plumbing ---

def test_run_suites_dispatch():
    reports = run_suites(["symmetry", "discF"], window=2)
    assert [r.identity for r in reports] == ["symmetry", "discF"]
    assert not any(r.failures for r in reports)
    with pytest.raises(ValueError):
        run_suites(["nope"])


def test_run_suites_rejects_negative_window():
    with pytest.raises(ValueError, match="window must be >= 0, got -1"):
        run_suites(["star"], window=-1)
    assert run_suites(["star"], window=0)[0].cases_checked == 2


def test_surface_suite_small():
    rep = surface_suite(2)
    assert not rep.failures and rep.cases_checked > 0


def test_report_json():
    import json

    rep = disc_F_suite(3)
    payload = json.loads(rep.to_json())
    assert payload["identity_name"] == "discF"
    assert payload["cases_checked"] == rep.cases_checked
    assert payload["failures"] == []
