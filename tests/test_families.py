import functools
import json
import math
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from galoiscensus import classify
from galoiscensus.classify import (
    MonicQuartic,
    classify_quartic,
    disc_quartic,
    integer_roots_monic_cubic,
    resolvent_coeffs,
)
from galoiscensus import families
from galoiscensus.cli import main
from galoiscensus.exactarith import factorize
from galoiscensus.families import (
    cross_validate,
    gen_a3_family,
    gen_a4_family,
    gen_d4vc_family,
    gen_v4_biquadratic,
    _check_rows,
    _d4vc_columns,
    _d4vc_failures,
    _d4vc_prelude,
    _d4vc_rows,
    _d4vc_unit,
    _expand,
    _member_line,
    _residue_span,
    _squarefree_u_values,
    d4vc_units,
    member_units,
)


# --- V4 biquadratic family ---

def test_v4_count_at_100():
    fam = gen_v4_biquadratic(100)
    assert len(fam) == 39  # b in {52,...,100} step 4 (13), t in {1,5,9} (3)
    assert fam[0] == ("v4-biquadratic", (("b", 52), ("t", 1), ("H", 100)), (0, 52, 0, 1), ("V4",))


def test_v4_empty_below_8():
    assert gen_v4_biquadratic(7) == []
    assert gen_v4_biquadratic(8) != []


def test_v4_all_classify_v4():
    rep = cross_validate(member_units(gen_v4_biquadratic(120)))
    assert rep.mismatch_count == 0
    assert set(rep.classes) == {"V4"}


def test_v4_member_shape():
    for _, params, coeffs, _ in gen_v4_biquadratic(60):
        b, t = dict(params)["b"], dict(params)["t"]
        assert coeffs == (0, b, 0, t * t)
        assert b % 4 == 0 and t % 4 == 1
        assert 2 * b >= 60 and b <= 60 and t * t <= 60


# --- A4 family ---

def test_a4_disc_identity_examples():
    assert disc_quartic(MonicQuartic(0, 18, 8, 1)) == (16 * 28) ** 2
    assert disc_quartic(MonicQuartic(0, 18, 16, 4)) == (16 * 62) ** 2
    assert classify_quartic(MonicQuartic(0, 18, 8, 1)).group.value == "A4"


def test_a4_family_members_and_validation():
    fam = gen_a4_family(6)
    assert len(fam) == 36
    for _, params, coeffs, _ in fam:
        u, v = dict(params)["u"], dict(params)["v"]
        assert disc_quartic(MonicQuartic(*coeffs)) == (16 * (27 * u * v**4 + u**3)) ** 2
    rep = cross_validate(member_units(fam))
    assert rep.mismatch_count == 0


def test_a4_exceptions_recorded_not_failed():
    # u = v = 3: f = X^4 + 162 X^2 + 72 X + 9 -- keep whatever the classifier
    # says, but reducible or resolvent-rooted members must land in exceptions
    fam = gen_a4_family(8)
    rep = cross_validate(member_units(fam))
    assert rep.mismatch_count == 0
    for entry in rep.exceptions:
        poly = MonicQuartic(*entry["coeffs"])
        assert entry["class"] == "reducible" or integer_roots_monic_cubic(
            *resolvent_coeffs(*poly.coeffs())
        )


# --- A3 family ---

def test_a3_family_examples():
    fam = gen_a3_family(-50, 50)
    assert len(fam) == 101
    by_t = {dict(params)["t"]: coeffs for _, params, coeffs, _ in fam}
    assert by_t[1] == (1, -2, -1)
    assert by_t[0] == (0, -3, -1)
    assert by_t[3] == (3, 0, -1)
    rep = cross_validate(member_units(fam))
    assert rep.mismatch_count == 0
    assert set(rep.classes) == {"A3"}


# --- the D4/V4/C4 construction ---

def test_squarefree_u_sieve():
    us = list(_squarefree_u_values(3000))
    assert us[0] == 30  # 12 and 48 are not squarefree
    for u in us:
        assert u % 18 == 12
        assert all(e == 1 for _, e in factorize(int(u)))
    # completeness against a brute scan
    brute = [
        u
        for u in range(12, 3001, 18)
        if all(e == 1 for _, e in factorize(u))
    ]
    assert us == brute


def _d4vc_brute(H, delta):
    """Every (u, v, w, x, a) of the construction, by a scan from the smallest
    residue of each variable, with each window tested exactly; in the
    generator's order (u, v, w, a, x)."""
    p, q = delta.numerator, delta.denominator
    squarefree = functools.cache(lambda n: all(e == 1 for _, e in factorize(n)))
    members = []
    u = 12
    while u**q <= H ** (2 * q - 2 * p):  # u <= H^(2 - 2 delta)
        v = 4
        while u * v * v <= delta**4 * H * H and squarefree(u):  # v sqrt(u) <= delta^2 H
            ws = [w for w in range(12, v + 1, 18) if 2 * w >= v]  # w >= v / 2
            if delta * delta * u * v * v < 4 * H:  # 2 sqrt(H) / delta <= v sqrt(u)
                ws = []
            x_top = (u * v * v + delta * H) ** 2  # (x v sqrt(u) <= u v^2 + delta H)^2
            xs = []
            x = 12
            while ws and x * x * u * v * v <= x_top:
                if x * x > u * v * v:  # x > v sqrt(u)
                    xs.append(x)
                x += 18
            for w in ws:
                a_top = (u * v * w + delta * H) ** 2  # (a v sqrt(u) <= u v w + delta H)^2
                a = 12
                while a * a * u * v * v <= a_top:
                    if a * a > u * w * w:  # a > w sqrt(u)
                        for x in xs:
                            d = Fraction(x * x - u * v * v, 4)
                            e = Fraction(a * a - u * w * w, 4)
                            c = Fraction(x * a - u * v * w, 2)
                            assert d.denominator == e.denominator == c.denominator == 1
                            members.append((
                                "d4vc",
                                (("u", u), ("v", v), ("w", w), ("x", x), ("a", a),
                                 ("H", H), ("delta_num", p), ("delta_den", q)),
                                (a, int(x + e), int(c), int(d)),
                                ("D4", "V4", "C4"),
                            ))
                    a += 18
            v += 6
        u += 18
    return members


@pytest.mark.parametrize(
    "H, delta, size",
    [
        (5000, Fraction(1, 2), 17),
        (10**4, Fraction(1, 2), 106),
        (2 * 10**4, Fraction(1, 3), 115),
        (2 * 10**4, Fraction(1, 4), 6),
    ],
)
def test_d4vc_matches_brute_force(H, delta, size):
    brute = _d4vc_brute(H, delta)
    assert len(brute) == size
    assert gen_d4vc_family(H, delta) == brute


@pytest.mark.parametrize("r", [30, 48, 12 + 18 * 1234, 12 + 18 * 10**9])
def test_residue_span_keeps_residues_at_float_ends(r):
    # a float window end may sit up to 8 ulps on the wrong side of its true
    # value; a residue r = 12 (mod 18) at the true end must still be counted
    ulp = 2.0**-53
    for e in range(9):
        lo = np.array([r * (1 + e * ulp)])  # true lower end just below r
        hi = np.array([r * (1 - e * ulp)])  # true upper end exactly r
        k, n = _residue_span(lo, np.array([r + 10.0]))
        assert int(k[0]) <= (r - 12) // 18 < int(k[0] + n[0])
        k, n = _residue_span(np.array([r - 10.0]), hi)
        assert int(k[0]) <= (r - 12) // 18 < int(k[0] + n[0])
    # windows well clear of every residue hold none
    k, n = _residue_span(np.array([r + 0.5, r - 17.5]), np.array([r + 17.5, r - 0.5]))
    assert n.tolist() == [0, 0]


def test_d4vc_window_example_excludes_30_16_12():
    # at H=400, delta=1/2 the tuple u=30, v=16, w=12 satisfies the range
    # conditions but its x-window (87.63, 89.92] holds no x = 12 (mod 18)
    fam = gen_d4vc_family(400, Fraction(1, 2))
    assert not [params for _, params, _, _ in fam if params[:3] == (("u", 30), ("v", 16), ("w", 12))]


def test_d4vc_empty_when_ranges_infeasible():
    assert gen_d4vc_family(100, Fraction(1, 5)) == []


def test_d4vc_members_validate_at_2e5():
    H = 2 * 10**5
    fam = gen_d4vc_family(H, Fraction(1, 5))
    assert fam, "expected a nonempty family at H = 2*10^5"
    rep = cross_validate(member_units(fam))
    assert rep.mismatch_count == 0
    assert set(rep.classes) <= {"D4", "V4", "C4"}
    for _, params, coeffs, _ in fam:
        params = dict(params)
        u, v, w, x, a_par = (params[k] for k in "uvwxa")
        a, b, c, d = coeffs
        # the three displayed bounds
        assert 0 < 4 * d < H and 0 < 4 * (b - x) < H and 0 < 2 * c < H
        # congruences of the construction
        assert all(t % 18 == 12 for t in (u, w, x, a_par)) and v % 6 == 4
        # Eisenstein at 3
        assert all(t % 3 == 0 for t in coeffs) and d % 9 != 0
        # defining equations
        assert 4 * d == x * x - u * v * v
        assert 4 * (b - x) == a * a - u * w * w
        assert 2 * c == x * a - u * v * w


def test_d4vc_distinct_tuples_give_mostly_distinct_polys():
    fam = gen_d4vc_family(2 * 10**5, Fraction(1, 5))
    coeff_set = {coeffs for _, _, coeffs, _ in fam}
    assert 3 * len(coeff_set) >= len(fam)  # each poly from at most 3 tuples


def test_d4vc_negative_height():
    with pytest.raises(ValueError, match="height must be >= 0, got -1"):
        gen_d4vc_family(-1)


def test_d4vc_bad_delta():
    with pytest.raises(ValueError):
        gen_d4vc_family(100, Fraction(3, 2))


# --- cross-validation plumbing ---

def test_cross_validate_empty():
    rep = cross_validate([])
    assert rep.members_checked == 0 and rep.mismatch_count == 0
    rep = cross_validate([], 0)
    assert rep.members_checked == 0 and rep.classes == {}


def test_member_units_hand_out_the_callers_tuples(monkeypatch):
    # consecutive slices of at most _CHUNK members, each member the very
    # tuple the caller passed, in order
    monkeypatch.setattr(families, "_CHUNK", 7)
    fam = gen_a3_family(-15, 15)
    units = list(member_units(fam))
    assert [len(args[0]) for _, args in units] == [7, 7, 7, 7, 3]
    assert all(fn is _check_rows for fn, _ in units)
    members = [m for _, (rows,) in units for m in rows]
    assert len(members) == len(fam) and all(m is f for m, f in zip(members, fam))
    assert list(member_units([])) == []


def test_cross_validate_zero_workers_means_every_core(monkeypatch):
    sizes = []

    class Pool:  # records its size and runs the units in this process
        def __init__(self, workers):
            sizes.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, units):
            return map(fn, units)

    monkeypatch.setattr(families, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(families.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(families, "_CHUNK", 2)
    fam = gen_a3_family(-5, 5)
    serial = cross_validate(member_units(fam), 1)
    assert sizes == [] and serial.members_checked == 11
    assert cross_validate(member_units(fam), 0) == serial and sizes == [3]
    assert cross_validate(member_units(fam), 2) == serial and sizes == [3, 2]
    # when os.cpu_count() cannot tell, one worker: this process
    monkeypatch.setattr(families.os, "cpu_count", lambda: None)
    assert cross_validate(member_units(fam), 0) == serial and sizes == [3, 2]


@pytest.mark.parametrize("workers", [-1, -3])
def test_cross_validate_refuses_negative_workers(workers):
    with pytest.raises(ValueError, match=f"workers must be >= 0, got {workers}"):
        cross_validate(member_units(gen_a3_family(-5, 5)), workers)


def test_cross_validate_parallel_matches_serial(monkeypatch):
    # units of 128 members, so 2 workers share several units; a4(30) holds
    # the exception u = 30, v = 3, and X^4 + 2 (D4) is a planted mismatch
    monkeypatch.setattr(families, "_CHUNK", 128)
    fam = gen_a4_family(30)
    fam.insert(100, ("v4-biquadratic", (("b", 0), ("t", 1), ("H", 2)), (0, 0, 0, 2), ("V4",)))
    serial_blocks, parallel_blocks = [], []
    serial = cross_validate(member_units(fam), 1, serial_blocks.append)
    parallel = cross_validate(member_units(fam), 2, parallel_blocks.append)
    assert serial.members_checked == parallel.members_checked == 901
    assert len(parallel_blocks) == 8
    assert len(serial.exceptions) == 1 and serial.exceptions[0]["params"] == {"u": 30, "v": 3}
    assert [m["coeffs"] for m in serial.mismatches] == [[0, 0, 0, 2]]
    # the member lines carry each member's class, in member order
    assert "\n".join(parallel_blocks) == "\n".join(serial_blocks)
    assert parallel.classes == serial.classes
    assert parallel.exceptions == serial.exceptions
    assert parallel.mismatches == serial.mismatches


def test_cross_validate_many_chunks_keep_member_order(monkeypatch):
    # chunks of 7 members: results must come back in member order
    monkeypatch.setattr(families, "_CHUNK", 7)
    fam = gen_a4_family(17) + gen_v4_biquadratic(200) + gen_a3_family(-20, 20)
    serial_blocks, parallel_blocks = [], []
    serial = cross_validate(member_units(fam), 1, serial_blocks.append)
    parallel = cross_validate(member_units(fam), 2, parallel_blocks.append)
    assert len(fam) > 256 and "\n".join(parallel_blocks) == "\n".join(serial_blocks)
    assert len(serial_blocks) > 2 and parallel.classes == serial.classes
    assert parallel.exceptions == serial.exceptions and parallel.mismatches == serial.mismatches


# --- the d4vc route of the family command: pool units generate, validate
# and render their own (u, v) ranges; gen_d4vc_family through member_units,
# with json.dumps lines, is its oracle

def _oracle_output(H, delta):
    """The family command's output and exit code, from the whole member list."""
    fam = gen_d4vc_family(H, delta)
    rep = cross_validate(member_units(fam))
    # the family module's classifier core, which a test may patch
    labels = [families._quartic_label(*coeffs)[0] for _, _, coeffs, _ in fam]
    lines = [_json_dumps_line(m, label) for m, label in zip(fam, labels)]
    summary = {"family": "d4vc", "height": H, "delta": str(delta), **json.loads(rep.to_json())}
    lines.append(json.dumps(summary))
    return "\n".join(lines) + "\n", 1 if rep.mismatch_count else 0


def _route_output(tmp_path, H, delta, workers):
    out = tmp_path / f"d4vc-{H}-{workers}.jsonl"
    rc = main(["family", "--name", "d4vc", "--height", str(H), "--delta", str(delta),
               "--threads", str(workers), "--out", str(out)])
    return out.read_text(encoding="utf-8"), rc


@pytest.mark.parametrize(
    "H, delta", [(10**5, Fraction(1, 5)), (2 * 10**5, Fraction(1, 5)), (400, Fraction(1, 2)),
                 (100, Fraction(1, 5))]
)
def test_d4vc_route_matches_oracle(tmp_path, H, delta):
    expected = _oracle_output(H, delta)
    for workers in (1, 2):
        assert _route_output(tmp_path, H, delta, workers) == expected


def _unit_pairs(units):
    """The (u, j) pairs of d4vc units, unit by unit."""
    out = []
    for _, (H, p, q, us, root_u, j_lo, n_v) in units:
        assert root_u.tolist() == np.sqrt(us.astype(np.float64)).tolist()
        iu, j = _expand(n_v)
        out.append(list(zip(us[iu].tolist(), (j_lo[iu] + j).tolist())))
    return out


@pytest.mark.parametrize("chunk", [0.1, 1, 7, 1024, 10**9])
@pytest.mark.parametrize("H, delta", [(10**5, Fraction(1, 5)), (2 * 10**5, Fraction(1, 5)),
                                      (5000, Fraction(1, 2)), (100, Fraction(1, 5))])
def test_d4vc_units_partition_the_pair_list(monkeypatch, chunk, H, delta):
    monkeypatch.setattr(families, "_CHUNK", chunk)
    us, _, j_lo, n_v = _d4vc_prelude(H, delta.numerator, delta.denominator)
    iu, j = _expand(n_v)
    pairs = _unit_pairs(d4vc_units(H, delta))
    assert [pair for unit in pairs for pair in unit] == list(zip(us[iu].tolist(), (j_lo[iu] + j).tolist()))
    if chunk >= 10**9:
        assert len(pairs) == 1
    elif chunk < 1 and iu.size:
        assert [] in pairs  # pairs of more estimated members than a unit leave empty ranges


def _plan(units):
    """The (u, j) pair columns of d4vc units laid end to end, and the index
    of the first pair of every unit but the first."""
    us, js, sizes = [], [], []
    for _, (_, _, _, u, _, j_lo, n_v) in units:
        iu, j = _expand(n_v)
        us.append(u[iu])
        js.append(j_lo[iu] + j)
        sizes.append(iu.size)
    return np.concatenate(us), np.concatenate(js), np.cumsum(sizes)[:-1].tolist()


def test_d4vc_units_plan_in_bounded_memory(monkeypatch):
    # the estimate is evaluated block by block; estimating every pair at
    # once peaks at 21 MB here
    H = 10**6
    tracemalloc.start()
    try:
        units = d4vc_units(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    # the units cover the pair list in order, cut where the whole list's
    # running estimate first reaches each multiple of _CHUNK; a pair (u, v)
    # holds about (H / 5)^2 / (324 u v^2) members per w = 12 (mod 18) in
    # [ceil(v/2), v]
    us, _, j_lo, n_v = _d4vc_prelude(H, 1, 5)
    iu, j = _expand(n_v)
    u, v = us[iu].tolist(), (4 + 6 * (j_lo[iu] + j)).tolist()
    n_w = [len(range(-(-v_ // 2) + (12 - -(-v_ // 2)) % 18, v_ + 1, 18)) for v_ in v]
    estimate = [(H / 5) ** 2 * n / (324.0 * u_ * v_ * v_) for u_, v_, n in zip(u, v, n_w)]
    work = np.cumsum(np.array(estimate) + families._PAIR_COST)
    n_units = int(work[-1] // families._CHUNK) + 1
    plan_u, plan_j, cuts = _plan(units)
    assert len(units) == n_units > 200
    assert np.array_equal(plan_u, us[iu]) and np.array_equal(plan_j, j_lo[iu] + j)
    assert cuts == np.searchsorted(work, families._CHUNK * np.arange(1, n_units)).tolist()
    # blocks of any size place the same cuts
    expected = _plan(d4vc_units(2 * 10**5))
    monkeypatch.setattr(families, "_PLAN_PAIRS", 7)
    got = _plan(d4vc_units(2 * 10**5))
    assert got[2] == expected[2] and np.array_equal(got[0], expected[0])


def test_family_writes_each_unit_as_it_finishes(tmp_path, monkeypatch):
    # the parent writes a unit's lines before the next unit runs, so --out
    # already holds the earlier units' lines when the last one starts
    out = tmp_path / "d4vc.jsonl"
    seen = []
    real = families._check_unit

    def check(unit):
        seen.append(out.read_bytes())
        return real(unit)

    monkeypatch.setattr(families, "_check_unit", check)
    monkeypatch.setattr(families, "_CHUNK", 64)
    assert main(["family", "--name", "d4vc", "--height", str(10**5), "--threads", "1",
                 "--out", str(out)]) == 0
    final = out.read_bytes()
    assert len(seen) > 3 and seen[0] == b""
    assert all(final.startswith(text) for text in seen)
    assert 0 < len(seen[-2]) < len(seen[-1]) < len(final)


def test_d4vc_many_tiny_units_keep_member_order(tmp_path, monkeypatch):
    # about one estimated member a unit: hundreds of units, some of them
    # with pairs but no member, and u = 30 split over several units
    monkeypatch.setattr(families, "_CHUNK", 1)
    H, delta = 10**5, Fraction(1, 5)
    units = d4vc_units(H, delta)
    sizes = [len(_d4vc_columns(*args)[0]) for _, args in units]
    assert len(units) > 100 and 0 in sizes and sum(sizes) == 315
    assert sum(1 for unit in _unit_pairs(units) if unit and unit[0][0] == 30) > 1
    expected = _oracle_output(H, delta)
    for workers in (1, 2):
        assert _route_output(tmp_path, H, delta, workers) == expected


def test_d4vc_planted_mismatch_same_on_both_routes(tmp_path, monkeypatch):
    # one member classified S4 by a patched classifier: the same mismatch
    # entry, the same lines and exit 1 from the oracle and from the route,
    # serial and on a pool of several units (workers fork with the patch)
    H, delta = 10**5, Fraction(1, 5)
    _, _, target, _ = gen_d4vc_family(H, delta)[100]
    real = families._quartic_label

    def classify(*coeffs):
        if coeffs == target:
            return "S4", None
        return real(*coeffs)

    monkeypatch.setattr(families, "_quartic_label", classify)
    monkeypatch.setattr(families, "_CHUNK", 32)
    expected = _oracle_output(H, delta)
    summary = json.loads(expected[0].splitlines()[-1])
    assert expected[1] == 1 and summary["mismatch_count"] == 1
    assert summary["mismatches"][0]["coeffs"] == list(target)
    assert summary["mismatches"][0]["note"] == "classified S4"
    assert len(d4vc_units(H, delta)) > 2
    for workers in (1, 2):
        assert _route_output(tmp_path, H, delta, workers) == expected


def _plant(monkeypatch, name, target, change):
    """Patch families.<name>, which returns int64 columns led by u, v, w, x,
    a, so that change(columns, hit) alters the member whose (u, v, w, x, a)
    is target; both routes generate through the patched function."""
    real = getattr(families, name)

    def patched(*args):
        cols = [col.copy() for col in real(*args)]
        hit = np.logical_and.reduce([col == t for col, t in zip(cols, target)])
        change(cols, hit)
        return tuple(cols)

    monkeypatch.setattr(families, name, patched)


def _nine_divides_d(cols, hit):
    cols[7][hit] -= cols[7][hit] % 9


def _four_d_above_h(cols, hit):
    cols[3][hit] += 18 * 100  # x up by 1800 keeps x = 12 (mod 18), and x^2 - u v^2 > H


@pytest.mark.parametrize(
    "name, change, note",
    [("_d4vc_columns", _nine_divides_d, "9 divides d (Eisenstein at 3 fails)"),
     ("_d4vc_block", _four_d_above_h, "range predicate failed")],
)
def test_d4vc_planted_predicate_failure_same_on_both_routes(tmp_path, monkeypatch, name, change, note):
    # one member fails a family predicate, and a patched classifier calls
    # every member D4, so only the predicate can flag it: the same mismatch
    # entry, lines and exit 1 from the oracle and from the route, serial and
    # on a pool of several units
    H, delta = 10**5, Fraction(1, 5)
    _, params, coeffs, _ = gen_d4vc_family(H, delta)[100]
    assert coeffs[3] % 9 and coeffs[3] > 9
    target = [value for _, value in params[:5]]
    _plant(monkeypatch, name, target, change)
    monkeypatch.setattr(families, "_quartic_label", lambda *coeffs: ("D4", None))
    monkeypatch.setattr(families, "_CHUNK", 32)
    expected = _oracle_output(H, delta)
    summary = json.loads(expected[0].splitlines()[-1])
    assert expected[1] == 1 and summary["mismatch_count"] == 1
    (entry,) = summary["mismatches"]
    assert entry["note"] == note and entry["class"] == "D4"
    assert entry["params"]["u"] == target[0] and entry["coeffs"] != list(coeffs)
    assert len(d4vc_units(H, delta)) > 2
    for workers in (1, 2):
        assert _route_output(tmp_path, H, delta, workers) == expected


def test_d4vc_unit_matches_the_per_member_route():
    # every unit's tally, lines and entries, column-wise and member by member
    for H, delta in ((10**5, Fraction(1, 5)), (400, Fraction(1, 2)), (100, Fraction(1, 5))):
        for _, args in d4vc_units(H, delta):
            assert _d4vc_unit(*args) == _check_rows(list(_d4vc_rows(*args)))


def test_d4vc_unit_resolvent_roots_are_the_members_x():
    # the int core on every member of one unit: D4 and C4 members carry
    # their construction's x as resolvent root
    _, args = d4vc_units(2 * 10**5)[0]
    rows = list(_d4vc_rows(*args))
    assert len(rows) > 500
    for _, params, coeffs, _ in rows:
        assert families._quartic_label(*coeffs)[1] in (None, dict(params)["x"])


def test_member_loops_build_no_quartic_objects(monkeypatch):
    # _d4vc_unit and _check_rows classify on the members' ints: with the
    # MonicQuartic and QuarticClass constructors made to raise they give
    # the same results
    fam = gen_a4_family(6) + gen_v4_biquadratic(60) + gen_a3_family(-3, 3)
    units = d4vc_units(10**5)
    expected = [_check_rows(fam), *[_d4vc_unit(*args) for _, args in units]]

    def boom(*args, **kwargs):
        raise AssertionError("a quartic object was built")

    monkeypatch.setattr(classify, "MonicQuartic", boom)
    monkeypatch.setattr(classify, "QuarticClass", boom)
    with pytest.raises(AssertionError, match="quartic object"):
        classify_quartic(SimpleNamespace(coeffs=lambda: (0, 0, 0, 2)))
    assert [_check_rows(fam), *[_d4vc_unit(*args) for _, args in units]] == expected
    assert sum(sum(tally.values()) for tally, *_ in expected[1:]) == 315


def test_d4vc_units_are_balanced():
    # each pair's w are counted exactly, so the units of large u (many
    # pairs, small v) are not underestimated: at (6e5, 1/5) the largest
    # unit holds at most 1.25 times the median unit's members
    sizes = [len(_d4vc_columns(*args)[0]) for _, args in d4vc_units(600_000)]
    assert sum(sizes) == 73_084
    assert max(sizes) <= 1.25 * float(np.median(sizes))


def test_d4vc_flags_match_the_member_predicates():
    # members moved across one predicate each, cyclically: the first
    # failure _d4vc_failures finds is the predicate each move aims at, on
    # the members' ints (as bools, never ~True = -2) and on int64 columns
    H = 2 * 10**5
    rows = [row for _, args in d4vc_units(H, Fraction(1, 5)) for row in _d4vc_rows(*args)][:400]
    up = 9 * -(-H // 36)  # 4 (t + up) >= H, and up keeps t mod 9
    moves = [
        (lambda a, b, c, d: (a, b, c, d), ""),
        (lambda a, b, c, d: (a, b, c, d + up), "range predicate failed"),
        (lambda a, b, c, d: (a, b, c, d % 9 - 9), "range predicate failed"),
        (lambda a, b, c, d: (a, b + up, c, d), "range predicate failed"),
        (lambda a, b, c, d: (a, b, c + 2 * up, d), "range predicate failed"),
        (lambda a, b, c, d: (a + 3 * (H // 3 + 1), b, c, d), "height exceeded"),
        (lambda a, b, c, d: (a + 1, b, c, d), "coefficients not all divisible by 3"),
        (lambda a, b, c, d: (a, b, c, d - d % 9), "9 divides d (Eisenstein at 3 fails)"),
    ]
    moved = [(dict(params)["x"], *moves[i % len(moves)][0](*coeffs))
             for i, (_, params, coeffs, _) in enumerate(rows)]
    notes = [moves[i % len(moves)][1] for i in range(len(rows))]

    def first(fails):
        return next((note for note, fail in zip(families._D4VC_NOTES, fails) if fail), "")

    per_member = [_d4vc_failures(H, *member) for member in moved]
    assert all(type(fail) is bool for fails in per_member for fail in fails)
    assert [first(fails) for fails in per_member] == notes
    masks = _d4vc_failures(H, *np.array(moved, dtype=np.int64).T)
    assert [first(fails) for fails in zip(*masks)] == notes


@pytest.mark.parametrize("delta", [Fraction(1, 5000), Fraction(2501, 5000), Fraction(1, 10000)])
def test_d4vc_units_are_fast_at_extreme_deltas(delta):
    # the u bound H^(2 - 2 delta) is an iroot of index up to 10^4
    start = time.perf_counter()
    d4vc_units(600_000, delta)
    assert time.perf_counter() - start < 1


def test_d4vc_height_cap(monkeypatch):
    cap = families._MAX_HEIGHT
    # the columns' products stay below (H + sqrt(H)/2)^2 (see _d4vc_columns)
    assert (cap + math.isqrt(cap) // 2 + 1) ** 2 < 2**63

    def prelude(*args):
        raise AssertionError("the prelude ran")

    monkeypatch.setattr(families, "_d4vc_prelude", prelude)
    with pytest.raises(ValueError, match=f"height {cap + 1} exceeds"):
        d4vc_units(cap + 1)
    with pytest.raises(AssertionError, match="the prelude ran"):
        d4vc_units(cap)  # the cap itself passes the check


def _json_dumps_line(member, classified):
    """The member JSON line as json.dumps writes it: the oracle for _member_line."""
    family, params, coeffs, _ = member
    return json.dumps({"family": family, "params": dict(params),
                       "coeffs": list(coeffs), "class": classified})


def test_member_json_line_matches_json_dumps():
    families_seen = set()
    for fam in (gen_d4vc_family(2 * 10**5, Fraction(1, 5))[:500], gen_v4_biquadratic(100),
                gen_a4_family(5), gen_a3_family(-30, 30)):
        for m, label in zip(fam, ("D4", "reducible", "S4", "A3", "V4", "C4") * len(fam)):
            family, params, coeffs, _ = m
            line = _member_line(family, params, len(coeffs))
            assert line % (*coeffs, label) == _json_dumps_line(m, label)
            families_seen.add(family)
    assert families_seen == {"d4vc", "v4-biquadratic", "a4", "a3"}


def test_member_json_line_template_takes_the_open_params_first():
    m = gen_d4vc_family(10**5, Fraction(1, 5))[7]
    _, params, coeffs, _ = m
    line = _member_line("d4vc", [(k, "%d") for k in "uvwxa"] + list(params)[5:], 4)
    filled = line % (*(dict(params)[k] for k in "uvwxa"), *coeffs, "D4")
    assert filled == _json_dumps_line(m, "D4")


def test_member_json_line():
    family, params, coeffs, _ = gen_a3_family(4, 4)[0]
    payload = json.loads(_member_line(family, params, len(coeffs)) % (*coeffs, "A3"))
    assert payload == {
        "family": "a3",
        "params": {"t": 4},
        "coeffs": [4, 1, -1],
        "class": "A3",
    }
