"""Generators for the lower-bound construction families, each cross-validated
against the classifier.

A member is the plain tuple (family, params, coeffs, expected): params as
(name, value) pairs, coeffs below the leading 1, and the class labels the
family promises.  ``cross_validate`` is the one engine: it runs pool units
(fn, args), each returning its class tally, its JSON lines and its mismatch
and exception entries, and merges them in unit order.  ``member_units``
cuts a member list into units; ``d4vc_units`` cuts the d4vc construction's
(u, v) pair list into ranges that the workers generate themselves, so no
list of d4vc members is built to validate or write them.

Square-root range conditions are decided by exact squared comparisons, never
floats, so boundary tuples land on the correct side; floats only pick the
candidates those comparisons decide.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .classify import (
    MonicCubic,
    _quartic_label,
    classify_cubic,
    disc_quartic_coeffs,
    integer_roots_monic_cubic,
    resolvent_coeffs,
)
from .exactarith import iroot

__all__ = [
    "CrossValidationReport",
    "gen_d4vc_family",
    "d4vc_units",
    "gen_v4_biquadratic",
    "gen_a4_family",
    "gen_a3_family",
    "cross_validate",
    "member_units",
]


def _member_line(family: str, params: tuple, n_coeffs: int) -> str:
    """The %-template of a member's JSON line, to be filled with the values
    of its "%d" parameters, its n_coeffs coefficients and its class label.
    Filled, it is byte-identical to ``json.dumps`` of {"family", "params"
    (as a dict), "coeffs" (as a list), "class"}: the family, parameter
    names and labels are plain identifiers, which JSON quotes without
    escapes, and the values are ints, which it writes as ``%d`` does."""
    params = ", ".join([f'"{k}": {v}' for k, v in params])
    coeffs = ", ".join(["%d"] * n_coeffs)
    return f'{{"family": "{family}", "params": {{{params}}}, "coeffs": [{coeffs}], "class": "%s"}}'


@dataclass
class CrossValidationReport:
    members_checked: int = 0
    mismatches: list = field(default_factory=list)
    exceptions: list = field(default_factory=list)  # side condition not met; recorded, not failed
    classes: dict = field(default_factory=dict)  # label -> members, by first occurrence

    @property
    def mismatch_count(self) -> int:
        return len(self.mismatches)

    def to_json(self) -> str:
        return json.dumps(
            {
                "members_checked": self.members_checked,
                "mismatch_count": self.mismatch_count,
                "mismatches": self.mismatches,
                "exceptions": self.exceptions,
                "classes": self.classes,
            }
        )


# ---------------------------------------------------------------------------
# the D4/V4/C4 construction: x, a, u, w = 12 (mod 18), v = 4 (mod 6),
# u squarefree, with windows pinning x ~ v sqrt(u) and a ~ w sqrt(u)

def _squarefree_u_values(u_max: int) -> np.ndarray:
    """Squarefree u = 12 (mod 18) up to u_max, by sieving k with u = 12 + 18k.

    9 never divides such u, and 4 | u exactly when k is even.  For m >= 5
    prime to 6, m^2 | u exactly when k = -12/18 (mod m^2), so clearing that
    class for every such m <= sqrt(u_max) leaves the squarefree u.  No prime
    sieve is needed: if m is composite, m^2 | u gives p^2 | u for each prime
    p | m, so m clears only u that p clears already.
    """
    if u_max < 12:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones((u_max - 12) // 18 + 1, dtype=bool)
    flags[0::2] = False  # k even <=> 4 | u
    for m in range(5, math.isqrt(u_max) + 1):
        if math.gcd(m, 6) == 1:
            m2 = m * m
            flags[-12 * pow(18, -1, m2) % m2 :: m2] = False
    return 12 + 18 * np.flatnonzero(flags).astype(np.int64)


def _cong_range(lo: int, hi: int, residue: int, modulus: int) -> range:
    """Integers in [lo, hi] congruent to residue mod modulus."""
    start = lo + (residue - lo) % modulus
    return range(start, hi + 1, modulus)


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group index and offset within its group of each element, for groups
    of the given sizes laid end to end."""
    group = np.repeat(np.arange(counts.size), counts)
    offset = np.arange(group.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return group, offset


# relative widening of every float range end; see _d4vc_block
_SLACK = 2.0**-40


def _residue_span(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First k and count of the k with 12 + 18 k in the float window
    (lo, hi], each end widened by the relative _SLACK (ends are positive)."""
    k_lo = np.floor((lo * (1 - _SLACK) - 12) / 18).astype(np.int64) + 1
    k_hi = np.floor((hi * (1 + _SLACK) - 12) / 18).astype(np.int64)
    return k_lo, np.maximum(k_hi - k_lo + 1, 0)


def _w_range(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least w = 12 (mod 18) >= ceil(v/2), and how many such w <= v."""
    half = (v + 1) // 2
    w_lo = half + (12 - half) % 18
    return w_lo, (v - w_lo) // 18 + 1


def _d4vc_prelude(H: int, p: int, q: int) -> tuple[np.ndarray, ...]:
    """The (u, v) pair list of gen_d4vc_family(H, p/q), u-major: the u that
    may hold a member, their sqrt(u), and the first j and the number of j
    of their v = 4 + 6 j.

    Which (u, v) can give a member.  It needs w = 12 (mod 18) in
    [ceil(v/2), v] with v = 4 (mod 6).  For v = 4 and 10 that range ends
    below 12; v = 16 and 22 hold w = 12; v = 28 gives [14, 28], which holds
    none; from v = 34 on the range has at least 18 integers, so it holds a w.
    Hence v >= 16, and with v sqrt(u) <= delta^2 H that caps u at
    delta^4 H^2 / 256.  A v whose range holds no w is dropped by
    _d4vc_block before its x window is looked at."""
    v_min = 2 * q * math.sqrt(H) / p  # 2 delta^-1 sqrt(H) <= v sqrt(u)
    v_max = p * p * H / (q * q)  # v sqrt(u) <= delta^2 H

    # u <= H^(2 - 2 delta)  <=>  u^q <= H^(2q - 2p); v >= 16 caps u too
    u_max = min(iroot(H ** (2 * q - 2 * p), q), (p * p * H) ** 2 // (q**4 * 256))
    us = _squarefree_u_values(u_max)
    root_u = np.sqrt(us.astype(np.float64))

    # v = 4 + 6 j >= 16 in the widened float v range of each u
    j_lo = np.maximum(np.ceil((v_min * (1 - _SLACK) / root_u - 4) / 6), 2).astype(np.int64)
    j_hi = np.floor((v_max * (1 + _SLACK) / root_u - 4) / 6).astype(np.int64)
    return us, root_u, j_lo, np.maximum(j_hi - j_lo + 1, 0)


# the work of scanning one (u, v) pair for candidates, counted in members:
# at d4vc(6e5, 1/5) the scan takes 0.2-0.35 us a pair, and a member about
# 8 us, 5-6 of them to classify.  The last units hold the most pairs (6.4k
# to 8.8k each); with 1/32 they take 0.9-1.1 times the median unit's CPU,
# against 1.1-1.2 with 1/64.
_PAIR_COST = 1 / 32

# the largest height whose d4vc intermediates fit in int64; see _d4vc_columns
_MAX_HEIGHT = 3 * 10**9

_PLAN_PAIRS = 2**14

_D4VC_PARAMS = ("u", "v", "w", "x", "a")
_D4VC_EXPECTED = ("D4", "V4", "C4")


def d4vc_units(height: int, delta: Fraction = Fraction(1, 5)) -> list[tuple]:
    """gen_d4vc_family(height, delta) as pool units for cross_validate:
    consecutive ranges of its (u, v) pair list, of about _CHUNK estimated
    members each, which _d4vc_unit generates, classifies, validates and
    renders column-wise in the worker that takes the unit.  The parent
    holds only the ranges (four numpy slices a unit), never a member.

    A pair's x and a windows hold about L/18 residues each, with
    L = delta H / (v sqrt(u)), and it has n_w values of w (_w_range; v/36
    would undercount small v by half), so the pair holds about
    (delta H)^2 n_w / (324 u v^2) members.  The running sum of that
    estimate plus _PAIR_COST is built in one pass, one block of _PLAN_PAIRS
    pairs at a time, and a new range starts at each pair where it passes a
    multiple of _CHUNK, so the last range holds the remainder.  A cut may
    fall inside one u's v range: at (6e5, 1/5) u = 30 alone holds 10.6% of
    the members.  The estimate only places the cuts; the ranges partition
    the pair list whatever it says.  Height (at most _MAX_HEIGHT) and delta
    are checked here, before anything is allocated or any unit runs.
    """
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    if height > _MAX_HEIGHT:
        raise ValueError(f"height {height} exceeds the int64-safe d4vc cap {_MAX_HEIGHT}")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    H, p, q = height, delta.numerator, delta.denominator
    us, root_u, j_lo, n_v = _d4vc_prelude(H, p, q)
    ends = np.cumsum(n_v)
    starts = ends - n_v
    n_pairs = int(n_v.sum())

    def span(lo, hi):
        # the u whose pairs meet [lo, hi), each cut down to its share
        s, e = int(np.searchsorted(ends, lo, side="right")), int(np.searchsorted(starts, hi))
        first, last = np.maximum(starts[s:e], lo), np.minimum(ends[s:e], hi)
        return us[s:e], root_u[s:e], j_lo[s:e] + first - starts[s:e], last - first

    cuts, run = [0], 0.0
    for lo in range(0, n_pairs, _PLAN_PAIRS):
        u, _, j0, n = span(lo, lo + _PLAN_PAIRS)
        iu, j = _expand(n)
        v = 4 + 6 * (j0[iu] + j)
        work = (p * H / q) ** 2 * _w_range(v)[1] / (324.0 * u[iu] * v * v) + _PAIR_COST
        work[0] += run
        work = np.cumsum(work)
        marks = _CHUNK * np.arange(run // _CHUNK + 1, work[-1] // _CHUNK + 1)
        cuts += (lo + np.searchsorted(work, marks)).tolist()
        run = float(work[-1])
    cuts.append(n_pairs)
    return [(_d4vc_unit, (H, p, q, *span(lo, hi))) for lo, hi in zip(cuts, cuts[1:])]


def _d4vc_columns(H: int, p: int, q: int, us, root_u, j_lo, n_v) -> tuple[np.ndarray, ...]:
    """The u, v, w, x, a, b, c, d int64 columns of the d4vc members whose u
    is in us and v in 4 + 6 (j_lo + [0, n_v)), in member order; the last
    four are the coefficients (a, b, c, d), from 4d = x^2 - u v^2,
    4(b - x) = a^2 - u w^2 and 2c = x a - u v w, exact as all five
    parameters are even.

    int64: a member has x, a <= delta^2 H + delta^2 sqrt(H)/2 < H + sqrt(H)/2,
    so u v^2 < x^2, u w^2 < a^2 and u v w < x a stay below
    (H + sqrt(H)/2)^2 < 9.001e18 < 2^63 up to _MAX_HEIGHT = 3e9, and so
    do u v and u w, which are below u v^2."""
    u, v, w, x, a = _d4vc_block(us, root_u, j_lo, n_v, H, p, q)
    assert not ((u | v | w | x | a) & 1).any()
    return u, v, w, x, a, x + (a * a - u * w * w) // 4, (x * a - u * v * w) // 2, (x * x - u * v * v) // 4


def _d4vc_rows(H: int, p: int, q: int, us, root_u, j_lo, n_v):
    """The members (family, params, coeffs, expected) of _d4vc_columns, in
    their order: the per-member view that _check_rows validates, the
    oracle of _d4vc_unit."""
    tail = (("H", H), ("delta_num", p), ("delta_den", q))
    for row in zip(*[col.tolist() for col in _d4vc_columns(H, p, q, us, root_u, j_lo, n_v)]):
        yield "d4vc", (*zip(_D4VC_PARAMS, row), *tail), row[4:], _D4VC_EXPECTED


def _d4vc_block(us, root_u, j_lo, n_v, H: int, p: int, q: int) -> tuple[np.ndarray, ...]:
    """The u, v, w, x, a arrays of the d4vc members whose u is in us and v
    in 4 + 6 (j_lo + [0, n_v)), in (u, v, w, a, x) order.

    Floats only pick candidates.  numpy estimates, for all u at once, the v
    range [2 delta^-1 sqrt(H), delta^2 H] / sqrt(u) (in _d4vc_prelude); for
    all (u, v) the x window (v sqrt(u), v sqrt(u) + L] with
    L = delta H / (v sqrt(u)); and for each w of a pair with an x, the a
    window (w sqrt(u), w sqrt(u) + L].  Each end takes at most six
    correctly rounded operations on integers (conversions, sqrt(u),
    products, quotients and one sum of positive terms), so it is within a
    relative 8 * 2^-53 of the true end.  Each end is then widened by the
    relative _SLACK = 2^-40, has 4 or 12 subtracted, is divided by 6 or 18
    and is rounded to an integer.  Every end that can matter exceeds the
    constant subtracted (window ends are at least 12 sqrt(30) > 65, and a v
    range ending below 16 holds no v >= 16), so those steps cost under
    another 2 * 2^-53 of the end.  The widening is over 100 times the total
    error, so it carries each float end past the true one, and the rounded
    quotients take in every integer of the true range.  A (u, v) or a w is
    therefore dropped only when it has no member.  Every candidate x and a,
    with its pair's v range, is then decided by the exact squared
    comparisons below, in Python ints; at H = 10^6 they reach about 6e19,
    past int64."""
    pH = p * H
    iu, j = _expand(n_v)
    pu, root_u = us[iu], root_u[iu]
    pv = 4 + 6 * (j_lo[iu] + j)
    w_lo, n_w = _w_range(pv)
    vf = pv * root_u
    length = pH / (q * vf)
    kx, nx = _residue_span(vf, vf + length)
    nx[n_w == 0] = 0  # no w for this v

    # x candidates, then the exact v range and x window:
    #   v sqrt(u) < x <= v sqrt(u) + delta H / (v sqrt(u)), where the upper
    #   end  <=>  q x v sqrt(u) <= q u v^2 + p H
    xp, jx = _expand(nx)
    x = 12 + 18 * (kx[xp] + jx)
    v_lo_sq, v_hi_sq, p2, q4 = 4 * q * q * H, (p * p * H) ** 2, p * p, q**4
    ok = [
        p2 * uv2 >= v_lo_sq and q4 * uv2 <= v_hi_sq
        and x_ * x_ > uv2 and (q * x_ * v_) ** 2 * u <= (q * uv2 + pH) ** 2
        for u, v_, x_ in zip(pu[xp].tolist(), pv[xp].tolist(), x.tolist())
        for uv2 in [u * v_ * v_]
    ]
    xp, x = xp[ok], x[ok]
    pairs, x_start, x_count = np.unique(xp, return_index=True, return_counts=True)

    # w of each pair with an x; a candidates, then the exact a window:
    #   w sqrt(u) < a <= w sqrt(u) + delta H / (v sqrt(u)), where the upper
    #   end  <=>  q a v sqrt(u) <= q u v w + p H
    iw, jw = _expand(n_w[pairs])
    wp = pairs[iw]
    w = w_lo[wp] + 18 * jw
    wf = w * root_u[wp]
    ka, na = _residue_span(wf, wf + length[wp])
    ia, ja = _expand(na)
    a = 12 + 18 * (ka[ia] + ja)
    ok = [
        a_ * a_ > u * w_ * w_ and (q * a_ * v_) ** 2 * u <= (q * u * v_ * w_ + pH) ** 2
        for u, v_, w_, a_ in zip(
            pu[wp[ia]].tolist(), pv[wp[ia]].tolist(), w[ia].tolist(), a.tolist()
        )
    ]
    ia, a = ia[ok], a[ok]

    # each a with each x of its pair, in (u, v, w, a, x) order
    im, jm = _expand(x_count[iw[ia]])
    mx = x[x_start[iw[ia]][im] + jm]
    mp = wp[ia][im]
    return pu[mp], pv[mp], w[ia][im], mx, a[im]


def gen_d4vc_family(height: int, delta: Fraction = Fraction(1, 5)) -> list[tuple]:
    """All admissible (u, v, w, x, a) tuples and their quartics (a, b, c, d).

    Ranges: 1 <= u <= H^(2-2*delta); delta^-1 sqrt(H) <= v sqrt(u)/2 <=
    w sqrt(u) <= v sqrt(u) <= delta^2 H; then x and a sit in windows of
    length delta*H/(v sqrt(u)) above v sqrt(u) and w sqrt(u).  Coefficients
    come from 4d = x^2 - u v^2, 4(b - x) = a^2 - u w^2, 2c = x a - u v w.
    Members come in (u, v, w, a, x) order, read member by member
    (_d4vc_rows) from the ranges of d4vc_units, one after another, in this
    process.  _d4vc_prelude and _d4vc_block argue which (u, v) and which
    float window ends can be skipped.
    """
    return [row for _, args in d4vc_units(height, delta) for row in _d4vc_rows(*args)]


def gen_v4_biquadratic(height: int) -> list[tuple]:
    """X^4 + b X^2 + t^2 with b = 0 (4), t = 1 (4), H/2 <= b <= H, t <= sqrt(H).

    Empty below the smallest admissible height 8.
    """
    if height < 8:
        return []
    b_lo = -((-height) // 2)  # ceil(H/2)
    return [
        ("v4-biquadratic", (("b", b), ("t", t), ("H", height)), (0, b, 0, t * t), ("V4",))
        for b in _cong_range(b_lo, height, 0, 4)
        for t in _cong_range(1, math.isqrt(height), 1, 4)
    ]


def gen_a4_family(bound: int) -> list[tuple]:
    """X^4 + 18 v^2 X^2 + 8 u v X + u^2 for 1 <= u, v <= bound.

    The discriminant equals (16 (27 u v^4 + u^3))^2 identically; the A4
    classification holds for the (almost all) specializations where both f
    and its resolvent stay irreducible, so that condition is checked at
    validation time rather than assumed.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return [
        ("a4", (("u", u), ("v", v)), (0, 18 * v * v, 8 * u * v, u * u), ("A4",))
        for u in range(1, bound + 1)
        for v in range(1, bound + 1)
    ]


def gen_a3_family(t_lo: int, t_hi: int) -> list[tuple]:
    """The one-parameter cyclic family X^3 + t X^2 + (t - 3) X - 1."""
    return [("a3", (("t", t),), (t, t - 3, -1), ("A3",)) for t in range(t_lo, t_hi + 1)]


# ---------------------------------------------------------------------------
# validation

_CHUNK = 1024
"""Members per pool unit: at most this many in a slice of a member list
(member_units), and about this many by estimate in a d4vc pair range
(d4vc_units); the last unit of either holds the remainder.  A unit is
(fn, args).  A slice goes out as a list of the caller's member tuples; a
d4vc range goes out as four short numpy slices, and its worker generates
the members.  A unit comes back as its class tally, its JSON lines joined
into one string, and its mismatch and exception entries.
Units of about 1024 members keep each reply near 200 kB at d4vc(6e5, 1/5)
and leave dozens of units to balance the workers."""

_D4VC_NOTES = (
    "range predicate failed",
    "height exceeded",
    "coefficients not all divisible by 3",
    "9 divides d (Eisenstein at 3 fails)",
)


def _d4vc_failures(H: int, x, a, b, c, d) -> tuple:
    """The d4vc member contract: one failure per note of _D4VC_NOTES, in
    their order, for not 0 < 4d, 4(b - x), 2c < H; a |coefficient| above H;
    a coefficient not divisible by 3; and 9 | d.  Written with operators
    alone, it takes a member's ints and gives bools, or int64 columns and
    gives masks (int64 as in _d4vc_columns: 4d < x^2, 4(b - x) < a^2)."""
    four_d, four_e, two_c = 4 * d, 4 * (b - x), 2 * c
    return (
        (four_d <= 0) | (H <= four_d) | (four_e <= 0) | (H <= four_e) | (two_c <= 0) | (H <= two_c),
        (H < abs(a)) | (H < abs(b)) | (H < abs(c)) | (H < abs(d)),
        (0 < a % 3) | (0 < b % 3) | (0 < c % 3) | (0 < d % 3),
        d % 9 == 0,
    )


def _check_member(family: str, params: tuple, coeffs: tuple[int, ...],
                  expected: tuple[str, ...], label: str) -> tuple[bool, str]:
    """Evaluate one member's family-specific predicates and its class label.
    Returns (exception, note): the note of the first failing predicate, or
    of a label outside expected, and "" when the member passes."""
    exception, note = False, ""
    if family == "d4vc":
        params = dict(params)
        fails = _d4vc_failures(params["H"], params["x"], *coeffs)
        note = next((text for text, fail in zip(_D4VC_NOTES, fails) if fail), "")
    elif family == "a4":
        u, v = dict(params)["u"], dict(params)["v"]
        if disc_quartic_coeffs(*coeffs) != (16 * (27 * u * v**4 + u**3)) ** 2:
            note = "discriminant identity failed"
        elif label == "reducible" or integer_roots_monic_cubic(*resolvent_coeffs(*coeffs)):
            # Hilbert-irreducibility exceptions: recorded, not mismatches
            exception, note = True, f"side condition not met (class {label})"
    if not note and label not in expected:
        note = f"classified {label}"
    return exception, note


def _entry(family: str, params: tuple, coeffs: tuple[int, ...], label: str, note: str) -> dict:
    """A mismatch or exception entry of the report."""
    return {"family": family, "params": dict(params), "coeffs": list(coeffs),
            "class": label, "note": note}


def _check_rows(rows: list[tuple]) -> tuple[Counter, str, list[dict], list[dict]]:
    """The unit function of member_units: classify, validate and render
    each member (family, params, coeffs, expected)."""
    tally, lines, mismatches, exceptions = Counter(), [], [], []
    for family, params, coeffs, expected in rows:
        label = (classify_cubic(MonicCubic(*coeffs)).value if len(coeffs) == 3
                 else _quartic_label(*coeffs)[0])
        exception, note = _check_member(family, params, coeffs, expected, label)
        tally[label] += 1
        lines.append(_member_line(family, params, len(coeffs)) % (*coeffs, label))
        if note:
            (exceptions if exception else mismatches).append(
                _entry(family, params, coeffs, label, note))
    return tally, "\n".join(lines), mismatches, exceptions


def _d4vc_unit(H: int, p: int, q: int, us, root_u, j_lo, n_v) -> tuple:
    """The unit function of d4vc_units, column-wise: the members' int64
    columns and the _d4vc_failures masks on them, then one loop that
    classifies each member's ints and fills one line template.  A member
    that fails a predicate or is classified outside D4/V4/C4 is a mismatch;
    _check_member gives it its note as on the per-member route."""
    cols = _d4vc_columns(H, p, q, us, root_u, j_lo, n_v)
    gate = np.any(_d4vc_failures(H, *cols[3:]), axis=0)
    tail = (("H", H), ("delta_num", p), ("delta_den", q))
    line = _member_line("d4vc", (*[(k, "%d") for k in _D4VC_PARAMS], *tail), 4)
    labels, lines, mismatches = [], [], []
    for u, v, w, x, a, b, c, d, flag in zip(*[col.tolist() for col in cols], gate.tolist()):
        label = _quartic_label(a, b, c, d)[0]
        labels.append(label)
        lines.append(line % (u, v, w, x, a, a, b, c, d, label))
        if flag or label not in _D4VC_EXPECTED:
            params = (*zip(_D4VC_PARAMS, (u, v, w, x, a)), *tail)
            note = _check_member("d4vc", params, (a, b, c, d), _D4VC_EXPECTED, label)[1]
            mismatches.append(_entry("d4vc", params, (a, b, c, d), label, note))
    return Counter(labels), "\n".join(lines), mismatches, []


def _check_unit(unit: tuple) -> tuple[Counter, str, list[dict], list[dict]]:
    """Run one pool unit (fn, args): fn(*args) returns the members per label
    (keys in first-occurrence order), their JSON lines joined by newlines
    and the mismatch and exception entries, in member order."""
    fn, args = unit
    return fn(*args)


def member_units(members: list[tuple]) -> Iterator[tuple]:
    """Pool units for cross_validate: consecutive slices of at most _CHUNK
    members, each a list of the caller's own (family, params, coeffs,
    expected) tuples, for _check_rows.  The slices are taken by a
    generator, but ``Executor.map`` submits every unit before it yields the
    first result: the workers fork at the first slices, and the parent
    takes all the others right after the fork."""
    for i in range(0, len(members), _CHUNK):
        yield _check_rows, (members[i : i + _CHUNK],)


def cross_validate(units: Iterable[tuple], workers: int = 1,
                   write: Callable[[str], object] | None = None) -> CrossValidationReport:
    """Run every unit through _check_unit and merge the results in unit
    order; returns the report.  The units run on a pool of up to
    ``workers`` processes (0: one per core) when there is more than one
    unit, else in this process; serial and pooled runs share the unit
    function.  Each unit's non-empty block of JSON lines goes to ``write``,
    if given, as the pool yields it; otherwise it is dropped as the unit is
    merged.  Only the first ``workers`` units are taken before the pool
    forks.  ``Executor.map`` submits every unit before it yields the first
    result, so the parent takes all the others right after the fork and
    holds each until a worker has taken it."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    units = iter(units)
    head = list(islice(units, workers or os.cpu_count() or 1))
    report, classes = CrossValidationReport(), Counter()
    pool = ProcessPoolExecutor(len(head)) if len(head) > 1 else None
    with pool or nullcontext():
        for tally, text, mismatches, exceptions in (pool.map if pool else map)(
            _check_unit, chain(head, units)
        ):
            classes.update(tally)
            report.members_checked += sum(tally.values())
            report.mismatches += mismatches
            report.exceptions += exceptions
            if text and write:
                write(text)
    report.classes = dict(classes)
    return report
