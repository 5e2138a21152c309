"""Generators for the lower-bound construction families, each cross-validated
against the classifier.

Square-root range conditions are decided by exact squared comparisons, never
floats, so boundary tuples land on the correct side; floats only pick the
candidates those comparisons decide.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

from .classify import (
    MonicCubic,
    MonicQuartic,
    classify_cubic,
    classify_quartic,
    disc_quartic,
    resolvent_integer_roots,
)
from .exactarith import iroot

__all__ = [
    "FamilyMember",
    "CrossValidationReport",
    "gen_d4vc_family",
    "d4vc_units",
    "gen_v4_biquadratic",
    "gen_a4_family",
    "gen_a3_family",
    "cross_validate",
    "member_units",
    "validate_units",
]


@dataclass(frozen=True)
class FamilyMember:
    family: str
    params: tuple[tuple[str, int], ...]
    coeffs: tuple[int, ...]
    expected: tuple[str, ...]


def _member_line(family: str, params: tuple, coeffs: tuple[int, ...],
                 classified: str | None = None) -> str:
    """A member's JSON line, byte-identical to ``json.dumps`` of
    {"family", "params" (as a dict), "coeffs" (as a list)[, "class"]}.

    Built from a template: the family, parameter names and class labels
    are plain identifiers, which JSON quotes without escapes, and the
    values are ints, which it writes as ``str`` does."""
    params = ", ".join([f'"{k}": {v}' for k, v in params])
    coeffs = ", ".join(map(str, coeffs))
    label = "" if classified is None else f', "class": "{classified}"'
    return f'{{"family": "{family}", "params": {{{params}}}, "coeffs": [{coeffs}]{label}}}'


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


# relative widening of every float range end; see gen_d4vc_family
_SLACK = 2.0**-40


def _residue_span(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First k and count of the k with 12 + 18 k in the float window
    (lo, hi], each end widened by the relative _SLACK (ends are positive)."""
    k_lo = np.floor((lo * (1 - _SLACK) - 12) / 18).astype(np.int64) + 1
    k_hi = np.floor((hi * (1 + _SLACK) - 12) / 18).astype(np.int64)
    return k_lo, np.maximum(k_hi - k_lo + 1, 0)


def _d4vc_prelude(H: int, p: int, q: int) -> tuple[np.ndarray, ...]:
    """The (u, v) pair list of gen_d4vc_family(H, p/q), u-major: the u that
    may hold a member, their sqrt(u), and the first j and the number of j
    of their v = 4 + 6 j."""
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
# at d4vc(6e5, 1/5) the scan takes about 0.2 us a pair, and a member about
# 30 us: 4 us to generate, 26 us to classify, validate and render
_PAIR_COST = 1 / 128


def d4vc_units(height: int, delta: Fraction = Fraction(1, 5)) -> list[tuple]:
    """gen_d4vc_family(height, delta) as pool units for validate_units:
    consecutive ranges of its (u, v) pair list, of about _CHUNK estimated
    members each, whose members _d4vc_rows generates.

    A pair's x and a windows hold about L/18 residues each, with
    L = delta H / (v sqrt(u)), and its w range about v/36, so the pair
    holds about (delta H)^2 / (11664 u v) members.  Ranges are cut by that
    estimate plus _PAIR_COST, and a cut may fall inside one u's v range:
    at (6e5, 1/5) u = 30 alone holds 10.6% of the members.  The estimate
    only places the cuts; the ranges partition the pair list whatever it
    says.  Height and delta are checked here, before any unit runs.
    """
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    H, p, q = height, delta.numerator, delta.denominator
    us, root_u, j_lo, n_v = _d4vc_prelude(H, p, q)
    iu, j = _expand(n_v)
    work = np.cumsum((p * H / q) ** 2 / (11664.0 * us[iu] * (4 + 6 * (j_lo[iu] + j))) + _PAIR_COST)
    total = float(work[-1]) if work.size else 0.0
    n_units = max(1, math.ceil(total / _CHUNK))
    cuts = [0, *np.searchsorted(work, total * np.arange(1, n_units) / n_units).tolist(), iu.size]
    ends = np.cumsum(n_v)
    starts = ends - n_v
    units = []
    for lo, hi in zip(cuts, cuts[1:]):
        # the u whose pairs meet [lo, hi), each cut down to its share
        s, e = int(np.searchsorted(ends, lo, side="right")), int(np.searchsorted(starts, hi))
        first, last = np.maximum(starts[s:e], lo), np.minimum(ends[s:e], hi)
        args = (H, p, q, us[s:e], root_u[s:e], j_lo[s:e] + first - starts[s:e], last - first)
        units.append((_d4vc_rows, args))
    return units


def _d4vc_rows(H: int, p: int, q: int, us, root_u, j_lo, n_v):
    """The fields (family, params, coeffs, expected) of the d4vc members
    whose u is in us and v in 4 + 6 (j_lo + [0, n_v)), in their order."""
    mu, mv, mw, mx, ma = _d4vc_block(us, root_u, j_lo, n_v, H, p, q)
    # all five are even, so the divisions below are exact
    assert not ((mu | mv | mw | mx | ma) & 1).any()
    tail = (("H", H), ("delta_num", p), ("delta_den", q))
    expected = ("D4", "V4", "C4")
    for u, v_, w_, x_, a_ in zip(mu.tolist(), mv.tolist(), mw.tolist(), mx.tolist(), ma.tolist()):
        yield (
            "d4vc",
            (("u", u), ("v", v_), ("w", w_), ("x", x_), ("a", a_)) + tail,
            (a_, x_ + (a_ * a_ - u * w_ * w_) // 4, (x_ * a_ - u * v_ * w_) // 2,
             (x_ * x_ - u * v_ * v_) // 4),
            expected,
        )


def _d4vc_block(us, root_u, j_lo, n_v, H: int, p: int, q: int) -> tuple[np.ndarray, ...]:
    """The u, v, w, x, a arrays of the d4vc members whose u is in us and v
    in 4 + 6 (j_lo + [0, n_v)), in (u, v, w, a, x) order."""
    pH = p * H
    iu, j = _expand(n_v)
    pu, root_u = us[iu], root_u[iu]
    pv = 4 + 6 * (j_lo[iu] + j)
    half = (pv + 1) // 2
    w_lo = half + (12 - half) % 18  # the least w = 12 (mod 18) >= ceil(v/2)
    vf = pv * root_u
    length = pH / (q * vf)
    kx, nx = _residue_span(vf, vf + length)
    nx[w_lo > pv] = 0  # no w for this v

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
    iw, jw = _expand((pv[pairs] - w_lo[pairs]) // 18 + 1)
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


def gen_d4vc_family(height: int, delta: Fraction = Fraction(1, 5)) -> list[FamilyMember]:
    """All admissible (u, v, w, x, a) tuples and their quartics (a, b, c, d).

    Ranges: 1 <= u <= H^(2-2*delta); delta^-1 sqrt(H) <= v sqrt(u)/2 <=
    w sqrt(u) <= v sqrt(u) <= delta^2 H; then x and a sit in windows of
    length delta*H/(v sqrt(u)) above v sqrt(u) and w sqrt(u).  Coefficients
    come from 4d = x^2 - u v^2, 4(b - x) = a^2 - u w^2, 2c = x a - u v w.
    Members come in (u, v, w, a, x) order.

    Which (u, v) can give a member.  It needs w = 12 (mod 18) in
    [ceil(v/2), v] with v = 4 (mod 6).  For v = 4 and 10 that range ends
    below 12; v = 16 and 22 hold w = 12; v = 28 gives [14, 28], which holds
    none; from v = 34 on the range has at least 18 integers, so it holds a w.
    Hence v >= 16, and with v sqrt(u) <= delta^2 H that caps u at
    delta^4 H^2 / 256.  A v whose range holds no w is dropped before its x
    window is looked at.

    Floats only pick candidates.  numpy estimates, for all u at once, the v
    range [2 delta^-1 sqrt(H), delta^2 H] / sqrt(u); for all (u, v) the x
    window (v sqrt(u), v sqrt(u) + L] with L = delta H / (v sqrt(u)); and
    for each w of a pair with an x, the a window (w sqrt(u), w sqrt(u) + L].
    Each end takes at most six correctly rounded operations on integers
    (conversions, sqrt(u), products, quotients and one sum of positive
    terms), so it is within a relative 8 * 2^-53 of the true end.  Each end
    is then widened by the relative _SLACK = 2^-40, has 4 or 12 subtracted,
    is divided by 6 or 18 and is rounded to an integer.  Every end that
    can matter exceeds the constant subtracted (window ends are at least
    12 sqrt(30) > 65, and a v range ending below 16 holds no v >= 16), so
    those steps cost under another 2 * 2^-53 of the end.  The widening is
    over 100 times the total error, so it carries each float end past the
    true one, and the rounded quotients take in every integer of the true
    range.  A (u, v) or a w is therefore dropped only when it has no member.
    Every candidate x and a, with its pair's v range, is then decided by
    the exact squared comparisons in Python ints in _d4vc_block; at
    H = 10^6 they reach about 6e19, past int64.

    How the work is split.  _d4vc_prelude lists the (u, v) pairs once:
    the u sieve, sqrt(u) and each u's v range, all cheap.  d4vc_units cuts
    that list into consecutive ranges, and _d4vc_rows turns one range into
    its members.  This function is the concatenation of all the ranges, in
    one process; the ``family`` command runs the same ranges as pool units,
    each generated, validated and rendered in a worker (validate_units).
    """
    return [FamilyMember(*row) for make_rows, args in d4vc_units(height, delta)
            for row in make_rows(*args)]


def gen_v4_biquadratic(height: int) -> list[FamilyMember]:
    """X^4 + b X^2 + t^2 with b = 0 (4), t = 1 (4), H/2 <= b <= H, t <= sqrt(H).

    Empty below the smallest admissible height 8.
    """
    if height < 8:
        return []
    members = []
    b_lo = -((-height) // 2)  # ceil(H/2)
    for b in _cong_range(b_lo, height, 0, 4):
        for t in _cong_range(1, math.isqrt(height), 1, 4):
            members.append(
                FamilyMember(
                    family="v4-biquadratic",
                    params=(("b", b), ("t", t), ("H", height)),
                    coeffs=(0, b, 0, t * t),
                    expected=("V4",),
                )
            )
    return members


def gen_a4_family(bound: int) -> list[FamilyMember]:
    """X^4 + 18 v^2 X^2 + 8 u v X + u^2 for 1 <= u, v <= bound.

    The discriminant equals (16 (27 u v^4 + u^3))^2 identically; the A4
    classification holds for the (almost all) specializations where both f
    and its resolvent stay irreducible, so that condition is checked at
    validation time rather than assumed.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    members = []
    for u in range(1, bound + 1):
        for v in range(1, bound + 1):
            members.append(
                FamilyMember(
                    family="a4",
                    params=(("u", u), ("v", v)),
                    coeffs=(0, 18 * v * v, 8 * u * v, u * u),
                    expected=("A4",),
                )
            )
    return members


def gen_a3_family(t_lo: int, t_hi: int) -> list[FamilyMember]:
    """The one-parameter cyclic family X^3 + t X^2 + (t - 3) X - 1."""
    return [
        FamilyMember(
            family="a3",
            params=(("t", t),),
            coeffs=(t, t - 3, -1),
            expected=("A3",),
        )
        for t in range(t_lo, t_hi + 1)
    ]


# ---------------------------------------------------------------------------
# validation

_CHUNK = 1024
"""Most members per pool unit: a chunk of a member list (member_units), or
the estimated members of a d4vc pair range (d4vc_units).  A chunk goes out
as a list of plain tuples, which pickle and unpickle in under half the time
of the dataclasses; a d4vc range goes out as four short numpy slices, and
its worker generates the members.  A unit comes back as its class tally,
its JSON lines joined into one string, and its mismatch and exception
entries.
Units of about 1024 members keep each reply near 200 kB at d4vc(6e5, 1/5)
and leave dozens of units to balance the workers."""


def _check_member(family: str, params: tuple, coeffs: tuple[int, ...],
                  expected: tuple[str, ...]) -> tuple[str, bool, bool, str]:
    """Classify one member, given as its fields, and evaluate its
    family-specific predicates.  Returns (label, ok, exception, note)."""
    if len(coeffs) == 3:
        poly = MonicCubic(*coeffs)
        label = classify_cubic(poly).value
    else:
        poly = MonicQuartic(*coeffs)
        label = classify_quartic(poly).group.value

    ok, exception, note = True, False, ""
    if family == "d4vc":
        ok, note = _validate_d4vc(params, coeffs, expected, label)
    elif family == "a4":
        u = dict(params)["u"]
        v = dict(params)["v"]
        if disc_quartic(poly) != (16 * (27 * u * v**4 + u**3)) ** 2:
            ok, note = False, "discriminant identity failed"
        elif label == "reducible" or resolvent_integer_roots(poly):
            # Hilbert-irreducibility exceptions: recorded, not mismatches
            exception, note = True, f"side condition not met (class {label})"
        elif label not in expected:
            ok, note = False, f"classified {label}"
    else:
        if label not in expected:
            ok, note = False, f"classified {label}"
    return label, ok, exception, note


def _validate_d4vc(params: tuple, coeffs: tuple[int, ...], expected: tuple[str, ...],
                   label: str) -> tuple[bool, str]:
    params = dict(params)
    H, x = params["H"], params["x"]
    a, b, c, d = coeffs
    four_d = 4 * d
    four_e = 4 * (b - x)
    two_c = 2 * c
    if not (0 < four_d < H and 0 < four_e < H and 0 < two_c < H):
        return False, "range predicate failed"
    if any(abs(t) > H for t in coeffs):
        return False, "height exceeded"
    if any(t % 3 for t in coeffs):
        return False, "coefficients not all divisible by 3"
    if d % 9 == 0:
        return False, "9 divides d (Eisenstein at 3 fails)"
    if label not in expected:
        return False, f"classified {label}"
    return True, ""


def _check_unit(unit: tuple) -> tuple[Counter, str, list[dict], list[dict]]:
    """Generate one pool unit's members, then classify, validate and render
    each; a unit is (make_rows, args), and make_rows(*args) yields member
    fields.  Returns the members per label (keys in first-occurrence
    order), the JSON lines joined by newlines and the mismatch and
    exception entries, in member order."""
    make_rows, args = unit
    tally, lines, mismatches, exceptions = Counter(), [], [], []
    for family, params, coeffs, expected in make_rows(*args):
        label, ok, exception, note = _check_member(family, params, coeffs, expected)
        tally[label] += 1
        lines.append(_member_line(family, params, coeffs, label))
        if exception or not ok:
            entry = {
                "family": family,
                "params": dict(params),
                "coeffs": list(coeffs),
                "class": label,
                "note": note,
            }
            (exceptions if exception else mismatches).append(entry)
    return tally, "\n".join(lines), mismatches, exceptions


def member_units(members: list[FamilyMember], workers: int = 1) -> Iterator[tuple]:
    """Pool units for validate_units: chunks of at most _CHUNK members, as
    many as the workers where that leaves at least 256 members a chunk.
    The chunks are built lazily, as the pool takes them: its workers fork
    at the first ones, so the rest never sit in their copies of this heap."""
    size = min(_CHUNK, max(256, -(-len(members) // workers)))
    for i in range(0, len(members), size):
        yield iter, ([(m.family, m.params, m.coeffs, m.expected) for m in members[i : i + size]],)


def validate_units(units: Iterable[tuple],
                   workers: int = 1) -> tuple[CrossValidationReport, list[str]]:
    """Run every unit through _check_unit, on a pool of up to ``workers``
    processes when there is more than one unit, and merge the results in
    unit order.  Returns the report and the non-empty JSON-line blocks of
    the units, in order.  Serial and pooled runs share the unit function.
    Only the first ``workers`` units are taken before the pool forks; the
    rest are taken as the pool submits them."""
    units = iter(units)
    head = list(islice(units, max(workers, 1)))
    report, texts, classes = CrossValidationReport(), [], Counter()
    pool = ProcessPoolExecutor(len(head)) if len(head) > 1 else None
    with pool or nullcontext():
        for tally, text, mismatches, exceptions in (pool.map if pool else map)(
            _check_unit, chain(head, units)
        ):
            classes.update(tally)
            report.members_checked += sum(tally.values())
            report.mismatches += mismatches
            report.exceptions += exceptions
            if text:
                texts.append(text)
    report.classes = dict(classes)
    return report, texts


def cross_validate(members: list[FamilyMember], workers: int = 1) -> CrossValidationReport:
    """Classify every member and tally mismatches against the family contract."""
    return validate_units(member_units(members, workers), workers)[0]
