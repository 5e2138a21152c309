"""Exhaustive censuses of monic integer cubics/quartics by Galois class.

The coefficient box [-H, H]^deg is enumerated in stripes, one per a-stratum
(fixed a), and every tuple in a stripe is classified with vectorized int64
kernels (the cubic square sweep runs in exact float64 and confirms in
int64).  A cubic stripe is one (b, c) grid.  A quartic stripe is walked in
blocks of consecutive b, each a (b, c, d) grid of about 2^17 cells (8 b at
H = 60, one from H = 128 on), and each layer runs as one vectorised pass
over all of a block's b-values.  The X -> -X symmetry
(a,b,c,d) -> (-a,b,-c,d) halves the work exactly as in the per-sign
doubling of the reference enumeration: the a = 0 stratum is counted once,
a >= 1 strata twice.

Two interchangeable strategies:

* ``direct`` (default): reducibility is re-derived inside each stripe by
  marking products of lower-degree factors restricted to the stripe (for
  quartics, the linear factors; the stripe adds the quadratic splits read
  off its resolvent roots); memory is O(H^2) regardless of height.
* ``table``: a global irreducibility bit table is built first by clearing
  every product of lower-degree factors in the box, then shared read-only by
  the classification pass, in this process (the table is not sent to
  workers).  Memory is O(H^degree); it exists as a cross-check of the
  direct strategy and is capped accordingly.

Both strategies map one stripe job over the strata, serially or on a
process pool, and feed one result loop, which merges counts, appends each
stripe to the optional journal and reports progress.  A pool task is a
chunk of consecutive strata of about 2^22 cells in all, so the pool's
per-task cost is not paid on every short stratum.  Results come back in
stratum order on every path, so a journal's records do too.

The cubic A3 sweep tests squares only on the (a, b) rows where
I = a^2 - 3b is a positive Loeschian number (x^2 + xy + y^2), which the
paper's identity 27 disc = 4I^3 - J^2 requires of any square discriminant.
A square discriminant is also positive, so J^2 < 4I^3 with J = J0 + 27c
confines each such row to one c-window, whose ends come from 2 I sqrt(I)
in float64, widened by at most one cell per end.  The sweep walks
cache-sized tiles of consecutive rows, each spanning the union of its
rows' windows.  A tile's discriminants
are evaluated in place on one float64 array, exactly, and its square roots
taken in place; the few cells whose root is an integer are confirmed in
int64, and only the confirmed ones are looked up in the reducible mask.
The A3 cells come back sparsely, as b-rows and c values.

The quartic resolvent roots are enumerated from the paper's symmetry
identity: for each candidate x, only the multiples of rad2(|K(x)|) in two
short t = xa - 2c intervals are tried, on average about 130 per (a, b) at
H = 60 and 210 at H = 400.  These sparse root cells also decide every
quadratic split, so the reducible mask marks only linear factors.

The quartic square test uses the same identity 27 disc = 4I^3 - J^2, now
with I = 12d + b^2 - 3ac and J linear in d.  A square discriminant is
positive, so I(d) > 0 and |J(d)| <= isqrt(4 I(H)^3), since I grows with d:
each (b, c) row holds one exact d-window with every cell of disc > 0.
On seeded stripes the windows hold 32% / 27% / 18% of the cells at
H = 60 / 150 / 400, against 22% / 21% / 17% with disc > 0.  Only the
windows are evaluated, laid end to end in tiles of about 2^13 cells, and
every square is confirmed by integer squaring.  V4 and D4/C4 are read off
the sparse root cells, where the discriminant is evaluated once per block.

The discriminants, the C4 test and the resolvent root bound are the
classifier's functions; the stripes call them on int64 grids or Python ints.

int64 safety: the largest intermediate is the quartic discriminant.  Each
partial result of its Horner evaluation ((256 d + t2) d + t1) d + t0 is a
sub-sum of its monomials, possibly divided by powers of c or d, so it has
degree at most 6 and absolute coefficients summing to at most 1069: it is
bounded by 1069 * H^6 < 2^62 for H <= 400, and the reducible mask by
2H^3 + H^2 + H.  The resolvent candidates have |x| <= 805 at the cap, so
|t| <= 805 * 400 + 800 and t^2 < 1.1e11; |K| <= 164820, so the |t|-range
ends |K| (x^2 + 4H) stay below 1.1e11 too, exact in float64 for the
square-root guesses.  The d-windows have I(H) <= 4H^2 + 12H, so
4 I(H)^3 < 1.1e18 < 2^62 at the cap, within ``_isqrt``'s exact domain, and
|J(0)| <= 11H^3 + 27H^2 with slope |72b - 27a^2| <= 27H^2 + 72H.  The cubic
discriminant's partial results are bounded the same way, by
5 H^4 + 22 H^3 + 27 H^2, safe in int64 far beyond the cubic cap of 5000.
float64 safety: at the cap that bound is 3.13e15 < 2^53, so every partial
result of the cubic sweep's float64 Horner steps is an integer that float64
holds exactly, and each step rounds to itself.  At the cap the sweep's
tiles are small, and the stripe's reducible mask, the only full (b, c)
grid, takes 100 MB.  Heights above the caps are
rejected rather than risk silent wraparound or swapping.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classify import (
    disc_cubic_coeffs,
    disc_cubic_terms,
    disc_quartic_coeffs,
    disc_quartic_terms,
    fujiwara_bound,
    invariants_cubic_coeffs,
    invariants_quartic_coeffs,
    is_c4,
    resolvent_root_bound,
)

__all__ = [
    "CensusError",
    "CensusRequest",
    "CensusReport",
    "run_census",
    "build_irreducible_table",
    "list_a3_cubics",
    "report_to_json",
    "report_from_json",
    "report_to_csv",
    "CUBIC_CLASSES",
    "QUARTIC_CLASSES",
]

CUBIC_CLASSES = ("reducible", "S3", "A3")
QUARTIC_CLASSES = ("reducible", "S4", "A4", "D4", "V4", "C4")

MAX_HEIGHT = {3: 5000, 4: 400}
DEFAULT_TABLE_CAP = 2**31  # bytes

# Version of the stripe kernels, recorded in each journal header: a resume
# merges only stripes counted by the same version.  Bump it whenever a
# kernel computes different int64 values; a change that leaves every value
# as it was keeps the version.
KERNEL_VERSION = 7


class CensusError(ValueError):
    pass


@dataclass(frozen=True)
class CensusRequest:
    degree: int
    height: int
    strategy: str = "direct"
    workers: int = 0  # 0 = all available cores

    def classes(self) -> tuple[str, ...]:
        return CUBIC_CLASSES if self.degree == 3 else QUARTIC_CLASSES

    def checksum(self) -> str:
        key = f"degree={self.degree};height={self.height};strategy={self.strategy}"
        return hashlib.sha256(key.encode()).hexdigest()[:16]

    def validate(self) -> None:
        if self.degree not in (3, 4):
            raise CensusError(f"degree must be 3 or 4, got {self.degree}")
        if self.height < 0:
            raise CensusError("height must be >= 0")
        if self.height > MAX_HEIGHT[self.degree]:
            raise CensusError(
                f"height {self.height} exceeds the int64-safe cap "
                f"{MAX_HEIGHT[self.degree]} for degree {self.degree}"
            )
        if self.strategy not in ("direct", "table"):
            raise CensusError(f"unknown strategy {self.strategy!r}")
        if self.workers < 0:
            raise CensusError("workers must be >= 0")


@dataclass
class CensusReport:
    request: CensusRequest
    counts: dict[str, int]
    wall_time_s: float


# ---------------------------------------------------------------------------
# vectorized primitives

def _square_mask(v: np.ndarray) -> np.ndarray:
    """Boolean mask of strictly positive perfect squares in an int64 array.

    One candidate root suffices for v <= 2^62, the kernels' range.  If
    v = s^2, then s <= 2^31; float64(v) and its sqrt are each rounded with
    relative error at most 2^-53, so sqrt(float64(v)) is within s * 2^-52
    <= 2^-21 of s, and rint gives s exactly.  The integer check r * r == v
    then decides, so a non-square is never accepted.  v <= 0 is raised to 1
    before the root, so r = 1 and r * r != v there.  Rounding and squaring
    in place keep the temporaries to one float64 and one int64 array.
    """
    r = np.maximum(v, 1)
    f = np.sqrt(r)
    np.rint(f, out=f)
    np.copyto(r, f, casting="unsafe")
    np.multiply(r, r, out=r)
    return r == v


@functools.cache
def _factor_pairs(height: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (r, s) with r != 0 and |r*s| <= height, and -r*s, as read-only arrays.

    A linear factor X - r times a monic cofactor with constant term s has
    constant term -r*s, so these pairs cover every polynomial in the box
    with a nonzero integer root.  The stripe kernels recompute the other
    coefficients per stripe.
    """
    r_parts = [np.zeros(0, dtype=np.int64)]
    s_parts = [np.zeros(0, dtype=np.int64)]
    for r in range(1, height + 1):
        m = height // r
        s = np.arange(-m, m + 1, dtype=np.int64)
        for signed in (r, -r):
            r_parts.append(np.full(s.shape, signed, dtype=np.int64))
            s_parts.append(s)
    rr, ss = np.concatenate(r_parts), np.concatenate(s_parts)
    pairs = (rr, ss, -rr * ss)
    for arr in pairs:
        arr.flags.writeable = False  # one cached copy is shared by every stripe
    return pairs


# ---------------------------------------------------------------------------
# cubic kernels: stripe = fixed a, grid indexed [b+H, c+H]

def _cubic_red_mask(a: int, height: int, pairs) -> np.ndarray:
    """(X - r)(X^2 + pX + s) has a = p - r, so b = s - r(a + r) and c = -r s."""
    H, W = height, 2 * height + 1
    rr, ss, cc = pairs
    red = np.zeros((W, W), dtype=bool)
    red[:, H] = True  # c = 0: root 0
    if rr.size:
        bb = ss - rr * (a + rr)
        ok = np.abs(bb) <= H
        red.reshape(-1)[(bb[ok] + H) * W + cc[ok] + H] = True
    return red


_TILE_CELLS = 2**15
"""Cells per tile of the cubic A3 sweep.  A tile keeps three arrays alive
at once: the float64 discriminants, square-rooted in place (256 KB), their
rint (256 KB) and the bool candidate mask (32 KB), about 0.55 MB inside a
2 MB per-core L2 cache.  Over every fifth stratum at H = 500 (serial CPU
time, 2-core x86-64 box), 2^13 / 2^14 / 2^16 / 2^17-cell tiles were 41% /
11% / 15% / 68% slower than 2^15; at H = 2000, where tiles hold 8 rows,
2^16 and 2^17 were 8% and 10% faster."""


@functools.cache
def _loeschian(n_max: int) -> np.ndarray:
    """Read-only bool table over 0..n_max: True at n > 0 iff n = x^2 + xy + y^2.

    These are the norms of Z[zeta_3].  Every one has a representation with
    x >= y >= 0 (the six units and conjugation move any element into that
    sector), so the table marks those.
    """
    table = np.zeros(n_max + 1, dtype=bool)
    x = np.arange(math.isqrt(n_max) + 1, dtype=np.int64)
    for y in range(1, math.isqrt(n_max // 3) + 1):
        n = x[y:] * (x[y:] + y) + y * y
        table[n[n <= n_max]] = True
    table[x[1:] ** 2] = True  # y = 0
    table.flags.writeable = False  # one cached copy is shared by every stripe
    return table


def _cubic_a3_rows(a: int, height: int) -> np.ndarray:
    """Ascending b-row indices b + H where an A3 cubic X^3 + aX^2 + bX + c can lie.

    27 disc = 4I^3 - J^2 with I = a^2 - 3b and J = 2a^3 - 9ab + 27c, so
    disc = y^2 > 0 gives 4I^3 = J^2 + 3(3y)^2, a norm from Z[zeta_3].  Then
    I > 0 and every prime = 2 (mod 3) divides 4I^3, hence I, to an even
    power: I is Loeschian.  The condition does not involve c.
    """
    H = height
    b = np.arange(-H, H + 1, dtype=np.int64)
    i, _ = invariants_cubic_coeffs(a, b, 0)  # at most H^2 + 3H
    return np.flatnonzero(_loeschian(H * H + 3 * H)[np.maximum(i, 0)])


def _cubic_c_window(a: int, height: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): per b-row index in ``rows``, a c-interval holding every cell
    with disc >= 0, and at most one cell more at each end, of disc < 0.

    27 disc = 4I^3 - J^2 with J = J0 + 27c and J0 = 2a^3 - 9ab, so disc >= 0
    needs |J| <= S = isqrt(4I^3).  The window is
    [ceil((-s - J0) / 27), floor((s - J0) / 27)], cut to [-H, H], for
    s = ceil(2 I sqrt(I)) taken in float64.  The rows have 1 <= I <= H^2 + 3H
    < 2^25 at the cubic cap, and the float 2 I sqrt(I) < 2^38.5 is within
    relative error 2^-52 (two roundings) of sqrt(4I^3), so within
    2^-13.5 < 10^-4: S <= s <= S + 2.  A c that s adds to the exact window
    has |J| > S, so J^2 > 4I^3 and disc < 0, which the square test rejects;
    as J steps by 27, s adds at most one c per end.
    s and |J0| <= 2H^3 + 9H^2 are below 2^38 at the cap, so the window ends
    are exact in int64.  hi < lo marks an empty window.
    """
    H = height
    i, j0 = invariants_cubic_coeffs(a, rows - H, 0)
    s = np.ceil(2 * i * np.sqrt(i)).astype(np.int64)
    return np.maximum(-((s + j0) // 27), -H), np.minimum((s - j0) // 27, H)


def _cubic_disc_tile(t1: np.ndarray, t0: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The float64 discriminants (-27 c + t1) c + t0 of a tile, for the
    float64 row terms t1, t0 of ``disc_cubic_terms`` as (rows, 1) columns and
    a row of c values: each Horner step runs in place on the one array."""
    v = np.multiply(c, -27.0, out=np.empty((t1.shape[0], c.size)))
    v += t1
    v *= c
    v += t0
    return v


def _cubic_a3_cells(a: int, height: int, red: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, c): the A3 cells (square discriminant, not reducible) of the
    (b, c) grid, as b-row indices b + H and c values in lexicographic order.

    Only rows that ``_cubic_a3_rows`` keeps and whose ``_cubic_c_window`` is
    non-empty are swept.  A tile is a run of up to _TILE_CELLS // (2H + 1)
    such rows and spans the union of their windows, a plain column slice.
    Per tile, the discriminant (-27 c + t1) c + t0, with the row terms of
    ``disc_cubic_terms``, is evaluated in place on one float64 array and
    its square root taken in place; the candidates are the cells whose root
    is an integer (NaN, from disc < 0, never is).  Each candidate is then
    confirmed by ``_square_mask`` on its int64 ``disc_cubic_coeffs``.  The
    reducible mask is read at the confirmed cells alone.

    The float64 values are exact.  Every partial value of the Horner steps
    is an integer of absolute value at most 5 H^4 + 22 H^3 + 27 H^2 (the
    int64 bound of the module docstring), 3.13e15 < 2^53 at the cubic cap,
    so each step rounds to itself.  A true square k^2 then has the correctly
    rounded root k exactly, so no A3 cell is missed; a non-square whose root
    rounds to an integer fails the int64 square test.
    """
    H = height
    rows = _cubic_a3_rows(a, H)
    lo, hi = _cubic_c_window(a, H, rows)
    keep = lo <= hi
    rows, lo, hi = rows[keep], lo[keep], hi[keep]
    t1, t0 = (t.astype(np.float64)[:, None] for t in disc_cubic_terms(a, rows - H))
    step = max(1, _TILE_CELLS // (2 * H + 1))
    ks, cs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    with np.errstate(invalid="ignore"):  # sqrt(disc < 0) is NaN
        for k in range(0, rows.size, step):
            c0, c1 = int(lo[k : k + step].min()), int(hi[k : k + step].max())
            v = _cubic_disc_tile(t1[k : k + step], t0[k : k + step], np.arange(c0, c1 + 1, dtype=np.float64))
            np.sqrt(v, out=v)
            hit = np.flatnonzero(v == np.rint(v))
            i, j = np.divmod(hit, c1 - c0 + 1)
            ks.append(i + k)
            cs.append(j + c0)
    rows, c = rows[np.concatenate(ks)], np.concatenate(cs)
    ok = _square_mask(disc_cubic_coeffs(a, rows - H, c))
    rows, c = rows[ok], c[ok]
    ok = ~red[rows, c + H]
    return rows[ok], c[ok]


def _cubic_stripe_counts(a: int, height: int, red: np.ndarray):
    """(reducible, S3, A3) counts over the (b, c) grid for fixed a."""
    W = 2 * height + 1
    n_red = int(np.count_nonzero(red))
    n_a3 = _cubic_a3_cells(a, height, red)[0].size
    n_s3 = W * W - n_red - n_a3
    return n_red, n_s3, n_a3


# ---------------------------------------------------------------------------
# quartic kernels: an a-stratum is walked in blocks of consecutive b, each a
# (b, c, d) grid with block-flat cell index (i W + c + H) W + d + H for the
# i-th b of the block

_BLOCK_CELLS = 2**17
"""Cells (b, c, d) per block of a quartic a-stratum: 8 b-values at H = 60,
one from H = 128 on.  A block runs each layer as one vectorised pass over
its b-values, so numpy's per-call cost is paid per block, not per b."""

_WINDOW_TILE_CELLS = 2**13
"""Cells per tile of the quartic square test (up to one (b, c) row more
are allowed).  Per block, the square layer took 0.77 / 0.65 / 2.5 ms at
H = 60 / 150 / 400 with 2^12-cell tiles, 0.68 / 0.56 / 1.65 ms with 2^13
and 0.70 / 0.53 / 1.42 ms with 2^14, whose temporaries are twice as
large."""


def _quartic_red_mask(a: int, b0: int, b1: int, height: int, pairs) -> np.ndarray:
    """(b1 - b0, W, W) bool mask, True at the cells of the block b0 <= b < b1
    with an integer root.

    A root r != 0 divides d, so (r, s), s the cofactor's constant term, is
    in the ``_factor_pairs`` table; d = 0 has the root 0.  The quadratic
    splits are marked by ``_quartic_block_counts``.  No value here exceeds
    2H^3 + H^2 + H in absolute value (c), far inside int64.
    """
    H, W = height, 2 * height + 1
    red = np.zeros((b1 - b0, W, W), dtype=bool)
    red[:, :, H] = True  # d = 0: root 0

    # (X - r)(X^3 + pX^2 + qX + s): p = a + r and q = b + r p, then
    # c = s - r q and d = -r s
    rr, ss, dd = pairs
    if rr.size:
        b = np.arange(b0, b1, dtype=np.int64)[:, None]
        cc = ss - rr * (b + rr * (a + rr))
        bi, k = np.nonzero(np.abs(cc) <= H)
        red.reshape(-1)[(bi * W + cc[bi, k] + H) * W + dd[k] + H] = True
    return red


@functools.cache
def _rad2(height: int) -> np.ndarray:
    """Read-only int64 table over 0..n_max: rad2(n) = prod p^ceil(e/2) over
    the prime powers p^e of n, the smallest m >= 0 with n | m^2.

    n_max = H^2 + 4H + 4B + 4 bounds |K| = |a^2 - 4b + 4x| for every stripe
    and every resolvent root candidate |x| <= B, the stripes' largest
    Fujiwara bound.  Keyed by H alone, the table is built once per process.
    Write n = s^2 k with k squarefree, s^2 the largest square dividing n:
    each p^e of n has e = 2 v_p(s) + v_p(k) with v_p(k) <= 1, so
    ceil(e / 2) = v_p(s) + v_p(k) and rad2(n) = s k = n / s.  s is found by
    marking the multiples of d^2 with d for d = 2, 3, ... in turn, so the
    last mark, the largest d, wins.
    """
    H = height
    n_max = H * H + 4 * H + 4 * resolvent_root_bound(H) + 4
    s = np.ones(n_max + 1, dtype=np.int64)
    for d in range(2, math.isqrt(n_max) + 1):
        s[d * d :: d * d] = d
    rad = np.arange(n_max + 1, dtype=np.int64) // s
    rad.flags.writeable = False  # one cached copy is shared by every stripe
    return rad


def _isqrt(v: np.ndarray) -> np.ndarray:
    """floor(sqrt(v)) of int64 v in [0, 2^62): a float guess, corrected in ints.

    Let s = floor(sqrt(v)) < 2^31.  float64(v) = v (1 + e1) and its rounded
    square root g = sqrt(float64(v)) (1 + e2), |e1|, |e2| <= 2^-53, so g is
    within relative error 2^-52 of sqrt(v), |g - sqrt(v)| < 2^31 * 2^-52 =
    2^-21, and floor(g) <= s + 1.  One integer step down (r^2 > v) takes
    s + 1 to s; r <= 2^31, so r^2 stays below 2^63.

    No step up is needed: g >= s.  Take s >= 1 (v = 0 gives g = 0).
    Rounding to nearest is monotone and s^2 <= v, so float64(v) >=
    fl(s^2) >= s^2 (1 - e) with e = 2^-53, and since sqrt(1 - e) >=
    1 - e/2 - e^2/2, sqrt(float64(v)) >= s - s (2^-54 + 2^-107).  For s
    a power of 2, s^2 is a float, so float64(v) >= s^2 and g >= s.
    Otherwise 2^k < s < 2^(k+1) for some k <= 30, the float below s is
    s - 2^(k-52), and s (2^-54 + 2^-107) < 2^(k-53): the true root is
    nearer s than that float, so it rounds to s or above.
    """
    r = np.sqrt(v.astype(np.float64)).astype(np.int64)
    r -= r * r > v
    return r


def _quartic_resolvent_roots(a: int, b0: int, b1: int, height: int):
    """The resolvent root cells of the block b0 <= b < b1 as 1-D arrays: the
    block-flat cell index, the integer root x, and a split flag.

    r(x) = x^3 - b x^2 + (ac - 4d) x - (a^2 d - 4bd + c^2), and with
    K(x) = a^2 - 4b + 4x and t = xa - 2c the paper's symmetry identity reads
    (x^2 - 4d) K - t^2 = 4 r(x).  Candidate roots are complete via the
    Fujiwara bound, taken per b at the largest |ac - 4d| and
    |a^2 d - 4bd + c^2| over its (c, d) grid; the block's candidate ranges
    are concatenated and searched at once.

    For K != 0, x is a root exactly when K | t^2, that is rad2(|K|) | t, and
    x^2 - 4d = t^2 / K.  |c| <= H puts t in [xa - 2H, xa + 2H], and |d| <= H
    puts t^2 between K (x^2 - 4H) and K (x^2 + 4H), so each x steps through
    at most two t-intervals (t >= 0 and t < 0) by rad2(|K|).  Conversely
    every t there gives |c| <= H and |d| <= H, so a candidate is a root cell
    exactly when t = xa (mod 2) and 4 | x^2 - t^2 / K.  t fixes c, so no
    (cell, x) pair repeats.  For K = 0 the identity forces t = 0: every d of
    the row c = ax / 2 has the root x.

    The flag marks f = (X^2 + pX + q)(X^2 + rX + s) with x = q + s.  Such a
    split has p + r = a, pr = b - x and qs = d, so K = (p - r)^2 and
    x^2 - 4d = (q - s)^2.  Conversely, if K = n^2 and x^2 - 4d = m^2, then
    n = a and m = x (mod 2), and p, r = (a +- n) / 2 and q, s = (x +- m) / 2
    give back a, b and d in either pairing of the signs, with
    ps + qr = (ax -+ nm) / 2.  The identity gives nm = |t|, so one pairing
    gives c = (ax - t) / 2.  For K != 0, x^2 - 4d = t^2 / K is a square once
    K is, so the flag is "K a positive square"; for K = 0 it is "x^2 - 4d a
    square or 0", far inside int64 as |x| <= H + H^2 / 4 there.
    """
    H, W = height, 2 * height + 1

    qmax = abs(a) * H + 4 * H
    xmax = np.array(
        [fujiwara_bound(b, qmax, a * a * H + 4 * abs(b) * H + H * H) for b in range(b0, b1)],
        dtype=np.int64,
    )
    n = 2 * xmax + 1
    bi = np.repeat(np.arange(b1 - b0, dtype=np.int64), n)  # block row of each x
    x = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(np.cumsum(n) - n + xmax, n)
    K = 4 * x + (a * a - 4 * (bi + b0))
    nz = K != 0
    bi, x, K = bi[nz], x[nz], K[nz]
    ax, step = a * x, _rad2(H)[np.abs(K)]
    # |t| in [lo, hi] from t^2 = K (x^2 - 4d) over |d| <= H; hi < lo if none
    e1, e2 = K * (x * x - 4 * H), K * (x * x + 4 * H)
    top = np.maximum(e1, e2)
    hi = np.where(top < 0, -1, _isqrt(np.maximum(top, 0)))
    bot = np.maximum(np.minimum(e1, e2), 0)
    lo = _isqrt(bot)
    lo += lo * lo < bot
    # t >= 0 and t < 0, each cut to the c-window [xa - 2H, xa + 2H]
    tlo = np.concatenate([np.maximum(lo, ax - 2 * H), np.maximum(-hi, ax - 2 * H)])
    thi = np.concatenate([np.minimum(hi, ax + 2 * H), np.minimum(-np.maximum(lo, 1), ax + 2 * H)])
    bi, x, K, step = np.tile(bi, 2), np.tile(x, 2), np.tile(K, 2), np.tile(step, 2)
    # the n multiples k * step in [tlo, thi], k from ceil(tlo / step), laid
    # out interval after interval
    k0 = -(-tlo // step)
    n = np.maximum(thi // step - k0 + 1, 0)
    first = np.cumsum(n) - n
    k = np.repeat(k0 - first, n) + np.arange(int(n.sum()))
    bi, x, K = np.repeat(bi, n), np.repeat(x, n), np.repeat(K, n)
    t = k * np.repeat(step, n)
    c2, d4 = a * x - t, x * x - t * t // K  # 2c and 4d
    ok = ((c2 & 1) | (d4 & 3)) == 0
    cells = [(bi[ok] * W + c2[ok] // 2 + H) * W + (d4[ok] // 4 + H)]
    roots, split = [x[ok]], [_square_mask(K[ok])]

    if a % 2 == 0:  # K(x0) = 0 at an integer x0, whose cells are the row c0
        x0 = np.arange(b0, b1, dtype=np.int64) - (a * a) // 4
        c0 = a // 2 * x0
        (rows,) = np.nonzero(np.abs(c0) <= H)
        x0 = x0[rows, None]
        d = np.arange(-H, H + 1, dtype=np.int64)
        m = x0 * x0 - 4 * d
        cells.append(((rows * W + c0[rows] + H) * W)[:, None] + (d + H))
        roots.append(np.broadcast_to(x0, m.shape))
        split.append(_square_mask(m) | (m == 0))
    return tuple(np.concatenate([v.reshape(-1) for v in parts]) for parts in (cells, roots, split))


def _quartic_d_windows(a: int, b0: int, b1: int, height: int):
    """(lo, hi): per (b, c) row of the block, row index (b - b0) W + c + H, a
    d-interval holding every cell with disc > 0.  hi < lo marks an empty one.

    27 disc = 4I^3 - J^2, where I and J are linear in d and I grows with it
    (slope 12; ``invariants_quartic_coeffs``).  disc > 0 needs I(d) > 0, so
    d > -I(0) / 12, and J(d)^2 < 4I(d)^3 <= 4I(H)^3, so
    |J(d)| <= isqrt(4I(H)^3) =: S, a d-interval from the ends of
    J(0) + s d in [-S, S], with s = J(1) - J(0) = 72b - 27a^2 (every d, or
    none, when s = 0).  The ends are exact integers; the window is a
    superset, and the square test rejects its cells with disc <= 0.

    int64: I(H) <= 4H^2 + 12H, so 4I(H)^3 < 1.1e18 < 2^62 at the cap
    H = 400 and S < 1.1e9; |J(0)| <= 11H^3 + 27H^2 and |s| <= 27H^2 + 72H,
    so every end stays far inside int64.
    """
    H = height
    b = np.arange(b0, b1, dtype=np.int64)[:, None]
    c = np.arange(-H, H + 1, dtype=np.int64)[None, :]
    i0, j0 = (v.reshape(-1) for v in invariants_quartic_coeffs(a, b, c, 0))
    i1, j1 = (v.reshape(-1) for v in invariants_quartic_coeffs(a, b, c, 1))
    g, s = i1 - i0, j1 - j0
    top = np.maximum(i0 + H * g, 0)  # I(H), or 0 when I <= 0 on the whole row
    big = _isqrt(4 * top * top * top)
    # |j0 + s d| <= big, read with u = |s| > 0 as u d in [m - big, m + big]
    u, m = np.abs(s), np.where(s < 0, j0, -j0)
    us = np.maximum(u, 1)
    lo = np.where(u > 0, -((big - m) // us), -H)
    hi = np.where(u > 0, (m + big) // us, np.where(np.abs(j0) <= big, H, -H - 1))
    return np.maximum(np.maximum(lo, -i0 // g + 1), -H), np.minimum(hi, H)


def _quartic_square_cells(a: int, b0: int, b1: int, height: int) -> np.ndarray:
    """Ascending block-flat indices of the cells of the block b0 <= b < b1
    whose discriminant is a positive square.

    Only the rows' ``_quartic_d_windows`` are evaluated.  Their cells are
    laid end to end and cut into tiles of whole rows, a new tile at each
    row starting past a multiple of _WINDOW_TILE_CELLS, so a tile holds
    fewer than _WINDOW_TILE_CELLS + W cells.  The Horner terms of
    ``disc_quartic_terms`` are taken once per row and repeated along it;
    the Horner steps are those of ``disc_quartic_coeffs``, run in place on
    one array per tile.
    """
    H, W = height, 2 * height + 1
    lo, hi = _quartic_d_windows(a, b0, b1, H)
    rows = np.flatnonzero(lo <= hi)
    lo, n = lo[rows], (hi - lo + 1)[rows]
    b, c = np.divmod(rows, W)
    t2, t1, t0 = disc_quartic_terms(a, b + b0, c - H)
    end = np.cumsum(n)
    off = lo + n - end  # a cell's d is off[row] + its position in the layout
    cuts = np.searchsorted(end - n, np.arange(0, int(n.sum()), _WINDOW_TILE_CELLS)).tolist()
    hits = [np.zeros(0, dtype=np.int64)]
    for r0, r1 in zip(cuts, cuts[1:] + [rows.size]):
        if r0 == r1:
            continue
        p0 = int(end[r0] - n[r0])
        run = n[r0:r1]
        d = np.repeat(off[r0:r1], run)
        d += np.arange(p0, int(end[r1 - 1]), dtype=np.int64)
        v = d * 256
        v += np.repeat(t2[r0:r1], run)
        v *= d
        v += np.repeat(t1[r0:r1], run)
        v *= d
        v += np.repeat(t0[r0:r1], run)
        k = np.flatnonzero(_square_mask(v))
        if k.size:
            row = rows[r0 + np.searchsorted(end[r0:r1], p0 + k, side="right")]
            hits.append(row * W + d[k] + H)
    return np.concatenate(hits)


def _quartic_block_counts(a: int, b0: int, b1: int, height: int, red: np.ndarray):
    """Counts (reducible, S4, A4, D4, V4, C4) over the block b0 <= b < b1.

    ``red`` is the block's (b1 - b0, W, W) reducible mask; the split root
    cells are marked into it in place (a no-op for the ``table`` mask).  An
    irreducible quartic's resolvent is separable with 0, 1 or 3 integer
    roots.  The discriminant is evaluated at the irreducible root cells:
    V4 are those with a square one, D4/C4 the others, listed once each with
    their one root.  A4 are the other irreducible cells of
    ``_quartic_square_cells``, and S4 the rest.
    """
    H, W = height, 2 * height + 1
    cells, roots, split = _quartic_resolvent_roots(a, b0, b1, H)
    red = red.reshape(-1)
    red[cells[split]] = True
    n_red = int(np.count_nonzero(red))

    sq = _quartic_square_cells(a, b0, b1, H)
    n_sq = int(np.count_nonzero(~red[sq]))

    # the irreducible root cells: V4 where the disc is a square, else D4/C4;
    # the C4 products outgrow int64, so test in Python ints
    keep = ~red[cells]
    cells, roots = cells[keep], roots[keep]
    bc, d = np.divmod(cells, W)
    b, c = np.divmod(bc, W)
    b, c, d = b + b0, c - H, d - H
    disc = disc_quartic_coeffs(a, b, c, d)
    square = _square_mask(disc)
    n_v4 = len(set(cells[square].tolist()))
    keep = ~square
    args = zip(b[keep].tolist(), d[keep].tolist(), roots[keep].tolist(), disc[keep].tolist())
    n_c4 = sum(is_c4(a, *arg) for arg in args)
    n_d4 = int(np.count_nonzero(keep)) - n_c4
    n_s4 = red.size - n_red - n_sq - n_d4 - n_c4
    return n_red, n_s4, n_sq - n_v4, n_d4, n_v4, n_c4


# ---------------------------------------------------------------------------
# irreducibility tables (the reference enumeration's product marking)

def _clear_products(flat: np.ndarray, height: int, *coeffs) -> None:
    """Set ``flat``, a C-order table over the box [-H, H]^n, to False at every
    tuple of ``coeffs`` (X^(n-1) first; int64 arrays, broadcast together, or
    ints) that lies in the box."""
    H, W = height, 2 * height + 1
    ok, idx = True, 0
    for c in coeffs:
        ok = ok & (np.abs(c) <= H)
        idx = idx * W + (c + H)
    flat[idx[ok]] = False


def build_irreducible_table(degree: int, height: int) -> np.ndarray:
    """Bit table over the coefficient box: True iff the tuple is irreducible.

    Built by clearing every product of lower-degree monic factors that lies
    in the box, one loop body per factor shape.  A reducible tuple has a
    factor X + t or, as a quartic, a split (X^2 + pX + q)(X^2 + rX + s),
    ordered so that p <= r.  The root -t divides the constant term, or is 0
    when that is 0, so |t| <= H, and the cofactor's constant term s has
    |ts| <= H.  A split without a root has qs = d != 0, so 0 < |q| <= H and
    |qs| <= H.  Also 2p <= p + r = a <= H, and p >= -2H: p <= -2H - 1 would
    give r = a - p >= H + 1 and |pr| >= (2H + 1)(H + 1) > 3H >= |b - q - s|.
    Each loop runs over these t, or p and q, with the cofactor's constant
    term s over the columns and the product's a over the rows (the quartic
    X + t loop runs over a, and its rows hold b); the factors' other
    coefficients follow.  Every tuple cleared is a product.  A table over
    DEFAULT_TABLE_CAP bytes is refused.
    """
    if degree not in (3, 4):
        raise CensusError("degree must be 3 or 4")
    H, W = height, 2 * height + 1
    if W**degree > DEFAULT_TABLE_CAP:
        raise CensusError(
            f"table for degree {degree}, height {height} needs {W**degree} bytes, "
            f"over the cap {DEFAULT_TABLE_CAP}"
        )
    irred = np.ones((W,) * degree, dtype=bool)
    flat = irred.reshape(-1)
    box = np.arange(-H, H + 1, dtype=np.int64)
    col = box[:, None]

    def consts(k: int) -> np.ndarray:
        """The row of s in the box with |k s| <= H (every s for k = 0)."""
        m = H // abs(k) if k else H
        return box[None, H - m : H + m + 1]

    if degree == 3:
        # (X + t)(X^2 + pX + q), p = a - t
        for t in range(-H, H + 1):
            q = consts(t)
            _clear_products(flat, H, col, t * (col - t) + q, t * q)
        return irred
    # (X + t)(X^3 + pX^2 + qX + s), p = a - t and q = b - tp
    for t in range(-H, H + 1):
        s = consts(t)
        for a in range(-H, H + 1):
            _clear_products(flat, H, a, col, t * (col - t * (a - t)) + s, t * s)
    # (X^2 + pX + q)(X^2 + rX + s), r = a - p
    for p in range(-2 * H, H // 2 + 1):
        r = col - p
        for q in (*range(-H, 0), *range(1, H + 1)):
            s = consts(q)
            _clear_products(flat, H, col, q + s + p * r, p * s + q * r, q * s)
    return irred


# ---------------------------------------------------------------------------
# stripe job (top level so ProcessPoolExecutor can pickle it)

def _stripe_job(degree: int, height: int, a: int, table: np.ndarray | None = None):
    """(a, counts) for the full a-stratum, doubled when a > 0.

    A cubic stratum is one (b, c) grid; a quartic one is walked in blocks of
    up to _BLOCK_CELLS // W^2 consecutive b, each a (b, c, d) grid.  The
    reducible mask comes from the ``table`` strategy's irreducibility table
    when one is given, else from the factor pairs (``direct``).
    """
    H, W = height, 2 * height + 1
    pairs, irred = (_factor_pairs(H), None) if table is None else (None, table[a + H])
    if degree == 3:
        red = _cubic_red_mask(a, H, pairs) if irred is None else ~irred
        classes, acc = CUBIC_CLASSES, _cubic_stripe_counts(a, H, red)
    else:
        classes, acc = QUARTIC_CLASSES, [0] * len(QUARTIC_CLASSES)
        nb = max(1, _BLOCK_CELLS // (W * W))
        for b0 in range(-H, H + 1, nb):
            b1 = min(b0 + nb, H + 1)
            red = _quartic_red_mask(a, b0, b1, H, pairs) if irred is None else ~irred[b0 + H : b1 + H]
            acc = [x + y for x, y in zip(acc, _quartic_block_counts(a, b0, b1, H, red))]
    factor = 1 if a == 0 else 2
    return a, {k: v * factor for k, v in zip(classes, acc)}


_RUN_CELLS = 2**22
"""Cells per pool task, unless one stratum alone holds more.  A task is a
chunk of consecutive strata, so the pool's per-task cost (pickling, a
future, a wakeup of the parent) is paid once per chunk: chunks of 4 strata
at cubic H = 500 and of 2 at quartic H = 60, single strata from cubic
H = 1024 and quartic H = 80 on.  A chunk never holds more than
len(todo) // (4 workers) strata, so each worker still takes about four
tasks or more and the last ones end close together."""


def _run_length(degree: int, height: int, n_todo: int, workers: int) -> int:
    """Strata per pool task: max(1, min(_RUN_CELLS // W^(degree - 1),
    n_todo // (4 workers)))."""
    per_stratum = (2 * height + 1) ** (degree - 1)
    return max(1, min(_RUN_CELLS // per_stratum, n_todo // (4 * workers)))


def _stripe_results(req: CensusRequest, todo: list[int], stack: contextlib.ExitStack):
    """Iterator of (a, counts) over the stripes in ``todo``, in that order.

    One job, ``_stripe_job`` with the request's degree, height and table, is
    mapped over ``todo``: by the builtin ``map`` in this process, or by a
    process pool's ``map`` (entered on ``stack``) in chunks of
    ``_run_length`` strata.  ``table`` runs in this process, since its table
    is not sent to workers, and so does ``direct`` when one worker or one
    stripe makes a pool pointless.  With no stripe to run, no table is built.
    """
    degree, H = req.degree, req.height
    table = build_irreducible_table(degree, H) if req.strategy == "table" and todo else None
    job = functools.partial(_stripe_job, degree, H, table=table)
    workers = req.workers or os.cpu_count() or 1
    if table is not None or workers == 1 or len(todo) <= 1:
        return map(job, todo)
    pool = ProcessPoolExecutor(max_workers=workers)
    # on an error or interrupt, drop the chunks no worker has started
    stack.callback(pool.shutdown, wait=True, cancel_futures=True)
    return pool.map(job, todo, chunksize=_run_length(degree, H, len(todo), workers))


# ---------------------------------------------------------------------------
# journal: a header line binding it to the request and the kernel version,
# then one line per stripe

def _journal_load(path: str, req: CensusRequest) -> dict[int, dict[str, int]]:
    """The stripe records of the journal at ``path`` (empty if there is none).

    A final line without its newline is a write torn by a crash: it is cut
    off the file, so its stripe is recomputed and appended.  Any other
    malformed line raises CensusError with its line number, and so does a
    first line, blank or not, that is not the header of this request and
    KERNEL_VERSION, a record with a negative count or counts that do not sum
    to its share of the box, and a second record of a stripe (naming both
    lines).
    """
    done: dict[int, dict[str, int]] = {}
    seen: dict[int, int] = {}  # stripe -> line number
    if not os.path.exists(path):
        return done
    with open(path, "rb+") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            fh.truncate(end)
    checksum, classes = req.checksum(), list(req.classes())
    cells = (2 * req.height + 1) ** (req.degree - 1)  # per a-stratum
    for lineno, raw in enumerate(data[:end].splitlines(), 1):
        if lineno > 1 and not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except ValueError:  # not JSON, or not UTF-8
            rec = None
        if not isinstance(rec, dict):
            rec = {}
        if lineno == 1:
            if "checksum" not in rec:
                text = raw[:80].decode(errors="replace")
                raise CensusError(f"journal {path} line 1: no header {text!r}")
            if rec["checksum"] != checksum:
                raise CensusError(
                    f"journal {path} belongs to a different request "
                    f"({rec['checksum']} != {checksum})"
                )
            if rec.get("kernel") != KERNEL_VERSION:
                raise CensusError(
                    f"journal {path} was written by kernel {rec.get('kernel', 'none')}, "
                    f"this is kernel {KERNEL_VERSION}; start a new journal"
                )
            continue
        a, part = rec.get("stripe"), rec.get("counts")
        if not (
            type(a) is int
            and 0 <= a <= req.height
            and isinstance(part, dict)
            and list(part) == classes
            and all(type(v) is int for v in part.values())
        ):
            text = raw[:80].decode(errors="replace")
            raise CensusError(f"journal {path} line {lineno}: malformed record {text!r}")
        share = cells if a == 0 else 2 * cells
        if min(part.values()) < 0 or sum(part.values()) != share:
            raise CensusError(
                f"journal {path} line {lineno}: stripe {a} counts {part} "
                f"must be >= 0 and sum to its {share} cells"
            )
        if a in seen:
            raise CensusError(f"journal {path} lines {seen[a]} and {lineno}: both record stripe {a}")
        seen[a] = lineno
        done[a] = part
    return done


_FSYNC_INTERVAL_S = 1.0  # journal fsyncs during a run are at least this far apart


def _journal_append(fh, record: dict) -> None:
    fh.write(json.dumps(record) + "\n")
    fh.flush()


def run_census(req: CensusRequest, journal_path: str | None = None, progress=None) -> CensusReport:
    """Classify every tuple in the box exactly once and tally per class.

    With ``journal_path``, each finished stripe is appended to that journal,
    and stripes it already holds are taken from it instead of recomputed.
    Every record is flushed; the journal is fsynced at most once per
    _FSYNC_INTERVAL_S, and once more before it closes.
    ``progress(done, total)`` is called after each stripe.
    """
    req.validate()
    t_start = time.perf_counter()
    H = req.height
    counts = {k: 0 for k in req.classes()}
    done = _journal_load(journal_path, req) if journal_path else {}
    for part in done.values():
        for k, v in part.items():
            counts[k] += v
    todo = [a for a in range(H + 1) if a not in done]
    completed = len(done)

    with contextlib.ExitStack() as stack:
        results = _stripe_results(req, todo, stack)
        journal = None
        if journal_path:
            journal = stack.enter_context(open(journal_path, "a", encoding="utf-8"))
            stack.callback(os.fsync, journal.fileno())  # runs before the close
            if journal.tell() == 0:
                _journal_append(journal, {"checksum": req.checksum(), "kernel": KERNEL_VERSION})
            synced = time.monotonic()
        for a, part in results:
            for k, v in part.items():
                counts[k] += v
            completed += 1
            if journal:
                _journal_append(journal, {"stripe": a, "counts": part})
                if time.monotonic() - synced >= _FSYNC_INTERVAL_S:
                    os.fsync(journal.fileno())
                    synced = time.monotonic()
            if progress:
                progress(completed, H + 1)

    total = sum(counts.values())
    expected = (2 * H + 1) ** req.degree
    if total != expected:
        raise CensusError(f"counts sum to {total}, box holds {expected}")
    wall = time.perf_counter() - t_start
    return CensusReport(request=req, counts=counts, wall_time_s=wall)


def list_a3_cubics(height: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) with |a|,|b|,|c| <= height classifying A3, lexicographic."""
    CensusRequest(3, height).validate()
    H = height
    pairs = _factor_pairs(H)
    out: list[tuple[int, int, int]] = []
    for a in range(-H, H + 1):
        rows, cs = _cubic_a3_cells(a, H, _cubic_red_mask(a, H, pairs))
        out += [(a, b, c) for b, c in zip((rows - H).tolist(), cs.tolist())]
    return out


# ---------------------------------------------------------------------------
# serialization

def report_to_json(report: CensusReport) -> str:
    req = report.request
    counts = {k: report.counts[k] for k in req.classes()}
    payload = {
        "degree": req.degree,
        "height": req.height,
        "strategy": req.strategy,
        "counts": counts,
        "total": sum(counts.values()),
        "wall_time_s": report.wall_time_s,
        "checksum": req.checksum(),
    }
    return json.dumps(payload)


def report_from_json(text: str) -> CensusReport:
    """The report of ``report_to_json``.  Its total and checksum are derived
    fields, so a payload whose ``total`` is not the sum of its counts, or
    whose ``checksum`` is not its request's, raises CensusError."""
    payload = json.loads(text)
    req = CensusRequest(degree=payload["degree"], height=payload["height"], strategy=payload["strategy"])
    counts = dict(payload["counts"])
    checksum, total = req.checksum(), sum(counts.values())
    if payload["checksum"] != checksum:
        raise CensusError(f"report checksum {payload['checksum']} is not its request's {checksum}")
    if payload["total"] != total:
        raise CensusError(f"report total {payload['total']} is not the sum {total} of its counts")
    return CensusReport(request=req, counts=counts, wall_time_s=payload["wall_time_s"])


def report_to_csv(report: CensusReport) -> str:
    lines = ["class,count"]
    for k in report.request.classes():
        lines.append(f"{k},{report.counts[k]}")
    return "\n".join(lines) + "\n"
