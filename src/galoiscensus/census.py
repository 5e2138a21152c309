"""Exhaustive censuses of monic integer cubics/quartics by Galois class.

The coefficient box [-H, H]^deg is enumerated in stripes, one per a-stratum
(fixed a), and every tuple in a stripe is classified with vectorized int64
kernels.  A cubic stripe is one (b, c) grid.  A quartic stripe is walked in
blocks of consecutive b, each a (b, c, d) grid of about 2^18 cells (17 b at
H = 60, 2 at H = 150, one from H = 181 on), and each layer runs as one
vectorised pass over all of a block's b-values.  The X -> -X symmetry
(a,b,c,d) -> (-a,b,-c,d) halves the work exactly as in the per-sign
doubling of the reference enumeration: the a = 0 stratum is counted once,
a >= 1 strata twice.

Two interchangeable strategies:

* ``direct`` (default): reducibility is re-derived inside each stripe by
  marking products of lower-degree factors restricted to the stripe (for
  quartics, the linear factors; the stripe adds the quadratic splits read
  off its resolvent roots); memory is O(H^2) regardless of height.
* ``table``: each stripe job first builds its stratum's irreducibility bit
  slab by clearing every product of lower-degree factors in it, with no
  factor pair table; memory is W^(degree - 1) bytes per worker.  It exists
  as a cross-check of the direct strategy.

Both strategies cut the strata into runs of consecutive strata, of about
2^22 cells in all, and send each run as one unit through the package's one
unit engine (``families._run_units``), which runs them in this process or
on a process pool; a box that fits in one run takes no pool.  One result
loop merges counts, appends each stripe to the optional journal and
reports progress.  Results come back in stratum order on every path, so a
journal's records do too.

The cubic A3 cells are built, not searched.  By the identity
27 disc = 4I^3 - J^2, a square disc = y^2 > 0 on the row (a, b) makes
(J + 3y sqrt(-3)) / 2 an element of Z[zeta] of norm I^3, a unit times a
product of three elements of norm I; each stratum multiplies those out
(2.8M products at H = 500) and reads the reducible mask at the matches.

The quartic resolvent roots are enumerated from the paper's symmetry
identity: for each candidate x, only the multiples of rad2(|K(x)|) in two
short t = xa - 2c intervals are tried, on average about 130 per (a, b) at
H = 60 and 210 at H = 400.  These sparse root cells also decide every
quadratic split, so the reducible mask marks only linear factors.

The quartic square test uses the same identity 27 disc = 4I^3 - J^2, now
with I = 12d + b^2 - 3ac and J linear in d.  A square discriminant is
positive, so I(d) > 0 and |J(d)| <= 2 I(H)^(3/2), since I grows with d:
each (b, c) row holds one d-window (``_j_window``), with every cell
of disc > 0.  On seeded stripes the windows hold 32% / 27% / 18% of the
cells at H = 60 / 150 / 400, against 22% / 21% / 17% with disc > 0.  A
square discriminant also makes I(d) Loeschian, and
I(d) = I0 + 12d keeps each row in one class mod 12, so the Loeschian d of
a row's window are one contiguous slice of a per-process table of the
Loeschian numbers up to 4H^2 + 12H, sorted by class.  Over every stratum at H = 60 the
windows hold 31% of the cells and the slices 13%.  Only the slices are
evaluated, laid end to end in tiles of about 2^13 cells, and every square
is confirmed by integer squaring.  V4 and D4/C4 are read off the sparse
root cells, where the discriminant is evaluated once per block.

D4 and C4 are split in int64 too.  With K = a^2 - 4b + 4x at the root x,
the symmetry identity (x^2 - 4d) K = t^2 turns the classifier's two square
tests into one: C4 exactly when w = 0 or w disc is a positive square, for
w = K, or w = x^2 - 4d where K = 0.  w disc is a positive square iff w and
disc share a sign and, with g = gcd(|w|, |disc|), the coprime |w| / g and
|disc| / g are both squares, so the product is never formed.

The discriminants, the invariants and the resolvent root bound are the
classifier's functions; the stripes call them on int64 grids or Python ints.
The C4 test is ``classify.is_c4`` in that int64 form, with ``is_c4`` as its
oracle in the tests.

int64 safety: the largest intermediate is the quartic discriminant.  Each
partial result of its Horner evaluation ((256 d + t2) d + t1) d + t0 is a
sub-sum of its monomials, possibly divided by powers of c or d, so it has
degree at most 6 and absolute coefficients summing to at most 1069: it is
bounded by 1069 * H^6 < 2^62 for H <= 400, and the reducible mask by
2H^3 + H^2 + H.  The resolvent candidates have |x| <= 804 at the cap, so
|t| <= 804 * 400 + 800 and t^2 < 1.1e11; |K| <= 164816, so the |t|-range
ends |K| (x^2 + 4H) stay below 1.1e11 too.  The d-windows have
|J(0)| <= 11H^3 + 27H^2 with slope |J(1) - J(0)| <= 27H^2 + 72H.  The
D4/C4 split forms w alone, |w| <= (H + H^2 / 4)^2 + 4H < 1.7e9, and the
quotients of |disc| < 2^62, inside ``_square_mask``'s domain.  The cubic
A3 route has I <= H^2 + 3H: its product components stay below 1.5e11 and
every partial result of ``_mul`` below 1e12 (``_cubic_norm_cubes``),
|J| <= 2 I^1.5 < 2.6e11, |J - J0| < 5.1e11, and the cell keys below W^2.
float64 safety: a d-window's r = ceil(2 i sqrt(i)) has i <= 4H^2 + 12H,
below 2^25, so it lies within [isqrt(4 i^3), isqrt(4 i^3) + 2]
(``_j_window``).  The resolvent |t|-range ends and the cubic elements'
|u|-range ends, floor and ceil of sqrt(v) for integers 0 <= v < 1.1e11, are
exact: float64 holds v, a square's root is exact, and any other root is at
least 1 / (2 sqrt(v) + 1), over half an ulp, from every integer.  At the
cap the cubic stripe's reducible mask, its only full (b, c) grid, takes
100 MB.  Heights above the caps are rejected rather than risk silent
wraparound or swapping.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .classify import (
    disc_quartic_coeffs,
    disc_quartic_terms,
    fujiwara_bound,
    invariants_cubic_coeffs,
    invariants_quartic_coeffs,
    resolvent_root_bound,
)
from .eisenstein import _mul
from .families import _expand, _run_units

__all__ = [
    "CensusError",
    "CensusRequest",
    "CensusReport",
    "run_census",
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
        if type(self.degree) is not int or self.degree not in (3, 4):
            raise CensusError(f"degree must be 3 or 4, got {self.degree!r}")
        if type(self.height) is not int or self.height < 0:
            raise CensusError(f"height must be an int >= 0, got {self.height!r}")
        if self.height > MAX_HEIGHT[self.degree]:
            raise CensusError(
                f"height {self.height} exceeds the int64-safe cap "
                f"{MAX_HEIGHT[self.degree]} for degree {self.degree}"
            )
        if self.strategy not in ("direct", "table"):
            raise CensusError(f"unknown strategy {self.strategy!r}")
        if type(self.workers) is not int or self.workers < 0:
            raise CensusError(f"workers must be >= 0 and an int, got {self.workers!r}")


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


@functools.cache
def _multisets(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, p, k): read-only int16 index columns.  (i, j) lists the pairs
    i <= j < r by j, so pair p = j (j + 1) / 2 + i; (p, k) lists the
    multisets i <= j <= k < r by k.  A group of s <= r elements takes the
    first C(s + 1, 2) pairs and C(s + 2, 3) triples.  Built on first use;
    the largest, for groups of up to 64 (the cap needs 48), is 190 KB."""
    t = np.arange(r)
    j, i = np.nonzero(t <= t[:, None])
    k, p = np.nonzero(j <= t[:, None])
    cols = tuple(v.astype(np.int16) for v in (i, j, p, k))
    for v in cols:
        v.flags.writeable = False  # one cached copy is shared by every stripe
    return cols


def _cubic_norm_cubes(a: int, height: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, m, n): elements m + n zeta of norm I^3 on the b-row indices
    b + H with I = a^2 - 3b > 0: every beta of norm I^3 with 3 | n and
    2m - n = J0 (mod 3), J0 = 2a^3 - 9ab, or for 3 | a beta or -beta.

    By unique factorization, beta is a unit times a product of three
    elements of norm I (a split p^e of I gives pi^k conj(pi)^(3e - k),
    k = k1 + k2 + k3 with k_i <= e; the other primes' parts are cubes).  So
    per row the multisets of three elements, one per associate class of
    norm I, are multiplied out by ``eisenstein._mul`` on int64 columns, the
    pairs first, indexed by ``_multisets``.  The elements are listed in
    half-coordinates (u, v) = (2m - n, n), u^2 + 3v^2 = 4N: per v, u steps
    by 6 between the float64 ceil and floor of sqrt(4 I - 3v^2) at the
    rows' extreme I, exact as for the resolvent t-ranges.
    - 3 does not divide a, nor I: of the associates of an element of norm I
      or I^3 only +-beta have 3 | n, and one, the primary one, m = a
      (mod 3).  The elements are the primary ones (3 | v, u = -a mod 3), and
      so are their products and each beta with 2m - n = -m = J0 (mod 3).
    - 3 | a, and I: the elements are the sector u > v >= 0.  The ramified
      prime's cube, an associate of 3, divides each product, so all its
      associates have 3 | n; its rotations by 1, zeta and zeta^2 are listed.
    int64 at the cap, I < 2.6e7: components of norm N stay within
    2 sqrt(N / 3), below 5.8e3, 3e7 and 1.5e11 for elements, pairs and
    products; |u| < 1.1e4, and every partial result of ``_mul`` < 1e12.
    """
    H, W = height, 2 * height + 1
    b_top = min(H, (a * a - 1) // 3)  # the rows with I > 0 have b <= b_top
    i_lo, i_hi = (invariants_cubic_coeffs(a, b, 0)[0] for b in (b_top, -H))
    t = math.isqrt(4 * i_hi // 27)  # 27 t^2 <= 4N for v = 3t; v < u gives v^2 < N
    v = 3 * np.arange(-t, t + 1, dtype=np.int64) if a % 3 else np.arange(math.isqrt(i_hi) + 1, dtype=np.int64)
    w = 3 * v * v
    s_hi = np.floor(np.sqrt(4 * i_hi - w)).astype(np.int64)
    s_lo = np.ceil(np.sqrt(np.maximum(4 * i_lo - w, 0))).astype(np.int64)
    if a % 3:  # u of either sign
        lo, hi, v = np.concatenate([s_lo, -s_hi]), np.concatenate([s_hi, -s_lo]), np.concatenate([v, v])
    else:
        lo, hi = np.maximum(s_lo, v + 1), s_hi
    lo += (3 * (v & 1) + 4 * (-a % 3) - lo) % 6  # u = v (mod 2) and u = -a (mod 3)
    g, k = _expand(np.maximum((hi - lo) // 6 + 1, 0))
    v, u = v[g], lo[g] + 6 * k
    row = (a * a - (u * u + 3 * v * v) // 4) // 3 + H
    # stable sorts here and for the cell keys: numpy's default sort touches
    # about 0.4 MB more code, which every worker's peak RSS would keep
    order = np.argsort(row, kind="stable")
    m, n, row = (u + v)[order] // 2, v[order], row[order]

    r = np.bincount(row, minlength=W)
    start = np.cumsum(r) - r
    pi, pj, tp, tk = _multisets(1 << (int(r.max()) - 1).bit_length())
    n_pairs = r * (r + 1) // 2
    g, k = _expand(n_pairs)
    e, f = start[g] + pi[k], start[g] + pj[k]
    pm, pn = _mul((m[e], n[e]), (m[f], n[f]))
    row, k = _expand(n_pairs * (r + 2) // 3)
    e, f = (np.cumsum(n_pairs) - n_pairs)[row] + tp[k], start[row] + tk[k]
    m, n = _mul((pm[e], pn[e]), (m[f], n[f]))
    if a % 3 == 0:
        m, n, row = np.concatenate([m, -n, n - m]), np.concatenate([n, m - n, -m]), np.concatenate([row] * 3)
    return row, m, n


def _cubic_a3_cells(a: int, height: int, red: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, c): the A3 cells (square discriminant, not reducible) of the
    (b, c) grid, as b-row indices b + H and c values in lexicographic order.

    With I = a^2 - 3b and J = J0 + 27c, 27 disc = 4I^3 - J^2.  A cell with
    disc = y^2 > 0 gives beta = m + n zeta of norm I^3 with 2m - n = J and
    n = 3y (J = y mod 2).  Conversely a beta of norm I^3 with
    2m - n = J0 + 27c, |c| <= H, has 27 disc = 3n^2, so disc = (n / 3)^2;
    n = 0 is a repeated root, which the reducible mask holds.  So the cells
    are the c = (J - J0) / 27 in range of the ``_cubic_norm_cubes``, with
    J = 2m - n, and J = -(2m - n) too for 3 | a (27 | J0), deduplicated by
    sorting their keys row W + c + H.  |J - J0| < 5.1e11 at the cap.
    """
    H, W = height, 2 * height + 1
    row, m, n = _cubic_norm_cubes(a, H)
    j0 = invariants_cubic_coeffs(a, np.arange(-H, H + 1, dtype=np.int64), 0)[1][row]
    d = 2 * m - n - j0
    c = d // 27
    ok = c * 27 == d
    row, c = row[ok], c[ok]
    if a % 3 == 0:  # -J - J0 = -(J - J0) - 2 J0
        row, c = np.concatenate([row, row]), np.concatenate([c, -c - 2 * (j0[ok] // 27)])
    ok = np.abs(c) <= H
    key = row[ok] * W + c[ok] + H
    key.sort(kind="stable")
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    rows, c = np.divmod(key[first], W)
    ok = ~red[rows, c]
    return rows[ok], c[ok] - H


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

_BLOCK_CELLS = 2**18
"""Cells (b, c, d) per block of a quartic a-stratum: 17 b-values at H = 60,
2 at H = 150, one from H = 181 on.  A block runs each layer as one
vectorised pass over its b-values, so numpy's per-call cost is paid per
block, not per b; with the square test on Loeschian slices that cost
dominates at H = 60.  Serial stripe CPU (the least of 4 rotated repeats per
stratum, summed; 2-core x86-64 box) over every stratum at H = 60 read
1.15 / 0.90 / 0.89 s with 2^17 / 2^18 / 2^19-cell blocks, and over every
tenth stratum at H = 150 3.14 / 2.23 / 1.64 s.  The traced allocation peak
per stripe at H = 60 was 0.7 / 1.3 / 2.4 MB, which the worker's peak RSS
pays, so 2^19 is not taken."""

_WINDOW_TILE_CELLS = 2**13
"""Cells per tile of the quartic square test (up to one (b, c) row more
are allowed).  On the Loeschian slices, with 2^18-cell blocks, serial
stripe CPU read 0.95 / 0.90 / 0.89 / 0.93 s with 2^12 / 2^13 / 2^14 /
2^15-cell tiles over every stratum at H = 60 (2^13 and 2^14 tied at
0.74 s in a rerun), 2.31 / 2.23 / 2.18 / 2.31 s over every tenth stratum
at H = 150, and 7.9 / 7.2 / 6.9 / 6.4 s over 5 strata at H = 400.  2^14
gains only above H = 60 and raised the traced allocation peak per stripe
at H = 150 from 0.72 to 0.97 MB."""


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
    hi = np.where(top < 0, -1, np.floor(np.sqrt(np.maximum(top, 0)))).astype(np.int64)
    lo = np.ceil(np.sqrt(np.maximum(np.minimum(e1, e2), 0))).astype(np.int64)
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


def _j_window(i_top, j0, slope, height: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): per row, the t in [-H, H] with |j0 + slope t| <= r, for
    r = ceil(2 i sqrt(i)) taken in float64 at i = i_top >= 0; hi < lo marks
    an empty window.  Arguments are int64 arrays or ints, broadcast together.

    27 disc = 4I^3 - J^2, so a cell with disc >= 0 and I <= i_top has
    |J| <= S = isqrt(4 i_top^3).  For 0 <= i < 2^25 the float 2 i sqrt(i)
    < 2^38.5 is within relative error 2^-52 (two roundings) of sqrt(4i^3),
    so within 2^-13.5: S <= r <= S + 2.  The window holds every such cell; a
    t that r adds has |J| > S, so disc < 0, and as J steps by |slope| >= 9
    (a multiple of 9 for quartics) there is at most one per end.  slope = 0
    gives every t when |j0| <= r, else none.  r and the ends are exact in
    int64: r < 2^39.
    """
    H = height
    r = np.ceil(2 * i_top * np.sqrt(i_top)).astype(np.int64)
    # read with u = |slope| > 0 as u t in [m - r, m + r]
    u, m = np.abs(slope), -np.sign(slope) * j0
    us = np.maximum(u, 1)
    lo, hi = -((r - m) // us), (m + r) // us
    flat = u == 0
    if flat.any():  # most blocks have no slope 0: skip the masks there
        lo = np.where(flat, np.where(np.abs(j0) <= r, -H, H + 1), lo)
        hi = np.where(flat, H, hi)
    return np.maximum(lo, -H), np.minimum(hi, H)


def _quartic_d_windows(a: int, b0: int, b1: int, height: int):
    """(lo, hi, i0): per (b, c) row of the block, row index (b - b0) W + c + H,
    a d-interval holding every cell with disc > 0 (hi < lo marks an empty
    one), and the row's I(0).

    I and J are linear in d, I growing with it (``invariants_quartic_coeffs``;
    the slopes are read per b at c = 0).  disc > 0 needs I(d) > 0, so
    d > -I(0) / g, the exact lower bound that keeps a row's Loeschian keys in
    its class; and I(d) <= I(H), so the ``_j_window`` at max(I(H), 0) holds
    every such cell (the module docstring bounds its int64 values).
    """
    H = height
    b = np.arange(b0, b1, dtype=np.int64)[:, None]
    i0, j0 = invariants_quartic_coeffs(a, b, np.arange(-H, H + 1, dtype=np.int64), 0)
    (ib0, jb0), (ib1, jb1) = (invariants_quartic_coeffs(a, b, 0, d) for d in (0, 1))
    g = ib1 - ib0
    lo, hi = _j_window(np.maximum(i0 + H * g, 0), j0, jb1 - jb0, H)
    lo = np.maximum(lo, -i0 // g + 1)
    return lo.reshape(-1), hi.reshape(-1), i0.reshape(-1)


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


@functools.cache
def _loeschian_keys(height: int) -> tuple[np.ndarray, int]:
    """(keys, M): read-only ascending int64 keys (n mod 12) M + (n div 12),
    one per Loeschian n in 1..4H^2 + 12H, with M = (4H^2 + 12H) div 12 + 1.

    A (b, c) row's I(d) = I0 + 12 d stays in the class r = I0 mod 12, and
    its n = I(d) has the key r M + I0 div 12 + d: a row's d-window is one
    key interval, its Loeschian d one contiguous slice.  The 12 classes of
    the ascending ``_loeschian`` hits are concatenated in order, so the keys
    come out sorted with no sort.  Keyed by H alone, built once per process.
    """
    n_max = 4 * height * height + 12 * height
    n = np.flatnonzero(_loeschian(n_max))
    m = n_max // 12 + 1
    r = n % 12
    keys = np.concatenate([n[r == k] // 12 + k * m for k in range(12)])
    keys.flags.writeable = False  # one cached copy is shared by every stripe
    return keys, m


def _quartic_square_cells(a: int, b0: int, b1: int, height: int) -> np.ndarray:
    """Ascending block-flat indices of the cells of the block b0 <= b < b1
    whose discriminant is a positive square.

    27 disc = 4I^3 - J^2, so disc = y^2 > 0 gives 4I^3 = J^2 + 3(3y)^2, a
    norm from Z[zeta_3]: I(d) > 0 and every prime = 2 (mod 3) divides I(d)
    to an even power, so I(d) is Loeschian, and I(d) <= I(H) <= 4H^2 + 12H.
    Only the d of each row's ``_quartic_d_windows`` whose I(d) is Loeschian
    are evaluated: the row's slice of ``_loeschian_keys``, found by two
    binary searches.  The slices are laid end to end and cut into tiles of
    whole rows, a new tile at each row starting past a multiple of
    _WINDOW_TILE_CELLS, so a tile holds fewer than _WINDOW_TILE_CELLS + W
    cells.  The Horner terms of ``disc_quartic_terms`` are taken once per
    row and repeated along it; the Horner steps are those of
    ``disc_quartic_coeffs``, run in place on one array per tile.
    """
    H, W = height, 2 * height + 1
    lo, hi, i0 = _quartic_d_windows(a, b0, b1, H)
    keys, m = _loeschian_keys(H)
    base = i0 % 12 * m + i0 // 12  # the key of d = 0
    first = np.searchsorted(keys, base + lo)
    n = np.searchsorted(keys, base + hi, side="right") - first  # <= 0 when hi < lo
    rows = np.flatnonzero(n > 0)
    base, first, n = base[rows], first[rows], n[rows]
    b, c = np.divmod(rows, W)
    t2, t1, t0 = disc_quartic_terms(a, b + b0, c - H)
    end = np.cumsum(n)
    off = first + n - end  # a cell's key is keys[off[row] + its position in the layout]
    cuts = np.searchsorted(end - n, np.arange(0, int(n.sum()), _WINDOW_TILE_CELLS)).tolist()
    hits = [np.zeros(0, dtype=np.int64)]
    for r0, r1 in zip(cuts, cuts[1:] + [rows.size]):
        if r0 == r1:
            continue
        p0 = int(end[r0] - n[r0])
        run = n[r0:r1]
        slot = np.repeat(off[r0:r1], run)
        slot += np.arange(p0, int(end[r1 - 1]), dtype=np.int64)
        d = keys[slot]
        d -= np.repeat(base[r0:r1], run)
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


def _c4_mask(a: int, b: np.ndarray, d: np.ndarray, x: np.ndarray, disc: np.ndarray) -> np.ndarray:
    """The C4 cells among the D4/C4 cells (b, d, resolvent root x, disc) of
    an a-stratum, in int64: the census's form of ``classify.is_c4``.

    ``is_c4`` asks that (x^2 - 4d) disc and K disc both be squares, with
    K = a^2 - 4b + 4x.  At a root x the symmetry identity gives
    (x^2 - 4d) K = t^2 with t = xa - 2c.  For K != 0, (x^2 - 4d) disc =
    (t / K)^2 K disc is 0 when t = 0 and otherwise a square exactly when
    K disc is, so only K disc is left; for K = 0 the identity forces t = 0,
    K disc = 0 is a square, and only (x^2 - 4d) disc is left.  So with
    w = K, or x^2 - 4d where K = 0, C4 holds exactly when w = 0 or w disc
    is a positive square.  With g = gcd(|w|, |disc|) (disc != 0), w disc is
    a positive square iff w and disc share a sign and the coprime |w| / g
    and |disc| / g are squares.

    int64: |disc| < 2^62 at the cap, and |w| <= (H + H^2 / 4)^2 + 4H, about
    1.6e9 (K = 0 puts x at b - a^2 / 4), so only w itself is ever formed.
    """
    K = a * a - 4 * b + 4 * x
    w = np.where(K != 0, K, x * x - 4 * d)
    g = np.gcd(w, disc)
    return (w == 0) | (((w > 0) == (disc > 0)) & _square_mask(np.abs(w) // g) & _square_mask(np.abs(disc) // g))


def _quartic_block_counts(a: int, b0: int, b1: int, height: int, red: np.ndarray):
    """Counts (reducible, S4, A4, D4, V4, C4) over the block b0 <= b < b1.

    ``red`` is the block's (b1 - b0, W, W) reducible mask; the split root
    cells are marked into it in place (a no-op for the ``table`` mask).  An
    irreducible quartic's resolvent is separable with 0, 1 or 3 integer
    roots.  The discriminant is evaluated at the irreducible root cells:
    V4 are those with a square one, D4/C4 the others, listed once each with
    their one root and split by ``_c4_mask``.  A4 are the other irreducible
    cells of ``_quartic_square_cells``, and S4 the rest.
    """
    H, W = height, 2 * height + 1
    cells, roots, split = _quartic_resolvent_roots(a, b0, b1, H)
    red = red.reshape(-1)
    red[cells[split]] = True
    n_red = int(np.count_nonzero(red))

    sq = _quartic_square_cells(a, b0, b1, H)
    n_sq = int(np.count_nonzero(~red[sq]))

    # the irreducible root cells: V4 where the disc is a square, else D4/C4
    keep = ~red[cells]
    cells, roots = cells[keep], roots[keep]
    bc, d = np.divmod(cells, W)
    b, c = np.divmod(bc, W)
    b, c, d = b + b0, c - H, d - H
    disc = disc_quartic_coeffs(a, b, c, d)
    square = _square_mask(disc)
    n_v4 = len(set(cells[square].tolist()))
    keep = ~square
    n_c4 = int(np.count_nonzero(_c4_mask(a, b[keep], d[keep], roots[keep], disc[keep])))
    n_d4 = int(np.count_nonzero(keep)) - n_c4
    n_s4 = red.size - n_red - n_sq - n_d4 - n_c4
    return n_red, n_s4, n_sq - n_v4, n_d4, n_v4, n_c4


# ---------------------------------------------------------------------------
# irreducibility slabs (the reference enumeration's product marking)

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


def _irreducible_slab(degree: int, height: int, a: int) -> np.ndarray:
    """Bit table over stratum a of the box ((b, c) or (b, c, d), any |a| <= H):
    True iff the tuple is irreducible.  W^(degree - 1) bytes, one slab per
    worker at a time: at most 100 MB for cubics and 514 MB for quartics.

    Built by clearing every product of lower-degree monic factors that lies
    in the stratum.  A reducible tuple has a factor X + t or, as a quartic, a
    split (X^2 + pX + q)(X^2 + rX + s), ordered so that p <= r.  The root
    -t divides the constant term, or is 0 when that is 0, so |t| <= H, and
    the cofactor's constant term s has |ts| <= H.  A split without a root
    has qs = d != 0, so 0 < |q| <= H and |qs| <= H.  Also 2p <= p + r = a,
    and p >= -2H: p <= -2H - 1 would give r = a - p >= H + 1 and
    |pr| >= (2H + 1)(H + 1) > 3H >= |b - q - s|.  The cubic pairs (t, s) are
    laid out in one pass; the quartic loops run over t, with b on the rows,
    and over q, with p on the rows; s runs over the columns, and the
    factors' other coefficients follow.  Every tuple cleared is a product.
    """
    H, W = height, 2 * height + 1
    irred = np.ones((W,) * (degree - 1), dtype=bool)
    flat = irred.reshape(-1)
    box = np.arange(-H, H + 1, dtype=np.int64)
    m = H // np.maximum(np.abs(box), 1)  # |s| <= m for t = box (every s for t = 0)
    if degree == 3:  # (X + t)(X^2 + pX + s), p = a - t
        g, k = _expand(2 * m + 1)
        t, s = box[g], k - m[g]
        _clear_products(flat, H, s + t * (a - t), t * s)
        return irred
    consts = [box[None, H - n : H + n + 1] for n in m.tolist()]  # the s row of each t or q
    # (X + t)(X^3 + pX^2 + qX + s), p = a - t and q = b - tp
    b = box[:, None]
    for t, s in zip(range(-H, H + 1), consts):
        _clear_products(flat, H, b, t * (b - t * (a - t)) + s, t * s)
    # (X^2 + pX + q)(X^2 + rX + s), r = a - p
    p = np.arange(-2 * H, a // 2 + 1, dtype=np.int64)[:, None]
    for q, s in zip(range(-H, H + 1), consts):
        if q:
            _clear_products(flat, H, q + s + p * (a - p), p * s + q * (a - p), q * s)
    return irred


# ---------------------------------------------------------------------------
# stripe job and pool unit (top level so the pool can pickle them)

def _stripe_job(degree: int, height: int, strategy: str, a: int):
    """(a, counts) for the full a-stratum, doubled when a > 0.

    A cubic stratum is one (b, c) grid; a quartic one is walked in blocks of
    up to _BLOCK_CELLS // W^2 consecutive b, each a (b, c, d) grid.  The
    reducible mask comes from the factor pairs (``direct``) or from the
    stratum's ``_irreducible_slab`` (``table``), which the job builds itself.
    """
    H, W = height, 2 * height + 1
    pairs, irred = (_factor_pairs(H), None) if strategy == "direct" else (None, _irreducible_slab(degree, H, a))
    if degree == 3:
        red = _cubic_red_mask(a, H, pairs) if irred is None else np.logical_not(irred, out=irred)
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


def _stripe_run(degree: int, height: int, strategy: str, run: list[int]) -> list:
    """The pool unit of a census: _stripe_job on each stratum of ``run``."""
    return [_stripe_job(degree, height, strategy, a) for a in run]


_RUN_CELLS = 2**22
"""Cells per pool unit, unless one stratum alone holds more.  A unit is a
run of consecutive strata, so the pool's per-unit cost (pickling, a future,
a wakeup of the parent) is paid once per run: 4 strata at cubic H = 500, 2
at quartic H = 60, 1 from cubic H = 1024 and quartic H = 80 on.  A box of
one run, up to cubic H = 100 or quartic H = 26, takes no pool."""


def _run_length(degree: int, height: int) -> int:
    """Strata per pool unit: max(1, _RUN_CELLS // W^(degree - 1))."""
    return max(1, _RUN_CELLS // (2 * height + 1) ** (degree - 1))


# ---------------------------------------------------------------------------
# journal: a header line binding it to the request and the kernel version,
# then one line per stripe

def _check_counts(counts, req: CensusRequest, share: int, where: str) -> None:
    """Raise CensusError, its message led by ``where``, unless ``counts`` is a
    dict of the request's classes, in order, to ints >= 0 summing to ``share``."""
    if not (
        isinstance(counts, dict)
        and list(counts) == list(req.classes())
        and all(type(v) is int for v in counts.values())
    ):
        raise CensusError(f"{where} counts {counts!r} are not ints keyed by {', '.join(req.classes())}")
    if min(counts.values()) < 0 or sum(counts.values()) != share:
        raise CensusError(f"{where} counts {counts} must be >= 0 and sum to its {share} cells")


def _journal_load(path: str, req: CensusRequest) -> dict[int, dict[str, int]]:
    """The stripe records of the journal at ``path`` (empty if there is none).

    A final line without its newline is a write torn by a crash: it is cut
    off the file, so its stripe is recomputed and appended.  Any other
    malformed line raises CensusError with its line number, and so does a
    first line, blank or not, that is not the header of this request and
    KERNEL_VERSION, a record whose counts fail ``_check_counts`` against its
    share of the box, and a second record of a stripe (naming both lines).
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
    checksum = req.checksum()
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
        if not (type(a) is int and 0 <= a <= req.height):
            text = raw[:80].decode(errors="replace")
            raise CensusError(f"journal {path} line {lineno}: malformed record {text!r}")
        _check_counts(part, req, cells if a == 0 else 2 * cells, f"journal {path} line {lineno}: stripe {a}")
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

    n = _run_length(req.degree, H)
    units = [(_stripe_run, (req.degree, H, req.strategy, todo[i : i + n])) for i in range(0, len(todo), n)]
    with contextlib.ExitStack() as stack:
        results = chain.from_iterable(_run_units(units, req.workers, stack))
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
    """All (a, b, c) with |a|,|b|,|c| <= height classifying A3, lexicographic.

    Only the strata a >= 0 are swept: -f(-X) = X^3 - a X^2 + b X - c has
    f's splitting field, so (a, b, c) is A3 exactly when (-a, b, -c) is, and
    stratum -a is stratum a with c negated, re-sorted by (b, c)."""
    CensusRequest(3, height).validate()
    H = height
    pairs = _factor_pairs(H)
    strata = [_cubic_a3_cells(a, H, _cubic_red_mask(a, H, pairs)) for a in range(H + 1)]
    out: list[tuple[int, int, int]] = []
    for a in range(-H, H + 1):
        rows, cs = strata[abs(a)]
        cells = zip((rows - H).tolist(), cs.tolist())
        out += [(a, b, c) for b, c in (sorted((b, -c) for b, c in cells) if a < 0 else cells)]
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
    """The report of ``report_to_json``.  A payload whose request is invalid,
    whose counts fail ``_check_counts`` against the whole box, or whose
    derived ``total`` or ``checksum`` disagrees with them raises CensusError."""
    payload = json.loads(text)
    req = CensusRequest(degree=payload["degree"], height=payload["height"], strategy=payload["strategy"])
    req.validate()
    checksum, counts = req.checksum(), payload["counts"]
    if payload["checksum"] != checksum:
        raise CensusError(f"report checksum {payload['checksum']} is not its request's {checksum}")
    _check_counts(counts, req, (2 * req.height + 1) ** req.degree, "report")
    if payload["total"] != sum(counts.values()):
        raise CensusError(f"report total {payload['total']} is not the sum {sum(counts.values())} of its counts")
    return CensusReport(request=req, counts=counts, wall_time_s=payload["wall_time_s"])


def report_to_csv(report: CensusReport) -> str:
    lines = ["class,count"]
    for k in report.request.classes():
        lines.append(f"{k},{report.counts[k]}")
    return "\n".join(lines) + "\n"
