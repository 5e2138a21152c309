"""Galois group classification for monic integer cubics and quartics.

Discriminants and the invariants (I, J) are evaluated exactly; classification
follows the resolvent-cubic decision table for quartics and the square
discriminant test for cubics.  A quartic's reducibility test reuses the
table's work: an integer root is looked for among the divisors of d only
when f has a root mod each of the primes 5 to 19 (one byte lookup each, in
tables of 260 KB built on first use), and a quadratic split
(X^2+pX+q)(X^2+rX+s) is read off a resolvent root x = q + s, as in the census.
The integer roots of a monic cubic (a cubic's reducibility, the resolvent's
roots) come from float guesses on the depressed form Y^3 - 3I Y + J that
exact integer evaluations then certify; an exact bisection decides whenever
the certificate fails.

All user-facing coefficients are ordinary Python ints, so nothing here can
overflow; the documented input contract is |coefficient| <= 10**6, which
every formula below handles instantly.

The census stripes evaluate the quartic discriminant and the invariants
here on int64 grids (they accept broadcast int64 arrays as well as ints and
Fractions), and call
``fujiwara_bound`` on Python ints: one copy of each formula.  The census
splits D4 from C4 with an int64 form of ``is_c4``, which is its oracle.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exactarith import divisors, iroot, is_prime, perfect_square

__all__ = [
    "MonicCubic",
    "MonicQuartic",
    "CubicClass",
    "QuarticGroup",
    "QuarticClass",
    "InvariantPair",
    "FactorWitness",
    "disc_cubic",
    "disc_cubic_coeffs",
    "invariants_cubic",
    "invariants_cubic_coeffs",
    "classify_cubic",
    "resolvent_coeffs",
    "disc_quartic",
    "disc_quartic_coeffs",
    "disc_quartic_terms",
    "invariants_quartic",
    "invariants_quartic_coeffs",
    "reducibility_witness",
    "is_c4",
    "classify_quartic",
    "fujiwara_bound",
    "resolvent_root_bound",
    "integer_roots_monic_cubic",
    "frobenius_cycle_type",
]


@dataclass(frozen=True)
class MonicCubic:
    """X^3 + a X^2 + b X + c."""

    a: int
    b: int
    c: int

    def coeffs(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class MonicQuartic:
    """X^4 + a X^3 + b X^2 + c X + d."""

    a: int
    b: int
    c: int
    d: int

    def coeffs(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


class CubicClass(enum.Enum):
    REDUCIBLE = "reducible"
    S3 = "S3"
    A3 = "A3"


class QuarticGroup(enum.Enum):
    REDUCIBLE = "reducible"
    S4 = "S4"
    A4 = "A4"
    D4 = "D4"
    V4 = "V4"
    C4 = "C4"


@dataclass(frozen=True)
class QuarticClass:
    """Classification outcome; D4 and C4 carry the resolvent root used."""

    group: QuarticGroup
    resolvent_root: int | None = None


class InvariantPair(NamedTuple):
    I: int
    J: int


class FactorWitness(NamedTuple):
    """A linear root or a monic quadratic split certifying reducibility."""

    kind: str  # "root" or "split"
    data: tuple[int, ...]  # (r,) or (p, q, r, s) for (X^2+pX+q)(X^2+rX+s)


def disc_cubic(f: MonicCubic) -> int:
    return disc_cubic_coeffs(f.a, f.b, f.c)


def disc_cubic_coeffs(a, b, c):
    """Discriminant of X^3 + aX^2 + bX + c from raw coefficients, by Horner
    in c; works on ints, Fractions and broadcast int64 arrays."""
    return (-27 * c + 18 * a * b - 4 * a * a * a) * c + (a * a - 4 * b) * b * b


def invariants_cubic_coeffs(a, b, c):
    """(I, J) of X^3 + aX^2 + bX + c from raw coefficients, with
    27 * disc = 4 I^3 - J^2.  With Y = 3X + a, 27 f(X) = Y^3 - 3I Y + J.
    """
    return a * a - 3 * b, 2 * a**3 - 9 * a * b + 27 * c


def invariants_cubic(f: MonicCubic) -> InvariantPair:
    """(I, J) with 27 * disc = 4 I^3 - J^2."""
    return InvariantPair(*invariants_cubic_coeffs(f.a, f.b, f.c))


def classify_cubic(f: MonicCubic) -> CubicClass:
    """Reducible / S3 / A3: reducible exactly when f has an integer root
    (``integer_roots_monic_cubic``), else A3 exactly when disc is a square;
    disc is the root search's exact D = 27 disc over 27."""
    roots, D = _integer_roots_and_D(f.a, f.b, f.c)
    if roots:
        return CubicClass.REDUCIBLE
    disc = D // 27
    if disc > 0 and perfect_square(disc) is not None:
        return CubicClass.A3
    return CubicClass.S3


def resolvent_coeffs(a, b, c, d):
    """(p, q, r) of the cubic resolvent X^3 + pX^2 + qX + r of
    X^4 + aX^3 + bX^2 + cX + d, which is
    X^3 - b X^2 + (ac - 4d) X - (a^2 d - 4bd + c^2); its discriminant is
    disc(f).  Works on ints and on broadcast int64 or object arrays; the
    symmetry suite evaluates it on a (b, c, d) grid."""
    return -b, a * c - 4 * d, -(a * a * d - 4 * b * d + c * c)


def disc_quartic(f: MonicQuartic) -> int:
    return disc_quartic_coeffs(f.a, f.b, f.c, f.d)


def disc_quartic_terms(a, b, c):
    """(t2, t1, t0): the discriminant of X^4 + aX^3 + bX^2 + cX + d is the
    cubic ((256 d + t2) d + t1) d + t0 in d, whose lower coefficients are
    these polynomials in (a, b, c).

    The quartic census computes them once per (b, c) row and runs the Horner
    steps over that row's d-window itself.
    """
    a2, b2, c2 = a * a, b * b, c * c
    t0 = ((a2 * b2 - 4 * b2 * b) + (18 * a * b - 4 * a2 * a) * c - 27 * c2) * c2
    t1 = (
        (16 * b2 - 4 * a2 * b) * b2
        + (18 * a2 * a * b - 80 * a * b2) * c
        + (144 * b - 6 * a2) * c2
    )
    t2 = 144 * a2 * b - 27 * a2 * a2 - 128 * b2 - 192 * a * c
    return t2, t1, t0


def disc_quartic_coeffs(a, b, c, d):
    """Discriminant of X^4 + aX^3 + bX^2 + cX + d from raw coefficients.

    A cubic in d, evaluated by Horner: ((256 d + t2) d + t1) d + t0 with
    (t2, t1, t0) from ``disc_quartic_terms``.  Works on ints, Fractions and
    broadcast int64 arrays alike: identity checks with rational
    substitutions need not build a MonicQuartic per case, and the quartic
    census passes the coefficients of its sparse root cells.
    """
    t2, t1, t0 = disc_quartic_terms(a, b, c)
    return ((256 * d + t2) * d + t1) * d + t0


def invariants_quartic_coeffs(a, b, c, d):
    """(I, J) of X^4 + aX^3 + bX^2 + cX + d from raw coefficients, with
    27 * disc = 4 I^3 - J^2.  Both are linear in d, I with slope 12.

    Works on ints, Fractions and broadcast int64 arrays; the quartic census
    evaluates them at d = 0 per (b, c) row, and at d = 0 and 1 per b for
    the slopes.
    """
    i = 12 * d - 3 * a * c + b * b
    j = 72 * b * d + 9 * a * b * c - 27 * c * c - 27 * a * a * d - 2 * b**3
    return i, j


def invariants_quartic(f: MonicQuartic) -> InvariantPair:
    """(I, J) with 27 * disc = 4 I^3 - J^2."""
    return InvariantPair(*invariants_quartic_coeffs(f.a, f.b, f.c, f.d))


_TWO_PI_3 = 2 * math.pi / 3
_FLOAT_UNIT_LIMIT = 2.0**52
"""Guesses at or beyond this size cannot locate a unit interval."""


def _eval_monic_cubic(p: int, q: int, r: int, x: int) -> int:
    return ((x + p) * x + q) * x + r


def fujiwara_bound(p: int, q: int, r: int) -> int:
    """B > |x| for every complex root x of X^3 + pX^2 + qX + r, by Fujiwara's
    |x| <= 2 max(|p|, |q|^(1/2), |r|^(1/3)).  B grows with |q| and |r|, so
    upper bounds on them give a B for a whole family of cubics."""
    return 2 * max(abs(p), math.isqrt(abs(q)) + 1, iroot(abs(r), 3) + 1, 1) + 1


def resolvent_root_bound(height: int) -> int:
    """B > |x| for every root x of the resolvent X^3 + pX^2 + qX + r
    (``resolvent_coeffs``) of every monic quartic of height <= H: there
    |p| <= H, |q| <= H^2 + 4H and |r| <= H^3 + 5H^2."""
    H = height
    return fujiwara_bound(H, H * H + 4 * H, H**3 + 5 * H * H)


def integer_roots_monic_cubic(p: int, q: int, r: int) -> list[int]:
    """All integer roots of X^3 + p X^2 + q X + r, ascending.

    With (I, J) = ``invariants_cubic_coeffs(p, q, r)`` and Y = 3X + p,
    27 f(X) = Y^3 - 3I Y + J, and D = 4I^3 - J^2 = 27 disc is exact.

    D = 0: the roots are rational, hence integers.  I = 0 gives the triple
    root -p/3.  Otherwise the double root in Y is a = J / (2I), since a^2 = I
    and J = 2a^3, and the roots are (a - p)/3 (double) and (-2a - p)/3.

    D != 0: floats only choose where to look.  D > 0 gives three distinct
    real roots, guessed from the trigonometric form
    Y = 2 sqrt(I) cos((t + 2 pi k)/3) with t = atan2(sqrt(D), -J); D < 0
    gives one, guessed by Cardano's formula on the branch without
    cancellation.  The sorted guesses X give sample points: n = floor(X) and
    n + 1 for each, and the midpoint of any two guesses with the same n (a
    dyadic rational, so f there is exact too).  f is evaluated exactly at
    each point in ascending order:
    - f(m) = 0 at an integer point m deflates f exactly by X - m, and the
      quadratic's integer roots come from a perfect-square test;
    - otherwise, count the sign changes between consecutive points at most
      1 apart.  Each one puts an odd number of roots in an open interval
      holding no integer, and these intervals are disjoint.  If they are as
      many as the real roots, each holds exactly one, so no root is an
      integer.

    Whenever the certificate fails (too few sign changes, a float overflow,
    or a guess with |X| >= 2^52, beyond float's unit resolution), the exact
    bisection ``_integer_roots_bisect`` decides.
    It is never needed on the d4vc resolvents, on the 4,946 A3 cubics of
    height 100, on the |coefficient| <= 12 box or on 20,000 random cubics
    with |coefficient| <= 10^6.  Fallbacks begin where the guesses' absolute
    error nears a unit: 1 in 20,000 random cubics at |coefficient| <= 10^12,
    0.1% at 10^13, 1% at 10^14, 12% at 10^15 and 74% at 10^16.
    """
    return _integer_roots_and_D(p, q, r)[0]


def _integer_roots_and_D(p: int, q: int, r: int) -> tuple[list[int], int]:
    """(``integer_roots_monic_cubic(p, q, r)``, D) with the exact
    D = 4I^3 - J^2 = 27 disc that the root search computes on the way."""
    I, J = invariants_cubic_coeffs(p, q, r)
    D = 4 * I * I * I - J * J
    if D == 0:
        if I == 0:
            return [-p // 3], D
        a = J // (2 * I)
        return sorted({(a - p) // 3, (-2 * a - p) // 3}), D
    try:
        if D > 0:
            s = 2.0 * math.sqrt(float(I))
            t = math.atan2(math.sqrt(float(D)), -float(J)) / 3
            ys = (s * math.cos(t + _TWO_PI_3), s * math.cos(t - _TWO_PI_3), s * math.cos(t))
            xs = sorted([(y - p) / 3 for y in ys])
        else:
            fj = float(J)
            c = -0.5 * (fj + math.copysign(math.sqrt(float(-D)), fj))
            u = math.copysign(abs(c) ** (1 / 3), c)
            xs = [(u + float(I) / u - p) / 3]
    except OverflowError:
        return _integer_roots_bisect(p, q, r), D
    return _certified_roots(p, q, r, xs), D


def _certified_roots(p: int, q: int, r: int, xs: list[float]) -> list[int]:
    """All integer roots of X^3 + p X^2 + q X + r, given ascending float
    guesses ``xs``, as many as its real roots, all simple: the certificate
    of ``integer_roots_monic_cubic``, with ``_integer_roots_bisect`` where it
    fails.  The answer is exact whatever the guesses; they only decide
    whether the certificate holds."""
    pts = []  # the sample points, ascending
    prev_x = prev_n = None
    for x in xs:
        if not -_FLOAT_UNIT_LIMIT < x < _FLOAT_UNIT_LIMIT:
            return _integer_roots_bisect(p, q, r)
        n = math.floor(x)
        if n == prev_n:
            pts.insert(-1, (prev_x + x) / 2)
        else:
            if not pts or pts[-1] != n:
                pts.append(n)
            pts.append(n + 1)
        prev_x, prev_n = x, n
    changes = 0
    lo = lo_pos = None
    for t in pts:
        if type(t) is int:
            ft = ((t + p) * t + q) * t + r
            if ft == 0:
                return _deflated_roots(p, q, t)
        else:
            # a dyadic rational num / den, where den^3 f(t) is an exact int;
            # f(t) != 0, as a rational root of f is an integer, and t = n
            # only after f(n) != 0
            num, den = t.as_integer_ratio()
            ft = ((num + p * den) * num + q * den * den) * num + r * den**3
        pos = ft > 0
        if lo is not None and pos != lo_pos and t - lo <= 1:
            changes += 1
        lo, lo_pos = t, pos
    if changes == len(xs):
        return []
    return _integer_roots_bisect(p, q, r)


def _deflated_roots(p: int, q: int, m: int) -> list[int]:
    """All integer roots of X^3 + p X^2 + q X + r, given its integer root m:
    f = (X - m)(X^2 + sX + t), and the quadratic's roots (-s +- k) / 2 are
    integers exactly when s^2 - 4t = k^2 (then k = s mod 2, as k^2 = s^2
    mod 4)."""
    s = p + m
    t = q + m * s
    k = perfect_square(s * s - 4 * t)
    if k is None:
        return [m]
    return sorted({m, (-s - k) // 2, (-s + k) // 2})


def _integer_roots_bisect(p: int, q: int, r: int) -> list[int]:
    """All integer roots of X^3 + p X^2 + q X + r, ascending, by exact
    bisection on the monotone pieces cut out by the critical points of the
    cubic.  Every evaluation is integer arithmetic, so it is correct at any
    coefficient size; ``integer_roots_monic_cubic`` falls back on it."""
    bound = fujiwara_bound(p, q, r)
    cuts = {-bound, bound}
    dd = p * p - 3 * q  # discriminant of the derivative (3X^2 + 2pX + q) / ...
    if dd >= 0:
        s = math.isqrt(dd)
        for num in (-p - s - 1, -p - s, -p + s, -p + s + 1):
            c0 = num // 3
            for cand in (c0 - 1, c0, c0 + 1):
                if -bound < cand < bound:
                    cuts.add(cand)
    cuts = sorted(cuts)
    roots = {c for c in cuts if _eval_monic_cubic(p, q, r, c) == 0}
    for lo, hi in zip(cuts, cuts[1:]):
        flo = _eval_monic_cubic(p, q, r, lo)
        fhi = _eval_monic_cubic(p, q, r, hi)
        if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            fm = _eval_monic_cubic(p, q, r, mid)
            if fm == 0:
                roots.add(mid)
                break
            if (fm > 0) == (fhi > 0):
                hi, fhi = mid, fm
            else:
                lo, flo = mid, fm
    return sorted(roots)


def resolvent_integer_roots(f: MonicQuartic) -> list[int]:
    return integer_roots_monic_cubic(*resolvent_coeffs(f.a, f.b, f.c, f.d))


_ROOT_FILTER_PRIMES = (5, 7, 11, 13, 17, 19)
"""Primes at which a quartic with no root mod p is certified to have no
integer root.  They certify 99.0% of the d4vc(6e5, 1/5) members, so 699 of
its 73,084 scan the divisors of d.  3 is left out because every d4vc member
is X^4 mod 3; 23 would cut the scans to 190 for another 280 KB, and measured
no faster."""


@functools.cache
def _root_tables() -> tuple[tuple[int, bytes], ...]:
    """(p, table) for each filter prime: table[((a p + b) p + c) p + d] is 1
    exactly when X^4 + aX^3 + bX^2 + cX + d has a root mod p, for residues
    a, b, c, d mod p.  For each residue t, one pass over the p^3 residues
    (a, b, c) marks the d = -(((t + a) t + b) t + c) t that make t a root.  Built on first use,
    never at import: about 260 KB and a few ms."""
    tables = []
    for p in _ROOT_FILTER_PRIMES:
        abc = np.arange(p**3, dtype=np.int64)
        a, b, c = abc // (p * p), abc // p % p, abc % p
        table = np.zeros(p**4, dtype=np.uint8)
        for t in range(p):
            table[abc * p + -(((t + a) * t + b) * t + c) * t % p] = 1
        tables.append((p, table.tobytes()))
    return tuple(tables)


def _integer_root(a: int, b: int, c: int, d: int) -> int | None:
    """An integer root of X^4 + aX^3 + bX^2 + cX + d, or None.

    An integer root t is a root mod every p, so a filter prime with no root
    mod p (one ``_root_tables`` lookup) proves there is none and the divisor
    scan of d is skipped.
    """
    if d == 0:
        return 0
    for p, table in _root_tables():
        if not table[((a % p * p + b % p) * p + c % p) * p + d % p]:
            return None
    for t in divisors(d):
        for r in (t, -t):
            if (((r + a) * r + b) * r + c) * r + d == 0:
                return r
    return None


def _quadratic_split(a: int, b: int, c: int, d: int, roots: list[int]) -> tuple[int, int, int, int] | None:
    """(p, q, r, s) with X^4 + aX^3 + bX^2 + cX + d = (X^2+pX+q)(X^2+rX+s), or None,
    given the integer roots of the resolvent.

    The resolvent's roots are r1 r2 + r3 r4 and its two conjugates, for the
    roots r_i of f, so a split gives the resolvent root x = q + s.  Then
    qs = d, p + r = a and pr = b - x, so (q - s)^2 = x^2 - 4d and
    (p - r)^2 = a^2 - 4(b - x) are squares, of the parity of x and of a.
    Conversely those four relations with ps + qr = c multiply back to f.
    The census reads the same two squares off its root cells, where they
    alone decide the split; the ps + qr check certifies the factors here.
    """
    for x in roots:
        m = perfect_square(x * x - 4 * d)
        if m is None:
            continue
        n = perfect_square(a * a - 4 * (b - x))
        if n is None:
            continue
        q, s = (x + m) // 2, (x - m) // 2
        for p in ((a + n) // 2, (a - n) // 2):
            r = a - p
            if p * s + q * r == c:
                return (p, q, r, s)
    return None


def reducibility_witness(f: MonicQuartic) -> FactorWitness | None:
    """A factor witness when f is reducible over Z, else None: an integer
    root first, then a quadratic split read off the resolvent roots."""
    a, b, c, d = f.coeffs()
    t = _integer_root(a, b, c, d)
    if t is not None:
        return FactorWitness("root", (t,))
    split = _quadratic_split(a, b, c, d, resolvent_integer_roots(f))
    return None if split is None else FactorWitness("split", split)


def is_c4(a: int, b: int, d: int, x: int, disc: int) -> bool:
    """D4/C4 split of an irreducible X^4 + aX^3 + bX^2 + cX + d with non-square
    ``disc`` and resolvent root ``x``: C4 exactly when both (x^2 - 4d) disc
    and (a^2 - 4(b - x)) disc are perfect squares.

    The classifier's own test, in Python ints.  The census splits its cells
    with ``census._c4_mask``, an int64 form derived from the symmetry
    identity, and the tests hold that form to this one cell by cell."""
    return (
        perfect_square((x * x - 4 * d) * disc) is not None
        and perfect_square((a * a - 4 * (b - x)) * disc) is not None
    )


def classify_quartic(f: MonicQuartic) -> QuarticClass:
    """Kappe-Warren classification of a monic integer quartic.

    Order of tests: an integer root; the resolvent roots, which also decide
    a quadratic split; then square discriminant and resolvent roots split
    S4/A4/V4 from the D4/C4 branch; ``is_c4`` separates D4 and C4 by the
    resolvent root x (unique in this branch).  The discriminant is the
    root search's exact D = 27 disc(resolvent) = 27 disc(f) over 27.
    """
    a, b, c, d = f.coeffs()
    if _integer_root(a, b, c, d) is not None:
        return QuarticClass(QuarticGroup.REDUCIBLE)
    roots, D = _integer_roots_and_D(*resolvent_coeffs(a, b, c, d))
    if _quadratic_split(a, b, c, d, roots) is not None:
        return QuarticClass(QuarticGroup.REDUCIBLE)
    disc = D // 27
    square = disc > 0 and perfect_square(disc) is not None
    if square:
        if roots:
            return QuarticClass(QuarticGroup.V4)
        return QuarticClass(QuarticGroup.A4)
    if not roots:
        return QuarticClass(QuarticGroup.S4)
    x = roots[0]
    group = QuarticGroup.C4 if is_c4(a, b, d, x, disc) else QuarticGroup.D4
    return QuarticClass(group, x)


# ---------------------------------------------------------------------------
# Frobenius cycle types mod p (independent cross-check of the classifier)

def _p_frame(f: MonicCubic | MonicQuartic, p: int):
    """(coeffs, rows) for the monic quartic F = f, or F = X f for a cubic f:
    coeffs = (a, b, c, d) with F = X^4 + a X^3 + b X^2 + c X + d mod p, and
    rows = (X^4, X^5, X^6) mod (F, p), each ascending."""
    a, b, c, d = f.coeffs() if isinstance(f, MonicQuartic) else (*f.coeffs(), 0)
    coeffs = a, b, c, d = a % p, b % p, c % p, d % p
    x4 = (-d % p, -c % p, -b % p, -a % p)
    x5 = _p_mulx(x4, x4, p)
    return coeffs, (x4, x5, _p_mulx(x5, x4, p))


def _p_fold(t0, t1, t2, t3, t4, t5, t6, rows, p):
    """t0 + t1 X + ... + t6 X^6 mod (F, p), with rows = (X^4, X^5, X^6) mod F:
    each coefficient is reduced once, by a single % p at the end."""
    (u0, u1, u2, u3), (v0, v1, v2, v3), (w0, w1, w2, w3) = rows
    return (
        (t0 + t4 * u0 + t5 * v0 + t6 * w0) % p,
        (t1 + t4 * u1 + t5 * v1 + t6 * w1) % p,
        (t2 + t4 * u2 + t5 * v2 + t6 * w2) % p,
        (t3 + t4 * u3 + t5 * v3 + t6 * w3) % p,
    )


def _p_sqr(g, rows, p):
    """g^2 mod (F, p) from the 10 symmetric products g_i g_j, i <= j."""
    g0, g1, g2, g3 = g
    return _p_fold(
        g0 * g0, 2 * g0 * g1, 2 * g0 * g2 + g1 * g1, 2 * (g0 * g3 + g1 * g2),
        2 * g1 * g3 + g2 * g2, 2 * g2 * g3, g3 * g3, rows, p,
    )


def _p_mul(g, h, rows, p):
    """g h mod (F, p): a general product, 16 coefficient products."""
    g0, g1, g2, g3 = g
    h0, h1, h2, h3 = h
    return _p_fold(
        g0 * h0, g0 * h1 + g1 * h0, g0 * h2 + g1 * h1 + g2 * h0,
        g0 * h3 + g1 * h2 + g2 * h1 + g3 * h0,
        g1 * h3 + g2 * h2 + g3 * h1, g2 * h3 + g3 * h2, g3 * h3, rows, p,
    )


def _p_mulx(g, x4, p):
    """X g mod (F, p): a shift, with the top coefficient folded in along x4 = X^4 mod F."""
    g0, g1, g2, g3 = g
    u0, u1, u2, u3 = x4
    return (g3 * u0 % p, (g0 + g3 * u1) % p, (g1 + g3 * u2) % p, (g2 + g3 * u3) % p)


def _p_xpow(rows, p):
    """X^p mod (F, p), left to right over the bits of p: bit_length(p) - 1
    squarings, each followed by a shift when its bit is set."""
    g = (0, 1, 0, 0)
    for bit in bin(p)[3:]:
        g = _p_sqr(g, rows, p)
        if bit == "1":
            g = _p_mulx(g, rows[0], p)
    return g


def _p_compose(g, rows, p):
    """g(g) mod (F, p) by Horner.  Its first step, g3 g, is a scalar
    multiple, so the three steps take two general products."""
    g0, g1, g2, g3 = g
    a0, a1, a2, a3 = _p_mul(((g3 * g0 + g2) % p, g3 * g1 % p, g3 * g2 % p, g3 * g3 % p), g, rows, p)
    a0, a1, a2, a3 = _p_mul(((a0 + g1) % p, a1, a2, a3), g, rows, p)
    return ((a0 + g0) % p, a1, a2, a3)


def _p_root_count(coeffs, xq, p):
    """deg gcd(F, X^q - X) mod p, given F = X^4 + a X^3 + b X^2 + c X + d as
    coeffs = (a, b, c, d) and xq = X^q mod F: the number of distinct roots of
    F in F_q.  Euclid on descending coefficient lists; each remainder step
    defers its % p to the coefficients it keeps."""
    u = [1, *coeffs]
    v = [xq[3], xq[2], (xq[1] - 1) % p, xq[0]]
    while v:
        if not v[0]:
            del v[0]
            continue
        inv = pow(v[0], -1, p)
        nv = len(v)
        for k in range(len(u) - nv + 1):
            q = u[k] * inv % p
            for i in range(1, nv):
                u[k + i] -= q * v[i]
        u, v = v, [c % p for c in u[len(u) - nv + 1:]]
    return len(u) - 1


def frobenius_cycle_type(f: MonicCubic | MonicQuartic, p: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors of f mod p, ascending.

    By Dedekind's theorem this is the cycle type of a Frobenius element of
    the Galois group, valid for primes p (including 2) not dividing disc(f).
    Then f mod p is squarefree, so deg gcd(f, X^p - X) counts its roots in
    F_p, which are its e1 linear factors.  The other n - e1 degrees carry no
    linear factor: 0, 2 or 3 of them form at most one factor, and 4 form
    (2, 2) exactly when all four roots lie in F_(p^2), that is when the
    squarefree f divides X^(p^2) - X, or X^(p^2) = X mod f, and (4,)
    otherwise.

    All arithmetic is in F_p[X] / F for the quartic F = f, or F = X f for a
    cubic, so both degrees share one code path; the root 0 that X adds is
    dropped from the count unless f(0) = 0 mod p.  The discriminant test
    runs on the coefficients reduced mod p, since disc(f) = disc(f mod p)
    mod p.  X^p mod F is built left to right by squaring and shifting.
    X^(p^2) mod F is then xp(xp) for xp = X^p mod F, by Horner: g -> g^p is
    a ring map of F_p[X] / F that fixes F_p, so (X^p)^p = xp(X)^p =
    xp(X^p) = xp(xp).  Products accumulate unreduced in Python ints and are
    folded to degree 3 along the rows X^4, X^5, X^6 mod F, then reduced mod
    p once per coefficient: every value stays an exact integer.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    quartic = isinstance(f, MonicQuartic)
    coeffs, rows = _p_frame(f, p)
    disc = disc_quartic_coeffs(*coeffs) if quartic else disc_cubic_coeffs(*coeffs[:3])
    if disc % p == 0:
        raise ValueError(f"p={p} divides the discriminant")
    xp = _p_xpow(rows, p)
    linear = _p_root_count(coeffs, xp, p)
    if not quartic and coeffs[2]:  # f(0) != 0 mod p: the root 0 is X's alone
        linear -= 1
    rest = len(f.coeffs()) - linear
    if rest == 4:
        return (2, 2) if _p_compose(xp, rows, p) == (0, 1, 0, 0) else (4,)
    return (1,) * linear + ((rest,) if rest else ())


# cycle types realizable by each transitive group, as subgroups of S_n
CYCLE_TYPES = {
    "S3": {(1, 1, 1), (1, 2), (3,)},
    "A3": {(1, 1, 1), (3,)},
    "S4": {(1, 1, 1, 1), (1, 1, 2), (2, 2), (1, 3), (4,)},
    "A4": {(1, 1, 1, 1), (2, 2), (1, 3)},
    "D4": {(1, 1, 1, 1), (1, 1, 2), (2, 2), (4,)},
    "V4": {(1, 1, 1, 1), (2, 2)},
    "C4": {(1, 1, 1, 1), (2, 2), (4,)},
}
