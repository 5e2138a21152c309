"""Galois group classification for monic integer cubics and quartics.

Discriminants and the invariants (I, J) are evaluated exactly; classification
follows the resolvent-cubic decision table for quartics and the square
discriminant test for cubics.  All user-facing coefficients are ordinary
Python ints, so nothing here can overflow; the documented input contract is
|coefficient| <= 10**6, which every formula below handles instantly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .exactarith import divisors, icbrt, is_prime, perfect_square

__all__ = [
    "MonicCubic",
    "MonicQuartic",
    "CubicClass",
    "QuarticGroup",
    "QuarticClass",
    "InvariantPair",
    "FactorWitness",
    "disc_cubic",
    "invariants_cubic",
    "classify_cubic",
    "resolvent",
    "disc_quartic",
    "disc_quartic_coeffs",
    "invariants_quartic",
    "reducibility_witness",
    "is_reducible_quartic",
    "classify_quartic",
    "integer_roots_monic_cubic",
    "frobenius_cycle_type",
]


@dataclass(frozen=True)
class MonicCubic:
    """X^3 + a X^2 + b X + c."""

    a: int
    b: int
    c: int

    def __call__(self, x: int) -> int:
        return ((x + self.a) * x + self.b) * x + self.c

    def coeffs(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class MonicQuartic:
    """X^4 + a X^3 + b X^2 + c X + d."""

    a: int
    b: int
    c: int
    d: int

    def __call__(self, x: int) -> int:
        return (((x + self.a) * x + self.b) * x + self.c) * x + self.d

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
    a, b, c = f.a, f.b, f.c
    return a * a * b * b - 4 * b**3 - 4 * a**3 * c + 18 * a * b * c - 27 * c * c


def invariants_cubic(f: MonicCubic) -> InvariantPair:
    """(I, J) with 27 * disc = 4 I^3 - J^2."""
    a, b, c = f.a, f.b, f.c
    return InvariantPair(a * a - 3 * b, 27 * c - 9 * a * b + 2 * a**3)


def _has_integer_root_cubic(f: MonicCubic) -> bool:
    # Monic, so rational roots are integers dividing the constant term.
    if f.c == 0:
        return True
    for t in divisors(f.c):
        if f(t) == 0 or f(-t) == 0:
            return True
    return False


def classify_cubic(f: MonicCubic) -> CubicClass:
    """Reducible / S3 / A3 via integer-root scan and the square-disc test."""
    if _has_integer_root_cubic(f):
        return CubicClass.REDUCIBLE
    disc = disc_cubic(f)
    if disc > 0 and perfect_square(disc) is not None:
        return CubicClass.A3
    return CubicClass.S3


def resolvent(f: MonicQuartic) -> MonicCubic:
    """Cubic resolvent X^3 - b X^2 + (ac - 4d) X - (a^2 d - 4bd + c^2)."""
    a, b, c, d = f.a, f.b, f.c, f.d
    return MonicCubic(-b, a * c - 4 * d, -(a * a * d - 4 * b * d + c * c))


def disc_quartic(f: MonicQuartic) -> int:
    return disc_quartic_coeffs(f.a, f.b, f.c, f.d)


def disc_quartic_coeffs(a, b, c, d):
    """Discriminant of X^4 + aX^3 + bX^2 + cX + d from raw coefficients.

    Works on ints and on Fractions alike, so identity checks with rational
    substitutions need not build a MonicQuartic per case.
    """
    a2, b2, c2, d2 = a * a, b * b, c * c, d * d
    a3, b3, c3 = a2 * a, b2 * b, c2 * c
    return (
        a2 * b2 * c2
        - 4 * b3 * c2
        - 4 * a3 * c3
        + 18 * a * b * c3
        - 27 * c2 * c2
        - 4 * a2 * b3 * d
        + 16 * b2 * b2 * d
        + 18 * a3 * b * c * d
        - 80 * a * b2 * c * d
        - 6 * a2 * c2 * d
        + 144 * b * c2 * d
        - 27 * a2 * a2 * d2
        + 144 * a2 * b * d2
        - 128 * b2 * d2
        - 192 * a * c * d2
        + 256 * d2 * d
    )


def invariants_quartic(f: MonicQuartic) -> InvariantPair:
    """(I, J) with 27 * disc = 4 I^3 - J^2."""
    a, b, c, d = f.a, f.b, f.c, f.d
    i = 12 * d - 3 * a * c + b * b
    j = 72 * b * d + 9 * a * b * c - 27 * c * c - 27 * a * a * d - 2 * b**3
    return InvariantPair(i, j)


def reducibility_witness(f: MonicQuartic) -> FactorWitness | None:
    """A factor witness when f is reducible over Z, else None.

    Integer roots are scanned as divisors of d; quadratic splits
    (X^2+pX+q)(X^2+rX+s) as divisor pairs q*s = d with p+r = a, pr = b-q-s,
    checked against ps + qr = c.
    """
    a, b, c, d = f.a, f.b, f.c, f.d
    if d == 0:
        return FactorWitness("root", (0,))
    for t in divisors(d):
        if f(t) == 0:
            return FactorWitness("root", (t,))
        if f(-t) == 0:
            return FactorWitness("root", (-t,))
    for t in divisors(d):
        for q in (t, -t):
            s = d // q
            disc = a * a - 4 * (b - q - s)
            sq = perfect_square(disc)
            if sq is None:
                continue
            for root in {(a + sq), (a - sq)}:
                if root % 2:
                    continue
                p = root // 2
                r = a - p
                if p * s + q * r == c:
                    return FactorWitness("split", (p, q, r, s))
    return None


def is_reducible_quartic(f: MonicQuartic) -> bool:
    return reducibility_witness(f) is not None


def _eval_monic_cubic(p: int, q: int, r: int, x: int) -> int:
    return ((x + p) * x + q) * x + r


def integer_roots_monic_cubic(p: int, q: int, r: int) -> list[int]:
    """All integer roots of X^3 + p X^2 + q X + r, ascending.

    Exact bisection on the monotone pieces cut out by the critical points of
    the cubic; every evaluation is integer arithmetic, so the scan is correct
    at any coefficient size (the resolvent constant term reaches ~10^18 under
    the coefficient contract, where divisor scans would need a factorization).
    """
    # Fujiwara: every complex root has |x| <= 2 max(|p|, |q|^(1/2), |r|^(1/3)).
    bound = 2 * max(abs(p), math.isqrt(abs(q)) + 1, icbrt(abs(r)) + 1, 1) + 1
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
    r = resolvent(f)
    return integer_roots_monic_cubic(r.a, r.b, r.c)


def classify_quartic(f: MonicQuartic) -> QuarticClass:
    """Kappe-Warren classification of a monic integer quartic.

    Order of tests: reducibility; then square discriminant and resolvent
    roots split S4/A4/V4 from the D4/C4 branch; D4 and C4 are separated by
    whether both (x^2-4d)*disc and (a^2-4(b-x))*disc are perfect squares,
    x being the resolvent root (unique in this branch).
    """
    if reducibility_witness(f) is not None:
        return QuarticClass(QuarticGroup.REDUCIBLE)
    disc = disc_quartic(f)
    square = disc > 0 and perfect_square(disc) is not None
    roots = resolvent_integer_roots(f)
    if square:
        if roots:
            return QuarticClass(QuarticGroup.V4)
        return QuarticClass(QuarticGroup.A4)
    if not roots:
        return QuarticClass(QuarticGroup.S4)
    x = roots[0]
    t1 = (x * x - 4 * f.d) * disc
    t2 = (f.a * f.a - 4 * (f.b - x)) * disc
    if perfect_square(t1) is not None and perfect_square(t2) is not None:
        return QuarticClass(QuarticGroup.C4, x)
    return QuarticClass(QuarticGroup.D4, x)


# ---------------------------------------------------------------------------
# Frobenius cycle types mod p (independent cross-check of the classifier)

def _p_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f

def _p_monic(f: list[int], p: int) -> list[int]:
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _p_mulmod(f: list[int], g: list[int], m: list[int], p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return _p_rem(out, m, p)


def _p_rem(f: list[int], m: list[int], p: int) -> list[int]:
    f = _p_trim(f[:])
    dm = len(m) - 1
    inv = pow(m[-1], -1, p)
    while len(f) - 1 >= dm:
        k = len(f) - 1 - dm
        q = f[-1] * inv % p
        for i, mi in enumerate(m):
            f[k + i] = (f[k + i] - q * mi) % p
        f.pop()
        _p_trim(f)
    return f


def _p_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    while g:
        f, g = g, _p_rem(f, g, p)
    return _p_monic(f, p) if f else f


def _p_powx(e: int, m: list[int], p: int) -> list[int]:
    result, base = [1], _p_rem([0, 1], m, p)
    while e:
        if e & 1:
            result = _p_mulmod(result, base, m, p)
        base = _p_mulmod(base, base, m, p)
        e >>= 1
    return result


def frobenius_cycle_type(f: MonicCubic | MonicQuartic, p: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors of f mod p, ascending.

    Distinct-degree factorization: gcds with X^(p^k) - X strip the degree-k
    factors.  By Dedekind's theorem the result is the cycle type of a
    Frobenius element of the Galois group, valid for primes p (including 2)
    not dividing disc(f).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    disc = disc_cubic(f) if isinstance(f, MonicCubic) else disc_quartic(f)
    if disc % p == 0:
        raise ValueError(f"p={p} divides the discriminant")
    rem = [c % p for c in f.coeffs()[::-1]] + [1]  # ascending, monic
    parts: list[int] = []
    k = 0
    while len(rem) - 1 > 0:
        k += 1
        if 2 * k > len(rem) - 1:
            # all factors of degree < k are gone, so the remainder is irreducible
            parts.append(len(rem) - 1)
            break
        xq = _p_powx(p**k, rem, p)
        while len(xq) < 2:
            xq.append(0)
        xq[1] = (xq[1] - 1) % p  # X^(p^k) - X
        g = _p_gcd(rem[:], _p_trim(xq), p)
        if len(g) > 1:
            parts.extend([k] * ((len(g) - 1) // k))
            rem = _p_quotient(rem, g, p)
    return tuple(sorted(parts))


def _p_quotient(f: list[int], g: list[int], p: int) -> list[int]:
    f = _p_trim(f[:])
    out = [0] * max(len(f) - len(g) + 1, 1)
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g):
        k = len(f) - len(g)
        q = f[-1] * inv % p
        out[k] = q
        for i, gi in enumerate(g):
            f[k + i] = (f[k + i] - q * gi) % p
        f.pop()
        _p_trim(f)
    return _p_trim(out) or [0]


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
