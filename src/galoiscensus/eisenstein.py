"""Arithmetic in Z[zeta] (zeta = (-1+sqrt(-3))/2) and the parametrization
of J^2 + 3 Y^2 = 4 I^3 attached to A3 cubics.

An element m + n*zeta is stored as the integer pair (m, n); multiplication
uses zeta^2 = -1 - zeta.  In half-coordinates (q, r) = (2m - n, n) the same
element reads (q + r*sqrt(-3))/2 with q = r (mod 2), which is the shape the
parametrization formulas are written in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .classify import CubicClass, MonicCubic, classify_cubic, disc_cubic, invariants_cubic
from .exactarith import cubefree_decompose, factorize

__all__ = [
    "EisInt",
    "EisensteinError",
    "WitnessError",
    "ParamWitness",
    "eis_gcd",
    "eis_factor",
    "eis_cubefree_decompose",
    "canonical_associate",
    "param_xy",
    "parametrize_cubic_witness",
    "surface_family_point",
]


class EisensteinError(ValueError):
    pass


@dataclass(frozen=True)
class EisInt:
    """m + n*zeta with zeta = (-1 + sqrt(-3))/2."""

    m: int
    n: int

    def __add__(self, other: "EisInt") -> "EisInt":
        return EisInt(self.m + other.m, self.n + other.n)

    def __sub__(self, other: "EisInt") -> "EisInt":
        return EisInt(self.m - other.m, self.n - other.n)

    def __mul__(self, other: "EisInt") -> "EisInt":
        a, b, c, d = self.m, self.n, other.m, other.n
        return EisInt(a * c - b * d, a * d + b * c - b * d)

    def __neg__(self) -> "EisInt":
        return EisInt(-self.m, -self.n)

    def __bool__(self) -> bool:
        return self.m != 0 or self.n != 0

    def conj(self) -> "EisInt":
        return EisInt(self.m - self.n, -self.n)

    def norm(self) -> int:
        return self.m * self.m - self.m * self.n + self.n * self.n

    def half_coords(self) -> tuple[int, int]:
        """(q, r) with self = (q + r*sqrt(-3))/2; always q = r (mod 2)."""
        return 2 * self.m - self.n, self.n

    def __str__(self) -> str:
        return f"{self.m}{self.n:+d}*zeta"


ONE = EisInt(1, 0)
ZETA = EisInt(0, 1)
SQRT_M3 = EisInt(1, 2)  # sqrt(-3) = 1 + 2*zeta
UNITS = (EisInt(1, 0), EisInt(0, 1), EisInt(-1, -1), EisInt(-1, 0), EisInt(0, -1), EisInt(1, 1))
LAMBDA = EisInt(2, 1)  # canonical associate of 1 - zeta, the prime over 3


def canonical_associate(z: EisInt) -> EisInt:
    """The unique associate of z != 0 with 0 <= n < m (the 60-degree sector)."""
    if not z:
        raise EisensteinError("zero has no canonical associate")
    for u in UNITS:
        w = z * u
        if 0 <= w.n < w.m:
            return w
    raise AssertionError("unit orbit missed the canonical sector")  # pragma: no cover


def eis_divmod(a: EisInt, b: EisInt) -> tuple[EisInt, EisInt]:
    """Quotient and remainder with norm(rem) <= 3/4 norm(b)."""
    if not b:
        raise ZeroDivisionError("division by zero in Z[zeta]")
    nb = b.norm()
    num = a * b.conj()
    # nearest-integer rounding of each coordinate keeps the remainder small
    qm = (2 * num.m + nb) // (2 * nb)
    qn = (2 * num.n + nb) // (2 * nb)
    q = EisInt(qm, qn)
    return q, a - q * b


def eis_exact_div(a: EisInt, b: EisInt) -> EisInt | None:
    """a / b when b divides a exactly, else None."""
    if not b:
        raise ZeroDivisionError("division by zero in Z[zeta]")
    nb = b.norm()
    num = a * b.conj()
    if num.m % nb or num.n % nb:
        return None
    return EisInt(num.m // nb, num.n // nb)


def eis_gcd(a: EisInt, b: EisInt) -> EisInt:
    """Euclidean gcd, returned as the canonical associate."""
    if not a and not b:
        raise EisensteinError("gcd(0, 0) is undefined")
    while b:
        _, r = eis_divmod(a, b)
        a, b = b, r
    return canonical_associate(a)


def _split_prime_above(p: int) -> EisInt:
    """A prime element of norm p, for a rational prime p = 1 (mod 3)."""
    # q^2 + 3 r^2 = 4p with q = r (mod 2) gives (q + r sqrt(-3))/2 of norm p
    for r in range(1, math.isqrt(4 * p // 3) + 1):
        t = 4 * p - 3 * r * r
        q = math.isqrt(t)
        if q * q == t and (q - r) % 2 == 0:
            return canonical_associate(EisInt((q + r) // 2, r))
    raise AssertionError(f"no Eisenstein prime above {p}")  # pragma: no cover


def _divide_out(z: EisInt, prime: EisInt) -> tuple[EisInt, int]:
    """(z / prime^k, k) for the largest k with prime^k dividing z != 0."""
    k = 0
    while (quotient := eis_exact_div(z, prime)) is not None:
        z, k = quotient, k + 1
    return z, k


def eis_factor(z: EisInt) -> tuple[EisInt, tuple[tuple[EisInt, int], ...]]:
    """(unit, ((prime, exponent), ...)) with canonical primes, deterministic order.

    Rational primes behave by residue mod 3: p = 3 ramifies as (1-zeta)^2 up
    to a unit, p = 2 (mod 3) stays inert, and p = 1 (mod 3) splits into a
    conjugate pair of norm-p primes.
    """
    if not z:
        raise EisensteinError("cannot factor zero")
    rest = z
    found: list[tuple[EisInt, int]] = []
    for p, _ in factorize(z.norm()).factors:
        if p == 3:
            primes = (LAMBDA,)
        elif p % 3 == 2:
            primes = (EisInt(p, 0),)
        else:
            pi = _split_prime_above(p)
            primes = (pi, canonical_associate(pi.conj()))
        for prime in primes:
            rest, k = _divide_out(rest, prime)
            if k:
                found.append((prime, k))
    if rest.norm() != 1:
        raise AssertionError(f"non-unit cofactor {rest} left over")  # pragma: no cover
    found.sort(key=lambda t: (t[0].norm(), t[0].m, t[0].n))
    return rest, tuple(found)


def eis_cubefree_decompose(z: EisInt) -> tuple[EisInt, EisInt]:
    """z = d * alpha^3 with d cubefree; alpha is the canonical associate of
    the extracted cube root and d = z / alpha^3 exactly."""
    if not z:
        raise EisensteinError("cannot decompose zero")
    _, primes = eis_factor(z)
    alpha = ONE
    for prime, e in primes:
        for _ in range(e // 3):
            alpha = alpha * prime
    alpha = canonical_associate(alpha) if alpha else ONE
    cube = alpha * alpha * alpha
    d = eis_exact_div(z, cube)
    if d is None:  # pragma: no cover
        raise AssertionError("cube part does not divide its source")
    return d, alpha


def param_xy(q: int, r: int, s: int, t: int) -> tuple[int, int]:
    """(16x, 16y) for x + y sqrt(-3) = d * alpha^3 in half-coordinates.

    d = (q + r sqrt(-3))/2 and alpha = (s + t sqrt(-3))/2 require q = r and
    s = t (mod 2).
    """
    if (q - r) % 2 or (s - t) % 2:
        raise EisensteinError("half-coordinates need q = r and s = t (mod 2)")
    x16 = q * (s**3 - 9 * s * t * t) + 9 * r * (t**3 - s * s * t)
    y16 = 3 * q * (s * s * t - t**3) + r * (s**3 - 9 * s * t * t)
    return x16, y16


def surface_family_point(s: int, t: int) -> tuple[int, int, int]:
    """A parametrized solution (J, Y, I) of J^2 + 3 Y^2 = 4 I^3."""
    return (
        2 * s**3 - 18 * s * t * t,
        6 * t * (s - t) * (s + t),
        s * s + 3 * t * t,
    )


class WitnessError(ValueError):
    pass


@dataclass(frozen=True)
class ParamWitness:
    """The full common-divisor extraction chain certifying one A3 cubic.

    Chain: Y = 3 sqrt(disc); g = gcd(J, Y) = u v^3 with u cubefree;
    J = g x, Y = g y, 2I = (u v^2) z; then 2(x^2 + 3y^2) = u z^3 and
    x + y sqrt(-3) = d alpha^3 with d cubefree in Z[zeta], recorded in
    half-coordinates (q, r) and (s, t).
    """

    cubic: MonicCubic
    I: int
    J: int
    Y: int
    disc: int
    g: int
    u: int
    v: int
    x: int
    y: int
    z: int
    d: EisInt
    alpha: EisInt
    q: int
    r: int
    s: int
    t: int
    conjugate_used: bool

    def verify(self) -> None:
        """Check every invariant; raises WitnessError with the failing one."""
        checks = [
            ("disc matches cubic", self.disc == disc_cubic(self.cubic)),
            ("Y = 3 sqrt(disc) > 0", self.Y > 0 and self.Y * self.Y == 9 * self.disc),
            ("J^2 + 3Y^2 = 4I^3", self.J**2 + 3 * self.Y**2 == 4 * self.I**3),
            ("g = gcd(J, Y)", self.g == math.gcd(self.J, self.Y)),
            ("g = u v^3", self.g == self.u * self.v**3 and self.u > 0 and self.v > 0),
            ("u cubefree", cubefree_decompose(self.u)[1] == 1),
            ("J = g x", self.J == self.g * self.x),
            ("Y = g y", self.Y == self.g * self.y and self.y > 0),
            ("2I = u v^2 z", 2 * self.I == self.u * self.v * self.v * self.z),
            ("gcd(x, y) = 1", math.gcd(self.x, self.y) == 1),
            ("2(x^2+3y^2) = u z^3", 2 * (self.x**2 + 3 * self.y**2) == self.u * self.z**3),
            (
                "x + y sqrt(-3) = d alpha^3",
                EisInt(self.x + self.y, 2 * self.y)
                == self.d * self.alpha * self.alpha * self.alpha,
            ),
            ("d cubefree in Z[zeta]", _eis_is_cubefree(self.d)),
            ("(q, r) are half-coords of d", (self.q, self.r) == self.d.half_coords()),
            ("(s, t) are half-coords of alpha", (self.s, self.t) == self.alpha.half_coords()),
            (
                "16x from parametrization",
                param_xy(self.q, self.r, self.s, self.t) == (16 * self.x, 16 * self.y),
            ),
            (
                "u (8z)^3 = 4 (q^2+3r^2)(s^2+3t^2)^3",
                self.u * (8 * self.z) ** 3
                == 4 * (self.q**2 + 3 * self.r**2) * (self.s**2 + 3 * self.t**2) ** 3,
            ),
        ]
        for name, ok in checks:
            if not ok:
                raise WitnessError(f"witness invariant failed: {name}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "cubic": list(self.cubic.coeffs()),
                "I": self.I,
                "J": self.J,
                "Y": self.Y,
                "disc": self.disc,
                "g": self.g,
                "u": self.u,
                "v": self.v,
                "x": self.x,
                "y": self.y,
                "z": self.z,
                "d": [self.d.m, self.d.n],
                "alpha": [self.alpha.m, self.alpha.n],
                "q": self.q,
                "r": self.r,
                "s": self.s,
                "t": self.t,
                "conjugate_used": self.conjugate_used,
            }
        )


def _eis_is_cubefree(z: EisInt) -> bool:
    if not z:
        return False
    _, primes = eis_factor(z)
    return all(e < 3 for _, e in primes)


def parametrize_cubic_witness(f: MonicCubic) -> ParamWitness:
    """Run the full parametrization chain for an A3 cubic and verify it.

    Both conjugates x +- y sqrt(-3) admit cubefree decompositions; the one
    whose cubefree part has the smaller norm is recorded (ties prefer the
    + conjugate), since that is the side the parameter-size analysis needs.
    """
    if classify_cubic(f) is not CubicClass.A3:
        raise WitnessError(f"{f} is not an A3 cubic")
    I, J = invariants_cubic(f)
    disc = disc_cubic(f)
    Y = 3 * math.isqrt(disc)
    g = math.gcd(J, Y)
    u, v = cubefree_decompose(g)
    g_tilde = u * v * v
    if (2 * I) % g_tilde:
        raise WitnessError("u v^2 does not divide 2I")  # unreachable if u cubefree
    x, y, z = J // g, Y // g, (2 * I) // g_tilde

    plus = EisInt(x + y, 2 * y)  # x + y sqrt(-3)
    d_p, a_p = eis_cubefree_decompose(plus)
    d_m, a_m = eis_cubefree_decompose(plus.conj())
    if d_m.norm() < d_p.norm():
        d, alpha, conj_used = d_m.conj(), a_m.conj(), True
    else:
        d, alpha, conj_used = d_p, a_p, False

    q, r = d.half_coords()
    s, t = alpha.half_coords()
    witness = ParamWitness(
        cubic=f, I=I, J=J, Y=Y, disc=disc, g=g, u=u, v=v, x=x, y=y, z=z,
        d=d, alpha=alpha, q=q, r=r, s=s, t=t, conjugate_used=conj_used,
    )
    witness.verify()
    return witness
