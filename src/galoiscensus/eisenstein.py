"""Arithmetic in Z[zeta] (zeta = (-1+sqrt(-3))/2) and the parametrization
of J^2 + 3 Y^2 = 4 I^3 attached to A3 cubics.

An element m + n*zeta is stored as the integer pair (m, n); multiplication
uses zeta^2 = -1 - zeta.  In half-coordinates (q, r) = (2m - n, n) the same
element reads (q + r*sqrt(-3))/2 with q = r (mod 2), which is the shape the
parametrization formulas are written in.

Elements are plain (m, n) int pairs everywhere, the witness record's d and
alpha included, and the ring operations live once, on those pairs.  The
witness chain finds the cube part of x + y sqrt(-3) from the factorization
of the chain's z alone (the argument is in `_cube_root_part`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .classify import CubicClass, MonicCubic, classify_cubic, disc_cubic, invariants_cubic
from .exactarith import cubefree_decompose, factorize

__all__ = [
    "EisensteinError",
    "WitnessError",
    "ParamWitness",
    "half_coords",
    "canonical_associate",
    "param_xy",
    "parametrize_cubic_witness",
]


class EisensteinError(ValueError):
    pass


def _mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """(a0 + a1 zeta)(b0 + b1 zeta) on (m, n) pairs, with zeta^2 = -1 - zeta."""
    (a0, a1), (b0, b1) = a, b
    return a0 * b0 - a1 * b1, a0 * b1 + a1 * b0 - a1 * b1


def _conj(a: tuple[int, int]) -> tuple[int, int]:
    return a[0] - a[1], -a[1]


def _norm(a: tuple[int, int]) -> int:
    m, n = a
    return m * m - m * n + n * n


def _exact_div(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int] | None:
    """a / b on (m, n) pairs when b != 0 divides a exactly, else None."""
    nb = _norm(b)
    m, n = _mul(a, _conj(b))
    if m % nb or n % nb:
        return None
    return m // nb, n // nb


def half_coords(a: tuple[int, int]) -> tuple[int, int]:
    """(q, r) with m + n zeta = (q + r sqrt(-3))/2; always q = r (mod 2)."""
    return 2 * a[0] - a[1], a[1]


def canonical_associate(z: tuple[int, int]) -> tuple[int, int]:
    """The unique associate of z != 0 with 0 <= n < m (the 60-degree sector)."""
    m, n = z
    if m == n == 0:
        raise EisensteinError("zero has no canonical associate")
    for _ in range(6):
        if 0 <= n < m:
            return m, n
        m, n = m - n, m  # times the unit 1 + zeta, of order 6
    raise AssertionError("unit orbit missed the canonical sector")  # pragma: no cover


def _split_prime_above(p: int) -> tuple[int, int]:
    """A prime element of norm p, for a rational prime p = 1 (mod 3)."""
    # q^2 + 3 r^2 = 4p with q = r (mod 2) gives (q + r sqrt(-3))/2 of norm p
    for r in range(1, math.isqrt(4 * p // 3) + 1):
        t = 4 * p - 3 * r * r
        q = math.isqrt(t)
        if q * q == t and (q - r) % 2 == 0:
            return canonical_associate(((q + r) // 2, r))
    raise AssertionError(f"no Eisenstein prime above {p}")  # pragma: no cover


def _cube_root_part(x: int, y: int, z: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(d, alpha) with x + y sqrt(-3) = d alpha^3, d cubefree in Z[zeta] and
    alpha canonical, for the chain's coprime x, y with 2(x^2 + 3y^2) = u z^3
    and u cubefree.

    The element's norm N = x^2 + 3y^2 = u z^3 / 2 reaches 6.5e10 at height
    100, but only z (at most 2,654 there) needs factoring.  Each rational
    prime p gives the element's exponents at the primes above it:
    - p = 3 ramifies, 3 = -zeta^2 lambda^2 with N(lambda) = 3, so
      v_lambda = v_3(N);
    - p = 2 (mod 3) stays prime with N(p) = p^2, so v_p = v_p(N) / 2;
    - p = 1 (mod 3) splits into pi and conj(pi) of norm p, and
      v_pi + v_conj(pi) = v_p(N).
    A rational prime p dividing the element divides x + y and 2y, so p = 2,
    as gcd(x, y) = 1; 4 does not divide it, since 2 | y and 2 | x would
    follow.  So v_lambda <= 1 (lambda^2 is an associate of 3), an inert p
    has v_p <= 1, and at most one of pi and conj(pi) divides the element,
    with exponent v_p(N); one exact division by pi picks which.  No cube of
    a ramified or inert prime divides the element, and a split p has
    v_p(N) = v_p(u) + 3 v_p(z) with v_p(u) <= 2, so its cube part is
    pi^(v_p(z)).  An odd p | z has v_p(N) >= 3, so it is split.  Hence
    alpha is the product of pi^(v_p(z)) over the odd p | z, canonicalized,
    N(alpha) is the odd part of z, and
    d = element / alpha^3 is an exact division.  Both are unique, so they
    equal what a full factorization of the element in Z[zeta] gives.
    """
    element = (x + y, 2 * y)
    alpha = (1, 0)
    for p, k in factorize(z):
        if p == 2:
            continue
        prime = _split_prime_above(p)
        if _exact_div(element, prime) is None:
            prime = _conj(prime)
        for _ in range(k):
            alpha = _mul(alpha, prime)
    alpha = canonical_associate(alpha)
    d = _exact_div(element, _mul(_mul(alpha, alpha), alpha))
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
    d: tuple[int, int]
    alpha: tuple[int, int]
    q: int
    r: int
    s: int
    t: int

    def verify(self) -> None:
        """Check every invariant; raises WitnessError with the failing one.

        "d cubefree in Z[zeta]" is decided from the factorization of N(d),
        independently of how d was built.  Each rational prime p dividing
        N(d) lies under primes of Z[zeta] by its residue mod 3:
        - p = 3 ramifies, 3 = -zeta^2 lambda^2 with N(lambda) = 3, so
          v_lambda(d) = v_3(N(d)) and d is lambda-cubefree iff v_3(N) < 3;
        - p = 2 (mod 3) stays prime with N(p) = p^2, so v_p(N) = 2 v_p(d)
          and d is p-cubefree iff v_p(N) < 6;
        - p = 1 (mod 3) splits into pi and conj(pi) of norm p, so
          v_p(N) = v_pi(d) + v_conj(pi)(d).  If v_p(N) < 3 both are below 3;
          otherwise exact division of d by pi^3 and by conj(pi)^3 decides.
        """
        d, alpha = self.d, self.alpha
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
                _mul(_mul(_mul(d, alpha), alpha), alpha) == (self.x + self.y, 2 * self.y),
            ),
            ("d cubefree in Z[zeta]", _eis_is_cubefree(d)),
            ("(q, r) are half-coords of d", (self.q, self.r) == half_coords(d)),
            ("(s, t) are half-coords of alpha", (self.s, self.t) == half_coords(alpha)),
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
        """One JSON object of the fields in declaration order; the cubic as
        its coefficient list, d and alpha as [m, n]."""
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps({**record, "cubic": list(self.cubic.coeffs())})


def _eis_is_cubefree(z: tuple[int, int]) -> bool:
    """True iff no prime cube divides z, read off the factorization of N(z)
    (the argument is in ParamWitness.verify)."""
    norm = _norm(z)
    if norm == 0:
        return False
    for p, e in factorize(norm):
        if p % 3 == 2:
            if e >= 6:
                return False
        elif e >= 3:
            if p == 3:
                return False
            pi = _split_prime_above(p)
            for prime in (pi, _conj(pi)):
                if _exact_div(z, _mul(_mul(prime, prime), prime)) is not None:
                    return False
    return True


def parametrize_cubic_witness(f: MonicCubic) -> ParamWitness:
    """Run the full parametrization chain for an A3 cubic and verify it.

    Only x + y sqrt(-3) is decomposed.  Its conjugate would give a cubefree
    part of the same norm: conjugation maps each Eisenstein prime to a prime
    with the same exponent, so the conjugate's cube root alpha' is an
    associate of conj(alpha), and N(d') = N(x + y sqrt(-3)) / N(alpha)^3 =
    N(d).  The parameter-size analysis, which wants the smaller norm, loses
    nothing.
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

    d, alpha = _cube_root_part(x, y, z)
    q, r = half_coords(d)
    s, t = half_coords(alpha)
    witness = ParamWitness(
        cubic=f, I=I, J=J, Y=Y, disc=disc, g=g, u=u, v=v, x=x, y=y, z=z,
        d=d, alpha=alpha, q=q, r=r, s=s, t=t,
    )
    witness.verify()
    return witness
