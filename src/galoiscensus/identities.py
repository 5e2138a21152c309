"""Exact verification of the algebraic identities behind the classification
counts, plus brute-force integer-point scans for the associated curves and
surfaces.

Everything is checked with integer or rational arithmetic; the suites return
a report listing every failing case (expected: none, these are identities).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .classify import (
    MonicQuartic,
    disc_quartic_coeffs,
    integer_roots_monic_cubic,
    invariants_quartic,
    resolvent,
)
from .exactarith import perfect_square

__all__ = [
    "CurveSpec",
    "SurfaceSpec",
    "VerificationReport",
    "check_symmetry_identity",
    "check_star_identity",
    "curve_points",
    "curve_points_by_y",
    "curve_is_reducible",
    "c4_curve_check",
    "surface_eval",
    "surface_eval_defining",
    "surface_points",
    "disc_F_identity",
    "symmetry_suite",
    "star_suite",
    "disc_F_suite",
    "surface_suite",
    "run_suites",
]


@dataclass(frozen=True)
class CurveSpec:
    """The curve (8x - (a^2 + u w^2))^2 - (4a^2 u w^2 + 64 u v^2 + s*32 a u v w) = y^2.

    sign = +1 pairs with the reducibility locus a w = -4 v, i.e. the
    subtracted constant is 4u (a w + 4 s v)^2.
    """

    u: int
    v: int
    w: int
    a: int
    sign: int = 1

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def shift(self) -> int:
        return self.a * self.a + self.u * self.w * self.w

    def box_constant(self) -> int:
        u, v, w, a, s = self.u, self.v, self.w, self.a, self.sign
        return 4 * a * a * u * w * w + 64 * u * v * v + s * 32 * a * u * v * w


@dataclass(frozen=True)
class SurfaceSpec:
    """The affine surface of (a, c, d) sharing quartic invariants (I, J)."""

    I: int
    J: int

    def __post_init__(self) -> None:
        if 4 * self.I**3 == self.J**2:
            raise ValueError("degenerate invariants: 4I^3 = J^2")


@dataclass
class VerificationReport:
    identity: str
    window: int
    cases_checked: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return json.dumps(
            {
                "identity_name": self.identity,
                "window": self.window,
                "cases_checked": self.cases_checked,
                "failures": self.failures,
            }
        )


def check_symmetry_identity(x: int, a: int, c: int, d: int, e: int) -> bool:
    """(x^2 - 4d)(a^2 - 4e) == (x a - 2c)^2."""
    return (x * x - 4 * d) * (a * a - 4 * e) == (x * a - 2 * c) ** 2


def _star_rhs(u: int, v: int, w: int, x: int, a: int, sign: int) -> int:
    return (
        a**4
        - 64 * u * v * v
        - sign * 32 * a * u * v * w
        - 2 * a * a * u * w * w
        + u * u * w**4
        - 16 * a * a * x
        - 16 * u * w * w * x
        + 64 * x * x
    )


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


def _star_check_scaled(u: int, v: int, w: int, x: int, a: int, sign: int) -> bool:
    """Integer-only route: disc of the 2-rescaled quartic X^4 + 2a X^3 + 4b X^2
    + 8c X + 16d (integral whenever 4d, 4b, 2c are), using disc(F) = 4^6 disc(f)."""
    d16 = 4 * (x * x - u * v * v)
    b4 = 4 * x + a * a - u * w * w
    c8 = 4 * (x * a + sign * u * v * w)
    disc_f = disc_quartic_coeffs(2 * a, b4, c8, d16)
    factor = u * (2 * v * v + sign * a * v * w + w * w * x)
    return disc_f == 64 * factor * factor * _star_rhs(u, v, w, x, a, sign)


def curve_is_reducible(spec: CurveSpec) -> bool:
    """True iff the curve degenerates to a pair of lines: a w = -4 s v."""
    if spec.u == 0:
        raise ValueError("u must be nonzero")
    return spec.a * spec.w + 4 * spec.sign * spec.v == 0


def curve_points(spec: CurveSpec, xmax: int, ymax: int) -> list[tuple[int, int]]:
    """All integer points with |x| <= xmax, |y| <= ymax, by x-major scan."""
    k, m = spec.shift(), spec.box_constant()
    pts = []
    for x in range(-xmax, xmax + 1):
        t = (8 * x - k) ** 2 - m
        y = perfect_square(t)
        if y is None or y > ymax:
            continue
        pts.append((x, y))
        if y:
            pts.append((x, -y))
    return sorted(pts)


def curve_points_by_y(spec: CurveSpec, xmax: int, ymax: int) -> list[tuple[int, int]]:
    """Transposed enumeration (y-major), an independent oracle for curve_points."""
    k, m = spec.shift(), spec.box_constant()
    pts = set()
    for y in range(0, ymax + 1):
        t = y * y + m
        if t < 0:
            continue
        root = perfect_square(t)
        if root is None:
            continue
        for signed in {root, -root}:
            num = signed + k
            if num % 8 == 0 and abs(num // 8) <= xmax:
                pts.add((num // 8, y))
                pts.add((num // 8, -y))
    return sorted(pts)


def c4_curve_check(spec: CurveSpec, x: int, y: int) -> bool:
    """u((8x - (a^2 + u w^2))^2 - 4u (a w + 4 s v)^2) == y^2."""
    if spec.u == 0:
        raise ValueError("u must be nonzero")
    lin = spec.a * spec.w + 4 * spec.sign * spec.v
    lhs = spec.u * ((8 * x - spec.shift()) ** 2 - 4 * spec.u * lin * lin)
    return lhs == y * y


def surface_eval(spec: SurfaceSpec, a: int, c: int, d: int) -> int:
    """g(a, c, d) = c3 d^3 + c2 d^2 + c1 d + c0 with the fixed coefficient
    polynomials; zero exactly on quartics with invariants (I, J)."""
    I, J = spec.I, spec.J
    c3 = -110592
    c2 = -729 * a**4 + 20736 * a * c + 13824 * I
    c1 = 162 * a * a * c * c - 54 * a * a * J - 432 * a * c * I - 432 * I * I
    c0 = (
        27 * a**3 * c**3
        - 729 * c**4
        - 54 * c * c * J
        - J * J
        - 27 * a * a * c * c * I
        + 4 * I**3
    )
    return ((c3 * d + c2) * d + c1) * d + c0


def surface_eval_defining(spec: SurfaceSpec, a: int, c: int, d: int) -> int:
    """The defining form (I - 12d + 3ac)(96d + 3ac - 2I)^2 - (J + 27c^2 + 27a^2 d)^2."""
    I, J = spec.I, spec.J
    return (I - 12 * d + 3 * a * c) * (96 * d + 3 * a * c - 2 * I) ** 2 - (
        J + 27 * c * c + 27 * a * a * d
    ) ** 2


def surface_points(spec: SurfaceSpec, bound: int) -> list[tuple[int, int, int]]:
    """All integer zeros of g in [-bound, bound]^3; the polynomial is a true
    cubic in d (leading coefficient -110592), so each (a, c) stops after
    three hits."""
    pts = []
    for a in range(-bound, bound + 1):
        for c in range(-bound, bound + 1):
            hits = 0
            for d in range(-bound, bound + 1):
                if surface_eval(spec, a, c, d) == 0:
                    pts.append((a, c, d))
                    hits += 1
                    if hits == 3:
                        break
    return pts


def disc_F_identity(q: int, r: int) -> bool:
    """disc(r X^3 + 3q X^2 - 9r X - 3q) == (18 (q^2 + 3 r^2))^2 for r != 0."""
    if r == 0:
        raise ValueError("r must be nonzero (the polynomial must stay cubic)")
    # general cubic a X^3 + b X^2 + c X + d
    a, b, c, d = r, 3 * q, -9 * r, -3 * q
    disc = (
        18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d
    )
    return disc == (18 * (q * q + 3 * r * r)) ** 2


# ---------------------------------------------------------------------------
# suites

def symmetry_suite(window: int = 6) -> VerificationReport:
    """Eq-(3.3) instances: every quartic of height <= window contributes one
    case per integer root x of its resolvent, with e = b - x."""
    rep = VerificationReport("symmetry", window, 0)
    rng = range(-window, window + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    res = resolvent(MonicQuartic(a, b, c, d))
                    for x in integer_roots_monic_cubic(res.a, res.b, res.c):
                        rep.cases_checked += 1
                        if not check_symmetry_identity(x, a, c, d, b - x):
                            rep.failures.append({"coeffs": [a, b, c, d], "x": x})
    return rep


def star_suite(window: int = 6) -> VerificationReport:
    """The cleared-denominator discriminant factorization on the full
    (u, v, w, x, a) window, both signs."""
    rep = VerificationReport("star", window, 0)
    rng = range(-window, window + 1)
    for u in rng:
        for v in rng:
            for w in rng:
                for x in rng:
                    for a in rng:
                        for sign in (1, -1):
                            rep.cases_checked += 1
                            if not _star_check_scaled(u, v, w, x, a, sign):
                                rep.failures.append(
                                    {"u": u, "v": v, "w": w, "x": x, "a": a, "sign": sign}
                                )
    return rep


def disc_F_suite(window: int = 50) -> VerificationReport:
    rep = VerificationReport("discF", window, 0)
    for q in range(-window, window + 1):
        for r in range(-window, window + 1):
            if r == 0:
                continue
            rep.cases_checked += 1
            if not disc_F_identity(q, r):
                rep.failures.append({"q": q, "r": r})
    return rep


def surface_suite(window: int = 6) -> VerificationReport:
    """Every quartic of height <= window with nondegenerate invariants lies
    on its own surface: g(a, c, d) = 0."""
    rep = VerificationReport("surface", window, 0)
    rng = range(-window, window + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    I, J = invariants_quartic(MonicQuartic(a, b, c, d))
                    if 4 * I**3 == J * J:
                        continue
                    rep.cases_checked += 1
                    spec = SurfaceSpec(I, J)
                    if surface_eval(spec, a, c, d) != 0:
                        rep.failures.append({"coeffs": [a, b, c, d], "I": I, "J": J})
    return rep


_SUITES = {
    "symmetry": (symmetry_suite, 6),
    "star": (star_suite, 6),
    "discF": (disc_F_suite, 50),
    "surface": (surface_suite, 6),
}


def run_suites(names: list[str], window: int | None = None) -> list[VerificationReport]:
    reports = []
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown identity suite {name!r}")
        fn, default_window = _SUITES[name]
        reports.append(fn(window if window is not None else default_window))
    return reports
