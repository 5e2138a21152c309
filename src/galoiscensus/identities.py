"""Exact verification of the algebraic identities behind the classification
counts: the resolvent-root symmetry, the discriminant factorization behind
the V4/C4 curve counting (the star identity), the auxiliary cubic
discriminant and the invariant surface g(a, c, d) = 0.

Everything is checked with integer or rational arithmetic; the suites return
a report listing every failing case (expected: none, these are identities).

The star suite evaluates both sides of the discriminant factorization one u
at a time, on a broadcast (v, w, x, a, sign) grid of 2 (2W + 1)^4 cells for
the window W, through the same `_star_sides` a single case goes through.
Failures are read from the grid in the order of the nested loop over u, v,
w, x, a and then sign = +1 before -1.  One block per u keeps the memory to a
few hundred kB at W = 6; a single 5-D grid would be 13 times larger.  Above
the int64 cap below, each (u, v) is a block of its own.

int64 safety of the star grid: numpy int64 wraps silently, so the window cap
is proved, not measured.  Replace every variable by W, every coefficient by
its absolute value and every minus by a plus: this majorant of an
expression bounds its absolute value, and it is the sum of the |monomials|
of the expression expanded as written, with no terms cancelled.  All majorants are integers >= 1 for
W >= 1, so the majorant of a sum or product is at least that of each
operand, and the majorant of a whole side bounds every partial result on
the way, the Horner partials of the discriminant included.  For the
discriminant side, disc(X^4 + 2a X^3 + 4b X^2 + 8c X + 16d), it is

    128 W^15 + 768 W^14 + 8448 W^13 + 52480 W^12 + 180352 W^11
    + 399872 W^10 + 622592 W^9 + 604160 W^8 + 311296 W^7 + 65536 W^6,

which is 4.49e18 < 2^63 at W = 12 but 1.37e19 > 2^63 at W = 13.  For the
other side, 64 factor^2 RHS, it is 256 W^14 + 1024 W^13 + 13824 W^12
+ 46080 W^11 + 69888 W^10 + 53248 W^9 + 16384 W^8, 6.0e17 at W = 12.  So
windows up to STAR_INT64_WINDOW = 12 run in int64; larger ones run the same
blocks on dtype=object arrays of Python ints, exact at any size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
import numpy as np

from .classify import (
    MonicQuartic,
    disc_cubic_coeffs,
    disc_quartic_coeffs,
    integer_roots_monic_cubic,
    invariants_quartic,
    resolvent,
)

__all__ = [
    "STAR_INT64_WINDOW",
    "VerificationReport",
    "check_symmetry_identity",
    "surface_eval",
    "disc_F_identity",
    "symmetry_suite",
    "star_suite",
    "disc_F_suite",
    "surface_suite",
    "run_suites",
]


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


def _star_rhs(u, v, w, x, a, sign):
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


def _star_sides(u, v, w, x, a, sign):
    """Both sides of the star identity in integer-only form: the disc of the
    2-rescaled quartic X^4 + 2a X^3 + 4b X^2 + 8c X + 16d (integral whenever
    4d, 4b, 2c are), which is 4^6 disc(f), and 64 factor^2 RHS.  Works on
    ints and on broadcast int64 or object arrays alike."""
    d16 = 4 * (x * x - u * v * v)
    b4 = 4 * x + a * a - u * w * w
    c8 = 4 * (x * a + sign * u * v * w)
    factor = u * (2 * v * v + sign * a * v * w + w * w * x)
    return (
        disc_quartic_coeffs(2 * a, b4, c8, d16),
        64 * factor * factor * _star_rhs(u, v, w, x, a, sign),
    )


STAR_INT64_WINDOW = 12
"""Largest star_suite window evaluated in int64 (argued in the module docstring)."""

_STAR_SIGNS = (1, -1)


def _star_block(u: int, window: int, dtype, vs: range | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Both sides at fixed u on the (v, w, x, a, sign) grid of the window,
    with sign = (+1, -1) on the last axis; v runs over ``vs``, by default
    the whole window."""
    r = np.arange(-window, window + 1, dtype=dtype)
    n = r.size
    v = r if vs is None else np.arange(vs.start, vs.stop, dtype=dtype)
    v, w, x, a = v.reshape(-1, 1, 1, 1, 1), r.reshape(n, 1, 1, 1), r.reshape(n, 1, 1), r.reshape(n, 1)
    return _star_sides(u, v, w, x, a, np.array(_STAR_SIGNS, dtype=dtype))


def surface_eval(I: int, J: int, a: int, c: int, d: int) -> int:
    """g(a, c, d) = c3 d^3 + c2 d^2 + c1 d + c0 with the fixed coefficient
    polynomials; zero exactly on quartics with invariants (I, J).  Meant for
    nondegenerate invariants, 4I^3 != J^2; ``surface_suite`` skips the rest."""
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


def disc_F_identity(q: int, r: int) -> bool:
    """disc(F) == (18 (q^2 + 3 r^2))^2 for F = r X^3 + 3q X^2 - 9r X - 3q, r != 0.

    r^2 F(X/r) = X^3 + 3q X^2 - 9r^2 X - 3q r^2 is monic with discriminant
    r^2 disc(F), so the check runs on the monic cubic discriminant.
    """
    if r == 0:
        raise ValueError("r must be nonzero (the polynomial must stay cubic)")
    r2 = r * r
    return disc_cubic_coeffs(3 * q, -9 * r2, -3 * q * r2) == r2 * (18 * (q * q + 3 * r2)) ** 2


# ---------------------------------------------------------------------------
# suites

def symmetry_suite(window: int) -> VerificationReport:
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


def star_suite(window: int) -> VerificationReport:
    """The cleared-denominator discriminant factorization on the full
    (u, v, w, x, a) window, both signs.

    Each u is one block: `_star_sides` on the broadcast (v, w, x, a, sign)
    grid, in int64 up to STAR_INT64_WINDOW.  Above it the blocks hold
    Python ints, about 5 times the memory, so each (u, v) is its own block:
    at window 13 one u then raises the peak RSS by 19 MB, not 357 MB.
    Failures are listed in the loop order u, v, w, x, a, sign = +1 before
    -1, as plain ints.
    """
    rep = VerificationReport("star", window, 0)
    rng = range(-window, window + 1)
    if window <= STAR_INT64_WINDOW:
        dtype, v_blocks = np.int64, [rng]
    else:
        dtype, v_blocks = object, [range(v, v + 1) for v in rng]
    for u in rng:
        for vs in v_blocks:
            lhs, rhs = _star_block(u, window, dtype, vs)
            bad = lhs != rhs
            rep.cases_checked += bad.size
            for vi, wi, xi, ai, si in np.argwhere(bad).tolist():
                rep.failures.append(
                    {"u": u, "v": vs[vi], "w": wi - window, "x": xi - window,
                     "a": ai - window, "sign": _STAR_SIGNS[si]}
                )
    return rep


def disc_F_suite(window: int) -> VerificationReport:
    rep = VerificationReport("discF", window, 0)
    for q in range(-window, window + 1):
        for r in range(-window, window + 1):
            if r == 0:
                continue
            rep.cases_checked += 1
            if not disc_F_identity(q, r):
                rep.failures.append({"q": q, "r": r})
    return rep


def surface_suite(window: int) -> VerificationReport:
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
                    if surface_eval(I, J, a, c, d) != 0:
                        rep.failures.append({"coeffs": [a, b, c, d], "I": I, "J": J})
    return rep


_SUITES = {
    "symmetry": (symmetry_suite, 6),
    "star": (star_suite, 6),
    "discF": (disc_F_suite, 50),
    "surface": (surface_suite, 6),
}


def run_suites(names: list[str], window: int | None = None) -> list[VerificationReport]:
    """Run the named suites at `window`, or each at its default window.  A
    negative window would sweep nothing and report a pass, so it is refused."""
    if window is not None and window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    reports = []
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown identity suite {name!r}")
        fn, default_window = _SUITES[name]
        reports.append(fn(window if window is not None else default_window))
    return reports
