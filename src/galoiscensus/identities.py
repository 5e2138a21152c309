"""Exact verification of the algebraic identities behind the classification
counts: the resolvent-root symmetry, the discriminant factorization behind
the V4/C4 curve counting (the star identity), the auxiliary cubic
discriminant and the invariant surface g(a, c, d) = 0.

Everything is checked with integer or rational arithmetic; the suites return
a report listing every failing case (expected: none, these are identities).

The symmetry, star and surface suites evaluate their window one block at a
time, on broadcast numpy grids, through the same formulas a single case goes
through: ``resolvent_coeffs`` and ``check_symmetry_identity``, `_star_sides`,
``invariants_quartic_coeffs`` and ``surface_eval``.  A block holds one value
of the first variable (u for star, a for surface, and (a, b) for symmetry,
whose root axis x makes its grids longer) and the whole grid of the others,
so failures are read from it in the order of the nested loop over the
variables.  Such blocks keep the memory to a few hundred kB at W = 6; a
single grid would be 13 times larger.  A symmetry block per a alone would
hold (2W + 1)^3 (2B - 1) cells, 4.3e6 at W = 16, where it raised the peak
RSS by 41 MB against 1.5 MB per (a, b), at the same speed.

int64 safety of the grids: numpy int64 wraps silently, so the window caps
are proved, not measured.  Replace every variable by a bound on its absolute
value, every coefficient by its absolute value and every minus by a plus:
this majorant of an expression bounds its absolute value, and it is the sum
of the |monomials| of the expression expanded as written, with no terms
cancelled.  All majorants are integers >= 1 for W >= 1, so the majorant of
a sum or product is at least that of each operand, and the majorant of a
whole expression bounds every partial result on the way, Horner partials
included.  Above each cap the same blocks run on dtype=object arrays of
Python ints, exact at any size.

Star, with every variable bounded by the window W: for the discriminant
side, disc(X^4 + 2a X^3 + 4b X^2 + 8c X + 16d), the majorant is

    128 W^15 + 768 W^14 + 8448 W^13 + 52480 W^12 + 180352 W^11
    + 399872 W^10 + 622592 W^9 + 604160 W^8 + 311296 W^7 + 65536 W^6,

which is 4.49e18 < 2^63 at W = 12 but 1.37e19 > 2^63 at W = 13.  For the
other side, 64 factor^2 RHS, it is 256 W^14 + 1024 W^13 + 13824 W^12
+ 46080 W^11 + 69888 W^10 + 53248 W^9 + 16384 W^8, 6.0e17 at W = 12.  So
windows up to STAR_INT64_WINDOW = 12 run in int64.  Above it the blocks hold
Python ints, about 5 times the memory, so each (u, v) is a block of its own.

Symmetry: the resolvent X^3 + pX^2 + qX + r has |p| <= W, |q| <= W^2 + 4W
and |r| <= W^3 + 5W^2, so its roots satisfy |x| < B = `_symmetry_bound(W)`,
and |x| <= X = B - 1 on the grid.  The resolvent ((x + p) x + q) x + r has
majorant ((X + W) X + W^2 + 4W) X + W^3 + 5W^2.  The identity, evaluated
only where the resolvent vanishes, has majorants
(X^2 + 4W)(W^2 + 4W + 4X) for its left side, as e = b - x, and
(XW + 2W)^2 for its right side.  The left side is the largest: 9.2227e18
< 2^63 at W = 38,963 (X = 77,930) but 9.2237e18 > 2^63 at W = 38,964.
So windows up to SYMMETRY_INT64_WINDOW = 38,963 run in int64; there the
resolvent's majorant is only 8.9e14.  Time limits the window long before
that: it grows as W^5, 0.26 s at W = 12 and 1.2 s at W = 16.

Surface: I = 12d - 3ac + b^2 and J have majorants 4W^2 + 12W and
38W^3 + 99W^2, and with these g = surface_eval(I, J, a, c, d), whose
constant term includes the skip test's 4I^3 and J^2, has majorant

    4616 W^6 + 26352 W^5 + 145476 W^4 + 345600 W^3,

which is 9.08e18 < 2^63 at W = 353 but 9.23e18 > 2^63 at W = 354.  So
windows up to SURFACE_INT64_WINDOW = 353 run in int64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
import numpy as np

from .classify import (
    disc_cubic_coeffs,
    disc_quartic_coeffs,
    fujiwara_bound,
    invariants_quartic_coeffs,
    resolvent_coeffs,
)

__all__ = [
    "STAR_INT64_WINDOW",
    "SYMMETRY_INT64_WINDOW",
    "SURFACE_INT64_WINDOW",
    "VerificationReport",
    "check_symmetry_identity",
    "surface_eval",
    "disc_F_identity",
    "symmetry_suite",
    "star_suite",
    "disc_F_suite",
    "surface_suite",
    "SUITES",
    "run_suites",
]


@dataclass
class VerificationReport:
    identity: str
    window: int
    cases_checked: int
    failures: list = field(default_factory=list)

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
    """(x^2 - 4d)(a^2 - 4e) == (x a - 2c)^2; elementwise on broadcast arrays."""
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
    nondegenerate invariants, 4I^3 != J^2; ``surface_suite`` skips the rest.
    Works on ints and on broadcast int64 or object arrays."""
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

SYMMETRY_INT64_WINDOW = 38_963
"""Largest symmetry_suite window evaluated in int64 (argued in the module docstring)."""


def _symmetry_bound(window: int) -> int:
    """B > |x| for every root x of every resolvent in the window: the
    coefficients satisfy |p| <= W, |q| <= W^2 + 4W, |r| <= W^3 + 5W^2."""
    return fujiwara_bound(window, window * window + 4 * window, window**3 + 5 * window * window)


def _symmetry_block(a: int, b: int, axis: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(c, d, x, holds) at fixed (a, b): the values of every cell of the
    (c, d, x) grid axis^2 x xs where the resolvent vanishes at x, in the
    grid's C order (c, d, then x ascending), and ``check_symmetry_identity``
    at each of them, on arrays."""
    c, d = axis.reshape(-1, 1, 1), axis.reshape(-1, 1)
    p, q, r = resolvent_coeffs(a, b, c, d)
    ci, di, xi = np.nonzero(((xs + p) * xs + q) * xs + r == 0)
    c, d, x = axis[ci], axis[di], xs[xi]
    return c, d, x, check_symmetry_identity(x, a, c, d, b - x)


def symmetry_suite(window: int) -> VerificationReport:
    """Eq-(3.3) instances: every quartic of height <= window contributes one
    case per integer root x of its resolvent, with e = b - x.

    Each (a, b) is one block, `_symmetry_block` on the broadcast (c, d, x)
    grid with |x| < `_symmetry_bound(window)`, which holds every root; a
    cell where the resolvent vanishes is one case.  At window 6 that is
    13^2 * 33 = 5,577 cells a block.  Up to SYMMETRY_INT64_WINDOW the
    blocks are int64, above it Python ints.  Failures are listed in the
    order a, b, c, d, then x ascending, as plain ints.
    """
    rep = VerificationReport("symmetry", window, 0)
    dtype = np.int64 if window <= SYMMETRY_INT64_WINDOW else object
    axis = np.arange(-window, window + 1, dtype=dtype)
    bound = _symmetry_bound(window)
    xs = np.arange(1 - bound, bound, dtype=dtype)
    rng = range(-window, window + 1)
    for a in rng:
        for b in rng:
            *cell, holds = _symmetry_block(a, b, axis, xs)
            rep.cases_checked += holds.size
            for c, d, x in zip(*(v[~holds].tolist() for v in cell)):
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


SURFACE_INT64_WINDOW = 353
"""Largest surface_suite window evaluated in int64 (argued in the module docstring)."""


def _surface_block(a: int, axis: np.ndarray) -> tuple[np.ndarray, ...]:
    """(I, J, g) at fixed a on the (b, c, d) grid axis^3, with
    g = surface_eval(I, J, a, c, d)."""
    b, c, d = axis.reshape(-1, 1, 1), axis.reshape(-1, 1), axis
    I, J = invariants_quartic_coeffs(a, b, c, d)
    return I, J, surface_eval(I, J, a, c, d)


def surface_suite(window: int) -> VerificationReport:
    """Every quartic of height <= window with nondegenerate invariants lies
    on its own surface: g(a, c, d) = 0.

    Each a is one block, `_surface_block` on the broadcast (b, c, d) grid;
    cells with 4I^3 = J^2 are skipped.  Up to SURFACE_INT64_WINDOW the blocks
    are int64, above it Python ints.  Failures are listed in the order a, b,
    c, d, as plain ints.
    """
    rep = VerificationReport("surface", window, 0)
    dtype = np.int64 if window <= SURFACE_INT64_WINDOW else object
    axis = np.arange(-window, window + 1, dtype=dtype)
    for a in range(-window, window + 1):
        I, J, g = _surface_block(a, axis)
        checked = 4 * I**3 != J * J
        rep.cases_checked += int(np.count_nonzero(checked))
        for bi, ci, di in np.argwhere(checked & (g != 0)).tolist():
            rep.failures.append(
                {"coeffs": [a, bi - window, ci - window, di - window],
                 "I": int(I[bi, ci, di]), "J": int(J[bi, ci, di])}
            )
    return rep


# name -> (suite, default window); also the CLI's --suite choices
SUITES = {
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
        if name not in SUITES:
            raise ValueError(f"unknown identity suite {name!r}")
        fn, default_window = SUITES[name]
        reports.append(fn(window if window is not None else default_window))
    return reports
