"""Reducible-count asymptotics: the constants c_n, exact lattice counts
L(N, h), and the region volumes k_n they rest on.

c_n = 2^n (zeta(n-1) - 1) + 2^(n-1) + 2 k_n is the leading coefficient of
the count of monic reducible degree-n polynomials of height H; the closed
forms are c_3 = 8 (pi^2/6 + 1/4) and c_4 = 16 (zeta(3) + 1/6).  Both routes
are computed independently (series zeta vs. closed form, exact piecewise
integration vs. consistency) so their agreement is a real check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .census import CensusReport

__all__ = [
    "lattice_count_L",
    "region_volume_k",
    "zeta_value",
    "ChelaConstant",
    "chela_constant_c",
    "FitEntry",
    "FitReport",
    "fit_reducible",
]


def lattice_count_L(n: int, N: int, h: int) -> int:
    """Vectors (a_1..a_n) with max |a_i| <= N and sum a_i = h, exactly.

    With b_i = a_i + N in [0, 2N] summing to m = h + nN, inclusion-exclusion
    over the k coordinates forced past 2N gives
    sum_k (-1)^k C(n, k) C(m - k(2N + 1) + n - 1, n - 1), in Python ints.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    m = h + n * N
    if not 0 <= m <= 2 * n * N:
        return 0
    return sum(
        (-1) ** k * math.comb(n, k) * math.comb(m - k * (2 * N + 1) + n - 1, n - 1)
        for k in range(m // (2 * N + 1) + 1)
    )


def _irwin_hall_cdf(m: int, x: Fraction) -> Fraction:
    """P(U_1 + ... + U_m <= x) for independent uniform[0,1] variables."""
    if x <= 0:
        return Fraction(0)
    if x >= m:
        return Fraction(1)
    total = Fraction(0)
    for k in range(math.floor(x) + 1):
        total += (-1) ** k * math.comb(m, k) * (x - k) ** m
    return total / math.factorial(m)


def region_volume_k(n: int) -> Fraction:
    """Exact volume of {|x_i| <= 1 (i < n), |sum x_i| <= 1} in R^(n-1).

    Equals 2^(n-1) P(|U_1 + ... + U_(n-1)| <= 1) for uniform[-1,1] U_i,
    reduced to the Irwin-Hall piecewise polynomial on [0,1] variables.
    """
    if n not in (3, 4):
        raise ValueError("only n = 3 and n = 4 are supported")
    m = n - 1
    # sum of m uniform[-1,1] in [-1,1]  <=>  shifted sum in [(m-1)/2, (m+1)/2]
    hi = _irwin_hall_cdf(m, Fraction(m + 1, 2))
    lo = _irwin_hall_cdf(m, Fraction(m - 1, 2))
    return (hi - lo) * 2**m


_ZETA_EPS = 1e-15  # bound on the truncation error of zeta_value


def zeta_value(s: int) -> float:
    """zeta(s) for integer s >= 2 by Euler-Maclaurin with a rigorous tail.

    Sum to N, then N^(1-s)/(s-1) + N^(-s)/2 + s N^(-s-1)/12
    - s(s+1)(s+2) N^(-s-3)/720, with the error below the first omitted
    (Bernoulli) term, which is driven under _ZETA_EPS by choice of N.
    """
    if s < 2:
        raise ValueError("zeta_value needs s >= 2")
    N = 10
    def omitted(N: int) -> float:
        return s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * N ** (-s - 5) / 30240.0
    while omitted(N) > _ZETA_EPS:
        N *= 2
    head = math.fsum(k ** (-float(s)) for k in range(1, N + 1))
    tail = (
        N ** (1.0 - s) / (s - 1.0)
        - 0.5 * N ** (-float(s))
        + s * N ** (-s - 1.0) / 12.0
        - s * (s + 1) * (s + 2) * N ** (-s - 3.0) / 720.0
    )
    return head + tail


@dataclass(frozen=True)
class ChelaConstant:
    """The reducible-count constant c_n in both of its published forms."""

    n: int
    appendix_form: float  # 2^n (zeta(n-1) - 1) + 2^(n-1) + 2 k_n
    closed_form: float  # 8 (pi^2/6 + 1/4) or 16 (zeta(3) + 1/6)
    k_n: Fraction

    @property
    def agreement(self) -> float:
        return abs(self.appendix_form - self.closed_form)


def chela_constant_c(n: int) -> ChelaConstant:
    if n not in (3, 4):
        raise ValueError("only n = 3 and n = 4 are supported")
    k_n = region_volume_k(n)
    appendix = 2**n * (zeta_value(n - 1) - 1.0) + 2 ** (n - 1) + 2.0 * float(k_n)
    if n == 3:
        closed = 8.0 * (math.pi**2 / 6.0 + 0.25)
    else:
        closed = 16.0 * (zeta_value(3) + 1.0 / 6.0)
    return ChelaConstant(n=n, appendix_form=appendix, closed_form=closed, k_n=k_n)


@dataclass(frozen=True)
class FitEntry:
    height: int
    reducible: int
    ratio: float


@dataclass(frozen=True)
class FitReport:
    degree: int
    c_n: float
    k_n: Fraction
    entries: tuple[FitEntry, ...]

    @property
    def trend(self) -> float | None:
        """Last ratio minus first; drifts toward 0 as H grows."""
        if len(self.entries) < 2:
            return None
        return self.entries[-1].ratio - self.entries[0].ratio

    def to_json(self) -> str:
        return json.dumps(
            {
                "degree": self.degree,
                "c_n": self.c_n,
                "k_n": [self.k_n.numerator, self.k_n.denominator],
                "entries": [
                    {"H": e.height, "reducible": e.reducible, "ratio": e.ratio}
                    for e in self.entries
                ],
                "trend": self.trend,
            }
        )


def fit_reducible(reports: list[CensusReport]) -> FitReport:
    """Ratios reducible / (c_n H^(n-1)) per height; the asymptotic drives
    them to 1."""
    if not reports:
        raise ValueError("need at least one census report")
    degrees = {r.request.degree for r in reports}
    if len(degrees) != 1:
        raise ValueError("reports mix degrees")
    degree = degrees.pop()
    heights = [r.request.height for r in reports]
    if len(set(heights)) != len(heights) or min(heights) < 1:
        raise ValueError("heights must be distinct and >= 1")
    const = chela_constant_c(degree)
    entries = []
    for rep in sorted(reports, key=lambda r: r.request.height):
        H = rep.request.height
        red = rep.counts["reducible"]
        entries.append(FitEntry(H, red, red / (const.closed_form * H ** (degree - 1))))
    return FitReport(degree=degree, c_n=const.closed_form, k_n=const.k_n, entries=tuple(entries))
