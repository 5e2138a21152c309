import json
import math
import random
from fractions import Fraction

import pytest

from galoiscensus.asymptotics import (
    chela_constant_c,
    fit_reducible,
    lattice_count_L,
    region_volume_k,
    zeta_value,
)
from galoiscensus.census import CensusReport, CensusRequest, run_census


# --- lattice counts ---

def test_lattice_count_examples():
    assert lattice_count_L(3, 1, 0) == 7
    assert lattice_count_L(3, 100, 0) == 30301


def test_lattice_count_closed_form_n3():
    # L(3, N, 0) = 3N^2 + 3N + 1
    for N in range(0, 200):
        assert lattice_count_L(3, N, 0) == 3 * N * N + 3 * N + 1


def test_lattice_count_brute_force_n4():
    for N in (1, 2, 3):
        for h in range(-2, 3):
            brute = sum(
                1
                for a in range(-N, N + 1)
                for b in range(-N, N + 1)
                for c in range(-N, N + 1)
                for d in range(-N, N + 1)
                if a + b + c + d == h
            )
            assert lattice_count_L(4, N, h) == brute


def _convolved_counts(n: int, N: int) -> list[int]:
    """Counts of every sum -nN..nN of n coordinates in [-N, N], by repeated
    convolution in Python ints."""
    ways = [1] * (2 * N + 1)
    for _ in range(n - 1):
        new = [0] * (len(ways) + 2 * N)
        for i, w in enumerate(ways):
            for j in range(2 * N + 1):
                new[i + j] += w
        ways = new
    return ways


def test_lattice_count_exact_past_int64():
    # L(10, 100, 0) is about 2.3e20, past int64; every count is exact
    assert lattice_count_L(10, 100, 0) == _convolved_counts(10, 100)[1000] == 230494075732165988951
    for n in range(1, 7):
        for N in (0, 1, 4, 9):
            ways = _convolved_counts(n, N)
            for h in range(-n * N - 2, n * N + 3):
                expected = ways[h + n * N] if abs(h) <= n * N else 0
                assert lattice_count_L(n, N, h) == expected, (n, N, h)


def test_lattice_negation_symmetry():
    for N in range(0, 51):
        assert lattice_count_L(3, N, -1) == lattice_count_L(3, N, 1)


def test_lattice_sandwich():
    # L(N-1, 0) <= L(N, 1) <= L(N+1, 0)
    for n in (3, 4):
        for N in range(1, 60):
            assert (
                lattice_count_L(n, N - 1, 0)
                <= lattice_count_L(n, N, 1)
                <= lattice_count_L(n, N + 1, 0)
            )


def test_lattice_out_of_range_and_errors():
    assert lattice_count_L(3, 2, 7) == 0
    with pytest.raises(ValueError):
        lattice_count_L(0, 3, 0)
    with pytest.raises(ValueError):
        lattice_count_L(3, -1, 0)


def test_lattice_density_approaches_k3():
    # |L(3,N,0)/N^2 - 3| <= 4/N, sharp from the closed form 3 + 3/N + 1/N^2
    for N in range(1, 501):
        assert abs(lattice_count_L(3, N, 0) / N**2 - 3) <= 4 / N


# --- region volumes ---

def test_region_volumes_exact():
    assert region_volume_k(3) == Fraction(3)
    assert region_volume_k(4) == Fraction(16, 3)
    with pytest.raises(ValueError):
        region_volume_k(5)


def test_region_volume_k3_monte_carlo():
    rng = random.Random(42)
    hits, trials = 0, 200_000
    for _ in range(trials):
        x = rng.uniform(-1, 1)
        y = rng.uniform(-1, 1)
        if abs(x + y) <= 1:
            hits += 1
    estimate = 4.0 * hits / trials
    assert abs(estimate - 3.0) < 0.03  # within 1%


def test_region_volume_k3_corner_geometry():
    # square of area 4 minus two corner triangles of area 1/2
    assert region_volume_k(3) == 4 - 2 * Fraction(1, 2)


# --- zeta and the constants ---

def test_zeta_values_against_known():
    assert abs(zeta_value(2) - math.pi**2 / 6) < 1e-13
    assert abs(zeta_value(3) - 1.2020569031595942854) < 1e-13
    assert abs(zeta_value(4) - math.pi**4 / 90) < 1e-13
    with pytest.raises(ValueError):
        zeta_value(1)


def test_chela_constants_agree():
    c3 = chela_constant_c(3)
    assert abs(c3.closed_form - 15.1595) < 1e-4
    assert c3.agreement < 1e-12
    assert c3.k_n == 3
    c4 = chela_constant_c(4)
    assert abs(c4.closed_form - 21.8996) < 1e-4
    assert c4.agreement < 1e-12
    assert c4.k_n == Fraction(16, 3)
    with pytest.raises(ValueError):
        chela_constant_c(5)


# --- fits ---

def _fake_report(degree: int, height: int, reducible: int) -> CensusReport:
    req = CensusRequest(degree, height)
    counts = {k: 0 for k in req.classes()}
    counts["reducible"] = reducible
    total = (2 * height + 1) ** degree
    counts["S3" if degree == 3 else "S4"] = total - reducible
    return CensusReport(request=req, counts=counts, wall_time_s=0.0)


def test_fit_paper_count_at_150():
    rep = _fake_report(4, 150, 75327434)
    fit = fit_reducible([rep])
    assert len(fit.entries) == 1
    assert abs(fit.entries[0].ratio - 1.019) < 1e-3
    assert fit.trend is None


def test_fit_real_small_census():
    reports = [run_census(CensusRequest(3, h, workers=1)) for h in (20, 60, 200)]
    fit = fit_reducible(reports)
    assert [e.height for e in fit.entries] == [20, 60, 200]
    # |ratio - 1| shrinks as H grows (0.931, 0.963, 0.982 frozen from the run)
    gaps = [abs(e.ratio - 1.0) for e in fit.entries]
    assert gaps == sorted(gaps, reverse=True)
    assert abs(fit.entries[-1].ratio - 0.9816) < 1e-3
    payload = json.loads(fit.to_json())
    assert payload["degree"] == 3 and len(payload["entries"]) == 3


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_reducible([])
    with pytest.raises(ValueError):
        fit_reducible([_fake_report(3, 10, 5), _fake_report(4, 10, 5)])
    with pytest.raises(ValueError):
        fit_reducible([_fake_report(3, 10, 5), _fake_report(3, 10, 6)])
    # the ratio divides by c_n H^(n-1): a real H=0 census is refused, not a
    # ZeroDivisionError
    with pytest.raises(ValueError, match="heights must be distinct and >= 1"):
        fit_reducible([_fake_report(4, 5, 100), run_census(CensusRequest(4, 0, workers=1))])

