"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 2 is a long
exhaustive enumeration (12 s measured on 2 workers of a 2-core machine for
the quartic census at H=150) and only runs when CENSUS_EXTENDED=1 is set.
Criterion 3, the cubic census at H=2000, took 4 s there and always runs.
Both resume from a stripe journal if one is provided via CENSUS_JOURNAL_DIR.
"""

import itertools
import os
import random
from fractions import Fraction

import pytest

from galoiscensus.asymptotics import chela_constant_c, fit_reducible, lattice_count_L
from galoiscensus.census import CensusReport, CensusRequest, list_a3_cubics, run_census
from galoiscensus.classify import (
    MonicCubic,
    MonicQuartic,
    classify_quartic,
    disc_cubic,
    disc_quartic,
    frobenius_cycle_type,
    invariants_cubic,
    invariants_quartic,
)
from galoiscensus.eisenstein import parametrize_cubic_witness
from galoiscensus.families import (
    _check_rows,
    _d4vc_columns,
    _d4vc_rows,
    cross_validate,
    d4vc_units,
    gen_a3_family,
    gen_a4_family,
    gen_v4_biquadratic,
    member_units,
)
from galoiscensus.identities import disc_F_suite, star_suite, symmetry_suite

EXTENDED = os.environ.get("CENSUS_EXTENDED") == "1"
WORKERS = int(os.environ.get("CENSUS_WORKERS", "0"))


def _journal(name: str) -> str | None:
    base = os.environ.get("CENSUS_JOURNAL_DIR")
    return os.path.join(base, name) if base else None


def _report(msg: str) -> None:
    print(f"\nACCEPTANCE {msg}")


def test_criterion_01_cubic_census_h500():
    rep = run_census(CensusRequest(3, 500, workers=WORKERS))
    assert rep.counts["A3"] == 52420
    _report("1 PASS: cubic census H=500 has A3 = 52420")


@pytest.mark.skipif(not EXTENDED, reason="extended run; set CENSUS_EXTENDED=1")
def test_criterion_02_quartic_census_h150():
    rep = run_census(
        CensusRequest(4, 150, workers=WORKERS), journal_path=_journal("quartic150.journal")
    )
    assert rep.counts == {
        "reducible": 75327434,
        "S4": 8128593894,
        "A4": 60954,
        "D4": 4501148,
        "V4": 45953,
        "C4": 11818,
    }
    _report("2 PASS: quartic census H=150 matches all six published counts")


def test_criterion_03_cubic_census_h2000():
    rep = run_census(
        CensusRequest(3, 2000, workers=WORKERS), journal_path=_journal("cubic2000.journal")
    )
    assert rep.counts["A3"] == 355334
    _report("3 PASS: cubic census H=2000 has A3 = 355334")


def test_criterion_04_strategy_equivalence():
    for h in range(0, 13):
        direct = run_census(CensusRequest(4, h, workers=1))
        table = run_census(CensusRequest(4, h, strategy="table"))
        assert direct.counts == table.counts, f"degree 4, H={h}"
    for h in range(0, 41):
        direct = run_census(CensusRequest(3, h, workers=1))
        table = run_census(CensusRequest(3, h, strategy="table"))
        assert direct.counts == table.counts, f"degree 3, H={h}"
    _report("4 PASS: direct and table censuses identical (deg 4 H<=12, deg 3 H<=40)")


def test_criterion_05_invariant_identity_suite():
    for a, b, c in itertools.product(range(-5, 6), repeat=3):
        I, J = invariants_cubic(MonicCubic(a, b, c))
        assert 27 * disc_cubic(MonicCubic(a, b, c)) == 4 * I**3 - J * J
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        I, J = invariants_quartic(MonicQuartic(a, b, c, d))
        assert 27 * disc_quartic(MonicQuartic(a, b, c, d)) == 4 * I**3 - J * J
    _report("5 PASS: 27 disc = 4I^3 - J^2 exhaustively (cubic h<=5, quartic h<=3)")


def test_criterion_06_symmetry_identity_suite():
    rep = symmetry_suite(6)
    assert rep.failures == []
    _report(f"6 PASS: resolvent-root symmetry identity, {rep.cases_checked} cases, 0 failures")


def test_criterion_07_star_identity_suite():
    rep = star_suite(6)
    assert rep.failures == []
    assert rep.cases_checked == 13**5 * 2
    _report(f"7 PASS: cleared-denominator star identity on [-6,6]^5, both signs")


def test_criterion_08_disc_F_suite():
    rep = disc_F_suite(50)
    assert rep.failures == []
    assert rep.cases_checked == 101 * 101 - 101
    _report("8 PASS: disc(rX^3+3qX^2-9rX-3q) = (18(q^2+3r^2))^2 on [-50,50]^2, r != 0")


def test_criterion_09_parametrization_suite():
    cubics = list_a3_cubics(30)
    assert cubics, "no A3 cubics found up to height 30"
    for a, b, c in cubics:
        w = parametrize_cubic_witness(MonicCubic(a, b, c))
        w.verify()  # includes 2(x^2+3y^2) = u z^3
        assert w.u * (8 * w.z) ** 3 == 4 * (w.q**2 + 3 * w.r**2) * (w.s**2 + 3 * w.t**2) ** 3
    _report(f"9 PASS: parametrization witnesses verified for all {len(cubics)} A3 cubics h<=30")


def test_criterion_10_frobenius_cross_check(cycle_types):
    rng = random.Random(20260808)
    primes = [p for p in range(2, 51) if all(p % q for q in range(2, p))]
    sampled = 0
    while sampled < 10**4:
        f = MonicQuartic(*(rng.randint(-50, 50) for _ in range(4)))
        label = classify_quartic(f).group.value
        if label == "reducible":
            continue
        sampled += 1
        disc = disc_quartic(f)
        allowed = cycle_types[label]
        for p in primes:
            if disc % p == 0:
                continue
            assert frobenius_cycle_type(f, p) in allowed, (f, p, label)
    _report("10 PASS: 10^4 sampled irreducible quartics, all cycle types realizable")


def _d4vc_oracle_unit(*args):
    """One d4vc unit member by member: the construction's predicates on its
    int64 columns, 0 < 4d, 4(b - x), 2c < H, 3 | every coefficient and
    9 does not divide d, then _check_rows over its member tuples."""
    H, (x, a, b, c, d) = args[0], _d4vc_columns(*args)[3:]
    assert ((0 < 4 * d) & (4 * d < H) & (0 < 4 * (b - x)) & (4 * (b - x) < H)).all()
    assert ((0 < 2 * c) & (2 * c < H)).all() and (d % 9 != 0).all()
    assert all((t % 3 == 0).all() for t in (a, b, c, d))
    return _check_rows(list(_d4vc_rows(*args)))


def test_criterion_11_constructions():
    """Every construction family validates against the classifier.

    d4vc(10^6, 1/5) has 264,235 members.  They are checked member by member
    with _check_rows, one d4vc_units range at a time in the workers, so no
    process holds the whole family.  On 2 workers of a 2-core machine this
    test takes 2.7-2.9 s (the ``family`` command, which checks the same
    ranges column-wise, 1.6-1.8 s), and the pytest process peaks at 62 MB
    of RSS, of which collecting this module alone takes 54.5 MB.
    """
    rep = cross_validate(member_units(gen_v4_biquadratic(500)))
    assert rep.mismatch_count == 0 and rep.members_checked > 0
    rep = cross_validate(member_units(gen_a3_family(-200, 200)))
    assert rep.mismatch_count == 0 and rep.members_checked == 401

    a4 = gen_a4_family(20)
    assert len(a4) == 400
    for _, params, coeffs, _ in a4:
        u, v = dict(params)["u"], dict(params)["v"]
        assert disc_quartic(MonicQuartic(*coeffs)) == (16 * (27 * u * v**4 + u**3)) ** 2
    assert cross_validate(member_units(a4)).mismatch_count == 0

    units = [(_d4vc_oracle_unit, args) for _, args in d4vc_units(10**6, Fraction(1, 5))]
    rep = cross_validate(units, workers=WORKERS)
    assert rep.members_checked == 264_235 and rep.mismatch_count == 0
    assert set(rep.classes) <= {"D4", "V4", "C4"}
    _report(
        "11 PASS: v4(500), a3([-200,200]), a4(20) disc identity, and "
        f"d4vc(10^6, 1/5) with {rep.members_checked} members all validate"
    )


def test_criterion_12_asymptotics():
    c3 = chela_constant_c(3)
    c4 = chela_constant_c(4)
    assert c3.agreement < 1e-12  # forces k_3 = 3
    assert c4.agreement < 1e-12  # forces k_4 = 16/3
    assert c3.k_n == 3 and c4.k_n == Fraction(16, 3)

    req = CensusRequest(4, 150)
    counts = {"reducible": 75327434, "S4": 8128593894, "A4": 60954,
              "D4": 4501148, "V4": 45953, "C4": 11818}
    rep = CensusReport(request=req, counts=counts, wall_time_s=0.0)
    fit = fit_reducible([rep])
    assert abs(fit.entries[0].ratio - 1.019) <= 1e-3

    assert lattice_count_L(3, 100, 0) == 30301
    _report("12 PASS: both c_n forms agree < 1e-12, H=150 ratio = 1.019 +- 0.001, L(3,100,0) = 30301")
