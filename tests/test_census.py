import itertools
import json
from collections import Counter

import pytest

from galoiscensus.census import (
    CensusError,
    CensusRequest,
    build_irreducible_table,
    list_a3_cubics,
    report_from_json,
    report_to_csv,
    report_to_json,
    run_census,
)
from galoiscensus.classify import (
    MonicCubic,
    MonicQuartic,
    classify_cubic,
    classify_quartic,
    is_reducible_quartic,
)


def _oracle_counts(degree: int, height: int) -> dict[str, int]:
    counts: Counter[str] = Counter()
    rng = range(-height, height + 1)
    if degree == 3:
        for a, b, c in itertools.product(rng, repeat=3):
            counts[classify_cubic(MonicCubic(a, b, c)).value] += 1
    else:
        for a, b, c, d in itertools.product(rng, repeat=4):
            counts[classify_quartic(MonicQuartic(a, b, c, d)).group.value] += 1
    return dict(counts)


def test_cubic_height1_hand_enumeration():
    report = run_census(CensusRequest(3, 1, workers=1))
    assert report.counts == {"reducible": 15, "S3": 12, "A3": 0}
    assert report.total == 27


@pytest.mark.parametrize("height", [0, 1, 2, 4, 6])
def test_cubic_census_matches_per_polynomial_oracle(height):
    report = run_census(CensusRequest(3, height, workers=1))
    oracle = _oracle_counts(3, height)
    assert {k: v for k, v in report.counts.items() if v} == oracle


@pytest.mark.parametrize("height", [0, 1, 2, 3])
def test_quartic_census_matches_per_polynomial_oracle(height):
    report = run_census(CensusRequest(4, height, workers=1))
    oracle = _oracle_counts(4, height)
    assert {k: v for k, v in report.counts.items() if v} == oracle


def test_quartic_stripe_grids_match_classifier_at_height12():
    # reconstruct per-tuple labels from the raw kernel grids on sampled
    # stripes and demand exact agreement with the per-polynomial classifier
    import math
    import random

    from galoiscensus.census import (
        _factor_pairs,
        _quartic_disc_grid,
        _quartic_red_mask,
        _quartic_resolvent_roots,
        _square_mask,
    )

    H = 12
    rng = random.Random(3)
    pairs = _factor_pairs(H)
    stripes = [(rng.randint(-H, H), rng.randint(-H, H)) for _ in range(8)] + [(0, 0)]
    for a, b in stripes:
        red = _quartic_red_mask(a, b, H, pairs)
        disc = _quartic_disc_grid(a, b, H)
        square = _square_mask(disc)
        has_root, root_val = _quartic_resolvent_roots(a, b, H)
        for c in range(-H, H + 1):
            for d in range(-H, H + 1):
                i, j = c + H, d + H
                if red[i, j]:
                    label = "reducible"
                elif square[i, j]:
                    label = "V4" if has_root[i, j] else "A4"
                elif not has_root[i, j]:
                    label = "S4"
                else:
                    x, delta = int(root_val[i, j]), int(disc[i, j])
                    t1 = (x * x - 4 * d) * delta
                    t2 = (a * a - 4 * (b - x)) * delta
                    sq1 = t1 >= 0 and math.isqrt(t1) ** 2 == t1
                    sq2 = t2 >= 0 and math.isqrt(t2) ** 2 == t2
                    label = "C4" if (sq1 and sq2) else "D4"
                assert label == classify_quartic(MonicQuartic(a, b, c, d)).group.value, (
                    a, b, c, d,
                )


def test_determinism_across_worker_counts():
    for workers in (1, 2, 3):
        rep = run_census(CensusRequest(3, 8, workers=workers))
        assert rep.counts == run_census(CensusRequest(3, 8, workers=1)).counts
    r1 = run_census(CensusRequest(4, 5, workers=2))
    r2 = run_census(CensusRequest(4, 5, workers=1))
    assert r1.counts == r2.counts


def test_partition_property():
    for degree, h in [(3, 7), (4, 4)]:
        rep = run_census(CensusRequest(degree, h, workers=1))
        assert sum(rep.counts.values()) == (2 * h + 1) ** degree


def test_monotonicity_in_height():
    prev = {k: 0 for k in ("reducible", "S3", "A3")}
    for h in range(0, 8):
        counts = run_census(CensusRequest(3, h, workers=1)).counts
        assert all(counts[k] >= prev[k] for k in prev)
        prev = counts
    prev = {k: 0 for k in ("reducible", "S4", "A4", "D4", "V4", "C4")}
    for h in range(0, 4):
        counts = run_census(CensusRequest(4, h, workers=1)).counts
        assert all(counts[k] >= prev[k] for k in prev)
        prev = counts


def test_request_validation():
    with pytest.raises(CensusError):
        run_census(CensusRequest(5, 3))
    with pytest.raises(CensusError):
        run_census(CensusRequest(3, -1))
    with pytest.raises(CensusError):
        run_census(CensusRequest(3, 10, strategy="magic"))
    with pytest.raises(CensusError):
        run_census(CensusRequest(4, 401))  # beyond the int64-safe cap
    with pytest.raises(CensusError):
        build_irreducible_table(4, 30, cap_bytes=10**6)  # table over memory cap


def test_irreducible_table_bit_counts():
    t3 = build_irreducible_table(3, 1)
    assert int(t3.sum()) == 12  # complement of the 15 reducibles at H=1
    t4 = build_irreducible_table(4, 0)
    assert int(t4.sum()) == 0  # X^4 alone, reducible
    t4 = build_irreducible_table(4, 2)
    direct = run_census(CensusRequest(4, 2, workers=1))
    irr_direct = direct.total - direct.counts["reducible"]
    assert int(t4.sum()) == irr_direct


def test_irreducible_table_matches_witness_scan():
    table = build_irreducible_table(4, 3)
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        expected = not is_reducible_quartic(MonicQuartic(a, b, c, d))
        assert bool(table[a + 3, b + 3, c + 3, d + 3]) == expected


def test_journal_resume(tmp_path):
    for strategy in ("direct", "table"):
        journal = tmp_path / f"{strategy}.journal"
        req = CensusRequest(3, 6, strategy=strategy, workers=1)
        full = run_census(req, journal_path=str(journal))
        lines = journal.read_text().strip().splitlines()
        assert json.loads(lines[0])["checksum"] == req.checksum()
        assert len(lines) == 1 + 7  # header + one stripe per a in [0, 6]

        # truncate to a partial run and resume
        partial = lines[:4]
        journal.write_text("\n".join(partial) + "\n")
        resumed = run_census(req, journal_path=str(journal))
        assert resumed.counts == full.counts
        assert len(journal.read_text().strip().splitlines()) == 1 + 7


def test_journal_torn_tail_is_recomputed(tmp_path):
    journal = tmp_path / "census.journal"
    req = CensusRequest(3, 6, workers=1)
    full = run_census(req, journal_path=str(journal))
    text = journal.read_text()
    lines = text.splitlines()
    # a crash mid-write leaves the last record cut short, without its newline
    journal.write_text("\n".join(lines[:4]) + "\n" + lines[4][:12])
    resumed = run_census(req, journal_path=str(journal))
    assert resumed.counts == full.counts
    assert journal.read_text() == text


def test_journal_malformed_line_is_named(tmp_path):
    journal = tmp_path / "census.journal"
    req = CensusRequest(3, 6, workers=1)
    run_census(req, journal_path=str(journal))
    lines = journal.read_text().splitlines()
    lines[2] = lines[2][:12]
    journal.write_text("\n".join(lines) + "\n")
    with pytest.raises(CensusError, match="line 3"):
        run_census(req, journal_path=str(journal))


def test_journal_rejects_other_requests(tmp_path):
    journal = tmp_path / "census.journal"
    run_census(CensusRequest(3, 2, workers=1), journal_path=str(journal))
    with pytest.raises(CensusError):
        run_census(CensusRequest(3, 3, workers=1), journal_path=str(journal))


def test_report_json_roundtrip_byte_identical():
    rep = run_census(CensusRequest(4, 2, workers=1))
    text = report_to_json(rep)
    again = report_to_json(report_from_json(text))
    assert text == again
    parsed = json.loads(text)
    assert list(parsed["counts"]) == ["reducible", "S4", "A4", "D4", "V4", "C4"]


def test_report_csv_shape():
    rep = run_census(CensusRequest(3, 1, workers=1))
    lines = report_to_csv(rep).strip().splitlines()
    assert lines[0] == "class,count"
    assert lines[1:] == ["reducible,15", "S3,12", "A3,0"]


def test_list_a3_cubics_matches_classifier():
    found = list_a3_cubics(6)
    expected = [
        (a, b, c)
        for a, b, c in itertools.product(range(-6, 7), repeat=3)
        if classify_cubic(MonicCubic(a, b, c)).value == "A3"
    ]
    assert found == expected
    assert len(found) == run_census(CensusRequest(3, 6, workers=1)).counts["A3"]


def test_quartic_kernel_exact_at_height_cap():
    # int64 range claims hold at the documented cap H=400: grid values must
    # equal exact Python-int arithmetic on sampled cells
    import random

    from galoiscensus.census import (
        _factor_pairs,
        _quartic_disc_grid,
        _quartic_red_mask,
        _quartic_resolvent_roots,
    )
    from galoiscensus.classify import disc_quartic, resolvent_integer_roots

    H = 400
    rng = random.Random(8)
    pairs = _factor_pairs(H)
    for a, b in [(400, -400), (399, 397), (0, -400), (255, -33)]:
        disc = _quartic_disc_grid(a, b, H)
        red = _quartic_red_mask(a, b, H, pairs)
        has_root, root_val = _quartic_resolvent_roots(a, b, H)
        for _ in range(120):
            c = rng.randint(-H, H)
            d = rng.randint(-H, H)
            f = MonicQuartic(a, b, c, d)
            assert int(disc[c + H, d + H]) == disc_quartic(f)
            assert bool(red[c + H, d + H]) == is_reducible_quartic(f)
            roots = resolvent_integer_roots(f)
            assert bool(has_root[c + H, d + H]) == bool(roots)
            if roots:
                assert int(root_val[c + H, d + H]) in roots


def test_cubic_kernel_exact_at_large_height():
    import random

    from galoiscensus.census import _cubic_red_mask, _factor_pairs
    from galoiscensus.classify import disc_cubic

    H = 5000
    rng = random.Random(9)
    pairs = _factor_pairs(H)
    a = 4999
    red = _cubic_red_mask(a, H, pairs)
    import numpy as np

    bvec = np.arange(-H, H + 1, dtype=np.int64)
    cvec = np.arange(-H, H + 1, dtype=np.int64)
    # one block of the disc grid, compared cellwise with exact ints
    t0 = (a * a) * bvec * bvec - 4 * bvec**3
    t1 = (18 * a) * bvec
    t2 = (-4 * a**3) * cvec - 27 * cvec * cvec
    for _ in range(300):
        b = rng.randint(-H, H)
        c = rng.randint(-H, H)
        grid_val = int(t0[b + H] + t1[b + H] * c + t2[c + H])
        f = MonicCubic(a, b, c)
        assert grid_val == disc_cubic(f)
        assert bool(red[b + H, c + H]) == (classify_cubic(f).value == "reducible")
