import itertools
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from galoiscensus import census, families
from galoiscensus.census import (
    KERNEL_VERSION,
    MAX_HEIGHT,
    QUARTIC_CLASSES,
    CensusError,
    CensusRequest,
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
    disc_quartic_coeffs,
    fujiwara_bound,
    is_c4,
    reducibility_witness,
)
from galoiscensus.exactarith import perfect_square


def _table(degree: int, height: int) -> np.ndarray:
    """The table strategy's irreducibility bits over the whole box, stacked
    from the slabs of every stratum a in [-H, H]."""
    return np.stack([census._irreducible_slab(degree, height, a) for a in range(-height, height + 1)])


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
    assert sum(report.counts.values()) == 27


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


def _disc_grid(a: int, b: int, height: int) -> np.ndarray:
    """The dense int64 discriminant grid over (c, d) of stripe (a, b): the
    oracle for the kernel's sparse square cells."""
    v = np.arange(-height, height + 1, dtype=np.int64)
    return disc_quartic_coeffs(a, b, v[:, None], v[None, :])


def _dense_square_block(a: int, b0: int, b1: int, height: int) -> np.ndarray:
    """The positive-square discriminant cells of the block b0 <= b < b1 as a
    (b1 - b0, W, W) bool array, from the dense grids."""
    from galoiscensus.census import _square_mask

    return np.stack([_square_mask(_disc_grid(a, b, height)) for b in range(b0, b1)])


def _square_cells(a: int, b0: int, b1: int, height: int) -> np.ndarray:
    """The kernel's square cells of the block b0 <= b < b1, checked to be
    ascending and in the block, scattered into a (b1 - b0, W, W) grid."""
    from galoiscensus.census import _quartic_square_cells

    W = 2 * height + 1
    sq = _quartic_square_cells(a, b0, b1, height)
    assert np.all(np.diff(sq) > 0) and np.all((sq >= 0) & (sq < (b1 - b0) * W * W)), (a, b0, b1)
    grid = np.zeros((b1 - b0, W, W), dtype=bool)
    grid.reshape(-1)[sq] = True
    return grid


def _resolvent_value(a: int, b: int, c, d, x):
    """r(x) for the cubic resolvent of X^4 + aX^3 + bX^2 + cX + d."""
    return x**3 - b * x**2 + (a * c - 4 * d) * x - (a * a * d - 4 * b * d + c * c)


def _root_block(a: int, b0: int, b1: int, height: int):
    """(has_root, root_val, split): the sparse root cells of the block
    b0 <= b < b1 scattered into dense (b1 - b0, W, W) grids, after checking
    that each listed x is a root of the resolvent at its cell and that no
    (cell, x) pair repeats.  ``split`` marks the cells with a split root;
    ``root_val`` keeps one root of each cell."""
    from galoiscensus.census import _quartic_resolvent_roots

    H, W = height, 2 * height + 1
    cells, roots, split = _quartic_resolvent_roots(a, b0, b1, H)
    assert cells.shape == roots.shape == split.shape and split.dtype == bool
    assert np.all((cells >= 0) & (cells < (b1 - b0) * W * W)), (a, b0, b1, H)
    bc, d = np.divmod(cells, W)
    b, c = np.divmod(bc, W)
    assert not _resolvent_value(a, b + b0, c - H, d - H, roots).any(), (a, b0, b1, H)
    assert len(set(zip(cells.tolist(), roots.tolist()))) == cells.size, (a, b0, b1, H)
    shape = (b1 - b0, W, W)
    has_root, root_val, split_grid = np.zeros(shape, bool), np.zeros(shape, np.int64), np.zeros(shape, bool)
    has_root.reshape(-1)[cells] = True
    root_val.reshape(-1)[cells] = roots
    split_grid.reshape(-1)[cells[split]] = True
    return has_root, root_val, split_grid


def _root_grids(a: int, b: int, height: int):
    """``_root_block`` of the one-b block of stripe (a, b), as (W, W) grids."""
    return tuple(g[0] for g in _root_block(a, b, b + 1, height))


def _linear_block(a: int, b0: int, b1: int, height: int) -> np.ndarray:
    """The block's linear-factor mask, as ``_stripe_job`` takes it."""
    from galoiscensus.census import _factor_pairs, _quartic_red_mask

    return _quartic_red_mask(a, b0, b1, height, _factor_pairs(height))


def _reducible_block(a: int, b0: int, b1: int, height: int) -> np.ndarray:
    """The block's reducible mask: the linear-factor cells plus the split
    root cells, as ``_quartic_block_counts`` completes it."""
    return _linear_block(a, b0, b1, height) | _root_block(a, b0, b1, height)[2]


def _reducible_grid(a: int, b: int, height: int) -> np.ndarray:
    """``_reducible_block`` of the one-b block of stripe (a, b)."""
    return _reducible_block(a, b, b + 1, height)[0]


def _assert_kernel_labels(a: int, b: int, height: int, cells) -> None:
    """Rebuild the class of each (c, d) in ``cells`` from the raw kernel
    output of stripe (a, b), the way ``_quartic_block_counts`` decides it,
    and demand exact agreement with the per-polynomial classifier."""
    H = height
    red = _reducible_grid(a, b, H)
    disc = _disc_grid(a, b, H)
    square = _square_cells(a, b, b + 1, H)[0]
    has_root, root_val, _ = _root_grids(a, b, H)
    for c, d in cells:
        i, j = c + H, d + H
        if red[i, j]:
            label = "reducible"
        elif square[i, j]:
            label = "V4" if has_root[i, j] else "A4"
        elif not has_root[i, j]:
            label = "S4"
        else:
            label = "C4" if is_c4(a, b, d, int(root_val[i, j]), int(disc[i, j])) else "D4"
        assert label == classify_quartic(MonicQuartic(a, b, c, d)).group.value, (a, b, c, d)


def _block_counts(a: int, b0: int, b1: int, height: int):
    """The kernel's class counts of the block b0 <= b < b1 (``direct`` mask)."""
    from galoiscensus.census import _quartic_block_counts

    return _quartic_block_counts(a, b0, b1, height, _linear_block(a, b0, b1, height))


def test_quartic_stripe_grids_match_classifier_at_height12():
    # every cell of sampled stripes, labelled from the raw kernel output,
    # agrees exactly with the per-polynomial classifier, and so do the
    # counts of the stripe's one-b block, which take V4 and D4/C4 from the
    # sparse root cells
    H = 12
    rng = random.Random(3)
    stripes = [(rng.randint(-H, H), rng.randint(-H, H)) for _ in range(8)] + [(0, 0)]
    cells = list(itertools.product(range(-H, H + 1), repeat=2))
    for a, b in stripes:
        _assert_kernel_labels(a, b, H, cells)
        labels = Counter(classify_quartic(MonicQuartic(a, b, c, d)).group.value for c, d in cells)
        counts = _block_counts(a, b, b + 1, H)
        assert dict(zip(QUARTIC_CLASSES, counts)) == {k: labels[k] for k in QUARTIC_CLASSES}, (a, b)


def test_quartic_stripe_grids_match_classifier_at_height150():
    # sampled cells of seeded stripes (the box corners among them): random
    # cells, cells on the lines d = 0 and c = 0, and a few of the cells the
    # kernel finds reducible, with a resolvent root or with a square disc,
    # so the rare classes are checked too
    H = 150
    rng = random.Random(150)
    stripes = [(H, H), (-H, -H), (H, -H), (-H, H), (0, 0)]
    stripes += [(rng.randint(-H, H), rng.randint(-H, H)) for _ in range(19)]
    for a, b in stripes:
        cells = [(rng.randint(-H, H), rng.randint(-H, H)) for _ in range(200)]
        cells += [(rng.randint(-H, H), 0) for _ in range(20)]
        cells += [(0, rng.randint(-H, H)) for _ in range(20)]
        red = _reducible_grid(a, b, H)
        has_root = _root_grids(a, b, H)[0]
        square = _square_cells(a, b, b + 1, H)[0]
        for found in (red, has_root & ~red, square & ~red):
            hits = np.argwhere(found) - H
            for k in rng.sample(range(len(hits)), min(10, len(hits))):
                cells.append((int(hits[k, 0]), int(hits[k, 1])))
        _assert_kernel_labels(a, b, H, cells)


def test_quartic_red_mask_matches_table_exhaustively():
    # the whole reducible mask of every a-stratum at H=16, taken as one
    # block of all 33 b (the linear cells plus the split root cells), equals
    # the complement of the table strategy's independent product marking
    H = 16
    for a in range(-H, H + 1):
        assert np.array_equal(_reducible_block(a, -H, H + 1, H), ~census._irreducible_slab(4, H, a)), a


def test_quartic_resolvent_roots_match_unpruned_search():
    # every integer root of the cubic resolvent over the whole box at H=10,
    # found by trying each x up to the Cauchy bound with no row pruning
    H = 10
    X = 1 + H**3 + 5 * H**2  # 1 + the largest |coefficient| of the resolvent
    x = np.arange(-X, X + 1, dtype=np.int64)[:, None]
    v = np.arange(-H, H + 1, dtype=np.int64)
    for a, b in itertools.product(range(-H, H + 1), repeat=2):
        # d * K(x) = num(x, c): K != 0 pins d, K == 0 and num == 0 fix every d
        K = 4 * x + a * a - 4 * b
        num = x * x * (x - b) + a * x * v - v * v
        dq, rem = np.divmod(num, np.where(K == 0, 1, K))
        hit = (K != 0) & (rem == 0) & (np.abs(dq) <= H)
        expected = np.zeros((2 * H + 1, 2 * H + 1), dtype=bool)
        expected[np.nonzero(hit)[1], dq[hit] + H] = True
        expected[np.nonzero((K == 0) & (num == 0))[1], :] = True

        assert np.array_equal(_root_grids(a, b, H)[0], expected), (a, b)


def _resolvent_oracle(a: int, b: int, height: int):
    """(has_root, root_val) by the earlier dense search: d * K(x) = num(x, c)
    with num = x^2 (x - b) + axc - c^2 is divided out on every (x, c) of
    the rows whose value range can reach |d| <= H."""
    H, W = height, 2 * height + 1
    has_root = np.zeros((W, W), dtype=bool)
    root_val = np.zeros((W, W), dtype=np.int64)

    qmax = abs(a) * H + 4 * H
    smax = a * a * H + 4 * abs(b) * H + H * H
    xmax = fujiwara_bound(b, qmax, smax)
    x = np.arange(-xmax, xmax + 1, dtype=np.int64)
    K = 4 * x + (a * a - 4 * b)
    base, ax = x * x * (x - b), np.abs(a * x)
    # over |c| <= H, axc - c^2 lies in [-|ax| H - H^2, min((ax)^2 / 4, |ax| H)]
    lo = base - ax * H - H * H
    hi = base + np.minimum(ax * ax // 4, ax * H)
    reach = H * np.abs(K)
    keep = (K != 0) & (lo <= reach) & (hi >= -reach)
    xn = x[keep][:, None]
    Kn = K[keep][:, None]
    c = np.arange(-H, H + 1, dtype=np.int64)[None, :]
    num = base[keep][:, None] + (a * xn) * c - c * c
    dq, drem = np.divmod(num, Kn)
    ok = (drem == 0) & (np.abs(dq) <= H)
    idx = (np.broadcast_to(c, ok.shape)[ok] + H) * W + dq[ok] + H
    has_root.reshape(-1)[idx] = True
    root_val.reshape(-1)[idx] = np.broadcast_to(xn, ok.shape)[ok]

    # K(x0) == 0: a quadratic in c alone, and every d shares the root x0
    if a % 2 == 0:
        x0 = b - (a * a) // 4
        t = perfect_square((a * x0) ** 2 - 4 * (b * x0 * x0 - x0**3))
        if t is not None:
            for cv in {a * x0 + t, a * x0 - t}:
                if cv % 2 == 0 and abs(cv // 2) <= H:
                    has_root[cv // 2 + H, :] = True
                    root_val[cv // 2 + H, :] = x0
    return has_root, root_val


def _split_oracle(a: int, b: int, height: int) -> np.ndarray:
    """The cells of stripe (a, b) that split into two monic quadratics, by
    the earlier factor-pair route.  (X^2 + pX + q)(X^2 + rX + s) with
    qs = d != 0 has p + r = a and pr = b - q - s, so p and r are the integer
    roots of T^2 - aT + (b - q - s), and c = ps + qr; both orders of (q, s)
    are in the pair table, so q <= s lists each split once and each root is
    tried as p.  At d = 0, f = X g splits exactly when the cubic
    g = X^3 + aX^2 + bX + c has an integer root: row b of the cubic
    reducible mask."""
    from galoiscensus.census import _cubic_red_mask, _factor_pairs, _square_mask

    H, W = height, 2 * height + 1
    split = np.zeros((W, W), dtype=bool)
    pairs = _factor_pairs(H)
    rr, ss, _ = pairs
    keep = (ss != 0) & (rr <= ss)
    q, s = rr[keep], ss[keep]
    disc = a * a - 4 * (b - q - s)
    ok = _square_mask(disc) | (disc == 0)
    q, s = q[ok], s[ok]
    t = np.rint(np.sqrt(disc[ok])).astype(np.int64)  # t = a (mod 2)
    p, r, d = (a + t) // 2, (a - t) // 2, q * s
    for cc in (p * s + q * r, r * s + q * p):
        ok = np.abs(cc) <= H
        split[cc[ok] + H, d[ok] + H] = True
    split[:, H] = _cubic_red_mask(a, H, pairs)[b + H]
    return split


def _assert_resolvent_matches_oracle(a: int, b: int, height: int) -> None:
    has_root, _, split = _root_grids(a, b, height)
    assert np.array_equal(has_root, _resolvent_oracle(a, b, height)[0]), (a, b, height)
    assert np.array_equal(split, _split_oracle(a, b, height)), (a, b, height)


def test_quartic_resolvent_roots_match_oracle_up_to_height20():
    # the root cells against the dense search, the split cells against the
    # factor-pair route, at every stripe
    for H in range(21):
        for a, b in itertools.product(range(-H, H + 1), repeat=2):
            _assert_resolvent_matches_oracle(a, b, H)


@pytest.mark.parametrize("height", [150, 400])
def test_quartic_resolvent_roots_match_oracle_on_seeded_stripes(height):
    # as above, on seeded stripes of heights the table cannot reach
    H = height
    rng = random.Random(height)
    stripes = [(H, H), (-H, -H), (H, -H), (-H, H), (0, 0)]
    stripes += [(rng.randint(-H, H), rng.randint(-H, H)) for _ in range(15)]
    for a, b in stripes:
        _assert_resolvent_matches_oracle(a, b, H)


def test_quartic_resolvent_roots_block_equals_its_stripes():
    # a block's root cells are its stripes' root cells, each b's cells
    # offset by its place in the block, in blocks of every size and at
    # every place in the a-stratum, K = 0 rows included (even a)
    from galoiscensus.census import _quartic_resolvent_roots

    for H in (7, 20):
        W = 2 * H + 1
        for a in (0, 1, 6, -H, H):
            per_b = {b: _quartic_resolvent_roots(a, b, b + 1, H) for b in range(-H, H + 1)}
            for nb in (2, 3, W):
                for b0 in range(-H, H + 1, nb):
                    b1 = min(b0 + nb, H + 1)
                    got = list(zip(*(v.tolist() for v in _quartic_resolvent_roots(a, b0, b1, H))))
                    want = []
                    for b in range(b0, b1):
                        cells, roots, split = per_b[b]
                        cells = cells + (b - b0) * W * W
                        want += zip(cells.tolist(), roots.tolist(), split.tolist())
                    assert sorted(got) == sorted(want), (H, a, b0, b1)


def _assert_windows_cover(a: int, b0: int, b1: int, height: int) -> tuple[int, int]:
    """Every cell of the block with disc > 0 lies in its (b, c) row's
    d-window (the dense grid is the oracle); returns (window cells,
    positive cells)."""
    from galoiscensus.census import _quartic_d_windows

    H, W = height, 2 * height + 1
    lo, hi, _ = _quartic_d_windows(a, b0, b1, H)
    assert lo.shape == hi.shape == ((b1 - b0) * W,)
    d = np.arange(-H, H + 1, dtype=np.int64)
    inside = (d >= lo[:, None]) & (d <= hi[:, None])
    positive = np.concatenate([_disc_grid(a, b, H) > 0 for b in range(b0, b1)])
    assert not (positive & ~inside).any(), (a, b0, b1, H, np.argwhere(positive & ~inside)[:5])
    return int(inside.sum()), int(positive.sum())


def test_quartic_d_windows_cover_positive_disc_up_to_height20():
    # exhaustive at every H <= 20 and a >= 0, each stratum as one block
    for H in range(21):
        for a in range(H + 1):
            _assert_windows_cover(a, -H, H + 1, H)


@pytest.mark.parametrize("height", [150, 400])
def test_quartic_d_windows_cover_positive_disc_on_seeded_stripes(height):
    # seeded stripes, the box corners and, at the cap, the corner stripes of
    # test_quartic_kernel_exact_at_height_cap; the windows must also cut
    # the evaluated cells well below the full grid
    H = height
    rng = random.Random(4 * height)
    stripes = [(H, H), (0, 0), (H, -H), (0, -H)]
    if H == 400:
        stripes += [(400, -400), (0, -400), (399, 397), (255, -33)]
    stripes += [(rng.randint(0, H), rng.randint(-H, H)) for _ in range(12)]
    window = positive = 0
    for a, b in stripes:
        w, p = _assert_windows_cover(a, b, b + 1, H)
        window, positive = window + w, positive + p
    assert positive <= window < 0.4 * len(stripes) * (2 * H + 1) ** 2


def test_quartic_square_cells_match_dense_grid_up_to_height20():
    # the windowed, tiled square test against the dense grid at every
    # H <= 20, each a-stratum (a < 0 too) as one block of all b
    for H in range(21):
        for a in range(-H, H + 1):
            got = _square_cells(a, -H, H + 1, H)
            assert np.array_equal(got, _dense_square_block(a, -H, H + 1, H)), (H, a)


@pytest.mark.parametrize("height", [150, 400])
def test_quartic_square_cells_match_dense_grid_on_seeded_stripes(height):
    H = height
    rng = random.Random(height + 1)
    stripes = [(H, H), (0, 0), (H, -H), (0, -H), (-H, H)]
    stripes += [(rng.randint(-H, H), rng.randint(-H, H)) for _ in range(10)]
    found = 0
    for a, b in stripes:
        got = _square_cells(a, b, b + 1, H)
        assert np.array_equal(got, _dense_square_block(a, b, b + 1, H)), (a, b)
        found += int(got.sum())
    assert found > 0


def test_quartic_square_cells_match_dense_grid_with_one_row_tiles(monkeypatch):
    # a tile per row puts a tile edge at every Loeschian slice boundary
    monkeypatch.setattr(census, "_WINDOW_TILE_CELLS", 1)
    for H in range(21):
        for a in range(-H, H + 1):
            got = _square_cells(a, -H, H + 1, H)
            assert np.array_equal(got, _dense_square_block(a, -H, H + 1, H)), (H, a)


def test_positive_square_disc_has_loeschian_i_up_to_height12():
    # the lemma behind the square test's slices, over every cell of the
    # box: a positive square disc has I(d) Loeschian and at most 4H^2 + 12H
    from galoiscensus.census import _loeschian, _square_mask
    from galoiscensus.classify import invariants_quartic_coeffs

    for H in range(13):
        v = np.arange(-H, H + 1, dtype=np.int64)
        a, b, c, d = np.meshgrid(v, v, v, v, indexing="ij", sparse=True)
        sq = _square_mask(disc_quartic_coeffs(a, b, c, d))
        i = np.broadcast_to(invariants_quartic_coeffs(a, b, c, d)[0], sq.shape)[sq]
        assert np.all((i >= 1) & (i <= 4 * H * H + 12 * H)), H
        assert _loeschian(4 * H * H + 12 * H)[i].all(), H


def test_loeschian_keys_list_the_loeschian_numbers_by_class():
    from galoiscensus.census import _loeschian, _loeschian_keys

    for H in (0, 1, 5, 60):
        n_max = 4 * H * H + 12 * H
        keys, m = _loeschian_keys(H)
        assert not keys.flags.writeable and m == n_max // 12 + 1
        assert np.all(np.diff(keys) > 0), H
        r, q = np.divmod(keys, m)
        n = np.sort(q * 12 + r)
        assert np.all(r < 12) and np.array_equal(n, np.flatnonzero(_loeschian(n_max))), H


def _d4c4_cells(a: int, b0: int, b1: int, height: int):
    """(b, c, d, x, disc) of the irreducible resolvent root cells of the
    block b0 <= b < b1 with a non-square disc, as ``_quartic_block_counts``
    selects them: the cells the D4/C4 split decides."""
    from galoiscensus.census import _quartic_resolvent_roots, _square_mask

    H, W = height, 2 * height + 1
    cells, x, _ = _quartic_resolvent_roots(a, b0, b1, H)
    keep = ~_reducible_block(a, b0, b1, H).reshape(-1)[cells]
    cells, x = cells[keep], x[keep]
    bc, d = np.divmod(cells, W)
    b, c = np.divmod(bc, W)
    b, c, d = b + b0, c - H, d - H
    disc = disc_quartic_coeffs(a, b, c, d)
    keep = ~_square_mask(disc)
    return b[keep], c[keep], d[keep], x[keep], disc[keep]


def _assert_c4_mask_matches_is_c4(a: int, b0: int, b1: int, height: int) -> Counter:
    """The int64 split against ``is_c4`` on Python ints, cell by cell, on the
    block's D4/C4 cells; returns a tally of the cases the split covers."""
    from galoiscensus.census import _c4_mask

    b, c, d, x, disc = _d4c4_cells(a, b0, b1, height)
    got = _c4_mask(a, b, d, x, disc)
    want = np.array([is_c4(a, *v) for v in zip(b.tolist(), d.tolist(), x.tolist(), disc.tolist())], dtype=bool)
    bad = np.flatnonzero(got != want)
    assert not bad.size, [(a, int(b[k]), int(c[k]), int(d[k]), int(x[k])) for k in bad[:5]]
    K, t = a * a - 4 * b + 4 * x, x * a - 2 * c
    tally = {"cells": got.size, "C4": got.sum(), "D4": (~got).sum()}
    tally |= {"K = 0": (K == 0).sum(), "t = 0, K != 0": ((t == 0) & (K != 0)).sum(), "K < 0": (K < 0).sum()}
    return Counter({k: int(v) for k, v in tally.items()})


def test_c4_mask_matches_is_c4_on_every_cell_up_to_height12():
    seen: Counter[str] = Counter()
    for H in range(13):
        for a in range(-H, H + 1):
            seen += _assert_c4_mask_matches_is_c4(a, -H, H + 1, H)
    assert all(seen[k] for k in ("C4", "D4", "K = 0", "t = 0, K != 0", "K < 0")), seen


def test_c4_mask_matches_is_c4_on_every_stratum_at_height60():
    # every cell the H = 60 census splits, a >= 0 (each stratum one block)
    H = 60
    seen: Counter[str] = Counter()
    for a in range(H + 1):
        seen += _assert_c4_mask_matches_is_c4(a, -H, H + 1, H)
    assert seen["cells"] == 257371 and seen["K = 0"] == 48095, seen
    assert seen["t = 0, K != 0"] == 34213 and seen["K < 0"] == 39039, seen
    assert seen["C4"] and seen["D4"], seen


@pytest.mark.parametrize("height", [150, 400])
def test_c4_mask_matches_is_c4_on_seeded_stripes(height):
    # the stripes of test_quartic_resolvent_roots_match_oracle_on_seeded_stripes
    H = height
    rng = random.Random(height)
    stripes = [(H, H), (-H, -H), (H, -H), (-H, H), (0, 0)]
    stripes += [(rng.randint(-H, H), rng.randint(-H, H)) for _ in range(15)]
    seen: Counter[str] = Counter()
    for a, b in stripes:
        seen += _assert_c4_mask_matches_is_c4(a, b, b + 1, H)
    assert seen["cells"] > 0 and seen["D4"] > 0, seen


def test_c4_mask_exact_at_height_cap():
    # extreme (a, b, x, d) at H = 400, where w reaches its bound, against
    # discs up to 2^62 in size, many making w disc a square: the int64 gcd
    # split equals "w = 0 or w disc a positive square" in Python ints
    from galoiscensus.census import _c4_mask
    from galoiscensus.exactarith import factorize

    H, X = 400, 805
    rows = []
    for a, b, x, d in itertools.product((-H, -H + 1, 0, 1, H - 1, H), (-H, 0, H), (-X, -1, 0, 1, X), (-H, 0, H)):
        rows.append((a, b, x, d))
        if a % 2 == 0:
            rows.append((a, b, b - a * a // 4, d))  # K = 0
    cases = []
    for a, b, x, d in rows:
        K = a * a - 4 * b + 4 * x
        w = K if K else x * x - 4 * d
        core = math.prod(p for p, e in factorize(abs(w)) if e % 2) if w else 1
        discs = [2**62 - 1, -(2**62) + 1, 1, -1]
        for f in (abs(w), core):
            if f:
                m = math.isqrt((2**62 - 1) // f)
                discs += [f * m * m, -f * m * m, f * m * m - 1, f, f * (m - 1) ** 2]
        cases += [(a, b, x, d, s * v) for v in discs for s in (1, -1) if v]
    want = []
    for a, b, x, d, disc in cases:
        K = a * a - 4 * b + 4 * x
        w = K if K else x * x - 4 * d
        want.append(w == 0 or (w * disc > 0 and math.isqrt(w * disc) ** 2 == w * disc))
    # a as an int64 array too, so every product is formed in int64
    a, b, x, d, disc = (np.array(col, dtype=np.int64) for col in zip(*cases))
    assert _c4_mask(a, b, d, x, disc).tolist() == want
    assert sum(want) > 50 and len(want) - sum(want) > 50


def _stratum_labels(a: int, height: int) -> dict[str, int]:
    rng = range(-height, height + 1)
    labels = Counter(
        classify_quartic(MonicQuartic(a, b, c, d)).group.value for b, c, d in itertools.product(rng, repeat=3)
    )
    factor = 1 if a == 0 else 2
    return {k: labels[k] * factor for k in QUARTIC_CLASSES}


@pytest.mark.parametrize("per_block", [1, 2, 3, "all"])
def test_quartic_blocks_and_tiles_match_classifier(monkeypatch, per_block):
    # blocks of 1, 2, 3 and 2H + 1 b-values (2 and 3 do not divide 2H + 1 =
    # 25), tiles of three rows: the a-stratum counts equal the classifier's
    from galoiscensus.census import _stripe_job

    H, W = 12, 25
    nb = W if per_block == "all" else per_block
    monkeypatch.setattr(census, "_BLOCK_CELLS", nb * W * W)
    monkeypatch.setattr(census, "_WINDOW_TILE_CELLS", 3 * W)
    blocks = []
    block_counts = census._quartic_block_counts

    def recorded(a, b0, b1, *rest):
        blocks.append((b0, b1))
        return block_counts(a, b0, b1, *rest)

    monkeypatch.setattr(census, "_quartic_block_counts", recorded)
    for a in (0, 7, H):
        blocks.clear()
        assert _stripe_job(4, H, "direct", a) == (a, _stratum_labels(a, H)), a
        assert blocks == [(b0, min(b0 + nb, H + 1)) for b0 in range(-H, H + 1, nb)]


@pytest.mark.parametrize("per_block", [1, 2, 3, "all"])
def test_quartic_blocks_and_tiles_match_table_at_height20(monkeypatch, per_block):
    H, W = 20, 41
    nb = W if per_block == "all" else per_block
    table = run_census(CensusRequest(4, H, strategy="table", workers=1)).counts
    monkeypatch.setattr(census, "_BLOCK_CELLS", nb * W * W)
    monkeypatch.setattr(census, "_WINDOW_TILE_CELLS", 2 * W)
    for strategy in ("direct", "table"):
        assert run_census(CensusRequest(4, H, strategy=strategy, workers=1)).counts == table, strategy


def test_rad2_table():
    # rad2(n) = prod p^ceil(e/2) is the smallest m with n | m^2
    from galoiscensus.census import _rad2
    from galoiscensus.exactarith import factorize

    def rad2(n: int) -> int:
        return math.prod(p ** ((e + 1) // 2) for p, e in factorize(n))

    table = _rad2(140)
    assert not table.flags.writeable
    assert table.size > 20001 and table[0] == 0
    for n in range(1, 20001):
        assert table[n] == rad2(n), n
    for n in range(1, 2001):
        assert table[n] == next(m for m in range(1, n + 1) if m * m % n == 0), n

    H = 400
    top = _rad2(H)
    n_max = H * H + 4 * H + 4 * fujiwara_bound(H, H * H + 4 * H, H**3 + 5 * H * H) + 4
    assert top.size == n_max + 1 == 164825
    assert top[-1] == rad2(n_max)


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
    for bad in (CensusRequest(3.0, 6), CensusRequest(3, 6, workers=2.5), CensusRequest(3, 6, workers="2")):
        with pytest.raises(CensusError):
            run_census(bad)
    with pytest.raises(CensusError):
        run_census(CensusRequest(3, -1))
    with pytest.raises(CensusError):
        run_census(CensusRequest(3, 10, strategy="magic"))
    with pytest.raises(CensusError):
        run_census(CensusRequest(4, 401))  # beyond the int64-safe cap


def test_irreducible_table_bit_counts():
    t3 = _table(3, 1)
    assert int(t3.sum()) == 12  # complement of the 15 reducibles at H=1
    t4 = _table(4, 0)
    assert int(t4.sum()) == 0  # X^4 alone, reducible
    t4 = _table(4, 2)
    direct = run_census(CensusRequest(4, 2, workers=1))
    irr_direct = sum(direct.counts.values()) - direct.counts["reducible"]
    assert int(t4.sum()) == irr_direct


def test_irreducible_table_matches_witness_scan():
    table = _table(4, 3)
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        expected = reducibility_witness(MonicQuartic(a, b, c, d)) is None
        assert bool(table[a + 3, b + 3, c + 3, d + 3]) == expected


@pytest.mark.parametrize("degree, heights", [(3, range(0, 9)), (4, range(0, 5))])
def test_irreducible_table_matches_classifier(degree, heights):
    for H in heights:
        table = _table(degree, H)
        for coeffs in itertools.product(range(-H, H + 1), repeat=degree):
            if degree == 3:
                expected = classify_cubic(MonicCubic(*coeffs)).value != "reducible"
            else:
                expected = reducibility_witness(MonicQuartic(*coeffs)) is None
            assert bool(table[tuple(c + H for c in coeffs)]) == expected, coeffs


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


def test_complete_journal_builds_no_table(tmp_path, monkeypatch):
    journal = tmp_path / "census.journal"
    req = CensusRequest(3, 6, strategy="table", workers=1)
    full = run_census(req, journal_path=str(journal))

    def no_slab(degree, height, a):
        raise AssertionError("every stripe is in the journal")

    monkeypatch.setattr(census, "_irreducible_slab", no_slab)
    assert run_census(req, journal_path=str(journal)).counts == full.counts


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


@pytest.mark.parametrize("workers", [1, 2])
def test_journal_after_interrupt_holds_whole_records(tmp_path, workers):
    # Ctrl-C after k stripes: the journal keeps the header and exactly the k
    # records written so far, each a whole line, and a resume completes it.
    # The box holds 4 runs of up to 46 strata, so two workers take a pool,
    # k = 1 and k = 7 stop inside its first run and the rest of that run is
    # recomputed on resume
    from galoiscensus.census import _run_length

    H = 150
    req = CensusRequest(3, H, workers=workers)
    full = run_census(CensusRequest(3, H, workers=1))
    assert _run_length(3, H) == 46
    for k in (1, 7):
        journal = tmp_path / f"interrupted-{k}.journal"

        def progress(done, total):
            if done == k:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_census(req, journal_path=str(journal), progress=progress)
        text = journal.read_text()
        assert text.endswith("\n")
        records = [json.loads(line) for line in text.splitlines()]
        assert records[0] == {"checksum": req.checksum(), "kernel": KERNEL_VERSION}
        assert len(records) == 1 + k
        assert len({r["stripe"] for r in records[1:]}) == k
        assert all(full.counts.keys() == r["counts"].keys() for r in records[1:])

        resumed = run_census(req, journal_path=str(journal))
        assert resumed.counts == full.counts
        assert len(journal.read_text().splitlines()) == 1 + H + 1


def _count_fsyncs(monkeypatch) -> list[int]:
    """Patch os.fsync to record the size of the synced file at each call."""
    sizes = []
    monkeypatch.setattr(os, "fsync", lambda fd: sizes.append(os.fstat(fd).st_size))
    return sizes


def test_journal_fsync_cadence(tmp_path, monkeypatch):
    # a short run fsyncs at most once per second, plus once before the close,
    # after the last record
    journal = tmp_path / "census.journal"
    sizes = _count_fsyncs(monkeypatch)
    rep = run_census(CensusRequest(3, 8, workers=1), journal_path=str(journal))
    assert 1 <= len(sizes) <= 1 + int(rep.wall_time_s)
    assert sizes[-1] == journal.stat().st_size

    # with no interval, each stripe record is fsynced as it lands
    monkeypatch.setattr("galoiscensus.census._FSYNC_INTERVAL_S", 0.0)
    journal.unlink()
    sizes.clear()
    run_census(CensusRequest(3, 8, workers=1), journal_path=str(journal))
    ends = list(itertools.accumulate(len(line) for line in journal.read_text().splitlines(keepends=True)))
    assert sizes == ends[1:] + ends[-1:]  # one per stripe, then the close


def test_journal_malformed_line_is_named(tmp_path):
    journal = tmp_path / "census.journal"
    req = CensusRequest(3, 6, workers=1)
    run_census(req, journal_path=str(journal))
    lines = journal.read_text().splitlines()
    lines[2] = lines[2][:12]
    journal.write_text("\n".join(lines) + "\n")
    with pytest.raises(CensusError, match="line 3"):
        run_census(req, journal_path=str(journal))


def test_journal_repeated_stripe_is_named(tmp_path):
    # a second record of a stripe, even one whose counts still sum to its
    # share of the box, is refused, not merged over the first
    journal = tmp_path / "census.journal"
    req = CensusRequest(3, 3, workers=1)
    run_census(req, journal_path=str(journal))
    lines = journal.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["counts"]["S3"] -= 1
    rec["counts"]["A3"] += 1
    journal.write_text("\n".join([*lines, json.dumps(rec)]) + "\n")
    with pytest.raises(CensusError, match=f"lines 3 and {len(lines) + 1}: both record stripe {rec['stripe']}"):
        run_census(req, journal_path=str(journal))


def test_journal_record_totals_are_checked(tmp_path):
    # two records whose errors cancel would pass the final sum check; each
    # record must sum to its own share of the box, with no negative count
    journal = tmp_path / "census.journal"
    req = CensusRequest(3, 3, workers=1)
    run_census(req, journal_path=str(journal))
    lines = journal.read_text().splitlines()
    recs = [json.loads(line) for line in lines[1:]]
    recs[0]["counts"]["S3"] += 2
    recs[2]["counts"]["S3"] -= 2
    journal.write_text("\n".join([lines[0], *map(json.dumps, recs)]) + "\n")
    with pytest.raises(CensusError, match="line 2: stripe 0 .* sum to its 49 cells"):
        run_census(req, journal_path=str(journal))

    # a negative count is refused even when the record's total is right
    recs[0]["counts"]["S3"] -= 2
    recs[2]["counts"]["S3"] += 2
    counts = recs[1]["counts"]
    counts["S3"] += counts["A3"] + 1
    counts["A3"] = -1
    journal.write_text("\n".join([lines[0], *map(json.dumps, recs)]) + "\n")
    with pytest.raises(CensusError, match="line 3: stripe 1 .* must be >= 0"):
        run_census(req, journal_path=str(journal))


def test_journal_rejects_other_kernels(tmp_path):
    # stripes counted by another kernel version, or by one that recorded
    # none, are never merged; a journal without its header is refused too
    from galoiscensus.census import KERNEL_VERSION

    journal = tmp_path / "census.journal"
    req = CensusRequest(3, 6, workers=1)
    run_census(req, journal_path=str(journal))
    lines = journal.read_text().splitlines()
    assert json.loads(lines[0]) == {"checksum": req.checksum(), "kernel": KERNEL_VERSION}
    headers = {
        f"kernel {KERNEL_VERSION - 1}": {"checksum": req.checksum(), "kernel": KERNEL_VERSION - 1},
        "kernel none": {"checksum": req.checksum()},
    }
    for named, header in headers.items():
        journal.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        with pytest.raises(CensusError, match=f"{named}, this is kernel {KERNEL_VERSION}"):
            run_census(req, journal_path=str(journal))
    journal.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(CensusError, match="line 1: no header"):
        run_census(req, journal_path=str(journal))


def test_journal_blank_first_line_is_no_header(tmp_path):
    # a blank line 1 is not skipped: records after it are never merged
    # unchecked, and a journal holding only a newline never runs on without
    # its header
    journal = tmp_path / "census.journal"
    req = CensusRequest(3, 6, workers=1)
    run_census(req, journal_path=str(journal))
    lines = journal.read_text().splitlines()
    for text in ("\n".join(["", *lines[1:]]) + "\n", "\n"):
        journal.write_text(text)
        with pytest.raises(CensusError, match="line 1: no header"):
            run_census(req, journal_path=str(journal))
        assert journal.read_text() == text


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


def test_report_from_json_rejects_derived_fields_that_disagree():
    text = report_to_json(run_census(CensusRequest(3, 2, workers=1)))
    payload = json.loads(text)
    for key, value in (("checksum", CensusRequest(3, 3).checksum()), ("total", payload["total"] + 1)):
        bad = dict(payload, **{key: value})
        with pytest.raises(ValueError, match=key):
            report_from_json(json.dumps(bad))
    assert report_to_json(report_from_json(text)) == text


def test_report_from_json_rejects_impossible_reports():
    # each payload keeps its total and checksum consistent, so only the
    # count or request check can refuse it; the first one used to load and
    # then make report_to_csv raise KeyError
    payload = json.loads(report_to_json(run_census(CensusRequest(3, 1, workers=1))))
    cases = [
        ({"reducible": 15, "S3": 10, "A4": 2}, {}, "not ints keyed by reducible, S3, A3"),
        ({"reducible": 15, "S3": 12, "A3": 0.0}, {}, "not ints"),
        ({"reducible": 15, "S3": 13, "A3": -1}, {}, "must be >= 0"),
        ({"reducible": 15, "S3": 13, "A3": 0}, {}, "sum to its 27 cells"),
        (payload["counts"], {"degree": 5}, "degree must be 3 or 4"),
        (payload["counts"], {"height": "1"}, "height must be an int >= 0, got '1'"),
    ]
    for counts, fields, message in cases:
        bad = dict(payload, counts=counts, total=sum(counts.values()), **fields)
        bad["checksum"] = CensusRequest(bad["degree"], 1).checksum()
        with pytest.raises(CensusError, match=message):
            report_from_json(json.dumps(bad))


def test_report_csv_shape():
    rep = run_census(CensusRequest(3, 1, workers=1))
    lines = report_to_csv(rep).strip().splitlines()
    assert lines[0] == "class,count"
    assert lines[1:] == ["reducible,15", "S3,12", "A3,0"]


def test_list_a3_cubics_matches_classifier():
    for H in (6, 20):
        found = list_a3_cubics(H)
        expected = [
            (a, b, c)
            for a, b, c in itertools.product(range(-H, H + 1), repeat=3)
            if classify_cubic(MonicCubic(a, b, c)).value == "A3"
        ]
        assert found == expected
        assert len(found) == run_census(CensusRequest(3, H, workers=1)).counts["A3"]


def test_list_a3_cubics_at_height100_is_pinned():
    # the 4,946 A3 cubics of the algebra workload, pinned byte for byte
    import hashlib

    digest = hashlib.md5(repr(list_a3_cubics(100)).encode()).hexdigest()
    assert digest == "7f4402066c47a7f631f420b15f3c5b07"


def test_quartic_kernel_exact_at_height_cap():
    # int64 range claims hold at the documented cap H=400: grid values must
    # equal exact Python-int arithmetic on sampled cells.  The disc grid is
    # the classifier's own formula on int64 arrays, so its comparison checks
    # that the int64 evaluation does not overflow; sympy checks the formula
    # itself in test_classify.  The d-windows cover every disc > 0 cell (their
    # float ends are bounded in test_j_window_brackets_the_exact_window), and
    # the sparse square cells equal the dense grid's.
    from galoiscensus.census import _square_mask
    from galoiscensus.classify import disc_quartic, resolvent_integer_roots

    H = 400
    rng = random.Random(8)
    for a, b in [(400, -400), (399, 397), (0, -400), (255, -33)]:
        disc = _disc_grid(a, b, H)
        red = _reducible_grid(a, b, H)
        has_root, root_val, _ = _root_grids(a, b, H)
        assert np.array_equal(_square_cells(a, b, b + 1, H)[0], _square_mask(disc)), (a, b)
        _assert_windows_cover(a, b, b + 1, H)
        for _ in range(120):
            c = rng.randint(-H, H)
            d = rng.randint(-H, H)
            f = MonicQuartic(a, b, c, d)
            assert int(disc[c + H, d + H]) == disc_quartic(f)
            assert bool(red[c + H, d + H]) == (reducibility_witness(f) is not None)
            roots = resolvent_integer_roots(f)
            assert bool(has_root[c + H, d + H]) == bool(roots)
            if roots:
                assert int(root_val[c + H, d + H]) in roots


def _loeschian_rows(a: int, H: int) -> list[int]:
    """The b-row indices b + H whose I = a^2 - 3b is a positive Loeschian number."""
    from galoiscensus.census import _loeschian

    i = a * a - 3 * (np.arange(2 * H + 1) - H)
    return np.flatnonzero(_loeschian(H * H + 3 * H)[np.maximum(i, 0)]).tolist()


def test_cubic_kernel_exact_at_large_height():
    # the kernel's disc rows and reducible mask equal exact Python ints at
    # the cap; the A3 construction lists elements on exactly the b-rows whose
    # I is a positive Loeschian number, and no other b-row holds a positive
    # square disc.  The disc rows are the classifier's own formula on int64
    # arrays, so their comparison checks that the int64 evaluation does not
    # overflow; sympy checks the formula itself in test_classify.
    from galoiscensus.census import _cubic_norm_cubes, _cubic_red_mask, _factor_pairs
    from galoiscensus.classify import disc_cubic, disc_cubic_coeffs

    H, W = 5000, 10001
    rng = random.Random(9)
    a = 4999
    red = _cubic_red_mask(a, H, _factor_pairs(H))
    rows = np.array(sorted({0, W - 1, *rng.sample(range(W), 30)}))
    disc = disc_cubic_coeffs(a, (rows - H)[:, None], np.arange(-H, H + 1, dtype=np.int64))
    for i, bi in enumerate(rows.tolist()):
        for c in [-H, H, *rng.sample(range(-H, H + 1), 10)]:
            f = MonicCubic(a, bi - H, c)
            assert int(disc[i, c + H]) == disc_cubic(f)
            assert bool(red[bi, c + H]) == (classify_cubic(f).value == "reducible")

    kept = set(_cubic_norm_cubes(a, H)[0].tolist())
    assert kept == set(_loeschian_rows(a, H))
    dropped = sorted(set(range(W)) - kept)
    assert kept and dropped
    for bi in rng.sample(dropped, 40):
        for c in rng.sample(range(-H, H + 1), 200):
            assert not _is_positive_square(disc_cubic(MonicCubic(a, bi - H, c)))


def _dense_a3_rows(a: int, H: int, red: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The A3 cells of the b-row indices ``rows`` over every c, from the raw
    discriminant formula over the whole grid."""
    from galoiscensus.census import _square_mask

    b = (rows - H)[:, None]
    c = np.arange(-H, H + 1, dtype=np.int64)[None, :]
    disc = a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c
    return _square_mask(disc) & ~red[rows]


def _a3_cells(a: int, H: int, red: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sparse A3 cells (b-row indices, c), checked to be in the box, in
    strictly ascending (b, c) order and off the reducible mask."""
    from galoiscensus.census import _cubic_a3_cells

    rows, c = _cubic_a3_cells(a, H, red)
    assert rows.dtype == c.dtype == np.int64 and rows.shape == c.shape
    assert np.all((rows >= 0) & (rows <= 2 * H) & (np.abs(c) <= H))
    assert np.all(np.diff(rows * (2 * H + 1) + c) > 0)
    assert not red[rows, c + H].any()
    return rows, c


def test_cubic_row_filter_matches_dense_sweep():
    # the Eisenstein construction's cells equal the dense grid's on every
    # stratum, both signs of a, so all three residues of a mod 3
    from galoiscensus.census import _cubic_red_mask, _factor_pairs

    H, W = 60, 121
    pairs = _factor_pairs(H)
    for a in range(-H, H + 1):
        red = _cubic_red_mask(a, H, pairs)
        dense = _dense_a3_rows(a, H, red, np.arange(W))
        rows, c = _a3_cells(a, H, red)
        sparse = np.zeros_like(dense)
        sparse[rows, c + H] = True
        assert np.array_equal(sparse, dense), a


@pytest.mark.parametrize("height", [1200, 5000])
def test_cubic_tiles_match_dense_rows_at_large_heights(height):
    # the full dense grid is too large here: sampled rows of seeded stripes,
    # some with a Loeschian I, are swept densely one at a time and compared
    # with the sparse cells
    from galoiscensus.census import _cubic_red_mask, _factor_pairs

    H, W = height, 2 * height + 1
    rng = random.Random(height)
    pairs = _factor_pairs(H)
    for a in [0, H, rng.randint(1, H - 1)]:
        red = _cubic_red_mask(a, H, pairs)
        rows, c = _a3_cells(a, H, red)
        hits = sorted(set(rows.tolist()))
        assert hits, a
        sample = set(rng.sample(range(W), 20) + rng.sample(_loeschian_rows(a, H), 40))
        for bi in sorted(sample | set(rng.sample(hits, min(20, len(hits))))):
            sparse = np.zeros(W, dtype=bool)
            sparse[c[rows == bi] + H] = True
            dense = _dense_a3_rows(a, H, red, np.array([bi]))[0]
            assert np.array_equal(sparse, dense), (a, bi)


def test_cubic_norm_cubes_exact_in_int64_at_the_cap(monkeypatch):
    # the strata with the largest I at the cap H = 5000, one per residue of a
    # mod 3: every product ``_mul`` forms in int64 equals the Python-int
    # product, every listed element has norm I^3, and the components, J and
    # J - J0 stay inside the bounds of the docstrings
    from galoiscensus.census import _cubic_norm_cubes
    from galoiscensus.eisenstein import _mul

    H = 5000
    calls = []

    def recorded_mul(x, y):
        out = _mul(x, y)
        calls.append((x, y, out))
        return out

    monkeypatch.setattr(census, "_mul", recorded_mul)
    largest = {"element": 0, "pair": 0, "product": 0, "J - J0": 0}
    for a in (H, H - 1, H - 2):
        calls.clear()
        rows, m, n = _cubic_norm_cubes(a, H)
        assert len(calls) == 2 and m.dtype == n.dtype == np.int64
        for x, y, out in calls:
            columns = [[int(v) for v in col.tolist()] for col in (*x, *y, *out)]
            for x0, x1, y0, y1, m0, m1 in zip(*columns):
                assert _mul((x0, x1), (y0, y1)) == (m0, m1), a
        (e, f), pair = calls[0][0], calls[0][2]
        largest["element"] = max(largest["element"], int(np.abs(e).max()), int(np.abs(f).max()))
        largest["pair"] = max(largest["pair"], int(np.abs(pair[0]).max()), int(np.abs(pair[1]).max()))
        for row, mm, nn in zip(rows.tolist(), m.tolist(), n.tolist()):
            b = row - H
            i, j0 = a * a - 3 * b, 2 * a**3 - 9 * a * b
            assert mm * mm - mm * nn + nn * nn == i**3, (a, b)
            largest["product"] = max(largest["product"], abs(mm), abs(nn))
            largest["J - J0"] = max(largest["J - J0"], abs(2 * mm - nn - j0))
    assert 5e3 < largest["element"] < 5.8e3 and 2.5e7 < largest["pair"] < 3e7, largest
    assert 1.4e11 < largest["product"] < 1.5e11 and largest["J - J0"] < 5.1e11, largest


def test_cubic_norm_cubes_give_every_representation_up_to_1000():
    # S_I = {J : J^2 + 27 y^2 = 4 I^3, y != 0}, by brute force over y, is
    # the set of +-(2m - n), n != 0, of the listed elements of the row of I:
    # a = 0 holds every I = 0 (mod 3), a = 1 and 2 every I = 1 (mod 3), and
    # no I = 2 (mod 3) has a representation.  For 3 not dividing a, the
    # listed J are the ones = J0 (mod 3)
    from galoiscensus.census import _cubic_norm_cubes

    H = 334
    found = {a: {} for a in (0, 1, 2)}
    for a in (0, 1, 2):
        rows, m, n = _cubic_norm_cubes(a, H)
        for row, mm, nn in zip(rows.tolist(), m.tolist(), n.tolist()):
            b = row - H
            i, j = a * a - 3 * b, 2 * mm - nn
            if a % 3:
                assert (j - (2 * a**3 - 9 * a * b)) % 3 == 0, (a, b)
            if nn and i <= 1000:
                found[a].setdefault(i, set()).update((j, -j))
    checked = 0
    for i in range(1, 1001):
        y = np.arange(1, math.isqrt(4 * i**3 // 27) + 1, dtype=np.int64)
        t = 4 * i**3 - 27 * y * y
        s = np.rint(np.sqrt(t)).astype(np.int64)
        brute = set(s[s * s == t].tolist()) | set((-s[s * s == t]).tolist())
        strata = [0] if i % 3 == 0 else [1, 2] if i % 3 == 1 else []
        for a in strata:
            assert found[a].get(i, set()) == brute, (i, a)
        assert strata or not brute, i
        checked += bool(brute)
    assert checked > 100


def test_pool_runs_partition_todo_within_the_cell_budget(tmp_path):
    from galoiscensus.census import _RUN_CELLS, _run_length

    # the documented run lengths, set by the height alone
    for degree, H, n in [(3, 500, 4), (4, 60, 2), (3, 1024, 1), (4, 80, 1)]:
        assert _run_length(degree, H) == n, (degree, H)
    # a run fills the cell budget, and passes it only as a single stratum
    for degree in (3, 4):
        for H in range(MAX_HEIGHT[degree] + 1):
            n, cells = _run_length(degree, H), (2 * H + 1) ** (degree - 1)
            assert n == 1 or n * cells <= _RUN_CELLS < (n + 1) * cells, (degree, H)
    # the pool yields each stratum of a gapped todo once, in order
    journal = tmp_path / "gapped.journal"
    full = run_census(CensusRequest(3, 150, workers=1), journal_path=str(journal))
    header, *records = journal.read_text().splitlines(keepends=True)
    kept = [r for r in records if json.loads(r)["stripe"] % 7 == 3]
    journal.write_text(header + "".join(kept))
    resumed = run_census(CensusRequest(3, 150, workers=2), journal_path=str(journal))
    appended = [json.loads(r)["stripe"] for r in journal.read_text().splitlines()[1 + len(kept) :]]
    assert appended == [a for a in range(151) if a % 7 != 3]
    assert resumed.counts == full.counts


def test_census_pool_holds_at_most_one_worker_per_stripe(monkeypatch, pool_sizes):
    # runs of one stratum: three strata take a pool of at most three, and
    # one stratum takes none
    monkeypatch.setattr(census, "_RUN_CELLS", 1)
    monkeypatch.setattr(families.os, "cpu_count", lambda: 8)
    for strategy in ("direct", "table"):  # both strategies take the pool
        pool_sizes.clear()
        serial = run_census(CensusRequest(3, 2, strategy, workers=1)).counts
        assert pool_sizes == []
        for workers in (8, 0, 2):
            assert run_census(CensusRequest(3, 2, strategy, workers=workers)).counts == serial
        run_census(CensusRequest(3, 0, strategy, workers=8))
        assert pool_sizes == [3, 3, 2], strategy


def test_census_box_of_one_run_starts_no_pool(pool_sizes):
    for degree, H in [(3, 40), (4, 12), (3, 100), (4, 26)]:
        run_census(CensusRequest(degree, H, workers=8))
    assert pool_sizes == []
    # cubic H = 150 holds 4 runs: one pool of min(workers, runs)
    serial = run_census(CensusRequest(3, 150, workers=1)).counts
    for workers, size in [(8, 4), (3, 3)]:
        pool_sizes.clear()
        assert run_census(CensusRequest(3, 150, workers=workers)).counts == serial
        assert pool_sizes == [size]


def test_pooled_journal_equals_serial_journal(tmp_path):
    # results arrive in stratum order on every path, so a fresh journal
    # written by two workers is byte-identical to a serial one
    journals = {}
    for workers in (1, 2):
        journals[workers] = tmp_path / f"workers-{workers}.journal"
        run_census(CensusRequest(4, 30, workers=workers), journal_path=str(journals[workers]))
    assert journals[1].read_bytes() == journals[2].read_bytes()


def _assert_j_windows(height: int, rows, disc) -> int:
    """``_j_window`` on rows (i_top, j0, slope, *coeffs) of Python ints,
    against the exact window {t in [-H, H] : |j0 + slope t| <= S},
    S = isqrt(4 i_top^3): it contains the exact window, exceeds it by at most
    one t per end where slope != 0 (and holds every t or none where slope =
    0), and disc(*coeffs, t) <= 0 at its outer neighbours in the box.
    Returns the number of rows whose exact window is non-empty."""
    from galoiscensus.census import _j_window

    H = height
    i_top, j0, slope = (np.array([row[k] for row in rows], dtype=np.int64) for k in range(3))
    lo, hi = _j_window(i_top, j0, slope, H)
    non_empty = 0
    for (i, j, s, *coeffs), l, h in zip(rows, lo.tolist(), hi.tolist()):
        S = math.isqrt(4 * i**3)
        if s == 0:
            assert (l, h) == (-H, H) if abs(j) <= S else (l > h or abs(j) <= S + 2), (H, i, j, coeffs)
            continue
        ends = sorted([Fraction(-S - j, s), Fraction(S - j, s)])
        exact_lo, exact_hi = max(math.ceil(ends[0]), -H), min(math.floor(ends[1]), H)
        assert exact_lo - 1 <= l and h <= exact_hi + 1, (H, i, j, s, coeffs)
        if exact_lo <= exact_hi:
            assert l <= exact_lo and exact_hi <= h, (H, i, j, s, coeffs)
            non_empty += 1
        for t in (l - 1, h + 1):
            if l <= h and -H <= t <= H:
                assert disc(*coeffs, t) <= 0, (H, coeffs, t)
    return non_empty


def test_j_window_brackets_the_exact_window():
    # both census degrees' windows come from _j_window's float r; checked
    # against isqrt(4 I^3) in Python ints.  Cubic rows: I and J0 at c = 0,
    # slope 27, sampled up to the cap, including rows where 4 I^3 outgrows
    # int64.  Quartic rows: max(I(H), 0), J(0) and J(1) - J(0) of every
    # (a >= 0, b, c) row for H <= 20, and at the cap the corner stripes of
    # test_quartic_kernel_exact_at_height_cap and the slope-0 rows (a, b) =
    # (4, 6) and (32, 384), where 72b = 27a^2
    from galoiscensus.census import _j_window
    from galoiscensus.classify import disc_cubic_coeffs, invariants_cubic_coeffs, invariants_quartic_coeffs

    rng = random.Random(27)
    wide = non_empty = 0
    for H in [1, 7, 60, 500, 1200, 5000]:
        rows = []
        for a in {0, H, -H, rng.randint(-H, H)}:
            bs = _loeschian_rows(a, H)
            for b in sorted({bs[0], bs[-1], *rng.sample(bs, min(40, len(bs)))}):
                i, j0 = invariants_cubic_coeffs(a, b - H, 0)
                rows.append((i, j0, 27, a, b - H))
                wide += 4 * i**3 > 2**63
        non_empty += _assert_j_windows(H, rows, disc_cubic_coeffs)
    assert wide > 20 and non_empty > 100

    def quartic_row(a, b, c, H):
        (i_top, _), (_, j0), (_, j1) = (invariants_quartic_coeffs(a, b, c, d) for d in (H, 0, 1))
        return max(i_top, 0), j0, j1 - j0, a, b, c

    slopes = Counter()
    for H in range(21):
        rows = [quartic_row(a, b, c, H) for a in range(H + 1) for b in range(-H, H + 1) for c in range(-H, H + 1)]
        slopes.update((row[2] > 0) - (row[2] < 0) for row in rows)
        non_empty += _assert_j_windows(H, rows, disc_quartic_coeffs)
    H = 400
    stripes = [(400, -400), (399, 397), (0, -400), (255, -33), (4, 6), (32, 384)]
    rows = [quartic_row(a, b, c, H) for a, b in stripes for c in range(-H, H + 1)]
    slopes.update((row[2] > 0) - (row[2] < 0) for row in rows)
    assert _assert_j_windows(H, rows, disc_quartic_coeffs) > 2000
    assert min(slopes[-1], slopes[0], slopes[1]) > 1000, slopes

    # r itself, the hi of a window with j0 = 0 and slope 1, is within
    # [S, S + 2] at every i of the quartic range at the cap, in int64
    i = np.arange(4 * H * H + 12 * H + 1, dtype=np.int64)
    r = _j_window(i, 0, 1, 2**40)[1]
    assert ((r + 1) ** 2 > 4 * i**3).all() and (np.maximum(r - 2, 0) ** 2 <= 4 * i**3).all()


def test_loeschian_table_matches_prime_exponent_rule():
    from galoiscensus.census import _loeschian
    from galoiscensus.exactarith import factorize

    table = _loeschian(20000)
    assert not table.flags.writeable
    for n in range(20001):
        expected = n > 0 and all(e % 2 == 0 for p, e in factorize(n) if p % 3 == 2)
        assert bool(table[n]) == expected, n


def _is_positive_square(v: int) -> bool:
    return v > 0 and math.isqrt(v) ** 2 == v


_NEAR_SQUARES = st.builds(lambda s, k: min(s * s + k, 2**62), st.integers(0, 2**31), st.integers(-2, 2))


@settings(max_examples=300)
@given(st.lists(st.one_of(st.integers(-(2**62), 2**62), _NEAR_SQUARES), min_size=1, max_size=40))
def test_square_mask_matches_isqrt(values):
    from galoiscensus.census import _square_mask

    got = _square_mask(np.array(values, dtype=np.int64))
    assert got.tolist() == [_is_positive_square(v) for v in values]


def test_float_sqrt_ends_exact_on_the_resolvent_domain():
    # the resolvent |t|-range ends are the float64 floor and ceil of sqrt(v)
    # for integers 0 <= v <= |K| (x^2 + 4H), exact below 2^52; checked at
    # s^2 - 1, s^2 and s^2 + 1 for every s up to the domain top at the cap,
    # with |x| < B and |K| <= H^2 + 4H + 4B
    from galoiscensus.classify import resolvent_root_bound

    H = 400
    B = resolvent_root_bound(H)
    top = (H * H + 4 * H + 4 * B) * (B * B + 4 * H)
    assert top < 2**52
    s = np.arange(1, math.isqrt(top) + 2, dtype=np.int64) ** 2
    v = np.concatenate([[0], s - 1, s, s + 1])
    floor = np.array([math.isqrt(n) for n in v.tolist()], dtype=np.int64)
    root = np.sqrt(v)
    assert np.array_equal(np.floor(root).astype(np.int64), floor)
    assert np.array_equal(np.ceil(root).astype(np.int64), floor + (floor * floor < v))


def test_square_mask_edge_cases():
    from galoiscensus.census import _square_mask

    values = [0, -1, -4, -(2**62), 1, 2, 3, 4, 2**62]
    for s in range(2**31 - 4, 2**31 + 1):
        values += [s * s - 1, s * s, s * s + 1]
    got = _square_mask(np.array(values, dtype=np.int64))
    assert got.tolist() == [_is_positive_square(v) for v in values]
