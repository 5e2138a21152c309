"""Exhaustive censuses of monic integer cubics/quartics by Galois class.

The coefficient box [-H, H]^deg is enumerated in stripes (fixed a for
cubics, fixed (a, b) for quartics) and every tuple in a stripe is classified
with vectorized int64 kernels.  The X -> -X symmetry (a,b,c,d) -> (-a,b,-c,d)
halves the work exactly as in the per-sign doubling of the reference
enumeration: the a = 0 stratum is counted once, a >= 1 strata twice.

Two interchangeable strategies:

* ``direct`` (default): reducibility is re-derived inside each stripe by
  marking products of lower-degree factors restricted to the stripe; memory
  is O(H^2) regardless of height.
* ``table``: a global irreducibility bit table is built first by marking all
  products with inner coefficient ranges doubled, then shared read-only by
  the classification pass, in this process (the table is not sent to
  workers).  Memory is O(H^degree); it exists as a cross-check of the
  direct strategy and is capped accordingly.

Both strategies run the same stripe job and the same result loop, which
merges counts, appends each stripe to the optional journal and reports
progress.

int64 safety: the largest intermediate is the quartic discriminant, bounded
by 1069 * H^6 (sum of absolute formula coefficients), which stays below
2^62 for H <= 400; the cubic analogue 5 H^4 + 22 H^3 + 27 H^2 is safe far
beyond the cubic cap of 5000, where the per-stripe masks (~100 MB) become
the real constraint.  Heights above the caps are rejected rather than risk
silent wraparound or swapping.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np

from .exactarith import icbrt

__all__ = [
    "CensusError",
    "CensusRequest",
    "CensusReport",
    "run_census",
    "build_irreducible_table",
    "list_a3_cubics",
    "report_to_json",
    "report_from_json",
    "report_to_csv",
    "CUBIC_CLASSES",
    "QUARTIC_CLASSES",
]

CUBIC_CLASSES = ("reducible", "S3", "A3")
QUARTIC_CLASSES = ("reducible", "S4", "A4", "D4", "V4", "C4")

MAX_HEIGHT = {3: 5000, 4: 400}
DEFAULT_TABLE_CAP = 2**31  # bytes


class CensusError(ValueError):
    pass


@dataclass(frozen=True)
class CensusRequest:
    degree: int
    height: int
    strategy: str = "direct"
    workers: int = 0  # 0 = all available cores

    def classes(self) -> tuple[str, ...]:
        return CUBIC_CLASSES if self.degree == 3 else QUARTIC_CLASSES

    def checksum(self) -> str:
        key = f"degree={self.degree};height={self.height};strategy={self.strategy}"
        return hashlib.sha256(key.encode()).hexdigest()[:16]

    def validate(self) -> None:
        if self.degree not in (3, 4):
            raise CensusError(f"degree must be 3 or 4, got {self.degree}")
        if self.height < 0:
            raise CensusError("height must be >= 0")
        if self.height > MAX_HEIGHT[self.degree]:
            raise CensusError(
                f"height {self.height} exceeds the int64-safe cap "
                f"{MAX_HEIGHT[self.degree]} for degree {self.degree}"
            )
        if self.strategy not in ("direct", "table"):
            raise CensusError(f"unknown strategy {self.strategy!r}")
        if self.workers < 0:
            raise CensusError("workers must be >= 0")


@dataclass
class CensusReport:
    request: CensusRequest
    counts: dict[str, int]
    total: int
    wall_time_s: float
    checksum: str = ""

    def __post_init__(self) -> None:
        if not self.checksum:
            self.checksum = self.request.checksum()


# ---------------------------------------------------------------------------
# vectorized primitives

def _square_mask(v: np.ndarray) -> np.ndarray:
    """Boolean mask of strictly positive perfect squares in an int64 array.

    float64 sqrt gives a candidate root within 1 of the truth for v < 2^54,
    so checking the three neighbours keeps the test exact.
    """
    pos = v > 0
    f = np.sqrt(v, where=pos, out=np.zeros(v.shape, dtype=np.float64), casting="unsafe")
    r = np.rint(f).astype(np.int64)
    ok = np.zeros(v.shape, dtype=bool)
    for dr in (-1, 0, 1):
        rr = r + dr
        ok |= rr * rr == v
    return ok & pos


def _mark(flat: np.ndarray, rows: np.ndarray, cols: np.ndarray, width: int) -> None:
    flat[rows * width + cols] = True


@functools.cache
def _factor_pairs(height: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (r, s) with r != 0 and |r*s| <= height, and -r*s, as read-only arrays.

    A linear factor X - r times a monic cofactor with constant term s has
    constant term -r*s, so these pairs cover every polynomial in the box
    with a nonzero integer root; the stripe kernels recompute the other
    coefficients per stripe.
    """
    r_parts = [np.zeros(0, dtype=np.int64)]
    s_parts = [np.zeros(0, dtype=np.int64)]
    for r in range(1, height + 1):
        m = height // r
        s = np.arange(-m, m + 1, dtype=np.int64)
        for signed in (r, -r):
            r_parts.append(np.full(s.shape, signed, dtype=np.int64))
            s_parts.append(s)
    rr, ss = np.concatenate(r_parts), np.concatenate(s_parts)
    pairs = (rr, ss, -rr * ss)
    for arr in pairs:
        arr.flags.writeable = False  # one cached copy is shared by every stripe
    return pairs


# ---------------------------------------------------------------------------
# cubic kernels: stripe = fixed a, grid indexed [b+H, c+H]

def _cubic_red_mask(a: int, height: int, pairs) -> np.ndarray:
    """(X - r)(X^2 + pX + s) has a = p - r, so b = s - r(a + r) and c = -r s."""
    H, W = height, 2 * height + 1
    rr, ss, cc = pairs
    red = np.zeros((W, W), dtype=bool)
    red[:, H] = True  # c = 0: root 0
    if rr.size:
        bb = ss - rr * (a + rr)
        ok = np.abs(bb) <= H
        _mark(red.reshape(-1), bb[ok] + H, cc[ok] + H, W)
    return red


def _cubic_a3_blocks(a: int, height: int, red: np.ndarray, block: int = 512):
    """Yield (lo, mask): the A3 cells (square discriminant, not reducible) of
    the (b, c) grid in b-rows lo, lo + 1, ..., a block of rows at a time."""
    H, W = height, 2 * height + 1
    b = np.arange(-H, H + 1, dtype=np.int64)
    c = np.arange(-H, H + 1, dtype=np.int64)
    t0 = (a * a) * b * b - 4 * b**3
    t1 = (18 * a) * b
    t2 = (-4 * a**3) * c - 27 * c * c
    for lo in range(0, W, block):
        hi = min(lo + block, W)
        disc = t0[lo:hi, None] + t1[lo:hi, None] * c[None, :] + t2[None, :]
        yield lo, _square_mask(disc) & ~red[lo:hi]


def _cubic_stripe_counts(a: int, height: int, red: np.ndarray):
    """(reducible, S3, A3) counts over the (b, c) grid for fixed a."""
    W = 2 * height + 1
    n_red = int(np.count_nonzero(red))
    n_a3 = sum(int(np.count_nonzero(mask)) for _, mask in _cubic_a3_blocks(a, height, red))
    n_s3 = W * W - n_red - n_a3
    return n_red, n_s3, n_a3


# ---------------------------------------------------------------------------
# quartic kernels: stripe = fixed (a, b), grid indexed [c+H, d+H]

def _quartic_red_mask(a: int, b: int, height: int, pairs) -> np.ndarray:
    H, W = height, 2 * height + 1
    red = np.zeros((W, W), dtype=bool)
    flat = red.reshape(-1)
    red[:, H] = True  # d = 0: root 0

    # (X - r)(X^3 + pX^2 + qX + s): p = a + r and q = b + r p, then
    # c = s - r q and d = -r s
    rr, ss, dd = pairs
    if rr.size:
        q = b + rr * (a + rr)
        cc = ss - rr * q
        ok = np.abs(cc) <= H
        _mark(flat, cc[ok] + H, dd[ok] + H, W)

    # (X^2+pX+q)(X^2+rX+s): inner linear coefficients range over [-2H, 2H],
    # inner constants over [-H, H] (both nonzero, else caught by d = 0)
    p = np.arange(-2 * H, 2 * H + 1, dtype=np.int64)[:, None]
    q = np.arange(-H, H + 1, dtype=np.int64)[None, :]
    r2 = a - p
    s2 = (b - p * r2) - q
    cc = p * s2 + q * r2
    dd2 = q * s2
    ok = (np.abs(cc) <= H) & (np.abs(dd2) <= H) & (q != 0)
    _mark(flat, cc[ok] + H, dd2[ok] + H, W)
    return red


def _quartic_resolvent_roots(a: int, b: int, height: int):
    """(has_root, root_val) grids over (c, d) for the cubic resolvent.

    r(x) = x^3 - b x^2 + (ac - 4d) x - (a^2 d - 4bd + c^2) rearranges to
    d * K(x) = x^3 - b x^2 + a c x - c^2 with K(x) = 4x + a^2 - 4b, so each
    candidate root x pins d per c (K != 0) or a full d-column (K == 0).
    Candidate roots are complete via the Fujiwara bound.
    """
    H, W = height, 2 * height + 1
    has_root = np.zeros((W, W), dtype=bool)
    root_val = np.zeros((W, W), dtype=np.int64)

    qmax = abs(a) * H + 4 * H
    smax = a * a * H + 4 * abs(b) * H + H * H
    xmax = 2 * max(abs(b), math.isqrt(qmax) + 1, icbrt(smax) + 1, 1) + 1
    x = np.arange(-xmax, xmax + 1, dtype=np.int64)
    K = 4 * x + (a * a - 4 * b)
    nz = K != 0
    xn = x[nz][:, None]
    Kn = K[nz][:, None]
    c = np.arange(-H, H + 1, dtype=np.int64)[None, :]
    num = xn * xn * (xn - b) + (a * xn) * c - c * c
    dq, drem = np.divmod(num, Kn)
    ok = (drem == 0) & (np.abs(dq) <= H)
    if np.any(ok):
        ci = np.broadcast_to(c, ok.shape)[ok] + H
        di = dq[ok] + H
        xi = np.broadcast_to(xn, ok.shape)[ok]
        idx = ci * W + di
        has_root.reshape(-1)[idx] = True
        root_val.reshape(-1)[idx] = xi

    # K(x0) == 0: the constraint degenerates to a quadratic in c alone and
    # every d shares the root x0
    if a % 2 == 0:
        x0 = b - (a * a) // 4
        dc = (a * x0) ** 2 - 4 * (b * x0 * x0 - x0**3)
        if dc >= 0:
            t = math.isqrt(dc)
            if t * t == dc:
                for cv in {(a * x0 + t), (a * x0 - t)}:
                    if cv % 2 == 0 and abs(cv // 2) <= H:
                        has_root[cv // 2 + H, :] = True
                        root_val[cv // 2 + H, :] = x0
    return has_root, root_val


def _quartic_disc_grid(a: int, b: int, height: int) -> np.ndarray:
    H = height
    c = np.arange(-H, H + 1, dtype=np.int64)
    d = np.arange(-H, H + 1, dtype=np.int64)
    a2, b2 = a * a, b * b
    t0 = (a2 * b2 - 4 * b2 * b) * c * c + (18 * a * b - 4 * a2 * a) * c**3 - 27 * c**4
    t1 = (
        (16 * b2 * b2 - 4 * a2 * b2 * b)
        + (18 * a2 * a * b - 80 * a * b2) * c
        + (144 * b - 6 * a2) * c * c
    )
    t2 = (144 * a2 * b - 27 * a2 * a2 - 128 * b2) - (192 * a) * c
    return t0[:, None] + t1[:, None] * d[None, :] + t2[:, None] * d[None, :] ** 2 + 256 * d[None, :] ** 3


def _quartic_stripe_counts(a: int, b: int, height: int, red: np.ndarray):
    """Counts (reducible, S4, A4, D4, V4, C4) over the (c, d) grid."""
    H, W = height, 2 * height + 1
    disc = _quartic_disc_grid(a, b, H)
    square = _square_mask(disc)
    has_root, root_val = _quartic_resolvent_roots(a, b, H)

    irr = ~red
    n_red = W * W - int(np.count_nonzero(irr))
    n_v4 = int(np.count_nonzero(irr & square & has_root))
    n_a4 = int(np.count_nonzero(irr & square & ~has_root))
    n_s4 = int(np.count_nonzero(irr & ~square & ~has_root))

    n_c4 = 0
    cand = irr & ~square & has_root
    n_cand = int(np.count_nonzero(cand))
    if n_cand:
        ci, di = np.nonzero(cand)
        roots = root_val[ci, di]
        discs = disc[ci, di]
        for k in range(n_cand):
            x = int(roots[k])
            dv = int(di[k]) - H
            delta = int(discs[k])
            t1 = (x * x - 4 * dv) * delta
            if t1 < 0:
                continue
            r1 = math.isqrt(t1)
            if r1 * r1 != t1:
                continue
            t2 = (a * a - 4 * (b - x)) * delta
            if t2 < 0:
                continue
            r2 = math.isqrt(t2)
            if r2 * r2 == t2:
                n_c4 += 1
    n_d4 = n_cand - n_c4
    return n_red, n_s4, n_a4, n_d4, n_v4, n_c4


# ---------------------------------------------------------------------------
# irreducibility tables (the reference enumeration's product marking)

def build_irreducible_table(degree: int, height: int, cap_bytes: int = DEFAULT_TABLE_CAP) -> np.ndarray:
    """Bit table over the coefficient box: True iff the tuple is irreducible.

    Built by marking every product of lower-degree monic factors, with the
    inner linear-coefficient ranges doubled to [-2H, 2H]; divide-out bounds
    show this covers every factor of a height-H polynomial.
    """
    if degree not in (3, 4):
        raise CensusError("degree must be 3 or 4")
    H, W = height, 2 * height + 1
    if W**degree > cap_bytes:
        raise CensusError(
            f"table for degree {degree}, height {height} needs {W**degree} bytes, "
            f"over the cap {cap_bytes}"
        )
    if degree == 3:
        irred = np.ones((W, W, W), dtype=bool)
        irred[:, :, H] = False
        flat = irred.reshape(-1)
        p = np.arange(-2 * H, 2 * H + 1, dtype=np.int64)[:, None]
        q = np.arange(-H, H + 1, dtype=np.int64)[None, :]
        for t in range(-H, H + 1):
            A = t + p
            B = t * p + q
            C = t * q
            ok = (np.abs(A) <= H) & (np.abs(B) <= H) & (np.abs(C) <= H)
            if np.any(ok):
                idx = ((np.broadcast_to(A, ok.shape)[ok] + H) * W + (B[ok] + H)) * W + (
                    np.broadcast_to(C, ok.shape)[ok] + H
                )
                flat[idx] = False
        return irred

    irred = np.ones((W, W, W, W), dtype=bool)
    irred[:, :, :, H] = False
    flat = irred.reshape(-1)
    inner_lin = np.arange(-2 * H, 2 * H + 1, dtype=np.int64)[:, None]
    inner_const = np.arange(-H, H + 1, dtype=np.int64)[None, :]
    # (X + t)(X^3 + pX^2 + qX + s): q columns, s rows
    for t in range(-H, H + 1):
        for p in range(-2 * H, 2 * H + 1):
            A = t + p
            if abs(A) > H:
                continue
            B = t * p + inner_lin
            C = t * inner_lin + inner_const
            D = t * inner_const
            ok = (np.abs(B) <= H) & (np.abs(C) <= H) & (np.abs(D) <= H)
            if np.any(ok):
                idx = (
                    ((A + H) * W + (np.broadcast_to(B, ok.shape)[ok] + H)) * W
                    + (C[ok] + H)
                ) * W + (np.broadcast_to(D, ok.shape)[ok] + H)
                flat[idx] = False
    # (X^2 + pX + q)(X^2 + rX + s): r columns, s rows
    for p in range(-2 * H, 2 * H + 1):
        for q in range(-H, H + 1):
            A = p + inner_lin
            B = q + inner_const + p * inner_lin
            C = p * inner_const + q * inner_lin
            D = q * inner_const
            ok = (np.abs(A) <= H) & (np.abs(B) <= H) & (np.abs(C) <= H) & (np.abs(D) <= H)
            if np.any(ok):
                idx = (
                    ((np.broadcast_to(A, ok.shape)[ok] + H) * W + (B[ok] + H)) * W
                    + (C[ok] + H)
                ) * W + (np.broadcast_to(D, ok.shape)[ok] + H)
                flat[idx] = False
    return irred


# ---------------------------------------------------------------------------
# stripe job (top level so ProcessPoolExecutor can pickle it)

def _stripe_job(degree: int, height: int, a: int, table: np.ndarray | None = None):
    """(a, counts) for the full a-stratum, doubled when a > 0.

    A cubic stratum is one (b, c) grid; a quartic one is a (c, d) grid per b.
    The reducible mask comes from the ``table`` strategy's irreducibility
    table when one is given, else from the factor pairs (``direct``).
    """
    H = height
    if degree == 3:
        classes, keys = CUBIC_CLASSES, [(a,)]
        red_mask, stripe_counts = _cubic_red_mask, _cubic_stripe_counts
    else:
        classes, keys = QUARTIC_CLASSES, [(a, b) for b in range(-H, H + 1)]
        red_mask, stripe_counts = _quartic_red_mask, _quartic_stripe_counts
    pairs = _factor_pairs(H) if table is None else None
    acc = [0] * len(classes)
    for key in keys:
        if table is None:
            red = red_mask(*key, H, pairs)
        else:
            red = ~table[tuple(k + H for k in key)]
        acc = [x + y for x, y in zip(acc, stripe_counts(*key, H, red))]
    factor = 1 if a == 0 else 2
    return a, {k: v * factor for k, v in zip(classes, acc)}


def _stripe_results(req: CensusRequest, todo: list[int], stack: contextlib.ExitStack):
    """Iterator of (a, counts) over the stripes in ``todo``.

    ``table`` runs in this process, since its table is not sent to workers;
    ``direct`` runs on a process pool (entered on ``stack``) unless one
    worker or one stripe makes a pool pointless.
    """
    degree, H = req.degree, req.height
    if req.strategy == "table":
        table = build_irreducible_table(degree, H)
        return (_stripe_job(degree, H, a, table) for a in todo)
    workers = req.workers or os.cpu_count() or 1
    if workers == 1 or len(todo) <= 1:
        return (_stripe_job(degree, H, a) for a in todo)
    pool = ProcessPoolExecutor(max_workers=workers)
    # on an error or interrupt, drop the stripes no worker has started
    stack.callback(pool.shutdown, wait=True, cancel_futures=True)
    futs = [pool.submit(_stripe_job, degree, H, a) for a in todo]
    return (fut.result() for fut in as_completed(futs))


# ---------------------------------------------------------------------------
# journal: a header line binding it to the request, then one line per stripe

def _journal_load(path: str, req: CensusRequest) -> dict[int, dict[str, int]]:
    """The stripe records of the journal at ``path`` (empty if there is none).

    A final line without its newline is a write torn by a crash: it is cut
    off the file, so its stripe is recomputed and appended.  Any other
    malformed line raises CensusError with its line number.
    """
    done: dict[int, dict[str, int]] = {}
    if not os.path.exists(path):
        return done
    with open(path, "rb+") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            fh.truncate(end)
    checksum, classes = req.checksum(), list(req.classes())
    for lineno, raw in enumerate(data[:end].splitlines(), 1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except ValueError:  # not JSON, or not UTF-8
            rec = None
        if not isinstance(rec, dict):
            rec = {}
        if "checksum" in rec:
            if rec["checksum"] != checksum:
                raise CensusError(
                    f"journal {path} belongs to a different request "
                    f"({rec['checksum']} != {checksum})"
                )
            continue
        a, part = rec.get("stripe"), rec.get("counts")
        if not (
            type(a) is int
            and 0 <= a <= req.height
            and isinstance(part, dict)
            and list(part) == classes
            and all(type(v) is int for v in part.values())
        ):
            text = raw[:80].decode(errors="replace")
            raise CensusError(f"journal {path} line {lineno}: malformed record {text!r}")
        done[a] = part
    return done


def _journal_append(fh, record: dict) -> None:
    fh.write(json.dumps(record) + "\n")
    fh.flush()


def run_census(req: CensusRequest, journal_path: str | None = None, progress=None) -> CensusReport:
    """Classify every tuple in the box exactly once and tally per class.

    With ``journal_path``, each finished stripe is appended to that journal,
    and stripes it already holds are taken from it instead of recomputed.
    ``progress(done, total)`` is called after each stripe.
    """
    req.validate()
    t_start = time.perf_counter()
    H = req.height
    counts = {k: 0 for k in req.classes()}
    done = _journal_load(journal_path, req) if journal_path else {}
    for part in done.values():
        for k, v in part.items():
            counts[k] += v
    todo = [a for a in range(H + 1) if a not in done]
    completed = len(done)

    with contextlib.ExitStack() as stack:
        results = _stripe_results(req, todo, stack)
        journal = None
        if journal_path:
            journal = stack.enter_context(open(journal_path, "a", encoding="utf-8"))
            if journal.tell() == 0:
                _journal_append(journal, {"checksum": req.checksum()})
        for a, part in results:
            for k, v in part.items():
                counts[k] += v
            completed += 1
            if journal:
                _journal_append(journal, {"stripe": a, "counts": part})
            if progress:
                progress(completed, H + 1)

    total = sum(counts.values())
    expected = (2 * H + 1) ** req.degree
    if total != expected:
        raise CensusError(f"counts sum to {total}, box holds {expected}")
    wall = time.perf_counter() - t_start
    return CensusReport(request=req, counts=counts, total=total, wall_time_s=wall)


def list_a3_cubics(height: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) with |a|,|b|,|c| <= height classifying A3, lexicographic."""
    CensusRequest(3, height).validate()
    H = height
    pairs = _factor_pairs(H)
    out: list[tuple[int, int, int]] = []
    for a in range(-H, H + 1):
        red = _cubic_red_mask(a, H, pairs)
        for lo, mask in _cubic_a3_blocks(a, H, red):
            for bi, ci in np.argwhere(mask):
                out.append((a, lo + int(bi) - H, int(ci) - H))
    return out


# ---------------------------------------------------------------------------
# serialization

def report_to_json(report: CensusReport) -> str:
    req = report.request
    payload = {
        "degree": req.degree,
        "height": req.height,
        "strategy": req.strategy,
        "counts": {k: report.counts[k] for k in req.classes()},
        "total": report.total,
        "wall_time_s": report.wall_time_s,
        "checksum": report.checksum,
    }
    return json.dumps(payload)


def report_from_json(text: str) -> CensusReport:
    payload = json.loads(text)
    req = CensusRequest(degree=payload["degree"], height=payload["height"], strategy=payload["strategy"])
    return CensusReport(
        request=req,
        counts=dict(payload["counts"]),
        total=payload["total"],
        wall_time_s=payload["wall_time_s"],
        checksum=payload["checksum"],
    )


def report_to_csv(report: CensusReport) -> str:
    lines = ["class,count"]
    for k in report.request.classes():
        lines.append(f"{k},{report.counts[k]}")
    return "\n".join(lines) + "\n"
