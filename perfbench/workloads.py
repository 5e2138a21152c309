"""The four benchmark workloads: their inputs, the timed call, and the checks.

Every workload drives the package through its public entry points from one
process.  ``setup`` builds the inputs and touches no library code that the
workload measures; ``run`` is the timed call; ``check`` compares the outputs
with pinned values afterwards, outside the timing.

Pinned values carry their provenance:

* ``published``: stated in the source paper.
* ``two strategies``: the ``direct`` and ``table`` census strategies (or the
  census and ``list_a3_cubics``) gave the same value on the seed code.
* ``seed``: counted on the seed code; it guards against drift, not against a
  wrong seed.
* ``group theory``: the Frobenius cycle types each quartic group can
  realise, written out here independently of ``classify.CYCLE_TYPES``.
* ``table at run time`` (smoke mode only): recomputed by the ``table``
  census strategy in the same process before comparing.

``--smoke`` runs the same code at tiny sizes so the check path can be tested
in seconds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

QUARTIC_CYCLE_TYPES = {
    "S4": {(1, 1, 1, 1), (1, 1, 2), (2, 2), (1, 3), (4,)},
    "A4": {(1, 1, 1, 1), (2, 2), (1, 3)},
    "D4": {(1, 1, 1, 1), (1, 1, 2), (2, 2), (4,)},
    "V4": {(1, 1, 1, 1), (2, 2)},
    "C4": {(1, 1, 1, 1), (2, 2), (4,)},
}
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def factors_back(coeffs: tuple[int, ...], witness) -> bool:
    """Whether a reducibility witness really divides X^4 + aX^3 + bX^2 + cX + d."""
    a, b, c, d = coeffs
    if witness is None:
        return False
    if witness.kind == "root":
        (t,) = witness.data
        return t**4 + a * t**3 + b * t**2 + c * t + d == 0
    p, q, r, s = witness.data
    return (p + r, q + s + p * r, p * s + q * r, q * s) == (a, b, c, d)


@dataclass
class Ctx:
    """What a workload process knows: where to write, how many workers, which seed."""

    tmp: Path
    workers: int
    seed: int
    smoke: bool


@dataclass
class Outcome:
    """Operations attempted and failed, plus the work count behind ``work_per_s``."""

    attempted: int
    failed: int
    work: int
    notes: list[str] = field(default_factory=list)

    def fail(self, n: int, note: str) -> None:
        self.failed += n
        self.notes.append(note)


def run_cli(gc, argv: list[str]) -> int:
    """``cli.main`` exit code; argparse usage errors exit through SystemExit."""
    try:
        return gc.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


class Census:
    """``galois-census census`` over the full box; one operation per census run."""

    work_unit = "tuples"
    uses_census = True

    def __init__(self, degree: int, height: int, smoke_height: int, pinned: dict, provenance: dict):
        self.degree = degree
        self.full_height = height
        self.smoke_height = smoke_height
        self.pinned = pinned
        self.provenance = provenance

    def height(self, ctx: Ctx) -> int:
        return self.smoke_height if ctx.smoke else self.full_height

    def setup(self, ctx: Ctx) -> dict:
        journal, out = ctx.tmp / "census.journal", ctx.tmp / "census.json"
        argv = [
            "census", "--degree", str(self.degree), "--height", str(self.height(ctx)),
            "--threads", str(ctx.workers), "--journal", str(journal), "--out", str(out),
        ]
        return {"argv": argv, "journal": journal, "out": out}

    def run(self, gc, inputs: dict) -> dict:
        return {"rc": run_cli(gc, inputs["argv"])}

    def expected(self, gc, ctx: Ctx) -> dict:
        if not ctx.smoke:
            return self.pinned
        req = gc.census.CensusRequest(self.degree, self.height(ctx), strategy="table", workers=1)
        return gc.census.run_census(req).counts

    def _check_counts(self, ctx: Ctx, counts: dict, expected: dict, what: str) -> Outcome:
        out = Outcome(attempted=1, failed=0, work=(2 * self.height(ctx) + 1) ** self.degree)
        if counts != expected:
            out.fail(1, f"{what}: counts {counts} != expected {expected}")
        return out

    def check(self, gc, ctx: Ctx, inputs: dict, result: dict) -> Outcome:
        if result["rc"] != 0:
            out = Outcome(attempted=1, failed=0, work=0)
            out.fail(1, f"census exited with {result['rc']}")
            return out
        report = json.loads(inputs["out"].read_text(encoding="utf-8"))
        out = self._check_counts(ctx, report["counts"], self.expected(gc, ctx), "census")
        if report["total"] != out.work:
            out.fail(0 if out.failed else 1, f"census total {report['total']} is not the box size")
        return out

    def resume(self, gc, ctx: Ctx, inputs: dict) -> Outcome:
        """Re-run the census over the journal the timed call completed."""
        req = gc.census.CensusRequest(self.degree, self.height(ctx), workers=1)
        report = gc.census.run_census(req, journal_path=str(inputs["journal"]))
        return self._check_counts(ctx, report.counts, self.expected(gc, ctx), "resume")


class D4vcFamily:
    """``galois-census family --name d4vc``; one operation per family member."""

    work_unit = "members"
    uses_census = False

    height_full, height_smoke = 600_000, 100_000
    pinned = {600_000: {"D4": 73_084}, 100_000: {"D4": 315}}
    provenance = {"members and classes": "seed (315 members at H=10^5; 73,084 at H=6e5)"}

    def setup(self, ctx: Ctx) -> dict:
        height = self.height_smoke if ctx.smoke else self.height_full
        out = ctx.tmp / "d4vc.jsonl"
        argv = [
            "family", "--name", "d4vc", "--height", str(height), "--delta", "1/5",
            "--threads", str(ctx.workers), "--out", str(out),
        ]
        return {"argv": argv, "out": out, "height": height}

    def run(self, gc, inputs: dict) -> dict:
        return {"rc": run_cli(gc, inputs["argv"])}

    def check(self, gc, ctx: Ctx, inputs: dict, result: dict) -> Outcome:
        expected = self.pinned[inputs["height"]]
        n_expected = sum(expected.values())
        out = Outcome(attempted=n_expected, failed=0, work=0)
        if not inputs["out"].exists():
            out.fail(n_expected, f"family exited with {result['rc']} and wrote nothing")
            return out
        if result["rc"] != 0:
            out.fail(0, f"family exited with {result['rc']}")
        lines = inputs["out"].read_text(encoding="utf-8").splitlines()
        summary = json.loads(lines[-1])
        members = [json.loads(line) for line in lines[:-1]]
        out.work = len(members)
        classes: dict[str, int] = {}
        for m in members:
            classes[m["class"]] = classes.get(m["class"], 0) + 1
        bad = sum(n for k, n in classes.items() if k not in ("D4", "V4", "C4"))
        if bad:
            out.fail(bad, f"{bad} members outside D4/V4/C4")
        if summary["mismatch_count"]:
            out.fail(summary["mismatch_count"], f"{summary['mismatch_count']} family mismatches")
        if classes != expected:
            drift = sum(abs(classes.get(k, 0) - expected.get(k, 0)) for k in set(classes) | set(expected))
            out.fail(max(1, drift // 2), f"classes {classes} != expected {expected}")
        if summary["members_checked"] != len(members):
            out.fail(1, "summary disagrees with the member lines")
        out.failed = min(out.failed, out.attempted)
        return out


class Algebra:
    """Identity suites, Eisenstein witnesses for every A3 cubic, and Frobenius
    cycle types of a seeded sample of quartics.  One operation is one
    identity case, one witness, one (quartic, prime) Frobenius check, or one
    quartic classified reducible, whose factor witness must multiply back."""

    work_unit = "checks"
    uses_census = False

    full = {"window": None, "a3_height": 100, "n_quartics": 1550}
    smoke = {"window": 3, "a3_height": 20, "n_quartics": 40}
    pinned_cases = {
        None: {"symmetry": 3341, "star": 742_586, "discF": 10_100, "surface": 28_266},
        3: {"symmetry": 577, "star": 33_614, "discF": 42, "surface": 2_320},
    }
    pinned_a3 = {100: 4946}
    provenance = {
        "identity cases": "seed (star and discF are window sizes: 2*13^5, 101*100)",
        "A3 cubics at H=100": "two strategies (list_a3_cubics and the census A3 count)",
        "Frobenius cycle types": "group theory",
        "smoke A3 cubics": "table at run time",
    }

    def setup(self, ctx: Ctx) -> dict:
        size = self.smoke if ctx.smoke else self.full
        rng = random.Random(ctx.seed)
        quartics = [tuple(rng.randint(-50, 50) for _ in range(4)) for _ in range(size["n_quartics"])]
        out = ctx.tmp / "identities.json"
        argv = ["verify-identities", "--suite", "all", "--out", str(out)]
        if size["window"] is not None:
            argv += ["--window", str(size["window"])]
        return {"argv": argv, "out": out, "quartics": quartics, **size}

    def run(self, gc, inputs: dict) -> dict:
        rc = run_cli(gc, inputs["argv"])
        cubics = gc.census.list_a3_cubics(inputs["a3_height"])
        witness_errors = []
        for coeffs in cubics:
            try:
                gc.eisenstein.parametrize_cubic_witness(gc.classify.MonicCubic(*coeffs)).verify()
            except gc.eisenstein.WitnessError as exc:
                witness_errors.append((coeffs, str(exc)))
        frobenius, reducible = [], []
        for coeffs in inputs["quartics"]:
            f = gc.classify.MonicQuartic(*coeffs)
            label = gc.classify.classify_quartic(f).group.value
            if label == "reducible":
                reducible.append(coeffs)
                continue
            disc = gc.classify.disc_quartic(f)
            for p in SMALL_PRIMES:
                if disc % p:
                    frobenius.append((coeffs, p, label, gc.classify.frobenius_cycle_type(f, p)))
        return {"rc": rc, "cubics": len(cubics), "witness_errors": witness_errors,
                "frobenius": frobenius, "reducible": reducible}

    def check(self, gc, ctx: Ctx, inputs: dict, result: dict) -> Outcome:
        if not inputs["out"].exists():
            out = Outcome(attempted=1, failed=0, work=0)
            out.fail(1, f"verify-identities exited with {result['rc']} and wrote nothing")
            return out
        payload = json.loads(inputs["out"].read_text(encoding="utf-8"))
        cases = {s["identity_name"]: s["cases_checked"] for s in payload["suites"]}
        expected_cases = self.pinned_cases[inputs["window"]]
        out = Outcome(attempted=0, failed=0, work=0)
        out.attempted += sum(expected_cases.values())
        if result["rc"] != 0:
            out.fail(0, f"verify-identities exited with {result['rc']}")
        for suite in payload["suites"]:
            if suite["failures"]:
                out.fail(len(suite["failures"]), f"{suite['identity_name']}: identity failures")
        if cases != expected_cases:
            drift = sum(abs(cases.get(k, 0) - n) for k, n in expected_cases.items())
            out.fail(max(1, drift), f"identity cases {cases} != expected {expected_cases}")

        if ctx.smoke:
            req = gc.census.CensusRequest(3, inputs["a3_height"], strategy="table", workers=1)
            expected_a3 = gc.census.run_census(req).counts["A3"]
        else:
            expected_a3 = self.pinned_a3[inputs["a3_height"]]
        out.attempted += expected_a3
        if result["witness_errors"]:
            out.fail(len(result["witness_errors"]), f"witness errors: {result['witness_errors'][:3]}")
        if result["cubics"] != expected_a3:
            out.fail(max(1, abs(result["cubics"] - expected_a3)),
                     f"{result['cubics']} A3 cubics != expected {expected_a3}")

        out.attempted += len(result["frobenius"])
        bad = [r for r in result["frobenius"] if r[3] not in QUARTIC_CYCLE_TYPES[r[2]]]
        if bad:
            out.fail(len(bad), f"unrealisable Frobenius cycle types: {bad[:3]}")
        out.attempted += len(result["reducible"])
        unproven = [q for q in result["reducible"]
                    if not factors_back(q, gc.classify.reducibility_witness(gc.classify.MonicQuartic(*q)))]
        if unproven:
            out.fail(len(unproven), f"reducible without a valid factor witness: {unproven[:3]}")
        out.work = (sum(cases.values()) + result["cubics"] + len(result["frobenius"])
                    + len(result["reducible"]))
        out.failed = min(out.failed, out.attempted)
        return out


WORKLOADS = {
    "cubic-h500": Census(
        3, 500, 40,
        pinned={"reducible": 3_751_835, "S3": 999_198_746, "A3": 52_420},
        provenance={"A3": "published (A3(500) = 52420)", "reducible, S3": "seed"},
    ),
    "quartic-h60": Census(
        4, 60, 8,
        pinned={"reducible": 4_918_234, "S4": 208_927_660, "A4": 10_278,
                "D4": 491_698, "V4": 8_397, "C4": 2_614},
        provenance={"all six classes": "two strategies (direct and table at H=60)"},
    ),
    "d4vc-6e5": D4vcFamily(),
    "algebra": Algebra(),
}
