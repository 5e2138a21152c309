"""Command-line entry point wiring the library together.

Exit codes: 0 success, 1 validation failure (any mismatch or identity
failure in the emitted report), 2 usage error.  Data goes to stdout (or
--out); progress and diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from contextlib import nullcontext
from fractions import Fraction

from .asymptotics import chela_constant_c, fit_reducible
from .census import CensusError, CensusRequest, report_to_csv, report_to_json, run_census
from .classify import (
    MonicCubic,
    MonicQuartic,
    classify_cubic,
    classify_quartic,
    disc_cubic,
    disc_quartic,
    invariants_cubic,
    invariants_quartic,
)
from .eisenstein import WitnessError, parametrize_cubic_witness
from .families import (
    d4vc_units,
    gen_a3_family,
    gen_a4_family,
    gen_v4_biquadratic,
    member_units,
    validate_units,
)
from .identities import SUITES, run_suites


def _emit(blocks: list[str], path: str | None) -> None:
    """Write each block and a newline to ``path``, or to stdout; a block that
    already ends in a newline gets no second one, so both give the same bytes."""
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
        for block in blocks:
            out.write(block)
            if not block.endswith("\n"):
                out.write("\n")


def _parse_coeffs(raw: str, expected: int, parser: argparse.ArgumentParser) -> list[int]:
    try:
        coeffs = [int(t) for t in raw.split(",")]
    except ValueError:
        parser.error(f"coefficients must be integers, got {raw!r}")
    if len(coeffs) != expected:
        parser.error(f"expected {expected} comma-separated coefficients, got {len(coeffs)}")
    return coeffs


def _progress_printer(label: str):
    """Census progress callback: done/total, stripes/s and an ETA on stderr,
    at most once a second (and at the end).

    The clock and the stripe count start at the first call, so the rate
    counts only the stripes finished after it: neither the set-up before the
    first stripe (such as the ``table`` strategy's table) nor stripes
    resumed from a journal.  The first line has no rate yet.
    """
    state = {"last": 0.0}

    def cb(done: int, total: int) -> None:
        now = time.monotonic()
        if "start" not in state:
            state.update(start=now, base=done)
        if done == total or now - state["last"] > 1.0:
            state["last"] = now
            line = f"{label}: {done}/{total} stripes"
            if done > state["base"]:
                rate = (done - state["base"]) / max(now - state["start"], 1e-9)
                line += f", {rate:.2f} stripes/s, ETA {(total - done) / rate:.0f} s"
            print(line, file=sys.stderr, flush=True)

    return cb


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galois-census",
        description="Exact Galois classification and censuses of monic integer "
        "cubics and quartics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one polynomial")
    p.add_argument("--degree", type=int, choices=(3, 4), required=True)
    p.add_argument("--coeffs", required=True, help="a,b,c for cubics; a,b,c,d for quartics")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("census", help="exhaustive census of a height box")
    p.add_argument("--degree", type=int, choices=(3, 4), required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--strategy", choices=("direct", "table"), default="direct")
    p.add_argument("--threads", type=int, default=0, help="0 = all cores")
    p.add_argument("--journal", help="stripe journal; reruns resume from it")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("verify-identities", help="run exact identity sweeps")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--out")

    p = sub.add_parser("family", help="generate and cross-validate a construction family")
    p.add_argument("--name", choices=("d4vc", "v4-biquadratic", "a4", "a3"), required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--delta", default="1/5", help="d4vc window constant, as P/Q")
    p.add_argument("--threads", type=int, default=1, help="0 = all cores")
    p.add_argument("--out")

    p = sub.add_parser("param-witness", help="Eisenstein parametrization of an A3 cubic")
    p.add_argument("--coeffs", required=True, help="a,b,c")

    p = sub.add_parser("asym", help="reducible-count constants and census ratios")
    p.add_argument("--n", type=int, choices=(3, 4), required=True)
    p.add_argument("--heights", default="", help="comma-separated census heights to fit")
    p.add_argument("--threads", type=int, default=0)
    return parser


def _cmd_classify(args, parser) -> int:
    n = 3 if args.degree == 3 else 4
    coeffs = _parse_coeffs(args.coeffs, n, parser)
    if max(abs(t) for t in coeffs) > 10**6:
        # the classifier's input contract; past it, the root scan may
        # trial-divide d up to sqrt(d)
        parser.error(f"coefficients must satisfy |coefficient| <= 10^6, got {args.coeffs}")
    if args.degree == 3:
        f = MonicCubic(*coeffs)
        label = classify_cubic(f).value
        disc = disc_cubic(f)
        inv = invariants_cubic(f)
        root = None
    else:
        f = MonicQuartic(*coeffs)
        res = classify_quartic(f)
        label, root = res.group.value, res.resolvent_root
        disc = disc_quartic(f)
        inv = invariants_quartic(f)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "degree": args.degree,
                    "coeffs": coeffs,
                    "class": label,
                    "disc": disc,
                    "I": inv.I,
                    "J": inv.J,
                    "resolvent_root": root,
                }
            )
        )
    else:
        print(label)
        print(f"disc = {disc}")
        print(f"I = {inv.I}, J = {inv.J}")
        if root is not None:
            print(f"resolvent root x = {root}")
    return 0


def _cmd_census(args, parser) -> int:
    req = CensusRequest(
        degree=args.degree,
        height=args.height,
        strategy=args.strategy,
        workers=args.threads,
    )
    try:
        report = run_census(req, journal_path=args.journal, progress=_progress_printer("census"))
    except CensusError as exc:
        parser.error(str(exc))
    text = report_to_json(report) if args.format == "json" else report_to_csv(report)
    _emit([text], args.out)
    return 0


def _cmd_verify(args, parser) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    try:
        reports = run_suites(names, args.window)
    except ValueError as exc:
        parser.error(str(exc))
    failures = sum(len(r.failures) for r in reports)
    payload = {
        "suites": [json.loads(r.to_json()) for r in reports],
        "failures": failures,
    }
    _emit([json.dumps(payload)], args.out)
    return 1 if failures else 0


def _cmd_family(args, parser) -> int:
    try:
        delta = Fraction(args.delta)
    except (ValueError, ZeroDivisionError):
        parser.error(f"bad delta {args.delta!r}")
    if args.threads < 0:
        parser.error("--threads must be >= 0")
    if args.height < 0:
        parser.error(f"height must be >= 0, got {args.height}")
    start = time.perf_counter()
    workers = args.threads or os.cpu_count() or 1
    try:
        if args.name == "d4vc":
            # generated in the pool units themselves
            units = d4vc_units(args.height, delta)
        elif args.name == "v4-biquadratic":
            units = member_units(gen_v4_biquadratic(args.height), workers)
        elif args.name == "a4":
            units = member_units(gen_a4_family(args.height), workers)
        else:
            units = member_units(gen_a3_family(-args.height, args.height), workers)
    except ValueError as exc:
        parser.error(str(exc))
    report, texts = validate_units(units, workers)
    summary = json.loads(report.to_json())
    summary_line = {"family": args.name, "height": args.height, "delta": str(delta), **summary}
    texts.append(json.dumps(summary_line))
    _emit(texts, args.out)
    elapsed = time.perf_counter() - start
    print(
        f"family {args.name}: {report.members_checked} members, "
        f"{report.mismatch_count} mismatches, {elapsed:.2f} s, "
        f"{report.members_checked / elapsed:.0f} members/s",
        file=sys.stderr,
    )
    return 1 if report.mismatch_count else 0


def _cmd_witness(args, parser) -> int:
    coeffs = _parse_coeffs(args.coeffs, 3, parser)
    try:
        witness = parametrize_cubic_witness(MonicCubic(*coeffs))
    except WitnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a number beyond is_prime's exact range
        parser.error(str(exc))
    print(witness.to_json())
    return 0


def _cmd_asym(args, parser) -> int:
    const = chela_constant_c(args.n)
    payload = {
        "n": args.n,
        "c_n": const.closed_form,
        "c_n_appendix_form": const.appendix_form,
        "form_agreement": const.agreement,
        "k_n": [const.k_n.numerator, const.k_n.denominator],
    }
    if args.heights:
        try:
            heights = [int(t) for t in args.heights.split(",")]
        except ValueError:
            parser.error("heights must be comma-separated integers")
        if min(heights) < 1 or len(set(heights)) != len(heights):
            parser.error(f"heights must be distinct and >= 1, got {args.heights}")
        try:
            reports = [
                run_census(
                    CensusRequest(args.n, h, workers=args.threads),
                    progress=_progress_printer(f"census H={h}"),
                )
                for h in heights
            ]
        except CensusError as exc:
            parser.error(str(exc))
        payload["fit"] = json.loads(fit_reducible(reports).to_json())
    print(json.dumps(payload))
    return 0


def _join_negative_coeffs(argv: list[str]) -> list[str]:
    """argv with ``--coeffs V`` (or an abbreviation such as ``--coef V``)
    written as ``--coeffs=V`` wherever V starts with a minus sign and a
    digit: argparse would read such a separate value, a list whose first
    coefficient is negative, as an option."""
    out: list[str] = []
    for arg in argv:
        if out and len(out[-1]) > 2 and "--coeffs".startswith(out[-1]) and re.match(r"-\d", arg):
            out[-1] = f"--coeffs={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_coeffs(sys.argv[1:] if argv is None else argv))
    handlers = {
        "classify": _cmd_classify,
        "census": _cmd_census,
        "verify-identities": _cmd_verify,
        "family": _cmd_family,
        "param-witness": _cmd_witness,
        "asym": _cmd_asym,
    }
    return handlers[args.command](args, parser)


if __name__ == "__main__":
    sys.exit(main())
