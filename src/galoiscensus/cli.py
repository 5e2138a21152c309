"""Command-line entry point wiring the library together.

Exit codes: 0 success, 1 validation failure (any mismatch or identity
failure in the emitted report), 2 usage error.  Data goes to stdout (or
--out); progress and diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
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
    cross_validate,
    gen_a3_family,
    gen_a4_family,
    gen_d4vc_family,
    gen_v4_biquadratic,
)
from .identities import run_suites

SUITE_NAMES = ("symmetry", "star", "discF", "surface")


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _parse_coeffs(raw: str, expected: int, parser: argparse.ArgumentParser) -> list[int]:
    try:
        coeffs = [int(t) for t in raw.split(",")]
    except ValueError:
        parser.error(f"coefficients must be integers, got {raw!r}")
    if len(coeffs) != expected:
        parser.error(f"expected {expected} comma-separated coefficients, got {len(coeffs)}")
    return coeffs


def _progress_printer(label: str):
    state = {"last": 0.0}

    def cb(done: int, total: int) -> None:
        now = time.monotonic()
        if done == total or now - state["last"] > 1.0:
            state["last"] = now
            print(f"{label}: {done}/{total} stripes", file=sys.stderr, flush=True)

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
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, help="echoed into the report")
    p.add_argument("--out")

    p = sub.add_parser("family", help="generate and cross-validate a construction family")
    p.add_argument("--name", choices=("d4vc", "v4-biquadratic", "a4", "a3"), required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--delta", default="1/5", help="d4vc window constant, as P/Q")
    p.add_argument("--threads", type=int, default=1)
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
    _emit(text, args.out)
    return 0


def _cmd_verify(args, parser) -> int:
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, args.window)
    failures = sum(len(r.failures) for r in reports)
    payload = {
        "seed": args.seed,
        "suites": [json.loads(r.to_json()) for r in reports],
        "failures": failures,
    }
    _emit(json.dumps(payload), args.out)
    return 1 if failures else 0


def _cmd_family(args, parser) -> int:
    try:
        delta = Fraction(args.delta)
    except (ValueError, ZeroDivisionError):
        parser.error(f"bad delta {args.delta!r}")
    if args.name == "d4vc":
        members = gen_d4vc_family(args.height, delta)
    elif args.name == "v4-biquadratic":
        members = gen_v4_biquadratic(args.height)
    elif args.name == "a4":
        members = gen_a4_family(args.height)
    else:
        members = gen_a3_family(-args.height, args.height)
    report = cross_validate(members, workers=args.threads)
    lines = [m.to_json(classified=label) for m, label in zip(members, report.labels)]
    summary = json.loads(report.to_json())
    summary_line = {"family": args.name, "height": args.height, "delta": str(delta), **summary}
    lines.append(json.dumps(summary_line))
    _emit("\n".join(lines), args.out)
    print(
        f"family {args.name}: {report.members_checked} members, "
        f"{report.mismatch_count} mismatches",
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
    print(witness.to_json())
    return 0


def _cmd_asym(args, parser) -> int:
    const = chela_constant_c(args.n)
    payload = {
        "n": args.n,
        "c_n": const.value,
        "c_n_appendix_form": const.appendix_form,
        "form_agreement": const.agreement,
        "k_n": [const.k_n.numerator, const.k_n.denominator],
    }
    if args.heights:
        try:
            heights = [int(t) for t in args.heights.split(",")]
        except ValueError:
            parser.error("heights must be comma-separated integers")
        reports = [
            run_census(
                CensusRequest(args.n, h, workers=args.threads),
                progress=_progress_printer(f"census H={h}"),
            )
            for h in heights
        ]
        payload["fit"] = json.loads(fit_reducible(reports).to_json())
    print(json.dumps(payload))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
