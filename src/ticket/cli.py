"""Command-line front end.

Subcommands:
  decide FORMULA   decide inhabitation; exit 0 Inhabited, 1 Empty,
                   3 ResourceExhausted, 2 parse or usage error. The auto
                   engine runs the 3-valued countermodel search (all 75
                   matrices in one pass), then the bounded oracle, then
                   the shadow engine. Output carries both witnesses of an
                   Inhabited verdict
  check FILE.json FORMULA
                   verify a combinator certificate, or a countermodel (an
                   object with table, designated and assignment, as in the
                   `countermodel` key of `decide --json`), against a
                   formula; exit 0 valid, 1 invalid or for another
                   formula, 2 malformed input
  corpus FILE      decide every formula in FILE (one per line); with the
                   auto engine the bounded and shadow verdicts and the
                   countermodel search are cross checked, and a shadow
                   Empty without a countermodel is flagged no-countermodel;
                   exit 0 iff no disagreement, 2 on bad input

Any command that fails with an unexpected exception prints one
`error: internal: ...` line on stderr and exits 4, so that a crash is never
read as a verdict.

The only settings are `--engine` and `--time-budget`; every other limit is a
constant of the library. JSON output is deterministic: identical input and
flags produce byte-identical bytes (wall-clock time is reported only in text
mode). The `countermodel` key is null or an object with sorted keys.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .combinators import (
    CertificateError,
    CertificateFormatError,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
)
from .countermodel import (
    CountermodelError,
    CountermodelFormatError,
    check_countermodel,
    countermodel_from_json,
    countermodel_to_json,
)
from .formula import FormulaSyntaxError, parse_formula, print_formula
from .shadow import DecideConfig, Decision, decide, refute
from .terms import print_term

EXIT_INHABITED = 0
EXIT_EMPTY = 1
EXIT_ERROR = 2
EXIT_EXHAUSTED = 3
EXIT_INTERNAL = 4

_VERDICT_EXIT = {
    "Inhabited": EXIT_INHABITED,
    "Empty": EXIT_EMPTY,
    "ResourceExhausted": EXIT_EXHAUSTED,
}


def _decision_payload(phi, d: Decision) -> dict:
    stats = {k: v for k, v in d.stats.items() if k != "wall_time"}
    return {
        "formula": print_formula(phi),
        "verdict": d.verdict,
        "witness_lambda": (
            print_term(d.witness_lambda) if d.witness_lambda is not None else None
        ),
        "witness_combinator": (
            derivation_to_json(d.witness_combinator)
            if d.witness_combinator is not None
            else None
        ),
        "countermodel": (
            countermodel_to_json(d.countermodel) if d.countermodel is not None else None
        ),
        "stats": stats,
    }


def _print_decision_text(phi, d: Decision, trace: bool) -> None:
    print(f"{print_formula(phi)}: {d.verdict}")
    if d.witness_lambda is not None:
        print(f"  witness: {print_term(d.witness_lambda)}")
    if d.witness_combinator is not None:
        print(f"  certificate: {json.dumps(derivation_to_json(d.witness_combinator))}")
    if d.countermodel is not None:
        cm = json.dumps(countermodel_to_json(d.countermodel), sort_keys=True)
        print(f"  countermodel: {cm}")
    if trace:
        for k in sorted(d.stats):
            print(f"  # {k} = {d.stats[k]}", file=sys.stderr)


def cmd_decide(args) -> int:
    try:
        phi = parse_formula(args.formula)
    except FormulaSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    d = decide(phi, DecideConfig(engine=args.engine, time_budget=args.time_budget))
    if args.json:
        payload = _decision_payload(phi, d)
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        _print_decision_text(phi, d, args.trace)
    return _VERDICT_EXIT[d.verdict]


def cmd_check(args) -> int:
    try:
        phi = parse_formula(args.formula)
    except FormulaSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: certificate nested too deeply", file=sys.stderr)
        return EXIT_ERROR
    if isinstance(data, dict) and "table" in data:
        return _check_countermodel(data, phi)
    try:
        derivation = derivation_from_json(data)
        derived = check_derivation(derivation)
    except CertificateFormatError as exc:
        print(f"error: malformed certificate: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except CertificateError as exc:
        print(f"invalid certificate: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    if derived != phi:
        print(
            f"invalid certificate: derives {print_formula(derived)}, "
            f"expected {print_formula(phi)}",
            file=sys.stderr,
        )
        return EXIT_EMPTY
    print(f"valid certificate for {print_formula(phi)}")
    return EXIT_INHABITED


def _check_countermodel(data, phi) -> int:
    try:
        check_countermodel(countermodel_from_json(data), phi)
    except CountermodelFormatError as exc:
        print(f"error: malformed countermodel: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except CountermodelError as exc:
        print(f"invalid countermodel: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    print(f"valid countermodel for {print_formula(phi)}")
    return EXIT_INHABITED


def cmd_corpus(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    formulas = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            formulas.append((lineno, parse_formula(text)))
        except FormulaSyntaxError as exc:
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            return EXIT_ERROR

    engines = ["bounded", "shadow"] if args.engine == "auto" else [args.engine]
    configs = {name: DecideConfig(engine=name, time_budget=args.time_budget) for name in engines}

    disagreements = unrefuted = 0
    for _, phi in formulas:
        verdicts = {name: decide(phi, cfg).verdict for name, cfg in configs.items()}
        if args.engine == "auto":
            verdicts["countermodel"] = "none" if refute(phi) is None else "Empty"
        # bounded never claims Empty, so the only hard conflict is
        # Inhabited on one engine against Empty from the shadow engine or a
        # countermodel. A shadow Empty without a countermodel is no
        # conflict: T-> may lack the finite model property.
        conflict = "Inhabited" in verdicts.values() and "Empty" in verdicts.values()
        disagreements += conflict
        unrefuted_here = verdicts.get("countermodel") == "none" and verdicts["shadow"] == "Empty"
        unrefuted += unrefuted_here
        cells = "  ".join(f"{name}={verdict}" for name, verdict in verdicts.items())
        flags = ("  DISAGREE" if conflict else "") + (
            "  no-countermodel" if unrefuted_here else ""
        )
        print(f"{print_formula(phi)}  {cells}{flags}")
    summary = f"# {len(formulas)} formulas, {disagreements} disagreements"
    if args.engine == "auto":
        summary += f", {unrefuted} no-countermodel"
    print(summary)
    return EXIT_INHABITED if disagreements == 0 else EXIT_EMPTY


def _seconds(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", choices=["auto", "bounded", "shadow"], default="auto")
    p.add_argument("--time-budget", type=_seconds, default=None, metavar="SECONDS")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at import and shared by every
    `main` call."""
    parser = argparse.ArgumentParser(
        prog="ticket",
        description="Decide inhabitation of implicational formulas and "
        "verify combinator certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="decide one formula")
    p_decide.add_argument("formula")
    _add_engine_flags(p_decide)
    p_decide.add_argument("--json", action="store_true")
    p_decide.add_argument("--trace", action="store_true")
    p_decide.set_defaults(func=cmd_decide)

    p_check = sub.add_parser("check", help="verify a certificate file")
    p_check.add_argument("certificate")
    p_check.add_argument("formula")
    p_check.set_defaults(func=cmd_check)

    p_corpus = sub.add_parser("corpus", help="decide a file of formulas")
    p_corpus.add_argument("file")
    _add_engine_flags(p_corpus)
    p_corpus.set_defaults(func=cmd_corpus)

    return parser


# Built at import, so that a process forked after the import, or a process
# that runs `main` many times, never builds it again. The two parses compile
# argparse's regular expressions into `re`'s cache here too, not in the first
# `main` of every forked process.
build_parser().parse_args(["decide", "a", "--json"])
build_parser().parse_args(["check", "x", "a"])


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return EXIT_ERROR if exc.code else 0
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
