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
                   Empty without a countermodel is flagged no-countermodel
                   (a search cut by --time-budget is ResourceExhausted);
                   exit 0 iff no disagreement, 2 on bad input

The command line is read by `read_argv`, a plain function over the table
COMMANDS (each command's positionals, switches, valued options and
handler). Options may come anywhere after the command word, be cut to a
unique prefix and take their value as `--opt=value`; `--` ends the options,
and `-h` or `--help` prints USAGE to stdout and exits 0. A command line that
fits no usage prints USAGE and one `ticket: error: ...` line on stderr and
exits 2. Reading builds no parser and compiles no regular expression, so a
process forked after `import ticket.cli` pays only for the few objects the
reader touches.

Any command that fails with an unexpected exception prints one
`error: internal: ...` line on stderr and exits 4, so that a crash is never
read as a verdict. Output to a closed pipe exits 4 too, with one
`error: cannot write output: ...` line.

The only settings are `--engine` and `--time-budget`; every other limit is a
constant of the library. JSON output is deterministic: identical input and
flags produce identical bytes, with or without `--trace`, except where a
`--time-budget` runs out. A `ResourceExhausted` verdict on `time` carries
the counts the search reached (`expanded`, `terms`), which depend on the
speed of the machine; near the budget, the verdict itself does too. Times (the
wall time and each step's: `Decision.times`) are reported only by `--trace`,
which prints them and every stat, by key, as `  # key = value` lines on
stderr in both modes. The
`countermodel` key is null or an object with sorted keys. `decide --json`
writes its payload in one pass over it (`_encode`), the bytes that
`json.dumps` with sorted keys and compact separators writes, without
building an encoder per call.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

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
from .shadow import ENGINES, DecideConfig, Decision, decide, refute
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

def _encode(value, out: list[str]) -> None:
    """Append to `out` the JSON text of `value`, as `json.dumps(value,
    sort_keys=True, separators=(",", ":"))` writes it, for the kinds a
    payload holds: None, bool, int, str, list, and dict with str keys.
    Raises TypeError on any other value."""
    cls = value.__class__
    if cls is str:
        out.append(encode_basestring_ascii(value))
    elif cls is dict:
        sep = "{"
        for key in sorted(value):
            # raises TypeError unless the key is a str
            out.append(sep + encode_basestring_ascii(key) + ":")
            _encode(value[key], out)
            sep = ","
        out.append("}" if value else "{}")
    elif cls is list:
        sep = "["
        for item in value:
            out.append(sep)
            _encode(item, out)
            sep = ","
        out.append("]" if value else "[]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif cls is int:
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _decision_payload(phi, d: Decision) -> dict:
    return {
        "formula": print_formula(phi),
        "verdict": d.verdict,
        "witness_lambda": print_term(d.witness_lambda) if d.witness_lambda is not None else None,
        "witness_combinator": (
            derivation_to_json(d.witness_combinator)
            if d.witness_combinator is not None
            else None
        ),
        "countermodel": countermodel_to_json(d.countermodel) if d.countermodel is not None else None,
        "stats": d.stats,
    }


def _print_decision_text(phi, d: Decision) -> None:
    print(f"{print_formula(phi)}: {d.verdict}")
    if d.witness_lambda is not None:
        print(f"  witness: {print_term(d.witness_lambda)}")
    if d.witness_combinator is not None:
        print(f"  certificate: {json.dumps(derivation_to_json(d.witness_combinator))}")
    if d.countermodel is not None:
        cm = json.dumps(countermodel_to_json(d.countermodel), sort_keys=True)
        print(f"  countermodel: {cm}")


def cmd_decide(args) -> int:
    try:
        phi = parse_formula(args.formula)
    except FormulaSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    d = decide(phi, DecideConfig(engine=args.engine, time_budget=args.time_budget))
    if args.json:
        out: list[str] = []
        _encode(_decision_payload(phi, d), out)
        out.append("\n")
        sys.stdout.write("".join(out))
    else:
        _print_decision_text(phi, d)
    if args.trace:
        for k, v in sorted({**d.stats, **d.times}.items()):
            print(f"  # {k} = {v}", file=sys.stderr)
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
            deadline = time.monotonic() + (args.time_budget or math.inf)
            try:
                verdicts["countermodel"] = "none" if refute(phi, deadline) is None else "Empty"
            except TimeoutError:
                verdicts["countermodel"] = "ResourceExhausted"
        # bounded never claims Empty, so the only hard conflict is
        # Inhabited on one engine against Empty from the shadow engine or a
        # countermodel. A shadow Empty without a countermodel is no
        # conflict: T-> may lack the finite model property.
        conflict = "Inhabited" in verdicts.values() and "Empty" in verdicts.values()
        disagreements += conflict
        unrefuted_here = verdicts.get("countermodel") == "none" and verdicts["shadow"] == "Empty"
        unrefuted += unrefuted_here
        cells = "  ".join(f"{name}={verdict}" for name, verdict in verdicts.items())
        flags = "  DISAGREE" * conflict + "  no-countermodel" * unrefuted_here
        print(f"{print_formula(phi)}  {cells}{flags}")
    summary = f"# {len(formulas)} formulas, {disagreements} disagreements"
    if args.engine == "auto":
        summary += f", {unrefuted} no-countermodel"
    print(summary)
    return EXIT_INHABITED if disagreements == 0 else EXIT_EMPTY


class UsageError(Exception):
    """A command line that fits no usage of `ticket`; `main` prints the
    usage block and the message, and exits 2."""


def _engine(text: str) -> str:
    if text not in ENGINES:
        raise UsageError(
            f"argument --engine: invalid choice: {text!r} (choose from {', '.join(ENGINES)})"
        )
    return text


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise UsageError(
            f"argument --time-budget: expected a positive, finite number of seconds, got {text!r}"
        )
    return value


# valued option -> (attribute, default, reader of the value)
_VALUED = {
    "--engine": ("engine", "auto", _engine),
    "--time-budget": ("time_budget", None, _seconds),
}
_HELP = ("-h", "--help")

# command -> (positionals, switches, valued options, handler)
COMMANDS = {
    "decide": (("formula",), ("--json", "--trace"), ("--engine", "--time-budget"), cmd_decide),
    "check": (("certificate", "formula"), (), (), cmd_check),
    "corpus": (("file",), (), ("--engine", "--time-budget"), cmd_corpus),
}

USAGE = """\
usage: ticket decide FORMULA [--engine ENGINE] [--time-budget SECONDS] [--json] [--trace]
       ticket check CERTIFICATE FORMULA
       ticket corpus FILE [--engine ENGINE] [--time-budget SECONDS]
       ticket -h | --help

ENGINE is auto (the default), bounded or shadow. SECONDS is a positive,
finite number. Options may come before, between or after the positionals,
be cut to a unique prefix (--eng) and take their value as --opt=value;
`--` ends the options.
"""


def _negative_number(token: str) -> bool:
    """Whether `token`, which starts with '-', reads as a negative number:
    digits, or digits, a point and digits, with at most one line break at
    the end."""
    text = token[1:-1] if token.endswith("\n") else token[1:]
    whole, point, fraction = text.partition(".")
    if point:
        return fraction.isdecimal() and (not whole or whole.isdecimal())
    return whole.isdecimal()


def _option(token: str, options: tuple) -> tuple | None:
    """None if `token` is a positional, else (the option among `options` it
    names, or None for an unknown option; the value attached to it, or
    None). A long option may be cut to a unique prefix and take its value
    after '='; `-h` takes what follows it. Negative numbers, `-` and
    unknown options with a space in them are positionals."""
    if not token.startswith("-"):
        return None
    if token in options:
        return token, None
    if len(token) == 1:
        return None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return name, value
    if token[1] == "-":
        matches = [option for option in options if option.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[:2] in options:
        return token[:2], token[2:]
    if _negative_number(token) or " " in token:
        return None
    return None, None


def _help(option: str, value: str | None) -> bool:
    """True for a help option: `-h` may repeat as `-hh...`; any other
    attached value is an error."""
    if value is None or (option == "-h" and value and value.strip("h") == ""):
        return True
    raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")


def read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The command line `argv`, without the program name, read against
    COMMANDS: a namespace with the command, its handler and one attribute
    per positional and option, or None when it asks for help. Raises
    UsageError for any other command line.

    Before the command only `-h` and `--help` count. After it the options
    may come before, between or after the positionals, and the last
    repeat wins. A valued option takes the next token unless that is an
    option or `--`. Everything after the first `--` is positional; that
    `--` itself is an unrecognized argument when every positional came
    before the last option before it."""
    unknown = []
    for i, token in enumerate(argv):
        if token == "--":
            raise UsageError("expected a command before '--'")
        kind = _option(token, _HELP)
        if kind is None:
            break
        if kind[0] is None:
            unknown.append(token)
        elif _help(*kind):
            return None
    else:
        raise UsageError("the following arguments are required: command")
    if token not in COMMANDS:
        raise UsageError(f"invalid command: {token!r} (choose from {', '.join(COMMANDS)})")
    positionals, switches, valued, handler = COMMANDS[token]
    values = {"command": token, "handler": handler}
    values.update((switch[2:], False) for switch in switches)
    values.update(_VALUED[option][:2] for option in valued)

    rest = argv[i + 1:]
    options = _HELP + switches + valued
    kinds = []
    for token in rest:
        if token == "--":
            break
        kinds.append(_option(token, options))
    words: list[str] = []
    words_before_last_option = 0
    j = 0
    while j < len(kinds):
        kind, token = kinds[j], rest[j]
        j += 1
        if kind is None:
            words.append(token)
            continue
        option, value = kind
        if option is None:
            unknown.append(token)
        elif option in _HELP:
            if _help(option, value):
                return None
        elif option in switches:
            if value is not None:
                raise UsageError(f"argument {option}: ignored explicit argument {value!r}")
            values[option[2:]] = True
        else:
            if value is None:
                if j == len(kinds) or kinds[j] is not None:
                    raise UsageError(f"argument {option}: expected one argument")
                value = rest[j]
                j += 1
            attribute, _, read = _VALUED[option]
            values[attribute] = read(value)
        words_before_last_option = len(words)
    if j < len(rest):
        if words_before_last_option >= len(positionals):
            unknown.append("--")
        words += rest[j + 1:]
    if len(words) < len(positionals):
        missing = ", ".join(positionals[len(words):])
        raise UsageError(f"the following arguments are required: {missing}")
    unknown += words[len(positionals):]
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    values.update(zip(positionals, words))
    return SimpleNamespace(**values)


def build_parser():
    """The command-line reader `main` uses, `read_argv`. It builds nothing:
    a process is ready to read a command line once `ticket.cli` is
    imported."""
    return read_argv


def main(argv: list[str] | None = None) -> int:
    """Run `ticket` on `argv`, or on `sys.argv[1:]` when it is None (as the
    console script calls it), and return the exit code."""
    try:
        args = build_parser()(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        sys.stderr.write(f"{USAGE}ticket: error: {exc}\n")
        return EXIT_ERROR
    try:
        if args is None:
            sys.stdout.write(USAGE)
            code = 0
        else:
            code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # whoever read stdout has gone; point it at devnull, so that the
        # flush at exit does not fail a second time
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
