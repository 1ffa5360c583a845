import contextlib
import gc
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

import ticket
import ticket.cli
import ticket.shadow
from conftest import SEED, A, B, C, formula_corpus
from ticket.cli import ENGINES, EXIT_INTERNAL, USAGE, UsageError, main, read_argv
from ticket.shadow import DecideConfig, Decision, decide

DEEP = "(" * 1500 + "a->a" + ")" * 1500


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_inhabited_exit_0(capsys):
    code, out, _ = run(capsys, "decide", "a->a")
    assert code == 0
    assert "Inhabited" in out
    assert "\\x1:a. x1" in out


def test_decide_empty_exit_1(capsys):
    code, out, _ = run(capsys, "decide", "a->(b->a)", "--engine", "shadow")
    assert code == 1
    assert "Empty" in out


def test_decide_exhausted_exit_3(capsys):
    code, out, _ = run(capsys, "decide", "a->(b->a)", "--engine", "bounded")
    assert code == 3
    assert "ResourceExhausted" in out


def test_decide_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "decide", "a->")
    assert code == 2
    assert "error" in err


# a valid derivation of a->a, 2000 modus ponens steps deep: I applied to I
# again and again
DEEP_CERT = (
    '{"kind": "mp", "type": "a->a", "children": [{"kind": "I", "type": "(a->a)->a->a"}, ' * 2000
    + '{"kind": "I", "type": "a->a"}'
    + "]}" * 2000
)


@pytest.mark.parametrize("command", ["decide", "check", "check-certificate"])
def test_deep_nesting_fails_closed(command, tmp_path):
    path = tmp_path / "cert.json"
    if command == "decide":
        argv = [command, DEEP]
    elif command == "check":
        path.write_text('{"kind": "I", "type": "a->a"}')
        argv = [command, str(path), DEEP]
    else:
        path.write_text(DEEP_CERT)
        argv = ["check", str(path), "a->a"]
    src = os.path.dirname(os.path.dirname(ticket.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "ticket.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert "nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


def _cli(*argv, timeout=None, hash_seed=None):
    """Run the CLI in a child process, killed after `timeout` seconds, with
    PYTHONHASHSEED set to `hash_seed` when given."""
    src = os.path.dirname(os.path.dirname(ticket.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "ticket.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_deep_formula_is_refuted_fast(tmp_path):
    # auto tries the countermodel search before the oracle and the shadow
    # search, which spend seconds on this formula or overflow
    deep = "->".join(["a"] * 401)
    t0 = time.monotonic()
    proc = _cli("decide", deep, "--json")
    assert time.monotonic() - t0 < 1
    assert proc.returncode == 1
    path = tmp_path / "countermodel.json"
    path.write_text(json.dumps(json.loads(proc.stdout)["countermodel"]))
    assert _cli("check", str(path), deep).returncode == 0


def test_crash_fails_closed():
    # 400 right-nested arrows parse; formula equality walks them without
    # recursion, so the shadow search runs into its budget instead of
    # overflowing (under the auto engine a countermodel answers Empty first).
    # An unexpected exception exits 4: see the next test.
    deep = "->".join(["a"] * 401)
    proc = _cli("decide", deep, "--engine", "shadow", "--time-budget", "1", timeout=30)
    assert proc.returncode == 3
    assert proc.stdout.endswith(": ResourceExhausted\n")
    assert proc.stderr == ""


def test_unexpected_exception_exits_internal(capsys, monkeypatch):
    def boom(phi, config):
        raise RuntimeError("boom")

    monkeypatch.setattr(ticket.cli, "decide", boom)
    code, out, err = run(capsys, "decide", "a->a", "--json")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "error: internal: RuntimeError: boom\n"


@pytest.mark.parametrize("optimize", [["-O"], []], ids=["optimized", "plain"])
def test_wrong_certificate_fails_closed(optimize):
    # axiom_i patched to derive b->b whatever it is asked for: the
    # certificate extracted for a->a then proves b->b. The comparison with
    # the formula must hold under -O, which strips assert statements.
    code = (
        "import sys\n"
        "from ticket import cli, combinators\n"
        "from ticket.formula import Atom, Imp\n"
        f"if sys.flags.optimize != {len(optimize)}:\n"
        "    sys.exit(99)\n"
        "combinators.axiom_i = lambda phi: combinators.Axiom('I', Imp(Atom('b'), Atom('b')))\n"
        "sys.exit(cli.main(['decide', 'a->a', '--json']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ticket.__file__)))
    proc = subprocess.run(
        [sys.executable, *optimize, "-c", code],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == EXIT_INTERNAL
    assert proc.stdout == ""
    assert proc.stderr == "error: internal: CertificateError: extracted b->b, wanted a->a\n"


# a decision, and the times it gives beside wall_time: one per step
# that ran, and one for the certificate's extraction
TRACED = [
    (["a->(b->a)", "--engine", "shadow"], ["time_shadow"]),
    (["a->(b->a)"], ["time_countermodel"]),
    (["a->a"], ["time_countermodel", "time_bounded", "time_extract"]),
    (["((c->c)->c)->c"], ["time_countermodel", "time_bounded", "time_shadow"]),
    (["(a->a->b)->a->b", "--engine", "bounded"], ["time_bounded", "time_extract"]),
]


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_trace_prints_every_stat_on_stderr(capsys, mode):
    for args, times in TRACED:
        argv = ["decide", *args]
        stats = json.loads(run(capsys, *argv, "--json")[1])["stats"]
        plain = run(capsys, *argv, *mode)
        code, out, err = run(capsys, *argv, *mode, "--trace")
        # stdout is byte-identical with and without --trace
        assert plain == (code, out, "")
        lines = [line.partition(" = ") for line in err.splitlines()]
        # the times are on stderr only
        timed = ["wall_time", *times]
        assert not set(timed) & set(stats)
        assert [key for key, _, _ in lines] == [f"  # {k}" for k in sorted([*stats, *timed])]
        for key, _, value in lines:
            if key[4:] in timed:
                assert float(value) >= 0
            else:
                assert value == str(stats[key[4:]])


def test_a_step_needs_only_its_entry_in_the_step_table(capsys, monkeypatch):
    # a step that writes a counter and hands phi on: its counter is a stat,
    # and its time shows under --trace but never in --json
    def fake(phi, deadline, stats):
        stats["fake_count"] = 1
        return None

    steps = ticket.shadow._STEPS
    monkeypatch.setitem(steps, "auto", (("fake", fake), *steps["auto"]))
    code, out, err = run(capsys, "decide", "a->a", "--json", "--trace")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats == {"engine": "bounded", "fake_count": 1, "terms": 2}
    traced = [line.partition(" = ")[0][4:] for line in err.splitlines()]
    times = ["time_bounded", "time_countermodel", "time_extract", "time_fake", "wall_time"]
    assert traced == sorted([*stats, *times])


def test_a_new_engine_needs_only_its_entry_in_the_step_table(capsys, monkeypatch):
    # --engine accepts the engines of the step table as it is when read
    def solo(phi, deadline, stats):
        stats["solo_count"] = 1
        return "Empty", None, None

    monkeypatch.setitem(ticket.shadow._STEPS, "solo", (("solo", solo),))
    code, out, _ = run(capsys, "decide", "a->b", "--engine", "solo", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "Empty"
    assert payload["stats"] == {"engine": "solo", "solo_count": 1}
    code, _, err = run(capsys, "decide", "a->b", "--engine", "duo")
    assert code == 2
    assert "invalid choice: 'duo' (choose from auto, bounded, shadow, solo)" in err


def test_decide_json_schema(capsys):
    code, out, _ = run(capsys, "decide", "a->a", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "formula",
        "verdict",
        "witness_lambda",
        "witness_combinator",
        "countermodel",
        "stats",
    }
    assert payload["verdict"] == "Inhabited"
    assert payload["witness_lambda"] == "\\x1:a. x1"
    assert payload["countermodel"] is None
    assert "wall_time" not in payload["stats"]


def _encoded(value) -> str:
    out = []
    ticket.cli._encode(value, out)
    return "".join(out)


def _dumped(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# strings that JSON escapes: backslash, quote, control characters, and
# characters beyond ASCII, in and beyond the basic plane
AWKWARD = ["", "\\", '"', "\\x1:a. x1", "\x00\x1f\x7f\t\n\r\x08\x0c", "é", "\u2028", "中", "\U0001f600"]


def test_encoder_matches_json_dumps():
    payload = ticket.cli._decision_payload
    payloads = []
    # every engine on formula_corpus(); the budget leaves the slowest shadow
    # searches ResourceExhausted, which are payloads to encode too
    for phi in formula_corpus():
        for engine in ENGINES:
            payloads.append(payload(phi, decide(phi, DecideConfig(engine, 0.2))))
    # budgets that run out at once
    for phi in formula_corpus()[::7]:
        for engine in ENGINES:
            payloads.append(payload(phi, decide(phi, DecideConfig(engine, 1e-9))))
    # the census of every formula of at most 4 arrows over a, b, c
    for phi in formula_corpus(4, (A, B, C)):
        payloads.append(payload(phi, decide(phi, DecideConfig(time_budget=2.0))))
    verdicts = {p["verdict"] for p in payloads}
    assert verdicts == {"Inhabited", "Empty", "ResourceExhausted"}
    # hand-built payloads
    payloads += [
        *AWKWARD,
        {s: s for s in AWKWARD},
        [AWKWARD, {}, [], [[]], {"": {}}, None, True, False, 0, -1, 2**70, -(2**70)],
        {"b": [1, {"d": None, "c": "\\"}], "a": {"z": True, "y": False}},
    ]
    for value in payloads:
        assert _encoded(value) == _dumped(value)


@pytest.mark.parametrize(
    "value", [1.5, (1,), {1: "a"}, {"a": {b"b": 1}}, [set()], "".join, json.JSONEncoder]
)
def test_encoder_rejects_other_kinds(value):
    with pytest.raises(TypeError):
        _encoded(value)


def test_unencodable_stats_exit_4(capsys, monkeypatch):
    # a value the encoder does not know is an internal error, not a verdict
    def odd_decide(phi, config):
        return Decision("Empty", None, None, {"engine": "shadow", "ratio": 0.5})

    monkeypatch.setattr(ticket.cli, "decide", odd_decide)
    code, out, err = run(capsys, "decide", "a->b", "--json")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err.startswith("error: internal: TypeError: ")


def test_cli_import_leaves_out_the_lemma_modules():
    # the decision path needs neither the blueprint algebra nor the explicit
    # shadows of the lemma checks
    src = os.path.dirname(os.path.dirname(ticket.__file__))
    code = (
        "import json, sys, ticket.cli; "
        "print(json.dumps([m for m in sys.modules if m.startswith('ticket')]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    loaded = set(json.loads(proc.stdout))
    assert "ticket.shadow" in loaded
    assert not loaded & {"ticket.blueprint", "ticket.compact"}


@pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf", "x"])
@pytest.mark.parametrize("command", ["decide", "corpus"])
def test_time_budget_must_be_positive(capsys, tmp_path, command, seconds):
    target = "a->a"
    if command == "corpus":
        target = str(tmp_path / "f.txt")
        (tmp_path / "f.txt").write_text("a->a\n")
    code, out, err = run(capsys, command, target, "--time-budget", seconds)
    assert code == 2
    assert out == ""
    # one message for every rejected value, naming no function of the program
    assert err.splitlines()[-1] == (
        "ticket: error: argument --time-budget: expected a positive, finite "
        f"number of seconds, got {seconds!r}"
    )


@pytest.mark.parametrize(
    "command,flag",
    [
        ("decide", ["--max-shadows", "5"]),
        ("corpus", ["--max-shadows", "5"]),
        ("decide", ["--max-nodes", "5"]),
        ("corpus", ["--max-nodes", "5"]),
        ("decide", ["--emit", "lambda"]),
    ],
    ids=[
        "decide-max-shadows",
        "corpus-max-shadows",
        "decide-max-nodes",
        "corpus-max-nodes",
        "decide-emit",
    ],
)
def test_removed_options_are_rejected(capsys, tmp_path, command, flag):
    path = tmp_path / "corpus.txt"
    path.write_text("a->a\n")
    target = "a->a" if command == "decide" else str(path)
    code, out, err = run(capsys, command, target, *flag)
    assert code == 2
    assert out == ""
    assert flag[0] in err
    assert "Traceback" not in err


def test_time_budget_stops_the_search(capsys):
    # the shadow engine does not finish on this theorem (its witness has 11
    # nodes) within a second
    phi = "(((b->b)->b->b)->b)->(b->b)->b"
    code, out, _ = run(
        capsys, "decide", phi, "--engine", "shadow", "--time-budget", "1", "--json"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "ResourceExhausted"
    assert payload["stats"]["time_budget_hit"] is True
    assert (payload["stats"]["step"], payload["stats"]["exhausted_by"]) == ("shadow", "time")


def test_timeout_keeps_the_shadow_count(capsys):
    # a theorem of bench/data/excluded.txt that the shadow engine does not
    # finish within 0.2 s: the timed-out verdict keeps the nodes it expanded
    phi = "(((b->b)->b->b)->b)->(b->b)->b"
    code, out, _ = run(
        capsys, "decide", phi, "--engine", "shadow", "--time-budget", "0.2", "--json"
    )
    assert code == 3
    stats = json.loads(out)["stats"]
    assert (stats["step"], stats["exhausted_by"], stats["time_budget_hit"]) == ("shadow", "time", True)
    assert stats["expanded"] > 0


def test_corpus_budget_holds_on_many_free_variables(tmp_path):
    # a shadow node with 22 free variables has 2^22 function sides, so the
    # budget holds only if the deadline is checked per side; the hard
    # timeout makes a regression fail instead of hang
    path = tmp_path / "deep.txt"
    path.write_text("->".join(["a"] * 23) + "\n")
    proc = _cli("corpus", str(path), "--time-budget", "1", timeout=5)
    assert proc.returncode == 0
    assert "0 disagreements" in proc.stdout


def _random_formula_text(rng, arrows, atoms):
    if arrows == 0:
        return rng.choice(atoms)
    k = rng.randrange(arrows)
    left, right = _random_formula_text(rng, k, atoms), _random_formula_text(rng, arrows - 1 - k, atoms)
    return f"({left})->{right}"


def test_corpus_countermodel_search_keeps_to_the_budget(tmp_path):
    # the countermodel sweep alone takes seconds on a random 20 000-arrow
    # formula over 8 atoms; under the budget it stops, and says so rather
    # than print none, and a cut sweep is no disagreement; the hard timeout
    # makes a regression fail instead of hang
    path = tmp_path / "big.txt"
    path.write_text(_random_formula_text(random.Random(SEED), 20_000, "abcdefgh") + "\n")
    t0 = time.monotonic()
    proc = _cli("corpus", str(path), "--time-budget", "0.2", timeout=30)
    assert time.monotonic() - t0 < 3
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].endswith("shadow=ResourceExhausted  countermodel=ResourceExhausted")
    assert lines[1] == "# 1 formulas, 0 disagreements, 0 no-countermodel"


def test_time_budget_takes_fractions_of_a_second(capsys):
    code, out, _ = run(capsys, "decide", "a->a", "--time-budget", "0.5")
    assert code == 0
    assert "Inhabited" in out


def test_time_budget_works_off_the_main_thread(capsys):
    codes = []
    worker = threading.Thread(
        target=lambda: codes.append(main(["decide", "a->a", "--time-budget", "1"]))
    )
    worker.start()
    worker.join()
    assert codes == [0]


def test_main_builds_no_parser():
    # the reader is a plain function over the COMMANDS table, so `main`
    # builds and keeps nothing: two calls leave no memory allocated in
    # cli.py behind and rebind no name of the module
    names = dict(vars(ticket.cli))
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(["decide", "a->a"]), main(["decide", "a->a", "--json"])]
        gc.collect()
        kept = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, ticket.cli.__file__)]
        )
    finally:
        tracemalloc.stop()
    assert codes == [0, 0]
    assert kept.statistics("lineno") == []
    assert vars(ticket.cli).keys() == names.keys()
    assert all(vars(ticket.cli)[name] is value for name, value in names.items())
    assert ticket.cli.build_parser() is ticket.cli.build_parser() is ticket.cli.read_argv


def test_first_main_compiles_no_regex():
    # the command line is read without regular expressions, and the formula
    # reader's are compiled at import, so the first `main` of a fresh (or
    # forked) process compiles none
    src = os.path.dirname(os.path.dirname(ticket.__file__))
    code = """
import io, contextlib, re._compiler, ticket.cli
compiled = []
compile = re._compiler.compile
def counting(*args, **kwargs):
    compiled.append(args[0])
    return compile(*args, **kwargs)
re._compiler.compile = counting
with contextlib.redirect_stdout(io.StringIO()):
    code = ticket.cli.main(["decide", "(p->(p->x))->(p->x)", "--json"])
print(code, compiled)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    assert proc.stdout == "0 []\n"


def test_decide_json_deterministic(capsys):
    _, out1, _ = run(capsys, "decide", "(p->(p->x))->(p->x)", "--json")
    _, out2, _ = run(capsys, "decide", "(p->(p->x))->(p->x)", "--json")
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ("(a->(a->b))->((b->c)->(a->(a->c)))",),  # Inhabited, by the shadow engine
        ("((a->b)->a)->a",),  # Empty, by a countermodel
        ("(c->a)->b->(b->b)->b", "--engine", "shadow"),  # Empty, by the shadow engine
    ],
)
def test_decide_json_deterministic_across_processes(argv):
    # formulas hash by address and strings by PYTHONHASHSEED, so set order
    # differs between processes; the output, stats included, must not
    first, second = (_cli("decide", *argv, "--json", hash_seed=seed) for seed in (1, 2))
    assert first.stdout == second.stdout and first.returncode == second.returncode
    assert first.stdout and first.stderr == ""


def test_check_valid(capsys, tmp_path):
    _, out, _ = run(capsys, "decide", "a->a", "--json")
    cert = json.loads(out)["witness_combinator"]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "check", str(path), "a->a")
    assert code == 0
    assert "valid" in out


def test_check_wrong_formula(capsys, tmp_path):
    _, out, _ = run(capsys, "decide", "a->a", "--json")
    cert = json.loads(out)["witness_combinator"]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, _, err = run(capsys, "check", str(path), "b->b")
    assert code == 1
    assert "invalid" in err


@pytest.mark.parametrize(
    "kind, phi, wrong",
    [
        ("B", "(x->y)->(p->x)->p->y", "I"),
        ("B'", "(p->x)->(x->y)->p->y", "W"),
        ("I", "a->a", "B"),
        ("W", "(p->p->x)->p->x", "B'"),
    ],
)
def test_axiom_theorem_has_a_one_leaf_certificate(capsys, tmp_path, kind, phi, wrong):
    _, out, _ = run(capsys, "decide", phi, "--json")
    cert = json.loads(out)["witness_combinator"]
    assert cert == {"kind": kind, "type": phi}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert run(capsys, "check", str(path), phi)[0] == 0
    # the same type under a scheme it does not fit
    path.write_text(json.dumps({"kind": wrong, "type": phi}))
    code, _, err = run(capsys, "check", str(path), phi)
    assert code == 1
    assert "invalid" in err


def test_check_malformed_json(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text("{truncated")
    code, _, err = run(capsys, "check", str(path), "a->a")
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"foo": 1}',
        "[1, 2]",
        '{"kind": "mp", "type": "a->a"}',
        '{"kind": "X", "type": "a->a"}',
        '{"kind": "I", "type": "a->"}',
    ],
    ids=["no-kind", "list", "mp-without-children", "unknown-kind", "bad-type"],
)
def test_check_malformed_certificate(capsys, tmp_path, text):
    path = tmp_path / "cert.json"
    path.write_text(text)
    code, _, err = run(capsys, "check", str(path), "a->a")
    assert code == 2
    assert err.startswith("error: malformed certificate")


def test_corpus_agreement(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a->a\n(x->y)->((p->x)->(p->y))\na->(b->a)\n\n# comment\n")
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 0
    assert "0 disagreements" in out
    assert "a->b->a" in out


NAMED_FAILURE = "((b->c->a)->a)->a->a"


def _countermodel_file(capsys, tmp_path, **edit):
    _, out, _ = run(capsys, "decide", NAMED_FAILURE, "--json")
    cm = json.loads(out)["countermodel"]
    cm.update(edit)
    path = tmp_path / "countermodel.json"
    path.write_text(json.dumps(cm))
    return str(path)


def test_decide_emits_countermodel(capsys):
    code, out, _ = run(capsys, "decide", NAMED_FAILURE, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "Empty"
    assert payload["stats"]["engine"] == "countermodel"
    assert out.startswith('{"countermodel":')
    assert '"countermodel":{"assignment":{"a":2,"b":0,"c":0},"designated":[0,2],"table":[0,1,1,0,0,0,0,1,2]}' in out


def test_check_valid_countermodel(capsys, tmp_path):
    path = _countermodel_file(capsys, tmp_path)
    code, out, _ = run(capsys, "check", path, NAMED_FAILURE)
    assert code == 0
    assert "valid countermodel" in out


def test_formula_past_max_atoms_gets_a_checked_countermodel(capsys, tmp_path):
    # nine atoms, one more than countermodel.MAX_ATOMS: the sweep merges i
    # onto a, and the assignment gives i the value of a. The shadow search
    # ran out of a 3 s budget on this formula when such formulas skipped
    # the sweep
    text = "a->b->c->d->e->f->g->h->i->a"
    code, out, _ = run(capsys, "decide", text, "--json", "--time-budget", "3")
    assert code == 1
    payload = json.loads(out)
    assert (payload["verdict"], payload["stats"]["engine"]) == ("Empty", "countermodel")
    assignment = payload["countermodel"]["assignment"]
    assert sorted(assignment) == list("abcdefghi") and assignment["i"] == assignment["a"]
    path = tmp_path / "countermodel.json"
    path.write_text(json.dumps(payload["countermodel"]))
    code, out, _ = run(capsys, "check", str(path), text)
    assert code == 0
    assert "valid countermodel" in out


@pytest.mark.parametrize(
    "edit,reason",
    [
        ({"table": [0, 1, 1, 1, 0, 0, 0, 1, 2]}, "does not validate W"),
        ({"designated": [0, 1]}, "not closed under modus ponens"),
        ({"assignment": {"a": 0, "b": 0, "c": 0}}, "is designated"),
    ],
)
def test_check_invalid_countermodel(capsys, tmp_path, edit, reason):
    path = _countermodel_file(capsys, tmp_path, **edit)
    code, _, err = run(capsys, "check", path, NAMED_FAILURE)
    assert code == 1
    assert "invalid countermodel" in err and reason in err


def test_check_countermodel_for_another_formula(capsys, tmp_path):
    path = _countermodel_file(capsys, tmp_path)
    code, _, err = run(capsys, "check", path, "c->c")
    assert code == 1
    assert "invalid countermodel" in err


@pytest.mark.parametrize(
    "edit",
    [
        {"table": [0, 1, 1, 0, 0, 0, 0, 1]},
        {"table": [0, 1, 1, 0, 0, 0, 0, 1, 3]},
        {"designated": [0, 0]},
        {"assignment": {"a": "2"}},
        {"assignment": [2, 0, 0]},
    ],
)
def test_check_malformed_countermodel(capsys, tmp_path, edit):
    path = _countermodel_file(capsys, tmp_path, **edit)
    code, _, err = run(capsys, "check", path, NAMED_FAILURE)
    assert code == 2
    assert "malformed countermodel" in err


def test_check_countermodel_bad_json(capsys, tmp_path):
    path = tmp_path / "countermodel.json"
    path.write_text('{"table": [0, 1, 1,')
    code, _, err = run(capsys, "check", str(path), NAMED_FAILURE)
    assert code == 2
    assert "error" in err


def test_corpus_flags_countermodels(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a->a\na->b->a\n((c->c)->c)->c\n")
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("shadow=Inhabited  countermodel=none")
    assert lines[1].endswith("shadow=Empty  countermodel=Empty")
    assert lines[2].endswith("shadow=Empty  countermodel=none  no-countermodel")
    assert lines[3] == "# 3 formulas, 0 disagreements, 1 no-countermodel"


def test_corpus_countermodel_for_inhabited_disagrees(capsys, tmp_path, monkeypatch):
    def bogus(phi, deadline=math.inf):
        return Decision("Empty", None, None, {"engine": "countermodel"})

    monkeypatch.setattr(ticket.cli, "refute", bogus)
    path = tmp_path / "corpus.txt"
    path.write_text("a->a\n")
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 1
    assert out.splitlines()[0].endswith("countermodel=Empty  DISAGREE")


def test_corpus_bad_line(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a->a\n)))\n")
    code, _, err = run(capsys, "corpus", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("command", ["check", "corpus"])
def test_non_utf8_file_exits_2(capsys, tmp_path, command):
    path = tmp_path / "input"
    path.write_bytes(b"a->a\n\xff\n")
    argv = [command, str(path)] + (["a->a"] if command == "check" else [])
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "internal" not in err
    assert len(err.splitlines()) == 1


def test_missing_file(capsys):
    code, _, err = run(capsys, "corpus", "/nonexistent/x.txt")
    assert code == 2


def test_usage_error(capsys):
    code = main(["decide"])  # missing formula
    assert code == 2


def _reference_parser():
    """The argparse parser that `ticket` used before `read_argv`, kept as
    the reference for the reader, as `alpha_canonical` is for the searches."""
    import argparse

    def seconds(text):
        value = float(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value

    def engine_flags(p):
        p.add_argument("--engine", choices=["auto", "bounded", "shadow"], default="auto")
        p.add_argument("--time-budget", type=seconds, default=None, metavar="SECONDS")

    parser = argparse.ArgumentParser(prog="ticket")
    sub = parser.add_subparsers(dest="command", required=True)
    p_decide = sub.add_parser("decide")
    p_decide.add_argument("formula")
    engine_flags(p_decide)
    p_decide.add_argument("--json", action="store_true")
    p_decide.add_argument("--trace", action="store_true")
    p_check = sub.add_parser("check")
    p_check.add_argument("certificate")
    p_check.add_argument("formula")
    p_corpus = sub.add_parser("corpus")
    p_corpus.add_argument("file")
    engine_flags(p_corpus)
    return parser


_FIELDS = ("formula", "certificate", "file", "engine", "time_budget", "json", "trace")


def _outcome(args) -> tuple:
    return ("args", args.command) + tuple(getattr(args, name, "absent") for name in _FIELDS)


def _reference_outcome(parser, argv) -> tuple:
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return ("help",) if exc.code == 0 else ("usage error",)
    # The one intended difference: a `--` after the `--` that ends the
    # options is a positional. argparse drops it from a positional that
    # holds nothing else and hands the handler an empty list, so that
    # `ticket check FILE -- --` crashed with exit 4; the reader passes the
    # text `--`, which `check` rejects as a formula with exit 2.
    for name in ("formula", "certificate", "file"):
        if getattr(args, name, None) == []:
            setattr(args, name, "--")
    return _outcome(args)


def _reader_outcome(argv) -> tuple:
    try:
        args = read_argv(list(argv))
    except UsageError:
        return ("usage error",)
    return ("help",) if args is None else _outcome(args)


ARGV_TOKENS = [
    "decide", "check", "corpus", "a->a",
    "--json", "--trace", "--engine", "shadow", "bogus",
    "--time-budget", "0.5", "0", "-1", "nan", "x",
    "--engine=auto", "--time=2", "--eng", "--js", "--t",
    "--", "-", "-h", "--he", "a -> a",
]  # fmt: skip
COMMAND_WORDS = ["decide", "check", "corpus"]


def _argv_lists():
    """Every argv of up to two tokens, every argv of three that starts with
    a command, a few fixed ones, and 2000 seeded random ones of four to
    seven tokens, most of them starting with a command."""
    for length in range(3):
        yield from itertools.product(ARGV_TOKENS, repeat=length)
    for command in COMMAND_WORDS:
        for rest in itertools.product(ARGV_TOKENS, repeat=2):
            yield (command, *rest)
    yield from [
        ("check", "x", "--", "--"),
        ("decide", "a", "--json", "--"),
        ("decide", "--json", "--", "--json"),
        ("corpus", "f", "--t", "2"),
        ("decide", "a", "-hh"),
        ("decide", "a", "-hx"),
        ("decide", "a", "--json=1"),
        ("decide", "a", "--he=x"),
        ("decide", "-1.5"),
        ("decide", "-.5"),
        ("decide", "-1\n"),
        ("decide", "a", "--=x"),
        ("decide", "-h x"),
        ("decide", "--x y"),
        ("decide", "a", "--engine", "-h"),
    ]
    rng = random.Random(SEED)
    for _ in range(2000):
        argv = [rng.choice(ARGV_TOKENS) for _ in range(rng.randint(4, 7))]
        if rng.random() < 0.8:
            argv[0] = rng.choice(COMMAND_WORDS)
        yield tuple(argv)


def test_reader_agrees_with_the_reference_parser():
    parser = _reference_parser()
    wrong = [
        (argv, expected, got)
        for argv in _argv_lists()
        if (expected := _reference_outcome(parser, list(argv))) != (got := _reader_outcome(argv))
    ]
    assert wrong == []


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "a->a", "--t", "1"],  # --time-budget or --trace
        ["decide", "a->a", "--time-budget", "--json"],
        ["decide", "a->a", "--json=yes"],
        ["decide", "a->a", "--json", "--"],  # `--` after the last positional
        ["--json", "decide", "a->a"],  # an option before the command
        ["decide", "a->a", "b"],
        ["check", "cert.json"],
        ["bogus"],
        [],
    ],
)
def test_usage_error_shape(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(USAGE)
    message = err[len(USAGE):]
    assert message.startswith("ticket: error: ") and message.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["decide", "a->a", "--json", "-h"], ["corpus", "--he"], ["check", "-hh"]],
)
def test_help_prints_the_usage(capsys, argv):
    assert run(capsys, *argv) == (0, USAGE, "")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_output_pipe_exits_4(tmp_path, buffered):
    # the read end of stdout is closed before the command writes anything;
    # buffered, the write fails in the flush at the end of `main`,
    # unbuffered in the first print
    path = tmp_path / "corpus.txt"
    path.write_text("a->a\na->b->a\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ticket.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ticket.cli", "corpus", str(path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_INTERNAL
    assert proc.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"
