import copy
import gc
import json
import os
import pickle
import random
import subprocess
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import ticket
from ticket import formula
from ticket.combinators import (
    MP,
    Axiom,
    derivation_from_json,
    derivation_to_json,
    extract_combinator,
)
from ticket.formula import (
    Atom,
    Formula,
    FormulaSyntaxError,
    Imp,
    formula_sort_key,
    parse_formula,
    print_formula,
    sorted_subformulas,
    subformulas,
)

from conftest import SEED, random_derivation


def test_parse_atom():
    assert parse_formula("a") == Atom("a")


def test_arrow_right_associative():
    assert parse_formula("a->b->c") == Imp(Atom("a"), Imp(Atom("b"), Atom("c")))


def test_parens_override_associativity():
    assert parse_formula("(a->b)->c") == Imp(Imp(Atom("a"), Atom("b")), Atom("c"))


def test_print_minimal_parens():
    assert print_formula(parse_formula("a->b->c")) == "a->b->c"
    assert print_formula(parse_formula("(a->b)->c")) == "(a->b)->c"


@pytest.mark.parametrize(
    "text",
    ["a->a", "(a->b)->((b->c)->(a->c))", "((a->b)->a)->a", "x1->x2->x1"],
)
def test_roundtrip(text):
    phi = parse_formula(text)
    assert parse_formula(print_formula(phi)) == phi


@pytest.mark.parametrize("bad", ["", "->", "a->", "(a", "a)", "a b", "a-<b", "((("])
def test_syntax_errors(bad):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(bad)


# (text, message, offset) of each malformed input. A character that starts
# no token is reported before any other error, wherever it stands.
SYNTAX_ERRORS = [
    ("", "unexpected end of input", 0),
    ("->", "unexpected '->'", 0),
    ("a->", "unexpected end of input", 3),
    ("(a", "unexpected end of input", 2),
    ("a)", "trailing input ')'", 1),
    ("a b", "trailing input 'b'", 2),
    ("a-<b", "unexpected character '-'", 1),
    ("(((", "unexpected end of input", 3),
    ("a->->b", "unexpected '->'", 3),
    ("()", "unexpected ')'", 1),
    ("a->b)", "trailing input ')'", 4),
    ("(a->b", "unexpected end of input", 5),
    ("a$b", "unexpected character '$'", 1),
    ("a->\t", "unexpected end of input", 4),
    ("(a b", "expected ')'", 3),
    ("(a)(b)", "trailing input '('", 3),
    ("1a", "unexpected character '1'", 0),
    ("a - > b", "unexpected character '-'", 2),
    (") $", "unexpected character '$'", 2),
    # the parser tests only a name's first character; these start no name
    ("é", "unexpected character 'é'", 0),
    ("a->é", "unexpected character 'é'", 3),
    ("aé->b", "unexpected character 'é'", 1),
    ("_a", "unexpected character '_'", 0),
    ("a->1b", "unexpected character '1'", 3),
]


@pytest.mark.parametrize("text,message,offset", SYNTAX_ERRORS)
def test_syntax_error_message_and_offset(text, message, offset):
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula(text)
    assert str(info.value) == f"{message} (at offset {offset})"
    assert info.value.offset == offset


def test_whitespace_between_tokens():
    assert parse_formula(" a -> b ") == parse_formula("a->b")
    assert parse_formula("\n( a\t->b )->\nc") == parse_formula("(a->b)->c")


def test_deep_nesting_is_a_syntax_error():
    with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
        parse_formula("(" * 1500 + "a->a" + ")" * 1500)


def _formulas():
    atoms = st.sampled_from(["a", "b", "c", "x1", "B_2"]).map(Atom)
    return st.recursive(atoms, lambda sub: st.builds(Imp, sub, sub), max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_formulas())
def test_print_parse_roundtrip(phi):
    assert parse_formula(print_formula(phi)) == phi


def test_parse_shares_equal_subformulas():
    phi = parse_formula("((a->b)->a->b)->(a->b)->a->b")
    assert phi.antecedent.antecedent is phi.consequent.antecedent
    assert phi.antecedent is phi.consequent
    f, g = parse_formula("a->b->c"), parse_formula("(b->c)->a")
    assert f.consequent is g.antecedent and f.antecedent is g.consequent


def test_certificate_subformulas_are_shared(closed_terms):
    # equal subformulas across the types of one parsed certificate are one
    # object
    rng = random.Random(SEED)
    derivations = [extract_combinator(m, phi) for m, phi in closed_terms]
    derivations += [random_derivation(rng, rng.randint(1, 6)) for _ in range(30)]
    for d in derivations:
        parsed = derivation_from_json(derivation_to_json(d))
        ids_by_text: dict[str, set[int]] = {}
        stack: list = [parsed]
        while stack:
            node = stack.pop()
            if isinstance(node, Axiom):
                stack.append(node.instantiated_type)
            elif isinstance(node, MP):
                stack += (node.result_type, node.left, node.right)
            else:  # every occurrence of a subformula, not a set of them
                ids_by_text.setdefault(print_formula(node), set()).add(id(node))
                if isinstance(node, Imp):
                    stack += (node.antecedent, node.consequent)
        assert all(len(ids) == 1 for ids in ids_by_text.values())


def test_equal_formulas_are_one_object():
    texts = ["a", "a->b->c", "(a->b)->(a->b)->c", "((x1->B_2)->x1)->x1"]
    for text in texts:
        phi = parse_formula(text)
        assert parse_formula(text) is phi
        assert parse_formula(f" ( {text} ) ") is phi
        assert _rebuild(phi) is phi
    assert Imp(Atom("a"), Imp(Atom("b"), Atom("c"))) is parse_formula("a->b->c")
    assert Atom("a") is not Atom("b") and Imp(Atom("a"), Atom("b")) is not Atom("a")


def _rebuild(f: Formula) -> Formula:
    """f built again through the constructors, from names up."""
    if isinstance(f, Atom):
        return Atom(f.name)
    return Imp(_rebuild(f.antecedent), _rebuild(f.consequent))


def test_certificate_types_are_the_parsed_formulas(closed_terms):
    # every type that derivation_from_json reads is the object that
    # parse_formula returns for the same text
    derivations = [extract_combinator(m, phi) for m, phi in closed_terms]
    for d in derivations:
        data = derivation_to_json(d)
        parsed = derivation_from_json(data)
        stack = [(data, parsed)]
        while stack:
            node, built = stack.pop()
            kept = built.instantiated_type if isinstance(built, Axiom) else built.result_type
            assert kept is parse_formula(node["type"])
            if isinstance(built, MP):
                stack += zip(node["children"], (built.left, built.right))


def test_dropped_formulas_leave_the_intern_table():
    gc.collect()
    before = len(formula._table)
    phi = parse_formula("->".join(f"q{i % 7}" for i in range(401)))
    assert len(formula._table) == before + 7 + 400
    del phi
    gc.collect()
    assert len(formula._table) == before


def test_pickle_round_trip_is_the_same_object():
    for phi in (Atom("a"), parse_formula("(a->b)->a->b")):
        assert pickle.loads(pickle.dumps(phi)) is phi
        assert copy.deepcopy(phi) is phi


def test_threads_build_one_object_per_formula(monkeypatch):
    # every miss of the constructors yields the interpreter to other threads
    # half-way (by a sleep(0) before its reference is made), so the threads
    # race on each new formula; the miss path must still enter it once
    class YieldingWeakref:
        @staticmethod
        def ref(*args):
            time.sleep(0)
            return weakref.ref(*args)

    monkeypatch.setattr(formula, "weakref", YieldingWeakref)
    texts = [f"(t{i}->u{i})->(u{i}->v)->t{i}->v" for i in range(40)]
    start = threading.Barrier(8)
    results: list[list[Formula]] = []

    def build() -> None:
        start.wait()
        out = [parse_formula(t) for t in texts]
        for i in range(40):
            t, u, v = Atom(f"t{i}"), Atom(f"u{i}"), Atom("v")
            out.append(Imp(Imp(t, u), Imp(Imp(u, v), Imp(t, v))))
        results.append(out)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old)
    assert len(results) == 8
    for out in results[1:]:
        assert all(f is g for f, g in zip(out, results[0]))
    assert all(f is g for f, g in zip(results[0][:40], results[0][40:]))


def test_code_run_inside_a_miss_can_build_formulas(monkeypatch):
    # a garbage collection inside a constructor's miss path can run weakref
    # callbacks or finalisers that build formulas on the same thread; here
    # making the reference builds one. The build runs in a thread so that a
    # deadlock fails the test instead of hanging it.
    inner: list = []

    class BuildingWeakref:
        @staticmethod
        def ref(*args):
            if not inner:
                inner.append(None)  # the inner build makes references too
                inner[0] = parse_formula("inner1->inner2")
            return weakref.ref(*args)

    monkeypatch.setattr(formula, "weakref", BuildingWeakref)
    built = []

    def build() -> None:
        built.append(parse_formula("outer->outer"))

    worker = threading.Thread(target=build, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert built and inner[0] is parse_formula("inner1->inner2")


def _chain(atoms: list[str]) -> Formula:
    f: Formula = Atom(atoms[-1])
    for name in reversed(atoms[:-1]):
        f = Imp(Atom(name), f)
    return f


def test_deep_equality_needs_no_recursion():
    f, g = _chain(["a"] * 5001), _chain(["a"] * 5001)
    assert f is g and f == g and not f != g
    h = _chain(["a"] * 5000 + ["b"])
    assert f is not h and f != h and h != f
    assert (Imp(Atom("a"), Atom("b")) == Atom("a")) is False


def test_subformulas():
    phi = parse_formula("(a->b)->a")
    subs = subformulas(phi)
    expected = {phi, parse_formula("a->b"), Atom("a"), Atom("b")}
    assert subs == frozenset(expected)


def test_subformulas_dedup():
    phi = parse_formula("a->a->a")
    assert subformulas(phi) == frozenset({phi, parse_formula("a->a"), Atom("a")})


def test_subformulas_of_deep_formulas_twice():
    # the second parse finds every arrow of the first one live
    text = "->".join(["a"] * 401)
    for phi in (parse_formula(text), parse_formula(text)):
        assert len(subformulas(phi)) == 401


def test_sort_key_total_order():
    phis = [parse_formula(s) for s in ["b", "a", "a->b", "a->a", "(a->b)->a"]]
    ordered = sorted(phis, key=formula_sort_key)
    assert sorted(ordered, key=formula_sort_key) == ordered
    assert len({formula_sort_key(p) for p in phis}) == len(phis)
    for phi in phis + [parse_formula("->".join("cab"[i % 3] for i in range(30)))]:
        assert sorted_subformulas(phi) == sorted(subformulas(phi), key=formula_sort_key)


def test_imp_repr_fields_and_pickle():
    f = Imp(Atom("a"), Atom("b"))
    assert f != Imp(Atom("b"), Atom("a"))
    assert repr(f) == "Imp(Atom(a), Atom(b))"
    assert Imp.__slots__ == ("antecedent", "consequent", "__weakref__")
    assert pickle.loads(pickle.dumps(f)) is f


def test_deep_formula_hashes():
    f = Atom("a")
    for _ in range(5000):
        f = Imp(Atom("a"), f)
    assert f in {f} and f.consequent not in {f}


def test_sorted_subformulas_holds_budgets_on_long_formulas():
    # sorting the subformulas of a 999-arrow chain printed each key from
    # scratch, quadratic in its length, before the first deadline check
    # (0.7-1.0 s). Over 9 atoms, more than `countermodel.MAX_ATOMS`, auto's
    # countermodel sweep merges i onto a and takes about 0.3 s, so it
    # checks the deadline per arrow. Each decision now overshoots its budget
    # by milliseconds; the bound leaves room for a loaded machine. The
    # decisions run in a child process, killed at the hard timeout.
    code = (
        "import json, time\n"
        "from ticket.formula import parse_formula\n"
        "from ticket.shadow import DecideConfig, decide\n"
        "phi = parse_formula('->'.join('abcdefghi'[i % 9] for i in range(1000)))\n"
        "out = []\n"
        "for engine in ('auto', 'shadow', 'bounded'):\n"
        "    t0 = time.monotonic()\n"
        "    d = decide(phi, DecideConfig(engine=engine, time_budget=0.2))\n"
        "    out.append([d.verdict, time.monotonic() - t0])\n"
        "print(json.dumps(out))\n"
    )
    src = os.path.dirname(os.path.dirname(ticket.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=20,
        check=True,
    )
    for verdict, seconds in json.loads(proc.stdout):
        assert verdict == "ResourceExhausted"
        assert seconds < 0.2 + 0.15
