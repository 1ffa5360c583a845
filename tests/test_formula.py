import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    shared = {}
    f, g = parse_formula("a->b->c", shared), parse_formula("(b->c)->a", shared)
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


def _chain(atoms: list[str]) -> Formula:
    f: Formula = Atom(atoms[-1])
    for name in reversed(atoms[:-1]):
        f = Imp(Atom(name), f)
    return f


def test_deep_equality_needs_no_recursion():
    f, g = _chain(["a"] * 5001), _chain(["a"] * 5001)
    assert f is not g and f == g and not f != g
    h = _chain(["a"] * 5000 + ["b"])
    assert f != h and h != f
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
    # two separate parses of one deep formula are equal but not identical;
    # comparing them by the recursive dataclass equality would overflow
    text = "->".join(["a"] * 401)
    for phi in (parse_formula(text), parse_formula(text)):
        assert len(subformulas(phi)) == 401


def test_sort_key_total_order():
    phis = [parse_formula(s) for s in ["b", "a", "a->b", "a->a", "(a->b)->a"]]
    ordered = sorted(phis, key=formula_sort_key)
    assert sorted(ordered, key=formula_sort_key) == ordered
    assert len({formula_sort_key(p) for p in phis}) == len(phis)


def test_imp_hash_is_the_field_tuple_hash():
    x, y = parse_formula("a->b"), Atom("c")
    assert hash(Imp(x, y)) == hash((x, y))


def test_imp_equality_and_repr_ignore_the_hash_cache():
    f, g = Imp(Atom("a"), Atom("b")), parse_formula("a->b")
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != Imp(Atom("b"), Atom("a"))
    assert repr(f) == "Imp(Atom(a), Atom(b))"
    assert [fl.name for fl in dataclasses.fields(Imp)] == ["antecedent", "consequent"]
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f and hash(copy) == hash(f)


def test_deep_formula_hashes():
    f = Atom("a")
    for _ in range(5000):
        f = Imp(Atom("a"), f)
    assert hash(f) == hash((Atom("a"), f.consequent))
    assert f in {f}
