import dataclasses
import pickle

import pytest

from ticket.formula import (
    Atom,
    FormulaSyntaxError,
    Imp,
    formula_sort_key,
    parse_formula,
    print_formula,
    subformulas,
)


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


def test_deep_nesting_is_a_syntax_error():
    with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
        parse_formula("(" * 1500 + "a->a" + ")" * 1500)


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
