import json
import pathlib
import random

import pytest

from ticket import combinators
from ticket.combinators import (
    AXIOM_KINDS,
    MP,
    Axiom,
    BadModusPonens,
    CertificateFormatError,
    axiom_b,
    axiom_b_prime,
    axiom_i,
    axiom_kind,
    axiom_w,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
    extract_combinator,
    mp,
)
from ticket.compact import comb_to_lambda
from ticket.formula import Atom, Imp, parse_formula
from ticket import oracle
from ticket.shadow import DecideConfig, decide, refute
from ticket.terms import (
    App,
    Lam,
    PreconditionViolated,
    Var,
    VarRef,
    alpha_canonical,
    free_vars,
    is_nf_inhabitant,
    print_term,
    type_of,
)

from conftest import SEED, formula_corpus, random_derivation

a = Atom("a")
b = Atom("b")
c = Atom("c")


def test_axiom_types():
    assert check_derivation(axiom_b(a, b, c)) == parse_formula("(a->b)->((c->a)->(c->b))")
    assert check_derivation(axiom_b_prime(a, b, c)) == parse_formula("(a->b)->((b->c)->(a->c))")
    assert check_derivation(axiom_i(a)) == parse_formula("a->a")
    assert check_derivation(axiom_w(a, b)) == parse_formula("(a->(a->b))->(a->b)")


def test_mp():
    d = mp(axiom_i(Imp(a, a)), axiom_i(a))
    assert check_derivation(d) == parse_formula("a->a")
    # W : (a->(a->b))->(a->b) applied to I : wrong antecedent must fail
    with pytest.raises(BadModusPonens):
        mp(axiom_w(a, b), axiom_i(a))


def test_counterpart_shapes():
    # \f.\g.\x. f (g x)
    assert print_term(comb_to_lambda(axiom_b(a, b, c))) == (
        "\\x1:a->b. \\x2:c->a. \\x3:c. x1 (x2 x3)"
    )
    # \f.\g.\x. g (f x)
    assert print_term(comb_to_lambda(axiom_b_prime(a, b, c))) == (
        "\\x1:a->b. \\x2:b->c. \\x3:a. x2 (x1 x3)"
    )
    assert print_term(comb_to_lambda(axiom_i(a))) == "\\x1:a. x1"
    # \h.\x. h x x
    assert print_term(comb_to_lambda(axiom_w(a, b))) == (
        "\\x1:a->a->b. \\x2:a. x1 x2 x2"
    )


def test_comb_to_lambda_inhabits():
    rng = random.Random(7)
    for _ in range(25):
        d = random_derivation(rng, rng.randint(1, 6))
        phi = check_derivation(d)
        m = comb_to_lambda(d)
        assert is_nf_inhabitant(m, phi)


def test_extract_combinator_identity():
    x = VarRef(1, a)
    d = extract_combinator(Lam(x, Var(x)), Imp(a, a))
    assert check_derivation(d) == Imp(a, a)


_f = VarRef(1, Imp(a, a))
_x1, _x2 = VarRef(1, a), VarRef(2, a)


@pytest.mark.parametrize(
    "term, phi",
    [
        (Var(_x1), a),
        (Lam(_x1, Var(_x1)), Imp(b, b)),
        (App(Lam(_f, Var(_f)), Lam(_x2, Var(_x2))), Imp(a, a)),
        # \x2:a. \x1:a->a. x1 x2: x1 binds below the free x2
        (Lam(_x2, Lam(_f, App(Var(_f), Var(_x2)))), parse_formula("a->(a->a)->a")),
    ],
    ids=["open", "other-type", "redex", "binder-not-greatest"],
)
def test_extract_combinator_needs_a_normal_inhabitant(term, phi):
    with pytest.raises(PreconditionViolated, match="needs a normal inhabitant"):
        extract_combinator(term, phi)


def test_extract_combinator_roundtrip():
    rng = random.Random(11)
    for _ in range(25):
        d = random_derivation(rng, rng.randint(1, 6))
        phi = check_derivation(d)
        m = comb_to_lambda(d)
        d2 = extract_combinator(m, phi)
        assert check_derivation(d2) == phi
        m2 = comb_to_lambda(d2)
        assert is_nf_inhabitant(m2, phi)


def test_extract_combinator_checks_once(monkeypatch):
    phi = parse_formula("(a->(a->b))->(a->b)")
    m = comb_to_lambda(axiom_w(a, b))
    calls = []

    def counting(d):
        calls.append(d)
        return check_derivation(d)

    monkeypatch.setattr(combinators, "check_derivation", counting)
    d = extract_combinator(m, phi)
    assert len(calls) == 1
    assert check_derivation(d) == phi


def _sizes(d, by_conclusion):
    # tree size of d; the size of every sub-derivation is added to the set
    # kept for its conclusion
    if isinstance(d, Axiom):
        size = 1
    else:
        size = _sizes(d.left, by_conclusion) + _sizes(d.right, by_conclusion) + 1
    conclusion = d.instantiated_type if isinstance(d, Axiom) else d.result_type
    by_conclusion.setdefault(conclusion, set()).add(size)
    return size


PROVE = pathlib.Path(__file__).parent.parent / "bench" / "data" / "prove.txt"


def test_certificates_have_no_detour(closed_terms):
    # no mp step concludes an axiom instance, and the sub-derivations of one
    # certificate that share a conclusion share its size; the walk is run
    # on axiom instances too, which extraction answers without it
    cases = [(combinators._walk(m), phi) for m, phi in closed_terms]
    for phi in formula_corpus() + _prove_pool()[::4]:
        d = decide(phi).witness_combinator
        if d is not None:
            cases.append((d, phi))
    assert len(cases) > 100
    for d, phi in cases:
        assert check_derivation(d) == phi
        by_conclusion = {}
        _sizes(d, by_conclusion)
        for conclusion, sizes in by_conclusion.items():
            assert len(sizes) == 1
            if axiom_kind(conclusion) is not None:
                assert sizes == {1}


# the named axioms of the benchmark's rounds
NAMED_AXIOMS = {
    "B": "(b->c)->(a->b)->a->c",
    "B'": "(a->b)->(b->c)->a->c",
    "I": "a->a",
    "W": "(a->a->b)->a->b",
}


# the schemes, their atoms read as variables by `_matches`
SCHEMES = {
    "B": parse_formula("(c->p)->(f->c)->f->p"),
    "B'": parse_formula("(f->c)->(c->p)->f->p"),
    "I": parse_formula("f->f"),
    "W": parse_formula("(f->f->c)->f->c"),
}


def _matches(scheme, t, binding):
    # one-way matching of t against the scheme
    if isinstance(scheme, Atom):
        return binding.setdefault(scheme, t) is t
    return (
        isinstance(t, Imp)
        and _matches(scheme.antecedent, t.antecedent, binding)
        and _matches(scheme.consequent, t.consequent, binding)
    )


def _prove_pool():
    return [parse_formula(line.split("\t")[0]) for line in PROVE.read_text().splitlines()]


def test_axiom_kind_is_the_first_kind_that_fits():
    # against matching by substitution, on every formula of at most 5
    # arrows over a, b (where B and B' first occur) and on the prove pool
    both = parse_formula("(a->a)->(a->a)->a->a")
    assert axiom_kind(both) == "B"
    assert combinators._axiom_instance_ok("B'", both)
    for kind, text in NAMED_AXIOMS.items():
        assert axiom_kind(parse_formula(text)) == kind
    for phi in formula_corpus(5, (a, b)) + _prove_pool():
        fits = [k for k in AXIOM_KINDS if _matches(SCHEMES[k], phi, {})]
        assert axiom_kind(phi) == (fits[0] if fits else None)
        for k in AXIOM_KINDS:
            assert combinators._axiom_instance_ok(k, phi) == (k in fits)


def test_axiom_instances_lose_nothing_by_the_short_paths():
    # an axiom instance skips the countermodel sweep and the extraction
    # walk: no matrix refutes it, the oracle finds its witness, and the
    # walk would have given the same leaf
    instances = [phi for phi in formula_corpus(4, (a, b, c)) + _prove_pool() if axiom_kind(phi)]
    assert len(instances) > 250
    for phi in instances:
        assert refute(phi) is None
        m = oracle.bounded_decide(phi, oracle.MAX_ORACLE_NODES)
        assert m is not None
        d = extract_combinator(m, phi)
        assert d == Axiom(axiom_kind(phi), phi) == combinators._walk(m)


@pytest.mark.parametrize("kind", NAMED_AXIOMS)
def test_named_axioms_never_reach_the_sweep(monkeypatch, kind):
    def sweep(phi, deadline):
        raise AssertionError("the countermodel sweep ran")

    monkeypatch.setattr("ticket.shadow.refute", sweep)
    phi = parse_formula(NAMED_AXIOMS[kind])
    d = decide(phi, DecideConfig())
    assert d.verdict == "Inhabited"
    assert d.stats["engine"] == "bounded"
    assert d.witness_combinator == Axiom(kind, phi)


def test_mp_keeps_every_step():
    # mp builds what it is given, though a->a is an axiom instance: the
    # checker's tests rely on it for deep derivations
    d = mp(mp(axiom_b(a, a, a), axiom_i(a)), axiom_i(a))
    assert isinstance(d, MP) and isinstance(d.left, MP)
    assert _sizes(d, {}) == 5
    assert check_derivation(d) == Imp(a, a)


def test_json_roundtrip():
    d = mp(axiom_b(a, a, c), axiom_i(a))
    data = derivation_to_json(d)
    d2 = derivation_from_json(data)
    assert check_derivation(d2) == check_derivation(d)
    assert derivation_to_json(d2) == data


def _naive_print(f):
    if isinstance(f, Atom):
        return f.name
    left = _naive_print(f.antecedent)
    if isinstance(f.antecedent, Imp):
        left = f"({left})"
    return f"{left}->{_naive_print(f.consequent)}"


def _naive_json(d):
    # every node's type printed from scratch
    if isinstance(d, Axiom):
        return {"kind": d.kind, "type": _naive_print(d.instantiated_type)}
    return {
        "kind": "mp",
        "type": _naive_print(d.result_type),
        "children": [_naive_json(d.left), _naive_json(d.right)],
    }


def test_json_matches_naive_printing(closed_terms):
    rng = random.Random(SEED)
    derivations = [random_derivation(rng, rng.randint(1, 7)) for _ in range(60)]
    derivations += [extract_combinator(m, phi) for m, phi in closed_terms]
    for d in derivations:
        assert json.dumps(derivation_to_json(d)) == json.dumps(_naive_json(d))


def test_json_parses_each_type_once(monkeypatch):
    data = derivation_to_json(mp(mp(axiom_b(a, a, a), axiom_i(a)), axiom_i(a)))
    texts = []

    def walk(node):
        texts.append(node["type"])
        for child in node.get("children", []):
            walk(child)

    walk(data)
    calls = []

    def counting(text):
        calls.append(text)
        return parse_formula(text)

    monkeypatch.setattr(combinators, "parse_formula", counting)
    assert derivation_to_json(derivation_from_json(data)) == data
    assert len(texts) > len(set(texts))
    assert sorted(calls) == sorted(set(texts))


@pytest.mark.parametrize(
    "bad",
    [
        42,
        {"kind": "I"},
        {"kind": "Z", "type": "a->a"},
        {"kind": "I", "type": "a->"},
        {"kind": "mp", "type": "a", "children": []},
        {"kind": "I", "type": 42},
        {"kind": "I", "type": None},
    ],
)
def test_json_malformed(bad):
    with pytest.raises(CertificateFormatError) as info:
        derivation_from_json(bad)
    if isinstance(bad, dict) and not isinstance(bad.get("type", ""), str):
        assert str(info.value) == f"'type' must be a string, not {type(bad['type']).__name__}"
