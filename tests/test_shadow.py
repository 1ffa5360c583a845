import pytest

from ticket.combinators import check_derivation
from ticket.formula import parse_formula
from ticket.oracle import SearchBound, enumerate_inhabitants
from ticket.shadow import (
    Caps,
    DecideConfig,
    decide,
    enumerate_compact_shadows,
    inhabitant_with_domain,
    is_compact_shadow,
    is_phi_shadow,
    root_shadow,
    shadow_of,
)
from ticket.terms import Lam, Var, VarRef, is_nf_inhabitant, print_term
from ticket.formula import Atom, subformulas

from conftest import formula_corpus

a = Atom("a")


def test_root_shadow_is_phi_shadow():
    phi = parse_formula("a->a")
    assert is_phi_shadow(root_shadow(phi), phi)


def test_shadow_of_identity():
    phi = parse_formula("a->a")
    idm = Lam(VarRef(1, a), Var(VarRef(1, a)))
    x = shadow_of(idm, phi)
    assert is_phi_shadow(x, phi)
    assert is_compact_shadow(x)
    assert x.get(()).psi == phi


def test_shadow_of_w_witness():
    phi = parse_formula("(a->(a->b))->(a->b)")
    m = enumerate_inhabitants(phi, SearchBound(max_nodes=8))[0]
    x = shadow_of(m, phi)
    assert is_phi_shadow(x, phi)
    assert is_compact_shadow(x)
    assert len(x.domain) == 7


def test_shadow_of_wrong_phi_rejected():
    phi = parse_formula("a->a")
    other = parse_formula("b->b")
    idm = Lam(VarRef(1, a), Var(VarRef(1, a)))
    x = shadow_of(idm, phi)
    assert not is_phi_shadow(x, other)


@pytest.mark.parametrize(
    "text,verdict",
    [
        ("a->a", "Inhabited"),
        ("a", "Empty"),
        ("a->(b->a)", "Empty"),
        ("a->(a->a)", "Empty"),
        ("((a->b)->a)->a", "Empty"),
        ("(x->y)->((p->x)->(p->y))", "Inhabited"),
        ("(p->x)->((x->y)->(p->y))", "Inhabited"),
        ("(p->(p->x))->(p->x)", "Inhabited"),
    ],
)
def test_shadow_engine_verdicts(text, verdict):
    phi = parse_formula(text)
    d = decide(phi, DecideConfig(engine="shadow"))
    assert d.verdict == verdict
    if verdict == "Empty":
        assert d.stats["closure_complete"] and d.stats["closure_exact"]
    else:
        assert check_derivation(d.witness_combinator) == phi
        assert is_nf_inhabitant(d.witness_lambda, phi)


def test_auto_engine_falls_back_to_shadow():
    phi = parse_formula("a->(b->a)")
    d = decide(phi, DecideConfig(engine="auto"))
    assert d.verdict == "Empty"


def test_bounded_engine_never_claims_empty():
    phi = parse_formula("a->(b->a)")
    d = decide(phi, DecideConfig(engine="bounded", max_nodes=8))
    assert d.verdict == "ResourceExhausted"


def test_decide_witness_is_smallest_identity():
    d = decide(parse_formula("a->a"))
    assert print_term(d.witness_lambda) == "\\x1:a. x1"


def test_decide_stats_have_wall_time():
    d = decide(parse_formula("a->a"))
    assert "wall_time" in d.stats


def test_enumerate_contains_witness_domain():
    phi = parse_formula("(a->(a->b))->(a->b)")
    m = enumerate_inhabitants(phi, SearchBound(max_nodes=8))[0]
    x = shadow_of(m, phi)
    enum = enumerate_compact_shadows(phi)
    assert enum.complete
    domains = {s.domain for s in enum.shadows}
    assert x.domain in domains


def test_inhabitant_with_domain():
    phi = parse_formula("(a->(a->b))->(a->b)")
    m = enumerate_inhabitants(phi, SearchBound(max_nodes=8))[0]
    x = shadow_of(m, phi)
    found = inhabitant_with_domain(phi, x)
    assert found is not None
    assert is_nf_inhabitant(found, phi)


def test_enumerated_shadows_are_compact_and_inhabited():
    count = 0
    for phi in formula_corpus():
        if len(subformulas(phi)) > 5:
            continue
        for x in enumerate_compact_shadows(phi).shadows:
            count += 1
            assert is_phi_shadow(x, phi)
            assert is_compact_shadow(x)
            found = inhabitant_with_domain(phi, x)
            assert found is not None
            assert is_nf_inhabitant(found, phi)
    assert count == 14


def test_config_validation():
    with pytest.raises(ValueError):
        DecideConfig(engine="warp")
    with pytest.raises(ValueError):
        DecideConfig(max_nodes=0)


def test_caps_resource_exhaustion():
    phi = parse_formula("(x->y)->((p->x)->(p->y))")
    d = decide(phi, DecideConfig(engine="shadow", caps=Caps(max_shadow_nodes=2)))
    assert d.verdict == "ResourceExhausted"
