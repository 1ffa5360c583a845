import pytest

from ticket.blueprint import app, blueprint_of, leaf, up_closure
from ticket.compact import (
    ChainStep,
    ExtractionChain,
    NotACompression,
    abstract_extract_chain,
    chain_for_sequence,
    compact_witness,
    compress_term,
    is_compact,
    is_locally_compact,
    lambda_prefix,
    replay_chain,
    shrink,
    shrink_fixpoint,
    switch_var,
)
from ticket.formula import Atom, Imp, parse_formula
from ticket.terms import (
    App,
    Lam,
    TypeMismatch,
    Var,
    VarRef,
    alpha_canonical,
    free_vars,
    is_nf_inhabitant,
    node_count,
    print_term,
    type_of,
)

a = Atom("a")
b = Atom("b")
c = Atom("c")

p = Atom("p")
q = Atom("q")
s = Atom("s")
qs = Imp(q, s)
pq = Imp(p, q)


def chain_blueprint():
    return app(s, leaf(qs), app(q, leaf(pq), leaf(p)))


def test_chain_for_sequence_valid():
    bp = chain_blueprint()
    for chi in [(qs, pq, p), (pq, qs, p)]:
        chain = chain_for_sequence(bp, chi)
        assert chain is not None
        assert chain.sequence() == chi
        replay_chain(bp, chain)  # raises on invalid


def test_chain_for_sequence_invalid_order():
    bp = chain_blueprint()
    assert chain_for_sequence(bp, (p, pq, qs)) is None
    assert chain_for_sequence(bp, (qs, pq)) is None


def test_abstract_extract_chain_identity_switch():
    h = VarRef(1, Imp(a, b))
    y = VarRef(2, a)
    m = App(Var(h), Var(y))
    chain = abstract_extract_chain(m)
    out = switch_var(m, chain, free_vars(m))
    assert alpha_canonical(out) == alpha_canonical(m)
    assert blueprint_of(out) == blueprint_of(m)
    assert type_of(out) == type_of(m)


def test_switch_var_collapses_two_vars():
    # h x y with x, y the same type collapsed onto one target variable
    h = VarRef(1, Imp(a, Imp(a, c)))
    x = VarRef(2, a)
    y = VarRef(3, a)
    m = App(App(Var(h), Var(x)), Var(y))
    chain = ExtractionChain(
        (
            ChainStep(a, ((2,), (1, 2))),
            ChainStep(Imp(a, Imp(a, c)), ((1, 1),)),
        )
    )
    t1 = VarRef(1, Imp(a, Imp(a, c)))
    t2 = VarRef(2, a)
    out = switch_var(m, chain, (t1, t2))
    assert print_term(out) == "x1 x2 x2"
    assert type_of(out) == c
    assert free_vars(out) == (t1, t2)


def test_switch_var_type_mismatch():
    h = VarRef(1, Imp(a, b))
    y = VarRef(2, a)
    m = App(Var(h), Var(y))
    chain = abstract_extract_chain(m)
    bad = (VarRef(1, Imp(a, b)), VarRef(2, b))  # wrong type for second target
    with pytest.raises(TypeMismatch):
        switch_var(m, chain, bad)


def test_compress_term_collapses_repeated_tag():
    f = VarRef(1, Imp(a, c))
    g = VarRef(2, Imp(a, a))
    y = VarRef(3, a)
    m = App(Var(f), App(Var(g), App(Var(g), Var(y))))
    alpha = app(c, leaf(Imp(a, c)), app(a, leaf(Imp(a, a)), leaf(a)))
    assert alpha in up_closure(blueprint_of(m))
    out = compress_term(m, alpha)
    assert print_term(out) == "x1 (x2 x3)"
    assert type_of(out) == c
    assert blueprint_of(out) == alpha
    assert node_count(out) < node_count(m)


def test_compress_term_grafts_through_an_abstraction():
    # the graft (1, 1) onto (1, 1, 2) walks through the binder of x3, so the
    # body is compressed and its free variables are re-chained under it
    cd = Imp(c, Atom("d"))
    x1, x2, x3 = VarRef(1, Imp(cd, cd)), VarRef(2, cd), VarRef(3, c)
    m = Lam(x3, App(App(Var(x1), App(Var(x1), Var(x2))), Var(x3)))
    target = Lam(x3, App(App(Var(x1), Var(x2)), Var(x3)))
    alpha = blueprint_of(target)
    assert alpha in up_closure(blueprint_of(m))
    out = compress_term(m, alpha)
    assert print_term(out) == "\\x3:c. x1 x2 x3"
    assert out == target
    assert blueprint_of(out) == alpha
    assert type_of(out) == type_of(m) == cd


def test_compress_term_reflexive():
    f = VarRef(1, Imp(a, c))
    y = VarRef(2, a)
    m = App(Var(f), Var(y))
    assert compress_term(m, blueprint_of(m)) == m


def test_compress_term_unreachable():
    f = VarRef(1, Imp(a, c))
    y = VarRef(2, a)
    m = App(Var(f), Var(y))
    foreign = leaf(b)
    with pytest.raises(NotACompression):
        compress_term(m, foreign)


def church_two():
    f = VarRef(1, Imp(a, a))
    x = VarRef(2, a)
    return Lam(f, Lam(x, App(Var(f), App(Var(f), Var(x)))))


def test_church_two_not_compact():
    m = church_two()
    wit = compact_witness(m)
    assert wit is not None
    assert not is_compact(m)


def test_identity_compact():
    idm = Lam(VarRef(1, a), Var(VarRef(1, a)))
    assert is_compact(idm)
    assert compact_witness(idm) is None


def test_shrink_church_two():
    phi = parse_formula("(a->a)->(a->a)")
    m = church_two()
    out = shrink(m, phi)
    assert out is not None
    assert node_count(out) < node_count(m)
    assert is_nf_inhabitant(out, phi)
    fix = shrink_fixpoint(m, phi)
    assert is_compact(fix)
    assert is_nf_inhabitant(fix, phi)
    f = VarRef(1, Imp(a, a))
    x = VarRef(2, a)
    assert alpha_canonical(fix) == alpha_canonical(Lam(f, Lam(x, App(Var(f), Var(x)))))


def test_lambda_prefix():
    m = church_two()
    assert lambda_prefix(m, ()) == ()
    assert len(lambda_prefix(m, (1, 1))) == 2
    assert len(lambda_prefix(m, (1,))) == 1


def test_is_locally_compact():
    phi = parse_formula("(a->a)->(a->a)")
    assert is_locally_compact(church_two(), phi)
    idm = Lam(VarRef(1, a), Var(VarRef(1, a)))
    assert is_locally_compact(idm, parse_formula("a->a"))
