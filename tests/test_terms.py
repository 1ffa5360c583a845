import pytest

from ticket.compact import hrm_normalize, replace_at, subterm_at
from ticket.formula import Atom, Imp
from ticket.terms import (
    App,
    Lam,
    NotHRM,
    Var,
    VarRef,
    addresses,
    alpha_canonical,
    bound_refs,
    free_vars,
    is_nf_inhabitant,
    is_normal,
    node_count,
    print_term,
    rename_bound_above,
    type_of,
)

a = Atom("a")
b = Atom("b")

x1a = VarRef(1, a)
identity = Lam(x1a, Var(x1a))


def w_term():
    # \h:a->(a->b). \x:a. h x x
    h = VarRef(1, Imp(a, Imp(a, b)))
    x = VarRef(2, a)
    return Lam(h, Lam(x, App(App(Var(h), Var(x)), Var(x))))


def test_identity_type():
    assert type_of(identity) == Imp(a, a)


def test_identity_print():
    assert print_term(identity) == "\\x1:a. x1"


def test_w_term_type():
    assert type_of(w_term()) == Imp(Imp(a, Imp(a, b)), Imp(a, b))


def test_free_vars_increasing():
    h = VarRef(1, Imp(a, b))
    y = VarRef(2, a)
    m = App(Var(h), Var(y))
    assert free_vars(m) == (h, y)


def test_lam_binder_must_be_greatest_free():
    h = VarRef(1, Imp(a, b))
    y = VarRef(2, a)
    body = App(Var(h), Var(y))
    assert type_of(Lam(y, body)) == Imp(a, b)
    with pytest.raises(NotHRM):
        type_of(Lam(h, body))


def test_lam_requires_occurrence():
    # vacuous abstraction violates the relevance discipline
    m = Lam(VarRef(2, b), Var(x1a))
    with pytest.raises(NotHRM):
        type_of(m)


def test_app_free_var_side_condition():
    # function side free vars must not extend past the argument side
    f = VarRef(2, Imp(a, b))
    y = VarRef(1, a)
    with pytest.raises(NotHRM):
        type_of(App(Var(f), Var(y)))
    f2 = VarRef(1, Imp(a, b))
    y2 = VarRef(2, a)
    assert type_of(App(Var(f2), Var(y2))) == b


def test_addresses_and_subterm():
    m = w_term()
    assert () in dict(addresses(m))
    inner = subterm_at(m, (1, 1))
    assert type_of(inner) == b
    assert node_count(m) == 7


def test_is_normal():
    assert is_normal(identity)
    redex = App(identity, Var(x1a))
    assert not is_normal(redex)


def test_hrm_normalize_redex():
    redex = App(identity, Var(x1a))
    n = hrm_normalize(redex)
    assert is_normal(n)
    assert type_of(n) == a
    assert free_vars(n) == free_vars(redex)


def test_is_nf_inhabitant():
    assert is_nf_inhabitant(identity, Imp(a, a))
    assert not is_nf_inhabitant(identity, Imp(a, b))
    assert not is_nf_inhabitant(Var(x1a), a)  # open


def test_alpha_canonical_idempotent():
    m = w_term()
    assert alpha_canonical(alpha_canonical(m)) == alpha_canonical(m)


def test_alpha_canonical_rank_insensitive():
    h5 = VarRef(5, Imp(a, Imp(a, b)))
    x9 = VarRef(9, a)
    m = Lam(h5, Lam(x9, App(App(Var(h5), Var(x9)), Var(x9))))
    assert alpha_canonical(m) == alpha_canonical(w_term())


def test_rename_bound_above(open_terms, closed_terms):
    m = rename_bound_above(w_term(), 10)
    ranks = {r.rank for r in bound_refs(m)}
    assert ranks == {11, 12}
    assert alpha_canonical(m) == alpha_canonical(w_term())
    # the pool terms are alpha-canonical already
    for m, _ in open_terms + closed_terms:
        # preorder is the order of the sorted addresses
        in_address_order = [t.binder for _, t in sorted(addresses(m)) if isinstance(t, Lam)]
        assert bound_refs(m) == in_address_order
        moved = rename_bound_above(m, 50)
        assert all(r.rank > 50 for r in bound_refs(moved))
        assert alpha_canonical(moved) == m


def test_replace_at():
    m = w_term()
    # swap the inner application's argument for the same variable: no-op shape
    sub = subterm_at(m, (1, 1))
    m2 = replace_at(m, (1, 1), sub)
    assert m2 == m


def test_type_of_rejects_ill_typed():
    from ticket.terms import TypingError

    bad = App(Var(x1a), Var(x1a))
    with pytest.raises(TypingError):
        type_of(bad)
