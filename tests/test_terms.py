import collections

import pytest

from ticket.compact import hrm_normalize, is_normal, replace_at, subterm_at
from ticket.formula import Atom, Imp
from ticket.oracle import enumerate_inhabitants
from ticket.terms import (
    App,
    InvalidTerm,
    Lam,
    NotHRM,
    TermError,
    TypeMismatch,
    Var,
    VarRef,
    addresses,
    alpha_canonical,
    bound_refs,
    free_vars,
    is_nf_inhabitant,
    node_count,
    print_term,
    rename_bound_above,
    type_of,
    _typed,
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


# The typing checks as they were written before the one-walk `_typed`: a
# free map per node, and the conventions, closedness and normality walked
# apart. References for the differential test below.
def _ref_merge_free(left, right):
    merged = dict(left)
    for rank, ft in right.items():
        if merged.setdefault(rank, ft) != ft:
            raise InvalidTerm(f"rank {rank} used at two different types")
    return merged


def _ref_free_map(m):
    if isinstance(m, Var):
        return {m.ref.rank: m.ref.var_type}
    if isinstance(m, Lam):
        inner = _ref_free_map(m.body)
        if m.binder.rank in inner and inner[m.binder.rank] != m.binder.var_type:
            raise InvalidTerm(f"binder rank {m.binder.rank} occurs at a different type")
        inner = dict(inner)
        inner.pop(m.binder.rank, None)
        return inner
    return _ref_merge_free(_ref_free_map(m.fn), _ref_free_map(m.arg))


def _ref_type_of(m):
    if isinstance(m, Var):
        return m.ref.var_type
    if isinstance(m, Lam):
        body_type = _ref_type_of(m.body)
        fm = _ref_free_map(m.body)
        if not fm or max(fm) != m.binder.rank:
            raise NotHRM("binder is not the greatest free variable of its body")
        if fm[m.binder.rank] != m.binder.var_type:
            raise TypeMismatch("binder type differs from its occurrences")
        return Imp(m.binder.var_type, body_type)
    fn_type = _ref_type_of(m.fn)
    arg_type = _ref_type_of(m.arg)
    if not isinstance(fn_type, Imp):
        raise TypeMismatch("left subterm of application is not of arrow type")
    if fn_type.antecedent != arg_type:
        raise TypeMismatch("argument type does not match the antecedent")
    left, right = _ref_free_map(m.fn), _ref_free_map(m.arg)
    _ref_merge_free(left, right)
    if left and (not right or max(left) > max(right)):
        raise NotHRM("application left free variables not dominated by the right")
    return fn_type.consequent


def _ref_is_normal(m):
    if isinstance(m, Var):
        return True
    if isinstance(m, Lam):
        return _ref_is_normal(m.body)
    if isinstance(m.fn, Lam):
        return False
    return _ref_is_normal(m.fn) and _ref_is_normal(m.arg)


def _ref_is_nf_inhabitant(m, phi):
    try:
        bound_ranks = [b.rank for b in bound_refs(m)]
        if len(bound_ranks) != len(set(bound_ranks)):
            raise InvalidTerm("duplicate bound rank")
        if set(_ref_free_map(m)) & set(bound_ranks):
            raise InvalidTerm("rank both free and bound")
        if _ref_free_map(m):
            return False
        return _ref_is_normal(m) and _ref_type_of(m) == phi
    except TermError:
        return False


def _outcome(f, *args):
    """What f(*args) returns, or the class of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


def _renamed(m, ranks: dict[int, int]):
    """m with every variable and binder of a rank in `ranks` moved to its
    new rank."""
    def ref(r):
        return VarRef(ranks.get(r.rank, r.rank), r.var_type)

    if isinstance(m, Var):
        return Var(ref(m.ref))
    if isinstance(m, Lam):
        return Lam(ref(m.binder), _renamed(m.body, ranks))
    return App(_renamed(m.fn, ranks), _renamed(m.arg, ranks))


def _first_var_freed(m, fresh: int):
    """m with its first variable occurrence moved to the free rank `fresh`,
    or None if m has no variable."""
    for address, t in addresses(m):
        if isinstance(t, Var):
            return replace_at(m, address, Var(VarRef(fresh, t.ref.var_type)))
    return None


def _mutants(m, phi):
    """Broken copies of a normal HRM term m of type phi."""
    binders = bound_refs(m)
    top = max(r.rank for r in binders + list(free_vars(m)))
    # a redex: the identity on phi applied to m
    x = VarRef(top + 1, phi)
    out = [App(Lam(x, Var(x)), m), _first_var_freed(m, top + 1)]
    # a repeated binder rank: the second binder takes the first one's
    if len(binders) > 1:
        out.append(_renamed(m, {binders[1].rank: binders[0].rank}))
    for address, t in addresses(m):
        # a binder at the wrong type
        if isinstance(t, Lam):
            wrong = VarRef(t.binder.rank, Imp(t.binder.var_type, t.binder.var_type))
            out.append(replace_at(m, address, Lam(wrong, t.body)))
            break
    for _, t in addresses(m):
        # an application whose left ranks are not dominated: swap the
        # greatest left rank with a greater right rank that the left lacks
        if isinstance(t, App):
            left = {r.rank for r in free_vars(t.fn)}
            right = {r.rank for r in free_vars(t.arg)}
            if left and max(left) < max(right) and max(left) not in right:
                out.append(_renamed(m, {max(left): max(right), max(right): max(left)}))
                break
    return out


def test_one_walk_agrees_with_the_reference_checks(open_terms, closed_terms):
    from conftest import formula_corpus

    # the inhabitants of formula_corpus() and the terms of the term pool,
    # open and closed, each with its mutants
    inhabitants = [(m, phi) for phi in formula_corpus() for m in enumerate_inhabitants(phi, 8)]
    kinds = collections.Counter()
    for m, phi in inhabitants + closed_terms + open_terms:
        assert is_nf_inhabitant(m, phi) == _ref_is_nf_inhabitant(m, phi) == (not free_vars(m))
        mutants = _mutants(m, phi)
        assert not any(is_nf_inhabitant(t, phi) for t in mutants)
        for t in [m, *mutants]:
            outcome = _outcome(type_of, t)
            assert outcome == _outcome(_ref_type_of, t), print_term(t)
            kinds[outcome if isinstance(outcome, type) else "typed"] += 1
            if not isinstance(outcome, type):
                assert _typed(t)[1] == _ref_free_map(t)
            for psi in (phi, outcome):
                assert is_nf_inhabitant(t, psi) == _ref_is_nf_inhabitant(t, psi)
    # every way to fail is met
    assert {NotHRM, TypeMismatch, InvalidTerm} < kinds.keys(), kinds
