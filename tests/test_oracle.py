import time

import pytest

from ticket import oracle
from ticket.formula import Imp, parse_formula, print_formula
from ticket.oracle import _levels, bounded_decide, enumerate_inhabitants, state_term
from ticket.terms import alpha_canonical, free_vars, is_nf_inhabitant, node_count, print_term, type_of

from conftest import A, B, C, formula_corpus


def test_identity_smallest():
    phi = parse_formula("a->a")
    hits = enumerate_inhabitants(phi, 6)
    assert hits
    assert print_term(hits[0]) == "\\x1:a. x1"


def test_witnesses_are_inhabitants():
    phi = parse_formula("(a->(a->b))->(a->b)")
    for m in enumerate_inhabitants(phi, 8):
        assert is_nf_inhabitant(m, phi)


def test_ordered_by_size():
    phi = parse_formula("(a->a)->(a->a)")
    hits = enumerate_inhabitants(phi, 8)
    sizes = [node_count(m) for m in hits]
    assert sizes == sorted(sizes)
    assert len(hits) > 1


def test_bounded_decide_positive():
    res = bounded_decide(parse_formula("(x->y)->((p->x)->(p->y))"))
    assert res is not None
    assert print_term(res) == "\\x1:x->y. \\x2:p->x. \\x3:p. x1 (x2 x3)"


@pytest.mark.parametrize("text", ["a->(b->a)", "a->(a->a)", "((a->b)->a)->a", "a"])
def test_bounded_decide_unknown_on_empty(text):
    assert bounded_decide(parse_formula(text), 8) is None


def test_bound_validation():
    with pytest.raises(ValueError):
        bounded_decide(parse_formula("a->a"), 0)


def test_bounded_decide_stops_at_first_inhabited_size():
    phi = parse_formula("((b->a)->b->a)->(b->a)->b->a")
    bound = 10
    stats = {}
    res = bounded_decide(phi, bound, stats=stats)
    hits = enumerate_inhabitants(phi, bound)
    assert res is not None
    assert res == hits[0]
    assert node_count(res) == 2
    # the states of sizes 1 and 2 are built, not those of larger sizes
    counts = [len(states) for _, states in _levels(phi, bound)]
    assert stats["terms"] == counts[0] + counts[1] < sum(counts)


def test_bounded_decide_builds_terms_only_for_its_last_level_hits(monkeypatch):
    # the levels hold states; a term is built only for a closed state of
    # type phi of the level the search stops at
    calls = []
    depth = [0]

    def counting(state, built=None):
        if not depth[0]:
            calls.append(state)
        depth[0] += 1
        try:
            return term(state, built)
        finally:
            depth[0] -= 1

    term = oracle.state_term
    monkeypatch.setattr(oracle, "state_term", counting)
    # (formula, the size the search stops at, its number of hits); a->b->a
    # has no witness, so the search runs to the bound
    cases = [("(a->a->b)->a->b", 7, 1), ("(x->y)->((p->x)->(p->y))", 8, 1), ("a->b->a", 10, 0)]
    for text, size, n in cases:
        phi = parse_formula(text)
        calls.clear()
        res = bounded_decide(phi)
        last = dict(_levels(phi, oracle.MAX_ORACLE_NODES))[size]
        assert calls == [st for st in last if not st[1] and st[0] == phi]
        assert len(calls) == n
        assert res == (enumerate_inhabitants(phi)[0] if n else None)


def test_levels_build_each_term_once_and_canonical():
    # the search neither re-canonicalises nor dedups: every state is built
    # canonical, with its type and free types read off its construction
    for phi in formula_corpus():
        seen = set()
        for _, states in _levels(phi, 9):
            for st in states:
                m = state_term(st)
                assert alpha_canonical(m) == m
                assert type_of(m) == st[0]
                assert tuple(v.var_type for v in free_vars(m)) == st[1]
                assert m not in seen
                seen.add(m)


# Formulas on which the binder rule prunes variables at negative types that
# no abstraction binds, with the sizes they are checked to: c->c in the
# first (the oracle then builds 3 states up to 20 nodes, where it built
# 199 782), x and y in the second.
PRUNED_BY_BINDER_RULE = [("((c->c)->c->c)->c->c", 9), ("(x->y)->((p->x)->(p->y))", 9)]


def test_pruning_loses_no_closed_term():
    # at bound 2n no term of at most n nodes is pruned for its size: it has
    # at most n free variables, so the unpruned reference is sizes 1..n at
    # bound 2n, without polarity pruning
    cases = [(phi, 7) for phi in formula_corpus(4, (A, B, C))]
    cases += [(parse_formula(text), n) for text, n in PRUNED_BY_BINDER_RULE]
    for phi, n in cases:
        reference = []
        for size, states in _levels(phi, 2 * n, polarity=False):
            closed = [state_term(st) for st in states if not st[1] and st[0] == phi]
            reference.extend(sorted(closed, key=print_term))
            if size == n:
                break
        assert enumerate_inhabitants(phi, n) == reference, print_formula(phi)


def _signs(phi, sign=True, out=None):
    """(positive, negative) subformulas of phi, by recursion."""
    out = (set(), set()) if out is None else out
    out[0 if sign else 1].add(phi)
    if isinstance(phi, Imp):
        _signs(phi.antecedent, not sign, out)
        _signs(phi.consequent, sign, out)
    return out


def test_level_one_holds_the_variables_an_abstraction_can_bind():
    # a variable of a closed normal term is bound by an abstraction, whose
    # type is a positive arrow of phi; the variable is kept if its type is
    # positive or an arrow, as every term is. Without polarity every
    # subformula gets a variable
    pruned = 0
    for phi in formula_corpus(4, (A, B, C)) + [parse_formula(t) for t, _ in PRUNED_BY_BINDER_RULE]:
        positive, negative = _signs(phi)
        kept = positive | {f for f in negative if isinstance(f, Imp)}
        binders = {f.antecedent for f in positive if isinstance(f, Imp)}
        level = next(_levels(phi, 1))[1]
        assert len(level) == len({st[0] for st in level})
        assert all(st == (st[0], (st[0],)) for st in level)
        assert {st[0] for st in level} == binders & kept
        pruned += bool(negative & kept - binders)
        unpruned = next(_levels(phi, 1, polarity=False))[1]
        assert {st[0] for st in unpruned} == positive | negative
    # the rule prunes a variable on 2 189 of these 3 875 formulas
    assert pruned == 2189


def test_applications_look_up_arguments_by_type(monkeypatch):
    # each level is grouped by type: a function meets only the arguments of
    # its antecedent type, so types are not compared pair by pair. `_levels`
    # reads the clock once per function-argument pair and once per
    # abstraction: 3352 reads on this formula, against 118 182 formula
    # comparisons when every pair was compared
    phi = parse_formula("->".join(["a"] * 41))
    calls = []

    class CountingTime:
        @staticmethod
        def monotonic() -> float:
            calls.append(None)
            return time.monotonic()

    monkeypatch.setattr(oracle, "time", CountingTime)
    assert bounded_decide(phi) is None
    assert len(calls) < 20_000


# The formulas of formula_corpus() with closed inhabitants of at most
# MAX_ORACLE_NODES nodes, and how many each has; the other 540 have none.
CORPUS_INHABITANTS = {
    "a->a": 1,
    "b->b": 1,
    "(a->a)->a->a": 4,
    "(a->b)->a->b": 2,
    "(b->a)->b->a": 2,
    "(b->b)->b->b": 4,
    "(a->a->a)->a->a": 1,
    "(a->a->b)->a->b": 1,
    "(b->b->a)->b->a": 1,
    "(b->b->b)->b->b": 1,
}


def test_inhabitant_counts_are_pinned():
    counts = {print_formula(phi): len(enumerate_inhabitants(phi)) for phi in formula_corpus()}
    assert len(counts) == 550
    assert {text: n for text, n in counts.items() if n} == CORPUS_INHABITANTS


def test_polarity_pruning_builds_fewer_terms():
    # the pruned levels are a strict part of the full ones; that they keep
    # every closed term is test_pruning_loses_no_closed_term
    phi = parse_formula("((b->a)->b->a)->(b->a)->b->a")
    pruned = [state_term(st) for _, states in _levels(phi, 7) for st in states]
    every = [state_term(st) for _, states in _levels(phi, 7, polarity=False) for st in states]
    assert set(pruned) < set(every)
    assert (len(pruned), len(every)) == (len(set(pruned)), len(set(every)))
