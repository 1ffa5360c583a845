import time

import pytest

from ticket import oracle
from ticket.formula import parse_formula, print_formula
from ticket.oracle import _levels, bounded_decide, enumerate_inhabitants
from ticket.terms import alpha_canonical, free_vars, is_nf_inhabitant, node_count, print_term, type_of

from conftest import formula_corpus


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


def test_bounded_decide_stops_at_first_inhabited_size(monkeypatch):
    phi = parse_formula("((b->a)->b->a)->(b->a)->b->a")
    bound = 10
    calls = []
    real = oracle._State

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "_State", counting)
    res = bounded_decide(phi, bound)
    decided = len(calls)
    hits = enumerate_inhabitants(phi, bound)
    enumerated = len(calls) - decided
    assert res is not None
    assert res == hits[0]
    assert node_count(res) == 2
    assert decided < enumerated


def test_levels_build_each_term_once_and_canonical():
    # the search neither re-canonicalises nor dedups: every state is built
    # canonical, with its type and free types read off its construction
    for phi in formula_corpus():
        seen = set()
        for _, states in _levels(phi, 9):
            for st in states:
                assert alpha_canonical(st.term) == st.term
                assert type_of(st.term) == st.term_type
                assert tuple(v.var_type for v in free_vars(st.term)) == st.free_types
                assert st.term not in seen
                seen.add(st.term)


def test_pruning_loses_no_closed_term():
    # at bound 2n no term of at most n nodes is pruned for its size: it has
    # at most n free variables, so the unpruned reference is sizes 1..n at
    # bound 2n, without polarity pruning
    n = 7
    for phi in formula_corpus():
        reference = []
        for size, states in _levels(phi, 2 * n, polarity=False):
            closed = [st.term for st in states if not st.free_types and st.term_type == phi]
            reference.extend(sorted(closed, key=print_term))
            if size == n:
                break
        assert enumerate_inhabitants(phi, n) == reference


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
    pruned = [st.term for _, states in _levels(phi, 7) for st in states]
    every = [st.term for _, states in _levels(phi, 7, polarity=False) for st in states]
    assert set(pruned) < set(every)
    assert (len(pruned), len(every)) == (len(set(pruned)), len(set(every)))
