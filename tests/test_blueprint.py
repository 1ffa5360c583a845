import re

import pytest

from ticket.blueprint import (
    MAX_SELECTOR_CLASSES,
    AppTag,
    Blueprint,
    InvalidBlueprint,
    Leaf,
    NotExtractable,
    ResourceLimit,
    Signature,
    admits_sequence,
    app,
    blueprint_of,
    canonicalize,
    compress_to_max,
    empty,
    enumerate_selector,
    equivalent,
    extract_at,
    extractable_leaves,
    extraction_sequences_closure,
    f_of,
    graft,
    leaf,
    print_blueprint,
    relative_depth,
    right_shuffle_closure,
    shuffle_closure,
    single_grafts,
    star,
    subtree_at,
    up_closure,
    width,
)
from ticket.formula import Atom, Imp
from ticket.terms import App, Lam, Var, VarRef

a = Atom("a")
b = Atom("b")
c = Atom("c")
w = Atom("w")

p = Atom("p")
q = Atom("q")
s = Atom("s")
qs = Imp(q, s)  # second-extracted leaf
pq = Imp(p, q)


def chain_example():
    # tagged tree: @_s(q->s, @_q(p->q, p))
    return app(s, leaf(qs), app(q, leaf(pq), leaf(p)))


def test_extraction_order_forced_at_start():
    bp = chain_example()
    assert extractable_leaves(bp) == [((2, 2), p)]
    with pytest.raises(NotExtractable):
        extract_at(bp, (1,), qs)


def test_both_full_chains():
    bp = chain_example()
    b1 = extract_at(bp, (2, 2), p)
    # both remaining leaves become extractable in either order
    assert {addr for addr, _ in extractable_leaves(b1)} == {(1,), (2, 1)}
    chain_a = extract_at(extract_at(b1, (2, 1), pq), (1,), qs)
    chain_b = extract_at(extract_at(b1, (1,), qs), (2, 1), pq)
    assert chain_a.domain == ()
    assert chain_b.domain == ()


def test_closure_exact_two_sequences():
    bp = chain_example()
    assert extraction_sequences_closure(bp) == frozenset({(qs, pq, p), (pq, qs, p)})
    assert f_of(bp) == extraction_sequences_closure(bp)


def test_shuffle_closures():
    fa = frozenset({(a,)})
    fb = frozenset({(b,)})
    assert shuffle_closure([fa, fb]) == frozenset({(a, b), (b, a)})
    # the right operand keeps the final position in a right shuffle
    assert right_shuffle_closure(fa, fb) == frozenset({(a, b)})
    assert right_shuffle_closure(frozenset({(qs,)}), frozenset({(pq, p)})) == frozenset(
        {(qs, pq, p), (pq, qs, p)}
    )


def test_canonicalize_star_order_insensitive():
    s1 = star([leaf(a), leaf(b)], [(5,), (3,)])
    s2 = star([leaf(b), leaf(a)])
    assert equivalent(s1, s2)
    assert canonicalize(s1) == canonicalize(s2)


def test_canonicalize_flattens_nested_star():
    n1 = star([star([leaf(a), leaf(b)]), leaf(c)])
    n2 = star([leaf(a), leaf(b), leaf(c)])
    assert canonicalize(n1) == canonicalize(n2)


def test_canonicalize_keeps_child_order():
    assert canonicalize(app(c, leaf(a), leaf(b))) != canonicalize(app(c, leaf(b), leaf(a)))


def test_up_closure_and_admits():
    g = app(c, leaf(a), app(c, leaf(a), leaf(b)))
    uc = up_closure(g)
    assert len(uc) == 2
    assert admits_sequence(g, (a, b))


def test_graft_between_equal_tags():
    g = app(c, leaf(a), app(c, leaf(a), leaf(b)))
    grafts = single_grafts(g)
    assert len(grafts) == 1
    aa, cc, nxt = grafts[0]
    assert (aa, cc) == ((), (2,))
    assert nxt == app(c, leaf(a), leaf(b))
    assert graft(g, aa, subtree_at(g, cc)) == nxt


def test_width_goldens():
    assert width(empty()) == 0
    assert width(star([leaf(a)] * 3 + [leaf(b)] * 2 + [leaf(c)])) == 3
    nested = star(
        [
            leaf(w),
            app(w, star([leaf(a), leaf(b)]), leaf(a)),
            app(w, star([leaf(b), leaf(a)]), leaf(a)),
        ]
    )
    assert width(nested) == 2


def test_compress_chain_goldens():
    base = star([leaf(a)] * 3 + [leaf(b)] * 2 + [leaf(c)])
    assert compress_to_max(base, 0) == empty()
    assert canonicalize(compress_to_max(base, 1)) == canonicalize(
        star([leaf(a), leaf(b), leaf(c)])
    )
    assert canonicalize(compress_to_max(base, 2)) == canonicalize(
        star([leaf(a)] * 2 + [leaf(b)] * 2 + [leaf(c)])
    )
    assert compress_to_max(base, 3) == canonicalize(base)


def test_relative_depth():
    assert relative_depth(empty()) == 0
    assert relative_depth(leaf(a)) == 0
    assert relative_depth(chain_example()) == 2
    assert relative_depth(star([leaf(a), leaf(b)])) == 0


def test_blueprint_of_application():
    x = VarRef(1, Imp(a, b))
    y = VarRef(2, a)
    m = App(Var(x), Var(y))
    bp = blueprint_of(m)
    assert bp == app(b, leaf(Imp(a, b)), leaf(a))


def test_blueprint_of_skips_binders():
    x = VarRef(1, Imp(p, q))
    y = VarRef(2, p)
    m = Lam(y, App(Var(x), Var(y)))
    # the abstraction node is transparent; only stable subterms contribute
    bp = blueprint_of(m)
    assert (1,) not in dict(bp.entries) or bp.domain != ()


def test_blueprint_of_closed_identity_empty():
    idm = Lam(VarRef(1, a), Var(VarRef(1, a)))
    assert blueprint_of(idm) == empty()


def test_selector_counts():
    sig = Signature(frozenset({a}), frozenset())
    assert len(enumerate_selector(sig, 0, 0)) == 1
    assert len(enumerate_selector(sig, 0, 1)) == 2
    sel = list(enumerate_selector(sig, 0, 1))
    for i, x in enumerate(sel):
        for y in sel[i + 1 :]:
            assert not equivalent(x, y)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Blueprint((((2,), Leaf(a)), ((1,), Leaf(b)))), "entries must be address-sorted"),
        (lambda: Blueprint((((1,), Leaf(a)), ((1,), Leaf(b)))), "duplicate address"),
        (
            lambda: Blueprint((((), AppTag(c)), ((2,), Leaf(a)))),
            "application tag at () with empty left region",
        ),
        (
            lambda: Blueprint((((), AppTag(c)), ((1,), Leaf(a)))),
            "application tag at () with empty right region",
        ),
        # a child at (3,) is in neither region
        (
            lambda: Blueprint((((), AppTag(c)), ((1,), Leaf(a)), ((3,), Leaf(b)))),
            "application tag at () with empty right region",
        ),
        # the sibling at (2,) is not in the right region of the tag at (1,)
        (
            lambda: Blueprint((((1,), AppTag(c)), ((1, 1), Leaf(a)), ((2,), Leaf(b)))),
            "application tag at (1,) with empty right region",
        ),
        (lambda: Blueprint((((), Leaf(a)), ((1, 2), Leaf(b)))), "leaf at () is not maximal"),
        (
            lambda: star([leaf(a), leaf(b)], [(1,), (1, 1)]),
            "component addresses must be pairwise incomparable",
        ),
        (lambda: app(c, empty(), leaf(a)), "application children must be nonempty"),
    ],
)
def test_invalid_blueprints_are_rejected(build, message):
    with pytest.raises(InvalidBlueprint, match=re.escape(message)):
        build()


def test_regions_need_not_be_prefix_closed():
    # the left region starts below (1,), and the right one deep below (2,)
    bp = Blueprint(
        (
            ((), AppTag(c)),
            ((1, 1), Leaf(a)),
            ((1, 2), Leaf(b)),
            ((2, 1, 3), Leaf(a)),
            ((5,), Leaf(b)),
        )
    )
    assert len(bp) == 5


def test_selector_limit_trips_before_enumerating():
    # 2 leaves and 2 tags give 20 rooted classes at depth 1, so 2**20
    # multisets at width 1
    sig = Signature(frozenset({a, b}), frozenset({c, w}))
    assert 2**20 > MAX_SELECTOR_CLASSES
    with pytest.raises(ResourceLimit, match="1048576 multisets"):
        enumerate_selector(sig, 1, 1)
