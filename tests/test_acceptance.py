"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained and enforces its own wall-clock budget, so the
`pytest -v` report gives one pass/fail line per criterion.
"""
import itertools
import json
import random
import time

from ticket.blueprint import (
    Signature,
    app,
    blueprint_of,
    compress_to_max,
    empty,
    enumerate_selector,
    equivalent,
    extract_at,
    extractable_leaves,
    extraction_sequences_closure,
    f_of,
    leaf,
    relative_depth,
    star,
    width,
)
from ticket.cli import main
from ticket.combinators import check_derivation
from ticket.compact import (
    enumerate_compact_shadows,
    is_compact,
    is_compact_shadow,
    is_locally_compact,
    is_phi_shadow,
    shadow_of,
    shrink_fixpoint,
)
from ticket.formula import Atom, Imp, parse_formula, subformulas
from ticket.oracle import bounded_decide, enumerate_inhabitants
from ticket.shadow import DecideConfig, decide
from ticket.terms import (
    App,
    Lam,
    Var,
    VarRef,
    alpha_canonical,
    is_nf_inhabitant,
    node_count,
    print_term,
)

import conftest
from conftest import SEED, all_blueprints, formula_corpus, random_blueprint

a = Atom("a")
b = Atom("b")
c = Atom("c")


def _axiom_counterparts():
    x, y, p = Atom("x"), Atom("y"), Atom("p")
    fB = parse_formula("(x->y)->((p->x)->(p->y))")
    f1, g1, x1 = VarRef(1, Imp(x, y)), VarRef(2, Imp(p, x)), VarRef(3, p)
    mB = Lam(f1, Lam(g1, Lam(x1, App(Var(f1), App(Var(g1), Var(x1))))))
    fBp = parse_formula("(p->x)->((x->y)->(p->y))")
    f2, g2, x2 = VarRef(1, Imp(p, x)), VarRef(2, Imp(x, y)), VarRef(3, p)
    mBp = Lam(f2, Lam(g2, Lam(x2, App(Var(g2), App(Var(f2), Var(x2))))))
    fI = parse_formula("a->a")
    mI = Lam(VarRef(1, a), Var(VarRef(1, a)))
    fW = parse_formula("(p->(p->x))->(p->x)")
    h, z = VarRef(1, Imp(p, Imp(p, x))), VarRef(2, p)
    mW = Lam(h, Lam(z, App(App(Var(h), Var(z)), Var(z))))
    return [(fB, mB), (fBp, mBp), (fI, mI), (fW, mW)]


def test_criterion_01_axiom_inhabitation():
    t0 = time.monotonic()
    for phi, expected in _axiom_counterparts():
        d = decide(phi, DecideConfig(engine="bounded"))
        assert d.verdict == "Inhabited"
        assert alpha_canonical(d.witness_lambda) == alpha_canonical(expected)
        assert check_derivation(d.witness_combinator) == phi
    assert time.monotonic() - t0 < 5


def test_criterion_02_relevance_rejections():
    for text in ["a->(b->a)", "((a->b)->a)->a", "a->(a->a)"]:
        phi = parse_formula(text)
        t0 = time.monotonic()
        d = decide(phi, DecideConfig(engine="shadow"))
        assert d.verdict == "Empty"
        assert d.stats["closure_complete"] and d.stats["closure_exact"]
        assert bounded_decide(phi, 12) is None
        assert time.monotonic() - t0 < 600


def test_criterion_03_extraction_example():
    p, q, s = Atom("p"), Atom("q"), Atom("s")
    qs, pq = Imp(q, s), Imp(p, q)
    bp = app(s, leaf(qs), app(q, leaf(pq), leaf(p)))
    assert extractable_leaves(bp) == [((2, 2), p)]
    b1 = extract_at(bp, (2, 2), p)
    # both orders of the two remaining leaves terminate at the empty blueprint
    assert extract_at(extract_at(b1, (2, 1), pq), (1,), qs).domain == ()
    assert extract_at(extract_at(b1, (1,), qs), (2, 1), pq).domain == ()
    assert f_of(bp) == frozenset({(qs, pq, p), (pq, qs, p)})


def test_criterion_04_width_and_compression_goldens():
    w = Atom("w")
    assert width(star([leaf(a)] * 3 + [leaf(b)] * 2 + [leaf(c)])) == 3
    nested = star(
        [
            leaf(w),
            app(w, star([leaf(a), leaf(b)]), leaf(a)),
            app(w, star([leaf(b), leaf(a)]), leaf(a)),
        ]
    )
    assert width(nested) == 2
    base = star([leaf(a)] * 3 + [leaf(b)] * 2 + [leaf(c)])
    assert compress_to_max(base, 0) == empty()
    assert equivalent(compress_to_max(base, 1), star([leaf(b), leaf(c), leaf(a)]))
    assert equivalent(
        compress_to_max(base, 2),
        star([leaf(c), leaf(a), leaf(a), leaf(b), leaf(b)]),
    )


def test_criterion_05_dual_computation_agreement():
    t0 = time.monotonic()
    for bp in all_blueprints(5):
        assert f_of(bp) == extraction_sequences_closure(bp)
    rng = random.Random(SEED)
    for _ in range(1000):
        bp = random_blueprint(rng, rng.randint(6, 8))
        assert f_of(bp) == extraction_sequences_closure(bp)
    assert time.monotonic() - t0 < 120


def test_criterion_06_property_suites():
    # the seven randomized suites live in test_properties.py; here we assert
    # they are present and wired to at least 500 examples each
    import test_properties

    suites = [
        test_properties.test_free_type_sequence_extractable,
        test_properties.test_blueprint_restriction,
        test_properties.test_extraction_confluence,
        test_properties.test_f_monotone_under_compression,
        test_properties.test_compression_preserves_bounded_sequences,
        test_properties.test_switch_var_identity,
        test_properties.test_compress_term_postconditions,
        test_properties.test_normalize_combinator_translation,
        test_properties.test_certificates_always_check,
    ]
    assert len(suites) >= 7
    assert test_properties.SUITE.max_examples >= 500


def test_criterion_07_minimality_chain():
    t0 = time.monotonic()
    bound = 9
    for phi in formula_corpus():
        hits = enumerate_inhabitants(phi, bound)
        if not hits:
            continue
        smallest = node_count(hits[0])
        for m in hits:
            if node_count(m) == smallest:
                assert is_compact(m), print_term(m)
                assert is_locally_compact(m, phi)
        padded = hits[-1]
        fix = shrink_fixpoint(padded, phi)
        assert is_compact(fix)
        assert is_nf_inhabitant(fix, phi)
    assert time.monotonic() - t0 < 600


def test_criterion_08_shadow_coherence():
    bound = 9
    for phi in formula_corpus():
        if len(subformulas(phi)) > 5:
            continue
        hits = enumerate_inhabitants(phi, bound)
        compact_hits = [m for m in hits if is_compact(m)]
        if not compact_hits:
            continue
        enum = enumerate_compact_shadows(phi)
        assert enum.complete
        domains = {s.domain for s in enum.shadows}
        for m in compact_hits:
            x = shadow_of(m, phi)
            assert is_phi_shadow(x, phi)
            assert is_compact_shadow(x)
            assert x.domain in domains


def test_criterion_09_selector_sanity():
    sig0 = Signature(frozenset({a}), frozenset())
    sel0 = list(enumerate_selector(sig0, 0, 0))
    assert len(sel0) == 1 and sel0[0] == empty()
    sel1 = list(enumerate_selector(sig0, 0, 1))
    assert len(sel1) == 2
    rng = random.Random(SEED)
    # sampled membership over feasible parameter combinations
    combos = [
        ((a, b), (), 0, 2),
        ((a,), (c,), 1, 2),
        ((a, b), (c,), 1, 1),
    ]
    from ticket.blueprint import canonicalize

    for leaves, tags, d, m in combos:
        sig = Signature(frozenset(leaves), frozenset(tags))
        sel = list(enumerate_selector(sig, d, m))
        canon = [canonicalize(s) for s in sel]
        # pairwise non-equivalent: canonical forms are all distinct
        assert len(set(canon)) == len(sel)
        checked = 0
        tries = 0
        while checked < 70 and tries < 20000:
            tries += 1
            bp = random_blueprint(
                rng, rng.randint(1, 5), leaves=leaves, tags=tags or (c,)
            )
            labels = {lb.formula for _, lb in bp.entries}
            if tags == () and labels - set(leaves):
                continue
            if width(bp) > m or relative_depth(bp) > d:
                continue
            canon_bp = canonicalize(bp)
            matches = [s for s, cs in zip(sel, canon) if cs == canon_bp]
            assert len(matches) == 1
            assert equivalent(bp, matches[0])
            checked += 1
        assert checked >= 60


def test_criterion_10_deterministic_json(capsys):
    argv = ["decide", "(p->(p->x))->(p->x)", "--json"]
    main(argv)
    out1 = capsys.readouterr().out
    main(argv)
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert json.loads(out1)["verdict"] == "Inhabited"
