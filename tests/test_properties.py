"""Randomized property suites over enumerated term pools, random blueprints
and random combinator derivations."""
import random

from hypothesis import given, settings, strategies as st

from ticket.blueprint import (
    blueprint_of,
    compress_to_max,
    extract_at,
    extractable_leaves,
    f_of,
    subtree_at,
    up_closure,
)
from ticket.combinators import Axiom, check_derivation, extract_combinator
from ticket.compact import (
    abstract_extract_chain,
    comb_to_lambda,
    compress_term,
    hrm_normalize,
    is_normal,
    subterm_at,
    switch_var,
)
from ticket.terms import App, alpha_canonical, free_vars, node_count, type_of

import conftest
from conftest import SEED, random_blueprint, random_derivation

SUITE = settings(max_examples=500, deadline=None, derandomize=True)

open_term = st.sampled_from(conftest._OPEN)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _rng(seed):
    return random.Random(seed ^ SEED)


@SUITE
@given(open_term)
def test_free_type_sequence_extractable(pair):
    # the free-variable type sequence is always a valid extraction sequence
    m, _ = pair
    types = tuple(v.var_type for v in free_vars(m))
    assert types in f_of(blueprint_of(m))


@SUITE
@given(open_term)
def test_blueprint_restriction(pair):
    # restricting the blueprint to a stable address equals the subterm's blueprint
    m, _ = pair
    bp = blueprint_of(m)
    for b in bp.domain:
        if b == ():
            continue
        assert subtree_at(bp, b) == blueprint_of(subterm_at(m, b))


@SUITE
@given(seeds)
def test_extraction_confluence(seed):
    # extracting the same formula at the same addresses commutes
    rng = _rng(seed)
    b = random_blueprint(rng, rng.randint(2, 7))
    groups: dict = {}
    for addr, f in extractable_leaves(b):
        groups.setdefault(f, []).append(addr)
    multi = [(f, addrs) for f, addrs in groups.items() if len(addrs) >= 2]
    if not multi:
        return
    f, addrs = rng.choice(multi)
    order1 = list(addrs)
    order2 = list(addrs)
    rng.shuffle(order2)
    r1 = b
    for a in order1:
        r1 = extract_at(r1, a, f)
    r2 = b
    for a in order2:
        r2 = extract_at(r2, a, f)
    assert r1 == r2


@SUITE
@given(seeds)
def test_f_monotone_under_compression(seed):
    # dropping duplicate star components only removes extraction sequences
    rng = _rng(seed)
    b = random_blueprint(rng, rng.randint(2, 7))
    fb = f_of(b)
    for m in range(1, 4):
        assert f_of(compress_to_max(b, m)) <= fb


@SUITE
@given(seeds)
def test_compression_preserves_bounded_sequences(seed):
    rng = _rng(seed)
    b = random_blueprint(rng, rng.randint(2, 7))
    fb = f_of(b)
    for m in range(4):
        fg = f_of(compress_to_max(b, m))
        assert all(s in fg for s in fb if len(s) <= m)


@SUITE
@given(open_term)
def test_switch_var_identity(pair):
    # re-deriving every free variable through its own extraction chain is a no-op
    m, _ = pair
    chain = abstract_extract_chain(m)
    out = switch_var(m, chain, free_vars(m))
    assert alpha_canonical(out) == alpha_canonical(m)
    assert blueprint_of(out) == blueprint_of(m)
    assert type_of(out) == type_of(m)


@SUITE
@given(open_term, seeds)
def test_compress_term_postconditions(pair, seed):
    m, _ = pair
    rng = _rng(seed)
    closure = sorted(up_closure(blueprint_of(m)), key=lambda b: b.domain)
    alpha = rng.choice(closure)
    out = compress_term(m, alpha)
    assert type_of(out) == type_of(m)
    assert blueprint_of(out) == alpha
    assert node_count(out) <= node_count(m)
    assert is_normal(out)


@SUITE
@given(seeds)
def test_normalize_combinator_translation(seed):
    # the raw applicative translation has redexes; normalization must produce
    # a normal closed inhabitant of the derived type
    rng = _rng(seed)
    d = random_derivation(rng, rng.randint(1, 7))
    phi = check_derivation(d)

    def raw(node):
        if isinstance(node, Axiom):
            return comb_to_lambda(node)
        return App(raw(node.left), raw(node.right))

    m = hrm_normalize(raw(d))
    assert is_normal(m)
    assert type_of(m) == phi
    assert free_vars(m) == ()


@SUITE
@given(seeds)
def test_certificates_always_check(seed):
    rng = _rng(seed)
    d = random_derivation(rng, rng.randint(1, 7))
    phi = check_derivation(d)
    m = comb_to_lambda(d)
    assert check_derivation(extract_combinator(m, phi)) == phi
