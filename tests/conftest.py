"""Shared generators: term pools from the brute-force enumerator, random
blueprints, and the two-atom formula corpus."""
from __future__ import annotations

import itertools
import os
import random

import pytest

from ticket.blueprint import Blueprint, app, leaf, make_blueprint, star
from ticket.formula import Atom, Formula, Imp, parse_formula
from ticket.oracle import _levels, state_term
from ticket.terms import Term

SEED = int(os.environ.get("TICKET_SEED", "0"))

A = Atom("a")
B = Atom("b")
C = Atom("c")
T = Atom("t")
U = Atom("u")

POOL_FORMULAS = [
    parse_formula("a->a"),
    parse_formula("(x->y)->((p->x)->(p->y))"),
    parse_formula("(p->x)->((x->y)->(p->y))"),
    parse_formula("(p->(p->x))->(p->x)"),
    parse_formula("(a->(a->b))->(a->b)"),
    parse_formula("(a->b)->((b->a)->(a->a))"),
    parse_formula("(a->(a->b))->((b->c)->(a->(a->c)))"),
    parse_formula("((a->a)->b)->b"),
]


def _build_pools() -> tuple[list[tuple[Term, Formula]], list[tuple[Term, Formula]]]:
    open_pool: list[tuple[Term, Formula]] = []
    closed_pool: list[tuple[Term, Formula]] = []
    for phi in POOL_FORMULAS:
        # sizes 1-9 at bound 18: a term of at most 9 nodes has at most 9 free
        # variables, so the oracle prunes none of them for their size, and
        # polarity pruning is off
        for size, states in _levels(phi, 18, polarity=False):
            for st in states:
                open_pool.append((state_term(st), st[0]))
                if not st[1]:
                    closed_pool.append(open_pool[-1])
            if size == 9:
                break
    return open_pool, closed_pool


_OPEN, _CLOSED = _build_pools()


@pytest.fixture(scope="session")
def open_terms() -> list[tuple[Term, Formula]]:
    """Normal HRM terms (possibly open) with their types."""
    return _OPEN


@pytest.fixture(scope="session")
def closed_terms() -> list[tuple[Term, Formula]]:
    """Closed normal HRM inhabitants with their types."""
    return _CLOSED


def random_blueprint(rng: random.Random, size: int, leaves=(A, B, C), tags=(T, U)) -> Blueprint:
    """A random nonempty blueprint with exactly `size` domain nodes."""
    if size == 1 or size == 2:
        # size 2 cannot be a single tagged node (needs two nonempty regions)
        if size == 2:
            return star([leaf(rng.choice(leaves)), leaf(rng.choice(leaves))])
        return leaf(rng.choice(leaves))
    if rng.random() < 0.3:
        # split into star components
        k = rng.randint(2, min(3, size))
        cuts = sorted(rng.sample(range(1, size), k - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [size])]
        return star([random_blueprint(rng, p, leaves, tags) for p in parts])
    n1 = rng.randint(1, size - 2)
    n2 = size - 1 - n1
    return app(
        rng.choice(tags),
        random_blueprint(rng, n1, leaves, tags),
        random_blueprint(rng, n2, leaves, tags),
    )


def all_blueprints(max_dom: int, leaves=(A, B), tags=(T,)) -> list[Blueprint]:
    """All blueprints (up to component placement) with |dom| <= max_dom."""

    def trees(n: int) -> list[Blueprint]:
        out: list[Blueprint] = []
        if n == 1:
            out.extend(leaf(f) for f in leaves)
        if n >= 3:
            for n1 in range(1, n - 1):
                n2 = n - 1 - n1
                for t in tags:
                    for l in stars(n1):
                        for r in stars(n2):
                            out.append(app(t, l, r))
        return out

    def stars(n: int) -> list[Blueprint]:
        out: list[Blueprint] = []
        for comp_sizes in _compositions(n):
            for combo in itertools.product(*(trees(s) for s in comp_sizes)):
                out.append(star(list(combo)) if len(combo) > 1 else combo[0])
        return out

    result: list[Blueprint] = []
    seen = set()
    for n in range(1, max_dom + 1):
        for b in stars(n):
            if b not in seen:
                seen.add(b)
                result.append(b)
    return result


def _compositions(n: int):
    # non-increasing size lists to avoid permuted duplicates of star components
    def go(rest: int, cap: int):
        if rest == 0:
            yield []
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in go(rest - first, first):
                yield [first] + tail

    yield from go(n, n)


def random_derivation(rng: random.Random, steps: int):
    """A random combinator derivation built by seeded axiom instances plus
    modus ponens steps chosen among all applicable pairs."""
    from ticket.combinators import (
        Axiom,
        axiom_b,
        axiom_b_prime,
        axiom_i,
        axiom_w,
        mp,
    )

    def dtype(d):
        return d.instantiated_type if isinstance(d, Axiom) else d.result_type

    def rf(depth: int = 1) -> Formula:
        if depth == 0 or rng.random() < 0.6:
            return rng.choice((A, B, C))
        return Imp(rf(depth - 1), rf(depth - 1))

    pool = [axiom_i(rf()), axiom_w(rf(), rf()), axiom_b(rf(), rf(), rf())]
    for _ in range(steps):
        # seed a new axiom whose antecedent matches an existing type,
        # then fire one applicable modus ponens if any
        t = dtype(rng.choice(pool))
        kind = rng.randrange(4)
        if kind == 0:
            pool.append(axiom_i(t))
        elif kind == 1 and isinstance(t, Imp):
            pool.append(axiom_b(t.antecedent, t.consequent, rf()))
        elif kind == 2 and isinstance(t, Imp):
            pool.append(axiom_b_prime(t.antecedent, t.consequent, rf()))
        elif isinstance(t, Imp) and isinstance(t.consequent, Imp) and t.antecedent == t.consequent.antecedent:
            pool.append(axiom_w(t.antecedent, t.consequent.consequent))
        apps = [
            (l, r)
            for l in pool
            for r in pool
            if isinstance(dtype(l), Imp) and dtype(l).antecedent == dtype(r)
        ]
        if apps:
            l, r = rng.choice(apps)
            pool.append(mp(l, r))
    return pool[-1]


def formula_corpus(max_arrows: int = 4, atoms=(A, B)) -> list[Formula]:
    """All implicational formulas over the atoms with at most max_arrows."""
    by_count: dict[int, list[Formula]] = {0: list(atoms)}
    for n in range(1, max_arrows + 1):
        level: list[Formula] = []
        for i in range(n):
            for l in by_count[i]:
                for r in by_count[n - 1 - i]:
                    level.append(Imp(l, r))
        by_count[n] = level
    out: list[Formula] = []
    for n in range(max_arrows + 1):
        out.extend(by_count[n])
    return out
