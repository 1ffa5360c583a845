"""Brute-force enumeration of normal HRM inhabitants, and the search state
that both searches build terms from.

Ground truth for cross-validation: a bottom-up dynamic program over term
size. Only the order type of ranks matters for HRM and typing, so every term
is built canonical (`ticket.terms`): a variable is rank 1, an abstraction
binds the greatest free rank, and an application splits its free ranks
with `free_splits` and places both sides with `place_canonical`.

A state is a plain tuple that says how a canonical term is built: its type
psi, its free types chi in rank order, and its parts.
- `(psi, chi)` is the variable of type psi, with chi = (psi,);
- `(psi, chi, body)` is the abstraction over the state `body`, whose free
  types are chi and then the binder's type;
- `(psi, chi, fn, arg, pos1, pos2, r)` is the application of the state
  `fn` to the state `arg`, whose free ranks go to pos1 and pos2 among its
  r = len(chi) (a `free_splits` split).
`state_term` builds a state's term. Here and in the shadow search
(`ticket.shadow._Solver`) it is the one place where a search builds a
term, and only for the states that search returns.

The levels hold states, no state twice. The splits come from `_splits`;
those for up to three free ranks are built at import.

Level 1 holds the variables in the order in which a depth-first walk from
phi first meets their types (`_signed_subformulas`), so no subformula is
printed to order it. Each larger level follows from the smaller ones in a
fixed order, and both searches sort what they return in one witness order,
node count and then `print_term` (`witness_order`; `smallest` builds only
the first), so witnesses do not depend on the order of a level.

Only terms that can still close within the node bound are built. Merges
place free ranks injectively, so a term of s nodes with p free variables
sits under p distinct binders in any closed term, which then has at least
s + p nodes. `bounded_decide` stops at the smallest size with a closed
inhabitant.

Only terms whose types have the right polarity in phi are built. In a
closed normal term of type phi, a subterm sits either at the root, as the
body of an abstraction or as an argument, where by induction from the root
its type occurs positively in phi, or in function position, where its type
is an arrow. An abstraction is never in function position (that would be a
redex), so its type is positive; a variable is bound by an abstraction,
whose type is then a positive arrow of phi with the variable's type as its
antecedent. `_levels` therefore builds a variable only at the antecedent of
a positive arrow, an abstraction only at a positive type, and keeps a term
only if its type is positive or an arrow. The pruned terms occur in no
closed inhabitant, so every level keeps the same closed terms of type phi,
and the witnesses do not change.
"""
from __future__ import annotations

import functools
import math
import time
from typing import Iterator

from .formula import Formula, Imp
from .terms import App, Lam, Term, Var, VarRef, free_splits, node_count, place_canonical, print_term

# The node bound of the oracle inside `decide`, which reads it at each call.
MAX_ORACLE_NODES = 10
# The `_splits` tables for up to this many free ranks are built at import.
_PREBUILT_RANKS = 3


@functools.cache
def _splits(p: int, q: int, r: int) -> tuple[tuple, ...]:
    """The `free_splits` of r ranks with p on the function side and q on the
    argument side, as (pos1, pos2, pick, shared): with ab the sides' free
    types concatenated, rank k + 1 has type ab[pick[k]], and a variable on
    both sides at (i, j) in shared needs ab[i] == ab[j]."""
    out = []
    for pos1, pos2s in free_splits(r, p, q):
        for pos2 in pos2s:
            at = dict(zip(pos2, range(p, p + q)))
            shared = tuple([(i, at[rank]) for i, rank in enumerate(pos1) if rank in at])
            at.update(zip(pos1, range(p)))
            out.append((pos1, pos2, tuple(map(at.__getitem__, range(1, r + 1))), shared))
    return tuple(out)


# Built at import: the applications of small witnesses use only these, and
# a process forked after the import finds them built. Larger tables are
# built on first use.
for _r in range(_PREBUILT_RANKS + 1):
    for _p in range(_r + 1):
        for _q in range(_r + 1):
            _splits(_p, _q, _r)


def _signed_subformulas(
    phi: Formula,
) -> tuple[list[Formula], frozenset[Formula], frozenset[Formula]]:
    """The subformulas of phi in the order in which a depth-first walk from
    phi first meets them, those with a positive occurrence in phi, and those
    with a negative one. phi is positive; an arrow's consequent has the
    arrow's sign and its antecedent the other sign."""
    signed: tuple[set[Formula], set[Formula]] = (set(), set())
    met: dict[Formula, None] = {}
    stack = [(phi, 0)]
    while stack:
        f, sign = stack.pop()
        if f not in signed[sign]:
            signed[sign].add(f)
            met[f] = None
            if f.__class__ is Imp:
                stack += ((f.antecedent, 1 - sign), (f.consequent, sign))
    return list(met), frozenset(signed[0]), frozenset(signed[1])


def _levels(
    phi: Formula, max_nodes: int, deadline: float = math.inf, polarity: bool = True, by_size=None
) -> Iterator[tuple[int, list[tuple]]]:
    """Yield `(size, states)` for sizes 1..max_nodes, each level as soon as it
    is built, into `by_size` if given. Above size 1, a term of `size` nodes
    with p free variables is built only if size + p <= max_nodes, and with
    `polarity` only terms whose types have the right polarity (see the module
    docstring) are built; without it, every normal HRM term over phi's
    subformulas is. Each level is also grouped by type, so an application
    pairs a function only with the arguments of its antecedent type. Raises
    TimeoutError once `time.monotonic()` passes `deadline`."""
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    met, positive, negative = _signed_subformulas(phi)
    # the types a variable may have: those an abstraction of phi can bind
    bound = {f.antecedent for f in positive if f.__class__ is Imp}
    if not polarity:
        positive = negative = bound = frozenset(met)
    # the types a term may have: positive, or an arrow for function position
    kept = positive | {f for f in negative if f.__class__ is Imp}
    # the types an abstraction may have, by antecedent and consequent
    lam_types = {(f.antecedent, f.consequent): f for f in positive if f.__class__ is Imp}
    by_size = {} if by_size is None else by_size
    by_type: dict[int, dict[Formula, list[tuple]]] = {}

    def add(size: int, state: tuple) -> None:
        by_size[size].append(state)
        by_type[size].setdefault(state[0], []).append(state)

    by_size[1], by_type[1] = [], {}
    for tau in met:
        if tau in bound and tau in kept:
            add(1, (tau, (tau,)))
    yield 1, by_size[1]

    for size in range(2, max_nodes + 1):
        by_size[size], by_type[size] = [], {}
        # abstractions over size-1 bodies: one more node and one fewer free
        # variable keep size + p within the limit, so they need no check
        for st in by_size[size - 1]:
            if time.monotonic() > deadline:
                raise TimeoutError
            if st[1]:
                lam_type = lam_types.get((st[1][-1], st[0]))
                if lam_type is not None:
                    add(size, (lam_type, st[1][:-1], st))
        # applications of non-abstractions; the result has r free variables
        for s1 in range(1, size - 1):
            s2 = size - 1 - s1
            for st1 in by_size[s1]:
                fn_type, free1 = st1[0], st1[1]
                if len(st1) == 3 or fn_type.__class__ is not Imp or fn_type.consequent not in kept:
                    continue
                # one function can meet thousands of arguments, so the
                # deadline is checked per pair
                for st2 in by_type[s2].get(fn_type.antecedent, ()):
                    if time.monotonic() > deadline:
                        raise TimeoutError
                    p, q = len(free1), len(st2[1])
                    ab = free1 + st2[1]
                    for r in range(max(p, q), min(p + q, max_nodes - size) + 1):
                        for pos1, pos2, pick, shared in _splits(p, q, r):
                            if any(ab[i] != ab[j] for i, j in shared):
                                continue
                            merged = tuple([ab[k] for k in pick])
                            add(size, (fn_type.consequent, merged, st1, st2, pos1, pos2, r))
        yield size, by_size[size]


def state_term(state: tuple, built: dict[int, Term] | None = None) -> Term:
    """The canonical term of a state (see the module docstring). A caller
    that builds the terms of many states with shared parts passes the same
    dict `built` to every call: it maps the id of each state built so far to
    its term, so that each state's term is built once, and the caller keeps
    those states alive while it holds the dict."""
    term = None if built is None else built.get(id(state))
    if term is not None:
        return term
    if len(state) == 2:
        term = Var(VarRef(1, state[0]))
    elif len(state) == 3:
        free = state[2][1]
        term = Lam(VarRef(len(free), free[-1]), state_term(state[2], built))
    else:
        _, _, fn, arg, pos1, pos2, r = state
        left, top = place_canonical(state_term(fn, built), pos1, r)
        right, _ = place_canonical(state_term(arg, built), pos2, top)
        term = App(left, right)
    if built is not None:
        built[id(state)] = term
    return term


def smallest(states: list[tuple]) -> Term:
    """The first term of the states in the witness order. Node counts are
    read off the states, memoised by id as `state_term` memoises terms, so
    that terms are built only for the states of the least count."""
    counts: dict[int, int] = {}

    def count(state: tuple) -> int:
        n = counts.get(id(state))
        if n is None:
            # the parts of an abstraction or an application: its body, or
            # its function and argument
            n = counts[id(state)] = 1 + sum(map(count, state[2:4]))
        return n

    least = min(map(count, states))
    built: dict[int, Term] = {}
    return min((state_term(st, built) for st in states if count(st) == least), key=print_term)


def witness_order(states: list[tuple], deadline: float = math.inf) -> list[Term]:
    """The terms of the states in the witness order, (node count, print).
    Each term, and each part that states share, is built once. Raises
    TimeoutError once `time.monotonic()` passes `deadline`, checked per state."""
    built: dict[int, Term] = {}
    keyed = []
    for state in states:
        if time.monotonic() > deadline:
            raise TimeoutError
        t = state_term(state, built)
        keyed.append((node_count(t), print_term(t), t))
    return [t for _, _, t in sorted(keyed, key=lambda k: k[:2])]


def enumerate_inhabitants(phi: Formula, max_nodes: int = MAX_ORACLE_NODES) -> list[Term]:
    """All alpha-canonical closed normal HRM terms of type phi with at most
    max_nodes nodes, in the witness order."""
    levels = _levels(phi, max_nodes)
    return witness_order([st for _, states in levels for st in states if not st[1] and st[0] == phi])


def bounded_decide(
    phi: Formula, max_nodes: int = MAX_ORACLE_NODES, deadline: float = math.inf, stats=None
) -> Term | None:
    """Semi-decision: the smallest witness of at most max_nodes nodes, or
    None. Never claims emptiness. Stops at the first size that has an
    inhabitant and builds no larger term. Raises TimeoutError once
    `time.monotonic()` passes `deadline`. Sets `stats["terms"]`, if `stats`
    is a dict, to the number of states built, at a timeout too."""
    by_size: dict[int, list[tuple]] = {}
    try:
        for _, states in _levels(phi, max_nodes, deadline, by_size=by_size):
            if hits := [st for st in states if not st[1] and st[0] == phi]:
                return smallest(hits)
        return None
    finally:
        if stats is not None:
            stats["terms"] = sum(map(len, by_size.values()))
