"""The decision core: the compact-shadow search (`_Solver`) and `decide`,
one loop over the steps of an engine (`_STEPS`).

A shadow abstracts a normal inhabitant into a tree with the same domain,
labeling every address with (free-variable type sequence, compressed
blueprint, subterm type). Compact shadows of a formula form a finite set, so
the search for inhabitants with compact shadows terminates. `_Solver` is the
one search recursion. The explicit shadows that the lemma checks use are
derived from it in `ticket.compact`; this module imports neither `compact`
nor `blueprint`.

The search works on a quotient: a node is its (arity, chi, psi) label, and
its witness blueprint need only exist. Ancestor/descendant compactness
constrains a node only through its own blueprint and the ancestors' chi
sequences, so witnesses can be chosen per node. The chosen witness is a
right-leaf comb realizing exactly the chi sequence; when its spine tags can
be made pairwise distinct its graft closure is minimal, which makes the
pruning test exact. Splitting a tag class only removes grafts, so the test
tries only the finest tag patterns and answers a plain bool: the search
keeps neither tags nor combs.
Labels are further restricted to the combinations a term can induce (leaf =
variable, unary = abstraction, binary = application with an order-preserving
free-variable merge); every shadow of a compact inhabitant satisfies these,
so no inhabited domain is lost.

The search returns states, the tuples that say how a term is built (see
`ticket.oracle`), and shares a sub-search's states among the nodes built
on them. `solve` builds the terms of all solutions of phi in the oracle's
witness order (`oracle.witness_order`), and the shadow step of `decide`
only the smallest (`oracle.smallest`).

A step of `decide` is `step(phi, deadline, stats) -> (verdict, witness,
countermodel) | None`; None hands phi to the next step. A step writes its
counters into `stats` as soon as it has them, so that a timeout keeps them,
and `exhausted_by` when its own limit stopped it.
"""
from __future__ import annotations

import math
import time
from itertools import product
from typing import Any

from .combinators import CombDerivation, extract_combinator
from .countermodel import Countermodel, check_countermodel, countermodel
from .formula import Formula, Imp, contraction_closure, sorted_subformulas
from . import oracle
from .oracle import bounded_decide, smallest, witness_order
from .record import Record, slot_setters
from .terms import Term, free_splits

# Fixed limits of the shadow search. MAX_SHADOW_NODES bounds the length of a
# node's ancestor history (`len(hist)`, the depth); tripping it clears
# `complete`. MAX_LABEL_CANDIDATES bounds the finest spine-tag patterns one
# feasibility test tries (S(n - 1, s) for n - 1 tags over s subformulas);
# running out clears `exact`.
MAX_SHADOW_NODES = 40
MAX_LABEL_CANDIDATES = 20_000


# --- feasibility of a comb witness -------------------------------------------

def _comb_universe(
    chi: tuple[Formula, ...], pattern: tuple[int, ...]
) -> frozenset[tuple[Formula, ...]]:
    """Union of F over the graft closure of a comb whose spine tags follow the
    given equality pattern. Grafts on a comb cut the infix between two equal
    spine tags, so the closure is computed on (leaves, tag classes) pairs."""
    seen = {(chi, pattern)}
    frontier = [(chi, pattern)]
    while frontier:
        leaves, tags = frontier.pop()
        for i in range(len(tags)):
            for j in range(i + 1, len(tags)):
                if tags[i] != tags[j]:
                    continue
                nxt = (leaves[: i + 1] + leaves[j + 1 :], tags[: i + 1] + tags[j + 1 :])
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return contraction_closure(frozenset(l for l, _ in seen))


def _patterns(length: int, classes: int):
    """Restricted-growth strings with exactly `classes` classes, in order."""

    def go(prefix: list[int], used: int):
        if used + length - len(prefix) < classes:
            # too few places left for the classes not yet used
            return
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for c in range(min(used + 1, classes)):
            prefix.append(c)
            yield from go(prefix, max(used, c + 1))
            prefix.pop()

    yield from go([], 0)


# --- compact-shadow search ---------------------------------------------------

class _Solver:
    """Exhaustive search for inhabitants whose shadows are compact.

    Constraints are path-local: a node is constrained only by the (arity,
    psi, chi) labels of its ancestors, so sibling subtrees are independent.
    Only MAX_SHADOW_NODES clears `complete`. Once `time.monotonic()` passes
    `deadline`, `sols` and the feasibility tests raise TimeoutError."""

    def __init__(self, phi: Formula, deadline: float = math.inf) -> None:
        self.phi = phi
        self.deadline = deadline
        self.subs = sorted_subformulas(phi)
        self.complete = True
        self.exact = True
        self.expanded = 0
        # psi -> [(psi2, psi2 -> psi)] over the arrows psi2 -> psi in subs
        self.fn_types: dict = {}
        for f in self.subs:
            if isinstance(f, Imp):
                self.fn_types.setdefault(f.consequent, []).append((f.antecedent, f))

    def solve(self) -> tuple[Term, ...]:
        """The inhabitants of phi that `sols` finds, in the witness order
        (`oracle.witness_order`, which checks the deadline per solution)."""
        return tuple(witness_order(self.sols((), self.phi, frozenset(), False), self.deadline))

    def sols(
        self,
        chi: tuple[Formula, ...],
        psi: Formula,
        hist: frozenset,
        fn_position: bool,
    ) -> list[tuple]:
        """The states (`ticket.oracle`) of all normal HRM terms with type psi
        and free types exactly chi at ranks 1..|chi| whose subtree shadow
        extends the given ancestor history without breaking compactness.
        Distinct rules, function types, splits or sub-states give distinct
        terms, so no state is found twice, and no term is built here. A
        function-position subterm is never an abstraction (the term would
        have a redex), so that branch is skipped there. Every step adds a
        new (arity, psi, chi) entry to hist (a repeated entry fails
        feasibility), so len(hist) is the depth. An application walks the
        `free_splits` of chi lazily and checks the deadline at each side and
        each pair of sides' states, so the budget holds however many free
        variables and states a node has. An argument side is searched only
        for function sides that have solutions, and each distinct side once
        per call."""
        if len(hist) > MAX_SHADOW_NODES:
            self.complete = False
            return []
        if time.monotonic() > self.deadline:
            raise TimeoutError
        self.expanded += 1
        out: list[tuple] = []
        if chi == (psi,):
            out.append((psi, chi))
        if isinstance(psi, Imp) and not fn_position:
            if self._feasible(chi, 1, psi, hist):
                child_hist = hist | {(1, psi, chi)}
                body_chi = chi + (psi.antecedent,)
                for body in self.sols(body_chi, psi.consequent, child_hist, False):
                    out.append((psi, chi, body))
        if self._feasible(chi, 2, psi, hist):
            child_hist = hist | {(2, psi, chi)}
            r = len(chi)
            for psi2, fn_type in self.fn_types.get(psi, ()):
                # chi1 -> the function side's solutions, chi2 -> the argument side's
                fns: dict[tuple[Formula, ...], list[tuple]] = {}
                args: dict[tuple[Formula, ...], list[tuple]] = {}
                for pos1, pos2s in free_splits(r):
                    # a node with r free variables has 2^r function sides
                    if time.monotonic() > self.deadline:
                        raise TimeoutError
                    chi1 = tuple(chi[p - 1] for p in pos1)
                    sols1 = fns.get(chi1)
                    if sols1 is None:
                        sols1 = fns[chi1] = self.sols(chi1, fn_type, child_hist, True)
                    if not sols1:
                        continue
                    for pos2 in pos2s:
                        if time.monotonic() > self.deadline:
                            raise TimeoutError
                        chi2 = tuple(chi[p - 1] for p in pos2)
                        sols2 = args.get(chi2)
                        if sols2 is None:
                            sols2 = args[chi2] = self.sols(chi2, psi2, child_hist, False)
                        for fn, arg in product(sols1, sols2):
                            # checked per pair: one function side can meet
                            # thousands of arguments
                            if time.monotonic() > self.deadline:
                                raise TimeoutError
                            out.append((psi, chi, fn, arg, pos1, pos2, r))
        return out

    def _feasible(self, chi: tuple[Formula, ...], arity: int, psi: Formula, hist: frozenset) -> bool:
        """Whether a node labelled (arity, psi, chi) below the ancestor history
        has a comb witness: a right-leaf comb (`compact._comb`) with chi in
        its F and no constraint (the chi of an ancestor labelled (arity,
        psi)) in the union of F over its graft closure. Only the finest
        spine-tag patterns are tried, at most MAX_LABEL_CANDIDATES of them; a
        False that is not a proof clears `exact`. One test can try thousands
        of patterns, so the deadline is checked per pattern."""
        constraints = frozenset(c for (r, p, c) in hist if r == arity and p == psi)
        if not constraints:
            return True
        if constraints & contraction_closure(frozenset({chi})):
            # every admissible gamma has F containing all contractions of chi
            return False
        n, s = len(chi), len(self.subs)
        if n - 1 <= s:  # distinct spine tags allow no graft
            return True
        for count, pattern in enumerate(_patterns(n - 1, s)):
            if count == MAX_LABEL_CANDIDATES:
                break
            if time.monotonic() > self.deadline:
                raise TimeoutError
            if not (_comb_universe(chi, pattern) & constraints):
                return True
        self.exact = False
        return False


# --- the decision procedure -------------------------------------------------

class DecideConfig(Record):
    """`engine` picks the steps `decide` runs (`_STEPS`). `time_budget`, a
    positive, finite number of seconds, bounds the wall time of one `decide`
    call; None means no limit. The budget is checked inside the steps, so it
    works from any thread. Every other limit is a module constant:
    `oracle.MAX_ORACLE_NODES` for the oracle's witness size,
    `MAX_SHADOW_NODES` and `MAX_LABEL_CANDIDATES` (the finest tag patterns a
    feasibility test tries) for the shadow search."""

    __slots__ = ("engine", "time_budget")

    def __init__(self, engine: str = "auto", time_budget: float | None = None) -> None:
        if engine not in _STEPS:
            raise ValueError(f"unknown engine {engine!r}")
        if time_budget is True or time_budget is not None and not 0 < time_budget < math.inf:
            raise ValueError(f"time_budget must be positive and finite, got {time_budget}")
        _set_engine(self, engine)
        _set_time_budget(self, time_budget)


_set_engine, _set_time_budget = slot_setters(DecideConfig)


class Decision:
    """A verdict (Inhabited, Empty or ResourceExhausted), its evidence, the
    stats of the run that reached it, and its times in seconds."""

    def __init__(
        self,
        verdict: str,
        witness_lambda: Term | None,
        witness_combinator: CombDerivation | None,
        stats: dict[str, Any],
        countermodel: Countermodel | None = None,
        times: dict[str, float] | None = None,
    ) -> None:
        self.verdict = verdict
        self.witness_lambda = witness_lambda
        self.witness_combinator = witness_combinator
        self.stats = stats
        self.countermodel = countermodel
        self.times = {} if times is None else times


def refute(phi: Formula, deadline: float = math.inf) -> tuple[int, Countermodel] | None:
    """A checked 3-valued countermodel of phi, with the index in `MATRICES`
    of its matrix, or None when none is found. A countermodel that fails its
    check raises CountermodelError. Raises TimeoutError once
    `time.monotonic()` passes `deadline`."""
    found = countermodel(phi, deadline)
    if found is not None:
        check_countermodel(found[1], phi)
    return found


def _countermodel(phi: Formula, deadline: float, stats: dict[str, Any]):
    """Empty with a checked countermodel, found by the `matrices_tried`-th
    matrix."""
    found = refute(phi, deadline)
    if found is None:
        # a budget spent after the sweep's last check ends here
        if time.monotonic() > deadline:
            raise TimeoutError
        return None
    m, cm = found
    stats["matrices_tried"] = m + 1
    return "Empty", None, cm


def _bounded(phi: Formula, deadline: float, stats: dict[str, Any]):
    """Inhabited with the oracle's witness; `terms` counts the states it
    built."""
    witness = bounded_decide(phi, oracle.MAX_ORACLE_NODES, deadline, stats)
    if witness is None:
        stats["exhausted_by"] = "max_oracle_nodes"
        return None
    return "Inhabited", witness, None


def _shadow(phi: Formula, deadline: float, stats: dict[str, Any]):
    """Inhabited with the smallest of the shadow search's `witnesses`, or
    Empty when the search was complete and exact. `expanded` counts the
    nodes it expanded, at a timeout too."""
    solver = _Solver(phi, deadline)
    try:
        states = solver.sols((), phi, frozenset(), False)
    finally:
        stats["expanded"] = solver.expanded
    stats.update(witnesses=len(states), closure_complete=solver.complete, closure_exact=solver.exact)
    if states:
        return "Inhabited", smallest(states), None
    if solver.complete and solver.exact:
        return "Empty", None, None
    stats["exhausted_by"] = "label_candidates" if solver.complete else "max_shadow_nodes"
    return None


# engine -> its steps, in order, as (name, step)
_STEPS = {
    "auto": (("countermodel", _countermodel), ("bounded", _bounded), ("shadow", _shadow)),
    "bounded": (("bounded", _bounded),),
    "shadow": (("shadow", _shadow),),
}
# the engine names: a live view of the keys of `_STEPS`
ENGINES = _STEPS.keys()


def decide(phi: Formula, config: DecideConfig = DecideConfig()) -> Decision:
    """Decide inhabitation of phi: run the steps of `config.engine` in
    order until one gives a verdict. Inhabited verdicts always carry a
    checked lambda witness and a combinator certificate. Empty is claimed
    either with a checked 3-valued countermodel or by the complete shadow
    engine with no limit tripped. `auto` runs the countermodel search, the
    bounded oracle and the shadow engine; no formula has both a
    countermodel and a witness, so the order changes no verdict. The stats
    name the step that gave the verdict, `engine`, and hold the counters of
    every step that ran (`matrices_tried`; `terms`, the states the oracle
    built; `expanded`, `witnesses`, `closure_complete`, `closure_exact`).

    A ResourceExhausted verdict names in its stats the `step` that gave up
    and what stopped it, `exhausted_by`: `time` when `config.time_budget`
    ran out (then `engine` is `config.engine`, `time_budget_hit` is set,
    and the counts reached stay), `max_oracle_nodes` when the oracle found
    no witness within its bound, and `max_shadow_nodes` or
    `label_candidates` when that limit left the shadow search incomplete or
    inexact (the first, if both).

    `Decision.times` holds the times in seconds: `wall_time` for the whole
    call, `time_<step>` for each step that ran, a timed-out one too, and
    `time_extract` for the certificate's extraction."""
    t0 = time.monotonic()
    deadline = math.inf if config.time_budget is None else t0 + config.time_budget
    stats: dict[str, Any] = {}
    times: dict[str, float] = {}
    found = None
    try:
        for name, step in _STEPS[config.engine]:
            t = time.monotonic()
            try:
                found = step(phi, deadline, stats)
            finally:
                times[f"time_{name}"] = time.monotonic() - t
            if found is not None:
                # the limit that stopped an earlier step no longer matters
                stats.pop("exhausted_by", None)
                break
        stats["engine"] = name
    except TimeoutError:
        stats.update(engine=config.engine, time_budget_hit=True, exhausted_by="time")
    if found is None:
        stats["step"] = name
        found = "ResourceExhausted", None, None
    verdict, witness, cm = found
    cert = None
    if witness is not None:
        t = time.monotonic()
        cert = extract_combinator(witness, phi)
        times["time_extract"] = time.monotonic() - t
    times["wall_time"] = time.monotonic() - t0
    return Decision(verdict, witness, cert, stats, cm, times)
