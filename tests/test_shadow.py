import collections
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

import ticket
import ticket.compact
import ticket.oracle
import ticket.shadow
from ticket.blueprint import app, canonicalize, empty, f_of, leaf, star
from ticket.combinators import check_derivation
from ticket.compact import (
    ShadowLabel,
    _comb,
    _comb_tags,
    enumerate_compact_shadows,
    inhabitant_with_domain,
    is_compact_shadow,
    is_phi_shadow,
    make_shadow,
    root_shadow,
    shadow_of,
)
from ticket.formula import parse_formula, print_formula
from ticket.oracle import bounded_decide, enumerate_inhabitants, state_term
from ticket.shadow import (
    DecideConfig,
    _comb_universe,
    _patterns,
    _Solver,
    decide,
)
from ticket.terms import (
    App,
    Lam,
    Var,
    VarRef,
    alpha_canonical,
    free_splits,
    is_nf_inhabitant,
    node_count,
    print_term,
)
from ticket.formula import Atom, Imp, subformulas

from conftest import formula_corpus

a = Atom("a")


def test_root_shadow_is_phi_shadow():
    phi = parse_formula("a->a")
    assert is_phi_shadow(root_shadow(phi), phi)


def test_shadow_of_identity():
    phi = parse_formula("a->a")
    idm = Lam(VarRef(1, a), Var(VarRef(1, a)))
    x = shadow_of(idm, phi)
    assert is_phi_shadow(x, phi)
    assert is_compact_shadow(x)
    assert x.get(()).psi == phi


def test_shadow_of_w_witness():
    phi = parse_formula("(a->(a->b))->(a->b)")
    m = enumerate_inhabitants(phi, 8)[0]
    x = shadow_of(m, phi)
    assert is_phi_shadow(x, phi)
    assert is_compact_shadow(x)
    assert len(x.domain) == 7


def test_shadow_of_wrong_phi_rejected():
    phi = parse_formula("a->a")
    other = parse_formula("b->b")
    idm = Lam(VarRef(1, a), Var(VarRef(1, a)))
    x = shadow_of(idm, phi)
    assert not is_phi_shadow(x, other)


def test_phi_shadow_rejects_each_broken_condition():
    # mutants of the one enumerated shadow of (a->a->b)->a->b, each breaking
    # one condition of `is_phi_shadow`, so that each of its checks is the
    # only one that rejects some mutant; at (1,) one unary node is above,
    # at (1, 1) and (1, 1, 2) two, and the formula has 5 subformulas
    phi = parse_formula("(a->a->b)->a->b")
    (x,) = enumerate_compact_shadows(phi).shadows
    assert is_phi_shadow(x, phi)
    entries = dict(x.entries)
    b, z = Atom("b"), Atom("z")
    fn = Imp(a, Imp(a, b))
    var = entries[(1, 1, 2)]
    assert (var.chi_seq, var.gamma, var.psi) == ((a,), leaf(a), a)

    def at(addr, **change):
        label = entries[addr]
        fields = {"chi_seq": label.chi_seq, "gamma": label.gamma, "psi": label.psi, **change}
        return {**entries, addr: ShadowLabel(**fields)}

    deep = leaf(a)
    for _ in range(11):
        deep = app(a, deep, leaf(a))
    mutants = {
        "no root": {},
        "no parent": {**entries, (1, 1, 2, 1, 1): var},
        "child 3": {**entries, (1, 1, 2, 3): var},
        "argument without function": {k: v for k, v in entries.items() if k[:3] != (1, 1, 1)},
        "root type": at((), psi=Imp(a, b)),
        "type not a subformula": at((1, 1, 2), psi=z),
        "more free types than binders": at(
            (1,), chi_seq=(fn, a), gamma=canonicalize(_comb((fn, a), (b,)))
        ),
        "not canonical": at((1, 1, 2), gamma=star([leaf(a)], [(2,)])),
        "tag not a subformula": at((1, 1), gamma=canonicalize(_comb((fn, a), (z,)))),
        "too wide": at((1, 1, 2), gamma=canonicalize(star([leaf(a)] * 3))),
        "too deep": at((1, 1, 2), gamma=canonicalize(deep)),
        "free types not realized": at((1, 1, 2), gamma=leaf(b)),
    }
    assert [name for name, m in mutants.items() if is_phi_shadow(make_shadow(m), phi)] == []


def test_compact_shadow_rejects_a_repeated_label():
    # Church's two, \f.\x. f (f x): the application f x sits below f (f x)
    # with the same arity, type and free types, so its comb admits the free
    # types of its ancestor; with x in place of f x the shadow is compact
    phi = parse_formula("(a->a)->a->a")
    aa = Imp(a, a)
    fn = ShadowLabel((aa,), leaf(aa), aa)
    applied = ShadowLabel((aa, a), canonicalize(_comb((aa, a), (a,))), a)
    var = ShadowLabel((a,), leaf(a), a)
    once = {(): ShadowLabel((), empty(), phi), (1,): fn, (1, 1): applied, (1, 1, 1): fn, (1, 1, 2): var}
    twice = {**once, (1, 1, 2): applied, (1, 1, 2, 1): fn, (1, 1, 2, 2): var}
    for labels, compact in ((once, True), (twice, False)):
        x = make_shadow(labels)
        assert is_phi_shadow(x, phi)
        assert is_compact_shadow(x) is compact


@pytest.mark.parametrize(
    "text,verdict",
    [
        ("a->a", "Inhabited"),
        ("a", "Empty"),
        ("a->(b->a)", "Empty"),
        ("a->(a->a)", "Empty"),
        ("((a->b)->a)->a", "Empty"),
        ("(x->y)->((p->x)->(p->y))", "Inhabited"),
        ("(p->x)->((x->y)->(p->y))", "Inhabited"),
        ("(p->(p->x))->(p->x)", "Inhabited"),
    ],
)
def test_shadow_engine_verdicts(text, verdict):
    phi = parse_formula(text)
    d = decide(phi, DecideConfig(engine="shadow"))
    assert d.verdict == verdict
    if verdict == "Empty":
        assert d.stats["closure_complete"] and d.stats["closure_exact"]
    else:
        assert check_derivation(d.witness_combinator) == phi
        assert is_nf_inhabitant(d.witness_lambda, phi)


def test_auto_engine_falls_back_to_shadow():
    # no 3-valued matrix refutes this non-theorem, so auto needs the shadow
    # engine; a->(b->a) is refuted by a matrix before it
    phi = parse_formula("((c->c)->c)->c")
    d = decide(phi, DecideConfig(engine="auto"))
    assert d.verdict == "Empty"
    assert d.stats["engine"] == "shadow"
    assert d.countermodel is None
    d = decide(parse_formula("a->(b->a)"), DecideConfig(engine="auto"))
    assert d.verdict == "Empty"
    assert d.stats["engine"] == "countermodel"


def test_bounded_engine_never_claims_empty(monkeypatch):
    monkeypatch.setattr(ticket.oracle, "MAX_ORACLE_NODES", 8)
    phi = parse_formula("a->(b->a)")
    d = decide(phi, DecideConfig(engine="bounded"))
    assert d.verdict == "ResourceExhausted"


def test_decide_witness_is_smallest_identity():
    d = decide(parse_formula("a->a"))
    assert print_term(d.witness_lambda) == "\\x1:a. x1"


def test_decide_times_have_wall_time():
    d = decide(parse_formula("a->a"))
    assert "wall_time" in d.times
    assert "wall_time" not in d.stats


def test_enumerate_contains_witness_domain():
    phi = parse_formula("(a->(a->b))->(a->b)")
    m = enumerate_inhabitants(phi, 8)[0]
    x = shadow_of(m, phi)
    enum = enumerate_compact_shadows(phi)
    assert enum.complete
    domains = {s.domain for s in enum.shadows}
    assert x.domain in domains


def test_inhabitant_with_domain():
    phi = parse_formula("(a->(a->b))->(a->b)")
    m = enumerate_inhabitants(phi, 8)[0]
    x = shadow_of(m, phi)
    found = inhabitant_with_domain(phi, x)
    assert found is not None
    assert is_nf_inhabitant(found, phi)


def test_enumerated_shadows_are_compact_and_inhabited():
    count = 0
    for phi in formula_corpus():
        if len(subformulas(phi)) > 5:
            continue
        for x in enumerate_compact_shadows(phi).shadows:
            count += 1
            assert is_phi_shadow(x, phi)
            assert is_compact_shadow(x)
            found = inhabitant_with_domain(phi, x)
            assert found is not None
            assert is_nf_inhabitant(found, phi)
    assert count == 14


def test_config_validation():
    with pytest.raises(ValueError):
        DecideConfig(engine="warp")
    for seconds in (0, -1, math.nan, math.inf):
        with pytest.raises(ValueError):
            DecideConfig(time_budget=seconds)


def test_config_rejects_a_bool_budget():
    # True compares as 1, but a bool is no number of seconds
    for flag in (True, False):
        with pytest.raises(ValueError):
            DecideConfig(time_budget=flag)


@pytest.mark.parametrize(
    "text,engine,oracle_nodes",
    [
        # the shadow search does not finish on this theorem
        ("(((b->b)->b->b)->b)->(b->b)->b", "shadow", 10),
        # a non-theorem: the oracle finds no witness of at most 24 nodes,
        # and is still building states after 5 s on a 2-core VM (its 22-node
        # levels take about 1 s)
        ("c->(c->c)->c->c", "bounded", 24),
    ],
    ids=["shadow", "bounded"],
)
def test_time_budget_stops_either_engine_off_the_main_thread(
    monkeypatch, text, engine, oracle_nodes
):
    monkeypatch.setattr(ticket.oracle, "MAX_ORACLE_NODES", oracle_nodes)
    phi = parse_formula(text)
    config = DecideConfig(engine=engine, time_budget=0.3)
    result = {}

    def work():
        t0 = time.monotonic()
        result["decision"] = decide(phi, config)
        result["seconds"] = time.monotonic() - t0

    worker = threading.Thread(target=work)
    worker.start()
    worker.join()
    d = result["decision"]
    assert d.verdict == "ResourceExhausted"
    assert d.stats["time_budget_hit"] is True
    assert result["seconds"] < config.time_budget + 0.5


PAIRS = "((c->c->c)->c)->(c->c->c)->c"


def _ticking(monkeypatch, ticks_per_pair: int, ticks_per_term: int) -> list[int]:
    """A clock for the shadow search and the witness order that moves only
    with their work: the given ticks per pair of an application's sides and
    per solution's term built (the order takes each term's node count once,
    right after building it)."""
    clock = [0]

    def pairs(fns, args):
        for pair in itertools.product(fns, args):
            clock[0] += ticks_per_pair
            yield pair

    def count(term):
        clock[0] += ticks_per_term
        return node_count(term)

    fake_time = SimpleNamespace(monotonic=lambda: clock[0])
    monkeypatch.setattr(ticket.shadow, "product", pairs)
    monkeypatch.setattr(ticket.oracle, "node_count", count)
    monkeypatch.setattr(ticket.shadow, "time", fake_time)
    monkeypatch.setattr(ticket.oracle, "time", fake_time)
    return clock


def test_time_budget_is_checked_per_pair_of_sides(monkeypatch):
    # an application's function side meets thousands of argument-side
    # states here, so a deadline checked only per side or per search node
    # overshoots by that many pairs; checked per pair, the search stops at
    # the first pair past the deadline, wherever in a node it falls
    clock = _ticking(monkeypatch, ticks_per_pair=1, ticks_per_term=0)
    phi = parse_formula(PAIRS)
    assert len(_Solver(phi).sols((), phi, frozenset(), False)) == 7001
    assert clock[0] == 20478
    for deadline in range(0, 20478, 2048):
        clock[0] = 0
        with pytest.raises(TimeoutError):
            _Solver(phi, deadline).solve()
        assert clock[0] == deadline + 1


def test_time_budget_is_checked_per_term_built(monkeypatch):
    # the search reads a still clock; the terms of its 144 solutions,
    # built one per state, each check the deadline again
    clock = _ticking(monkeypatch, ticks_per_pair=0, ticks_per_term=1)
    phi = parse_formula("((b->b->a)->b)->(b->b->b->a)->b")
    for deadline in (0, 71, 142):
        clock[0] = 0
        with pytest.raises(TimeoutError):
            _Solver(phi, deadline).solve()
        assert clock[0] == deadline + 1
    # the last term is built at the deadline, with no check after it
    clock[0] = 0
    assert len(_Solver(phi, 143).solve()) == 144


def test_time_budget_holds_while_terms_are_built():
    # on the real clock: the search takes a small part of the budget here
    # and building and ordering the 7001 solutions' terms the rest
    phi = parse_formula(PAIRS)
    t0 = time.monotonic()
    with pytest.raises(TimeoutError):
        _Solver(phi, t0 + 0.3).solve()
    assert time.monotonic() - t0 < 0.45


def test_shadow_decide_builds_terms_only_for_its_smallest_solutions(monkeypatch):
    # `decide` counts nodes on the states: of the 7001 solutions here, from
    # 2 to 59 nodes, it builds the term of the one 2-node solution only
    # (and, inside that call, the terms of its parts)
    phi = parse_formula(PAIRS)
    built = []
    depth = [0]

    def term(state, memo):
        if not depth[0]:
            built.append(state)
        depth[0] += 1
        try:
            return state_term(state, memo)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ticket.oracle, "state_term", term)
    d = decide(phi, DecideConfig(engine="shadow"))
    assert print_term(d.witness_lambda) == "\\x1:(c->c->c)->c. x1"
    assert (d.stats["witnesses"], len(built)) == (7001, 1)


def test_shadow_witness_and_count_match_solve():
    for phi in formula_corpus():
        d = decide(phi, DecideConfig(engine="shadow", time_budget=5))
        if d.verdict == "ResourceExhausted" and d.stats["exhausted_by"] == "time":
            continue
        terms = _Solver(phi).solve()
        assert d.stats["witnesses"] == len(terms), print_formula(phi)
        assert d.witness_lambda == (terms[0] if terms else None), print_formula(phi)


def test_time_budget_holds_on_many_free_variables():
    # a node of right-nested a->...->a with 24 arrows has up to 24 free
    # variables, so 2^24 function sides; the deadline is checked per side.
    # The search runs in a child process, killed at the hard timeout, so a
    # regression fails instead of hanging the suite.
    code = (
        "import json, time\n"
        "from ticket.formula import parse_formula\n"
        "from ticket.shadow import DecideConfig, decide\n"
        "phi = parse_formula('->'.join(['a'] * 25))\n"
        "t0 = time.monotonic()\n"
        "d = decide(phi, DecideConfig(engine='shadow', time_budget=0.5))\n"
        "print(json.dumps([d.verdict, d.stats.get('time_budget_hit'), time.monotonic() - t0]))\n"
    )
    src = os.path.dirname(os.path.dirname(ticket.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=10,
        check=True,
    )
    verdict, budget_hit, seconds = json.loads(proc.stdout)
    assert verdict == "ResourceExhausted"
    assert budget_hit is True
    assert seconds < 0.5 + 0.5


def test_solutions_are_built_canonical():
    for phi in formula_corpus():
        if len(subformulas(phi)) > 5:
            continue
        for m in _Solver(phi).solve():
            assert alpha_canonical(m) == m


def test_no_search_hashes_a_term(monkeypatch):
    # the searches keep states and build a term only for what they return,
    # so no set or dict of terms is left on the decision path
    def unhashable(self):
        raise AssertionError(f"{type(self).__name__} hashed")

    for cls in (Var, Lam, App, VarRef):
        monkeypatch.setattr(cls, "__hash__", unhashable)
    with pytest.raises(AssertionError):
        hash(Var(VarRef(1, a)))
    for engine in ("auto", "bounded", "shadow"):
        for phi in formula_corpus():
            decide(phi, DecideConfig(engine=engine, time_budget=0.2))


def _hist(arity, psi, constraints):
    """An ancestor history whose (arity, psi) entries have the given chis."""
    return frozenset((arity, psi, c) for c in constraints)


def test_feasibility_test_checks_the_deadline():
    # one feasibility test can try MAX_LABEL_CANDIDATES tag patterns (one
    # ran for about 19 s on ((b->c->a)->a)->a->a), so the deadline is
    # checked per pattern, not only per search node
    chi, hist = (a, a, a), _hist(2, a, [(Atom("b"),)])
    assert _Solver(a)._feasible(chi, 2, a, hist) is True
    with pytest.raises(TimeoutError):
        _Solver(a, deadline=0.0)._feasible(chi, 2, a, hist)


def test_unconstrained_feasibility_computes_no_closure(monkeypatch):
    # with no constraint every node is feasible, and no closure is computed;
    # neither is one for the tags of the first finest pattern, which
    # `_comb_tags` gives: distinct tags when there are enough subformulas
    def closure(seqs):
        raise AssertionError("contraction_closure called")

    monkeypatch.setattr(ticket.shadow, "contraction_closure", closure)
    b, c = Atom("b"), Atom("c")
    none = frozenset()
    solver = _Solver(parse_formula("a->a"))
    for chi in [(), (a, b, c), (a, b, c, a), (a,) * 9]:
        assert solver._feasible(chi, 1, a, none) is True
        assert solver._feasible(chi, 2, a, _hist(1, a, [chi])) is True
    assert solver.exact
    assert _comb_tags((), none, [a]) == ()
    assert _comb_tags((a, b, c), none, [a, b, c]) == (a, b)
    assert _comb_tags((a, b, c), none, [c, a]) == (c, a)
    assert _comb_tags((a, b, c, a), none, [c, a]) == (c, c, a)


def test_label_candidate_cap_makes_the_search_inexact(monkeypatch):
    # the comb with tags a, b, a, the second finest pattern tried, is the
    # first whose graft closure misses (a, a, b); with one candidate
    # allowed the test gives up, and says so
    b = Atom("b")
    chi, constraints = (a, b, a, b), frozenset({(a, a, b)})
    assert _comb_tags(chi, constraints, [a, b]) == (a, b, a)
    # a->a has two subformulas, as many tags as [a, b]
    hist = _hist(2, a, constraints)
    assert _Solver(parse_formula("a->a"))._feasible(chi, 2, a, hist) is True
    monkeypatch.setattr(ticket.shadow, "MAX_LABEL_CANDIDATES", 1)
    solver = _Solver(parse_formula("a->a"))
    assert solver._feasible(chi, 2, a, hist) is False
    assert solver.exact is False
    d = decide(parse_formula("((a->b->a)->a)->a"), DecideConfig(engine="shadow"))
    assert d.verdict == "ResourceExhausted"
    assert (d.stats["step"], d.stats["exhausted_by"]) == ("shadow", "label_candidates")
    assert d.stats["closure_complete"] is True and d.stats["closure_exact"] is False


def _coarse_universes(chi, max_classes):
    """(classes, graft-closure universe) for every spine-tag pattern of chi's
    comb with at most max_classes classes, each pattern written as a
    restricted-growth string."""
    out = []
    for tags in itertools.product(range(max_classes), repeat=max(0, len(chi) - 1)):
        if all(t <= max(tags[:i], default=-1) + 1 for i, t in enumerate(tags)):
            out.append((len(set(tags)), _comb_universe(chi, tags)))
    return out


def test_finest_tag_patterns_lose_nothing():
    # a coarser pattern allows every graft a finer one does, so a comb fits
    # with some pattern of at most s classes iff one fits with exactly
    # min(n - 1, s): the feasibility test agrees with trying every pattern
    # on every chi of length 1-6 over a, b, c, for s = 1..4 subformulas
    b, c = Atom("b"), Atom("c")
    constraint_sets = [
        frozenset(cs)
        for cs in (
            [(a,)],
            [(a, a)],
            [(a, b)],
            [(a, a, b)],
            [(b, a), (c,)],
            [(a, b, a), (b, c)],
        )
    ]
    solvers = {s: _Solver(parse_formula("->".join("a" * s))) for s in range(1, 5)}
    assert [len(solver.subs) for solver in solvers.values()] == [1, 2, 3, 4]
    cases, outcomes = 0, collections.Counter()
    for n in range(1, 7):
        for chi in itertools.product((a, b, c), repeat=n):
            universes = _coarse_universes(chi, 4)
            for s, solver in solvers.items():
                for constraints in constraint_sets:
                    any_fits = any(not (u & constraints) for k, u in universes if k <= s)
                    assert solver._feasible(chi, 2, a, _hist(2, a, constraints)) == any_fits
                    outcomes[any_fits] += 1
                    cases += 1
    assert cases == 26_208
    assert outcomes[True] and outcomes[False]


def test_shadow_search_over_the_census_is_pinned():
    # the search alone on every formula of at most 4 arrows over a, b, c;
    # it is quick because the feasibility test tries only the finest
    # tag patterns
    expanded = solutions = solved = inexact = incomplete = 0
    for phi in formula_corpus(4, (a, Atom("b"), Atom("c"))):
        solver = _Solver(phi)
        states = solver.sols((), phi, frozenset(), False)
        expanded += solver.expanded
        solutions += len(states)
        solved += bool(states)
        inexact += not solver.exact
        incomplete += not solver.complete
    assert (expanded, solutions, solved, inexact, incomplete) == (467_817, 30, 21, 18, 0)


def test_caps_resource_exhaustion(monkeypatch):
    monkeypatch.setattr(ticket.shadow, "MAX_SHADOW_NODES", 2)
    phi = parse_formula("(x->y)->((p->x)->(p->y))")
    d = decide(phi, DecideConfig(engine="shadow"))
    assert d.verdict == "ResourceExhausted"
    assert (d.stats["step"], d.stats["exhausted_by"]) == ("shadow", "max_shadow_nodes")


@pytest.mark.parametrize(
    "text,engine,step,limit",
    [
        ("a->b->a", "bounded", "bounded", "max_oracle_nodes"),
        # complete, but one feasibility test runs out of tag patterns
        ("((a->b->a)->a)->a", "shadow", "shadow", "label_candidates"),
    ],
)
def test_exhaustion_names_step_and_limit(text, engine, step, limit):
    d = decide(parse_formula(text), DecideConfig(engine=engine))
    assert d.verdict == "ResourceExhausted"
    assert (d.stats["step"], d.stats["exhausted_by"]) == (step, limit)
    assert "time_budget_hit" not in d.stats


SHADOW_COUNTS = {"expanded", "witnesses", "closure_complete", "closure_exact"}
STEPS = ["countermodel", "bounded", "shadow"]


@pytest.mark.parametrize(
    "text,engine,shadow_nodes,verdict,limit,counts,steps",
    [
        ("a->(b->a)", "auto", 40, "Empty", None, {"matrices_tried"}, STEPS[:1]),
        ("a->a", "auto", 40, "Inhabited", None, {"terms"}, STEPS[:2]),
        # its 11-node witness is past the oracle's bound
        (
            "(a->a->c->b)->(c->a)->c->b",
            "auto", 40, "Inhabited", None, {"terms", *SHADOW_COUNTS}, STEPS,
        ),
        # no 3-valued matrix refutes it
        ("((c->c)->c)->c", "auto", 40, "Empty", None, {"terms", *SHADOW_COUNTS}, STEPS),
        (
            "a->b->a",
            "bounded", 40, "ResourceExhausted", "max_oracle_nodes", {"terms"}, ["bounded"],
        ),
        (
            "((a->b->a)->a)->a",
            "shadow", 40, "ResourceExhausted", "label_candidates", SHADOW_COUNTS, ["shadow"],
        ),
        (
            "(x->y)->((p->x)->(p->y))",
            "shadow", 2, "ResourceExhausted", "max_shadow_nodes", SHADOW_COUNTS, ["shadow"],
        ),
    ],
)
def test_decided_paths_pin_their_stats_and_times(
    monkeypatch, text, engine, shadow_nodes, verdict, limit, counts, steps
):
    # every path that does not time out: the stats name the step that gave
    # the verdict and hold the counters of the steps that ran, and only a
    # last step's own limit; the times are apart, one per step that ran
    monkeypatch.setattr(ticket.shadow, "MAX_SHADOW_NODES", shadow_nodes)
    d = decide(parse_formula(text), DecideConfig(engine=engine))
    assert d.verdict == verdict
    exhausted = {"step": steps[-1], "exhausted_by": limit} if limit else {}
    assert d.stats == {
        "engine": steps[-1],
        **{key: d.stats[key] for key in counts},
        **exhausted,
    }
    extract = ["time_extract"] if verdict == "Inhabited" else []
    assert set(d.times) == {"wall_time", *[f"time_{s}" for s in steps], *extract}
    assert all(seconds >= 0 for seconds in d.times.values())


@pytest.mark.parametrize("engine", ["bounded", "shadow"])
def test_timeout_names_the_engine_step(engine):
    # the budget has run out at the engine's first deadline check
    d = decide(parse_formula("(x->y)->((p->x)->(p->y))"), DecideConfig(engine, 1e-9))
    assert d.verdict == "ResourceExhausted"
    assert d.stats["time_budget_hit"] is True
    assert (d.stats["engine"], d.stats["step"], d.stats["exhausted_by"]) == (engine, engine, "time")


def _out_of_time(*args):
    raise TimeoutError


def _late_time(late: int = 1) -> SimpleNamespace:
    """A stand-in for the `time` module whose clock reads past every
    deadline from its `late`-th read on."""
    reads = []

    def monotonic() -> float:
        reads.append(None)
        return math.inf if len(reads) >= late else 0.0

    return SimpleNamespace(monotonic=monotonic)


def test_timed_out_oracle_keeps_its_count(monkeypatch):
    # by level, the oracle builds 3, 0, 1, 0, 2, 2, 1 and 1 states up to
    # its 8-node witness. Stopped at its first deadline check, it has built
    # the 3 variables of size 1, at the antecedents p, p->x and x->y of
    # phi's positive arrows; stopped at its eighth, those, the states of
    # sizes 3 and 5 and one of the 2 states of size 6
    phi = parse_formula("(x->y)->((p->x)->(p->y))")
    assert decide(phi, DecideConfig("bounded")).stats["terms"] == 10
    d = decide(phi, DecideConfig("bounded", 1e-9))
    assert d.verdict == "ResourceExhausted"
    assert (d.stats["step"], d.stats["exhausted_by"], d.stats["terms"]) == ("bounded", "time", 3)
    monkeypatch.setattr(ticket.oracle, "time", _late_time(8))
    d = decide(phi, DecideConfig("bounded", 60.0))
    assert (d.stats["exhausted_by"], d.stats["terms"]) == ("time", 7)


@pytest.mark.parametrize("step", ["countermodel", "bounded", "shadow"])
def test_auto_timeout_names_the_step(monkeypatch, step):
    # the step's deadline check fires: the sweep is made to overrun the
    # budget after its last check, the oracle to read a clock past every
    # deadline, and the shadow search to raise as at a check
    if step == "countermodel":
        real = ticket.shadow.refute

        def slow_refute(phi, deadline):
            out = real(phi, deadline)
            time.sleep(0.02)
            return out

        monkeypatch.setattr(ticket.shadow, "refute", slow_refute)
    elif step == "bounded":
        monkeypatch.setattr(ticket.oracle, "time", _late_time())
    else:
        monkeypatch.setattr(ticket.shadow._Solver, "sols", _out_of_time)
    # a non-theorem with no 3-valued countermodel and no witness, so the
    # auto engine reaches every step
    d = decide(parse_formula("((c->c)->c)->c"), DecideConfig(time_budget=0.01))
    assert d.verdict == "ResourceExhausted"
    # a timed-out step keeps the counts reached: the oracle's 2 variables of
    # size 1 at its first deadline check, or all of its 3 states and no
    # shadow expansion
    reached = {
        "countermodel": {},
        "bounded": {"terms": 2},
        "shadow": {"terms": 3, "expanded": 0},
    }[step]
    assert d.stats == {
        "engine": "auto",
        "time_budget_hit": True,
        **reached,
        "step": step,
        "exhausted_by": "time",
    }
    # and the time of each step that ran, the one that timed out too
    steps = ["countermodel", "bounded", "shadow"]
    times = [f"time_{s}" for s in steps[: steps.index(step) + 1]]
    assert set(d.times) == {"wall_time", *times}
    assert all(d.times[key] >= 0 for key in times)


def _product_splits(chi):
    """Reference split: each position of chi goes to the function side (L),
    the argument side (R) or both (B), and the last function-side position
    must also be on the argument side."""
    r = len(chi)
    out = []
    for assign in itertools.product("LRB", repeat=r):
        pos1 = tuple(i + 1 for i in range(r) if assign[i] in "LB")
        pos2 = tuple(i + 1 for i in range(r) if assign[i] in "RB")
        if pos1 and (not pos2 or pos1[-1] > pos2[-1]):
            continue
        out.append((tuple(chi[p - 1] for p in pos1), pos1, tuple(chi[p - 1] for p in pos2), pos2))
    return out


def _two_stage_splits(chi):
    r = len(chi)
    fn_positions = [pos1 for pos1, _ in free_splits(r)]
    assert len(fn_positions) == 2 ** r
    return [
        (tuple(chi[p - 1] for p in pos1), pos1, tuple(chi[p - 1] for p in pos2), pos2)
        for pos1, pos2s in free_splits(r)
        for pos2 in pos2s
    ]


def _oracle_splits(chi, sides):
    """The oracle's merges of the given (function-side, argument-side) free
    types that give the merged types chi."""
    out = []
    for chi1, chi2 in sides:
        ab = chi1 + chi2
        for pos1, pos2, pick, shared in ticket.oracle._splits(len(chi1), len(chi2), len(chi)):
            if tuple([ab[k] for k in pick]) == chi and all(ab[i] == ab[j] for i, j in shared):
                out.append((chi1, pos1, chi2, pos2))
    return out


def test_two_stage_split_matches_product():
    # a split depends only on which positions of chi hold equal types, so one
    # chi per equality pattern stands for every chi over three atoms
    atoms = [Atom("a"), Atom("b"), Atom("c")]
    checked = 0
    for r in range(7):
        for pattern in (p for k in range(4) for p in _patterns(r, k)):
            chi = tuple(atoms[c] for c in pattern)
            product = _product_splits(chi)
            two_stage = _two_stage_splits(chi)
            assert len(set(two_stage)) == len(two_stage)
            assert set(two_stage) == set(product)
            # the oracle's view: both sides' sizes fixed, at most 4 each,
            # and their types drawn from chi
            by_sizes = {}
            for split in product:
                by_sizes.setdefault((len(split[1]), len(split[3])), set()).add(split)
            subseqs = [
                {tuple(chi[i] for i in c) for c in itertools.combinations(range(r), n)}
                for n in range(5)
            ]
            for p, q in itertools.product(range(5), repeat=2):
                sides = itertools.product(subseqs[p], subseqs[q])
                oracle_view = _oracle_splits(chi, sides)
                assert len(set(oracle_view)) == len(oracle_view)
                assert set(oracle_view) == by_sizes.get((p, q), set())
            checked += 1
    assert checked == 1 + 1 + 2 + 5 + 14 + 41 + 122


PEIRCE = "((a->b)->a)->a"
C = "(a->b->c)->b->a->c"


@pytest.mark.parametrize("text", [C, PEIRCE])
def test_search_builds_no_blueprint(text, monkeypatch):
    calls = []
    comb = ticket.compact._comb
    monkeypatch.setattr(ticket.compact, "_comb", lambda *args: calls.append(args) or comb(*args))
    assert _Solver(parse_formula(text)).solve() == ()
    assert calls == []


def test_enumerated_shadows_label_inner_nodes_with_combs():
    enum = enumerate_compact_shadows(parse_formula("(a->a->b)->a->b"))
    assert enum.shadows
    for x in enum.shadows:
        leaves = set(x.leaves())
        for addr, label in x.entries:
            if addr in leaves:
                continue
            # a comb over n leaves has n - 1 application nodes
            assert len(label.gamma) == max(0, 2 * len(label.chi_seq) - 1)
            assert label.chi_seq in f_of(label.gamma)


# the search visits the same calls whatever order its loops take, so these
# counts must not move when the loops are reordered or made cheaper
@pytest.mark.parametrize(
    "text,expanded,witnesses",
    [
        ("a->b->a", 18, 0),
        (C, 162, 0),
        (PEIRCE, 12, 0),
        ("(a->c)->(c->(b->a)->a)->c->a", 4597, 0),
        ("(c->b->c)->(b->b)->b->c->c", 3485, 0),
        ("(a->a->b)->a->b", 35, 1),
        ("(b->c)->(a->b)->a->c", 144, 1),
        # each argument side is searched once per call, not once per
        # function side: 162 359 expansions otherwise
        ("((b->b->a)->b)->(b->b->b->a)->b", 26180, 144),
    ],
)
def test_shadow_search_stats_are_pinned(text, expanded, witnesses):
    d = decide(parse_formula(text), DecideConfig(engine="shadow"))
    stats = d.stats
    assert set(stats) == {"engine", "expanded", "witnesses", "closure_complete", "closure_exact"}
    assert set(d.times) == {"wall_time", "time_shadow"} | ({"time_extract"} if witnesses else set())
    assert (stats["expanded"], stats["witnesses"]) == (expanded, witnesses)
    assert stats["closure_complete"] and stats["closure_exact"]


def test_census_up_to_four_arrows():
    # every formula of at most 4 arrows over a, b, c is decided; the 18
    # shadow Empty verdicts carry no countermodel yet
    census = formula_corpus(4, (a, Atom("b"), Atom("c")))
    assert len(census) == 3873
    decisions = [decide(phi, DecideConfig(time_budget=2.0)) for phi in census]
    counts = collections.Counter((d.stats["engine"], d.verdict) for d in decisions)
    assert counts == {
        ("countermodel", "Empty"): 3834,
        ("bounded", "Inhabited"): 21,
        ("shadow", "Empty"): 18,
    }
    refuted = [phi for phi, d in zip(census, decisions) if d.stats["engine"] == "countermodel"]
    assert all(bounded_decide(phi, ticket.oracle.MAX_ORACLE_NODES) is None for phi in refuted)
    for phi, d in zip(census, decisions):
        if d.stats["engine"] != "countermodel":
            assert decide(phi, DecideConfig(engine="shadow", time_budget=2.0)).verdict == d.verdict
    # shadow never contradicts a countermodel; a 0.1 s budget may leave it
    # undecided, and every fifth refuted formula keeps the test short
    for phi in refuted[::5]:
        verdict = decide(phi, DecideConfig(engine="shadow", time_budget=0.1)).verdict
        assert verdict in ("Empty", "ResourceExhausted")
