"""3-valued countermodels: the committed matrix table, the countermodel
search and its re-check, and a differential test against the oracle and the
shadow engine."""
import itertools
import random
import time

import pytest

import ticket.countermodel
import ticket.shadow
from ticket.combinators import Axiom
from ticket.countermodel import (
    MATRICES,
    MAX_ATOMS,
    Countermodel,
    CountermodelError,
    _is_model,
    all_matrices,
    check_countermodel,
    countermodel,
    search_matrices,
)
from ticket.formula import Atom, Imp, parse_formula, print_formula
from ticket.oracle import bounded_decide
from ticket.shadow import DecideConfig, decide

from conftest import SEED, formula_corpus, random_derivation

NAMED_FAILURE = parse_formula("((b->c->a)->a)->a->a")

# Formulas of formula_corpus() that a matrix refutes but on which the shadow
# engine gives ResourceExhausted: in one feasibility test no comb fits, and
# the test is not exact because a blueprint that is no comb might.
SHADOW_INEXACT = {
    "((a->b->a)->a)->a",
    "((a->b->b)->b)->b",
    "((b->a->a)->a)->a",
    "((b->a->b)->b)->b",
}


def test_search_matrices_regenerates_the_table():
    assert len(list(all_matrices())) == 441
    assert search_matrices() == MATRICES
    assert len(MATRICES) == 75


def test_named_failure_is_refuted_under_auto():
    t0 = time.monotonic()
    d = decide(NAMED_FAILURE)
    assert time.monotonic() - t0 < 1
    assert d.verdict == "Empty"
    assert d.stats["engine"] == "countermodel"
    check_countermodel(d.countermodel, NAMED_FAILURE)


def _random_formula(rng, arrows, names="abc"):
    if arrows == 0:
        return Atom(rng.choice(names))
    k = rng.randrange(arrows)
    return Imp(_random_formula(rng, k, names), _random_formula(rng, arrows - 1 - k, names))


def _value(f, table, env):
    if isinstance(f, Atom):
        return env[f.name]
    return table[3 * _value(f.antecedent, table, env) + _value(f.consequent, table, env)]


def _atoms(f):
    return {f.name} if isinstance(f, Atom) else _atoms(f.antecedent) | _atoms(f.consequent)


def _naive_countermodel(phi):
    """The reference: every matrix in table order, every assignment in
    lexicographic order, one evaluation at a time; each atom past the first
    MAX_ATOMS, in sorted order, takes the first atom's value. Returns the
    matrix's index and the countermodel."""
    names = sorted(_atoms(phi))
    merged = max(0, len(names) - MAX_ATOMS)
    for m, (table, designated) in enumerate(MATRICES):
        for values in itertools.product(range(3), repeat=len(names) - merged):
            env = dict(zip(names, values + values[:1] * merged))
            if _value(phi, table, env) not in designated:
                return m, Countermodel(table, designated, tuple(sorted(env.items())))
    return None


def _formula_over(rng, names):
    """A random formula in which each of the names occurs."""
    while True:
        phi = _random_formula(rng, rng.randint(len(names) - 1, 2 * len(names) + 2), names)
        if len(_atoms(phi)) == len(names):
            return phi


def test_countermodel_matches_naive_evaluation():
    # the sweep lays its bits out by atom count, so every count is covered
    rng = random.Random(SEED)
    formulas = formula_corpus() + [_random_formula(rng, rng.randint(1, 8)) for _ in range(300)]
    formulas += [_formula_over(rng, "abcdefgh"[:n]) for n in (4, 5, 6, 7, 8) for _ in range(20)]
    # 7 and 8 atoms: non-theorems, so the naive search stops at a countermodel
    assert all(countermodel(phi) for phi in formulas[-40:])
    # 9 atoms: i is merged onto a, and the non-theorem is still refuted
    nine = _formula_over(rng, "abcdefghi")
    assert countermodel(nine)
    for phi in formulas + [nine]:
        assert countermodel(phi) == _naive_countermodel(phi), print_formula(phi)


@pytest.mark.parametrize(
    "text",
    [
        "(a->b)->(b->c)->(c->d)->(d->e)->(e->f)->(f->g)->(g->h)->(h->i)->a->i",
        "(a->b->c->d->e->f->g->h->i)->a->b->c->d->e->f->g->h->i",
    ],
)
def test_theorem_past_max_atoms_is_not_refuted(text):
    # merging i onto a gives an instance of the theorem, which every matrix
    # validates
    phi = parse_formula(text)
    assert len(_atoms(phi)) == MAX_ATOMS + 1
    assert countermodel(phi) is None


def test_countermodel_sweeps_once(monkeypatch):
    # the sweep evaluates no matrix on its own: `_value`, which evaluates
    # a formula in one matrix, is left to `check_countermodel`
    calls = []
    value = ticket.countermodel._value

    def counted(*args):
        calls.append(args)
        return value(*args)

    monkeypatch.setattr(ticket.countermodel, "_value", counted)
    assert countermodel(parse_formula("(a->b->c)->(a->b)->a->c")) is None  # S
    assert calls == []


def test_auto_engine_gives_theorems_no_countermodel():
    d = decide(parse_formula("(a->a->b)->a->b"))
    assert d.verdict == "Inhabited"
    assert d.countermodel is None


def test_auto_refutes_before_the_oracle(monkeypatch):
    def oracle(*args):
        raise AssertionError("the oracle ran on a non-theorem")

    monkeypatch.setattr(ticket.shadow, "bounded_decide", oracle)
    for text in ("a->b->a", "(a->b->c)->b->a->c", "((a->b)->a)->a", "((b->c->a)->a)->a->a"):
        phi = parse_formula(text)
        d = decide(phi)
        assert d.verdict == "Empty", text
        check_countermodel(d.countermodel, phi)


def test_shadow_engine_carries_no_countermodel():
    d = decide(parse_formula("a->b->a"), DecideConfig(engine="shadow"))
    assert d.verdict == "Empty"
    assert d.countermodel is None
    assert d.stats["engine"] == "shadow"


@pytest.mark.parametrize(
    "edit,reason",
    [
        (dict(table=(0, 1, 1, 1, 0, 0, 0, 1, 2)), "does not validate W"),
        (dict(designated=(0, 1)), "not closed under modus ponens"),
        (dict(designated=(0, 1, 2)), "nonempty and proper"),
        (dict(designated=()), "nonempty and proper"),
        (dict(assignment=(("a", 0), ("b", 0), ("c", 0))), "is designated"),
        (dict(assignment=(("a", 2), ("b", 0))), "no value to c"),
    ],
)
def test_check_rejects_edited_countermodels(edit, reason):
    _, cm = countermodel(NAMED_FAILURE)
    check_countermodel(cm, NAMED_FAILURE)
    fields = dict(table=cm.table, designated=cm.designated, assignment=cm.assignment)
    with pytest.raises(CountermodelError, match=reason):
        check_countermodel(Countermodel(**{**fields, **edit}), NAMED_FAILURE)


def test_committed_matrices_are_models():
    assert all(_is_model(table, designated) for table, designated in MATRICES)


def test_checking_a_committed_matrix_lets_no_other_matrix_pass():
    # the committed matrices are found to be models once, at import; a
    # matrix outside them is still checked in full. The first matrix here
    # fails only W; the second, MATRICES[0]'s table with another designated
    # set, validates the four axioms but is not closed under modus ponens.
    _, cm = countermodel(NAMED_FAILURE)
    assert (cm.table, cm.designated) in MATRICES
    check_countermodel(cm, NAMED_FAILURE)
    for table, designated, reason in [
        ((0, 0, 2, 0, 0, 2, 2, 2, 0), (0, 1), "the table does not validate W"),
        ((0, 0, 2, 0, 0, 2, 0, 0, 0), (0,), "the designated set is not closed under modus ponens"),
    ]:
        assert (table, designated) not in MATRICES
        with pytest.raises(CountermodelError, match=reason):
            check_countermodel(Countermodel(table, designated, cm.assignment), NAMED_FAILURE)


def test_check_rejects_another_formula():
    _, cm = countermodel(NAMED_FAILURE)
    with pytest.raises(CountermodelError, match="is designated"):
        check_countermodel(cm, parse_formula("c->c"))


def test_atoms_past_max_atoms_are_merged_onto_the_first():
    # i->h->...->b->a has one atom more than MAX_ATOMS: i is merged onto a
    # for the sweep, takes a's value in the assignment, and the countermodel
    # is checked against phi itself
    names = [Atom(n) for n in "abcdefghi"]
    phi = names[0]
    for atom in names[1:]:
        phi = Imp(atom, phi)
    _, cm = countermodel(phi)
    check_countermodel(cm, phi)
    assignment = dict(cm.assignment)
    assert sorted(assignment) == list("abcdefghi") and assignment["i"] == assignment["a"]
    assert countermodel(Imp(names[1], names[0])) is not None


def test_sweep_checks_the_deadline():
    phi = parse_formula("a->b->a")
    assert countermodel(phi, deadline=time.monotonic() + 60) is not None
    with pytest.raises(TimeoutError):
        countermodel(phi, deadline=0.0)


def test_deep_formula_is_searched():
    a = Atom("a")
    phi = a
    for _ in range(5000):
        phi = Imp(a, phi)
    check_countermodel(countermodel(phi)[1], phi)


def test_countermodels_agree_with_the_engines():
    # formula_corpus(): every formula over a, b with at most 4 arrows
    refuted_inexact = set()
    for phi in formula_corpus():
        found = countermodel(phi)
        if found is None:
            continue
        check_countermodel(found[1], phi)
        assert bounded_decide(phi, 8) is None, print_formula(phi)
        shadow = decide(phi, DecideConfig(engine="shadow")).verdict
        assert shadow != "Inhabited", print_formula(phi)
        if shadow != "Empty":
            refuted_inexact.add(print_formula(phi))
    assert refuted_inexact == SHADOW_INEXACT
    # random formulas over a, b, c, and theorems of random derivations; the
    # shadow engine runs to the end on at most 3 arrows and under a budget
    # above that, so a verdict may be ResourceExhausted there
    budgeted = DecideConfig(engine="shadow", time_budget=0.1)
    rng = random.Random(SEED)
    for _ in range(150):
        arrows = rng.randint(1, 6)
        phi = _random_formula(rng, arrows)
        found = countermodel(phi)
        if found is None:
            if bounded_decide(phi) is not None:
                assert decide(phi, budgeted).verdict != "Empty", print_formula(phi)
            continue
        check_countermodel(found[1], phi)
        assert bounded_decide(phi) is None, print_formula(phi)
        if arrows <= 3:
            assert decide(phi, DecideConfig(engine="shadow")).verdict == "Empty", print_formula(phi)
        else:
            assert decide(phi, budgeted).verdict != "Inhabited", print_formula(phi)
    for _ in range(60):
        d = random_derivation(rng, rng.randint(1, 6))
        theorem = d.instantiated_type if isinstance(d, Axiom) else d.result_type
        assert decide(theorem, budgeted).verdict != "Empty", print_formula(theorem)


def test_no_countermodel_for_derived_theorems():
    rng = random.Random(SEED)
    for _ in range(200):
        d = random_derivation(rng, rng.randint(1, 6))
        theorem = d.instantiated_type if isinstance(d, Axiom) else d.result_type
        assert countermodel(theorem) is None, print_formula(theorem)
