"""The immutable records of the decision path: fields, equality, hashing,
repr, pickling and immutability, as the frozen dataclasses they replace
had them."""
import copy
import pickle
import weakref

import pytest

from ticket.combinators import MP, Axiom
from ticket.countermodel import Countermodel
from ticket.formula import Atom, Imp, parse_formula
from ticket.shadow import DecideConfig
from ticket.terms import App, InvalidTerm, Lam, Var, VarRef

A = Atom("a")
AA = parse_formula("a->a")


def _records():
    """Each record class with the fields of one value: a list of
    (class, field names, field values)."""
    ref = VarRef(1, A)
    ax = Axiom("I", AA)
    return [
        (VarRef, ("rank", "var_type"), (1, A)),
        (Var, ("ref",), (ref,)),
        (Lam, ("binder", "body"), (ref, Var(ref))),
        (App, ("fn", "arg"), (Var(VarRef(1, AA)), Var(ref))),
        (Axiom, ("kind", "instantiated_type"), ("I", AA)),
        (MP, ("left", "right", "result_type"), (ax, ax, AA)),
        (Countermodel, ("table", "designated", "assignment"), ((0,) * 9, (1,), (("a", 0),))),
        (DecideConfig, ("engine", "time_budget"), ("shadow", 1.5)),
    ]


@pytest.mark.parametrize("cls,names,values", _records(), ids=[r[0].__name__ for r in _records()])
def test_record_behaves_as_a_frozen_dataclass(cls, names, values):
    assert cls.__slots__ == names
    r = cls(*values)
    assert r == cls(**dict(zip(names, values)))
    assert hash(r) == hash(cls(*values))
    assert tuple(getattr(r, name) for name in names) == values
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(r) == f"{cls.__name__}({fields})"
    assert pickle.loads(pickle.dumps(r)) == r
    assert copy.deepcopy(r) == r
    assert r != values and r != object()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(r, name, values[0])
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert not hasattr(r, "__dict__")


def test_records_compare_by_class_and_fields():
    ref, ref2 = VarRef(1, A), VarRef(2, A)
    assert Var(ref) != Var(ref2) and Var(ref) != ref
    assert Lam(ref, Var(ref)) != App(Var(ref), Var(ref))
    assert len({App(Var(ref), Var(ref2)), App(Var(ref), Var(ref2)), App(Var(ref2), Var(ref))}) == 2
    assert Axiom("I", AA) != Axiom("W", AA)
    assert DecideConfig() == DecideConfig("auto", None)


def test_record_checks_stay():
    with pytest.raises(InvalidTerm):
        VarRef(0, A)
    with pytest.raises(ValueError):
        DecideConfig(engine="fast")
    with pytest.raises(ValueError):
        DecideConfig(time_budget=0)


def test_formulas_stay_interned_records():
    # equality and hashing are identity; interning makes them structural
    for cls in (Atom, Imp):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    f = Imp(A, A)
    assert f is AA and weakref.ref(f)() is f and not hasattr(f, "__dict__")
    with pytest.raises(AttributeError):
        f.antecedent = A
    with pytest.raises(AttributeError):
        A.name = "b"
