"""Immutable records: the value types of the decision path.

A record class lists its fields, in order, as its `__slots__` and sets them
in its own `__init__` through the setters that `slot_setters` returns, which
write the slots directly; a record has no `__dict__`. `Record` supplies the
rest of what a frozen dataclass would: assigning or deleting an attribute
raises AttributeError, `==` and `hash` compare the class and the fields,
`repr` shows the fields by name, and pickling and copying go through the
constructor. The terms use these generic `==` and `hash` too: the searches
keep states, not terms, and hash no term. Nothing here runs code per class
at import, which keeps `dataclasses` and the modules it loads out of the
start-up of `ticket`.
"""
from __future__ import annotations


def slot_setters(cls: type) -> tuple:
    """The setters of cls's fields, its own slots but `__weakref__`, in
    order: `set(record, value)` writes a field of a record under
    construction."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__ if name != "__weakref__")


class Record:
    """The base of a record class (see the module docstring)."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._fields())
