"""Implicational formulas: the interned data type, parser, printer,
subformula machinery, and the contraction closure of formula sequences.

The only connective is the arrow. Atom identity is by name string; there is
no unification and no atom schemata anywhere in this package.

Formulas are hash-consed: `Atom(name)` and `Imp(antecedent, consequent)`
return the one live object for that name or pair, so equal formulas are one
object, and equality and hashing are those of `object`. The intern table
holds weak references, so a formula leaves it once nothing else holds it.
Pickling and copying go through the constructors, so they return the live
formula too.
"""
from __future__ import annotations

from _weakref import _remove_dead_weakref
import re
import sys
import threading
import weakref

from .record import Record, slot_setters


class FormulaSyntaxError(ValueError):
    """Malformed formula text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# The intern table: an atom's name, or an arrow's (antecedent, consequent)
# pair, -> a weak reference to the formula. An entry is written only under
# _lock and only where its key has no live formula, and the reference's
# callback deletes the entry only while it is dead (`_remove_dead_weakref`),
# so a live formula is never displaced. The lock is reentrant: a garbage
# collection during a miss may run code on the same thread that builds
# formulas. Hits take no lock: a live formula found in the table is the one
# for its key. `ref and ref()` is the formula of an entry, or None when the
# entry is missing or dead.
_table: dict[str | tuple, weakref.ref] = {}
_lock = threading.RLock()


def _intern(cls: type, key: str | tuple, *fields):
    """The live formula at `key`, or else a new `cls` with `fields`, entered
    at `key`."""
    ref = _table.get(key)
    f = ref and ref()
    if f is None:
        with _lock:
            ref = _table.get(key)
            f = ref and ref()
            if f is None:
                f = object.__new__(cls)
                for set_field, value in zip(cls._setters, fields):
                    set_field(f, value)
                # a plain ref with a closure, not a KeyedRef, whose
                # constructor is Python code: slow on its first call in a
                # freshly forked process
                _table[key] = weakref.ref(f, lambda _, key=key: _remove_dead_weakref(_table, key))
    return f


class Atom(Record):
    """An atom. Formulas are records compared by identity: interning makes
    equal formulas one object."""

    __slots__ = ("name", "__weakref__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, name: str) -> Atom:
        if not _NAME.fullmatch(name):
            raise ValueError(f"bad atom name: {name!r}")
        return _intern(cls, name, name)

    def __reduce__(self):
        return (Atom, (self.name,))

    def __repr__(self) -> str:
        return f"Atom({self.name})"


class Imp(Record):
    """An arrow."""

    __slots__ = ("antecedent", "consequent", "__weakref__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, antecedent: Formula, consequent: Formula) -> Imp:
        return _intern(cls, (antecedent, consequent), antecedent, consequent)

    def __reduce__(self):
        return (Imp, (self.antecedent, self.consequent))

    def __repr__(self) -> str:
        return f"Imp({self.antecedent!r}, {self.consequent!r})"


Atom._setters = slot_setters(Atom)
Imp._setters = slot_setters(Imp)
Formula = Atom | Imp


# One token a match: an arrow, a parenthesis, an atom name, or any other
# single non-space character, which is an error. Whitespace falls between
# the matches.
_TOKEN = re.compile(r"->|[()]|[A-Za-z][A-Za-z0-9_]*|\S")


def _syntax_error(text: str, index: int | None, message: str) -> FormulaSyntaxError:
    """The error of a parse that failed at token `index`: `message` with the
    token put in, or the end of input when there is no such token. A
    character that starts no token is reported first, wherever it is. An
    `index` of None reports `message` itself at offset 0."""
    matches = list(_TOKEN.finditer(text))
    for m in matches:
        token = m.group()
        if token not in ("->", "(", ")") and not _NAME.fullmatch(token):
            return FormulaSyntaxError(f"unexpected character {token!r}", m.start())
    if index is None:
        return FormulaSyntaxError(message, 0)
    if index == len(matches):
        return FormulaSyntaxError("unexpected end of input", len(text))
    m = matches[index]
    return FormulaSyntaxError(message.format(repr(m.group())), m.start())


def _fold(operands: list[Formula]) -> Formula:
    """operands[0] -> operands[1] -> ... -> operands[-1]. A live arrow is
    read from the intern table with no constructor call."""
    f = operands[-1]
    for i in range(len(operands) - 2, -1, -1):
        a = operands[i]
        ref = _table.get((a, f))
        g = ref and ref()
        f = Imp(a, f) if g is None else g
    return f


def parse_formula(text: str) -> Formula:
    """Parse `F ::= atom | F "->" F | "(" F ")"` with right-associative arrow.

    Input nested deeper than the interpreter's recursion limit is a syntax
    error, so that no recursive consumer of the result overflows. Nesting
    counts what a recursive descent would hold on its stack: two frames per
    open parenthesis, and one per arrow whose right side is still open."""
    tokens = _TOKEN.findall(text)
    limit = sys.getrecursionlimit()
    depth = 0
    levels: list[list[Formula]] = []  # the operands of each enclosing level
    operands: list[Formula] = []  # the arrow chain of the current level
    want_operand = True
    for index, token in enumerate(tokens):
        if want_operand:
            if token == "(":
                depth += 2
                if depth > limit:
                    raise _syntax_error(text, None, "formula nested too deeply")
                levels.append(operands)
                operands = []
                continue
            ref = _table.get(token)
            atom = ref and ref()
            if atom is None:
                if token in ("->", ")") or not _NAME.fullmatch(token):
                    raise _syntax_error(text, index, "unexpected {}")
                atom = Atom(token)
            operands.append(atom)
            want_operand = False
        elif token == "->":
            depth += 1
            if depth > limit:
                raise _syntax_error(text, None, "formula nested too deeply")
            want_operand = True
        elif token == ")" and levels:
            depth -= len(operands) + 1
            inner = _fold(operands)
            operands = levels.pop()
            operands.append(inner)
        else:
            raise _syntax_error(text, index, "expected ')'" if levels else "trailing input {}")
    if want_operand or levels:
        raise _syntax_error(text, len(tokens), "")
    return _fold(operands)


def print_formula(f: Formula, texts: dict | None = None) -> str:
    """Minimal-parentheses printing, arrow right-associative. Each distinct
    subformula is printed once; pass one `texts` dict to several calls to
    share that work between them. Iterative, so depth is no limit."""
    if f.__class__ is Atom:
        return f.name
    if texts is None:
        texts = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if g in texts:
            stack.pop()
            continue
        a, c = g.antecedent, g.consequent
        left = a.name if a.__class__ is Atom else texts.get(a)
        right = c.name if c.__class__ is Atom else texts.get(c)
        if left is None or right is None:
            if left is None:
                stack.append(a)
            if right is None:
                stack.append(c)
            continue
        stack.pop()
        texts[g] = f"({left})->{right}" if a.__class__ is Imp else f"{left}->{right}"
    return texts[f]


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of f, f included. Iterative, so depth is no limit."""
    seen: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g not in seen:
            seen.add(g)
            if isinstance(g, Imp):
                stack += (g.antecedent, g.consequent)
    return frozenset(seen)


def contraction_closure(seqs: frozenset[tuple[Formula, ...]]) -> frozenset[tuple[Formula, ...]]:
    """The sequences, seqs included, that merging adjacent equal formulas
    reaches from seqs."""
    seen = set(seqs)
    frontier = list(seqs)
    while frontier:
        s = frontier.pop()
        for i in range(1, len(s)):
            if s[i] == s[i - 1]:
                shorter = s[:i] + s[i + 1:]
                if shorter not in seen:
                    seen.add(shorter)
                    frontier.append(shorter)
    return frozenset(seen)


def formula_sort_key(f: Formula) -> str:
    """Deterministic total order on formulas, used wherever sets get serialized."""
    return print_formula(f)


def sorted_subformulas(f: Formula) -> list[Formula]:
    """The subformulas of f in `formula_sort_key` order. The keys are printed
    through one `texts` dict, so each subformula is printed once, not once
    per key."""
    texts: dict[Formula, str] = {}
    return sorted(subformulas(f), key=lambda g: print_formula(g, texts))
