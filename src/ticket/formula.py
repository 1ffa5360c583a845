"""Implicational formulas: the interned data type, parser, printer,
subformula machinery, and the contraction closure of formula sequences.

The only connective is the arrow. Atom identity is by name string; there is
no unification and no atom schemata anywhere in this package.

Formulas are hash-consed: `Atom(name)` and `Imp(antecedent, consequent)`
return the one live object for that name or pair, so equal formulas are one
object, and equality and hashing are those of `object`. The intern table
holds weak references, so a formula leaves it once nothing else holds it.
Pickling and copying go through the constructors, so they return the live
formula too. Each constructor has one miss path, its builder (`_build_atom`,
`_build_imp`), which the constructor, the parser and `_fold` call when the
table has no live formula for the key. `Atom(name)` checks the name against
the name syntax; the parser checks only a name's first character, as its
tokenizer has already matched the whole name.
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
# pair, -> a weak reference to the formula. Hits take no lock: the
# constructors, the parser and `_fold` read a live formula from the table
# themselves, and only on a miss call the constructor's builder, `_build_atom`
# or `_build_imp`, its one miss path. A builder writes an entry only under
# _lock and only where its key has no live formula, and the reference's
# callback deletes the entry only while it is dead (`_remove_dead_weakref`),
# so a live formula is never displaced. The lock is reentrant: a garbage
# collection during a miss may run code on the same thread that builds
# formulas. `ref and ref()` is the formula of an entry, or None when the
# entry is missing or dead. A reference is a plain ref with a closure, not a
# KeyedRef, whose constructor is Python code: slow on its first call in a
# freshly forked process.
_table: dict[str | tuple, weakref.ref] = {}
_lock = threading.RLock()


def _build_atom(name: str) -> Atom:
    """The live atom named `name`, found again under the lock, or else a new
    one, entered in the table. The caller has checked the name."""
    with _lock:
        ref = _table.get(name)
        f = ref and ref()
        if f is None:
            f = object.__new__(Atom)
            _set_name(f, name)
            _table[name] = weakref.ref(f, lambda _, key=name: _remove_dead_weakref(_table, key))
    return f


def _build_imp(antecedent: Formula, consequent: Formula) -> Imp:
    """The live arrow antecedent -> consequent, found again under the lock,
    or else a new one, entered in the table."""
    key = (antecedent, consequent)
    with _lock:
        ref = _table.get(key)
        f = ref and ref()
        if f is None:
            f = object.__new__(Imp)
            _set_antecedent(f, antecedent)
            _set_consequent(f, consequent)
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
        ref = _table.get(name)
        f = ref and ref()
        return _build_atom(name) if f is None else f

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
        ref = _table.get((antecedent, consequent))
        f = ref and ref()
        return _build_imp(antecedent, consequent) if f is None else f

    def __reduce__(self):
        return (Imp, (self.antecedent, self.consequent))

    def __repr__(self) -> str:
        return f"Imp({self.antecedent!r}, {self.consequent!r})"


(_set_name,) = slot_setters(Atom)
_set_antecedent, _set_consequent = slot_setters(Imp)
Formula = Atom | Imp


# One token a match: an arrow, a parenthesis, an atom name, or any other
# single non-space character, which is an error. Whitespace falls between
# the matches.
_TOKEN = re.compile(r"->|[()]|[A-Za-z][A-Za-z0-9_]*|\S")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")


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
    """operands[0] -> operands[1] -> ... -> operands[-1]."""
    f = operands[-1]
    for i in range(len(operands) - 2, -1, -1):
        a = operands[i]
        ref = _table.get((a, f))
        g = ref and ref()
        f = _build_imp(a, f) if g is None else g
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
            # a token that starts with a letter is a whole name: _TOKEN
            # matched it by its name branch
            if token[0] not in _LETTERS:
                raise _syntax_error(text, index, "unexpected {}")
            ref = _table.get(token)
            atom = ref and ref()
            operands.append(_build_atom(token) if atom is None else atom)
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
