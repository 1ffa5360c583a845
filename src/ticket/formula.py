"""Implicational formulas: data type, parser, printer, subformula machinery,
and the contraction closure of formula sequences.

The only connective is the arrow. Atom identity is by name string; there is
no unification and no atom schemata anywhere in this package.
"""
from __future__ import annotations

from dataclasses import dataclass
import re
import sys


class FormulaSyntaxError(ValueError):
    """Malformed formula text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Atom:
    name: str

    def __post_init__(self) -> None:
        if not _NAME.fullmatch(self.name):
            raise ValueError(f"bad atom name: {self.name!r}")

    def __repr__(self) -> str:
        return f"Atom({self.name})"


@dataclass(frozen=True, init=False, eq=False)
class Imp:
    """An arrow. Its hash is hash((antecedent, consequent)), computed once at
    construction: formulas are hashed at every dict and set lookup of the
    search, and a deep formula's hash would otherwise recurse through its
    whole tree. Equality tests identity, then the cached hashes, then walks
    both formulas with a stack, so depth is no limit either. The constructor
    writes the attributes directly: the frozen dataclass's
    `object.__setattr__` per field plus a `__post_init__` would cost half as
    much again per arrow."""

    antecedent: "Formula"
    consequent: "Formula"

    def __init__(self, antecedent: "Formula", consequent: "Formula") -> None:
        attrs = self.__dict__
        attrs["antecedent"] = antecedent
        attrs["consequent"] = consequent
        attrs["_hash"] = hash((antecedent, consequent))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Imp:
            return NotImplemented
        pending = []  # pairs of distinct arrows still to compare
        f, g = self, other
        while True:
            if f._hash != g._hash:
                return False
            # both sides written out: the searches compare arrows whose
            # sides are mostly identical, and a loop over them costs more
            x, y = f.antecedent, g.antecedent
            if x is not y:
                if x.__class__ is not y.__class__:
                    return False
                if x.__class__ is Imp:
                    pending.append((x, y))
                elif x.name != y.name:
                    return False
            x, y = f.consequent, g.consequent
            if x is not y:
                if x.__class__ is not y.__class__:
                    return False
                if x.__class__ is Imp:
                    pending.append((x, y))
                elif x.name != y.name:
                    return False
            if not pending:
                return True
            f, g = pending.pop()

    def __reduce__(self):
        # string hashes differ between processes, so the cache is not pickled
        return (Imp, (self.antecedent, self.consequent))

    def __repr__(self) -> str:
        return f"Imp({self.antecedent!r}, {self.consequent!r})"


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


def _fold(operands: list[Formula], table: dict) -> Formula:
    """operands[0] -> operands[1] -> ... -> operands[-1], each arrow taken
    from or added to the sharing table."""
    f = operands[-1]
    for i in range(len(operands) - 2, -1, -1):
        key = (id(operands[i]), id(f))
        g = table.get(key)
        if g is None:
            g = table[key] = Imp(operands[i], f)
        f = g
    return f


def parse_formula(text: str, shared: dict | None = None) -> Formula:
    """Parse `F ::= atom | F "->" F | "(" F ")"` with right-associative arrow.

    Equal subformulas of the result are one object. Pass one `shared` dict,
    empty at first and otherwise opaque, to several calls to share
    subformulas between their results as well: equality tests between them
    then stop at identity.

    Input nested deeper than the interpreter's recursion limit is a syntax
    error, so that no recursive consumer of the result overflows. Nesting
    counts what a recursive descent would hold on its stack: two frames per
    open parenthesis, and one per arrow whose right side is still open."""
    table = {} if shared is None else shared
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
            atom = table.get(token)
            if atom is None:
                if token in ("->", ")") or not _NAME.fullmatch(token):
                    raise _syntax_error(text, index, "unexpected {}")
                atom = table[token] = Atom(token)
            operands.append(atom)
            want_operand = False
        elif token == "->":
            depth += 1
            if depth > limit:
                raise _syntax_error(text, None, "formula nested too deeply")
            want_operand = True
        elif token == ")" and levels:
            depth -= len(operands) + 1
            inner = _fold(operands, table)
            operands = levels.pop()
            operands.append(inner)
        else:
            raise _syntax_error(text, index, "expected ')'" if levels else "trailing input {}")
    if want_operand or levels:
        raise _syntax_error(text, len(tokens), "")
    return _fold(operands, table)


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
