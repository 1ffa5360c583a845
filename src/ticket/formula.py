"""Implicational formulas: data type, parser, printer, subformula machinery,
and the contraction closure of formula sequences.

The only connective is the arrow. Atom identity is by name string; there is
no unification and no atom schemata anywhere in this package.
"""
from __future__ import annotations

from dataclasses import dataclass
import re


class FormulaSyntaxError(ValueError):
    """Malformed formula text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Atom:
    name: str

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", self.name):
            raise ValueError(f"bad atom name: {self.name!r}")

    def __repr__(self) -> str:
        return f"Atom({self.name})"


@dataclass(frozen=True, init=False)
class Imp:
    """An arrow. Its hash is the dataclass's own, hash((antecedent,
    consequent)), computed once at construction: formulas are hashed at
    every dict and set lookup of the search, and a deep formula's hash would
    otherwise recurse through its whole tree. The constructor writes the
    attributes directly: the frozen dataclass's `object.__setattr__` per
    field plus a `__post_init__` would cost half as much again per arrow."""

    antecedent: "Formula"
    consequent: "Formula"

    def __init__(self, antecedent: "Formula", consequent: "Formula") -> None:
        attrs = self.__dict__
        attrs["antecedent"] = antecedent
        attrs["consequent"] = consequent
        attrs["_hash"] = hash((antecedent, consequent))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes, so the cache is not pickled
        return (Imp, (self.antecedent, self.consequent))

    def __repr__(self) -> str:
        return f"Imp({self.antecedent!r}, {self.consequent!r})"


Formula = Atom | Imp


_TOKEN = re.compile(r"\s*(->|\(|\)|[A-Za-z][A-Za-z0-9_]*)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            # trailing whitespace is fine, anything else is not
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise FormulaSyntaxError(f"unexpected character {text[bad]!r}", bad)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def parse_formula(text: str) -> Formula:
    """Parse `F ::= atom | F "->" F | "(" F ")"` with right-associative arrow.
    Input nested beyond the interpreter's recursion limit is a syntax error."""
    tokens = _tokenize(text)
    index = 0

    def peek() -> tuple[str, int] | None:
        return tokens[index] if index < len(tokens) else None

    def advance() -> tuple[str, int]:
        nonlocal index
        tok = peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", len(text))
        index += 1
        return tok

    def parse_arrow() -> Formula:
        left = parse_primary()
        tok = peek()
        if tok is not None and tok[0] == "->":
            advance()
            return Imp(left, parse_arrow())
        return left

    def parse_primary() -> Formula:
        tok = advance()
        text_, offset = tok
        if text_ == "(":
            inner = parse_arrow()
            closing = advance()
            if closing[0] != ")":
                raise FormulaSyntaxError("expected ')'", closing[1])
            return inner
        if text_ in ("->", ")"):
            raise FormulaSyntaxError(f"unexpected {text_!r}", offset)
        return Atom(text_)

    try:
        result = parse_arrow()
    except RecursionError:
        raise FormulaSyntaxError("formula nested too deeply", 0) from None
    trailing = peek()
    if trailing is not None:
        raise FormulaSyntaxError(f"trailing input {trailing[0]!r}", trailing[1])
    return result


def print_formula(f: Formula) -> str:
    """Minimal-parentheses printing, arrow right-associative."""
    if isinstance(f, Atom):
        return f.name
    left = print_formula(f.antecedent)
    if isinstance(f.antecedent, Imp):
        left = f"({left})"
    return f"{left}->{print_formula(f.consequent)}"


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
