"""Spans around calls into the program's public functions.

A hook replaces a function by a timing wrapper in every `ticket.*` module
that holds a reference to it, the defining module included, so calls made
through `from .x import f` names are seen too. Spans live in memory: hot
functions (terms, blueprint) are folded into per-(name, parent) totals, and
the coarse ones are also kept one by one with start, end and parent; the
caller labels each operation's spans. A layer's self time is the part of its
spans not covered by child spans. A direct recursive call of the same
function opens no span.
"""
from __future__ import annotations

import sys
import time

# (module, function, keep every span); the layer of a span is its module
HOOKS = (
    ("cli", "main", True),
    ("formula", "parse_formula", True),
    ("shadow", "decide", True),
    ("oracle", "bounded_decide", True),
    ("combinators", "extract_combinator", True),
    ("combinators", "check_derivation", True),
    ("blueprint", "canonicalize", False),
    ("blueprint", "contraction_closure", False),
    ("terms", "alpha_canonical", False),
    ("terms", "free_vars", False),
    ("terms", "bound_refs", False),
    ("terms", "type_of", False),
    ("terms", "is_nf_inhabitant", False),
    ("terms", "hrm_normalize", False),
    ("terms", "node_count", False),
    ("terms", "print_term", False),
)


class Tracer:
    """Installs the hooks; collects spans while `active` is true."""

    def __init__(self) -> None:
        self.active = False
        self.stack: list[list] = []  # [name, start, child_seconds, span_id]
        self.totals: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, seconds, self]
        self.spans: list[tuple] = []  # (span id, name, start, end, parent id)
        self._next_id = 0

    def install(self) -> None:
        for module, fname, keep in HOOKS:
            name = f"{module}.{fname}"
            target = _target(module, fname)
            if target is None:
                continue
            wrapper = self._wrap(name, target, keep)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "ticket" or mod_name.startswith("ticket.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, attr, wrapper)

    def take(self) -> tuple[dict, list]:
        """The totals and spans gathered since the last call, then reset."""
        out = ({f"{n}|{p}": v for (n, p), v in self.totals.items()}, self.spans)
        self.totals, self.spans = {}, []
        return out

    def _wrap(self, name, target, keep):
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not self.active or (stack and stack[-1][0] == name):
                return target(*args, **kwargs)
            self._next_id += 1
            frame = [name, clock(), 0.0, self._next_id]
            stack.append(frame)
            try:
                return target(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seconds = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += seconds
                key = (name, parent[0] if parent else "")
                row = self.totals.get(key)
                if row is None:
                    row = self.totals[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += seconds
                row[2] += seconds - frame[2]
                if keep:
                    self.spans.append((frame[3], name, frame[1], end, parent[3] if parent else None))

        wrapper.__wrapped__ = target
        return wrapper


def _target(module, fname):
    import importlib

    try:
        return getattr(importlib.import_module(f"ticket.{module}"), fname)
    except (ImportError, AttributeError):
        return None


def missing_hooks() -> list[str]:
    """Hooks whose target function no longer exists."""
    return [f"{m}.{f}" for m, f, _ in HOOKS if _target(m, f) is None]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
