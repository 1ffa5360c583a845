"""HRM lambda terms as labeled trees.

Variables carry a rank (a positive integer realizing the total order on
variables) and a declared type. Terms are not identified modulo alpha
conversion. A term is canonical when its p free ranks are 1..p and its
bound ranks are p+1, p+2, ... with no gap; `alpha_canonical` computes that
representative and is the reference. Both searches build only canonical
terms, through one term builder, `oracle.state_term`, which gives each
variable its final rank as it builds the term, so they never
re-canonicalise. Their one split of an application's free variables is
`free_splits`, the HRM application rule; `type_of` checks that rule on its
own and raises NotHRM where a term breaks it. Typing is one walk,
`_typed`, which returns a term's type and free ranks bottom-up, so each
node is visited once: `type_of` is that walk, and `is_nf_inhabitant` runs
it once with the checks of a closed normal term added (distinct binder
ranks, no abstraction in function position). HRM substitution and
normalization, which only the lemma checks use, are in `ticket.compact`,
and so is `is_normal`.
"""
from __future__ import annotations

import itertools
from typing import Iterator

from .formula import Formula, Imp, print_formula
from .record import Record, slot_setters

Address = tuple[int, ...]


class TermError(Exception):
    pass


class InvalidTerm(TermError):
    """Structural or convention violation (rank reuse across types, etc.)."""


class TypingError(TermError):
    pass


class NotHRM(TypingError):
    pass


class TypeMismatch(TypingError):
    pass


class PreconditionViolated(TermError):
    pass


class VarRef(Record):
    __slots__ = ("rank", "var_type")

    def __init__(self, rank: int, var_type: Formula) -> None:
        if rank < 1:
            raise InvalidTerm(f"rank must be positive, got {rank}")
        _set_rank(self, rank)
        _set_var_type(self, var_type)


class Var(Record):
    __slots__ = ("ref",)

    def __init__(self, ref: VarRef) -> None:
        _set_ref(self, ref)


class Lam(Record):
    __slots__ = ("binder", "body")

    def __init__(self, binder: VarRef, body: Term) -> None:
        _set_binder(self, binder)
        _set_body(self, body)


class App(Record):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term) -> None:
        _set_fn(self, fn)
        _set_arg(self, arg)


_set_rank, _set_var_type = slot_setters(VarRef)
(_set_ref,) = slot_setters(Var)
_set_binder, _set_body = slot_setters(Lam)
_set_fn, _set_arg = slot_setters(App)

Term = Var | Lam | App


def addresses(m: Term) -> Iterator[tuple[Address, Term]]:
    """All (address, subterm) pairs in preorder."""
    stack: list[tuple[Address, Term]] = [((), m)]
    while stack:
        a, t = stack.pop()
        yield a, t
        if isinstance(t, Lam):
            stack.append((a + (1,), t.body))
        elif isinstance(t, App):
            stack.append((a + (2,), t.arg))
            stack.append((a + (1,), t.fn))


def node_count(m: Term) -> int:
    return sum(1 for _ in addresses(m))


def _merge_free(left: dict[int, Formula], right: dict[int, Formula]) -> dict[int, Formula]:
    merged = dict(left)
    for rank, ft in right.items():
        if merged.setdefault(rank, ft) != ft:
            raise InvalidTerm(f"rank {rank} used at two different types")
    return merged


def _free_map(m: Term) -> dict[int, Formula]:
    if isinstance(m, Var):
        return {m.ref.rank: m.ref.var_type}
    if isinstance(m, Lam):
        inner = _free_map(m.body)
        if m.binder.rank in inner and inner[m.binder.rank] != m.binder.var_type:
            raise InvalidTerm(f"binder rank {m.binder.rank} occurs at a different type")
        inner = dict(inner)
        inner.pop(m.binder.rank, None)
        return inner
    return _merge_free(_free_map(m.fn), _free_map(m.arg))


def free_vars(m: Term) -> tuple[VarRef, ...]:
    """Free variables as a strictly increasing sequence of VarRef (by rank)."""
    fm = _free_map(m)
    return tuple(VarRef(rank, fm[rank]) for rank in sorted(fm))


def bound_refs(m: Term) -> list[VarRef]:
    """Binder references in preorder traversal order."""
    out: list[VarRef] = []
    for _, t in addresses(m):
        if isinstance(t, Lam):
            out.append(t.binder)
    return out


def _typed(m: Term, binders: set[int] | None = None) -> tuple[Formula, dict[int, Formula]]:
    """The type of m and its free ranks, a rank -> type map, in one walk
    bottom-up; raises on untypable terms.

    Typability subsumes the HRM conditions: abstraction requires the binder to
    be the greatest free variable of the body, application requires the left
    free variables to be dominated by a right free variable. A rank used at
    two types raises InvalidTerm. With a set `binders`, the walk collects the
    binder ranks into it and also raises InvalidTerm on a repeated binder rank
    and on an abstraction in function position (a redex)."""
    if m.__class__ is Var:
        return m.ref.var_type, {m.ref.rank: m.ref.var_type}
    if m.__class__ is Lam:
        binder = m.binder
        if binders is not None:
            if binder.rank in binders:
                raise InvalidTerm("duplicate bound rank")
            binders.add(binder.rank)
        body_type, free = _typed(m.body, binders)
        if not free or max(free) != binder.rank:
            raise NotHRM("binder is not the greatest free variable of its body")
        if free.pop(binder.rank) != binder.var_type:
            raise TypeMismatch("binder type differs from its occurrences")
        return Imp(binder.var_type, body_type), free
    if binders is not None and m.fn.__class__ is Lam:
        raise InvalidTerm("abstraction in function position")
    fn_type, left = _typed(m.fn, binders)
    arg_type, right = _typed(m.arg, binders)
    if fn_type.__class__ is not Imp:
        raise TypeMismatch("left subterm of application is not of arrow type")
    if fn_type.antecedent != arg_type:
        raise TypeMismatch("argument type does not match the antecedent")
    top = max(left, default=0)
    for rank, ft in right.items():
        if left.setdefault(rank, ft) != ft:
            raise InvalidTerm(f"rank {rank} used at two different types")
    if top and (not right or top > max(right)):
        raise NotHRM("application left free variables not dominated by the right")
    return fn_type.consequent, left


def type_of(m: Term) -> Formula:
    """Type of m w.r.t. the declared variable types; raises on untypable terms
    (see `_typed`)."""
    return _typed(m)[0]


def is_nf_inhabitant(m: Term, phi: Formula) -> bool:
    """Whether m is a closed normal HRM term of type phi whose binders have
    distinct ranks, checked in one walk."""
    try:
        m_type, free = _typed(m, set())
    except TermError:
        return False
    return not free and m_type == phi


def _rename_bound(m: Term, mapping: dict[VarRef, VarRef]) -> Term:
    """Replace binder refs and their bound occurrences per mapping."""
    if isinstance(m, Var):
        return Var(mapping.get(m.ref, m.ref))
    if isinstance(m, Lam):
        new_binder = mapping.get(m.binder, m.binder)
        return Lam(new_binder, _rename_bound(m.body, mapping))
    return App(_rename_bound(m.fn, mapping), _rename_bound(m.arg, mapping))


def rename_bound_above(m: Term, base: int) -> Term:
    """Re-rank every bound variable of m strictly above `base`, preserving the
    relative rank order among bound variables. Free occurrences untouched."""
    bounds = sorted(set(bound_refs(m)), key=lambda r: r.rank)
    mapping = {old: VarRef(base + i + 1, old.var_type) for i, old in enumerate(bounds)}
    return _rename_bound(m, mapping) if mapping else m


def free_splits(
    r: int, fn_size: int | None = None, arg_size: int | None = None
) -> Iterator[tuple[tuple[int, ...], Iterator[tuple[int, ...]]]]:
    """The HRM splits of free ranks 1..r between an application's sides: the
    function side takes the ranks pos1 and the argument side the ranks pos2,
    together every rank (a rank on both sides is a shared variable), and the
    argument side holds rank r, so it dominates the function side's greatest
    rank. Yields each pos1 with a lazy iterator over its pos2, so a caller can
    skip or stop between sides; `fn_size` and `arg_size` fix len(pos1) and
    len(pos2). Positions come increasing: a side's free rank i goes to its
    i-th position, so each side keeps the order of its free variables, the
    only thing about ranks that HRM typing reads."""
    ranks = range(1, r + 1)

    def arg_sides(pos1: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        rest = tuple([k for k in ranks if k not in pos1])
        last = (r,) if pos1[-1:] == (r,) else ()  # rank r, shared
        optional = pos1[: len(pos1) - len(last)]
        for k in range(len(optional) + 1):
            if arg_size is None or arg_size == len(rest) + len(last) + k:
                for shared in itertools.combinations(optional, k):
                    yield tuple(sorted(rest + shared + last))

    for p in range(r + 1) if fn_size is None else (fn_size,):
        for pos1 in itertools.combinations(ranks, p):
            yield pos1, arg_sides(pos1)


def alpha_canonical(m: Term) -> Term:
    """Deterministic representative: bound ranks become the smallest fresh
    ranks above all free ranks, assigned in original rank order (so the HRM
    rank constraints are preserved)."""
    _, free = _typed(m)
    return rename_bound_above(m, max(free, default=0))


def print_term(m: Term) -> str:
    """Canonical printing: `\\x<rank>:type. body`, application left-associative."""
    if isinstance(m, Var):
        return f"x{m.ref.rank}"
    if isinstance(m, Lam):
        binder = f"\\x{m.binder.rank}:{print_formula(m.binder.var_type)}"
        return f"{binder}. {print_term(m.body)}"
    fn = print_term(m.fn)
    if isinstance(m.fn, Lam):
        fn = f"({fn})"
    arg = print_term(m.arg)
    if not isinstance(m.arg, Var):
        arg = f"({arg})"
    return f"{fn} {arg}"
