"""Blueprint algebra: stable parts, extraction, extractible-sequence sets,
equivalence and canonical forms, vertical grafts, bounded compressions, and
selector enumeration.

A blueprint is a finite partial map from addresses (sequences of positive
integers) to labels. The domain need not be prefix-closed. Application tags
must have nonempty left and right regions; formula leaves sit only at maximal
addresses of the domain.

Width, bounded compression and the selector run on canonical structures
(`struct_of`): a region is the sorted tuple of its rooted components, a leaf
is `("L", key, formula)` and a tag `("A", key, formula, left, right)`. Equal
structures are equivalent blueprints, so each is one pass over the sibling
groups, and a `Blueprint` is built only for the result.
"""
from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass

from .formula import Formula, contraction_closure, formula_sort_key, print_formula
from .terms import App, Lam, Term, Var, free_vars

Address = tuple[int, ...]


class BlueprintError(Exception):
    pass


class InvalidBlueprint(BlueprintError):
    pass


class NotExtractable(BlueprintError):
    pass


class EmptySequence(BlueprintError):
    pass


class ResourceLimit(BlueprintError):
    pass


@dataclass(frozen=True)
class Leaf:
    formula: Formula


@dataclass(frozen=True)
class AppTag:
    formula: Formula


Label = Leaf | AppTag


def _is_prefix(a: Address, b: Address) -> bool:
    return len(a) <= len(b) and b[: len(a)] == a


def _strict_prefix(a: Address, b: Address) -> bool:
    return len(a) < len(b) and b[: len(a)] == a


@dataclass(frozen=True)
class Blueprint:
    entries: tuple[tuple[Address, Label], ...]

    def __post_init__(self) -> None:
        addresses = [a for a, _ in self.entries]
        if addresses != sorted(addresses):
            raise InvalidBlueprint("entries must be address-sorted")
        if len(set(addresses)) != len(addresses):
            raise InvalidBlueprint("duplicate address")
        # In address order a node's descendants follow it directly, its left
        # region first; its right region starts where a + (2,) would sit.
        for i, (a, label) in enumerate(self.entries):
            nxt = addresses[i + 1] if i + 1 < len(addresses) else ()
            if isinstance(label, AppTag):
                if nxt[: len(a) + 1] != a + (1,):
                    raise InvalidBlueprint(f"application tag at {a} with empty left region")
                j = bisect.bisect_left(addresses, a + (2,), i + 1)
                if j == len(addresses) or addresses[j][: len(a) + 1] != a + (2,):
                    raise InvalidBlueprint(f"application tag at {a} with empty right region")
            elif _strict_prefix(a, nxt):
                raise InvalidBlueprint(f"leaf at {a} is not maximal")

    @property
    def domain(self) -> tuple[Address, ...]:
        return tuple(a for a, _ in self.entries)

    def get(self, a: Address) -> Label | None:
        for addr, label in self.entries:
            if addr == a:
                return label
        return None

    def is_empty(self) -> bool:
        return not self.entries

    def __len__(self) -> int:
        return len(self.entries)


def make_blueprint(mapping: dict[Address, Label]) -> Blueprint:
    return Blueprint(tuple(sorted(mapping.items())))


def empty() -> Blueprint:
    return Blueprint(())


def leaf(f: Formula) -> Blueprint:
    return make_blueprint({(): Leaf(f)})


def subtree_at(b: Blueprint, a: Address) -> Blueprint:
    """The rooted restriction at a (addresses relative to a)."""
    return make_blueprint(
        {addr[len(a):]: label for addr, label in b.entries if _is_prefix(a, addr)}
    )


def app(tag: Formula, left: Blueprint, right: Blueprint) -> Blueprint:
    if left.is_empty() or right.is_empty():
        raise InvalidBlueprint("application children must be nonempty")
    mapping: dict[Address, Label] = {(): AppTag(tag)}
    mapping.update({(1,) + a: label for a, label in left.entries})
    mapping.update({(2,) + a: label for a, label in right.entries})
    return make_blueprint(mapping)


def star(components: list[Blueprint], addresses: list[Address] | None = None) -> Blueprint:
    """Place components at pairwise incomparable addresses; defaults (1)..(k)."""
    if addresses is None:
        addresses = [(i + 1,) for i in range(len(components))]
    if len(addresses) != len(components):
        raise InvalidBlueprint("one address per component required")
    for x, y in itertools.combinations(addresses, 2):
        if _is_prefix(x, y) or _is_prefix(y, x):
            raise InvalidBlueprint("component addresses must be pairwise incomparable")
    mapping: dict[Address, Label] = {}
    for base, comp in zip(addresses, components):
        mapping.update({base + a: label for a, label in comp.entries})
    return make_blueprint(mapping)


def components(b: Blueprint) -> list[tuple[Address, Blueprint]]:
    """Rooted components at the minimal addresses of the domain. In address
    order a component's entries follow its root."""
    minimal: list[Address] = []
    for a in b.domain:
        if not (minimal and _is_prefix(minimal[-1], a)):
            minimal.append(a)
    return [(a, subtree_at(b, a)) for a in minimal]


def blueprint_of(m: Term) -> Blueprint:
    """Stable part of a normal term: addresses of variable and application
    subterms whose free variables all stay free in m, labeled with types."""
    from .terms import type_of

    outer = {v.rank for v in free_vars(m)}
    mapping: dict[Address, Label] = {}

    def walk(t: Term, at: Address) -> None:
        if isinstance(t, Lam):
            walk(t.body, at + (1,))
            return
        if {v.rank for v in free_vars(t)} <= outer:
            if isinstance(t, Var):
                mapping[at] = Leaf(type_of(t))
            else:
                mapping[at] = AppTag(type_of(t))
        if isinstance(t, App):
            walk(t.fn, at + (1,))
            walk(t.arg, at + (2,))

    walk(m, ())
    return make_blueprint(mapping)


def _blocker(labels: dict[Address, Label], a: Address) -> str | None:
    """Why the leaf at a cannot be extracted: its first domain ancestor that
    is not a tag or has a on its left branch. None if there is none."""
    for k in range(len(a)):
        label = labels.get(a[:k])
        if label is None:
            continue
        if not isinstance(label, AppTag):
            return f"non-tag ancestor at {a[:k]}"
        if a[k] != 2:
            return f"address {a} sits on the left branch of the tag at {a[:k]}"
    return None


def extract_at(b: Blueprint, a: Address, phi: Formula) -> Blueprint:
    """Extract the formula phi at leaf address a: the leaf disappears and so
    does every application tag above it, which must all be passed on their
    right branch."""
    labels = dict(b.entries)
    if labels.get(a) != Leaf(phi):
        raise NotExtractable(f"no leaf {print_formula(phi)} at {a}")
    reason = _blocker(labels, a)
    if reason is not None:
        raise NotExtractable(reason)
    return Blueprint(tuple(e for e in b.entries if not _is_prefix(e[0], a)))


def extractable_leaves(b: Blueprint) -> list[tuple[Address, Formula]]:
    labels = dict(b.entries)
    return [
        (a, label.formula)
        for a, label in b.entries
        if isinstance(label, Leaf) and _blocker(labels, a) is None
    ]


def _single_step_orders(b: Blueprint, memo: dict) -> frozenset[tuple[Formula, ...]]:
    """All single-extraction orders (first-extracted first) emptying b."""
    cached = memo.get(b)
    if cached is not None:
        return cached
    if b.is_empty():
        result = frozenset({()})
    else:
        acc: set[tuple[Formula, ...]] = set()
        for a, phi in extractable_leaves(b):
            rest = _single_step_orders(extract_at(b, a, phi), memo)
            for seq in rest:
                acc.add((phi,) + seq)
        result = frozenset(acc)
    memo[b] = result
    return result


def extraction_sequences_closure(b: Blueprint) -> frozenset[tuple[Formula, ...]]:
    """F(b) by exhaustive chain search: group each full single-step order into
    per-formula blocks in all possible ways; a block run of length L may split
    into 1..L blocks. Sequences are reported last-extracted-first."""
    out: set[tuple[Formula, ...]] = set()
    for order in _single_step_orders(b, {}):
        runs: list[tuple[Formula, int]] = []
        for phi in order:
            if runs and runs[-1][0] == phi:
                runs[-1] = (phi, runs[-1][1] + 1)
            else:
                runs.append((phi, 1))
        for counts in itertools.product(*[range(1, n + 1) for _, n in runs]):
            seq: list[Formula] = []
            for (phi, _), k in zip(runs, counts):
                seq.extend([phi] * k)
            out.add(tuple(reversed(seq)))
    return frozenset(out)


def _interleavings(seqs: list[tuple[Formula, ...]]) -> set[tuple[Formula, ...]]:
    """All shuffles of seqs: the suffixes from each tuple of positions,
    memoised on the positions."""

    @functools.cache
    def suffixes(states: tuple[int, ...]) -> set[tuple[Formula, ...]]:
        out: set[tuple[Formula, ...]] = set()
        for i, pos in enumerate(states):
            if pos < len(seqs[i]):
                head = (seqs[i][pos],)
                rest = suffixes(states[:i] + (pos + 1,) + states[i + 1:])
                out.update(head + tail for tail in rest)
        return out or {()}

    return suffixes((0,) * len(seqs))


def shuffle_closure(fs: list[frozenset[tuple[Formula, ...]]]) -> frozenset[tuple[Formula, ...]]:
    """All shuffles of one pick per set, closed under contraction."""
    out: set[tuple[Formula, ...]] = set()
    for pick in itertools.product(*fs):
        out |= _interleavings(list(pick))
    return contraction_closure(frozenset(out))


def right_shuffle_closure(
    f1: frozenset[tuple[Formula, ...]], f2: frozenset[tuple[Formula, ...]]
) -> frozenset[tuple[Formula, ...]]:
    """Shuffles whose final element comes from the second stream, closed under
    contraction. Member sequences must be nonempty."""
    for f in (f1, f2):
        if any(len(s) == 0 for s in f):
            raise EmptySequence("right-shuffle needs nonempty sequences")
    out: set[tuple[Formula, ...]] = set()
    for s1, s2 in itertools.product(f1, f2):
        for mix in _interleavings([s1, s2[:-1]]):
            out.add(mix + (s2[-1],))
    return contraction_closure(frozenset(out))


def f_of(b: Blueprint) -> frozenset[tuple[Formula, ...]]:
    """F(b) computed structurally from the shuffle properties."""
    if b.is_empty():
        return frozenset({()})
    comps = components(b)
    if len(comps) == 1:
        _, comp = comps[0]
        root = comp.get(())
        if isinstance(root, Leaf):
            return frozenset({(root.formula,)})
        assert isinstance(root, AppTag)
        return right_shuffle_closure(f_of(subtree_at(comp, (1,))), f_of(subtree_at(comp, (2,))))
    return shuffle_closure([f_of(comp) for _, comp in comps])


def relative_depth(b: Blueprint) -> int:
    """Max over the domain of the number of strict domain ancestors."""
    dom = b.domain
    if not dom:
        return 0
    return max(sum(1 for c in dom if _strict_prefix(c, a)) for a in dom)


# --- canonical forms -------------------------------------------------------

Struct = tuple


def struct_of(b: Blueprint) -> tuple[Struct, ...]:
    """Sorted multiset of rooted component structures; equal iff blueprints
    are equivalent (permutation, re-addressing, flattening). One pass over
    the address-sorted entries: a component's entries follow its root, its
    left region first."""
    entries = b.entries

    def region(i: int, base: Address) -> tuple[tuple[Struct, ...], int]:
        # the components under base from entry i on, and the entry after them
        out = []
        while i < len(entries) and entries[i][0][: len(base)] == base:
            a, label = entries[i]
            key = (formula_sort_key(label.formula), label.formula)
            if isinstance(label, Leaf):
                out.append(("L", *key))
                i += 1
            else:
                left, i = region(i + 1, a + (1,))
                right, i = region(i, a + (2,))
                out.append(("A", *key, left, right))
                # descendants outside both regions are no part of the structure
                while i < len(entries) and entries[i][0][: len(a)] == a:
                    i += 1
        return tuple(sorted(out)), i

    return region(0, ())[0]


def _build_region(structs: tuple[Struct, ...]) -> Blueprint:
    """The blueprint of a canonical region, one component at the origin or
    several at (1)..(k), built from its address-sorted entries at once."""
    entries: list[tuple[Address, Label]] = []

    def region(group: tuple[Struct, ...], at: Address) -> None:
        for k, s in enumerate(group, 1):
            here = at if len(group) == 1 else at + (k,)
            entries.append((here, Leaf(s[2]) if s[0] == "L" else AppTag(s[2])))
            if s[0] == "A":
                region(s[3], here + (1,))
                region(s[4], here + (2,))

    region(structs, ())
    return Blueprint(tuple(entries))


def canonicalize(b: Blueprint) -> Blueprint:
    """Canonical representative of the equivalence class: components flattened
    and sorted by structural key; a single component is rooted at the origin,
    several components sit at addresses (1)..(k)."""
    return _build_region(struct_of(b))


def equivalent(b1: Blueprint, b2: Blueprint) -> bool:
    return struct_of(b1) == struct_of(b2)


# --- vertical grafts -------------------------------------------------------

def graft(b: Blueprint, a: Address, sub: Blueprint) -> Blueprint:
    mapping = {c: lab for c, lab in b.entries if not _is_prefix(a, c)}
    mapping.update({a + c: lab for c, lab in sub.entries})
    return make_blueprint(mapping)


def single_grafts(b: Blueprint) -> list[tuple[Address, Address, Blueprint]]:
    """All (a, c, result) with a < c in the domain, equal labels, and result
    the graft of the subtree at c onto a."""
    out = []
    dom = b.domain
    labels = dict(b.entries)
    for a in dom:
        for c in dom:
            if _strict_prefix(a, c) and labels[a] == labels[c]:
                out.append((a, c, graft(b, a, subtree_at(b, c))))
    return out


def up_closure(b: Blueprint) -> set[Blueprint]:
    """{alpha : alpha is reachable from b by grafts} including b itself."""
    seen = {b}
    frontier = [b]
    while frontier:
        cur = frontier.pop()
        for _, _, nxt in single_grafts(cur):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def admits_sequence(b: Blueprint, chi: tuple[Formula, ...]) -> bool:
    return any(chi in f_of(g) for g in up_closure(b))


# --- bounded compressions and width ---------------------------------------

def _sibling_groups(structs: tuple[Struct, ...]):
    """Every sibling group of a canonical region, the region itself first."""
    yield structs
    for s in structs:
        if s[0] == "A":
            yield from _sibling_groups(s[3])
            yield from _sibling_groups(s[4])


def width(b: Blueprint) -> int:
    """Least m admitting no m-compression predecessor: the greatest number of
    equal siblings in any sibling group, and 0 for the empty blueprint."""
    groups = _sibling_groups(struct_of(b))
    # a group is sorted, so equal siblings form one run
    return max((len(list(run)) for g in groups for _, run in itertools.groupby(g)), default=0)


def _compress(structs: tuple[Struct, ...], m: int) -> tuple[Struct, ...]:
    """Compress every child region, sort, and keep at most m copies of each
    component."""
    out = sorted(
        (*s[:3], _compress(s[3], m), _compress(s[4], m)) if s[0] == "A" else s
        for s in structs
    )
    return tuple(s for i, s in enumerate(out) if i < m or out[i - m] != s)


def compress_to_max(b: Blueprint, m: int) -> Blueprint:
    """The canonical gamma below b in the bounded-compression order with
    width(gamma) <= m: every sibling group keeps at most m copies of each
    component, bottom-up (m = 0 gives the empty blueprint)."""
    return _build_region(_compress(struct_of(b), m))


# --- selector enumeration --------------------------------------------------

MAX_SELECTOR_CLASSES = 200_000


@dataclass(frozen=True)
class Signature:
    leaf_formulas: frozenset[Formula]
    app_tags: frozenset[Formula]


def enumerate_selector(s: Signature, d: int, m: int) -> set[Blueprint]:
    """Canonical representatives, one per equivalence class of blueprints over
    s with relative depth <= d and width <= m. Raises ResourceLimit when the
    set would exceed MAX_SELECTOR_CLASSES. The classes are built as canonical
    structures, a region being a sorted tuple of rooted structures."""
    if m == 0:
        return {empty()}
    rooted: list[Struct] = sorted(("L", formula_sort_key(f), f) for f in s.leaf_formulas)
    tags = [(formula_sort_key(t), t) for t in s.app_tags]

    def multisets(reps: list[Struct]) -> list[tuple[Struct, ...]]:
        # reps is sorted, so each multiset comes out as a sorted tuple
        if (m + 1) ** len(reps) > MAX_SELECTOR_CLASSES:
            raise ResourceLimit(
                f"selector would enumerate {(m + 1) ** len(reps)} multisets"
                f" (cap {MAX_SELECTOR_CLASSES})"
            )
        return [
            tuple(r for r, k in zip(reps, mults) for _ in range(k))
            for mults in itertools.product(range(m + 1), repeat=len(reps))
        ]

    for _ in range(d):
        regions = [g for g in multisets(rooted) if g]
        new_rooted = set(rooted)
        for key, t in tags:
            for g1 in regions:
                for g2 in regions:
                    new_rooted.add(("A", key, t, g1, g2))
                    if len(new_rooted) > MAX_SELECTOR_CLASSES:
                        raise ResourceLimit(f"selector exceeded cap {MAX_SELECTOR_CLASSES}")
        rooted = sorted(new_rooted)

    return {_build_region(g) for g in multisets(rooted)}


# --- debug printing --------------------------------------------------------

def print_blueprint(b: Blueprint) -> str:
    if b.is_empty():
        return "."

    def print_rooted(c: Blueprint) -> str:
        root = c.get(())
        if isinstance(root, Leaf):
            return print_formula(root.formula)
        assert isinstance(root, AppTag)
        lhs = print_region(subtree_at(c, (1,)))
        rhs = print_region(subtree_at(c, (2,)))
        return f"@{print_formula(root.formula)}({lhs},{rhs})"

    def print_region(r: Blueprint) -> str:
        comps = components(r)
        if len(comps) == 1:
            return print_rooted(comps[0][1])
        return "*[" + ", ".join(print_rooted(c) for _, c in comps) + "]"

    return print_region(b)
