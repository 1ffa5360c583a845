"""Blueprint algebra: stable parts, extraction, extractible-sequence sets,
equivalence and canonical forms, vertical grafts, bounded compressions, and
selector enumeration.

A blueprint is a finite partial map from addresses (sequences of positive
integers) to labels. The domain need not be prefix-closed. Application tags
must have nonempty left and right regions; formula leaves sit only at maximal
addresses of the domain.
"""
from __future__ import annotations

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
        if list(self.entries) != sorted(self.entries, key=lambda e: e[0]):
            raise InvalidBlueprint("entries must be address-sorted")
        if len(set(addresses)) != len(addresses):
            raise InvalidBlueprint("duplicate address")
        labels = dict(self.entries)
        for a, label in self.entries:
            if isinstance(label, AppTag):
                if not any(_is_prefix(a + (1,), b) for b in addresses):
                    raise InvalidBlueprint(f"application tag at {a} with empty left region")
                if not any(_is_prefix(a + (2,), b) for b in addresses):
                    raise InvalidBlueprint(f"application tag at {a} with empty right region")
            else:
                if any(_strict_prefix(a, b) for b in addresses):
                    raise InvalidBlueprint(f"leaf at {a} is not maximal")
        del labels

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
    return Blueprint(tuple(sorted(mapping.items(), key=lambda e: e[0])))


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
    """Rooted components at the minimal addresses of the domain."""
    minimal = [
        a for a in b.domain if not any(_strict_prefix(c, a) for c in b.domain)
    ]
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


def extract_at(b: Blueprint, a: Address, phi: Formula) -> Blueprint:
    """Extract the formula phi at leaf address a: the leaf disappears and so
    does every application tag above it, which must all be passed on their
    right branch."""
    label = b.get(a)
    if label != Leaf(phi):
        raise NotExtractable(f"no leaf {print_formula(phi)} at {a}")
    removed = {a}
    for c, lab in b.entries:
        if _strict_prefix(c, a):
            if not isinstance(lab, AppTag):
                raise NotExtractable(f"non-tag ancestor at {c}")
            if not _is_prefix(c + (2,), a):
                raise NotExtractable(f"address {a} sits on the left branch of the tag at {c}")
            removed.add(c)
    return make_blueprint({c: lab for c, lab in b.entries if c not in removed})


def extractable_leaves(b: Blueprint) -> list[tuple[Address, Formula]]:
    out = []
    for a, label in b.entries:
        if isinstance(label, Leaf):
            try:
                extract_at(b, a, label.formula)
            except NotExtractable:
                continue
            out.append((a, label.formula))
    return out


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
    if not seqs:
        return {()}
    out: set[tuple[Formula, ...]] = set()

    def go(prefix: list[Formula], states: tuple[int, ...]) -> None:
        if all(states[i] == len(seqs[i]) for i in range(len(seqs))):
            out.add(tuple(prefix))
            return
        for i, pos in enumerate(states):
            if pos < len(seqs[i]):
                prefix.append(seqs[i][pos])
                go(prefix, states[:i] + (pos + 1,) + states[i + 1:])
                prefix.pop()

    go([], tuple(0 for _ in seqs))
    return out


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


def _struct_of_rooted(b: Blueprint) -> Struct:
    root = b.get(())
    if isinstance(root, Leaf):
        return ("L", formula_sort_key(root.formula), root.formula)
    assert isinstance(root, AppTag)
    left = tuple(sorted(_struct_of_rooted(c) for _, c in components(subtree_at(b, (1,)))))
    right = tuple(sorted(_struct_of_rooted(c) for _, c in components(subtree_at(b, (2,)))))
    return ("A", formula_sort_key(root.formula), root.formula, left, right)


def struct_of(b: Blueprint) -> tuple[Struct, ...]:
    """Sorted multiset of rooted component structures; equal iff blueprints
    are equivalent (permutation, re-addressing, flattening)."""
    return tuple(sorted(_struct_of_rooted(c) for _, c in components(b)))


def _build_rooted(s: Struct) -> Blueprint:
    if s[0] == "L":
        return leaf(s[2])
    left = _build_region(s[3])
    right = _build_region(s[4])
    mapping: dict[Address, Label] = {(): AppTag(s[2])}
    mapping.update({(1,) + a: label for a, label in left.entries})
    mapping.update({(2,) + a: label for a, label in right.entries})
    return make_blueprint(mapping)


def _build_region(structs: tuple[Struct, ...]) -> Blueprint:
    built = [_build_rooted(s) for s in structs]
    if len(built) == 1:
        return built[0]
    return star(built)


def canonicalize(b: Blueprint) -> Blueprint:
    """Canonical representative of the equivalence class: components flattened
    and sorted by structural key; a single component is rooted at the origin,
    several components sit at addresses (1)..(k)."""
    return _build_region(struct_of(b)) if not b.is_empty() else empty()


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

def _sibling_groups(structs: tuple[Struct, ...], top: bool):
    """Yield (structs, is_top) for every sibling group in a canonical region."""
    yield structs, top
    for s in structs:
        if s[0] == "A":
            yield from _sibling_groups(s[3], False)
            yield from _sibling_groups(s[4], False)


def _has_compression_step(structs: tuple[Struct, ...], m: int) -> bool:
    for group, top in _sibling_groups(structs, True):
        if m == 0:
            if top and group:
                return True
            if not top and len(group) >= 2:
                return True
            continue
        counts: dict[Struct, int] = {}
        for s in group:
            counts[s] = counts.get(s, 0) + 1
        if any(c >= m + 1 for c in counts.values()):
            return True
    return False


def width(b: Blueprint) -> int:
    """Least m admitting no m-compression predecessor."""
    structs = struct_of(b)
    m = 0
    while _has_compression_step(structs, m):
        m += 1
    return m


def _drop_one(structs: tuple[Struct, ...], m: int, top: bool) -> tuple[Struct, ...] | None:
    """One compression step inside a canonical region: remove one duplicate
    beyond multiplicity m (for m = 0: any component, keeping non-top regions
    nonempty). Returns the new region or None."""
    counts: dict[Struct, int] = {}
    for s in structs:
        counts[s] = counts.get(s, 0) + 1
    droppable = (
        (m == 0 and (top or len(structs) >= 2) and structs)
        or any(c > m for c in counts.values())
    )
    if droppable:
        if m == 0:
            return structs[:-1]
        for idx in range(len(structs) - 1, -1, -1):
            if counts[structs[idx]] > m:
                return structs[:idx] + structs[idx + 1:]
    for idx, s in enumerate(structs):
        if s[0] == "A":
            for region_pos in (3, 4):
                new_region = _drop_one(s[region_pos], m, False)
                if new_region is not None:
                    new_s = list(s)
                    new_s[region_pos] = new_region
                    return structs[:idx] + (tuple(new_s),) + structs[idx + 1:]
    return None


def compress_to_max(b: Blueprint, m: int) -> Blueprint:
    """A canonical gamma below b in the bounded-compression order with
    width(gamma) <= m: repeatedly drop duplicates beyond multiplicity m."""
    if m == 0:
        return empty()

    def resort(structs: tuple[Struct, ...]) -> tuple[Struct, ...]:
        fixed = []
        for s in structs:
            if s[0] == "A":
                fixed.append((s[0], s[1], s[2], resort(s[3]), resort(s[4])))
            else:
                fixed.append(s)
        return tuple(sorted(fixed))

    structs = struct_of(b)
    while _has_compression_step(structs, m):
        nxt = _drop_one(structs, m, True)
        assert nxt is not None
        structs = resort(nxt)
    return _build_region(structs) if structs else empty()


# --- selector enumeration --------------------------------------------------

@dataclass(frozen=True)
class Signature:
    leaf_formulas: frozenset[Formula]
    app_tags: frozenset[Formula]


def enumerate_selector(
    s: Signature, d: int, m: int, cap: int = 200_000
) -> set[Blueprint]:
    """Canonical representatives, one per equivalence class of blueprints over
    s with relative depth <= d and width <= m. Raises ResourceLimit when the
    set would exceed cap."""
    if m == 0:
        return {empty()}
    leaves = sorted(s.leaf_formulas, key=formula_sort_key)
    tags = sorted(s.app_tags, key=formula_sort_key)
    rooted: list[Blueprint] = [leaf(f) for f in leaves]

    def multisets(reps: list[Blueprint]) -> set[Blueprint]:
        if (m + 1) ** len(reps) > cap:
            raise ResourceLimit(
                f"selector would enumerate {(m + 1) ** len(reps)} multisets (cap {cap})"
            )
        out: set[Blueprint] = set()
        for mults in itertools.product(range(m + 1), repeat=len(reps)):
            comps: list[Blueprint] = []
            for rep, k in zip(reps, mults):
                comps.extend([rep] * k)
            if not comps:
                out.add(empty())
            elif len(comps) == 1:
                out.add(comps[0])
            else:
                out.add(canonicalize(star(comps)))
        return out

    def sort_key(x: Blueprint) -> tuple[int, str]:
        return (len(x.entries), print_blueprint(x))

    for _ in range(d):
        region_reps = sorted(multisets(rooted), key=sort_key)
        nonempty = [r for r in region_reps if not r.is_empty()]
        new_rooted = {x for x in rooted}
        for t in tags:
            for g1 in nonempty:
                for g2 in nonempty:
                    new_rooted.add(canonicalize(app(t, g1, g2)))
                    if len(new_rooted) > cap:
                        raise ResourceLimit(f"selector exceeded cap {cap}")
        rooted = sorted(new_rooted, key=sort_key)

    return multisets(rooted)


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
