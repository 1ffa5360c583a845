"""Compactness of normal inhabitants, the constructive term surgeries, and
the explicit compact shadows.

The surgeries work on addressed subterms (`subterm_at`, `replace_at`).
HRM substitution and normalization (`hrm_substitute`, `hrm_normalize`) turn
a combinator derivation back into a normal inhabitant (`comb_to_lambda`),
the converse of certificate extraction. The decision path needs none of
these.

The three surgeries are: reading off a full extraction chain from a term
(every free variable's type is extractible at its occurrence addresses),
renaming free variables along an alternative extraction chain (switch_var),
and compressing a term down a vertical graft of its blueprint
(compress_term). Together they let a non-compact inhabitant be shrunk.

Shadows are the lemma-side view of the decision core's search: `shadow_of`
a term, the predicates `is_phi_shadow` and `is_compact_shadow`, and
`enumerate_compact_shadows` and `inhabitant_with_domain`, which are derived
from `ticket.shadow._Solver` and from the oracle. Imports go from this
module to the core only, so `decide` never loads this module.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .blueprint import (
    Blueprint,
    NotExtractable,
    admits_sequence,
    app,
    blueprint_of,
    canonicalize,
    compress_to_max,
    empty,
    extract_at,
    extractable_leaves,
    f_of,
    leaf,
    print_blueprint,
    relative_depth,
    single_grafts,
    up_closure,
    width,
)
from .combinators import Axiom, CombDerivation, check_derivation
from .formula import Formula, Imp, subformulas
from .oracle import enumerate_inhabitants
from .shadow import _comb_universe, _patterns, _Solver
from .terms import (
    Address,
    App,
    Lam,
    PreconditionViolated,
    Term,
    TermError,
    TypeMismatch,
    Var,
    VarRef,
    addresses,
    bound_refs,
    free_vars,
    is_nf_inhabitant,
    node_count,
    rename_bound_above,
    type_of,
)


class ChainInvalid(TermError):
    pass


class NotACompression(TermError):
    pass


# --- addresses, ranks and HRM normalization ---------------------------------

def subterm_at(m: Term, a: Address) -> Term:
    for step in a:
        if isinstance(m, Lam):
            if step != 1:
                raise TermError(f"address step {step} at abstraction node")
            m = m.body
        elif isinstance(m, App):
            if step == 1:
                m = m.fn
            elif step == 2:
                m = m.arg
            else:
                raise TermError(f"address step {step} at application node")
        else:
            raise TermError("address walks past a leaf")
    return m


def replace_at(m: Term, a: Address, sub: Term) -> Term:
    if not a:
        return sub
    step, rest = a[0], a[1:]
    if isinstance(m, Lam):
        if step != 1:
            raise TermError("bad address")
        return Lam(m.binder, replace_at(m.body, rest, sub))
    if isinstance(m, App):
        if step == 1:
            return App(replace_at(m.fn, rest, sub), m.arg)
        if step == 2:
            return App(m.fn, replace_at(m.arg, rest, sub))
    raise TermError("bad address")


def all_ranks(m: Term) -> set[int]:
    ranks: set[int] = set()
    for _, t in addresses(m):
        if isinstance(t, Var):
            ranks.add(t.ref.rank)
        elif isinstance(t, Lam):
            ranks.add(t.binder.rank)
    return ranks


def max_rank(m: Term) -> int:
    ranks = all_ranks(m)
    return max(ranks) if ranks else 0


def hrm_substitute(p: Term, x: VarRef, q: Term) -> Term:
    """Capture-free substitution p<x := q> under the HRM side-conditions.

    Preconditions (checked): q typed of var_type(x); if q is closed and x is
    free in p then x is the least free variable of p; if q is open then every
    free z<x of p satisfies z <= max Free(q), every free z>x satisfies
    max Free(q) < z, and max Free(q) is below every bound rank of p.
    """
    q_type = type_of(q)
    if q_type != x.var_type:
        raise TypeMismatch("substituted term type differs from the variable's type")
    type_of(p)
    p_free = {v.rank: v.var_type for v in free_vars(p)}
    if x.rank in p_free and p_free[x.rank] != x.var_type:
        raise PreconditionViolated("variable occurs in p at a different type")
    q_free = free_vars(q)
    if not q_free:
        if x.rank in p_free and min(p_free) != x.rank:
            raise PreconditionViolated("q closed but x is not the least free variable of p")
    else:
        top = q_free[-1].rank
        for z in p_free:
            if z < x.rank and z > top:
                raise PreconditionViolated("free variable below x exceeds max Free(q)")
            if z > x.rank and top >= z:
                raise PreconditionViolated("max Free(q) not below a free variable above x")
        for b in bound_refs(p):
            if b.rank <= top:
                raise PreconditionViolated("max Free(q) not below every bound rank of p")

    fresh_base = max(max_rank(p), max_rank(q))
    p_bound_ranks = {b.rank for b in bound_refs(p)}
    copies = 0

    def replace(t: Term) -> Term:
        nonlocal copies, fresh_base
        if isinstance(t, Var):
            if t.ref == x:
                copies += 1
                q_bounds = {b.rank for b in bound_refs(q)}
                if copies == 1 and not (q_bounds & p_bound_ranks):
                    return q
                # later copies (or colliding first copy) get fresh bound ranks
                out = rename_bound_above(q, fresh_base)
                fresh_base = max(fresh_base, max_rank(out))
                return out
            return t
        if isinstance(t, Lam):
            return Lam(t.binder, replace(t.body))
        return App(replace(t.fn), replace(t.arg))

    return replace(p)


def _leftmost_outermost_redex(m: Term, at: Address = ()) -> Address | None:
    if isinstance(m, Var):
        return None
    if isinstance(m, Lam):
        return _leftmost_outermost_redex(m.body, at + (1,))
    if isinstance(m.fn, Lam):
        return at
    left = _leftmost_outermost_redex(m.fn, at + (1,))
    if left is not None:
        return left
    return _leftmost_outermost_redex(m.arg, at + (2,))


def is_normal(m: Term) -> bool:
    return _leftmost_outermost_redex(m) is None


def hrm_normalize(m: Term) -> Term:
    """Normalize a typed term, contracting the leftmost-outermost redex and
    renaming the redex body's bound variables above everything first so that
    each contraction is a legal hrm_substitute."""
    type_of(m)
    while True:
        a = _leftmost_outermost_redex(m)
        if a is None:
            return m
        redex = subterm_at(m, a)
        assert isinstance(redex, App) and isinstance(redex.fn, Lam)
        lam, q = redex.fn, redex.arg
        body = rename_bound_above(lam.body, max_rank(m))
        reduced = hrm_substitute(body, lam.binder, q)
        m = replace_at(m, a, reduced)


# --- combinator derivations to lambda terms ---------------------------------

def _counterpart(leaf: Axiom, base: int) -> tuple[Term, int]:
    """Lambda counterpart of an axiom leaf, bound ranks base+1 upward."""
    t = leaf.instantiated_type
    assert isinstance(t, Imp)
    if leaf.kind == "I":
        x = VarRef(base + 1, t.antecedent)
        return Lam(x, Var(x)), base + 1
    if leaf.kind == "B":
        # \f:chi->psi. \g:phi->chi. \x:phi. f (g x)
        chi_psi = t.antecedent
        phi_chi = t.consequent.antecedent  # type: ignore[union-attr]
        phi = phi_chi.antecedent  # type: ignore[union-attr]
        f = VarRef(base + 1, chi_psi)
        g = VarRef(base + 2, phi_chi)
        x = VarRef(base + 3, phi)
        return Lam(f, Lam(g, Lam(x, App(Var(f), App(Var(g), Var(x)))))), base + 3
    if leaf.kind == "B'":
        # \f:phi->chi. \g:chi->psi. \x:phi. g (f x)
        phi_chi = t.antecedent
        chi_psi = t.consequent.antecedent  # type: ignore[union-attr]
        phi = phi_chi.antecedent  # type: ignore[union-attr]
        f = VarRef(base + 1, phi_chi)
        g = VarRef(base + 2, chi_psi)
        x = VarRef(base + 3, phi)
        return Lam(f, Lam(g, Lam(x, App(Var(g), App(Var(f), Var(x)))))), base + 3
    # W: \h:phi->(phi->chi). \x:phi. h x x
    h = VarRef(base + 1, t.antecedent)
    x = VarRef(base + 2, t.antecedent.antecedent)  # type: ignore[union-attr]
    return Lam(h, Lam(x, App(App(Var(h), Var(x)), Var(x)))), base + 2


def comb_to_lambda(d: CombDerivation) -> Term:
    """Translate a checked derivation to a normal inhabitant of its type."""
    phi = check_derivation(d)

    def build(node: CombDerivation, base: int) -> tuple[Term, int]:
        if isinstance(node, Axiom):
            return _counterpart(node, base)
        left, base = build(node.left, base)
        right, base = build(node.right, base)
        return App(left, right), base

    raw, _ = build(d, 0)
    result = hrm_normalize(raw)
    assert is_nf_inhabitant(result, phi)
    return result


@dataclass(frozen=True)
class ChainStep:
    """One extraction block: the same formula removed at each address in
    the given single-step order. `variable` records which free variable the
    block came from when the chain was read off a term."""

    formula: Formula
    step_order: tuple[Address, ...]
    variable: VarRef | None = None

    def __post_init__(self) -> None:
        if not self.step_order:
            raise ChainInvalid("empty extraction block")
        if len(set(self.step_order)) != len(self.step_order):
            raise ChainInvalid("duplicate address inside a block")


@dataclass(frozen=True)
class ExtractionChain:
    """Blocks in extraction order (first-extracted block first). The block
    formulas read in reverse give the extractible sequence the chain
    realizes."""

    steps: tuple[ChainStep, ...]

    def sequence(self) -> tuple[Formula, ...]:
        return tuple(s.formula for s in reversed(self.steps))


def replay_chain(b: Blueprint, chain: ExtractionChain) -> None:
    """Check that the chain empties b; raises ChainInvalid otherwise."""
    for step in chain.steps:
        for a in step.step_order:
            try:
                b = extract_at(b, a, step.formula)
            except NotExtractable as exc:
                raise ChainInvalid(str(exc)) from exc
    if not b.is_empty():
        raise ChainInvalid("chain does not empty the blueprint")


def _greedy_block_order(
    b: Blueprint, addrs: set[Address], phi: Formula
) -> tuple[tuple[Address, ...], Blueprint]:
    """A valid single-step order extracting phi at exactly `addrs`.

    Extractibility only grows as entries disappear, so taking any currently
    extractable address never gets stuck when some valid order exists."""
    order: list[Address] = []
    remaining = set(addrs)
    while remaining:
        for a in sorted(remaining):
            try:
                nxt = extract_at(b, a, phi)
            except NotExtractable:
                continue
            b = nxt
            order.append(a)
            remaining.discard(a)
            break
        else:
            raise ChainInvalid(f"block of {len(addrs)} addresses is stuck")
    return tuple(order), b


def lambda_prefix(m: Term, a: Address) -> tuple[VarRef, ...]:
    """Binders passed on the way from the root to a (exclusive of a)."""
    out: list[VarRef] = []
    t = m
    for step in a:
        if isinstance(t, Lam):
            out.append(t.binder)
            t = t.body
        elif isinstance(t, App):
            t = t.fn if step == 1 else t.arg
        else:
            raise TermError("address out of range")
    return tuple(out)


def _occurrences(m: Term, ref: VarRef) -> list[Address]:
    return sorted(a for a, t in addresses(m) if isinstance(t, Var) and t.ref == ref)


def abstract_extract_chain(m: Term) -> ExtractionChain:
    """The canonical full extraction of blueprint_of(m): each free variable's
    type at its occurrence addresses, greatest variable first."""
    type_of(m)
    b = blueprint_of(m)
    steps: list[ChainStep] = []
    for x in reversed(free_vars(m)):
        occ = set(_occurrences(m, x))
        order, b = _greedy_block_order(b, occ, x.var_type)
        steps.append(ChainStep(x.var_type, order, x))
    if not b.is_empty():
        raise ChainInvalid("stable part not exhausted by free-variable blocks")
    return ExtractionChain(tuple(steps))


def chain_for_sequence(b: Blueprint, chi: tuple[Formula, ...]) -> ExtractionChain | None:
    """A full extraction of b whose block formulas realize chi (chi oriented
    last-extracted-first, as produced by f_of). None if chi is not in F(b)."""
    blocks = tuple(reversed(chi))
    if not blocks:
        return ExtractionChain(()) if b.is_empty() else None
    failed: set[tuple[Blueprint, int, bool]] = set()

    def dfs(cur: Blueprint, idx: int, in_block: bool) -> list[tuple[int, Address]] | None:
        if cur.is_empty():
            return [] if idx == len(blocks) - 1 and in_block else None
        key = (cur, idx, in_block)
        if key in failed:
            return None
        if in_block and idx + 1 < len(blocks):
            rest = dfs(cur, idx + 1, False)
            if rest is not None:
                return rest
        for a, phi in extractable_leaves(cur):
            if phi != blocks[idx]:
                continue
            rest = dfs(extract_at(cur, a, phi), idx, True)
            if rest is not None:
                return [(idx, a)] + rest
        failed.add(key)
        return None

    raw = dfs(b, 0, False)
    if raw is None:
        return None
    steps: list[ChainStep] = []
    current_idx = -1
    current: list[Address] = []
    for idx, a in raw:
        if idx != current_idx:
            if current:
                steps.append(ChainStep(blocks[current_idx], tuple(current)))
            current_idx, current = idx, []
        current.append(a)
    if current:
        steps.append(ChainStep(blocks[current_idx], tuple(current)))
    if len(steps) != len(blocks):
        return None
    return ExtractionChain(tuple(steps))


@dataclass
class _Fresh:
    next_rank: int

    def take(self, n: int = 1) -> int:
        base = self.next_rank
        self.next_rank += n
        return base


def _strip(steps, stargets, side: int):
    out_steps: list[tuple[Formula, tuple[Address, ...]]] = []
    out_targets: list[VarRef] = []
    for (phi, order), tgt in zip(steps, stargets):
        sub = tuple(a[1:] for a in order if a[0] == side)
        if sub:
            out_steps.append((phi, sub))
            out_targets.append(tgt)
    return out_steps, out_targets


def _switch(m: Term, steps, stargets, fresh: _Fresh) -> Term:
    if not steps:
        if free_vars(m):
            raise ChainInvalid("open subterm with no extraction block left")
        k = len(set(bound_refs(m)))
        return rename_bound_above(m, fresh.take(k) - 1) if k else m
    if isinstance(m, Var):
        phi, order = steps[0]
        if len(steps) != 1 or order != ((),):
            raise ChainInvalid("variable subterm needs a single unit block")
        return Var(stargets[0])
    if isinstance(m, Lam):
        occ = set(_occurrences(m.body, m.binder))
        order, _ = _greedy_block_order(blueprint_of(m.body), occ, m.binder.var_type)
        new_ref = VarRef(fresh.take(), m.binder.var_type)
        body_steps = [(m.binder.var_type, order)]
        stripped = [(phi, tuple(a[1:] for a in so)) for phi, so in steps]
        body = _switch(m.body, body_steps + stripped, [new_ref] + list(stargets), fresh)
        return Lam(new_ref, body)
    steps1, t1 = _strip(steps, stargets, 1)
    steps2, t2 = _strip(steps, stargets, 2)
    fn = _switch(m.fn, steps1, t1, fresh)
    arg = _switch(m.arg, steps2, t2, fresh)
    return App(fn, arg)


def switch_var(m: Term, chain: ExtractionChain, targets: tuple[VarRef, ...]) -> Term:
    """Rebuild m with free variables `targets`, the i-th target occurring at
    the chain's i-th block (targets increasing, blocks last-extracted-first).

    Preserves the tree domain, the blueprint and the type."""
    type_of(m)
    if len(targets) != len(chain.steps):
        raise ChainInvalid("one target per block required")
    ranks = [t.rank for t in targets]
    if sorted(set(ranks)) != ranks:
        raise ChainInvalid("targets must be strictly increasing")
    for t, step in zip(targets, reversed(chain.steps)):
        if t.var_type != step.formula:
            raise TypeMismatch("target type differs from its block formula")
    replay_chain(blueprint_of(m), chain)
    fresh = _Fresh((max(ranks) if ranks else 0) + 1)
    steps = [(s.formula, s.step_order) for s in chain.steps]
    return _switch(m, steps, list(reversed(targets)), fresh)


# --- vertical term compression ---------------------------------------------

def _rerank_all_above(m: Term, base: int) -> Term:
    """Shift every rank of m (free and bound) above base, preserving order."""
    ranks = sorted(all_ranks(m))
    mapping = {r: base + i + 1 for i, r in enumerate(ranks)}

    def walk(t: Term) -> Term:
        if isinstance(t, Var):
            return Var(VarRef(mapping[t.ref.rank], t.ref.var_type))
        if isinstance(t, Lam):
            return Lam(VarRef(mapping[t.binder.rank], t.binder.var_type), walk(t.body))
        return App(walk(t.fn), walk(t.arg))

    return walk(m)


def _graft_step(m: Term, a: Address, c: Address) -> Term:
    """One vertical graft on the term side: realize graft(beta, a, beta|c)."""
    if a == ():
        return subterm_at(m, c)
    if isinstance(m, App):
        side = a[0]
        sub = m.fn if side == 1 else m.arg
        new_sub = _graft_step(sub, a[1:], c[1:])
        left = new_sub if side == 1 else m.fn
        right_raw = new_sub if side == 2 else m.arg
        right = _rerank_all_above(right_raw, max_rank(left))
        return App(left, right)
    if isinstance(m, Lam):
        body = _graft_step(m.body, a[1:], c[1:])
        chi = m.binder.var_type
        occ = set(_occurrences(m.body, m.binder))
        bb = blueprint_of(body)
        order, rest = _greedy_block_order(bb, occ, chi)
        steps: list[ChainStep] = [ChainStep(chi, order)]
        while not rest.is_empty():
            addr, phi = sorted(extractable_leaves(rest))[0]
            steps.append(ChainStep(phi, (addr,)))
            rest = extract_at(rest, addr, phi)
        r = len(steps)
        targets = tuple(
            VarRef(i + 1, steps[r - 1 - i].formula) for i in range(r)
        )
        new_body = switch_var(body, ExtractionChain(tuple(steps)), targets)
        return Lam(VarRef(r, chi), new_body)
    raise NotACompression("graft address walks past a variable")


def compress_term(m: Term, alpha: Blueprint) -> Term:
    """A term of the same kind and type as m with blueprint alpha and no more
    nodes, where alpha is a vertical graft (possibly iterated) of m's
    blueprint."""
    type_of(m)
    beta = blueprint_of(m)
    # breadth-first graft path from beta to alpha
    parent: dict[Blueprint, tuple[Blueprint, Address, Address]] = {}
    seen = {beta}
    queue = deque([beta])
    found = beta == alpha
    while queue and not found:
        cur = queue.popleft()
        for ga, gc, nxt in single_grafts(cur):
            if nxt in seen:
                continue
            seen.add(nxt)
            parent[nxt] = (cur, ga, gc)
            if nxt == alpha:
                found = True
                break
            queue.append(nxt)
    if not found:
        raise NotACompression(
            f"{print_blueprint(alpha)} is not a graft of {print_blueprint(beta)}"
        )
    path: list[tuple[Address, Address]] = []
    node = alpha
    while node != beta:
        node, ga, gc = parent[node]
        path.append((ga, gc))
    out = m
    for ga, gc in reversed(path):
        out = _graft_step(out, ga, gc)
    return out


# --- compactness ------------------------------------------------------------

def _kind(t: Term) -> tuple[str, Formula]:
    cls = "var" if isinstance(t, Var) else "lam" if isinstance(t, Lam) else "app"
    return (cls, type_of(t))


def is_locally_compact(m: Term, phi: Formula) -> bool:
    """Blueprint depth at every address stays within the binder-count bound."""
    bound = len(subformulas(phi))
    for a, t in addresses(m):
        if relative_depth(blueprint_of(t)) > len(lambda_prefix(m, a)) * bound:
            return False
    return True


def compact_witness(
    m: Term,
) -> tuple[Address, Address, Blueprint] | None:
    """The first (a, b, alpha') making m non-compact, in lexicographic (a, b)
    order with the smallest graft alpha' first; None if m is compact."""
    addr_list = sorted(a for a, _ in addresses(m))
    kinds = {a: _kind(subterm_at(m, a)) for a in addr_list}
    for a in addr_list:
        chi = tuple(v.var_type for v in free_vars(subterm_at(m, a)))
        for b in addr_list:
            if not (len(a) < len(b) and b[: len(a)] == a):
                continue
            if kinds[a] != kinds[b]:
                continue
            grafts = sorted(
                up_closure(blueprint_of(subterm_at(m, b))),
                key=lambda g: (len(g), print_blueprint(g)),
            )
            for alpha in grafts:
                if chi in f_of(alpha):
                    return (a, b, alpha)
    return None


def is_compact(m: Term) -> bool:
    return compact_witness(m) is None


def shrink(m: Term, phi: Formula) -> Term | None:
    """One shrinking step: replace the outer subterm of a non-compactness
    witness by a compressed re-targeted copy of the inner one. Returns a
    strictly smaller inhabitant of phi, or None when m is compact."""
    witness = compact_witness(m)
    if witness is None:
        return None
    a, b, alpha = witness
    targets = free_vars(subterm_at(m, a))
    chi = tuple(v.var_type for v in targets)
    compressed = compress_term(subterm_at(m, b), alpha)
    chain = chain_for_sequence(blueprint_of(compressed), chi)
    assert chain is not None
    replacement = switch_var(compressed, chain, targets)
    replacement = rename_bound_above(replacement, max_rank(m))
    out = replace_at(m, a, replacement)
    assert node_count(out) < node_count(m)
    assert is_nf_inhabitant(out, phi)
    return out


def shrink_fixpoint(m: Term, phi: Formula) -> Term:
    """Iterate shrink until compact."""
    while True:
        nxt = shrink(m, phi)
        if nxt is None:
            return m
        m = nxt


# --- compact shadows --------------------------------------------------------

@dataclass(frozen=True)
class ShadowLabel:
    chi_seq: tuple[Formula, ...]
    gamma: Blueprint
    psi: Formula


@dataclass(frozen=True)
class Shadow:
    entries: tuple[tuple[Address, ShadowLabel], ...]

    def __post_init__(self) -> None:
        if list(self.entries) != sorted(self.entries, key=lambda e: e[0]):
            raise ValueError("shadow entries must be address-sorted")

    @property
    def domain(self) -> tuple[Address, ...]:
        return tuple(a for a, _ in self.entries)

    def get(self, a: Address) -> ShadowLabel:
        for addr, label in self.entries:
            if addr == a:
                return label
        raise KeyError(a)

    def arity(self, a: Address) -> int:
        dom = set(self.domain)
        return (a + (1,) in dom) + (a + (2,) in dom)

    def unary_count(self, a: Address) -> int:
        """k_a: the number of unary strict ancestors of a."""
        dom = set(self.domain)
        k = 0
        for i in range(len(a)):
            b = a[:i]
            if b + (1,) in dom and b + (2,) not in dom:
                k += 1
        return k

    def leaves(self) -> list[Address]:
        dom = set(self.domain)
        return sorted(a for a in dom if a + (1,) not in dom and a + (2,) not in dom)


def make_shadow(mapping: dict[Address, ShadowLabel]) -> Shadow:
    return Shadow(tuple(sorted(mapping.items(), key=lambda e: e[0])))


def root_shadow(phi: Formula) -> Shadow:
    return make_shadow({(): ShadowLabel((), empty(), phi)})


# --- comb witnesses ---------------------------------------------------------

def _comb(chi: tuple[Formula, ...], tags: tuple[Formula, ...]) -> Blueprint:
    """Right-leaf comb realizing exactly chi: F = contractions of {chi}."""
    if not chi:
        return empty()
    out = leaf(chi[0])
    for c, t in zip(chi[1:], tags):
        out = app(t, out, leaf(c))
    return out


# --- shadow of a term -------------------------------------------------------

def shadow_of(m: Term, phi: Formula) -> Shadow:
    """The shadow of a locally compact inhabitant: at each address the free
    type sequence, a maximal bounded compression of the stable part, and the
    subterm type."""
    mapping: dict[Address, ShadowLabel] = {}
    for a, t in addresses(m):
        k = len(lambda_prefix(m, a))
        chi = tuple(v.var_type for v in free_vars(t))
        gamma = compress_to_max(blueprint_of(t), k)
        mapping[a] = ShadowLabel(chi, gamma, type_of(t))
    return make_shadow(mapping)


def is_phi_shadow(x: Shadow, phi: Formula) -> bool:
    dom = set(x.domain)
    if () not in dom:
        return False
    for a in dom:
        if a and a[:-1] not in dom:
            return False
        if a and a[-1] not in (1, 2):
            return False
        if a + (2,) in dom and a + (1,) not in dom:
            return False
    subs = subformulas(phi)
    bound = len(subs)
    root = x.get(())
    if root.chi_seq != () or not root.gamma.is_empty() or root.psi != phi:
        return False
    for a, label in x.entries:
        k = x.unary_count(a)
        if label.psi not in subs:
            return False
        if len(label.chi_seq) > k or any(c not in subs for c in label.chi_seq):
            return False
        g = label.gamma
        if g != canonicalize(g):
            return False
        for _, lab in g.entries:
            if lab.formula not in subs:
                return False
        if width(g) > k or relative_depth(g) > k * bound:
            return False
        if label.chi_seq not in f_of(g):
            return False
    return True


def is_compact_shadow(x: Shadow) -> bool:
    dom = x.domain
    for a in dom:
        la = x.get(a)
        for b in dom:
            if not (len(a) < len(b) and b[: len(a)] == a):
                continue
            lb = x.get(b)
            if x.arity(a) != x.arity(b) or la.psi != lb.psi:
                continue
            if admits_sequence(lb.gamma, la.chi_seq):
                return False
    return True


# --- shadows derived from the solver ----------------------------------------

@dataclass
class Enumeration:
    shadows: list[Shadow]
    complete: bool
    exact: bool
    stats: dict[str, int] = field(default_factory=dict)


def _comb_tags(
    chi: tuple[Formula, ...], constraints: frozenset, subs: list[Formula]
) -> tuple[Formula, ...] | None:
    """Spine tags, over subs, of the comb that `_Solver._feasible` admits for
    chi under the constraints: those of the first finest tag pattern whose
    graft closure misses every constraint (distinct tags when there are
    enough subformulas), or None if none does."""
    k = max(0, len(chi) - 1)
    for pattern in _patterns(k, min(k, len(subs))):
        if not (constraints and _comb_universe(chi, pattern) & constraints):
            return tuple(subs[c] for c in pattern)
    return None


def _solution_shadow(solver: _Solver, m: Term) -> Shadow:
    """The shadow the solver's search gave the solution m: walking m top-down
    with the ancestor history, each node is labelled with its free types in
    rank order (chi), its type (psi) and a canonical comb gamma on the spine
    tags of `_comb_tags` (a leaf at a variable); the search keeps no comb."""
    mapping: dict[Address, ShadowLabel] = {}
    stack: list[tuple[Address, Term, frozenset]] = [((), m, frozenset())]
    while stack:
        a, t, hist = stack.pop()
        chi = tuple(v.var_type for v in free_vars(t))
        psi = type_of(t)
        arity = {Var: 0, Lam: 1, App: 2}[type(t)]
        constraints = frozenset(c for (r, p, c) in hist if r == arity and p == psi)
        tags = _comb_tags(chi, constraints, solver.subs)
        assert tags is not None, "the solver admitted this node"
        mapping[a] = ShadowLabel(chi, canonicalize(_comb(chi, tags)), psi)
        child_hist = hist | {(arity, psi, chi)}
        if isinstance(t, Lam):
            stack.append((a + (1,), t.body, child_hist))
        elif isinstance(t, App):
            stack.append((a + (1,), t.fn, child_hist))
            stack.append((a + (2,), t.arg, child_hist))
    return make_shadow(mapping)


def enumerate_compact_shadows(phi: Formula) -> Enumeration:
    """All fully expanded compact phi-shadows, derived from `_Solver`: the
    shadows of the terms it returns (see `_solution_shadow`), without
    repeats, ordered by domain size and domain. Every leaf is a variable node
    (chi = (psi,)).

    `complete` and `exact` are the solver's: `complete` is False when the
    history length (`MAX_SHADOW_NODES`) cut the search; `exact` is False when
    some pruning step could not be decided exactly (then an Empty verdict
    downstream must degrade)."""
    solver = _Solver(phi)
    unique = dict.fromkeys(_solution_shadow(solver, m) for m in solver.solve())
    shadows = sorted(unique, key=lambda s: (len(s.domain), s.domain))
    return Enumeration(
        shadows,
        solver.complete,
        solver.exact,
        {"shadows": len(shadows), "expanded": solver.expanded},
    )


def inhabitant_with_domain(phi: Formula, x: Shadow) -> Term | None:
    """First inhabitant with the shadow's tree domain and the shadow's psi
    label as its type at every address, derived from the oracle: the first
    such term of `enumerate_inhabitants` up to n nodes, n the domain size
    (only n-node terms have an n-address domain)."""
    pins = {a: label.psi for a, label in x.entries}
    for m in enumerate_inhabitants(phi, len(x.domain)):
        subterms = dict(addresses(m))
        if subterms.keys() == pins.keys() and all(
            type_of(t) == pins[a] for a, t in subterms.items()
        ):
            return m
    return None
