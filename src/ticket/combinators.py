"""BB'IW combinator derivations: checkable modus-ponens certificates, and
extraction of a certificate from any normal inhabitant. Extraction is one
bottom-up pass over the term, and `check_derivation` checks its output
again before it is returned.

Extraction collapses detours as it goes: a step whose conclusion is an
instance of an axiom scheme becomes that axiom's leaf, and a conclusion
derived twice in one extraction keeps its smaller derivation. So the
certificate is a proof of the formula, often a single leaf, and not the
combinator image of the lambda witness. `mp` itself keeps every step it is
given. The translation of a derivation back to a lambda term, which only
the lemma checks use, is `compact.comb_to_lambda`."""
from __future__ import annotations

from typing import Any

from .formula import Formula, FormulaSyntaxError, Imp, parse_formula, print_formula
from .record import Record, slot_setters
from .terms import Lam, PreconditionViolated, Term, Var, is_nf_inhabitant

Path = tuple[int, ...]


class CertificateError(Exception):
    pass


class BadAxiomInstance(CertificateError):
    def __init__(self, path: Path, message: str = "not an instance of the axiom scheme"):
        super().__init__(f"{message} at path {path}")
        self.path = path


class BadModusPonens(CertificateError):
    def __init__(self, path: Path, message: str = "modus ponens types do not fit"):
        super().__init__(f"{message} at path {path}")
        self.path = path


class CertificateFormatError(CertificateError):
    pass


AXIOM_KINDS = ("B", "B'", "I", "W")


class Axiom(Record):
    __slots__ = ("kind", "instantiated_type")

    def __init__(self, kind: str, instantiated_type: Formula) -> None:
        _set_kind(self, kind)
        _set_instantiated_type(self, instantiated_type)


class MP(Record):
    __slots__ = ("left", "right", "result_type")

    def __init__(self, left: CombDerivation, right: CombDerivation, result_type: Formula) -> None:
        _set_left(self, left)
        _set_right(self, right)
        _set_result_type(self, result_type)


_set_kind, _set_instantiated_type = slot_setters(Axiom)
_set_left, _set_right, _set_result_type = slot_setters(MP)

CombDerivation = Axiom | MP


def _axiom_instance_ok(kind: str, t: Formula) -> bool:
    # B : (chi->psi)->((phi->chi)->(phi->psi))
    # B': (phi->chi)->((chi->psi)->(phi->psi))
    # I : phi->phi
    # W : (phi->(phi->chi))->(phi->chi)
    if kind == "I":
        return isinstance(t, Imp) and t.antecedent == t.consequent
    if not isinstance(t, Imp):
        return False
    a, c = t.antecedent, t.consequent
    if kind == "B":
        if not (isinstance(a, Imp) and isinstance(c, Imp)):
            return False
        chi, psi = a.antecedent, a.consequent
        ca, cc = c.antecedent, c.consequent
        if not (isinstance(ca, Imp) and isinstance(cc, Imp)):
            return False
        phi = ca.antecedent
        return ca.consequent == chi and cc.antecedent == phi and cc.consequent == psi
    if kind == "B'":
        if not (isinstance(a, Imp) and isinstance(c, Imp)):
            return False
        phi, chi = a.antecedent, a.consequent
        ca, cc = c.antecedent, c.consequent
        if not (isinstance(ca, Imp) and isinstance(cc, Imp)):
            return False
        return (
            ca.antecedent == chi
            and cc.antecedent == phi
            and cc.consequent == ca.consequent
        )
    if kind == "W":
        if not (isinstance(a, Imp) and isinstance(c, Imp)):
            return False
        phi = a.antecedent
        inner = a.consequent
        return (
            isinstance(inner, Imp)
            and inner.antecedent == phi
            and c.antecedent == phi
            and c.consequent == inner.consequent
        )
    return False


def check_derivation(d: CombDerivation) -> Formula:
    """Return the root type after verifying every axiom instance and every
    modus ponens step. Iterative so shared subtrees do not blow up."""
    types: dict[int, Formula] = {}
    stack: list[tuple[CombDerivation, Path, bool]] = [(d, (), False)]
    while stack:
        node, path, expanded = stack.pop()
        if id(node) in types:
            continue
        if isinstance(node, Axiom):
            if node.kind not in AXIOM_KINDS:
                raise BadAxiomInstance(path, f"unknown axiom kind {node.kind!r}")
            if not _axiom_instance_ok(node.kind, node.instantiated_type):
                raise BadAxiomInstance(path)
            types[id(node)] = node.instantiated_type
        elif not expanded:
            stack.append((node, path, True))
            stack.append((node.right, path + (2,), False))
            stack.append((node.left, path + (1,), False))
        else:
            lt = types[id(node.left)]
            rt = types[id(node.right)]
            if not (isinstance(lt, Imp) and lt.antecedent == rt):
                raise BadModusPonens(path)
            if lt.consequent != node.result_type:
                raise BadModusPonens(path, "annotated result type differs")
            types[id(node)] = node.result_type
    return types[id(d)]


def mp(left: CombDerivation, right: CombDerivation) -> MP:
    """Modus ponens with the result type computed from the annotations. It
    builds the step as given, even when its conclusion is an axiom
    instance."""
    lt = _root_type(left)
    rt = _root_type(right)
    if not (isinstance(lt, Imp) and lt.antecedent == rt):
        raise BadModusPonens((), "cannot combine these two derivations")
    return MP(left, right, lt.consequent)


def _root_type(d: CombDerivation) -> Formula:
    return d.instantiated_type if isinstance(d, Axiom) else d.result_type


def axiom_b(chi: Formula, psi: Formula, phi: Formula) -> Axiom:
    return Axiom("B", Imp(Imp(chi, psi), Imp(Imp(phi, chi), Imp(phi, psi))))


def axiom_b_prime(phi: Formula, chi: Formula, psi: Formula) -> Axiom:
    return Axiom("B'", Imp(Imp(phi, chi), Imp(Imp(chi, psi), Imp(phi, psi))))


def axiom_i(phi: Formula) -> Axiom:
    return Axiom("I", Imp(phi, phi))


def axiom_w(phi: Formula, chi: Formula) -> Axiom:
    return Axiom("W", Imp(Imp(phi, Imp(phi, chi)), Imp(phi, chi)))


Built = dict[Formula, tuple[MP, int]]


def _step(left: CombDerivation, right: CombDerivation, built: Built) -> CombDerivation:
    """One modus ponens step of extraction, returned as the smallest
    derivation known for its conclusion: the axiom leaf when the conclusion
    is an instance of B, B', I or W (tried in `AXIOM_KINDS` order, since
    some types fit both B and B'), else the derivation of it that this
    extraction has already built when that has no more nodes, else the new
    step, built through `mp` from the smallest known derivations of its
    premises. `built` maps each conclusion reached by a step to its
    smallest derivation and that derivation's node count; it belongs to one
    `extract_combinator` call."""
    left, n = built.get(_root_type(left), (left, 1))
    right, m = built.get(_root_type(right), (right, 1))
    d = mp(left, right)
    conclusion = d.result_type
    for kind in AXIOM_KINDS:
        if _axiom_instance_ok(kind, conclusion):
            return Axiom(kind, conclusion)
    known = built.get(conclusion)
    if known is not None and known[1] <= n + m + 1:
        return known[0]
    built[conclusion] = d, n + m + 1
    return d


def _extend(d: CombDerivation, prefix: list[Formula], built: Built) -> CombDerivation:
    """From a derivation of chi->psi, derive (prefix->chi)->(prefix->psi)
    by left-applications of B, one per prefix element."""
    t = _root_type(d)
    for head in reversed(prefix):
        d = _step(axiom_b(t.antecedent, t.consequent, head), d, built)
        t = _root_type(d)
    return d


def _combine(
    d1: CombDerivation,
    d2: CombDerivation,
    i: tuple[int, ...],
    j: tuple[int, ...],
    omega: dict[int, Formula],
    built: Built,
) -> CombDerivation:
    """Combine d1: w_i1..w_in -> (chi->psi) and d2: w_j1..w_jm -> chi into a
    derivation of w_k1..w_kp -> psi. Here i and j are increasing ranks, k
    enumerates their union and w_k is omega[k]. Needs n = 0, or n,m > 0
    with i_n <= j_m, as the HRM application rule gives.

    The recursion uses B to push the combination under shared antecedents,
    B' to swap the two streams, and W to contract when the top antecedents
    coincide. Every step goes through `_step`, which checks that the types
    fit."""
    if not j:
        return _step(d1, d2, built)
    target = _root_type(d1)
    for _ in i:
        target = target.consequent
    chi, psi = target.antecedent, target.consequent
    w = omega[j[-1]]
    # n == 0 or i_n <= j_(m-1): push the combination under w with B
    if not i or (len(j) > 1 and i[-1] <= j[-2]):
        lifted = _extend(axiom_b(chi, psi, w), [omega[p] for p in i], built)
        return _combine(_step(lifted, d1, built), d2, i, j[:-1], omega, built)
    # otherwise swap the two streams with B', then contract with W if
    # j_m = i_n
    lifted = _extend(axiom_b_prime(w, chi, psi), [omega[p] for p in j[:-1]], built)
    swapped = _combine(_step(lifted, d2, built), d1, j[:-1], i, omega, built)
    if j[-1] > i[-1]:
        return swapped
    # swapped proves w_k1..w_k(p-1) -> (w -> (w -> psi))
    shared = sorted(set(i + j))
    contraction = _extend(axiom_w(w, psi), [omega[p] for p in shared[:-1]], built)
    return _step(contraction, swapped, built)


def extract_combinator(m: Term, phi: Formula) -> CombDerivation:
    """Certificate extraction from a normal inhabitant, in one bottom-up
    pass. Each subterm t yields a derivation of w(Free(t)) -> type_of(t)
    and Free(t), the ranks of its free variables in increasing order, each
    mapped to its type. A variable yields an I instance and itself; an
    abstraction yields its body's derivation, which already has the arrow
    shape, and drops its binder, the greatest rank; an application merges
    its sides' free variables and joins their derivations with `_combine`.

    Every modus ponens step goes through `_step`, so no step keeps a
    detour: a conclusion that is an axiom instance is that axiom's leaf,
    and a conclusion derived twice shares its smallest derivation. The
    certificate is therefore a proof of phi, not the combinator image of m.
    The finished certificate is checked again, and its conclusion compared
    with phi."""
    if not is_nf_inhabitant(m, phi):
        raise PreconditionViolated("extract_combinator needs a normal inhabitant")
    built: Built = {}

    def extract(t: Term) -> tuple[CombDerivation, dict[int, Formula]]:
        if isinstance(t, Var):
            return axiom_i(t.ref.var_type), {t.ref.rank: t.ref.var_type}
        if isinstance(t, Lam):
            d, free = extract(t.body)
            free.popitem()  # the binder
            return d, free
        d1, free1 = extract(t.fn)
        d2, free2 = extract(t.arg)
        omega = dict(sorted({**free1, **free2}.items()))
        return _combine(d1, d2, tuple(free1), tuple(free2), omega, built), omega

    d = extract(m)[0]
    result = check_derivation(d)
    if result != phi:
        raise CertificateError(f"extracted {print_formula(result)}, wanted {print_formula(phi)}")
    return d


def derivation_to_json(d: CombDerivation) -> dict[str, Any]:
    """The certificate as JSON data: each node's kind and type, and an mp
    node's two children. Each distinct subformula is printed once."""
    texts: dict[Formula, str] = {}

    def emit(node: CombDerivation) -> dict[str, Any]:
        if isinstance(node, Axiom):
            return {"kind": node.kind, "type": print_formula(node.instantiated_type, texts)}
        return {
            "kind": "mp",
            "type": print_formula(node.result_type, texts),
            "children": [emit(node.left), emit(node.right)],
        }

    return emit(d)


def derivation_from_json(data: Any) -> CombDerivation:
    """Rebuild a derivation from `derivation_to_json` output, parsing each
    distinct type string once."""
    types: dict[str, Formula] = {}

    def build(node: Any) -> CombDerivation:
        if not isinstance(node, dict) or "kind" not in node or "type" not in node:
            raise CertificateFormatError("certificate nodes need 'kind' and 'type'")
        text = node["type"]
        if not isinstance(text, str):
            raise CertificateFormatError(f"'type' must be a string, not {type(text).__name__}")
        node_type = types.get(text)
        if node_type is None:
            try:
                node_type = types[text] = parse_formula(text)
            except FormulaSyntaxError as exc:
                raise CertificateFormatError(f"bad type string: {exc}") from exc
        kind = node["kind"]
        if kind == "mp":
            children = node.get("children")
            if not isinstance(children, list) or len(children) != 2:
                raise CertificateFormatError("mp node needs exactly two children")
            return MP(build(children[0]), build(children[1]), node_type)
        if kind not in AXIOM_KINDS:
            raise CertificateFormatError(f"unknown node kind {kind!r}")
        return Axiom(kind, node_type)

    return build(data)
