"""Verdict checks that share no code with the program under test.

Formulas are atoms (str) or implications (tuple pair). This module holds its
own parser and printer, a checker for BB'IW certificates in the JSON form that
`ticket decide --json` emits, a search for 3-valued matrices that validate
B, B', I and W, and seeded generators for random formulas and random
derivations. Nothing here imports `ticket`.
"""
from __future__ import annotations

import itertools
import re

_TOKEN = re.compile(r"\s*(->|\(|\)|[A-Za-z][A-Za-z0-9_]*)")
ATOMS = ("a", "b", "c")


class ParseError(ValueError):
    pass


def parse(text):
    """Parse `F ::= atom | F -> F | (F)`, arrow associating to the right."""
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"bad character at offset {pos} in {text!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    # shunting over a right-associative operator: a stack of operand lists
    stack = [[]]
    expect_operand = True
    for tok in tokens:
        if expect_operand:
            if tok == "(":
                stack.append([])
            elif tok in ("->", ")"):
                raise ParseError(f"unexpected {tok!r} in {text!r}")
            else:
                stack[-1].append(tok)
                expect_operand = False
        elif tok == "->":
            expect_operand = True
        elif tok == ")":
            if len(stack) < 2:
                raise ParseError(f"unbalanced ')' in {text!r}")
            inner = _fold(stack.pop())
            stack[-1].append(inner)
        else:
            raise ParseError(f"missing '->' before {tok!r} in {text!r}")
    if expect_operand or len(stack) != 1:
        raise ParseError(f"incomplete formula {text!r}")
    return _fold(stack[0])


def _fold(parts):
    out = parts[-1]
    for left in reversed(parts[:-1]):
        out = (left, out)
    return out


def show(f):
    if isinstance(f, str):
        return f
    left = show(f[0])
    if isinstance(f[0], tuple):
        left = f"({left})"
    return f"{left}->{show(f[1])}"


def arrows(f):
    return 0 if isinstance(f, str) else 1 + arrows(f[0]) + arrows(f[1])


# --- axiom schemes and certificates ------------------------------------------

def axiom_b(x, y, z):  # (x->y)->(z->x)->z->y
    return ((x, y), ((z, x), (z, y)))


def axiom_b_prime(x, y, z):  # (x->y)->(y->z)->x->z
    return ((x, y), ((y, z), (x, z)))


def axiom_i(x):
    return (x, x)


def axiom_w(x, y):  # (x->x->y)->x->y
    return ((x, (x, y)), (x, y))


def _is_imp(f):
    return isinstance(f, tuple)


def is_axiom_instance(kind, t):
    """Match t against one axiom scheme by destructuring it."""
    if kind == "I":
        return _is_imp(t) and t[0] == t[1]
    if kind == "W":
        return (
            _is_imp(t) and _is_imp(t[0]) and _is_imp(t[0][1])
            and t == axiom_w(t[0][0], t[0][1][1])
        )
    if kind in ("B", "B'"):
        if not (_is_imp(t) and _is_imp(t[0]) and _is_imp(t[1]) and _is_imp(t[1][0])):
            return False
        x, y = t[0]
        if kind == "B":
            return t == axiom_b(x, y, t[1][0][0])
        return t == axiom_b_prime(x, y, t[1][0][1])
    return False


class CertificateInvalid(ValueError):
    pass


def check_certificate(cert):
    """Root formula of a certificate in the emitted JSON form, after checking
    every axiom leaf against its scheme and every modus ponens step. Raises
    CertificateInvalid on the first fault. Iterative, so depth is no limit."""
    done = {}
    stack = [(cert, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        if not isinstance(node, dict) or not isinstance(node.get("type"), str):
            raise CertificateInvalid("node without a type")
        try:
            t = parse(node["type"])
        except ParseError as exc:
            raise CertificateInvalid(str(exc)) from exc
        kind = node.get("kind")
        if kind == "mp":
            kids = node.get("children")
            if not isinstance(kids, list) or len(kids) != 2:
                raise CertificateInvalid("mp node needs two children")
            if not expanded:
                stack.append((node, True))
                stack.extend((k, False) for k in kids)
                continue
            if done[id(kids[0])] != (done[id(kids[1])], t):
                raise CertificateInvalid(f"modus ponens does not give {node['type']}")
        elif kind in ("B", "B'", "I", "W"):
            if not is_axiom_instance(kind, t):
                raise CertificateInvalid(f"{node['type']} is not an instance of {kind}")
        else:
            raise CertificateInvalid(f"unknown node kind {kind!r}")
        done[id(node)] = t
    return done[id(cert)]


def certificate_nodes(cert):
    count, stack = 0, [cert]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.get("children") or ())
    return count


def mutate_certificate(cert, rng):
    """Copy of cert with one axiom leaf relabelled to a scheme its type is
    not an instance of. The types still fit every modus ponens step, so only
    the axiom-scheme check can reject the copy. No type is an instance of
    both I and W, so such a scheme always exists."""
    leaves = []

    def copy(node):
        out = dict(node)
        if node.get("kind") == "mp":
            out["children"] = [copy(k) for k in node["children"]]
        else:
            leaves.append(out)
        return out

    clone = copy(cert)
    leaf = rng.choice(leaves)
    t = parse(leaf["type"])
    leaf["kind"] = rng.choice([k for k in ("B", "B'", "I", "W") if not is_axiom_instance(k, t)])
    return clone


# --- derivations -------------------------------------------------------------

def derivation_json(node):
    """A derivation as nested ("kind", type) / ("mp", left, right, type)
    tuples, written in the certificate JSON form."""
    if node[0] == "mp":
        return {
            "kind": "mp",
            "type": show(node[3]),
            "children": [derivation_json(node[1]), derivation_json(node[2])],
        }
    return {"kind": node[0], "type": show(node[1])}


def _root(node):
    return node[3] if node[0] == "mp" else node[1]


def random_derivation(rng, steps):
    """A derivation grown from random axiom instances over a, b, c: each step
    adds one instance whose antecedent matches a type in the pool, then fires
    one applicable modus ponens. Returns the last derivation built."""

    def rf(depth=1):
        if depth == 0 or rng.random() < 0.6:
            return rng.choice(ATOMS)
        return (rf(depth - 1), rf(depth - 1))

    pool = [("I", axiom_i(rf())), ("W", axiom_w(rf(), rf())), ("B", axiom_b(rf(), rf(), rf()))]
    for _ in range(steps):
        t = _root(rng.choice(pool))
        kind = rng.randrange(4)
        if kind == 0:
            pool.append(("I", axiom_i(t)))
        elif kind == 1 and _is_imp(t):
            pool.append(("B", axiom_b(t[0], t[1], rf())))
        elif kind == 2 and _is_imp(t):
            pool.append(("B'", axiom_b_prime(t[0], t[1], rf())))
        elif _is_imp(t) and _is_imp(t[1]) and t[0] == t[1][0]:
            pool.append(("W", axiom_w(t[0], t[1][1])))
        fits = [
            (l, r)
            for l in pool
            for r in pool
            if _is_imp(_root(l)) and _root(l)[0] == _root(r)
        ]
        if fits:
            l, r = rng.choice(fits)
            pool.append(("mp", l, r, _root(l)[1]))
    return pool[-1]


def random_formula(rng, n_arrows):
    """A formula over a, b, c with exactly n_arrows arrows; the split of
    arrows between antecedent and consequent is uniform at every node."""
    if n_arrows == 0:
        return rng.choice(ATOMS)
    k = rng.randrange(n_arrows)
    return (random_formula(rng, k), random_formula(rng, n_arrows - 1 - k))


# --- 3-valued matrices -------------------------------------------------------

VALUES = (0, 1, 2)
NAMED = {
    "B": "(b->c)->(a->b)->a->c",
    "B'": "(a->b)->(b->c)->a->c",
    "I": "a->a",
    "W": "(a->a->b)->a->b",
    "S": "(a->b->c)->(a->b)->a->c",
    "K": "a->b->a",
    "C": "(a->b->c)->b->a->c",
    "Peirce": "((a->b)->a)->a",
}


def atoms_of(f, out=None):
    out = set() if out is None else out
    if isinstance(f, str):
        out.add(f)
    else:
        atoms_of(f[0], out)
        atoms_of(f[1], out)
    return out


def _value(f, table, env):
    if isinstance(f, str):
        return env[f]
    return table[_value(f[0], table, env) * 3 + _value(f[1], table, env)]


def falsifies(matrix, f):
    """An assignment of the atoms of f under which f takes an undesignated
    value, or None."""
    table, designated = matrix
    names = sorted(atoms_of(f))
    for vals in itertools.product(VALUES, repeat=len(names)):
        env = dict(zip(names, vals))
        if _value(f, table, env) not in designated:
            return env
    return None


def validates(matrix, f):
    return falsifies(matrix, f) is None


def mp_closed(matrix):
    table, designated = matrix
    return all(
        y in designated
        for x in designated
        for y in VALUES
        if table[x * 3 + y] in designated
    )


def search_matrices():
    """Every (table, designated set) on 3 values whose designated set is
    nonempty and proper, closed under modus ponens, and that validates B,
    B', I and W. A formula any of them falsifies is no theorem of T->."""
    axioms = [parse(NAMED[k]) for k in ("I", "W", "B'", "B")]
    designated_sets = [
        frozenset(s)
        for r in (1, 2)
        for s in itertools.combinations(VALUES, r)
    ]
    out = []
    for table in itertools.product(VALUES, repeat=9):
        for designated in designated_sets:
            m = (table, designated)
            if mp_closed(m) and all(validates(m, ax) for ax in axioms):
                out.append((table, tuple(sorted(designated))))
    return out


def countermodel(matrices, f):
    """The index of the first matrix that falsifies f and the assignment, or
    None when every matrix validates f."""
    for i, (table, designated) in enumerate(matrices):
        env = falsifies((table, frozenset(designated)), f)
        if env is not None:
            return i, env
    return None
