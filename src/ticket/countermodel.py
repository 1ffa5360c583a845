"""Countermodels: finite matrices that refute non-theorems of T->.

A 3-valued matrix is a table for the arrow on the values 0, 1, 2 (entry
3x + y is the value of x -> y) together with a designated set. When every
assignment designates the axioms B, B', I and W, and the designated set is
closed under modus ponens (x and x -> y designated make y designated), the
matrix designates every theorem of T->. A formula that it fails to designate
under some assignment is then no theorem: table, designated set and
assignment form a certificate of Empty, which `check_countermodel`
re-verifies from its parts. This is the matrix method of Anderson and
Belnap (Entailment, vol. 1).

`MATRICES` holds one such matrix per isomorphism class under permutations
of the values: 75 classes of the 441 matrices, each the first of its class
in the order in which `search_matrices` generates them. The table is stored
as text so that importing this module costs little; `search_matrices`
regenerates it in about half a second.
"""
from __future__ import annotations

import functools
import itertools
import math
import time

from .formula import Atom, Formula, print_formula
from .record import Record, slot_setters

VALUES = (0, 1, 2)

# The search evaluates every matrix on all 3**n assignments at once, for at
# most this many distinct atoms; further atoms are merged (see
# `countermodel`).
MAX_ATOMS = 8
# The sweep's tables for up to this many atoms are built at import. Those
# for 7 and 8 atoms are built on first use: about 0.7 and 2.7 ms, and 0.5
# and 3.3 MB of peak resident memory, on a 2-core VM.
_PREBUILT_ATOMS = 6

# One matrix a word: the 9 table entries, a slash, the designated values.
_TABLE = """
002002000/01 002002001/01 002002010/01 002002011/01 002002100/01 002002101/01
002002110/01 002002111/01 002012000/01 002012001/01 002012010/01 002012011/01
002012100/01 002012101/01 002012110/01 002012111/01 002102000/01 002102001/01
002102010/01 002102011/01 002102100/01 002102101/01 002102110/01 002102111/01
002112000/01 002112001/01 002112010/01 002112100/01 002202000/01 011000000/0
011000010/0 011000010/02 011000012/02 011000110/0 011000110/02 012000000/0
012000010/0 012000010/02 012000012/02 012000210/02 012002001/01 012002010/0
012002010/01 012002011/01 012002012/02 012002100/01 012002101/01 012002110/01
012002111/01 012002210/02 012012001/01 012012100/01 012020210/02 012022210/02
012102100/01 012102101/01 012102110/01 012102111/01 021000000/0 102002000/01
102002001/01 102002010/01 102002011/01 102002100/01 102002101/01 102002110/01
102002111/01 102102000/01 102102001/01 102102010/01 102102100/01 111022011/12
112002001/01 112002010/01 112002100/01
"""

MATRICES: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = tuple(
    (tuple(map(int, table)), tuple(map(int, designated)))
    for table, designated in (word.split("/") for word in _TABLE.split())
)


def _matrix_set(test) -> int:
    """The matrices that pass test(table, designated), as a set of bits:
    bit m stands for MATRICES[m]."""
    return sum(1 << m for m, (table, designated) in enumerate(MATRICES) if test(table, designated))


# The matrices whose table maps x -> y to v, at index 9v + 3x + y, for v = 0
# and 1 (the sweep takes value 2 as the rest), and those that leave v
# undesignated, at index v.
_MAPS_TO = tuple(_matrix_set(lambda table, _: table[xy] == v) for v in (0, 1) for xy in range(9))
_UNDESIGNATED = tuple(_matrix_set(lambda _, designated: v not in designated) for v in VALUES)


class CountermodelError(Exception):
    """A countermodel that does not refute the formula it is checked
    against."""


class CountermodelFormatError(CountermodelError):
    """Countermodel JSON that does not have the expected shape."""


class Countermodel(Record):
    __slots__ = ("table", "designated", "assignment")

    def __init__(
        self,
        table: tuple[int, ...],
        designated: tuple[int, ...],
        assignment: tuple[tuple[str, int], ...],  # (atom name, value), by name
    ) -> None:
        _set_table(self, table)
        _set_designated(self, designated)
        _set_assignment(self, assignment)


_set_table, _set_designated, _set_assignment = slot_setters(Countermodel)


Program = tuple[tuple[str, ...], tuple[tuple[int, int], ...]]


def _program(phi: Formula) -> Program:
    """phi as a straight-line program. Its atom names, sorted, take slots
    0..n-1; each distinct arrow, after its two sides, takes the next slot
    and is listed as the slots of its antecedent and consequent. The last
    slot holds phi. Iterative, so depth is no limit."""
    names: set[str] = set()
    arrows: list[Formula] = []
    slot: dict[Formula, int] = {}
    stack: list[tuple[Formula, bool]] = [(phi, False)]
    while stack:
        f, ready = stack.pop()
        if isinstance(f, Atom):
            names.add(f.name)
        elif f not in slot:
            if ready:
                slot[f] = len(arrows)
                arrows.append(f)
            else:
                stack += [(f, True), (f.consequent, False), (f.antecedent, False)]
    atoms = tuple(sorted(names))
    n = len(atoms)
    where = {name: i for i, name in enumerate(atoms)}

    def slot_of(f: Formula) -> int:
        return where[f.name] if isinstance(f, Atom) else n + slot[f]

    ops = tuple((slot_of(f.antecedent), slot_of(f.consequent)) for f in arrows)
    return atoms, ops


def _values(table: tuple[int, ...], ops, columns) -> list[int]:
    """The value of the program's last slot on each row, given the columns
    of its atom slots."""
    cols = list(columns)
    for left, right in ops:
        cols.append([table[3 * x + y] for x, y in zip(cols[left], cols[right])])
    return cols[-1]


def _unvalidated_axiom(table, designated) -> str | None:
    """The first of I, W, B' and B that the matrix leaves undesignated under
    some assignment of values to x, y and z, or None when it validates all
    four. Entry 3u + v of the table is the value of u -> v."""
    t = table
    for x in VALUES:
        if t[4 * x] not in designated:  # x->x
            return "I"
    for x in VALUES:
        for y in VALUES:
            xy = t[3 * x + y]
            if t[3 * t[3 * x + xy] + xy] not in designated:  # (x->x->y)->x->y
                return "W"
    for x in VALUES:
        for y in VALUES:
            for z in VALUES:
                # (x->y)->(y->z)->x->z
                if t[3 * t[3 * x + y] + t[3 * t[3 * y + z] + t[3 * x + z]]] not in designated:
                    return "B'"
    for x in VALUES:
        for y in VALUES:
            for z in VALUES:
                # (y->z)->(x->y)->x->z
                if t[3 * t[3 * y + z] + t[3 * t[3 * x + y] + t[3 * x + z]]] not in designated:
                    return "B"
    return None


def _mp_closed(table, designated) -> bool:
    return all(
        y in designated
        for x in designated
        for y in VALUES
        if table[3 * x + y] in designated
    )


def _matrix_error(table, designated) -> str | None:
    """Why the matrix is no model of T->, the first check that fails, or
    None when its designated set is nonempty, proper and closed under modus
    ponens and its table validates B, B', I and W."""
    if not 0 < len(designated) < len(VALUES):
        return "the designated set must be nonempty and proper"
    if not _mp_closed(table, designated):
        return "the designated set is not closed under modus ponens"
    name = _unvalidated_axiom(table, designated)
    if name is not None:
        return f"the table does not validate {name}"
    return None


def _is_model(table, designated) -> bool:
    return _matrix_error(table, designated) is None


# The committed matrices, each checked to be a model here, once per process:
# `check_countermodel` checks a matrix again only when it is not one of them.
_MODELS = frozenset(matrix for matrix in MATRICES if _is_model(*matrix))


def _permuted(table, designated, p) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The matrix with every value v renamed p[v]."""
    out = [0] * 9
    for x, y in itertools.product(VALUES, repeat=2):
        out[3 * p[x] + p[y]] = p[table[3 * x + y]]
    return tuple(out), tuple(sorted(p[v] for v in designated))


def all_matrices():
    """Every matrix on 3 values with a nonempty, proper designated set that
    is closed under modus ponens and validates B, B', I and W, in
    generation order: tables lexicographically, then designated sets by
    size, then lexicographically."""
    designated_sets = [d for r in (1, 2) for d in itertools.combinations(VALUES, r)]
    for table in itertools.product(VALUES, repeat=9):
        for designated in designated_sets:
            if _is_model(table, designated):
                yield table, designated


def search_matrices() -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The first matrix of each isomorphism class of `all_matrices`, in
    generation order: the contents of `MATRICES`."""
    out, seen = [], set()
    for matrix in all_matrices():
        if matrix in seen:
            continue
        out.append(matrix)
        seen.update(_permuted(*matrix, p) for p in itertools.permutations(VALUES))
    return tuple(out)


def _tile(bits: int, period: int, k: int) -> int:
    """`bits` copied 3**k times, `period` bits apart."""
    for _ in range(k):
        bits |= bits << period | bits << 2 * period
        period *= 3
    return bits


@functools.cache
def _sweep_masks(n: int):
    """The masks of the one-pass sweep over n atoms. Bit row * len(MATRICES)
    + m stands for MATRICES[m] under the assignment that gives atom i digit
    i of `row` in base 3, most significant first, so each row is a block of
    one bit per matrix. A slot of the sweep holds three masks:
    for each value 0, 1, 2, the bits at which the slot takes that value.
    Returns the atom slots; (x, y, to0, to1) for each pair of values, to_v
    being the bits whose matrix maps x -> y to v; for each value, the bits
    whose matrix leaves it undesignated; and the lowest bit of each row."""
    width = len(MATRICES)
    every_row = _tile(1, width, n)
    atoms = []
    for i in range(n):
        # atom i keeps each value for `run` rows, then takes the next one
        run = 3 ** (n - 1 - i)
        block = _tile((1 << width) - 1, width, n - 1 - i)
        atoms.append(tuple(_tile(block << v * run * width, 3 * run * width, i) for v in VALUES))
    pairs = tuple(
        (x, y, _MAPS_TO[3 * x + y] * every_row, _MAPS_TO[9 + 3 * x + y] * every_row)
        for x in VALUES
        for y in VALUES
    )
    return tuple(atoms), pairs, tuple(m * every_row for m in _UNDESIGNATED), every_row


# Built at import for the atom counts of most formulas, so that a process
# forked after the import finds them built.
for _n in range(_PREBUILT_ATOMS + 1):
    _sweep_masks(_n)


def countermodel(phi: Formula, deadline: float = math.inf) -> tuple[int, Countermodel] | None:
    """The index m of the first matrix of `MATRICES` under which phi is
    undesignated under some assignment, and the countermodel of that matrix
    and its first such assignment; None when every matrix validates phi.
    One pass evaluates phi in all the matrices under all the assignments at
    once (see `_sweep_masks`). Raises TimeoutError once `time.monotonic()`
    passes `deadline`, checked per arrow of phi.

    Past MAX_ATOMS distinct atoms, every atom after the first MAX_ATOMS, in
    sorted order, is merged onto the first atom, and the merged formula is
    swept. Theorems are closed under substitution, so a countermodel of the
    merged formula is one of phi, under the assignment that gives each
    merged atom the first atom's value. None is then no proof that every
    matrix validates phi."""
    atoms, ops = _program(phi)
    merged = max(0, len(atoms) - MAX_ATOMS)
    n = len(atoms) - merged
    if merged:
        # a merged atom's slot becomes slot 0, and each arrow's slot moves
        # down by the number of merged slots
        def slot(s: int) -> int:
            return s if s < n else 0 if s < n + merged else s - merged

        ops = tuple((slot(left), slot(right)) for left, right in ops)
    width, rows = len(MATRICES), 3**n
    every_bit = (1 << width * rows) - 1
    slots, pairs, undesignated, every_row = _sweep_masks(n)
    slots = list(slots)
    for left, right in ops:
        # one arrow over 8 atoms takes about 0.3 ms on a 2-core VM
        if time.monotonic() > deadline:
            raise TimeoutError
        a, b = slots[left], slots[right]
        z0 = z1 = 0
        # left -> right is v where left is x, right is y and the matrix maps
        # x -> y to v; it is 2 where it is neither 0 nor 1
        for x, y, to0, to1 in pairs:
            ab = a[x] & b[y]
            z0 |= ab & to0
            z1 |= ab & to1
        slots.append((z0, z1, every_bit ^ (z0 | z1)))
    last = slots[-1]
    bad = (last[0] & undesignated[0]) | (last[1] & undesignated[1]) | (last[2] & undesignated[2])
    if not bad:
        return None
    # the first matrix: fold the rows onto row 0 and take the lowest bit
    folded, blocks = bad, rows
    while blocks > 1:
        half = (blocks + 1) // 2
        folded = (folded & ((1 << half * width) - 1)) | (folded >> half * width)
        blocks = half
    m = (folded & -folded).bit_length() - 1
    # then its first row
    hits = (bad >> m) & every_row
    row = ((hits & -hits).bit_length() - 1) // width
    table, designated = MATRICES[m]
    values = [row // 3 ** (n - 1 - i) % 3 for i in range(n)]
    assignment = tuple(zip(atoms, values + values[:1] * merged))
    return m, Countermodel(table, designated, assignment)


def check_countermodel(cm: Countermodel, phi: Formula) -> None:
    """Re-verify cm from its parts: its designated set is nonempty, proper
    and closed under modus ponens, its table validates B, B', I and W under
    every assignment (established at import for the matrices of
    `MATRICES`), and phi is undesignated under its assignment. Raises
    CountermodelError naming the first check that fails."""
    table, designated = cm.table, cm.designated
    if (table, designated) not in _MODELS:
        error = _matrix_error(table, designated)
        if error is not None:
            raise CountermodelError(error)
    atoms, ops = _program(phi)
    env = dict(cm.assignment)
    for name in atoms:
        if name not in env:
            raise CountermodelError(f"the assignment gives no value to {name}")
    (value,) = _values(table, ops, [[env[name]] for name in atoms])
    if value in designated:
        raise CountermodelError(f"{print_formula(phi)} is designated under the assignment")


def countermodel_to_json(cm: Countermodel) -> dict:
    return {
        "table": list(cm.table),
        "designated": list(cm.designated),
        "assignment": dict(cm.assignment),
    }


def _is_value(v) -> bool:
    return type(v) is int and v in VALUES


def countermodel_from_json(data) -> Countermodel:
    """Parse the form `countermodel_to_json` writes. Raises
    CountermodelFormatError unless the table is a list of 9 values, the
    designated set a list of distinct values and the assignment an object
    from atom names to values."""
    if not isinstance(data, dict) or not {"table", "designated", "assignment"} <= data.keys():
        raise CountermodelFormatError("expected an object with table, designated and assignment")
    table, designated, assignment = data["table"], data["designated"], data["assignment"]
    if not (isinstance(table, list) and len(table) == 9 and all(map(_is_value, table))):
        raise CountermodelFormatError("table must be a list of 9 values in 0, 1, 2")
    if not (
        isinstance(designated, list)
        and all(map(_is_value, designated))
        and len(set(designated)) == len(designated)
    ):
        raise CountermodelFormatError("designated must be a list of distinct values in 0, 1, 2")
    if not (isinstance(assignment, dict) and all(map(_is_value, assignment.values()))):
        raise CountermodelFormatError("assignment must map atom names to values in 0, 1, 2")
    return Countermodel(tuple(table), tuple(sorted(designated)), tuple(sorted(assignment.items())))
