"""Benchmark inputs: fixed pools of formulas and the per-seed draw from them.

Each pool line is `formula<TAB>ms<TAB>bytes`: the median time of the
screening operations and the size of the certificate emitted (0 for none).
`python3 bench/corpus.py` rebuilds `data/` from fixed pool seeds: it draws
random formulas (refute) and random BB'IW derivations (prove), checks
every derivation with the benchmark's own checker, and screens each candidate
with the program. A candidate the program does not finish within a quarter
of the per-operation limit is left out of the pool and listed in
`data/excluded.txt`, so that no pool formula comes near the limit during a
run. Only the formulas named in FAILURES below reach it, in every round.

A run draws from each pool by stratified sampling: the pool is cut into
blocks by screening time, each block into INNER parts by certificate size,
and the seed picks one formula from each part. So every seed gets the same
spread of easy and hard inputs and of small and large certificates.
"""
from __future__ import annotations

import json
import os
import random
import statistics
import sys

import logic
import ops

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

# in every workload: five theorems and three non-theorems of T->
NAMED = [logic.NAMED[k] for k in ("B", "B'", "I", "W", "S", "K", "C", "Peirce")]

# non-seeded inputs that reach the limit every time (see README, "Faults")
FAILURES = {
    "refute": ["((b->c->a)->a)->a->a"],
    "prove": [],
}

# group -> (workload, formulas drawn per round, pool size)
GROUPS = {
    "refute3": ("refute", 24, 100),
    "refute5": ("refute", 40, 160),
    "refute7": ("refute", 30, 120),
    "prove": ("prove", 92, 368),
}
WORKLOADS = ("refute", "prove")
INNER = 2
SCREEN_RUNS = 5
POOL_SEED = 20111106


def load_pool(group):
    rows = []
    with open(os.path.join(DATA, f"{group}.txt"), encoding="utf-8") as fh:
        for line in fh:
            text, ms, size = line.rstrip("\n").split("\t")
            rows.append((text, float(ms), int(size)))
    return rows


def draw(rows, count, rng):
    """count // INNER blocks of the pool in screening-time order, each split
    into INNER parts in certificate-size order; one formula from each part.
    Blocks and parts differ in size by at most one."""
    rows = sorted(rows, key=lambda r: (r[1], r[0]))
    blocks = count // INNER
    out = []
    for i in range(blocks):
        block = rows[len(rows) * i // blocks: len(rows) * (i + 1) // blocks]
        block.sort(key=lambda r: (r[2], r[0]))
        for j in range(INNER):
            lo, hi = len(block) * j // INNER, len(block) * (j + 1) // INNER
            out.append(block[rng.randrange(lo, hi)][0])
    return out


def round_inputs(workload, seed):
    """The formulas of one round: named cases, the seeded draw, then the
    named failures. The same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    drawn = []
    for group, (wl, count, _) in GROUPS.items():
        if wl == workload:
            drawn += draw(load_pool(group), count, rng)
    return NAMED + drawn + FAILURES[workload]


def cert_bytes(cert):
    """Size of a certificate as compact JSON; 0 when there is none."""
    return 0 if cert is None else len(json.dumps(cert, separators=(",", ":")))


# --- regeneration -------------------------------------------------------------

def _unique(candidates, seen):
    for text in candidates:
        if text not in seen:
            seen.add(text)
            yield text


def _refute_candidates(n_arrows):
    rng = random.Random(f"{POOL_SEED}/refute/{n_arrows}")
    while True:
        yield logic.show(logic.random_formula(rng, n_arrows))


def _theorem_candidates():
    """Roots of random derivations, each accepted by the benchmark's own
    certificate checker; at most 10 arrows, since larger ones almost never
    pass the screen."""
    rng = random.Random(f"{POOL_SEED}/derivations")
    while True:
        d = logic.random_derivation(rng, rng.randint(3, 7))
        root = logic.check_certificate(logic.derivation_json(d))
        if logic.arrows(root) <= 10:
            yield logic.show(root)


def regenerate(work_dir):
    """Rewrite data/: the matrices, the pools and the excluded candidates."""
    import gc

    import ticket.cli  # noqa: F401  (imported once, before the children fork)

    matrices = logic.search_matrices()
    with open(os.path.join(DATA, "matrices.json"), "w", encoding="utf-8") as fh:
        json.dump([[list(t), list(d)] for t, d in matrices], fh)
        fh.write("\n")
    gc.collect()
    gc.freeze()
    pools = {g: [] for g in GROUPS}
    excluded = []
    seen = set(NAMED) | {f for fs in FAILURES.values() for f in fs}

    def screen(text, expect):
        """The pool line and the deciding engine, or None. The first run
        decides whether the candidate stays; the time kept is the median of
        SCREEN_RUNS, so that it ranks formulas well for the draw."""
        times = []
        for _ in range(SCREEN_RUNS):
            rep = ops.run_operation(text, work_dir, limit=ops.LIMIT_S / 4)
            if not times:
                if rep["cut"] or "error" in rep:
                    excluded.append(f"{text}\tnot done in {ops.LIMIT_S / 4:.2f} s")
                    return None
                out = json.loads(rep["output"])
                if out["verdict"] != expect:
                    excluded.append(f"{text}\tverdict {out['verdict']}")
                    return None
            times.append(ops.LIMIT_S / 4 if rep["cut"] else rep["decide_s"] + rep.get("check_s", 0.0))
        ms = 1000 * statistics.median(times)
        size = cert_bytes(out["witness_combinator"])
        return f"{text}\t{ms:.1f}\t{size}", out["stats"]["engine"]

    for n in (3, 5, 7):
        pool = pools[f"refute{n}"]
        for text in _unique(_refute_candidates(n), seen):
            if len(pool) == GROUPS[f"refute{n}"][2]:
                break
            if logic.countermodel(matrices, logic.parse(text)) is None:
                excluded.append(f"{text}\tno 3-valued countermodel")
                continue
            got = screen(text, "Empty")
            if got:
                pool.append(got[0])
    # a theorem goes to prove when the oracle step finds its witness
    for text in _unique(_theorem_candidates(), seen):
        if len(pools["prove"]) == GROUPS["prove"][2]:
            break
        got = screen(text, "Inhabited")
        if got and got[1] == "bounded":
            pools["prove"].append(got[0])
        elif got:
            excluded.append(f"{text}\twitness beyond the oracle's bound")
    for group, rows in pools.items():
        with open(os.path.join(DATA, f"{group}.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(row + "\n" for row in rows)
    with open(os.path.join(DATA, "excluded.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(row + "\n" for row in excluded)


if __name__ == "__main__":
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    work = os.path.join(HERE, "out")
    os.makedirs(work, exist_ok=True)
    regenerate(work)
