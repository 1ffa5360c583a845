"""Tests of the benchmark's own code: python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import corpus
import logic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


@pytest.fixture(scope="module")
def matrices():
    return logic.search_matrices()


def _emitted_certificate(text):
    import ticket.cli

    out = io.StringIO()
    with redirect_stdout(out):
        assert ticket.cli.main(["decide", text, "--json"]) == 0
    return json.loads(out.getvalue())["witness_combinator"]


@pytest.mark.parametrize("name", ["B", "B'", "I", "W"])
def test_checker_accepts_emitted_certificate_and_rejects_altered(name):
    text = logic.NAMED[name]
    cert = _emitted_certificate(text)
    assert logic.check_certificate(cert) == logic.parse(text)
    for seed in range(5):
        with pytest.raises(logic.CertificateInvalid):
            logic.check_certificate(logic.mutate_certificate(cert, random.Random(seed)))


@pytest.mark.parametrize("name", ["B", "B'", "I", "W"])
def test_axiom_leaf_matches_only_its_scheme(name):
    f = logic.parse(logic.NAMED[name])
    assert [k for k in ("B", "B'", "I", "W") if logic.is_axiom_instance(k, f)] == [name]
    assert logic.check_certificate({"kind": name, "type": logic.NAMED[name]}) == f


def test_checker_rejects_bad_modus_ponens():
    i_a = {"kind": "I", "type": "a->a"}
    good = {"kind": "mp", "type": "a->a", "children": [{"kind": "I", "type": "(a->a)->a->a"}, i_a]}
    assert logic.check_certificate(good) == logic.parse("a->a")
    bad = dict(good, type="b->b")
    with pytest.raises(logic.CertificateInvalid):
        logic.check_certificate(bad)


def test_random_derivations_check(matrices):
    rng = random.Random(7)
    for _ in range(50):
        d = logic.random_derivation(rng, 5)
        root = logic.check_certificate(logic.derivation_json(d))
        assert logic.countermodel(matrices[::10], root) is None


def test_matrices_validate_theorems_and_refute_non_theorems(matrices):
    assert len(matrices) == 441
    for name in ("B", "B'", "I", "W", "S"):
        f = logic.parse(logic.NAMED[name])
        assert all(logic.validates((t, frozenset(d)), f) for t, d in matrices), name
    for name in ("K", "C", "Peirce"):
        assert logic.countermodel(matrices, logic.parse(logic.NAMED[name])) is not None, name


def test_stored_matrices_are_the_search_result(matrices):
    with open(os.path.join(HERE, "data", "matrices.json"), encoding="utf-8") as fh:
        stored = [(tuple(t), tuple(d)) for t, d in json.load(fh)]
    assert stored == matrices


def test_parse_show_round_trip():
    for text in ("a", "a->b->c", "(a->b)->c", "((a->b)->a)->a", "(a->(a->b))->a->b"):
        f = logic.parse(text)
        assert logic.parse(logic.show(f)) == f
    for bad in ("", "a->", "(a", "a)", "a b", "->a"):
        with pytest.raises(logic.ParseError):
            logic.parse(bad)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_round_inputs_repeat_for_a_seed(workload):
    first = json.dumps(corpus.round_inputs(workload, 3))
    assert json.dumps(corpus.round_inputs(workload, 3)) == first
    assert json.dumps(corpus.round_inputs(workload, 4)) != first
    inputs = corpus.round_inputs(workload, 3)
    assert inputs[: len(corpus.NAMED)] == corpus.NAMED
    assert inputs[len(inputs) - len(corpus.FAILURES[workload]):] == corpus.FAILURES[workload]


def test_candidate_streams_repeat():
    def head(stream, n=40):
        return [next(stream) for _ in range(n)]

    assert head(corpus._theorem_candidates()) == head(corpus._theorem_candidates())
    assert head(corpus._refute_candidates(5)) == head(corpus._refute_candidates(5))


def test_draw_takes_one_per_part():
    # 12 formulas: time i, certificate size (7 * i) % 12
    rows = [(f"f{i}", float(i), (7 * i) % 12) for i in range(12)]
    sizes = {r[0]: r[2] for r in rows}
    for seed in range(10):
        picked = corpus.draw(rows, 4, random.Random(seed))
        block = [int(p[1:]) // 6 for p in picked]
        assert block == [0, 0, 1, 1]
        for i in (0, 2):
            assert sizes[picked[i]] < sizes[picked[i + 1]]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_pass_has_no_wrong_verdict(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == len(corpus.FAILURES[workload])
    assert result["attempted"] == len(corpus.round_inputs(workload, 1))
