"""Benchmark of `ticket decide`: one workload per run, verdicts checked.

    python3 bench/run.py --workload refute|prove --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run measures set-up time, then decides
the workload's round of formulas (see corpus.py) one at a time, repeating
whole rounds until S seconds have passed. Every verdict is checked with the
benchmark's own code (logic.py): certificates by axiom-scheme matching and
modus ponens, Empty verdicts by a 3-valued countermodel. The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
The command exits 1 after the run when any verdict was wrong, and 2 when the
program's source is not there.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

import corpus
import logic
import ops
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 15
# Times are scaled to a reference speed: the speed at which ops.py's
# reference loop takes REF_MS. Each child times that loop before and after
# its operation; on a shared machine the speed swings by tens of percent
# within seconds, and the scaling takes most of that out of the figures.
REF_MS = 1.5
WINDOW = 2

# per-layer metric -> (unit, the hook it needs)
LAYER_METRICS = {
    "oracle.self_s": ("s", "oracle.bounded_decide"),
    "oracle.terms": ("count", "terms.alpha_canonical"),
    "shadow.self_s": ("s", "shadow.decide"),
    "shadow.expanded": ("count", None),
    "shadow.memo_entries": ("count", None),
    "shadow.witnesses": ("count", None),
    "blueprint.self_s": ("s", "blueprint.canonicalize"),
    "blueprint.calls": ("count", "blueprint.canonicalize"),
    "terms.self_s": ("s", "terms.alpha_canonical"),
    "terms.calls": ("count", "terms.alpha_canonical"),
    "combinators.extract_s": ("s", "combinators.extract_combinator"),
    "combinators.check_calls": ("count", "combinators.check_derivation"),
    "combinators.check_s": ("s", "combinators.check_derivation"),
    "combinators.cert_nodes": ("count", None),
    "formula.parse_s": ("s", "formula.parse_formula"),
    "formula.parse_calls": ("count", "formula.parse_formula"),
    "cli.emit_s": ("s", "cli.main"),
    "cli.read_s": ("s", "cli.main"),
    "trace.overhead_pct": ("%", None),
}


def measure_setup():
    """Median, scaled to the reference speed, of the time a fresh
    interpreter takes to import the command line front end and build its
    parser, i.e. to be ready to decide."""
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); "
        "import ticket.cli; ticket.cli.build_parser()"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        factor = REF_MS / 1000 / ops.reference_seconds()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append((time.perf_counter() - t0) * factor)
    return statistics.median(times)


def scale_factors(reps):
    """Per operation of a round: REF_MS over the median reference-loop time
    timed before and after the operations within WINDOW places of it.
    Multiplying a wall time by it gives the time at the reference speed."""
    refs = [rep.get("ref_s", []) for rep in reps]
    fallback = [r for rs in refs for r in rs] or [REF_MS / 1000]  # all cut off
    factors = []
    for i in range(len(reps)):
        near = [r for rs in refs[max(0, i - WINDOW): i + WINDOW + 1] for r in rs]
        factors.append(REF_MS / 1000 / statistics.median(near or fallback))
    return factors


class Checker:
    """Judges each report with the benchmark's own logic."""

    def __init__(self, matrices):
        self.matrices = matrices
        self.refuted: dict[str, bool] = {}

    def judge(self, text, rep):
        """'ok', 'failed' (cut off, crashed or ResourceExhausted) or a
        sentence saying what is wrong."""
        if rep["cut"]:
            return "failed"
        if "error" in rep:
            print(f"error on {text}:\n{rep['error']}", file=sys.stderr)
            return "failed"
        out = json.loads(rep["output"])
        verdict = out["verdict"]
        expected_code = {"Inhabited": 0, "Empty": 1, "ResourceExhausted": 3}[verdict]
        if rep["decide_code"] != expected_code:
            return f"exit code {rep['decide_code']} for {verdict}"
        if verdict == "ResourceExhausted":
            return "failed"
        if verdict == "Empty":
            if text not in self.refuted:
                self.refuted[text] = logic.countermodel(self.matrices, logic.parse(text)) is not None
            return "ok" if self.refuted[text] else "Empty without a 3-valued countermodel"
        cert = out["witness_combinator"]
        if out["witness_lambda"] is None or cert is None:
            return "Inhabited without a witness"
        try:
            root = logic.check_certificate(cert)
        except logic.CertificateInvalid as exc:
            return f"bad certificate: {exc}"
        if root != logic.parse(text):
            return f"certificate proves {logic.show(root)}"
        if rep["check_code"] != 0:
            return f"ticket check exits {rep['check_code']} on the emitted certificate"
        if rep["mutated_code"] != 1:
            return f"ticket check exits {rep['mutated_code']} on an altered certificate"
        return "ok"


def load_matrices():
    with open(os.path.join(HERE, "data", "matrices.json"), encoding="utf-8") as fh:
        rows = json.load(fh)
    matrices = [(tuple(t), tuple(d)) for t, d in rows]
    axioms = [logic.parse(logic.NAMED[k]) for k in ("B", "B'", "I", "W")]
    for table, designated in matrices:
        m = (table, frozenset(designated))
        if not (logic.mp_closed(m) and all(logic.validates(m, ax) for ax in axioms)):
            raise SystemExit(f"data/matrices.json holds an unsound matrix {table}")
    return matrices


def op_seconds(rep, limit, factor):
    """Scaled time of one operation; a cut-off or crash counts at the limit."""
    if rep["cut"] or "error" in rep:
        return limit
    return (rep["decide_s"] + rep.get("check_s", 0.0)) * factor


def smoothed_quantile(values, q):
    """Mean of the values between the (q - 0.05) and (q + 0.05) quantiles:
    a box-kernel quantile estimate. With about a hundred formulas, a plain
    order statistic jumps between neighbouring formulas whose times differ
    by several percent; this one moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    lo = min(n - 1, max(0, round((q - 0.05) * n)))
    hi = min(n, max(lo + 1, round((q + 0.05) * n)))
    return statistics.fmean(ordered[lo:hi])


def end_to_end(inputs, rounds, verdicts, setup_s, limit):
    """Each formula counts with the median of its scaled times over the
    rounds."""
    factors = [scale_factors(r) for r in rounds]
    per_formula = [
        statistics.median(op_seconds(r[i], limit, f[i]) for r, f in zip(rounds, factors))
        for i in range(len(inputs))
    ]
    checks = [
        statistics.median(ts)
        for i in range(len(inputs))
        if (ts := [t * f[i] for r, f in zip(rounds, factors) for t in r[i].get("check_repeats_s", ())])
    ]
    correct = sum(all(vs[i] == "ok" for vs in verdicts) for i in range(len(inputs)))
    size = sum(
        corpus.cert_bytes(json.loads(rep["output"])["witness_combinator"])
        for rep in rounds[0]
        if not rep["cut"] and "error" not in rep
    )
    peaks = [max((rep["peak_rss_kib"] for rep in r if not rep["cut"]), default=0) / 1024 for r in rounds]
    return {
        "setup_s": (setup_s, "s"),
        "decide_p50_ms": (1000 * smoothed_quantile(per_formula, 0.5), "ms"),
        "decide_p90_ms": (1000 * smoothed_quantile(per_formula, 0.9), "ms"),
        "formulas_per_s": (correct / sum(per_formula), "1/s"),
        "check_p50_ms": (1000 * statistics.median(checks), "ms"),
        "cert_bytes": (size, "bytes"),
        "peak_rss_mb": (statistics.median(peaks), "MiB"),
    }


def _layer_sums(reps):
    """Per-layer totals of one traced round; times scaled like op times."""
    layer_of = spans.layer_of
    sums = dict.fromkeys(LAYER_METRICS, 0.0)
    for rep, factor in zip(reps, scale_factors(reps)):
        if rep["cut"] or "error" in rep:
            continue
        out = json.loads(rep["output"])
        for key in ("expanded", "memo_entries", "witnesses"):
            sums[f"shadow.{key}"] += out["stats"].get(key, 0)
        if out["witness_combinator"] is not None:
            sums["combinators.cert_nodes"] += logic.certificate_nodes(out["witness_combinator"])
        for phase in ("trace_decide", "trace_check"):
            for key, (calls, seconds, self_s) in rep.get(phase, ({}, []))[0].items():
                name, parent = key.split("|")
                layer = layer_of(name)
                seconds, self_s = seconds * factor, self_s * factor
                if layer in ("oracle", "shadow", "blueprint", "terms"):
                    sums[f"{layer}.self_s"] += self_s
                if layer in ("blueprint", "terms") and layer_of(parent) != layer:
                    sums[f"{layer}.calls"] += calls
                if name == "terms.alpha_canonical" and layer_of(parent) == "oracle":
                    sums["oracle.terms"] += calls
                if name == "combinators.extract_combinator":
                    sums["combinators.extract_s"] += seconds
                if name == "combinators.check_derivation":
                    sums["combinators.check_calls"] += calls
                    sums["combinators.check_s"] += seconds
                if name == "formula.parse_formula":
                    sums["formula.parse_calls"] += calls
                    sums["formula.parse_s"] += seconds
                if name == "cli.main":
                    sums["cli.emit_s" if phase == "trace_decide" else "cli.read_s"] += self_s
    return sums


def per_layer(rounds, traced_rounds, limit, missing):
    sums = [_layer_sums(r) for r in traced_rounds]
    overheads = []
    for plain, traced in zip(rounds, traced_rounds):
        done = [i for i, rep in enumerate(traced) if not rep["cut"] and not plain[i]["cut"]]
        f_plain, f_traced = scale_factors(plain), scale_factors(traced)
        t_plain = sum(op_seconds(plain[i], limit, f_plain[i]) for i in done)
        t_traced = sum(op_seconds(traced[i], limit, f_traced[i]) for i in done)
        overheads.append(100 * (t_traced / t_plain - 1))
    out = {}
    for name, (unit, hook) in LAYER_METRICS.items():
        if hook in missing:
            out[name] = (None, unit)
        elif name == "trace.overhead_pct":
            out[name] = (statistics.median(overheads), unit)
        elif unit == "count":
            values = {s[name] for s in sums}
            if len(values) > 1:
                print(f"warning: {name} differs between traced rounds: {sorted(values)}", file=sys.stderr)
            out[name] = (int(sums[0][name]), unit)
        else:
            out[name] = (statistics.median(s[name] for s in sums), unit)
    return out


def write_trace(path, inputs, traced_rounds):
    with open(path, "w", encoding="utf-8") as fh:
        for k, reps in enumerate(traced_rounds):
            for i, rep in enumerate(reps):
                for phase in ("trace_decide", "trace_check"):
                    if phase not in rep:
                        continue
                    op = f"{k}:{i}:{phase[6:]}"
                    totals, spans = rep[phase]
                    for sid, name, start, end, parent in spans:
                        fh.write(json.dumps({
                            "op": op, "formula": inputs[i], "span": sid, "name": name,
                            "start": start, "end": end, "parent": parent,
                        }) + "\n")
                    for key, (calls, seconds, self_s) in totals.items():
                        name, parent = key.split("|")
                        fh.write(json.dumps({
                            "op": op, "name": name, "parent_name": parent,
                            "calls": calls, "seconds": seconds, "self_seconds": self_s,
                        }) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("refute", "prove"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ticket", "cli.py")):
        print(f"error: no program source at {SRC}/ticket", file=sys.stderr)
        return 2
    setup_s = measure_setup()
    sys.path.insert(0, SRC)
    import ticket.cli  # noqa: F401  (loaded once, before the children fork)

    inputs = corpus.round_inputs(args.workload, args.seed)
    checker = Checker(load_matrices())
    work_dir = os.path.join(HERE, "out")
    os.makedirs(work_dir, exist_ok=True)
    gc.collect()
    gc.freeze()
    sys.stdout.flush()

    rounds, traced_rounds, verdicts = [], [], []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        for traced, sink in ((False, rounds), (True, traced_rounds))[: 1 + args.trace]:
            reps = [ops.run_operation(text, work_dir, traced=traced) for text in inputs]
            sink.append(reps)
            verdicts.append([checker.judge(text, rep) for text, rep in zip(inputs, reps)])

    wrong = []
    for round_verdicts in verdicts:
        for text, v in zip(inputs, round_verdicts):
            if v not in ("ok", "failed"):
                wrong.append(f"{text}: {v}")
    for line in sorted(set(wrong)):
        print(f"WRONG {line}", file=sys.stderr)
    failed = sum(v == "failed" for vs in verdicts for v in vs)
    attempted = sum(len(vs) for vs in verdicts)
    plain_verdicts = verdicts[:: 1 + args.trace]
    if args.trace:
        missing = set(spans.missing_hooks())
        for name in sorted(missing):
            print(f"missing hook: {name}", file=sys.stderr)
        metrics = per_layer(rounds, traced_rounds, ops.LIMIT_S, missing)
        write_trace(os.path.join(work_dir, f"trace-{args.workload}-{args.seed}.jsonl"),
                    inputs, traced_rounds)
    else:
        metrics = end_to_end(inputs, rounds, plain_verdicts, setup_s, ops.LIMIT_S)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
