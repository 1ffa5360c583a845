"""One benchmark operation, run in a forked child of the measuring process.

The operation is what a user of the command line gets: `ticket decide
FORMULA --json` and, when the verdict is Inhabited, `ticket check` on the
emitted certificate. Both go through `ticket.cli.main` in-process in the
child. The child also runs `ticket check` on a copy of the certificate with
one axiom leaf relabelled to a scheme its type does not fit, outside the
timed part. Every child starts from the same parent state, and the parent
kills a child that is not done within the time limit; the library has no
deadline of its own.
"""
from __future__ import annotations

import io
import json
import os
import random
import select
import signal
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import logic
from spans import Tracer

LIMIT_S = 5.0
CHECK_REPEATS = 5
REF_REPEATS = 3


def _reference_loop():
    """Fixed interpreter work (dicts, tuples, strings), the kind the program
    does, so that its time tracks the machine's speed of the moment."""
    d = {}
    for i in range(4000):
        d[(i, i % 7)] = (i, str(i))
    return len(d)


def reference_seconds():
    """Best of REF_REPEATS timings of the reference loop."""
    best = float("inf")
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def _cli(argv):
    import ticket.cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = ticket.cli.main(argv)
    return code, out.getvalue()


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _operation(text, work_dir, tracer):
    res = {"ref_s": [reference_seconds()]}
    if tracer:
        tracer.active = True
    t0 = time.perf_counter()
    code, output = _cli(["decide", text, "--json"])
    res["decide_s"] = time.perf_counter() - t0
    if tracer:
        tracer.active = False
        res["trace_decide"] = tracer.take()
    res["decide_code"] = code
    res["output"] = output
    cert = json.loads(output).get("witness_combinator") if output else None
    if cert is None:
        res["ref_s"].append(reference_seconds())
        return res
    path = os.path.join(work_dir, f"cert-{os.getpid()}.json")
    try:
        _write_json(path, cert)
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        res["check_code"] = _cli(["check", path, text])[0]
        res["check_s"] = time.perf_counter() - t0
        if tracer:
            tracer.active = False
            res["trace_check"] = tracer.take()
        res["ref_s"].append(reference_seconds())
        # a check takes a few ms, so it is timed again for the check metric
        res["check_repeats_s"] = [res["check_s"]]
        for _ in range(CHECK_REPEATS - 1):
            t0 = time.perf_counter()
            _cli(["check", path, text])
            res["check_repeats_s"].append(time.perf_counter() - t0)
        _write_json(path, logic.mutate_certificate(cert, random.Random(text)))
        res["mutated_code"] = _cli(["check", path, text])[0]
    finally:
        os.remove(path)
    return res


def run_operation(text, work_dir, traced=False, limit=LIMIT_S):
    """Run one operation in a child. Returns the child's report, with
    `cut` true when the limit killed it, `error` set when it raised, and
    `peak_rss_kib` the child's peak resident set."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        try:
            tracer = None
            if traced:
                tracer = Tracer()
                tracer.install()
            report = _operation(text, work_dir, tracer)
        except BaseException:
            report = {"error": traceback.format_exc()}
        try:
            data = json.dumps(report).encode()
            while data:
                data = data[os.write(write_fd, data):]
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks, cut = [], False
    deadline = time.monotonic() + limit
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                cut = True
                break
            ready, _, _ = select.select([read_fd], [], [], remaining)
            if ready:
                chunk = os.read(read_fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(read_fd)
        if cut or not chunks:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _, _, usage = os.wait4(pid, 0)
        try:  # left behind when the child was killed between write and remove
            os.remove(os.path.join(work_dir, f"cert-{pid}.json"))
        except FileNotFoundError:
            pass
    if cut:
        return {"cut": True, "peak_rss_kib": usage.ru_maxrss}
    report = json.loads(b"".join(chunks)) if chunks else {"error": "no report"}
    report["cut"] = False
    report["peak_rss_kib"] = usage.ru_maxrss
    return report
