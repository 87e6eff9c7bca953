"""One pass of a workload, in a fresh interpreter.

Runs ``species.cli.main(argv)`` in a closed loop with one client: each call
starts when the previous one has returned.  It runs whole rounds of the
workload.  stdout goes to a file per call
through the same kind of text stream a redirected CLI writes to, so the
process never holds a copy of the output.  The peak resident size is read
when the loop ends, before any output is read back and checked.

Before each call and after the last, outside the calls' timing, the worker
also times a fixed piece of pure-Python work (``reference_work``).  On a
shared host the machine's speed swings by up to about 1.9x, from one second to
the next and over minutes; ``run.relative_latencies`` divides each call's
latency by the reference times measured around it, which cancels most of
that swing.

    python3 perfbench/worker.py --workload series --seed 1 --rounds 4 --out r.json
    python3 perfbench/worker.py --workload series --seed 1 --rounds 1 --trace 1 --out r.json
"""

import argparse
import gc
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from species import cli  # noqa: E402


def reference_work():
    """Fixed pure-Python work of the kinds the engine does: exact rational
    arithmetic, building small objects, sorting them by a JSON key."""
    terms = [Fraction(1, k + 1) for k in range(20)]
    total = Fraction(0)
    for n in range(20):
        for j in range(n + 1):
            total += terms[j] * terms[n - j]
    rows = [{"kind": "set", "labels": [i, i + 1, str(i)]} for i in range(800)]
    rows.sort(key=lambda row: json.dumps(row, sort_keys=True))
    return total, rows[0]


def _time_reference():
    """The time of reference_work, run a second time so that the first run
    has warmed the allocator and caches whatever the last call left."""
    reference_work()
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def _rounds(workload, seed, rounds, deadline):
    """The first ``rounds`` rounds of calls.  No round starts that would, at
    the pace of the rounds so far, end after ``deadline`` seconds."""
    start = time.perf_counter()
    for number, batch in enumerate(itertools.islice(workloads.rounds(workload, seed), rounds)):
        elapsed = time.perf_counter() - start
        if deadline is not None and number and elapsed * (number + 1) / number > deadline:
            return
        yield number, batch


def run(workload, seed, rounds, deadline, tracer, scratch):
    shutil.rmtree(scratch, ignore_errors=True)  # left by a run that was killed
    scratch.mkdir(parents=True)
    defs_path = scratch / "defs.species"
    main = cli.main
    if tracer is not None:
        tracer.install()
    records = []
    references = []  # [seconds since the loop began, reference time]
    seen = set()
    calls = ((number, call) for number, batch in _rounds(workload, seed, rounds, deadline)
             for call in batch)
    origin = time.perf_counter()
    try:
        for i, (number, call) in enumerate(calls):
            key = workloads.call_key(call)
            if key in seen:
                raise RuntimeError(f"call {i} repeats an earlier call: {key}")
            seen.add(key)
            argv = [str(defs_path) if a == workloads.DEFS else a for a in call["argv"]]
            if call["defs"] is not None:
                defs_path.write_text(call["defs"], encoding="utf-8")
            out_path = scratch / f"{i}.out"
            err = io.StringIO()
            gc.collect()
            references.append([time.perf_counter() - origin, _time_reference()])
            with open(out_path, "w", encoding="utf-8") as out:
                with redirect_stdout(out), redirect_stderr(err):
                    if tracer is not None:
                        tracer.request = i
                    start = time.perf_counter()
                    try:
                        if tracer is None:
                            code = main(argv)
                        else:
                            code = tracer.call("cli.main", main, argv)
                        raised = None
                    except Exception as exc:  # an uncaught error is a failed call
                        code, raised = None, f"{type(exc).__name__}: {exc}"
                    out.flush()
                    seconds_taken = time.perf_counter() - start
            records.append({
                "round": number, "argv": call["argv"], "defs": call["defs"],
                "check": call["check"],
                "exit": code, "start": start - origin, "seconds": seconds_taken,
                "stderr": err.getvalue(),
                "raised": raised,
            })
    finally:
        if tracer is not None:
            tracer.uninstall()
    references.append([time.perf_counter() - origin, _time_reference()])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for i, rec in enumerate(records):
        out_path = scratch / f"{i}.out"
        data = out_path.read_bytes()
        out_path.unlink()
        rec["stdout_bytes"] = len(data)
        rec["sha256"] = hashlib.sha256(data).hexdigest()
        if rec["raised"] is not None:
            rec["failure"] = "uncaught " + rec["raised"]
        else:
            rec["failure"] = workloads.check_output(
                rec["check"], rec["exit"], data.decode("utf-8"), rec["stderr"])
        del rec["check"], rec["raised"]
    shutil.rmtree(scratch)
    return records, references, peak_rss_mb


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--deadline", type=float, default=None,
                    help="seconds after which no further round starts")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    scratch = Path(args.out).with_suffix(".calls")
    records, references, peak = run(args.workload, args.seed, args.rounds,
                                    args.deadline, tracer, scratch)
    result = {"records": records, "references": references, "peak_rss_mb": peak,
              "busy_s": sum(r["seconds"] for r in records)}
    if tracer is not None:
        result["per_layer"] = tracing.layer_metrics(tracer.spans, tracer.counts, records)
        result["missing"] = tracing.missing_boundaries(args.workload, tracer.counts)
        spans_path = Path(args.out).with_suffix(".spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": tracer.spans}, fh)
        result["spans_file"] = os.path.relpath(spans_path, HERE.parent)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
