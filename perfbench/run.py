"""Benchmark of the ``species`` engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload series --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it times a fresh interpreter's ``import species.cli``
several times, then runs the workload in a fresh worker process and prints
the end-to-end metrics.  ``--seconds`` sets the number of rounds: as many as
took that long at the commit that defined the benchmark, so that every commit
runs the same calls.  With ``--trace 1``
it runs one round of the workload twice, in two fresh workers, untraced
and then traced, checks that both printed the same bytes, and prints the
per-layer metrics.  Every run writes a results file under
``perfbench/out/``; the last line of stdout is the run's JSON summary.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

IMPORT_SAMPLES = 15
# Reference times up to this far from a call's midpoint normalise it.  The
# machine's slow and fast states last about a second; averaging the samples
# of a window that long, or as long as the call, steadied the metrics most.
REFERENCE_REACH_S = 1.0
# A run stops short of its rounds only when they would take this many times
# --seconds: a safety stop for a much slower commit, well above the
# machine's own swings, so that a run still ends within its time limit.
DEADLINE_FACTOR = 3
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10

_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import species.cli; "
    "print(time.perf_counter() - t)"
)


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile, samples beyond it) at the highest percentile that
    leaves at least ``beyond`` samples above it.  With too few samples for
    that, the maximum, at the 100th percentile with none beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, 0
    k = n - beyond - 1
    return ordered[k], 100.0 * (k + 1) / n, beyond


def relative_latencies(records, references, reach=REFERENCE_REACH_S):
    """Each call's latency over the mean of the reference times measured
    within ``reach`` seconds of the call's midpoint, or within its own
    latency of it if that is longer.  The reference taken just before a
    call is always within reach."""
    out = []
    for rec in records:
        mid = rec["start"] + rec["seconds"] / 2
        half = max(reach, rec["seconds"])
        near = [seconds for at, seconds in references if abs(at - mid) <= half]
        out.append(rec["seconds"] / statistics.fmean(near))
    return out


def import_seconds():
    """One fresh interpreter's time to import species.cli (isolated mode, so
    no environment variable or user site changes what is imported)."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def run_worker(workload, seed, name, rounds, deadline=None, trace=0):
    out = OUT / f"{workload}-seed{seed}-{name}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--rounds", str(rounds), "--trace", str(trace),
            "--out", str(out)]
    if deadline is not None:
        argv += ["--deadline", str(deadline)]
    subprocess.run(argv, timeout=WORKER_TIMEOUT_S, check=True)
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return result


def environment():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": _tree_digest(ROOT / "src" / "species"),
        "benchmark_sha256": _tree_digest(HERE, skip=OUT),
    }


def _tree_digest(top, skip=None):
    """sha256 over the names and bytes of the .py files under top."""
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        if skip is not None and skip in path.parents:
            continue
        digest.update(str(path.relative_to(top)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _failed(records):
    return sum(1 for r in records if r["failure"] is not None)


def end_to_end(workload, seed, seconds):
    import_seconds()  # writes the bytecode cache; a CLI user pays that once
    samples = [import_seconds() for _ in range(IMPORT_SAMPLES)]
    rounds = max(1, round(seconds / workloads.ROUND_SECONDS[workload]))
    result = run_worker(workload, seed, "e2e", rounds, DEADLINE_FACTOR * seconds)
    records = result["records"]
    latencies = [r["seconds"] for r in records]
    relative = relative_latencies(records, result["references"])
    failed = _failed(records)
    tail_s, _, _ = tail(latencies)
    tail_ref, percentile, beyond = tail(relative)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "call_mean_ref": (statistics.fmean(relative), "ref"),
        "call_p50_ref": (statistics.median(relative), "ref"),
        "call_tail_ref": (tail_ref, "ref"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "success_rate": (1 - failed / len(records), "ratio"),
    }
    details = {
        "setup_s_samples": samples,
        "wall_clock": {
            "reference_ms": statistics.fmean(r for _, r in result["references"]) * 1000,
            "calls_per_s": len(records) / result["busy_s"],
            "call_p50_ms": statistics.median(latencies) * 1000,
            "call_tail_ms": tail_s * 1000,
        },
        "tail": {"percentile": percentile, "beyond": beyond, "samples": len(latencies)},
        "error_rate": failed / len(records),
        "references": result["references"],
        "calls": records,
    }
    return failed == 0, len(records), failed, metrics, details


def per_layer(workload, seed):
    plain = run_worker(workload, seed, "untraced", 1)
    traced = run_worker(workload, seed, "traced", 1, trace=1)
    differ = [i for i, (a, b) in enumerate(zip(plain["records"], traced["records"]))
              if a["sha256"] != b["sha256"]]
    # In reference units, as the end-to-end latencies, so that the machine's
    # swings between the two passes do not show as overhead.
    overhead = (sum(relative_latencies(traced["records"], traced["references"]))
                / sum(relative_latencies(plain["records"], plain["references"])))
    records = traced["records"]
    failed = _failed(records)
    correct = (failed == 0 and _failed(plain["records"]) == 0 and not differ
               and not traced["missing"]
               and len(plain["records"]) == len(records))
    metrics = {name: (value, tracing.unit(name)) for name, value in traced["per_layer"].items()}
    metrics["trace.overhead"] = (overhead, tracing.unit("trace.overhead"))
    details = {
        "untraced_busy_s": plain["busy_s"],
        "traced_busy_s": traced["busy_s"],
        "overhead": overhead,
        "digests_differ": differ,
        "missing_boundaries": traced["missing"],
        "spans_file": traced["spans_file"],
        "calls": plain["records"],
        "traced_calls": records,
    }
    return correct, len(records), failed, metrics, details


def main(argv=None):
    ap = argparse.ArgumentParser(description="Benchmark one workload of species.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "species" / "cli.py").is_file():
        print(f"error: no species sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        correct, attempted, failed, metrics, details = per_layer(args.workload, args.seed)
    else:
        correct, attempted, failed, metrics, details = end_to_end(
            args.workload, args.seed, args.seconds)

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **details,
    }
    path = OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1), encoding="utf-8")

    for rec in details["calls"] + details.get("traced_calls", []):
        if rec["failure"] is not None:
            print(f"FAILED {' '.join(rec['argv'])}: {rec['failure']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for name, value in details.get("wall_clock", {}).items():
        print(f"{name:40s} {value:14.6g} (wall clock)")
    if "tail" in details:
        t = details["tail"]
        print(f"call_tail is p{t['percentile']:.1f} of {t['samples']} calls, "
              f"{t['beyond']} beyond it")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": results["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
