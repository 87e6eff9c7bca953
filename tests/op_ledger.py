"""One traced benchmark round per workload, its operation counts against
the ledger.

    python tests/op_ledger.py [WORKLOAD ...]

runs perfbench/run.py --seed 1 --seconds 1 --trace 1 for each workload
named (series, enumerate and verify when none is), with this interpreter.
"correct" holds only if every call matches its oracle, traced and
untraced stdout digests agree, and every traced boundary
(structures.encode on verify included) is reached.  A traced run is one
round, so its counts and byte totals do not depend on the machine: each
must equal its value in tests/op_counts.json, which a change that moves
one updates.  Every metric that differs is printed; the script exits 1
when a round is not correct, fails, or differs from the ledger.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("series", "enumerate", "verify")


def check(workload, want):
    """The lines that report how the traced round of workload differs
    from want, its ledger entry; none when it is correct and equal."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1"],
        stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        return [f"{workload}: the traced round exited {done.returncode}"]
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        return [f"{workload}: not correct: {result}"]
    got = {name: metric["value"] for name, metric in result["metrics"].items()
           if metric["unit"] in ("count", "bytes")}
    return [
        f"{workload} {name}: ledger {want.get(name)}, traced {got.get(name)}"
        for name in sorted(set(want) | set(got), key=str)
        if want.get(name) != got.get(name)
    ]


def main(workloads):
    ledger = json.loads((ROOT / "tests" / "op_counts.json").read_text())
    differ = []
    for workload in workloads or WORKLOADS:
        differ += check(workload, ledger[workload])
    for line in differ:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
