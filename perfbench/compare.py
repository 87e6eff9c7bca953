"""List the calls whose stdout differs between two results files.

    python3 perfbench/compare.py perfbench/out/results-A.json other/results-B.json

Calls are matched by argv and definitions file, so two runs of the same
workload and seed line up even when one completed more calls than the
other.  Exits 1 when a matched call's stdout sha256 differs, else 0.
"""

import json
import sys

from workloads import call_key


def digests(path):
    with open(path, encoding="utf-8") as fh:
        results = json.load(fh)
    return {call_key(c): c["sha256"] for c in results["calls"]}


def differing(a, b):
    """Keys of calls present in both maps whose digests differ."""
    return [key for key in a if key in b and a[key] != b[key]]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = digests(argv[0]), digests(argv[1])
    diff = differing(a, b)
    for key in diff:
        call, _ = json.loads(key)
        print(f"differs: {' '.join(call)}\n  {a[key]}\n  {b[key]}")
    shared = sum(1 for key in a if key in b)
    print(f"{shared} calls in both files, {len(diff)} differ; "
          f"{len(a) - shared} only in the first, {len(b) - shared} only in the second")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
