"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import closed_forms  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- the tail-percentile rule ---------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    values = list(range(50, 0, -1))
    assert run.tail(values) == (40, 80.0, 10)


def test_tail_with_eleven_samples_is_the_smallest():
    value, percentile, beyond = run.tail([5, 1, 3, 2, 4, 6, 7, 8, 9, 10, 11])
    assert (value, beyond) == (1, 10)
    assert abs(percentile - 100 / 11) < 1e-12


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


# -- latencies in reference units ---------------------------------------------

def test_relative_latency_averages_the_references_within_reach():
    records = [{"start": 0.0, "seconds": 0.2}, {"start": 5.0, "seconds": 4.0}]
    references = [[-0.01, 2.0], [1.5, 4.0], [4.99, 1.0], [8.0, 3.0], [20.0, 9.0]]
    short, long = run.relative_latencies(records, references, reach=1.0)
    assert short == 0.2 / 2.0  # only the sample just before it is within 1 s
    assert long == 4.0 / 2.0  # 4.99 and 8.0 lie within 4 s of its midpoint 7.0


# -- self time of nested spans --------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["semantics.egf_of", 1.0, 4.0, 0, 0],
        ["series.mul", 2.0, 3.0, 1, 0],
        ["structures.encode", 5.0, 9.0, 0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_parents_and_layer_self_time():
    tracer = tracing.Tracer()
    tracer.request = 7

    def inner():
        return 1

    def outer():
        return tracer.call("parser.parse_expr", inner) + 1

    assert tracer.call("cli.main", outer) == 2
    (top, child) = tracer.spans
    assert top[3] == -1 and child[3] == 0
    assert top[4] == child[4] == 7
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts,
                                    [{"exit": 0, "stdout_bytes": 5}])
    assert metrics["cli.main.calls"] == 1
    assert metrics["parser.calls"] == 1
    own = tracing.self_times(tracer.spans)
    assert metrics["cli.self_s"] == own[0]
    assert metrics["parser.self_s"] == own[1]
    assert metrics["cli.exit.0"] == 1 and metrics["cli.stdout_bytes"] == 5


# -- oracles against hand values ------------------------------------------------

def test_rooted_trees():
    assert closed_forms.counts(closed_forms.rooted_trees, 6) == [0, 1, 2, 9, 64, 625, 7776]


def test_bell_numbers():
    assert closed_forms.counts(closed_forms.bell, 8) == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_binary_trees_are_catalan_times_factorial():
    assert closed_forms.counts(closed_forms.binary_trees, 6) == [1, 1, 4, 30, 336, 5040, 95040]


def test_other_oracles():
    assert closed_forms.counts(closed_forms.plane_trees, 5) == [0, 1, 2, 12, 120, 1680]
    assert closed_forms.counts(closed_forms.derangements, 6) == [1, 0, 1, 2, 9, 44, 265]
    assert closed_forms.counts(closed_forms.involutions, 6) == [1, 1, 2, 4, 10, 26, 76]
    assert closed_forms.counts(closed_forms.pointed_trees, 4) == [0, 1, 4, 27, 256]
    assert closed_forms.counts(closed_forms.endofunctions, 3) == [1, 1, 4, 27]
    assert closed_forms.counts(closed_forms.graphs, 4) == [1, 1, 2, 8, 64]
    assert closed_forms.coefficients([1, 1, 2, 6]) == ["1", "1", "1", "1"]
    assert closed_forms.coefficients([0, 1, 1]) == ["0", "1", "1/2"]


# -- output checks ----------------------------------------------------------------

def test_series_check():
    check = {"kind": "series", "oracle": "bell", "n": 3}
    good = json.dumps({"order": 3, "counts": [1, 1, 2, 5],
                       "coefficients": ["1", "1", "1", "5/6"]}) + "\n"
    assert workloads.check_output(check, 0, good, "") is None
    assert workloads.check_output(check, 0, good.replace("5]", "6]"), "") is not None
    assert workloads.check_output(check, 1, good, "") is not None


def test_enumeration_check_wants_strictly_increasing_encodings():
    check = {"kind": "enumerate", "oracle": "rooted_trees", "n": 2}
    a = {"kind": "set", "labels": [1]}
    b = {"kind": "set", "labels": [2]}
    assert workloads.check_output(check, 0, json.dumps([a, b]), "") is None
    assert workloads.check_output(check, 0, json.dumps([b, a]), "") is not None
    assert workloads.check_output(check, 0, json.dumps([a, a]), "") is not None
    assert workloads.check_output(check, 0, json.dumps([a]), "") is not None


def test_verify_and_refusal_checks():
    case = {"kind": "verify", "case": "C'=L"}
    doc = workloads.verify_expected("C'=L")
    assert workloads.check_output(case, 0, doc, "") is None
    assert workloads.check_output(case, 0, doc.replace("true", "false"), "") is not None
    refusal = {"kind": "refusal", "exit": 3}
    assert workloads.check_output(refusal, 3, "", "error: over budget\n") is None
    assert workloads.check_output(refusal, 3, "[]\n", "error: over budget\n") is not None
    assert workloads.check_output(refusal, 1, "", "error: over budget\n") is not None


# -- call generation ------------------------------------------------------------

def _first(workload, seed, rounds):
    return list(itertools.chain.from_iterable(
        itertools.islice(workloads.rounds(workload, seed), rounds)))


def test_calls_depend_only_on_the_seed_and_never_repeat():
    for workload in workloads.WORKLOADS:
        calls = _first(workload, 3, 6)
        assert calls == _first(workload, 3, 6)
        assert calls != _first(workload, 4, 6)
        keys = [workloads.call_key(c) for c in calls]
        assert len(set(keys)) == len(keys)


def test_every_round_issues_every_template():
    verify = _first("verify", 5, 1)
    assert sorted(c["check"]["case"] for c in verify if c["check"]["kind"] == "verify") \
        == sorted(workloads.SUITE_CASES)
    assert sum(1 for c in verify if c["check"]["kind"] == "refusal") == 6
    assert len(_first("series", 5, 1)) == 21
    assert len(_first("enumerate", 5, 1)) == 19


def test_compare_lists_differing_calls():
    a = {"x": "1", "y": "2", "z": "3"}
    b = {"x": "1", "y": "9"}
    assert compare.differing(a, b) == ["y"]
