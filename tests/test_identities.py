"""The built-in verification suite: green as shipped, and sharp enough to
localize an injected fault."""

import functools
import gc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings

from species import enumerator, identities, primitives
from species.enumerator import enumerate_structures
from species.errors import DuplicateName, ParseError
from species.expr import PrimitiveKind
from species.identities import (
    _CASES,
    _SUITE_DEFS,
    _SUITE_NAMES,
    FormulaCase,
    IdentityCase,
    SUITE_NOTE,
    SubstitutionCase,
    TableCase,
    _reads_shared,
    catalog,
    run_suite,
    verify_enumerative,
    verify_series,
)
from species.parser import parse_defs, parse_expr
from species.semantics import validate
from species.series import CountSeries

from strategies import grammar_exprs


def test_the_whole_suite_is_green():
    reports = run_suite()
    bad = [r for r in reports if not r.passed]
    assert not bad, [(r.name, r.witness) for r in bad]
    assert len(reports) >= 30


def test_case_names_are_unique():
    names = [case.name for case in catalog()]
    assert len(set(names)) == len(names)
    assert "C'=L" in names          # the name used in the command-line docs


@settings(max_examples=30, suppress_health_check=[HealthCheck.filter_too_much])
@given(grammar_exprs(include_names=False, max_leaves=4))
def test_every_expression_equals_itself(expr):
    assume(validate(expr, order=6).ok)
    case = IdentityCase("reflexive", expr, expr, series_order=6, enum_max=-1)
    assert verify_series(case).passed


def test_a_false_identity_fails_with_its_first_witness():
    report = IdentityCase("E=Ep?", "E", "Ep").run()
    assert not report.passed
    assert report.witness_n == 0
    assert report.lhs_count == 1
    assert report.rhs_count == 0


def test_filter_by_name():
    reports = run_suite(names={"C'=L", "counts-C"})
    assert sorted(r.name for r in reports) == ["C'=L", "counts-C"]


def test_order_zero_is_still_meaningful():
    assert all(r.passed for r in run_suite(order=0))


def test_split_checks_work_alone():
    for case in catalog():
        if case.name == "counts-Part":
            assert verify_series(case).passed
            assert verify_enumerative(case).passed
            assert verify_enumerative(case, max_n=3).passed


def test_report_json_shape():
    reports = run_suite(names={"counts-X"})
    [report] = reports
    payload = report.to_json()
    assert payload == {"name": "counts-X", "status": "pass", "witness": None}
    assert "seconds" not in payload


def test_failed_report_json_carries_the_witness():
    report = IdentityCase("E=Ep?", "E", "Ep").run()
    payload = report.to_json()
    assert payload["status"] == "fail"
    assert payload["witness"]["n"] == 0
    assert payload["witness"]["lhs"] == 1
    assert payload["witness"]["rhs"] == 0


def test_note_mentions_counts():
    assert "counts" in SUITE_NOTE


def test_fault_injection_is_localized(monkeypatch):
    """Perturb one built-in series and exactly its dependents must fail."""
    real, listing = primitives.ROWS[PrimitiveKind.DERANGEMENT]

    def perturbed(order, param=None):
        series = real(order, param)
        coeffs = list(series.coefficients())
        if len(coeffs) > 4:
            coeffs[4] += Fraction(1, 24)   # one phantom structure at n=4
        return CountSeries.from_coefficients(coeffs)

    monkeypatch.setitem(
        primitives.ROWS, PrimitiveKind.DERANGEMENT, (perturbed, listing)
    )
    failed = {r.name: r for r in run_suite() if not r.passed}
    assert sorted(failed) == ["Der-alternating-sum", "S=E*Der", "counts-Der"]
    for report in failed.values():
        assert report.witness_n == 4


# -- naming cases builds only those ----------------------------------------

def test_each_named_case_reports_as_in_the_full_suite():
    """At order 2, so the whole suite runs quickly; every case in turn."""
    full = run_suite(order=2)
    assert [r.name for r in full] == [case.name for case in catalog()]
    assert len(full) == 33
    for report in full:
        [alone] = run_suite(order=2, names={report.name})
        assert alone.to_json() == report.to_json()


def test_a_clashing_definition_is_refused_when_cases_are_named():
    with pytest.raises(DuplicateName, match="'A' is defined twice"):
        run_suite(names={"counts-X"}, extra_env=parse_defs("A = X"))


def test_naming_a_case_parses_only_that_case(monkeypatch):
    parsed = []
    real = identities.parse_expr

    def counted(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(identities, "parse_expr", counted)
    [report] = run_suite(names={"counts-X"})
    assert report.passed
    assert len(parsed) < 10, parsed


def _counting_builds(monkeypatch):
    """Record each parse_defs text and each case built through identities."""
    parsed, built = [], []
    real_parse_defs = identities.parse_defs

    def counted_parse_defs(text):
        parsed.append(text)
        return real_parse_defs(text)

    def counted(cls):
        def __init__(self, name, *args, **kwargs):
            built.append(name)
            cls.__init__(self, name, *args, **kwargs)
        return type(cls.__name__, (cls,), {"__init__": __init__})

    monkeypatch.setattr(identities, "parse_defs", counted_parse_defs)
    for cls in (TableCase, IdentityCase, FormulaCase, SubstitutionCase):
        monkeypatch.setattr(identities, cls.__name__, counted(cls))
    return parsed, built


_RECURSIVE = ["B=1+X*B^2", "A=X*E(A)", "pt(A)=n^n", "End=S(A)",
              "pt(A)=Lp(A)", "End+=pt(A)", "trees=n^(n-2)"]


def test_exactly_the_cases_with_an_env_read_the_shared_definitions():
    cases = catalog()
    assert [case.name for case in cases] == [name for name, _ in _CASES]
    assert [case.name for case in cases if case.env is not None] == _RECURSIVE
    assert [name for name, make in _CASES if _reads_shared(make)] == _RECURSIVE


def test_the_suite_names_are_those_its_definitions_bind():
    assert _SUITE_NAMES == set(parse_defs(_SUITE_DEFS))


def test_no_two_catalogues_share_a_case_an_env_or_a_table():
    first, second = catalog(), catalog()
    for a, b in zip(first, second):
        assert a is not b
        assert a.env is None or a.env is not b.env
        if isinstance(a, TableCase):
            assert a.expected is not b.expected


@pytest.mark.parametrize("name", ["counts-X", "C'=L", "Der-alternating-sum",
                                  "substitution-x4"])
def test_a_case_reading_no_definitions_parses_none(monkeypatch, name):
    parsed, built = _counting_builds(monkeypatch)
    [report] = run_suite(order=2, names={name})
    assert report.passed
    assert (parsed, built) == ([], [name])


@pytest.mark.parametrize("name", _RECURSIVE)
def test_a_recursive_case_parses_the_shared_definitions_once(monkeypatch,
                                                             name):
    parsed, built = _counting_builds(monkeypatch)
    [report] = run_suite(order=2, names={name})
    assert report.passed
    assert (parsed, built) == ([_SUITE_DEFS], [name])


def test_the_catalogue_parses_the_shared_definitions_once(monkeypatch):
    parsed, built = _counting_builds(monkeypatch)
    catalog()
    assert parsed == [_SUITE_DEFS]
    assert built == [name for name, _ in _CASES]


def test_unknown_names_reach_no_case(monkeypatch):
    parsed, built = _counting_builds(monkeypatch)

    def ran(*args, **kwargs):
        raise AssertionError("a case ran")

    monkeypatch.setattr(identities._Case, "run", ran)
    with pytest.raises(ParseError) as info:
        run_suite(names={"counts-Gro", "A=X*E(A)", "nope", "also-nope"})
    assert str(info.value) == "no such case: also-nope, nope"
    assert (parsed, built) == ([], [])


@pytest.mark.parametrize("names", [{"counts-X"}, {"A=X*E(A)"}, None],
                         ids=["non-recursive", "recursive", "full-suite"])
@pytest.mark.parametrize("clash", ["A", "B", "V"])
def test_a_clash_is_refused_with_the_merge_message(monkeypatch, clash,
                                                    names):
    extra = parse_defs(f"Fresh = X\n{clash} = X\n")
    with pytest.raises(DuplicateName) as merged:
        parse_defs(_SUITE_DEFS).merged(extra)
    parsed, built = _counting_builds(monkeypatch)
    with pytest.raises(DuplicateName) as refused:
        run_suite(names=names, extra_env=extra)
    assert str(refused.value) == str(merged.value)
    assert str(refused.value) == f"'{clash}' is defined twice"
    assert (parsed, built) == ([], [])


def test_a_clash_is_refused_before_an_unknown_name():
    with pytest.raises(DuplicateName, match="'B' is defined twice"):
        run_suite(names={"counts-X", "nope"}, extra_env=parse_defs("B = X"))


# -- one walk per case ---------------------------------------------------------

def _listed_cases():
    """(name, env, expressions, largest n) of every suite case that lists
    its expressions."""
    for case in catalog():
        if isinstance(case, IdentityCase):
            yield case.name, case.env, (case.lhs, case.rhs), case.enum_max
        elif isinstance(case, TableCase):
            yield case.name, case.env, (case.expr,), case.enum_max


_LISTED = {name: rest for name, *rest in _listed_cases()}


@functools.lru_cache(maxsize=1)
def _fresh_listings(name):
    """The encodings a fresh call lists for each side i of the listed case
    name on each [n], by (i, n); kept for the last case asked for, which
    both walks of a case check in turn."""
    env, exprs, max_n = _LISTED[name]
    return {
        (i, n): [s.encode() for s in enumerate_structures(
            expr, env, range(1, n + 1))]
        for i, expr in enumerate(exprs)
        for n in range(max_n + 1)
    }


@pytest.mark.parametrize("name, ordered", [
    pytest.param(name, ordered, id=name if ordered else f"{name}-unordered")
    for name in sorted(_LISTED) for ordered in (True, False)
])
def test_a_shared_walk_lists_what_fresh_calls_list(name, ordered):
    """Every side of every listed suite case, with its env, on [n] for n
    from the case's largest order down to 0 and back up, the sides
    interleaved, all on one walk: the same lengths and encodings as a
    fresh call each.  An unordered walk, the identity suite's, lists the
    same structures, each once, in split order: sorted, their encodings
    are the fresh call's."""
    env, exprs, max_n = _LISTED[name]
    assert max_n >= 4
    fresh = _fresh_listings(name)
    walk = enumerator._Walk(env=env, ordered=ordered)
    order = list(range(max_n, -1, -1)) + list(range(max_n + 1))
    for n in order:
        for i, expr in enumerate(exprs):
            got = enumerate_structures(expr, env, range(1, n + 1), walk=walk)
            assert len(got) == len(fresh[i, n])
            codes = [s.encode() for s in got]
            assert (codes if ordered else sorted(codes)) == fresh[i, n]


def test_the_suite_never_builds_a_sort_key(monkeypatch):
    """The identity suite reads only the lengths of its listings, so its
    walks merge no sum or product into encode() order: every case passes
    with _Walk.key refused.  A default walk, as enumerate_structures opens
    one, still orders B's products on 4 labels by it."""
    real = enumerator._Walk.key

    def refused(walk, term):
        raise AssertionError("a sort key was built")

    monkeypatch.setattr(enumerator._Walk, "key", refused)
    bad = [r.name for r in run_suite() if not r.passed]
    assert bad == []
    keyed = []

    def counted(walk, term):
        keyed.append(term)
        return real(walk, term)

    monkeypatch.setattr(enumerator._Walk, "key", counted)
    listed = enumerate_structures(
        parse_expr("B"), parse_defs(_SUITE_DEFS), range(1, 5))
    assert len(listed) == 336
    assert keyed


def test_listing_sizes_clean_the_labels_once(monkeypatch):
    """_listing_sizes cleans [1, 5] once, not once per side and order,
    and still lists every side on every [n] through enumerate_structures,
    with the sizes fresh calls give."""
    cleaned, listed = [], []
    clean, enumerate_ = enumerator._clean_labels, identities.enumerate_structures

    def counted_clean(labels):
        cleaned.append(labels)
        return clean(labels)

    def counted_enumerate(expr, env, labels, **kwargs):
        listed.append(tuple(labels))
        return enumerate_(expr, env, labels, **kwargs)

    monkeypatch.setattr(enumerator, "_clean_labels", counted_clean)
    monkeypatch.setattr(identities, "_clean_labels", counted_clean)
    monkeypatch.setattr(identities, "enumerate_structures", counted_enumerate)
    exprs = (parse_expr("E*Der"), parse_expr("S"))
    got = identities._listing_sizes(exprs, None, 5)
    assert len(cleaned) == 1
    assert sorted(listed) == sorted(
        tuple(range(1, n + 1)) for n in range(6) for _ in exprs)
    assert got == [[1, 1, 2, 6, 24, 120]] * 2


def test_the_witness_is_the_smallest_failing_n():
    report = verify_enumerative(IdentityCase("x", "Ek[2] + Ek[4]", "0"))
    assert not report.passed
    assert (report.witness_n, report.lhs_count, report.rhs_count) == (2, 1, 0)
    table = TableCase("t", "E", [1, 1, 2, 1, 2, 1])
    report = verify_enumerative(table)
    assert (report.witness_n, report.lhs_count, report.rhs_count) == (2, 1, 2)


@pytest.mark.parametrize("name", ["pt(A)=Lp(A)", "End=S(A)", "B=1+X*B^2"])
def test_each_node_is_built_once_per_label_set_in_a_case(monkeypatch, name):
    built = Counter()
    real = enumerator._build

    def counted(expr, env, labels, active):
        built[id(expr), labels] += 1
        return real(expr, env, labels, active)

    monkeypatch.setattr(enumerator, "_build", counted)
    [report] = run_suite(names={name})
    assert report.passed
    assert built
    assert max(built.values()) == 1


def test_the_collector_stays_paused_between_the_listings_of_a_case(
    monkeypatch,
):
    paused = []
    real = identities.enumerate_structures

    def recorded(*args, **kwargs):
        paused.append(gc.isenabled())
        found = real(*args, **kwargs)
        paused.append(gc.isenabled())
        return found

    monkeypatch.setattr(identities, "enumerate_structures", recorded)
    was = gc.isenabled()
    gc.enable()
    try:
        [report] = run_suite(names={"S=E(C)"})
        assert gc.isenabled()
    finally:
        if not was:
            gc.disable()
    assert report.passed
    assert len(paused) == 2 * 2 * 6
    assert not any(paused)
