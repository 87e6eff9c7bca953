"""The built-in verification suite: green as shipped, and sharp enough to
localize an injected fault."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings

from species import identities, semantics
from species.errors import DuplicateName
from species.expr import PrimitiveKind
from species.identities import (
    IdentityCase,
    SUITE_NOTE,
    catalog,
    run_suite,
    verify_enumerative,
    verify_series,
)
from species.parser import parse_defs
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
    real = semantics._SERIES_BUILDERS[PrimitiveKind.DERANGEMENT]

    def perturbed(order, param=None):
        series = real(order, param)
        coeffs = list(series.coefficients())
        if len(coeffs) > 4:
            coeffs[4] += Fraction(1, 24)   # one phantom structure at n=4
        return CountSeries.from_coefficients(coeffs)

    monkeypatch.setitem(
        semantics._SERIES_BUILDERS, PrimitiveKind.DERANGEMENT, perturbed
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
