"""The solver's one-run shortcut against the cross-check run it skips, and
each path's counts against its own at lower orders (solve_sweep.py): every
single-name system of at most two operators at orders 0 .. 7, the
derivative cycles whose factors are 1 or the outside name H at orders
0 .. 8, and three systems whose right-hand-side evaluations are counted.
The three-operator family, two-name systems and every derivative cycle
run in CI."""

import pytest

from species import semantics, series
from species.parser import parse_defs, parse_expr
from species.semantics import egf_of

from solve_sweep import (
    DERIVATIVE_MAX_ORDER,
    derivative_systems,
    disagreement,
    single_name_systems,
)

SYSTEMS = single_name_systems(2)


def test_the_family_holds_every_system_of_two_operators():
    # 1 292 trees over four leaves and four heads, 695 of them naming F.
    assert len(SYSTEMS) == len({system["F"] for system in SYSTEMS}) == 695


def test_one_run_agrees_with_two_on_every_system():
    found = (disagreement(system, range(8), seconds=10) for system in SYSTEMS)
    assert [line for line in found if line] == []


def test_derivative_cycles_are_decided_alike_at_every_order():
    # 5 powers X^k, 3 derivative depths, 4 choices of the factors a and b
    # among 1 and H, and 2 shapes.
    systems = derivative_systems(("1", "H"))
    assert len(systems) == 120
    orders = range(DERIVATIVE_MAX_ORDER + 1)
    found = (disagreement(system, orders, seconds=10) for system in systems)
    assert [line for line in found if line] == []


def _solve(monkeypatch, defs, order, one_run):
    """F's counts and the right-hand-side evaluations of its solve."""
    evaluations = []
    solve = semantics.solve_system

    def counted(equations, order, order_loss=0):
        def wrap(rhs):
            def evaluate(approx, target):
                evaluations.append(target)
                return rhs(approx, target)
            return evaluate

        wrapped = [(name, wrap(rhs)) for name, rhs in equations]
        return solve(wrapped, order, order_loss=order_loss)

    with monkeypatch.context() as patch:
        patch.setattr(semantics, "solve_system", counted)
        if not one_run:
            patch.setattr(series, "_triangular", lambda solution, order: False)
        counts = egf_of(parse_expr("F"), parse_defs(defs), order=order).counts()
    return counts, len(evaluations)


@pytest.mark.parametrize("defs, order, halved", [
    ("F = X*E(F)", 16, True),
    ("F = 1 + X*V\nV = X*F", 16, False),  # every other count is 0
    ("F = X + X^2*F'", 12, False),  # a derivative in its own cycle
], ids=["rooted-trees", "even-odd", "derivative"])
def test_the_shortcut_halves_evaluations_only_where_it_applies(
        monkeypatch, defs, order, halved):
    one, one_evaluations = _solve(monkeypatch, defs, order, one_run=True)
    two, two_evaluations = _solve(monkeypatch, defs, order, one_run=False)
    assert one == two
    if halved:
        assert 2 * one_evaluations == two_evaluations
    else:
        assert one_evaluations == two_evaluations
