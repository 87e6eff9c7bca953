"""The engine's decision against its refusals with every kernel raising,
and each system's counts against its own at lower orders (solve_sweep.py):
every single-name system of at most two operators at orders 0 .. 7, the
derivative cycles whose factors are 1 or the outside name H at orders
0 .. 8, three systems whose right-hand-side evaluations are counted, and
the first 600 two-name systems of seed 1 against their renaming, equations
swapped and F and G renamed into each other.  The three-operator family,
3 000 two-name systems and every derivative cycle run in CI.

Two oracles that share no code with the solver (tests/oracles.py): every
system of at most two operators that egf_of counts at order 5 against its
least fixed point, and F = X*R(F) against Lagrange inversion, through the
series and through listing lengths.  CI runs the least fixed point on the
derivative-free three-operator systems."""

from math import factorial

import pytest

from species import enumerator, semantics
from species.enumerator import enumerate_structures
from species.parser import parse_defs, parse_expr
from species.semantics import egf_of

from oracles import PRIMITIVE_COUNTS, factorial_product_table, lagrange_counts
from solve_sweep import (
    DERIVATIVE_MAX_ORDER,
    derivative_systems,
    disagreement,
    lfp_disagreement,
    outcomes,
    renaming_disagreement,
    single_name_systems,
    two_name_systems,
)

SYSTEMS = single_name_systems(2)


def test_the_family_holds_every_system_of_two_operators():
    # 1 292 trees over four leaves and four heads, 695 of them naming F.
    assert len(SYSTEMS) == len({system["F"] for system in SYSTEMS}) == 695


def test_every_refusal_is_made_before_any_kernel_runs():
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


def test_renaming_a_two_name_system_never_changes_its_counts():
    found = (renaming_disagreement(system, range(6))
             for system in two_name_systems(600, 1))
    assert [line for line in found if line] == []


def test_a_mutual_system_is_decided_alike_in_both_equation_orders():
    system = {"F": parse_expr("G(X)*F"), "G": parse_expr("G(F)'")}
    assert renaming_disagreement(system, range(6)) is None


def test_a_mutual_system_is_decided_alike_at_every_order():
    system = {"F": parse_expr("G + E + X"), "G": parse_expr("G*(G + F)")}
    found = outcomes(system, range(6))
    assert len({isinstance(got, list) for got in found}) == 1


def _solve(monkeypatch, defs, order):
    """F's counts and the target of each right-hand-side evaluation of its
    solves."""
    targets = []
    solve = semantics.solve_system

    def counted(equations, order, order_loss=0):
        def wrap(rhs):
            def evaluate(approx, target):
                targets.append(target)
                return rhs(approx, target)
            return evaluate

        wrapped = [(name, wrap(rhs)) for name, rhs in equations]
        return solve(wrapped, order, order_loss=order_loss)

    with monkeypatch.context() as patch:
        patch.setattr(semantics, "solve_system", counted)
        counts = egf_of(parse_expr("F"), parse_defs(defs), order=order).counts()
    return counts, targets


@pytest.mark.parametrize("defs, order, want", [
    ("F = X*E(F)", 16, [n ** (n - 1) if n else 0 for n in range(17)]),
    # every other count is 0
    ("F = 1 + X*V\nV = X*F", 16,
     [factorial(n) if n % 2 == 0 else 0 for n in range(17)]),
    # a derivative in its own cycle
    ("F = X + X^2*F'", 12, factorial_product_table(12)),
], ids=["rooted-trees", "even-odd", "derivative"])
def test_each_system_takes_one_run(monkeypatch, defs, order, want):
    """One run from zero: each pass evaluates as far as the one before or
    further, and none starts again from the first band."""
    counts, targets = _solve(monkeypatch, defs, order)
    assert counts == want
    assert targets == sorted(targets)


def test_every_counted_system_is_its_least_fixed_point():
    counted = [system for system in SYSTEMS
               if isinstance(outcomes(system, [5])[0], list)]
    assert len(counted) == 142
    found = (lfp_disagreement(system, 5) for system in counted)
    assert [line for line in found if line] == []


#: R of F = X*R(F), as a sum of primitive tokens.
_LAGRANGE_R = ["E", "L", "C", "1 + X", "E + X"]


def _lagrange(r, order):
    """F = X*R(F)'s counts 0 .. order by Lagrange inversion."""
    tokens = r.split(" + ")
    return lagrange_counts(
        [sum(PRIMITIVE_COUNTS[t](k) for t in tokens) for k in range(order)],
        order,
    )


@pytest.mark.parametrize("r", _LAGRANGE_R)
def test_implicit_trees_are_their_lagrange_inversion(r):
    env = parse_defs(f"R = {r}\nF = X*R(F)\n")
    want = _lagrange(r, 30)
    for order in range(31):
        assert egf_of(parse_expr("F"), env, order=order).counts() == \
            want[:order + 1]
    if r == "E":
        assert want[1:] == [n ** (n - 1) for n in range(1, 31)]


@pytest.mark.parametrize("r", _LAGRANGE_R)
def test_implicit_tree_listings_have_their_lagrange_lengths(r):
    """On one walk, smallest size first, so that each listing solves the
    system again deeper through the walk's evaluator."""
    env = parse_defs(f"R = {r}\nF = X*R(F)\n")
    f = parse_expr("F")
    with enumerator._Walk(env=env) as walk:
        lengths = [
            len(enumerate_structures(f, env, range(1, n + 1), walk=walk))
            for n in range(6)
        ]
    assert lengths == _lagrange(r, 5)
