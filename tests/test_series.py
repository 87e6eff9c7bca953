"""Arithmetic of truncated counting series."""

import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from species.errors import (
    IllFoundedEquation,
    NonIntegerCount,
    NonzeroConstantTerm,
    OrderExceeded,
    ZeroConstantDivisor,
)
from species import enumerator, semantics, series
from species.enumerator import enumerate_structures
from species.expr import (
    Environment,
    Name,
    Pointing,
    Primitive,
    PrimitiveKind,
    Product,
    RestrictCard,
    Substitute,
    Sum,
)
from species.parser import parse_defs, parse_expr
from species.semantics import egf_of
from species.series import CountSeries, _binomials, solve_system

from oracles import (
    bell_table,
    binomial_convolution,
    catalan,
    factorial_product_table,
    involution_table,
    partitional_composite,
    subfactorial_table,
)
from solve_sweep import kernels_raise


def counts_series(order, lo=-9, hi=9, zero_constant=False):
    base = st.lists(
        st.integers(lo, hi), min_size=order + 1, max_size=order + 1
    )
    if zero_constant:
        base = base.map(lambda c: [0] + c[1:])
    return base.map(CountSeries.from_counts)


class TestConstruction:
    def test_counts_round_trip(self):
        s = CountSeries.from_counts([1, 1, 2, 6])
        assert s.order == 3
        assert s.counts() == [1, 1, 2, 6]
        assert s.coefficients() == [
            Fraction(1), Fraction(1), Fraction(1), Fraction(1),
        ]

    def test_basis_series(self):
        assert CountSeries.zero(2).counts() == [0, 0, 0]
        assert CountSeries.one(2).counts() == [1, 0, 0]
        assert CountSeries.x(2).counts() == [0, 1, 0]

    def test_coefficient_out_of_range(self):
        with pytest.raises(OrderExceeded):
            CountSeries.one(2).coefficient(3)

    def test_non_integer_count(self):
        s = CountSeries.from_coefficients([Fraction(1, 2)])
        assert s.coefficient(0) == Fraction(1, 2)
        with pytest.raises(NonIntegerCount):
            s.count(0)

    def test_truncate(self):
        s = CountSeries.from_counts([1, 2, 3, 4])
        assert s.truncate(1).counts() == [1, 2]
        with pytest.raises(OrderExceeded):
            s.truncate(9)


class TestArithmetic:
    @given(counts_series(5), counts_series(5))
    def test_add_commutes(self, f, g):
        assert (f + g).counts() == (g + f).counts()

    @given(counts_series(4), counts_series(4), counts_series(4))
    def test_mul_associates(self, f, g, h):
        assert ((f * g) * h).counts() == (f * (g * h)).counts()

    @given(counts_series(5), counts_series(5))
    def test_product_is_binomial_convolution(self, f, g):
        fc, gc = f.counts(), g.counts()
        got = (f * g).counts()
        assert got == [
            binomial_convolution(fc, gc, n) for n in range(6)
        ]

    @given(counts_series(3), counts_series(5))
    def test_product_truncates_to_shorter_factor(self, f, g):
        assert (f * g).order == 3

    def test_scalar_multiplication(self):
        s = CountSeries.from_counts([1, 1, 2])
        assert (3 * s).counts() == [3, 3, 6]
        assert (s * Fraction(1, 2)).coefficient(2) == Fraction(1, 2)

    def test_subtraction(self):
        f = CountSeries.from_counts([3, 1, 4])
        g = CountSeries.from_counts([1, 1, 1])
        assert (f - g).counts() == [2, 0, 3]

    def test_division_inverts_multiplication(self):
        f = CountSeries.from_counts([1, 1, 2, 6, 24])
        g = CountSeries.from_counts([1, 3, 5, 7, 11])
        assert ((f * g) / g).counts() == f.counts()

    def test_division_by_zero_constant(self):
        f = CountSeries.one(3)
        g = CountSeries.x(3)
        with pytest.raises(ZeroConstantDivisor):
            f / g


class TestComposition:
    @settings(max_examples=40)
    @given(counts_series(5, -5, 5), counts_series(5, -5, 5, zero_constant=True))
    def test_composition_is_the_partitional_sum(self, f, g):
        fc, gc = f.counts(), g.counts()
        got = f(g).counts()
        assert got == [
            partitional_composite(fc, gc, n) for n in range(6)
        ]

    def test_inner_constant_must_vanish(self):
        with pytest.raises(NonzeroConstantTerm):
            CountSeries.one(3)(CountSeries.one(3))

    def test_exponential_of_x(self):
        # E(X) composed at series level: counts all equal one
        e = CountSeries.from_coefficients(
            [Fraction(1, factorial(n)) for n in range(7)]
        )
        assert e(CountSeries.x(6)).counts() == e.counts()


class TestCalculus:
    def test_derive_shifts_counts(self):
        # d/dx of the all-permutations series
        s = CountSeries.from_counts([factorial(n) for n in range(6)])
        assert s.derive().counts() == [factorial(n + 1) for n in range(5)]

    def test_derive_at_order_zero(self):
        with pytest.raises(OrderExceeded):
            CountSeries.one(0).derive()

    @given(counts_series(5))
    def test_pointing_is_x_times_derivative(self, f):
        lhs = f.point().truncate(4)
        rhs = CountSeries.x(4) * f.derive()
        assert lhs.counts() == rhs.counts()

    @given(counts_series(5))
    def test_pointing_keeps_order(self, f):
        assert f.point().order == 5


class TestSolve:
    @staticmethod
    def binary_tree_rhs(approx, order):
        b = approx["B"]
        return CountSeries.one(order) + CountSeries.x(order) * b * b

    def test_binary_trees(self):
        solution = solve_system([("B", self.binary_tree_rhs)], order=5)
        assert solution["B"].counts() == [1, 1, 4, 30, 336, 5040]

    def test_solution_is_stable_under_extension(self):
        short = solve_system([("B", self.binary_tree_rhs)], order=4)
        long = solve_system([("B", self.binary_tree_rhs)], order=9)
        assert long["B"].truncate(4).counts() == short["B"].counts()

    def test_resubstituting_the_solution_changes_nothing(self):
        solution = solve_system([("B", self.binary_tree_rhs)], order=6)
        again = self.binary_tree_rhs(solution, 6)
        assert again.counts() == solution["B"].counts()

    def test_mutual_recursion(self):
        # U = 1 + X*V and V = X*U: U counts lists of even length
        def u_rhs(approx, order):
            return CountSeries.one(order) + CountSeries.x(order) * approx["V"]

        def v_rhs(approx, order):
            return CountSeries.x(order) * approx["U"]

        solution = solve_system([("U", u_rhs), ("V", v_rhs)], order=6)
        assert solution["U"].counts() == [
            factorial(n) if n % 2 == 0 else 0 for n in range(7)
        ]

    def test_binary_trees_at_order_60(self):
        solution = solve_system([("B", self.binary_tree_rhs)], order=60)
        assert solution["B"].counts() == [
            catalan(n) * factorial(n) for n in range(61)
        ]

    def test_mutual_recursion_at_order_30(self):
        def u_rhs(approx, order):
            return CountSeries.one(order) + CountSeries.x(order) * approx["V"]

        def v_rhs(approx, order):
            return CountSeries.x(order) * approx["U"]

        solution = solve_system([("U", u_rhs), ("V", v_rhs)], order=30)
        assert solution["U"].counts() == [
            factorial(n) if n % 2 == 0 else 0 for n in range(31)
        ]
        assert solution["V"].counts() == [
            factorial(n) if n % 2 else 0 for n in range(31)
        ]

    def test_an_opaque_self_identity_gives_its_least_fixed_point(self):
        # solve_system computes the least fixed point; egf_of, which reads
        # the equations, refuses F = F (TestDecision).
        solution = solve_system([("F", lambda approx, order: approx["F"])],
                                order=4)
        assert solution["F"].counts() == [0] * 5

    def test_divergent_equation_is_rejected(self):
        # F = 1 + F has no fixed point at all
        def rhs(approx, order):
            return CountSeries.one(order) + approx["F"]

        with pytest.raises(IllFoundedEquation):
            solve_system([("F", rhs)], order=4)


class TestOrderLoss:
    """A derivative of an unknown inside its own cycle: each evaluation
    consumes a truncation order."""

    @pytest.mark.parametrize("order", range(1, 13))
    def test_derivative_in_its_own_cycle(self, order):
        env = parse_defs("F = X + X^2*F'")
        got = egf_of(parse_expr("F"), env, order=order).counts()
        assert got == factorial_product_table(order)

    @pytest.mark.parametrize("order", [1, 6, 12])
    @pytest.mark.parametrize("defs", ["F = X + X*F'", "F = X*G\nG = 1 + F'"])
    def test_undetermined_systems_are_refused(self, defs, order):
        with pytest.raises(IllFoundedEquation):
            egf_of(parse_expr("F"), parse_defs(defs), order=order)


class TestOrderZero:
    """A system is decided through count 1 even when only count 0 is asked
    for, so order 0 refuses exactly what order 1 refuses."""

    @pytest.mark.parametrize("defs", [
        "F = F", "F = pt(F)", "F = E*F", "F = F*F + F", "F = E(pt(F))",
        "F = G*F + X\nG = E",
    ])
    def test_ill_founded_systems_are_refused(self, defs):
        for order in (0, 1):
            with pytest.raises(IllFoundedEquation):
                egf_of(parse_expr("F"), parse_defs(defs), order=order)

    @pytest.mark.parametrize("defs, count", [
        ("F = X*E(F)", 0), ("F = 1 + X*F^2", 1), ("F = 1 + X*G\nG = X*F", 1),
    ])
    def test_well_founded_systems_count_their_empty_set(self, defs, count):
        got = egf_of(parse_expr("F"), parse_defs(defs), order=0)
        assert got.counts() == [count]


#: Systems and the first name's counts at order 6 under the written
#: definition (see semantics), or None where it is refused.
DECISIONS = [
    ("F = F", None),
    ("F = E*F", None),
    ("F = 1 + F", None),
    ("F = F + F", None),
    ("F = pt(F)", None),
    ("F = F*F + F", None),
    ("F = E(pt(F))", None),
    ("F = X + X*F'", None),
    ("F = X*G\nG = 1 + F'", None),
    ("H = X + X^2*H''", None),
    ("F = X + F(F)", None),
    ("F = G + E + X\nG = G*(G + F)", None),
    ("F = F(X*X)", None),
    (Environment({"F": Sum(Primitive(PrimitiveKind.SINGLETON),
                           RestrictCard(Name("F"), "==", 0))}), None),
    ("F = X + F(X*F)", None),
    ("F = E(F)'", None),
    ("F = X*E(F)", [0, 1, 2, 9, 64, 625, 7776]),
    ("F = 1 + X*F^2", [1, 1, 4, 30, 336, 5040, 95040]),
    ("F = 1 + X*G\nG = X*F", [1, 0, 2, 0, 24, 0, 720]),
    ("F = X + X^2*F'", [0, 1, 2, 12, 144, 2880, 86400]),
    ("F = X + G''\nG = X^4*F", [0, 1, 0, 120, 0, 100800, 0]),
    ("F = X + X^2*F'*H\nH = E", [0, 1, 2, 18, 276, 6740, 238830]),
    ("F = X + G(F)\nG = Ek[2]", [0, 1, 1, 3, 15, 105, 945]),
    # Every factor is 0 at the least solution, written either way.
    ("F = G(X)*F\nG = G(F)'", [0] * 7),
    ("G = F(X)*G\nF = F(G)'", [0] * 7),
]


class TestDecision:
    """Each recursive system is decided from its equations, alike at every
    order; a refusal names an equation as written."""

    @pytest.mark.parametrize("defs, want", DECISIONS)
    def test_every_order_decides_alike(self, monkeypatch, defs, want):
        env = parse_defs(defs) if isinstance(defs, str) else defs
        first = Name(next(iter(env)))
        for order in (0, 1, 4, 6):
            # Decided afresh: no decision kept from another order or table row.
            monkeypatch.setattr(semantics, "_WELL_FOUNDED", set())
            if want is None:
                with pytest.raises(IllFoundedEquation,
                                   match=r"equation \w+ = "):
                    egf_of(first, env, order=order)
            else:
                assert egf_of(first, env, order=order).counts() == \
                    want[:order + 1]

    def test_each_system_is_decided_once(self, monkeypatch):
        # A walk that lists smallest first solves A again deeper at each
        # size; neither it nor a later call decides A again, nor a call on
        # the same equation under another name.  A*B reaches a new system.
        decided = []
        decide = semantics._decide

        def counted(env, table, roots, components, cycles):
            decided.append(sorted(name for comp in cycles for name in comp))
            return decide(env, table, roots, components, cycles)

        monkeypatch.setattr(semantics, "_decide", counted)
        monkeypatch.setattr(semantics, "_WELL_FOUNDED", set())
        env = parse_defs("A = X*E(A)\nB = 1 + X*B^2\n")
        with enumerator._Walk(env=env) as walk:
            for n in range(5):
                enumerate_structures(Name("A"), env, range(1, n + 1),
                                     walk=walk)
        egf_of(Name("A"), env, order=9)
        egf_of(Name("Z"), parse_defs("Z = X*E(Z)\n"), order=9)
        egf_of(parse_expr("A*B"), env, order=3)
        assert decided == [["A"], ["A", "B"]]

    def test_a_deep_equation_is_numbered_compiled_and_decided_in_loops(
            self, monkeypatch):
        """The table, the decision, the key of the decisions kept and the
        compile walk their rows in loops, so an equation 400 levels deep
        is numbered, decided and compiled, and compared with a copy of
        itself, with 50 frames of the recursion limit left to them.  Each
        level's hash and names are kept as it is built, one level at a
        time, and F is held deep enough that no closure runs."""
        x = Primitive(PrimitiveKind.SINGLETON)
        lp = Primitive(PrimitiveKind.NONEMPTY_LIST)
        levels = [Pointing, lambda t: Sum(t, x), lambda t: Product(x, t),
                  lambda t: Substitute(lp, t),
                  lambda t: RestrictCard(t, "<=", 50)]

        def deep():
            tree = Name("F")
            for level in range(400):
                tree = levels[level % len(levels)](tree)
                hash(tree), tree.depths
            return Sum(x, Product(x, tree))

        rhs, copy = deep(), deep()
        env = Environment({"F": rhs})
        evaluator = semantics._Evaluator(env)
        evaluator.resolved["F"] = CountSeries([0, 1, 2, 6])
        monkeypatch.setattr(semantics, "_WELL_FOUNDED", set())
        depth = 0
        while sys._getframe(depth).f_back is not None:
            depth += 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            table, built = semantics._Table(), []
            evaluator._resolve_names(Name("F"), 3, table, built)
            closure = evaluator._compile(table, built, rhs)
            equal = copy == rhs
        finally:
            sys.setrecursionlimit(limit)
        assert len(semantics._WELL_FOUNDED) == 1
        assert len(table.nodes) == len(built) == 405
        assert built[table.add(rhs)] is closure
        assert equal

    @pytest.mark.parametrize("relation, counts, size", [
        ("==", [0, 1, 0, 0, 0, 0], 10**5),
        (">=", [0, 1, 0, 0, 0, 0], 10**5),
        ("<=", [0, 1, 2, 6, 24, 120], 0),
    ])
    def test_a_large_restriction_bound_is_decided_at_once(
            self, monkeypatch, relation, counts, size):
        # F = X + X*restrict(F) reads F one size down; F = X + restrict(F)
        # reads itself where the restriction admits its size.
        monkeypatch.setattr(semantics, "_WELL_FOUNDED", set())
        x, f = Primitive(PrimitiveKind.SINGLETON), Name("F")
        started = time.perf_counter()
        env = Environment({"F": Sum(x, Product(
            x, RestrictCard(f, relation, 10**5)))})
        assert egf_of(f, env, order=5).counts() == counts
        env = Environment({"F": Sum(x, RestrictCard(f, relation, 10**5))})
        with pytest.raises(IllFoundedEquation, match=(
                f"admits more than one fixed point: .* count at size {size} "
                "depends on itself")):
            egf_of(f, env, order=5)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("defs", ["F = F", "F = E*F", "F = 1 + F"])
    def test_refused_before_any_kernel_runs(self, defs):
        with kernels_raise():
            for order in (0, 1, 4):
                with pytest.raises(IllFoundedEquation):
                    egf_of(Name("F"), parse_defs(defs), order=order)


def fraction_series(order, zero_constant=False):
    """Series whose counts are small rationals, mostly not integers."""
    base = st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        min_size=order + 1, max_size=order + 1,
    )
    if zero_constant:
        base = base.map(lambda c: [0] + c[1:])
    return base.map(CountSeries.from_counts)


def raw_counts(s):
    """The counts n! * a_n of any series, integral or not."""
    return [s.coefficient(n) * factorial(n) for n in range(s.order + 1)]


# Outer count tables whose substitution takes a closed-form recurrence.
CLOSED_FORM_OUTERS = {
    "E": lambda n: 1,
    "Ep": lambda n: 1 if n else 0,
    "L": factorial,
    "Lp": lambda n: factorial(n) if n else 0,
    "C": lambda n: factorial(n - 1) if n else 0,
}


class TestSubstitutionKernels:
    @pytest.mark.parametrize("outer", sorted(CLOSED_FORM_OUTERS))
    @settings(max_examples=25)
    @given(inner=counts_series(6, -5, 5, zero_constant=True))
    def test_closed_form_outer_on_integers(self, outer, inner):
        fc = [CLOSED_FORM_OUTERS[outer](n) for n in range(7)]
        gc = inner.counts()
        got = CountSeries.from_counts(fc)(inner).counts()
        assert got == [partitional_composite(fc, gc, n) for n in range(7)]

    @pytest.mark.parametrize("outer", sorted(CLOSED_FORM_OUTERS))
    @settings(max_examples=25)
    @given(
        inner=fraction_series(5, zero_constant=True),
        constant=st.integers(-3, 3),
    )
    def test_closed_form_outer_on_fractions(self, outer, inner, constant):
        fc = [constant] + [CLOSED_FORM_OUTERS[outer](n) for n in range(1, 6)]
        gc = raw_counts(inner)
        got = raw_counts(CountSeries.from_counts(fc)(inner))
        assert got == [partitional_composite(fc, gc, n) for n in range(6)]

    @settings(max_examples=25)
    @given(counts_series(5, -5, 5), fraction_series(5, zero_constant=True))
    def test_generic_outer_on_fractions(self, f, g):
        fc, gc = f.counts(), raw_counts(g)
        got = raw_counts(f(g))
        assert got == [partitional_composite(fc, gc, n) for n in range(6)]


# Counts mixing ints, negative ones included, with fractions.
_COUNT = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


class TestDivisionKernel:
    @given(
        counts_series(5),
        counts_series(5),
        st.integers(-4, 4).filter(lambda c: c not in (0, 1)),
    )
    def test_quotient_times_divisor_is_dividend(self, f, g, constant):
        g = CountSeries.from_counts([constant] + g.counts()[1:])
        quot = raw_counts(f / g)
        gc = g.counts()
        assert [
            binomial_convolution(quot, gc, n) for n in range(6)
        ] == f.counts()

    def test_non_unit_constant_gives_fractions(self):
        q = CountSeries.one(2) / CountSeries.from_counts([2, 0, 0])
        assert q.coefficient(0) == Fraction(1, 2)
        with pytest.raises(NonIntegerCount):
            q.count(0)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_division_by_e_equals_the_binomial_kernel(self, data):
        # A divisor whose counts are all 1 through the order takes the
        # table of differences; _divide is the kernel of every other one.
        order = data.draw(st.integers(0, 30))
        f = CountSeries.from_counts(data.draw(
            st.lists(_COUNT, min_size=order + 1, max_size=order + 1)
        ))
        e = CountSeries.from_counts([1] * (order + 1 + data.draw(
            st.integers(0, 5)
        )))
        got = (f / e)._counts
        want = CountSeries(
            series._divide(f._counts, e._counts, order)
        )._counts
        assert got == want
        assert list(map(type, got)) == list(map(type, want))

    def test_division_by_e_grows_no_pascal_row(self):
        rows = len(series._PASCAL)
        order = max(rows, 900) + 100
        der = egf_of(parse_expr("Der"), order=order)
        assert len(series._PASCAL) == rows
        assert der.counts() == subfactorial_table(order)

    def test_derangements_at_order_1000_peak_below_8_mb(self):
        # The table of differences holds one row of counts at a time.  The
        # Pascal table is cut back to row 160 first, so that a kernel that
        # read it would have to grow it through row 1000 (52 MB traced).
        del series._PASCAL[161:]
        tracemalloc.start()
        try:
            egf_of(parse_expr("Der"), order=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestCountTypes:
    def test_coefficient_is_a_fraction(self):
        # The CLI prints str(coefficient): 1/2 for E at n = 2, 1 at n = 1.
        e = egf_of(parse_expr("E"), order=2)
        assert isinstance(e.coefficient(1), Fraction)
        assert [str(e.coefficient(n)) for n in range(3)] == ["1", "1", "1/2"]

    def test_non_integral_count_raises(self):
        s = CountSeries.from_counts([1, 1, 1]) / 2
        assert s.coefficient(1) == Fraction(1, 2)
        with pytest.raises(NonIntegerCount, match="1/2"):
            s.count(1)

    def test_integral_fraction_count_is_an_int(self):
        s = CountSeries.from_counts([Fraction(1, 2), Fraction(3, 2)]) * 2
        assert s.counts() == [1, 3]


class TestClosedFormsAtHighOrder:
    ENV = parse_defs("A = X*E(A)\nB = 1 + X*B^2\nT = X*L(T)")

    def counts(self, text, order):
        return egf_of(parse_expr(text), self.ENV, order=order).counts()

    def test_rooted_trees(self):
        assert self.counts("A", 60) == [0] + [n ** (n - 1) for n in range(1, 61)]

    def test_binary_trees(self):
        assert self.counts("B", 60) == [
            catalan(n) * factorial(n) for n in range(61)
        ]

    def test_plane_trees(self):
        assert self.counts("T", 40) == [0] + [
            factorial(n) * catalan(n - 1) for n in range(1, 41)
        ]

    def test_partitions(self):
        assert self.counts("Part", 200) == bell_table(200)

    def test_involutions(self):
        assert self.counts("Inv", 200) == involution_table(200)

    def test_derangements(self):
        assert self.counts("Der", 200) == subfactorial_table(200)


# -- the kernels against references written with math.comb -----------------

@st.composite
def _count_lists(draw, zero_constant=False, unit_constant=False):
    """Raw counts f_0 .. f_N at an order N of 0 to 40."""
    order = draw(st.integers(0, 40))
    counts = draw(st.lists(_COUNT, min_size=order + 1, max_size=order + 1))
    if zero_constant:
        counts[0] = 0
    elif unit_constant:
        counts[0] = draw(_COUNT.filter(bool))
    return counts


def _ref_product(f, g):
    n_max = min(len(f), len(g))
    return [
        sum(comb(n, k) * f[k] * g[n - k] for k in range(n + 1))
        for n in range(n_max)
    ]


def _ref_quotient(f, g):
    quot = []
    for n in range(min(len(f), len(g))):
        rest = sum(comb(n, k) * g[k] * quot[n - k] for k in range(1, n + 1))
        quot.append((f[n] - rest) / Fraction(g[0]))
    return quot


def _ref_substitution(outer, g):
    """sum_k outer(k) g^k / k!, with g^k from the reference product."""
    out = [outer(0)] + [0] * (len(g) - 1)
    power = [1] + [0] * (len(g) - 1)
    for k in range(1, len(g)):
        power = [Fraction(c, k) for c in _ref_product(power, g)]
        out = [a + outer(k) * b for a, b in zip(out, power)]
    return out


class TestKernelsAgainstComb:
    @settings(max_examples=30, deadline=None)
    @given(_count_lists(), _count_lists())
    def test_product(self, f, g):
        got = CountSeries.from_counts(f) * CountSeries.from_counts(g)
        assert raw_counts(got) == _ref_product(f, g)

    @settings(max_examples=20, deadline=None)
    @given(_count_lists(), _count_lists(unit_constant=True))
    def test_quotient(self, f, g):
        got = CountSeries.from_counts(f) / CountSeries.from_counts(g)
        assert raw_counts(got) == _ref_quotient(f, g)

    @pytest.mark.parametrize("outer", ["E", "L", "C"])
    @settings(max_examples=10, deadline=None)
    @given(g=_count_lists(zero_constant=True))
    def test_substitution(self, outer, g):
        counts_at = CLOSED_FORM_OUTERS[outer]
        table = [counts_at(k) for k in range(len(g))]
        got = CountSeries.from_counts(table)(CountSeries.from_counts(g))
        assert raw_counts(got) == _ref_substitution(counts_at, g)

    def test_pascal_rows_are_binomials(self):
        rows = _binomials(200)
        assert len(rows) >= 201
        for n, row in enumerate(rows):
            assert row == [comb(n, k) for k in range(n + 1)]

    def test_pascal_table_grown_from_many_threads(self):
        # Threads that grow the shared table at once must not append a row
        # twice, which would shift every later row.  Each grower rebinds
        # the table, so the one left is read after the threads, and each
        # thread keeps a table through its own row.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        got = {}

        def grow(order):
            got[order] = _binomials(order)

        try:
            for _ in range(10):
                del series._PASCAL[1:]
                threads = [
                    threading.Thread(target=grow, args=(order,))
                    for order in range(10, 170, 10)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                for order, rows in got.items():
                    assert rows[order] == [comb(order, k)
                                           for k in range(order + 1)]
                rows = series._PASCAL
                assert len(rows) > 10
                for n, row in enumerate(rows):
                    assert row == [comb(n, k) for k in range(n + 1)]
        finally:
            sys.setswitchinterval(interval)
