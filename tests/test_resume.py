"""Solver passes that resume products and substitutions from the counts that
did not change: the kernels' known prefix, and the evaluator that hands it
over, checked against plain recomputation and closed forms."""

from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from species import primitives, series
from species.expr import (
    Derivative,
    Environment,
    Name,
    Pointing,
    Primitive,
    Product,
    Substitute,
    Sum,
)
from species.parser import parse_defs, parse_expr
from species.semantics import egf_of, primitive_series
from species.series import CountSeries, solve_system

from oracles import catalan, factorial_product_table

# -- the kernels resume exactly -----------------------------------------------

_COUNT = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@st.composite
def _operands(draw, zero_constant=False):
    """Two count lists of one order, 0 to 25, and a cut 0 .. order + 1."""
    order = draw(st.integers(0, 25))
    lists = [
        draw(st.lists(_COUNT, min_size=order + 1, max_size=order + 1))
        for _ in range(2)
    ]
    if zero_constant:
        lists[1][0] = 0
    cut = draw(st.integers(0, order + 1))
    return CountSeries(lists[0]), CountSeries(lists[1]), cut


class TestKnownPrefix:
    @settings(max_examples=40, deadline=None)
    @given(_operands())
    def test_product(self, operands):
        f, g, cut = operands
        full = f * g
        assert f.__mul__(g, full._counts[:cut]) == full

    @settings(max_examples=40, deadline=None)
    @given(_operands(), st.sampled_from(["E", "L", "C", "Ep", "S"]))
    def test_substitution(self, operands, outer):
        _, g, cut = operands
        g = CountSeries((0, *g._counts[1:]))
        f = primitive_series(parse_expr(outer).kind, g.order)
        full = f(g)
        assert f(g, full._counts[:cut]) == full

    @settings(max_examples=40, deadline=None)
    @given(_operands())
    def test_quotient(self, operands):
        f, g, cut = operands
        g = CountSeries((1, *g._counts[1:]))
        full = series._divide(f._counts, g._counts, f.order)
        resumed = series._divide(f._counts, g._counts, f.order, full[:cut])
        assert resumed == full

    def test_a_known_prefix_is_not_recomputed(self):
        # Wrong known counts come back as given: the kernel trusts them.
        f = CountSeries([1, 1, 1, 1])
        assert f.__mul__(f, (7, 7)).counts()[:2] == [7, 7]
        assert f(CountSeries.x(3), (5, 6)).counts()[:2] == [1, 6]


# -- the evaluator agrees with plain recomputation ----------------------------

def _plain(expr, approx, order):
    """The series of expr with every name read from approx, through the
    CountSeries operators alone: no known prefix, nothing kept."""
    if isinstance(expr, Primitive):
        return primitive_series(expr.kind, order, expr.param)
    if isinstance(expr, Name):
        return approx[expr.ident].truncate(order)
    if isinstance(expr, (Sum, Product)):
        left = _plain(expr.left, approx, order)
        right = _plain(expr.right, approx, order)
        return left + right if isinstance(expr, Sum) else left * right
    if isinstance(expr, Substitute):
        inner = _plain(expr.inner, approx, order)
        return _plain(expr.outer, approx, order)(inner)
    if isinstance(expr, Pointing):
        return _plain(expr.inner, approx, order).point()
    if isinstance(expr, Derivative):
        return _plain(expr.inner, approx, order + 1).derive()
    raise AssertionError(f"not generated: {expr!r}")


_X = parse_expr("X")
_LEAVES = ["1", "X", "E", "L", "C", "Ep"]
_OUTERS = ["E", "L", "C", "Ep", "Lp", "S", "P", "Part", "Inv", "Der", "End"]


def _bodies(names):
    """Expressions over names and primitives in which every substitution
    inner has no structure on the empty set (names are guarded by X)."""
    leaves = st.sampled_from(_LEAVES + names).map(parse_expr)
    guarded = st.sampled_from(names).map(Name)

    def compound(children):
        inners = st.one_of(guarded, children.map(lambda e: Product(_X, e)))
        outers = st.sampled_from(_OUTERS + names).map(parse_expr)
        return st.one_of(
            st.tuples(children, children).map(lambda p: Sum(*p)),
            st.tuples(children, children).map(lambda p: Product(*p)),
            st.tuples(outers, inners).map(lambda p: Substitute(*p)),
            children.map(Pointing),
        )

    return st.recursive(leaves, compound, max_leaves=5)


@st.composite
def _systems(draw):
    """Guarded systems F = X*<body> (and G = X*<body>), a top expression
    over their names, and an order up to 15."""
    names = draw(st.sampled_from([["F"], ["F", "G"]]))
    bodies = _bodies(names)
    defs = [(name, Product(_X, draw(bodies))) for name in names]
    return defs, draw(bodies), draw(st.integers(0, 15))


class TestAgainstPlainRecomputation:
    @settings(max_examples=60, deadline=None)
    @given(_systems())
    def test_systems(self, system):
        defs, top, order = system

        def plain_rhs(body):
            return lambda approx, target: _plain(body, approx, target)

        solution = solve_system(
            [(name, plain_rhs(body)) for name, body in defs], order
        )
        want = _plain(top, solution, order)
        env = Environment(defs)
        assert egf_of(top, env, order) == want
        for name, _ in defs:
            assert egf_of(Name(name), env, order) == solution[name]


# -- closed forms at order 60 -------------------------------------------------

_ENV = parse_defs(
    "A = X*E(A)\nB = 1 + X*B^2\nT = X*L(T)\nM = X*E(N)\nN = X*E(M)\n"
    "F = X + X^2*F'\n"
)

_ORACLES = {
    "A": lambda n: n ** (n - 1) if n else 0,
    "B": lambda n: catalan(n) * factorial(n),
    "T": lambda n: factorial(n) * catalan(n - 1) if n else 0,
    "M": lambda n: n ** (n - 1) if n else 0,
    "S(A)": lambda n: n ** n,
    "pt(A)": lambda n: n ** n if n else 0,
}


class TestClosedFormsAtOrder60:
    @pytest.mark.parametrize("text", sorted(_ORACLES))
    def test_counts(self, text):
        got = egf_of(parse_expr(text), _ENV, order=60).counts()
        assert got == [_ORACLES[text](n) for n in range(61)]

    def test_derivative_in_its_own_cycle(self):
        got = egf_of(parse_expr("F"), _ENV, order=60).counts()
        assert got == factorial_product_table(60)


# -- the work a solve does ----------------------------------------------------

def test_binary_trees_to_order_60_compute_few_product_counts(monkeypatch):
    """Each solver pass computes only the product counts whose operands
    changed: solving B to order 60 makes 248 products, which recomputed
    from count 0 would compute 8 048 counts."""
    computed = []
    convolve = series._convolve

    def counted(f, g, order, *known):
        # A call without known computes every count.
        computed.append(order + 1 - len(known[0] if known else ()))
        return convolve(f, g, order, *known)

    monkeypatch.setattr(series, "_convolve", counted)
    got = egf_of(parse_expr("B"), _ENV, order=60).counts()
    assert got == [catalan(n) * factorial(n) for n in range(61)]
    assert sum(computed) <= 1000


def test_name_free_nodes_are_built_once_per_solve(monkeypatch):
    """X and E are built at the solve's order and sliced for every pass."""
    built = []
    for kind, (build, listing) in list(primitives.ROWS.items()):
        def logged(order, param, kind=kind, build=build):
            built.append((kind.value, order))
            return build(order, param)

        monkeypatch.setitem(primitives.ROWS, kind, (logged, listing))
    egf_of(parse_expr("A"), _ENV, order=40)
    assert sorted(built) == [("E", 40), ("X", 40)]


def test_a_derivative_above_a_name_free_node_reads_one_count_more():
    env = parse_defs("H = X*E(H) + X*(X*L)'")
    body = env["H"]
    plain = solve_system(
        [("H", lambda approx, target: _plain(body, approx, target))], 12
    )
    assert egf_of(Name("H"), env, order=12) == plain["H"]


# -- squaring and the closed-form outers -------------------------------------

_INT_COUNT = st.integers(-10**6, 10**6)
_FRACTION_COUNT = st.fractions(
    min_value=-50, max_value=50, max_denominator=9
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(_INT_COUNT, min_size=1, max_size=26),
    st.lists(_FRACTION_COUNT, min_size=1, max_size=26),
))
def test_a_square_equals_the_product_at_every_cut(counts):
    """A series times itself is squared in half the products, and resumes
    from a known prefix cut anywhere, like _convolve."""
    f = CountSeries(counts)
    order = f.order
    full = series._convolve(f._counts, f._counts, order)
    for cut in range(order + 2):
        known = tuple(full[:cut])
        assert series._square(f._counts, order, known) == full
        assert f.__mul__(f, known) == CountSeries(full)


def test_a_product_of_one_node_with_itself_is_squared(monkeypatch):
    """B^2 is Product(B, B): its two operands compile to one node, which
    hands the product one series twice."""
    squared = []
    square = series._square

    def counted(f, order, known=()):
        squared.append(order)
        return square(f, order, known)

    monkeypatch.setattr(series, "_square", counted)
    got = egf_of(parse_expr("B"), _ENV, order=30).counts()
    assert got == [catalan(n) * factorial(n) for n in range(31)]
    assert squared


def _closed_form_by_scan(f, order):
    """The recurrence _closed_form picks, found by scanning the counts."""
    exp = inv = log = True
    fact = 1
    for n in range(1, order + 1):
        c = f[n]
        exp = exp and c == 1
        log = log and c == fact
        fact *= n
        inv = inv and c == fact
    return series._exp if exp else series._inv if inv else (
        series._log if log else None
    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 40),
    st.sampled_from(["E", "L", "C", "Ep", "S", "X"]),
    st.one_of(st.none(), st.tuples(st.integers(0, 40), _COUNT)),
    st.integers(0, 3),
)
def test_closed_forms_are_found_as_a_scan_finds_them(order, outer, change,
                                                       constant):
    """Comparing the outer's counts with the tables picks E, L and C (and
    nothing else) exactly where a scan of the counts does, at any order and
    with any constant term, also with one count changed."""
    counts = list(primitive_series(parse_expr(outer).kind, order)._counts)
    counts[0] = constant
    if change is not None and change[0] <= order:
        counts[change[0]] = change[1]
    f = CountSeries(counts)._counts
    assert series._closed_form(f, order) is _closed_form_by_scan(f, order)
