"""The expression language: parsing, printing, definitions, validation,
and the counting series of the built-in species."""

import copy
import pickle
import sys
from math import comb, factorial

import pytest
from hypothesis import given

from species.errors import (
    DuplicateName,
    IllFoundedEquation,
    NonemptyInnerOnEmptySet,
    NonzeroConstantTerm,
    ParseError,
    UnboundName,
)
from species.expr import (
    PARAMETRIC,
    Derivative,
    Name,
    Pointing,
    Primitive,
    PrimitiveKind,
    Product,
    RestrictCard,
    Substitute,
    Sum,
    print_expr,
)
from species.parser import MAX_NESTING, parse_defs, parse_expr
from species.primitives import NONEMPTY, ROWS
from species.semantics import egf_of, primitive_series, validate

from oracles import bell, involutions, subfactorial
from strategies import grammar_exprs

K = PrimitiveKind
N = MAX_NESTING
_NO_EXPRESSION = ("identifier", "'('", "'0'", "'1'")
_TOO_DEEP = f"the expression nests deeper than {N} levels"


class TestParsing:
    def test_binary_tree_equation_shape(self):
        got = parse_expr("1 + X*B^2")
        b = Name("B")
        assert got == Sum(
            Primitive(K.ONE),
            Product(Primitive(K.SINGLETON), Product(b, b)),
        )

    def test_substitution_and_parameters(self):
        got = parse_expr("E(X + Ek[2])")
        assert got == Substitute(
            Primitive(K.SET),
            Sum(Primitive(K.SINGLETON), Primitive(K.KSET, 2)),
        )

    def test_postfix_operators(self):
        assert parse_expr("C'") == Derivative(Primitive(K.CYCLE))
        assert parse_expr("E''") == Derivative(Derivative(Primitive(K.SET)))
        assert parse_expr("pt(A)") == Pointing(Name("A"))

    def test_precedence(self):
        # * binds tighter than +, ^ tighter than *, ' tighter than ^
        got = parse_expr("X + X*C'^2")
        dc = Derivative(Primitive(K.CYCLE))
        x = Primitive(K.SINGLETON)
        assert got == Sum(x, Product(x, Product(dc, dc)))

    def test_power_zero_is_one(self):
        assert parse_expr("L^0") == Primitive(K.ONE)

    def test_parenthesised_derivative(self):
        got = parse_expr("(X + E)'")
        assert got == Derivative(Sum(Primitive(K.SINGLETON), Primitive(K.SET)))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "E(",
            "E()",
            "Ek",          # parameter is mandatory
            "Ek[",
            "Ek[2",
            "Pk[x]",
            "Ek(X)",       # parametric species cannot head a substitution
            "pt",          # needs an argument
            "2*X",         # only 0 and 1 are literal species
            "B^",
            "X + + X",
            "X)",
        ],
    )
    def test_rejected_inputs(self, bad):
        with pytest.raises(ParseError):
            parse_expr(bad)

    @pytest.mark.parametrize("bad, message, position", [
        ("Ek", "'Ek' needs its parameter, e.g. Ek[2]", 0),
        ("Ek(X)", "'Ek' needs its parameter before an argument", 0),
        ("X + Pk", "'Pk' needs its parameter, e.g. Pk[2]", 4),
        ("Pk(E)", "'Pk' needs its parameter before an argument", 0),
    ])
    def test_a_parametric_kind_without_its_parameter(self, bad, message,
                                                     position):
        with pytest.raises(ParseError) as info:
            parse_expr(bad)
        assert info.value.message == message
        assert info.value.position == position
        assert info.value.expected == ("'['",)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_expr("X + )")
        assert info.value.position == 4
        assert "position 4" in str(info.value)

    def test_nesting_at_the_limit_parses_without_recursion(self):
        """The parser keeps its open brackets on a stack of its own, so
        expressions at the nesting limit parse with under 100 frames of
        the recursion limit left to them."""
        texts = [
            "pt(" * (N - 1) + "X" + ")" * (N - 1),
            "(" * N + "X" + ")" * N,
            "C(" * (N - 1) + "X" + ")" * (N - 1),
        ]
        depth = 0
        while sys._getframe(depth).f_back is not None:
            depth += 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            trees = [parse_expr(text) for text in texts]
        finally:
            sys.setrecursionlimit(limit)
        assert [tree.height for tree in trees] == [N, 1, N]


class TestParseErrors:
    """Every way parse_expr and parse_defs refuse input, each with its
    message, position and expected tokens."""

    @pytest.mark.parametrize("text, message, position, expected", [
        ("X + $", "unexpected character '$'", 4,
         ("identifier", "number", "operator")),
        ("", "input ended where an expression was expected", 0,
         _NO_EXPRESSION),
        ("X +", "input ended where an expression was expected", 3,
         _NO_EXPRESSION),
        ("X + + X", "found '+' where an expression was expected", 4,
         _NO_EXPRESSION),
        ("2*X", "the number 2 is not a species", 0, ("'0'", "'1'")),
        ("X^", "expected an integer for the exponent", 2, ("integer",)),
        ("X^Y", "expected an integer for the exponent", 2, ("integer",)),
        ("X^-1", "expected an integer for the exponent", 2, ("integer",)),
        ("Ek", "'Ek' needs its parameter, e.g. Ek[2]", 0, ("'['",)),
        ("Ek(X)", "'Ek' needs its parameter before an argument", 0,
         ("'['",)),
        ("Ek(X", "input ended while reading a substitution argument", 4,
         ("')'",)),
        ("Ek[", "expected an integer for the parameter", 3, ("integer",)),
        ("Ek[x]", "expected an integer for the parameter", 3, ("integer",)),
        ("Ek[2", "input ended while reading a parameter", 4, ("']'",)),
        ("Ek[2)", "found ')' while reading a parameter", 4, ("']'",)),
        ("E[2]", "'E' does not take a [k] parameter", 0, ("Pk", "Ek")),
        ("F[3]", "'F' does not take a [k] parameter", 0, ("Pk", "Ek")),
        ("pt", "input ended while reading the argument of pt", 2,
         ("'('",)),
        ("pt X", "found 'X' while reading the argument of pt", 3, ("'('",)),
        ("pt[2]", "found '[' while reading the argument of pt", 2,
         ("'('",)),
        ("pt(X", "input ended while reading the argument of pt", 4,
         ("')'",)),
        ("pt(X]", "found ']' while reading the argument of pt", 4,
         ("')'",)),
        ("(X", "input ended while reading a parenthesized expression", 2,
         ("')'",)),
        ("(X]", "found ']' while reading a parenthesized expression", 2,
         ("')'",)),
        ("E(X", "input ended while reading a substitution argument", 3,
         ("')'",)),
        ("F(X + Y", "input ended while reading a substitution argument", 7,
         ("')'",)),
        ("X)", "trailing input ')'", 1, ("end of input",)),
        ("X Y", "trailing input 'Y'", 2, ("end of input",)),
        ("E(C)(X)", "trailing input '('", 4, ("end of input",)),
        ("X^2'", "trailing input \"'\"", 3, ("end of input",)),
        ("(" * (N + 1) + "X" + ")" * (N + 1), _TOO_DEEP, N, ()),
        ("pt(" * N + "X" + ")" * N, _TOO_DEEP, 4 * N, ()),
        ("pt(" * (N + 1) + "X" + ")" * (N + 1), _TOO_DEEP, 3 * N + 2, ()),
        ("C(" * N + "X" + ")" * N, _TOO_DEEP, 3 * N, ()),
        ("Ek(" + "(" * N + "X" + ")" * (N + 1), _TOO_DEEP, N + 2, ()),
        ("(" * N + "pt(X)" + ")" * N, _TOO_DEEP, N + 2, ()),
        ("+".join(["X"] * (N + 1)), _TOO_DEEP, 2 * N, ()),
        ("*".join(["X"] * (N + 1)), _TOO_DEEP, 2 * N, ()),
        ("(" * (N - 1) + "X" + ")" * (N - 1) + "+X" * (N + 1), _TOO_DEEP,
         4 * N - 2, ()),
        (f"X^{N + 1}", _TOO_DEEP, 2, ()),
        (f"(X*X)^{N}", _TOO_DEEP, 6, ()),
        ("X^50^52", _TOO_DEEP, 5, ()),
        (f"X^0^{N + 1}", _TOO_DEEP, 4, ()),
        (f"E'*X^{N}", _TOO_DEEP, 5, ()),
        ("E" + "'" * N, _TOO_DEEP, N, ()),
    ])
    def test_an_expression(self, text, message, position, expected):
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        found = info.value
        assert (found.message, found.position, found.expected) == (
            message, position, expected)

    @pytest.mark.parametrize("text, message, position, expected", [
        ("X", "line 1: expected 'Name = expression'", 0,
         ("Name = expression",)),
        ("1F = X", "line 1: expected 'Name = expression'", 0,
         ("Name = expression",)),
        ("F = X +\n", "line 1: input ended where an expression was expected",
         4, _NO_EXPRESSION),
        ("A = X\nB = (",
         "line 2: input ended where an expression was expected", 2,
         _NO_EXPRESSION),
        ("# c\nF = Ek", "line 2: 'Ek' needs its parameter, e.g. Ek[2]", 1,
         ("'['",)),
    ])
    def test_a_definitions_file(self, text, message, position, expected):
        with pytest.raises(ParseError) as info:
            parse_defs(text)
        found = info.value
        assert (found.message, found.position, found.expected) == (
            message, position, expected)


class TestPrinting:
    def test_needs_parentheses(self):
        e = Product(Sum(Primitive(K.SINGLETON), Primitive(K.SET)),
                    Primitive(K.LIST))
        assert print_expr(e) == "(X + E)*L"

    def test_derivative_of_compound(self):
        e = Derivative(Product(Primitive(K.SINGLETON), Primitive(K.LIST)))
        assert print_expr(e) == "(X*L)'"

    def test_zero_and_one(self):
        assert print_expr(Sum(Primitive(K.ZERO), Primitive(K.ONE))) == "0 + 1"

    def test_restriction_has_no_grammar_but_prints(self):
        e = RestrictCard(Primitive(K.ENDOFUNCTION), ">=", 1)
        assert print_expr(e) == "restrict(End, n >= 1)"
        with pytest.raises(ParseError):
            parse_expr(print_expr(e))


class TestRoundTrip:
    @given(grammar_exprs())
    def test_print_then_parse_is_identity(self, expr):
        assert parse_expr(print_expr(expr)) == expr


def _height(e):
    """The number of nodes on the longest path down from e, counted by
    recursion over the node kinds."""
    if isinstance(e, (Primitive, Name)):
        return 1
    if isinstance(e, (Sum, Product)):
        return 1 + max(_height(e.left), _height(e.right))
    if isinstance(e, Substitute):
        return 1 + max(_height(e.outer), _height(e.inner))
    assert isinstance(e, (Derivative, Pointing, RestrictCard))
    return 1 + _height(e.inner)


class TestNodeValues:
    def test_separate_parses_are_equal_values(self):
        text = "1 + X*E(A)' + pt(C(B))^2 + Pk[3]"
        first, second = parse_expr(text), parse_expr(text)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert {first: 1}[second] == 1

    def test_stacked_powers_compare_in_time_linear_in_their_height(self):
        """X^2^...^2 shares one base per power: separate parses of 90 of
        them compare equal, and unequal at their one leaf, in one pass
        over the distinct pairs of nodes, not one per path down."""
        text = "X" + "^2" * 90
        first, second = parse_expr(text), parse_expr(text)
        assert first is not second and first.height == 91
        assert first == second and not first != second
        assert first != parse_expr("E" + text[1:])

    def test_the_node_kind_is_part_of_the_value(self):
        a, b = Name("A"), Name("B")
        assert Sum(a, b) != Product(a, b)
        assert Sum(a, b) != Sum(b, a)
        assert Derivative(a) != Pointing(a)
        assert Name("A") != "A"

    @pytest.mark.parametrize("field", ["left", "height", "unknown"])
    def test_nodes_are_immutable(self, field):
        node = parse_expr("X + E")
        with pytest.raises(AttributeError):
            setattr(node, field, Name("A"))
        with pytest.raises(AttributeError):
            delattr(node, field)
        assert node == Sum(Primitive(K.SINGLETON), Primitive(K.SET))

    @given(grammar_exprs())
    def test_height_is_the_longest_path_down(self, expr):
        assert expr.height == _height(expr)

    @given(grammar_exprs())
    def test_copies_and_pickles_are_equal_values(self, expr):
        for other in (copy.deepcopy(expr), pickle.loads(pickle.dumps(expr))):
            assert other == expr and hash(other) == hash(expr)
            assert other.height == expr.height

    def test_depths_count_the_derivatives_above_each_name(self):
        assert parse_defs("F = X + X^2*F'")["F"].depths == {"F": 1}
        assert parse_expr("A''*pt(A)' + B + C(A)").depths == {"A": 2, "B": 0}
        assert parse_expr("E(X)'' + 1").depths == {}
        restricted = RestrictCard(Derivative(Name("A")), ">=", 2)
        assert restricted.depths == {"A": 1}

    def test_depths_are_read_only(self):
        depths = parse_expr("A'").depths
        with pytest.raises(TypeError):
            depths["A"] = 0
        assert parse_expr("A'").depths == {"A": 1}


class TestDefinitions:
    def test_file_of_definitions(self):
        env = parse_defs(
            """
            # two classical implicit species
            A = X*E(A)
            B = 1 + X*B^2   # trailing comments are fine
            """
        )
        assert env["A"] == Product(Primitive(K.SINGLETON),
                                   Substitute(Primitive(K.SET), Name("A")))

    def test_duplicate_definition(self):
        with pytest.raises(DuplicateName):
            parse_defs("A = X\nA = E\n")

    def test_reserved_names_cannot_be_redefined(self):
        with pytest.raises(DuplicateName):
            parse_defs("E = X\n")

    def test_undefined_reference_is_reported(self):
        with pytest.raises(UnboundName) as info:
            parse_defs("A = X*Q\n")
        assert "'Q'" in str(info.value)
        assert "'A'" in str(info.value)

    def test_errors_name_the_line(self):
        with pytest.raises(ParseError) as info:
            parse_defs("A = X\nB = = X\n")
        assert str(info.value).startswith("line 2:")

    def test_merged_environments(self):
        left = parse_defs("A = X\n")
        right = parse_defs("B = E\n")
        both = left.merged(right)
        assert both["A"] == Primitive(K.SINGLETON)
        assert both["B"] == Primitive(K.SET)


class TestPrimitiveSeries:
    @pytest.mark.parametrize(
        "kind,param,law",
        [
            (K.ZERO, None, lambda n: 0),
            (K.ONE, None, lambda n: 1 if n == 0 else 0),
            (K.SINGLETON, None, lambda n: 1 if n == 1 else 0),
            (K.SET, None, lambda n: 1),
            (K.NONEMPTY_SET, None, lambda n: 0 if n == 0 else 1),
            (K.KSET, 3, lambda n: 1 if n == 3 else 0),
            (K.LIST, None, factorial),
            (K.NONEMPTY_LIST, None, lambda n: 0 if n == 0 else factorial(n)),
            (K.CYCLE, None, lambda n: 0 if n == 0 else factorial(n - 1)),
            (K.PERMUTATION, None, factorial),
            (K.SUBSET, None, lambda n: 2 ** n),
            (K.KSUBSET, 2, lambda n: comb(n, 2)),
            (K.GRAPH, None, lambda n: 2 ** comb(n, 2)),
            (K.DIGRAPH, None, lambda n: 2 ** (n * n)),
            (K.INVOLUTION, None, involutions),
            (K.DERANGEMENT, None, subfactorial),
            (K.ENDOFUNCTION, None, lambda n: n ** n if n else 1),
            (K.PARTITION, None, bell),
        ],
    )
    def test_counts_match_oracle(self, kind, param, law):
        series = primitive_series(kind, order=8, param=param)
        assert series.counts() == [law(n) for n in range(9)]

    def test_every_kind_has_one_row(self):
        assert set(ROWS) == set(PrimitiveKind)

    @pytest.mark.parametrize("kind", list(PrimitiveKind))
    def test_nonempty_holds_where_the_row_counts(self, kind):
        # The decision on recursive systems reads NONEMPTY, not the rows.
        has = NONEMPTY.get(kind, lambda n, k: True)
        for param in (0, 1, 2, 5) if kind in PARAMETRIC else (None,):
            counts = primitive_series(kind, 20, param).counts()
            assert [bool(c) for c in counts] == \
                [has(n, param) for n in range(21)]

    @pytest.mark.parametrize(
        "kind,param", [(K.KSUBSET, 2.5), (K.KSET, "2"), (K.KSET, True)]
    )
    def test_a_parameter_that_is_no_int_is_refused(self, kind, param):
        with pytest.raises(ValueError, match="nonnegative integer parameter"):
            Primitive(kind, param)


class TestEvaluation:
    def test_restriction_masks_counts(self):
        only3 = RestrictCard(Primitive(K.SET), "==", 3)
        assert egf_of(only3, order=5).counts() == \
            primitive_series(K.KSET, 5, 3).counts()

    def test_restriction_at_least(self):
        positive = RestrictCard(Primitive(K.SET), ">=", 1)
        assert egf_of(positive, order=5).counts() == \
            primitive_series(K.NONEMPTY_SET, 5).counts()

    def test_substitution_needs_empty_inner(self):
        with pytest.raises(NonemptyInnerOnEmptySet):
            egf_of(parse_expr("E(E)"))
        # the specific error is a refinement of the series-level one
        assert issubclass(NonemptyInnerOnEmptySet, NonzeroConstantTerm)

    def test_unbound_name(self):
        with pytest.raises(UnboundName):
            egf_of(parse_expr("X*Q"))

    def test_derivative_of_recursive_name(self):
        env = parse_defs("B = 1 + X*B^2\n")
        shifted = egf_of(parse_expr("B'"), env, order=5).counts()
        plain = egf_of(Name("B"), env, order=6).counts()
        assert shifted == plain[1:]


class TestValidation:
    def test_good_expression(self):
        report = validate(parse_expr("E(Ep)"))
        assert report.ok and bool(report)

    def test_structures_on_the_empty_set(self):
        report = validate(parse_expr("E(E)"))
        assert not report.ok
        assert "empty" in report.describe()

    def test_ill_founded_definition(self):
        env = parse_defs("F = F\n")
        report = validate(Name("F"), env)
        assert not report.ok
        assert "IllFoundedEquation" in report.describe()

    def test_unbound_name_is_reported_not_raised(self):
        report = validate(parse_expr("X*Q"))
        assert not report.ok
        assert "Q" in report.describe()
