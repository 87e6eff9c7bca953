"""Exhaustive listing of structures, transport, and permutation views."""

import contextlib
import gc
import hashlib
import io
import itertools
import json
from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from species import cli, enumerator
from species.enumerator import (
    _structures,
    check_functoriality,
    cycles_to_permutation,
    decompose_permutation,
    enumerate_structures,
    permutation_to_cycles,
    recompose_permutation,
    transport,
)
from species.errors import (
    BudgetExceeded,
    DomainMismatch,
    NotABijection,
    ParseError,
    RecursionGuard,
)
from species.expr import PrimitiveKind, print_expr
from species.parser import parse_defs, parse_expr
from species.semantics import egf_of, validate
from species.structures import (
    STAR,
    Bijection,
    CompTerm,
    CycleTerm,
    DerivTerm,
    DigraphTerm,
    GraphTerm,
    ListTerm,
    MapTerm,
    NamedTerm,
    PartitionTerm,
    PointTerm,
    ProdTerm,
    SetTerm,
    Structure,
    SubsetTerm,
    SumTerm,
    _Composite,
    decode_structure,
)

from oracles import subfactorial
from strategies import grammar_exprs


def enum(text, labels, env=None, **kwargs):
    return enumerate_structures(parse_expr(text), env, labels, **kwargs)


class TestLiteralListings:
    def test_subsets_of_three(self):
        got = enum("P", ["1", "2", "3"])
        want = []
        for r in range(4):
            for chosen in itertools.combinations([1, 2, 3], r):
                rest = [x for x in [1, 2, 3] if x not in chosen]
                want.append(SubsetTerm(chosen, rest))
        assert sorted(got, key=lambda s: s.encode()) == \
            sorted(want, key=lambda s: s.encode())
        assert len(got) == 8

    def test_partitions_of_abc(self):
        got = enum("Part", ["a", "b", "c"])
        want = [
            PartitionTerm([["a", "b", "c"]]),
            PartitionTerm([["a", "b"], ["c"]]),
            PartitionTerm([["a", "c"], ["b"]]),
            PartitionTerm([["a"], ["b", "c"]]),
            PartitionTerm([["a"], ["b"], ["c"]]),
        ]
        assert set(got) == set(want)
        assert len(got) == 5

    def test_graphs_on_three(self):
        got = enum("Gra", [1, 2, 3])
        pool = [(1, 2), (1, 3), (2, 3)]
        want = set()
        for r in range(4):
            for edges in itertools.combinations(pool, r):
                want.add(GraphTerm([1, 2, 3], edges))
        assert set(got) == want
        assert len(got) == 8

    def test_cycles_on_three(self):
        got = enum("C", [1, 2, 3])
        assert set(got) == {CycleTerm([1, 2, 3]), CycleTerm([1, 3, 2])}

    def test_cycle_rotation_is_canonical(self):
        assert CycleTerm([2, 3, 1]) == CycleTerm([1, 2, 3])
        assert CycleTerm([3, 1, 2]).seq == (1, 2, 3)

    def test_lists_on_two(self):
        assert set(enum("L", ["x", "y"])) == {
            ListTerm(["x", "y"]), ListTerm(["y", "x"]),
        }

    def test_empty_label_set(self):
        assert enum("E", []) == [SetTerm([])]
        assert enum("Ep", []) == []
        assert enum("1", []) == [SetTerm([])]
        assert enum("0", []) == []

    def test_derangements_have_no_fixed_points(self):
        got = enum("Der", [1, 2, 3, 4])
        assert len(got) == subfactorial(4)
        for s in got:
            assert all(a != b for a, b in s.pairs)

    def test_output_is_sorted_and_duplicate_free(self):
        got = enum("S", [1, 2, 3, 4])
        keys = [s.encode() for s in got]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestCountsAgreeWithSeries:
    @pytest.mark.parametrize(
        "text",
        ["E*E", "L(Lp)", "C(X + X^2)", "S'", "pt(Part)", "Ek[2]*L",
         "E(X*E)", "Der*E", "Inv", "P*X"],
    )
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_composite_expressions(self, text, n):
        labels = list(range(1, n + 1))
        expr = parse_expr(text)
        assert len(enumerate_structures(expr, None, labels)) == \
            egf_of(expr, order=n).count(n)

    def test_sequences_of_nonempty_lists(self):
        # L(Lp) on [4]: n! * 2^(n-1) structures
        got = enum("L(Lp)", [1, 2, 3, 4])
        assert len(got) == 192
        shapes = {}
        for s in got:
            sizes = tuple(sorted(len(b.members) for b, _ in s.assign))
            shapes[sizes] = shapes.get(sizes, 0) + 1
        # partitions of 4 into parts: 4, 3+1, 2+2, 2+1+1, 1+1+1+1
        assert shapes == {
            (4,): 24, (1, 3): 48, (2, 2): 24, (1, 1, 2): 72, (1, 1, 1, 1): 24,
        }

    def test_recursive_species(self):
        env = parse_defs("A = X*E(A)\n")
        for n in range(1, 6):
            got = enumerate_structures(parse_expr("A"), env,
                                       list(range(1, n + 1)))
            assert len(got) == n ** (n - 1)


class TestTransport:
    def test_subset(self):
        s = SubsetTerm([1, 3], [2])
        f = Bijection({1: "a", 2: "b", 3: "c"})
        moved = transport(parse_expr("P"), None, s, f)
        assert moved == SubsetTerm(["a", "c"], ["b"])

    def test_domain_must_match_exactly(self):
        s = SubsetTerm([1, 3], [2])
        with pytest.raises(DomainMismatch):
            transport(parse_expr("P"), None, s, Bijection({1: "a", 3: "c"}))

    def test_cycle_conjugation(self):
        s = CycleTerm([1, 2, 3])
        f = Bijection({1: 2, 2: 3, 3: 1})
        assert transport(parse_expr("C"), None, s, f) == CycleTerm([2, 3, 1])

    def test_star_is_fixed(self):
        [s] = enum("C'", [7])            # the 2-cycle (7 star)
        f = Bijection({7: "z"})
        moved = transport(parse_expr("C'"), None, s, f)
        assert moved.labels() == {"z"}
        assert STAR in moved.inner.labels()

    def test_identity_bijection(self):
        for s in enum("Part", ["a", "b"]):
            assert transport(parse_expr("Part"), None, s,
                             Bijection.identity(["a", "b"])) == s


class TestPermutationViews:
    def test_round_trips_on_four(self):
        perms = enum("S", [1, 2, 3, 4])
        assert len(perms) == 24
        by_fixed = {}
        for p in perms:
            fixed, moved = decompose_permutation(p)
            assert isinstance(fixed, SetTerm)
            assert isinstance(moved, MapTerm)
            assert all(a != b for a, b in moved.pairs)
            assert recompose_permutation(fixed, moved) == p
            by_fixed[len(fixed.members)] = by_fixed.get(len(fixed.members), 0) + 1

            cyc = permutation_to_cycles(p)
            assert isinstance(cyc, CompTerm)
            assert cycles_to_permutation(cyc) == p
        # the fixed-point split refines 4! into binomial times subfactorial
        assert by_fixed == {
            k: comb(4, k) * subfactorial(4 - k)
            for k in range(5) if comb(4, k) * subfactorial(4 - k)
        }
        assert sum(by_fixed.values()) == 24

    def test_cycle_images_are_the_assemblies_of_cycles(self):
        perms = enum("S", [1, 2, 3])
        images = {permutation_to_cycles(p).encode() for p in perms}
        direct = {s.encode() for s in enum("E(C)", [1, 2, 3])}
        assert images == direct

    def test_only_permutations_decompose(self):
        not_a_perm = MapTerm([(1, 1), (2, 1), (3, 3)])
        with pytest.raises(NotABijection):
            decompose_permutation(not_a_perm)


class TestFunctoriality:
    @pytest.mark.parametrize("text", ["L", "C'", "pt(E)", "Gra"])
    def test_holds_for_catalogued_species(self, text):
        report = check_functoriality(parse_expr(text), labels=[1, 2, 3, 4],
                                     trials=20, seed=7)
        assert report.passed, report.failure
        assert report.trials == 20

    def test_report_carries_the_failure(self):
        report = check_functoriality(parse_expr("E"), labels=[1, 2], trials=3)
        assert report.passed and report.failure is None


class TestGuards:
    def test_budget_is_checked_before_generation(self):
        with pytest.raises(BudgetExceeded):
            enum("Gro", [1, 2, 3, 4], budget=100)

    def test_unproductive_recursion_is_caught(self):
        # series validation would flag F = F first; drive the generator
        # directly to show the guard also stops it
        env = parse_defs("G = X\n").merged(parse_defs("F = Ep(F)\n"))
        with pytest.raises(RecursionGuard):
            _structures(parse_expr("F"), env, (1, 2), set())

    def test_bad_labels(self):
        with pytest.raises(ParseError):
            enum("E", ["a", "a"])
        with pytest.raises(ParseError):
            enum("E", ["a,b"])


class TestBijectionClass:
    def test_must_be_injective(self):
        with pytest.raises(NotABijection):
            Bijection({1: "a", 2: "a"})

    def test_stars_are_not_transportable(self):
        with pytest.raises(NotABijection):
            Bijection({STAR: 1})

    def test_compose_and_invert(self):
        f = Bijection({1: "a", 2: "b"})
        g = Bijection({"a": "x", "b": "y"})
        assert f.then(g) == Bijection({1: "x", 2: "y"})
        assert f.then(f.inverse()) == Bijection.identity([1, 2])

    def test_apply_outside_domain(self):
        with pytest.raises(DomainMismatch):
            Bijection({1: "a"}).apply(2)


class TestJson:
    @pytest.mark.parametrize(
        "text,labels",
        [
            ("E", []),
            ("S", [1, 2, 3]),
            ("E(C)", [1, 2, 3]),
            ("Gra", [1, 2, 3]),
            ("Gro", [1, 2]),
            ("C'", [1, 2]),
            ("pt(L)", [1, 2]),
            ("Part", ["a", "b"]),
            ("P", [1, "b"]),
            ("X*E", [1, 2]),
            ("X + E", [1]),
        ],
    )
    def test_encode_decode_round_trip(self, text, labels):
        for s in enum(text, labels):
            assert decode_structure(json.loads(s.encode())) == s

    def test_star_is_ascii_escaped(self):
        [s] = enum("E'", [])
        assert "\\u2605" in s.encode()
        assert decode_structure(json.loads(s.encode())) == s

    def test_named_round_trip(self):
        env = parse_defs("A = X*E(A)\n")
        for s in enumerate_structures(parse_expr("A"), env, [1, 2, 3]):
            assert decode_structure(json.loads(s.encode())) == s

    def test_malformed_objects(self):
        with pytest.raises(ParseError):
            decode_structure({"kind": "unheard-of"})
        with pytest.raises(ParseError):
            decode_structure({"kind": "cycle"})
        with pytest.raises(ParseError):
            decode_structure({"kind": "graph", "vertices": ["1"],
                              "edges": [["1", "1"]]})

    def test_integer_labels_may_be_bare_json_ints(self):
        assert decode_structure(
            {"kind": "subset", "members": [1, 3], "rest": [2]}
        ) == SubsetTerm([1, 3], [2])


class TestDerivativeStructures:
    def test_derivative_counts_shift(self):
        # structures of L' on n labels = lists with a slot: (n+1)!/1
        assert len(enum("L'", [1, 2])) == 6

    def test_nested_stars_stay_distinct(self):
        for s in enum("L''", [1]):
            stars = {l for l in s.inner.inner.labels()
                     if isinstance(l, str) and set(l) == {STAR}}
            assert stars == {STAR, STAR + STAR}
        assert len(enum("L''", [1])) == 6

    def test_derivative_label_set_excludes_star(self):
        [s] = enum("E'", ["q"])
        assert isinstance(s, DerivTerm)
        assert s.labels() == {"q"}


# Digests of `enumerate EXPR LABELS [--json]` stdout, pinned from the
# per-subset enumerator before it was memoised: any change to output bytes,
# order or the count line shows here.  Integer labels start at 8 so that
# string order ("10" < "8") and numeric order differ.
_DIGEST_DEFS = "A = X*E(A)\nB = 1 + X*B^2\n"
_INT_LABELS = ["8", "9", "10", "11", "12"]
_STR_LABELS = ["q", "ab", "b", "zz", "c"]
_DIGESTS = {
    ("B", 4, "int", True): "9b19e7171e7f0efeeb3f1f975614350eb2e26fa381308f557757aa5e225a07c3",
    ("B", 4, "int", False): "124f1499037f2f7c00910d3b71249c5ecb308951ba09db9cbcda33af74d5980e",
    ("B", 4, "str", True): "8630b6289cb6e67a55815a41eb359099d91a3eef5a52c4e1e185121734a40f4a",
    ("B", 4, "str", False): "a1e86ea49b7d1fc1fa1cf1c9924c39a8ac612ba29f87a06e1d9e78207e2b4b1a",
    ("A", 4, "int", True): "a698a30c14aaaa76a18b4e115ca66a4b7e53fdd67f4f4abb8f75841a46eb4dfe",
    ("A", 4, "int", False): "85d8c1b6c8745443ce3ae63f47e9390c39ebc0fb25461a56807458ce89540d33",
    ("A", 4, "str", True): "88a81fd21d7df1ed5d75690d759338ae8e337569f5ca9485117085c9aac4a4c5",
    ("A", 4, "str", False): "ac957a93082e8a2085f805473bdcd1347df1c927e762ec57f8ce0603a5c2317f",
    ("pt(A)", 3, "int", True): "00ce801f2642fc0194b3bd0d87d447f8f8598a9ec18bef5b0e6e715df6b56071",
    ("pt(A)", 3, "int", False): "2d44410ff57deed8b07b12325655ad8b2d015444a2afee38aa3eb1a65f6604d7",
    ("pt(A)", 3, "str", True): "65bbfeaad16145d990eaf385b35a260664275718995ab30bd987e0183e602c0d",
    ("pt(A)", 3, "str", False): "983b3c8a153365336874b7645f261c7af9fd103b74f9db673ec8b02177ff59fb",
    ("C'", 5, "int", True): "80c5f71918fa92fed120ea5a0783032ec31033b111cdb2b719af113dc1f719a1",
    ("C'", 5, "int", False): "3a693b487b8b96955f56aaeb0da94f12d944a07c650b8f98812f447e1047289a",
    ("C'", 5, "str", True): "ecdd6759d5db70f6cf50a3719472c179791ec4118db663835473a4c40abcbb9a",
    ("C'", 5, "str", False): "d32139de72a02a155fedf2a3ef1aa2a8bd08243e72e4cb264fa8af351351e800",
    ("E''", 3, "int", True): "f7dfa9e5f39bd2b3aeaf16b519942b6964fa2a02c96d19f8fd19c4f32b24dc0d",
    ("E''", 3, "int", False): "70534720cb206d600be0afdef1093c35ff2cde8de6bd365ab0ae61f5786ffb5e",
    ("E''", 3, "str", True): "8a5223ce923c2cdf2b12e15fd811bf96fba4728829abec362f1beffbfad5a083",
    ("E''", 3, "str", False): "5724f3c2470a3a41a8173f3abdcf025671c1854e721d734634e9567b44d090bf",
    ("C(X+X^2)", 4, "int", True): "61b0375167a288011e36d7bc8968556b699fe0313399c695e5abe2ae1f3e35a1",
    ("C(X+X^2)", 4, "int", False): "d8bd5be62a6d103098fd9a84e869d046ec593be05f811b2a98821553d9f74238",
    ("C(X+X^2)", 4, "str", True): "a463f1dae7830a0df57e92d4d271a6ab471a384e6abc9b428cd0bf8a0e13c8bf",
    ("C(X+X^2)", 4, "str", False): "359ba101222b1a8e1882f22b9dbc73c53158335e6ed57958a9e95d526daea0e3",
    ("E(C)+L'*X", 4, "int", True): "96e2c22270a324403746b51aca975bcf084b7fa141862da94f4fc21cdf24ec18",
    ("E(C)+L'*X", 4, "int", False): "60ee4d77a5de0cf06b292c5d3e157d8799e93b943bcc69a14d04fba5599f8a06",
    ("E(C)+L'*X", 4, "str", True): "a6d5a4c1d0e78ada457e4efa313f01ae32bf25a97a18b1847e4c706978a49161",
    ("E(C)+L'*X", 4, "str", False): "395da3f4edd9a615e2e36538141e73b2a82ef3c925fcab6f04faeec0a434a44a",
    ("P*Ek[2]", 4, "int", True): "9e6712083e039cb4dbafefd2d989115c58cec4d9165289c80fa3f3b58f913d00",
    ("P*Ek[2]", 4, "int", False): "502c93a1cec90e35b2ce625fcb4821a17b141c08114975da87811b853ed254ea",
    ("P*Ek[2]", 4, "str", True): "c63cdf2c95603308bf02b2d8d206f15df9ffec5d8c8f48ae892fb68de4c5ca68",
    ("P*Ek[2]", 4, "str", False): "78f14b920b663aa9f2c188f542e1b3d3e832938f433d946b81c663e2cdb3564a",
}


class TestOutputBytes:
    @pytest.mark.parametrize("key", sorted(_DIGESTS), ids=str)
    def test_enumerate_stdout_digest(self, key, tmp_path, capsys):
        text, n, kind, as_json = key
        defs = tmp_path / "defs.species"
        defs.write_text(_DIGEST_DEFS, encoding="utf-8")
        pool = _INT_LABELS if kind == "int" else _STR_LABELS
        argv = ["enumerate", text, ",".join(pool[:n]), "--defs", str(defs)]
        code = cli.main(argv + (["--json"] if as_json else []))
        out = capsys.readouterr().out.encode("utf-8")
        assert code == 0
        assert hashlib.sha256(out).hexdigest() == _DIGESTS[key]


class TestSharing:
    def test_each_subexpression_is_enumerated_once_per_label_set(
        self, monkeypatch
    ):
        calls = []
        primitive = enumerator._primitive_structures

        def counted(expr, labels):
            calls.append((id(expr), labels))
            return primitive(expr, labels)

        monkeypatch.setattr(enumerator, "_primitive_structures", counted)
        env = parse_defs("B = 1 + X*B^2\n")
        got = enumerate_structures(parse_expr("B"), env, [1, 2, 3, 4, 5])
        assert len(got) == factorial(5) * comb(10, 5) // 6
        # The definition holds two primitive nodes, 1 and X; each is asked
        # for its structures at most once per subset of the five labels.
        assert len(set(calls)) == len(calls)
        assert len(calls) <= 2 * 2**5

    def test_every_node_visit_goes_through_the_module_entry(
        self, monkeypatch
    ):
        # Wrapping _structures(expr, env, labels, active) must see every
        # node the walk visits, as a tracer that counts node kinds does.
        visits = []
        walk = enumerator._structures

        def wrapped(expr, env, labels, active):
            visits.append(type(expr).__name__)
            return walk(expr, env, labels, active)

        monkeypatch.setattr(enumerator, "_structures", wrapped)
        expr = parse_expr("E(C) + L'*X")
        got = enumerate_structures(expr, None, [1, 2, 3])
        assert len(got) == egf_of(expr, order=3).count(3)
        assert {"Sum", "Substitute", "Product", "Derivative", "Primitive"} \
            <= set(visits)

    @pytest.mark.parametrize("text", ["Gro*0", "0*Gro", "Gro*Ek[5]"])
    def test_product_skips_a_split_with_an_empty_factor(
        self, text, monkeypatch
    ):
        kinds = []
        primitive = enumerator._primitive_structures

        def counted(expr, labels):
            kinds.append(expr.kind)
            return primitive(expr, labels)

        monkeypatch.setattr(enumerator, "_primitive_structures", counted)
        assert enum(text, [1, 2, 3, 4]) == []
        assert PrimitiveKind.DIGRAPH not in kinds

    def test_product_of_nonempty_factors_keeps_its_count(self):
        expr = parse_expr("Gro*E")
        got = enumerate_structures(expr, None, [1, 2, 3])
        assert len(got) == egf_of(expr, order=3).count(3) == 1 + 3 * 2 + 3 * 16 + 512

    def test_substitution_terms_share_their_blocks(self):
        """One block per member set in a listing, however many terms and
        memo entries use it."""
        listing = enum("E(C)", [1, 2, 3, 4, 5])
        assert len(listing) == factorial(5)
        assert len({id(b) for t in listing for b, _ in t.assign}) <= 2**5 - 1

    def test_cached_json_stays_intact(self):
        env = parse_defs("A = X*E(A)\n")
        for s in enumerate_structures(parse_expr("A"), env, [1, 2, 3, 4]):
            first = s.to_json()
            second = s.to_json()
            assert second is first
            assert decode_structure(second) == s
            assert decode_structure(json.loads(s.encode())) == s


# Integers, and strings with characters that JSON escapes (the quote, the
# backslash, e acute) or that sort next to the closing quote (! below it,
# ' between it and the comma), so that a sort key cut in the wrong place
# shows in the order.
_ORDER_LABELS = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=20),
        st.text(alphabet='ab!"\\\u00e9\'', min_size=1, max_size=3),
    ),
    max_size=4,
    unique=True,
)


def _joined(term):
    """A term's sort parts with every child key joined back into text."""
    return "".join(term._sort_parts(_joined))


def _assert_in_encode_order(got):
    assert got == sorted(got, key=lambda s: s.encode())
    for s in got:
        assert _joined(s) == s.encode()


class TestEncodeOrder:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(grammar_exprs(include_names=False, max_leaves=4), _ORDER_LABELS)
    def test_listing_is_in_encode_order(self, expr, labels):
        assume(validate(expr, order=len(labels)).ok)
        try:
            got = enumerate_structures(expr, None, labels, budget=2000)
        except BudgetExceeded:
            assume(False)
        _assert_in_encode_order(got)

    @pytest.mark.parametrize(
        "text,labels",
        [
            ("E + X*L", [1, 2]),
            ("E + X*L", ["a!", 'a"']),
            ("E(C)", []),
            ("E(C)", [1, "a", "a!", "\u00e9"]),
            ("pt(L)", [1, 10, 2]),
            ("pt(L)", ["a", "a!", "a'"]),
        ],
    )
    def test_mixed_children_and_empty_comp(self, text, labels):
        got = enum(text, labels)
        assert got
        _assert_in_encode_order(got)

    def test_named_listing_is_in_encode_order(self):
        env = parse_defs("A = X*E(A)\nB = 1 + X*B^2\n")
        for text in ("A", "B", "pt(A)"):
            _assert_in_encode_order(
                enumerate_structures(parse_expr(text), env, [8, 9, 10, 11])
            )

    def test_sorting_builds_no_json_tree(self, monkeypatch):
        calls = []
        to_json = _Composite.to_json

        def recorded(self):
            calls.append(type(self).__name__)
            return to_json(self)

        monkeypatch.setattr(_Composite, "to_json", recorded)
        env = parse_defs("B = 1 + X*B^2\n")
        got = enumerate_structures(parse_expr("B"), env, range(1, 6))
        assert len(got) == factorial(5) * comb(10, 5) // 6
        assert calls == []


def _finished_walk(expr, env, labels):
    """The walk of one listing after it returns, with its memo."""
    walk = enumerator._Walk()
    _structures(expr, env, enumerator._clean_labels(labels), walk)
    return walk


# Listings that merge both sides of a sum and compose on C, L and S outers,
# with labels whose encoded order differs from their label order.
_MERGE_CASES = [
    ("E + X*L", [1, "a!", 'a"']),
    ("C(Lp) + L(X + Ep)", [10, 2, "a", "\u00e9"]),
    ("S(X + Ek[2]) * pt(E)", [1, 10, "a'", "a"]),
]


def _merge_examples(test):
    for text, labels in _MERGE_CASES:
        test = example(parse_expr(text), labels)(test)
    return test


class TestOrderByConstruction:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(grammar_exprs(include_names=False, max_leaves=4), _ORDER_LABELS)
    @_merge_examples
    def test_every_memo_list_is_in_encode_order(self, expr, labels):
        n = len(labels)
        assume(validate(expr, order=n).ok)
        assume(egf_of(expr, order=n).count(n) <= 2000)
        for found in _finished_walk(expr, None, labels).memo.values():
            assert found == sorted(found, key=lambda s: s.encode())

    def test_the_examples_merge_sums_and_compose_on_c_l_s(self):
        merged, outers = 0, set()
        for text, labels in _MERGE_CASES:
            walk = _finished_walk(parse_expr(text), None, labels)
            for found in walk.memo.values():
                if found and isinstance(found[0], SumTerm):
                    merged += {t.side for t in found} == {"left", "right"}
                if len(found) > 1 and isinstance(found[0], CompTerm):
                    outers.add(type(found[0].outer))
        assert merged
        assert {CycleTerm, ListTerm, MapTerm} <= outers

    def test_outer_with_empty_block_counts(self):
        env = parse_defs("Pair = Ek[2]\n")
        expr = parse_expr("Pair(Lp)")
        labels = [1, 10, 2, "a", "a!"]
        walk = _finished_walk(expr, env, labels)
        for found in walk.memo.values():
            assert found == sorted(found, key=lambda s: s.encode())
        got = enumerate_structures(expr, env, labels)
        assert len(got) == egf_of(expr, env, order=5).count(5) == 240
        assert all(len(s.assign) == 2 for s in got)

    def test_top_level_results_are_never_cut_up(self, monkeypatch):
        cut = []
        for cls in (Structure, SumTerm, ProdTerm, CompTerm, DerivTerm,
                    PointTerm, NamedTerm):
            def recorded(self, key, original=cls.__dict__["_sort_parts"]):
                cut.append(self)
                return original(self, key)

            monkeypatch.setattr(cls, "_sort_parts", recorded)
        env = parse_defs("B = 1 + X*B^2\n")
        got = enumerate_structures(parse_expr("B"), env, range(1, 6))
        assert len(got) == factorial(5) * comb(10, 5) // 6
        cut_ids = {id(t) for t in cut}
        assert len(cut_ids) == len(cut)  # each term at most once per walk
        assert not cut_ids & {id(t) for t in got}

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=20),
                st.text(alphabet='ab!"\\\u00e9\'', min_size=1, max_size=3),
            ),
            max_size=7,
            unique=True,
        )
    )
    def test_involutions_equal_the_filtered_permutations(self, labels):
        labs = enumerator._clean_labels(labels)
        want = []
        for image in itertools.permutations(labs):
            f = dict(zip(labs, image))
            if all(f[f[a]] == a for a in labs):
                want.append(MapTerm(f.items()))
        want.sort(key=lambda s: s.encode())
        assert enum("Inv", labels) == want


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _dumped(structures):
    """The listing as json.dumps writes it, from to_json() trees."""
    return json.dumps([s.to_json() for s in structures]) + "\n"


# `enumerate B LABELS --defs <_DIGEST_DEFS> --json` stdout, pinned from the
# json.dumps listing.
_B5_DIGESTS = {
    "int": "0be4ce3f5faa075de532bc333a24e1621f5aef9c71315eabe53c28f4877565d6",
    "str": "414299bf505eefe4dbcd4f83856ef09669273ef4ccef73a67965f341af1eecf8",
}


class TestJsonListing:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(grammar_exprs(include_names=False, max_leaves=4), _ORDER_LABELS)
    def test_bytes_equal_json_dumps(self, expr, labels):
        arg = ",".join(str(l) for l in labels)
        code, out = _cli_stdout(
            ["enumerate", print_expr(expr), arg, "--json", "--budget", "2000"]
        )
        assume(code == 0)
        # A lone integer argument is a size, so list what the CLI parsed.
        got = enumerate_structures(expr, None, cli._parse_labels(arg))
        assert out == _dumped(got)

    @pytest.mark.parametrize("text", ["A", "B", "pt(A)"])
    def test_named_listing_bytes(self, text, tmp_path):
        defs = tmp_path / "defs.species"
        defs.write_text(_DIGEST_DEFS, encoding="utf-8")
        code, out = _cli_stdout(
            ["enumerate", text, "8,9,b,10", "--defs", str(defs), "--json"]
        )
        assert code == 0
        got = enumerate_structures(
            parse_expr(text), parse_defs(_DIGEST_DEFS), [8, 9, "b", 10]
        )
        assert out == _dumped(got)

    def test_empty_listing(self):
        assert _cli_stdout(["enumerate", "0", "2", "--json"]) == (0, "[]\n")

    @pytest.mark.parametrize("kind", sorted(_B5_DIGESTS))
    def test_each_subterm_is_written_at_most_twice(
        self, kind, tmp_path, monkeypatch
    ):
        built = Counter()
        for cls in (Structure, SumTerm, ProdTerm, CompTerm, DerivTerm,
                    PointTerm, NamedTerm):
            def counted(self, text, original=cls.__dict__["_text"]):
                built[id(self)] += 1
                return original(self, text)

            monkeypatch.setattr(cls, "_text", counted)
        trees = []
        to_json = _Composite.to_json

        def recorded(self):
            trees.append(type(self).__name__)
            return to_json(self)

        monkeypatch.setattr(_Composite, "to_json", recorded)
        defs = tmp_path / "defs.species"
        defs.write_text(_DIGEST_DEFS, encoding="utf-8")
        pool = _INT_LABELS if kind == "int" else _STR_LABELS
        code, out = _cli_stdout(
            ["enumerate", "B", ",".join(pool), "--defs", str(defs), "--json"]
        )
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == _B5_DIGESTS[kind]
        # Every listed tree is written, and shared subtrees are written
        # twice before their text is reused.
        assert sum(built.values()) > factorial(5) * comb(10, 5) // 6
        assert max(built.values()) == 2
        assert trees == []


# Digests of `enumerate EXPR LABELS [--json]` stdout for the primitives
# listed by a walk over their edge, arc or member lists, pinned from the
# listing that sorted them by encode().
_SUBLIST_DIGESTS = {
    ("Gra", 4, "int", True): "b5882d1f5e9fba5cd215f372b33d2de09d13adc889af12365314b727f09f574f",
    ("Gra", 4, "int", False): "d2a8faa779b98284a39b1dca02a2c78832ed6eb6c522836fd7578336b36f9d0d",
    ("Gra", 4, "str", True): "4e0e89535f0bd2f91499d8d2d32c49805af37e9bc2431f6bbd97e3a3f914ea43",
    ("Gra", 4, "str", False): "1fe26f4731c176417d2a50dac5ff310fd78b2a2460596ef1dcc8a648792beac6",
    ("Gro", 3, "int", True): "c439b564078fa0fb289bfe99c130ac91544ef176893b4dcb0f5c54c6c3b71611",
    ("Gro", 3, "int", False): "c64d22f84829ad690e4cd540856aeb68ba6851ae5ae1fd39635d6fa223336e1a",
    ("Gro", 3, "str", True): "6814eef8010dd1c1648c999ca435ec7d3313dcc0a2d210480b5796a1e1a69f89",
    ("Gro", 3, "str", False): "71101e95a1dd5598435efa1d6884a00e7a3100c865ab5e896f13c26cf081079f",
    ("P", 5, "int", True): "5069afc2884384577c2227da0dc37fa4ebac304f714ff9c43e2c6c828a768bb0",
    ("P", 5, "int", False): "de729229c6d1f358f66ed0c2d734c4b83644c6c5e5bab4c6d4cb767defceb2e5",
    ("P", 5, "str", True): "e76542a7df11a467392cab46b4c663b8116aa0ffbaa61dfa08994051bf48c7ad",
    ("P", 5, "str", False): "8f6eb127c010c8624ab68b2684eefe6342f87553ffa5d2af9af5b759f5b08d8b",
    ("Pk[2]", 5, "int", True): "a513ee7bc00497726d31a0fb52ab2aed4a30bd1f55b6ac0974a83f4e51a971ca",
    ("Pk[2]", 5, "int", False): "b2352a7c0dd819a1cc26604bb772dd809b5f23788d872aa5a6082fffdd39ab72",
    ("Pk[2]", 5, "str", True): "a9c5b56480af9e0b551998a381e15c561765d3ddedeb532bc0fc890c054d4566",
    ("Pk[2]", 5, "str", False): "dfe058d9ad39913f713853579d5a91b087c9b1f0e58215539e970df46d252efe",
}


class TestSublistPrimitives:
    @pytest.mark.parametrize("key", sorted(_SUBLIST_DIGESTS), ids=str)
    def test_enumerate_stdout_digest(self, key):
        text, n, kind, as_json = key
        pool = _INT_LABELS if kind == "int" else _STR_LABELS
        argv = ["enumerate", text, ",".join(pool[:n])]
        code, out = _cli_stdout(argv + (["--json"] if as_json else []))
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == _SUBLIST_DIGESTS[key]

    @pytest.mark.parametrize(
        "text,labels",
        [
            ("Gra", [1, 2, 10, "a"]),
            ("Gra", [2, 10, "a!", 'a"', "\u00e9"]),
            ("Gro", [1, 10, "a'"]),
            ("Gro", [10, "a", "a!"]),
            ("P", [1, 2, 10, 11, "a", "a!", 'a"', "b"]),
            ("Pk[2]", [1, 2, 10, "a", "a!", "\u00e9"]),
            ("Pk[3]", [3, 10, 20, "a", "a'", "a!", "b"]),
        ],
    )
    def test_listing_equals_the_sorted_listing(self, text, labels):
        labs = enumerator._clean_labels(labels)
        if text == "Gra":
            pairs = list(itertools.combinations(labs, 2))
            want = [GraphTerm(labs, c) for c in _all_sublists(pairs)]
        elif text == "Gro":
            pairs = list(itertools.product(labs, repeat=2))
            want = [DigraphTerm(labs, c) for c in _all_sublists(pairs)]
        else:
            size = {"P": None, "Pk[2]": 2, "Pk[3]": 3}[text]
            want = [
                SubsetTerm(c, set(labs) - set(c))
                for c in _all_sublists(labs)
                if size is None or len(c) == size
            ]
        want.sort(key=lambda s: s.encode())
        assert enum(text, labels) == want

    @pytest.mark.parametrize("text", ["Gra", "Gro", "P", "Pk[2]"])
    def test_listing_calls_no_encode(self, text, monkeypatch):
        calls = []
        encode = Structure.encode

        def recorded(self):
            calls.append(self)
            return encode(self)

        monkeypatch.setattr(Structure, "encode", recorded)
        got = enum(text, [1, 10, "a"])
        assert len(got) == {"Gra": 8, "Gro": 512, "P": 8, "Pk[2]": 3}[text]
        assert calls == []

    def test_small_and_empty_cases(self):
        assert enum("Pk[0]", [1, 2, 3]) == [SubsetTerm((), (1, 2, 3))]
        assert enum("Pk[4]", [1, 2, 3]) == []
        assert enum("Pk[3]", [1, 2, 3]) == [SubsetTerm((1, 2, 3), ())]
        assert enum("P", []) == [SubsetTerm((), ())]
        assert enum("Gra", []) == [GraphTerm((), ())]
        assert enum("Gra", ["a"]) == [GraphTerm(["a"], ())]
        assert enum("Gro", []) == [DigraphTerm((), ())]
        assert enum("Gro", [7]) == [
            DigraphTerm([7], [(7, 7)]),
            DigraphTerm([7], ()),
        ]

    def test_digraphs_on_four_labels_are_built_once_each(self, monkeypatch):
        built = []
        init = DigraphTerm.__init__

        def counted(self, vertices, arcs):
            built.append(1)
            init(self, vertices, arcs)

        monkeypatch.setattr(DigraphTerm, "__init__", counted)
        got = enum("Gro", [1, 2, 3, 4])
        assert len(got) == len(built) == 2**16

    def test_graphs_share_their_pairs(self):
        """Every term holds the generator's own pair objects, one per
        possible arc or edge, which keeps a large listing's memory down."""
        listing = enum("Gro", [1, 2, 3, 4])
        assert len({id(p) for t in listing for p in t.arcs}) <= 16
        listing = enum("Gra", [1, 2, 3, 4, 5])
        assert len({id(p) for t in listing for p in t.edges}) <= 10


class TestCollectorPause:
    """enumerate_structures walks with the cyclic garbage collector off and
    leaves it as it found it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        collecting = gc.isenabled()
        yield
        if collecting:
            gc.enable()
        else:
            gc.disable()

    @pytest.fixture
    def seen(self, monkeypatch):
        """gc.isenabled() at each outermost walk."""
        seen = []
        walk = enumerator._structures

        def recorded(expr, env, labels, active):
            seen.append(gc.isenabled())
            return walk(expr, env, labels, active)

        monkeypatch.setattr(enumerator, "_structures", recorded)
        return seen

    def test_on_at_entry_is_on_after(self, seen):
        gc.enable()
        assert len(enum("Gra", [1, 2, 3])) == 8
        assert seen == [False]
        assert gc.isenabled()

    def test_off_at_entry_stays_off(self, seen):
        gc.disable()
        assert len(enum("Gra", [1, 2, 3])) == 8
        assert seen == [False]
        assert not gc.isenabled()

    def test_a_walk_that_raises_turns_it_back_on(self, monkeypatch):
        def failing(expr, env, labels, active):
            assert not gc.isenabled()
            raise RecursionGuard("failed walk")

        monkeypatch.setattr(enumerator, "_structures", failing)
        gc.enable()
        with pytest.raises(RecursionGuard, match="failed walk"):
            enum("Gra", [1, 2, 3])
        assert gc.isenabled()


def _all_sublists(items):
    return [
        chosen
        for k in range(len(items) + 1)
        for chosen in itertools.combinations(items, k)
    ]
