"""Exhaustive listing of structures, transport, and permutation views."""

import contextlib
import gc
import hashlib
import io
import itertools
import json
import sys
import threading
import tracemalloc
from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from species import cli, enumerator, primitives, semantics, structures
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
    IllFoundedEquation,
    NotABijection,
    ParseError,
)
from species.expr import (
    Environment,
    Name,
    Pointing,
    Primitive,
    PrimitiveKind,
    Product,
    RestrictCard,
    Sum,
    print_expr,
)
from species.parser import parse_defs, parse_expr
from species.semantics import egf_of, validate
from species.structures import (
    STAR,
    Bijection,
    Block,
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

    @staticmethod
    def _relabelled_permutations():
        """(p, σ) for every permutation p on n <= 4 labels and every
        bijection σ from its labels onto b1 .. bn: 618 pairs."""
        for n in range(5):
            labels = range(1, n + 1)
            targets = [f"b{k}" for k in labels]
            for p in enum("S", labels):
                for image in itertools.permutations(targets):
                    yield p, Bijection(dict(zip(labels, image)))

    def test_the_views_commute_with_transport(self):
        # The naturality squares of S = E*Der and S = E(C): transporting a
        # permutation, then viewing it, is viewing it, then transporting
        # each part along σ restricted to the part's labels.
        s, e, der, e_c = map(parse_expr, ("S", "E", "Der", "E(C)"))

        def along(sigma, part):
            return Bijection({a: sigma.apply(a) for a in part.labels()})

        squares = 0
        for p, sigma in self._relabelled_permutations():
            moved = transport(s, None, p, sigma)
            fixed, deranged = decompose_permutation(p)
            assert decompose_permutation(moved) == (
                transport(e, None, fixed, along(sigma, fixed)),
                transport(der, None, deranged, along(sigma, deranged)),
            )
            assert permutation_to_cycles(moved) == transport(
                e_c, None, permutation_to_cycles(p), sigma
            )
            squares += 1
        assert squares == 618

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

    def test_unproductive_recursion_is_caught(self, monkeypatch):
        # The series count refuses F = Ep(F) before the walk visits a node.
        def never(expr, env, labels, active):
            raise AssertionError("the walk visited a node")

        monkeypatch.setattr(enumerator, "_structures", never)
        env = parse_defs("G = X\n").merged(parse_defs("F = Ep(F)\n"))
        for labels in ([], [1], [1, 2]):
            with pytest.raises(IllFoundedEquation):
                enumerate_structures(parse_expr("F"), env, labels)

    @pytest.mark.parametrize("first, inner, want", [
        (PrimitiveKind.SINGLETON, Pointing(Name("F")), [0, 1, 0, 0]),
        (PrimitiveKind.SINGLETON, Name("F"), None),
        (PrimitiveKind.SINGLETON,
         Product(Primitive(PrimitiveKind.SET), Name("F")), None),
        (PrimitiveKind.ONE, Pointing(Name("F")), [1, 0, 0, 0]),
    ])
    def test_a_name_met_again_on_no_labels_ends(self, first, inner, want):
        # F = first + (inner restricted to no labels): the walk meets F
        # again on no labels, where it lists nothing if F has no structures
        # there, and a pointing has no point to choose.  Where F's count on
        # no labels reads itself, F = F there, the system does not
        # determine F (want None), and neither series nor listing is made.
        env = Environment({"F": Sum(Primitive(first),
                                    RestrictCard(inner, "==", 0))})
        if want is None:
            with pytest.raises(IllFoundedEquation, match="size 0"):
                egf_of(Name("F"), env, order=3)
            with pytest.raises(IllFoundedEquation):
                enumerate_structures(Name("F"), env, [1, 2])
            return
        assert egf_of(Name("F"), env, order=3).counts() == want
        for n in range(4):
            got = enumerate_structures(Name("F"), env, list(range(1, n + 1)))
            assert len(got) == want[n]

    def test_a_block_on_every_label_is_walked_only_when_it_is_used(self):
        # Binary trees F = X + E2(F): the one block holding every label has
        # no E2-structure, so F is not listed on all the labels again.
        env = parse_defs("F = X + G(F)\nG = Ek[2]\n")
        for n, want in enumerate([0, 1, 1, 3, 15]):
            got = enumerate_structures(parse_expr("F"), env,
                                       list(range(1, n + 1)))
            assert len(got) == want

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
        for kind, (series, listing) in list(primitives.ROWS.items()):
            def counted(labels, param, kind=kind, listing=listing):
                calls.append((kind, labels))
                return listing(labels, param)

            monkeypatch.setitem(primitives.ROWS, kind, (series, counted))
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
        for kind, (series, listing) in list(primitives.ROWS.items()):
            def counted(labels, param, kind=kind, listing=listing):
                kinds.append(kind)
                return listing(labels, param)

            monkeypatch.setitem(primitives.ROWS, kind, (series, counted))
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
            code = s.encode()
            first = s.to_json()
            second = s.to_json()
            assert second == first and second is not first
            assert second["inner"] is not first["inner"]
            first["inner"]["kind"] = "mutated"
            first["kind"] = "mutated"
            assert s.to_json() == second
            assert s.encode() == code
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
        to_json = Structure.to_json

        def recorded(self):
            calls.append(type(self).__name__)
            return to_json(self)

        monkeypatch.setattr(Structure, "to_json", recorded)
        env = parse_defs("B = 1 + X*B^2\n")
        got = enumerate_structures(parse_expr("B"), env, range(1, 6))
        assert len(got) == factorial(5) * comb(10, 5) // 6
        assert calls == []


def _finished_walk(expr, env, labels):
    """The walk of one listing after it returns, with its memo."""
    walk = enumerator._Walk(env=env)
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


class _Digest:
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self._sha = hashlib.sha256()

    def write(self, text):
        self._sha.update(text.encode("utf-8"))
        return len(text)

    def flush(self):
        pass

    def hexdigest(self):
        return self._sha.hexdigest()


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
    def test_each_subterm_is_written_once(self, kind, tmp_path, monkeypatch):
        built = Counter()
        for cls in (Structure, SumTerm, ProdTerm, CompTerm, DerivTerm,
                    PointTerm, NamedTerm):
            def counted(self, text, original=cls.__dict__["_text"]):
                built[id(self)] += 1
                return original(self, text)

            monkeypatch.setattr(cls, "_text", counted)
        trees = []
        to_json = Structure.to_json

        def recorded(self):
            trees.append(type(self).__name__)
            return to_json(self)

        monkeypatch.setattr(Structure, "to_json", recorded)
        defs = tmp_path / "defs.species"
        defs.write_text(_DIGEST_DEFS, encoding="utf-8")
        pool = _INT_LABELS if kind == "int" else _STR_LABELS
        code, out = _cli_stdout(
            ["enumerate", "B", ",".join(pool), "--defs", str(defs), "--json"]
        )
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == _B5_DIGESTS[kind]
        # Every listed tree is written, and each subtree exactly once: the
        # text of one held in two or more places is kept from its first
        # write.
        assert sum(built.values()) > factorial(5) * comb(10, 5) // 6
        assert max(built.values()) == 1
        assert trees == []

    def test_the_writer_keeps_only_shared_texts(self):
        """With the walk's shared terms the writer's memory is the kept texts
        of the shared subterms; without them it keeps nothing.  A memo
        entry per unshared subterm (24 000 of them here) would add more
        than a megabyte."""
        env = parse_defs(_DIGEST_DEFS)
        with enumerator._Walk(env=env) as walk:
            got = enumerate_structures(parse_expr("B"), env, range(1, 6),
                                       walk=walk)
            shared = walk.shared()
            terms = {id(t): t for found in walk.memo.values() for t in found}
            walk.release()
            assert len(terms) - len(shared) > 24_000

            texts = sum(sys.getsizeof(t._text({})) for t in shared)
            memo = sys.getsizeof(dict.fromkeys(shared))
            terms = None
            want = hashlib.sha256(_dumped(got).encode("utf-8")).hexdigest()
            for given, bound in ((frozenset(), 64_000),
                                 (shared, texts + memo + 256_000)):
                sink = _Digest()
                tracemalloc.start()
                try:
                    with contextlib.redirect_stdout(sink):
                        cli._write_json_listing(got, given)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert sink.hexdigest() == want
                assert peak < bound

    @pytest.mark.parametrize("text, n, bound_mb", [
        ("B", 5, 8.0), ("pt(A)", 5, 2.5),
    ])
    def test_peak_memory_of_one_json_listing(self, text, n, bound_mb,
                                             tmp_path):
        """The traced peak of one `enumerate --json` call, walk and writer,
        to a stdout that keeps no copy of what is written."""
        defs = tmp_path / "defs.species"
        defs.write_text(_DIGEST_DEFS, encoding="utf-8")
        sink = _Digest()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(["enumerate", text, str(n), "--defs",
                                 str(defs), "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        got = enumerate_structures(parse_expr(text), parse_defs(_DIGEST_DEFS),
                                   range(1, n + 1))
        assert sink.hexdigest() == hashlib.sha256(
            _dumped(got).encode("utf-8")).hexdigest()
        assert peak < bound_mb * 1e6


    def test_the_writer_leaves_no_reference_cycle(self):
        """The --json writer's memo is freed when the writer returns, so a
        collection right after it, with the collector paused, finds
        nothing."""
        got = enumerate_structures(
            parse_expr("B"), parse_defs(_DIGEST_DEFS), [1, 2, 3, 4, 5]
        )
        collecting = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                cli._write_json_listing(got)
            found = gc.collect()
        finally:
            if collecting:
                gc.enable()
        assert out.getvalue() == _dumped(got)
        assert found == 0

    @pytest.mark.parametrize("text", ["S", "Part", "Gra", "E(C)", "B"])
    def test_no_term_builds_its_json_tree(self, text, tmp_path, monkeypatch):
        """Every term class writes its --json text from its field table, so
        no listed term, primitive or composite, calls to_json()."""
        calls = []
        to_json = Structure.to_json

        def recorded(self):
            calls.append(type(self).__name__)
            return to_json(self)

        monkeypatch.setattr(Structure, "to_json", recorded)
        defs = tmp_path / "defs.species"
        defs.write_text(_DIGEST_DEFS, encoding="utf-8")
        code, out = _cli_stdout(
            ["enumerate", text, "4", "--defs", str(defs), "--json"]
        )
        assert code == 0
        assert calls == []
        got = enumerate_structures(
            parse_expr(text), parse_defs(_DIGEST_DEFS), [1, 2, 3, 4]
        )
        assert calls == []
        assert out == _dumped(got)
        assert calls


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
        """The builder makes every listed digraph exactly once, 2^16
        distinct terms, with no constructor run."""
        made = []
        listed = DigraphTerm.listed.__func__

        def counted(cls, vertices, arcs):
            found = listed(cls, vertices, arcs)
            made.extend(found)
            return found

        def refused(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(DigraphTerm, "listed", classmethod(counted))
        monkeypatch.setattr(DigraphTerm, "__init__", refused)
        got = enum("Gro", [1, 2, 3, 4])
        assert len(got) == len(made) == 2**16
        assert len({id(t) for t in made}) == 2**16
        assert {id(t) for t in got} == {id(t) for t in made}
        assert len(set(got)) == 2**16

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
            raise IllFoundedEquation("failed walk")

        monkeypatch.setattr(enumerator, "_structures", failing)
        gc.enable()
        with pytest.raises(IllFoundedEquation, match="failed walk"):
            enum("Gra", [1, 2, 3])
        assert gc.isenabled()

    @pytest.mark.parametrize("collecting", [True, False])
    def test_a_walk_block_that_raises_empties_the_tables(self, collecting):
        """Leaving an open walk by an exception drops its memo, empties
        the label tables and leaves the collector as it was."""
        (gc.enable if collecting else gc.disable)()
        env = parse_defs("A = X*E(A)\n")
        with pytest.raises(ValueError, match="mid-walk"):
            with enumerator._Walk(env=env) as walk:
                got = enumerate_structures(parse_expr("E(C) + A"), env,
                                           [1, 2, "a"], walk=walk)
                assert got and walk.memo
                assert structures._CODES and structures._SETS
                assert not gc.isenabled()
                raise ValueError("mid-walk")
        assert not walk.memo
        assert not structures._CODES and not structures._SETS
        assert gc.isenabled() == collecting

    def test_closing_an_inner_walk_keeps_the_outer_tables(self):
        gc.enable()
        with enumerator._Walk() as outer:
            assert enumerate_structures(parse_expr("E(C)"), None, [1, 2, 3],
                                        walk=outer)
            codes, sets = dict(structures._CODES), dict(structures._SETS)
            assert codes and sets
            # A call with no walk opens and closes a fresh one.
            assert enumerate_structures(parse_expr("L"), None, [4, 5])
            assert codes.items() <= structures._CODES.items()
            assert all(structures._SETS[s] is s for s in sets)
            assert outer.memo
            assert not gc.isenabled()
        assert not structures._CODES and not structures._SETS
        assert gc.isenabled()

    def test_walks_in_several_threads_close_the_tables(self):
        """Walks that open and close in several threads at once list as
        one walk alone does, and leave the tables empty and the collector
        on."""
        expr = parse_expr("E(C) + Part")
        want = _encodings(enumerate_structures(expr, None, [1, 2, "a"]))
        got = []

        def lists():
            for _ in range(10):
                got.append(_encodings(
                    enumerate_structures(expr, None, [1, 2, "a"])
                ))

        gc.enable()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lists) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 40
        assert not structures._CODES and not structures._SETS
        assert gc.isenabled()

    def test_the_walk_leaves_no_reference_cycles(self):
        """Nothing a walk makes needs the collector: with it off, a
        collection after each listing finds no garbage."""
        env = parse_defs("A = X*E(A)\n")
        for text in ("A", "E(C)", "Inv", "Gra", "P"):
            expr = parse_expr(text)
            gc.collect()
            gc.disable()
            got = enumerate_structures(expr, env, [1, 2, 3, 4])
            assert got
            assert gc.collect() == 0, text


def _all_sublists(items):
    return [
        chosen
        for k in range(len(items) + 1)
        for chosen in itertools.combinations(items, k)
    ]


# -- bulk listings from parts checked once, against public constructors ----

# Integers whose codes sort apart from their values ("10" < "100" < "9"),
# strings, and strings that sit next to the quote in code order.
_EXTENSION_LABELS = st.sampled_from(
    [1, 2, 9, 10, 100, "a", "b", "a!", 'a"', "é"]
)


def _publicly_built(term):
    """term rebuilt through the public constructors, children included."""
    return decode_structure(term.to_json())


def _assert_same_listing(got, want):
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert mine == theirs
        assert mine.encode() == theirs.encode()


@settings(max_examples=60, deadline=None)
@given(
    text=st.sampled_from(["P", "Pk[0]", "Pk[1]", "Pk[2]", "Pk[3]", "Gra",
                          "Gro"]),
    labels=st.lists(_EXTENSION_LABELS, unique=True, max_size=5),
)
def test_extended_sublist_listings_equal_the_public_ones(text, labels):
    """Subsets, graphs and digraphs listed in bulk from parts checked once
    equal, in order and encoding, the terms the public constructors build
    from every sublist, given in another order, sorted by encoding."""
    labels = labels[:{"Gra": 4, "Gro": 3}.get(text, 5)]
    got = enum(text, labels)
    labs = enumerator._clean_labels(labels)
    if text == "Gra":
        want = [
            GraphTerm(labs[::-1], [(b, a) for a, b in chosen][::-1])
            for chosen in _all_sublists(list(itertools.combinations(labs, 2)))
        ]
    elif text == "Gro":
        want = [
            DigraphTerm(list(labs), chosen[::-1])
            for chosen in _all_sublists(list(itertools.product(labs,
                                                               repeat=2)))
        ]
    else:
        size = None if text == "P" else int(text[3])
        want = [
            SubsetTerm(chosen[::-1], set(labs) - set(chosen))
            for chosen in _all_sublists(labs)
            if size is None or len(chosen) == size
        ]
    want.sort(key=lambda s: s.encode())
    _assert_same_listing(got, want)
    _assert_same_listing(got, [_publicly_built(t) for t in got])


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k in range(len(rest) + 1):
        for others in itertools.combinations(rest, k):
            block = (first,) + others
            left = tuple(x for x in rest if x not in others)
            for tail in _set_partitions(left):
                yield [block] + tail


@settings(max_examples=40, deadline=None)
@given(
    outer=st.sampled_from(["E", "L", "Lp", "S", "C"]),
    inner=st.sampled_from(["A", "C"]),
    labels=st.lists(_EXTENSION_LABELS, unique=True, max_size=4),
)
def test_extended_substitution_listings_equal_the_public_ones(
    outer, inner, labels
):
    """Substitution terms listed on checked assignments equal, in order and
    encoding, the terms CompTerm builds from every partition, inner terms
    and outer term, with the pairs given in reverse block order, sorted by
    encoding."""
    env = parse_defs("A = X*E(A)\n")
    got = enum(f"{outer}({inner})", labels, env)
    labs = enumerator._clean_labels(labels)
    outer_expr, inner_expr = parse_expr(outer), parse_expr(inner)
    want = []
    for partition in _set_partitions(labs):
        blocks = sorted(map(Block, partition), key=lambda b: b.key)
        outers = _structures(outer_expr, env, tuple(blocks),
                             enumerator._Walk())
        inners = [
            [_publicly_built(t)
             for t in enumerate_structures(inner_expr, env, b.members)]
            for b in blocks
        ]
        for chosen in itertools.product(*inners):
            pairs = list(zip(blocks, chosen))[::-1]
            want += [CompTerm(_publicly_built(o), pairs) for o in outers]
    want.sort(key=lambda s: s.encode())
    _assert_same_listing(got, want)
    _assert_same_listing(got, [_publicly_built(t) for t in got])


# -- products and maps built from parts checked once, against public ones --

_CHECKED_ONCE_ENV = parse_defs("A = X*E(A)\nB = 1 + X*B^2\n")


def _maps_from_scratch(labs, keep):
    """MapTerm of every image tuple keep accepts, pairs given in reverse."""
    n = len(labs)
    return [
        MapTerm(list(zip(labs, image))[::-1])
        for image in itertools.product(labs, repeat=n)
        if keep(dict(zip(labs, image)))
    ]


def _products_from_scratch(labs, lefts, rights):
    """ProdTerm(l, r) for every split of labs, l among lefts(chosen) and r
    among rights(rest)."""
    out = []
    for k in range(len(labs) + 1):
        for chosen in itertools.combinations(labs, k):
            rest = [x for x in labs if x not in chosen]
            out += [
                ProdTerm(l, r)
                for l in lefts(list(chosen))
                for r in rights(rest)
            ]
    return out


def _bijective(m):
    return sorted(m.values(), key=str) == sorted(m, key=str)


def _derangements(labs):
    return _maps_from_scratch(
        labs, lambda m: _bijective(m) and all(a != b for a, b in m.items())
    )


_FROM_SCRATCH = {
    "S": lambda labs: _maps_from_scratch(labs, _bijective),
    "Der": _derangements,
    "Inv": lambda labs: _maps_from_scratch(
        labs, lambda m: all(m[m[a]] == a for a in m)
    ),
    "End": lambda labs: _maps_from_scratch(labs, lambda m: True),
    "L*L": lambda labs: _products_from_scratch(
        labs,
        lambda ls: [ListTerm(p) for p in itertools.permutations(ls)],
        lambda ls: [ListTerm(p) for p in itertools.permutations(ls)],
    ),
    "E*Der": lambda labs: _products_from_scratch(
        labs, lambda ls: [SetTerm(ls[::-1])], _derangements
    ),
}


@pytest.mark.parametrize(
    "labels", [[1, 2, 3, 4], ["d", "c", "b", "a"], [10, 9, 100]],
    ids=["int", "str", "mixed-code"],
)
@pytest.mark.parametrize(
    "text", ["S", "Der", "Inv", "End", "A", "B", "pt(A)", "L*L", "E*Der"]
)
def test_checked_once_listings_equal_the_public_terms(text, labels):
    """Maps built on a source tuple checked once, and products built on a
    split checked once, equal the terms the public constructors build: in
    order, encoding, label set, equality and hash.  Maps and products are
    also built from scratch, their pairs given out of order, and sorted by
    encoding; the recursive species are rebuilt from their JSON."""
    got = enum(text, labels, _CHECKED_ONCE_ENV)
    labs = list(enumerator._clean_labels(labels))
    rebuilt = [_publicly_built(t) for t in got]
    wants = [rebuilt]
    if text in _FROM_SCRATCH:
        built = _FROM_SCRATCH[text](labs)
        wants.append(sorted(built, key=lambda s: s.encode()))
    assert got == sorted(got, key=lambda s: s.encode())
    for want in wants:
        assert len(got) == len(want)
        for mine, theirs in zip(got, want):
            assert mine == theirs
            assert hash(mine) == hash(theirs)
            assert mine.encode() == theirs.encode()
            assert mine.labels() == theirs.labels() == frozenset(labs)


# -- lists, cycles, partitions and the terms wrapped around listed children,
# -- built from parts checked once, against public ones ----------------------

# Digests of `enumerate EXPR LABELS [--json]` stdout for templates that reach
# partitions, lists, cycles on blocks, pointed derivatives and sums of
# primitives, pinned from the listing that built every term through its
# public constructor.
_CHECKED_ONCE_DIGESTS = {
    ("Part", 5, "int", True): "888d2dd8ecd84c52df2abb1efb1251e8960e052a7f9bd225a2495251ef125b22",
    ("Part", 5, "int", False): "df00c64338fd0b9a730811b347509daea52f2b8ba12f44d572add5fd1878d025",
    ("Part", 5, "str", True): "832e9093e1a3e58857a1f2f8d3db5e43e11abf7e66e7d3938073ae01a3f2b942",
    ("Part", 5, "str", False): "c93c1a74b28b4939285413cb1c0c1c8400086f3ee9dbc0a2aaa9626d87ffd869",
    ("L", 4, "int", True): "47baf068cfa25d109b5c8137db2c4f153b92c139be15d3ea105739a047f5da3b",
    ("L", 4, "int", False): "86019a5aca67d48b6586f28988ea767f6ff8821b50f5aea468b774c289c352d7",
    ("L", 4, "str", True): "5af3e73a18c8287162230c3305c6c5eede622f9ce5c3b8a56ad67fb6ef8a6754",
    ("L", 4, "str", False): "350aa111624f19c274ea7b940f8e1252997c3ef12f8d905019716f9227246822",
    ("Lp(C)", 4, "int", True): "082ed2153de65bd402531f28fb73f6349676aecc4cc2c59ef4d0035010b97935",
    ("Lp(C)", 4, "int", False): "b2168cbc57adfde1e23513b5869c95e31364fedd59d59c784b7eb6c67e0b958b",
    ("Lp(C)", 4, "str", True): "cbb540419c979ceaf09ff4ff193d7f46dbc48d9f70e1571dead3fe859ee1a2c8",
    ("Lp(C)", 4, "str", False): "a3df49befb18becf5a27954d78e7d7f2899cdcc70960ae5c094bc3b2278e86c7",
    ("pt(C')", 3, "int", True): "71974ac5a1629559f6be02537009dbe8e4eca614ff7c5861d650f3d40f38cfbe",
    ("pt(C')", 3, "int", False): "94330f86e50068fd5daed16f97596eafa813f64545c293508dccc8bc7a7107ba",
    ("pt(C')", 3, "str", True): "6d78d12effb52013a39e2c45b3f505d23308b45ec9a9e55d3b3ec3a52bb95910",
    ("pt(C')", 3, "str", False): "877bc0f028f25f846376cdf8062317b8d8a70bea224432f41e500fd2f5f6fc26",
    ("L+C", 3, "int", True): "b1cd1bb23f81f29548aa93f0f5c463beb887d9d29c9e170b2262e471f2f2518b",
    ("L+C", 3, "int", False): "dac7456b2e79416e0bfd8d0e4ef73a486911a47fa0c624ca07fbf09ac36578dd",
    ("L+C", 3, "str", True): "6defc5bc385b263188cb6b4f586c699208f0e8a862960019d92446a3ae32711d",
    ("L+C", 3, "str", False): "25f0181cb955649d32c916e662f159821453dff6d3836ee666c20f7c1ed7374b",
}


@pytest.mark.parametrize("key", sorted(_CHECKED_ONCE_DIGESTS), ids=str)
def test_checked_once_stdout_digest(key):
    text, n, kind, as_json = key
    pool = _INT_LABELS if kind == "int" else _STR_LABELS
    argv = ["enumerate", text, ",".join(pool[:n])]
    code, out = _cli_stdout(argv + (["--json"] if as_json else []))
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == _CHECKED_ONCE_DIGESTS[key]


# Labels whose codes sort apart from their values, on either side of the
# fewest labels that build terms on one checked tuple.
_WRAPPED_LABELS = {
    "int": [1, 2, 3, 4],
    "str": ["d", "c", "b", "a", "é"],
    "mixed-code": [10, 9, 100],
    "mixed-code-4": [10, 9, 100, 11],
}

_PRIMITIVES_FROM_SCRATCH = {
    "L": lambda labs: [ListTerm(p[::-1])
                       for p in itertools.permutations(labs)],
    "C": lambda labs: list({
        CycleTerm(p).encode(): CycleTerm(p)
        for p in itertools.permutations(labs)
    }.values()) if labs else [],
    "Part": lambda labs: [PartitionTerm(p[::-1])
                          for p in _set_partitions(tuple(labs))],
}


def _assert_checked_once_listing(got, labels):
    """Every listed term equals the term decode_structure rebuilds through
    the public constructors, in equality, hash, encoding and label set; the
    listing strictly increases by encoding; and the terms share one label
    set."""
    codes = [t.encode() for t in got]
    assert all(a < b for a, b in zip(codes, codes[1:]))
    labs = frozenset(enumerator._clean_labels(labels))
    for mine in got:
        theirs = decode_structure(mine.to_json())
        assert mine == theirs
        assert hash(mine) == hash(theirs)
        assert mine.encode() == theirs.encode()
        assert mine.labels() == theirs.labels() == labs
    if labels:
        assert len({id(t.labels()) for t in got}) == 1


@pytest.mark.parametrize(
    "labels", list(_WRAPPED_LABELS.values()), ids=list(_WRAPPED_LABELS)
)
@pytest.mark.parametrize(
    "text",
    ["L", "Lp", "C", "C'", "L'", "Part", "E(C)", "pt(L)", "pt(A)", "B",
     "L+C"],
)
def test_wrapped_and_primitive_listings_equal_the_public_terms(text, labels):
    """Lists, cycles and partitions built on a label tuple checked once,
    and the named, sum, derivative and pointed terms built around a child
    list checked once, equal the terms the public constructors build; the
    primitives are also built from scratch, out of order, and sorted."""
    got = enum(text, labels, _CHECKED_ONCE_ENV)
    _assert_checked_once_listing(got, labels)
    if text in _PRIMITIVES_FROM_SCRATCH:
        labs = list(enumerator._clean_labels(labels))
        want = sorted(_PRIMITIVES_FROM_SCRATCH[text](labs),
                      key=lambda s: s.encode())
        assert got == want
        assert [t.encode() for t in got] == [t.encode() for t in want]


@settings(max_examples=60, deadline=None)
@given(
    text=st.sampled_from(["L", "Lp", "C", "C'", "L'", "Part", "E(C)",
                          "pt(L)", "pt(A)", "B", "L+C", "pt(C')"]),
    labels=st.lists(_EXTENSION_LABELS, unique=True, max_size=5),
)
def test_checked_once_listings_equal_their_rebuilt_terms(text, labels):
    labels = labels[:{"B": 4, "pt(A)": 4, "pt(C')": 4}.get(text, 5)]
    got = enum(text, labels, _CHECKED_ONCE_ENV)
    _assert_checked_once_listing(got, labels)


_SEVEN = (ListTerm, CycleTerm, PartitionTerm, NamedTerm, SumTerm, DerivTerm,
          PointTerm)


@pytest.mark.parametrize("text,n", [("C'", 6), ("Part", 7), ("pt(L)", 4),
                                    ("B", 5)])
def test_listings_run_no_constructor_of_the_checked_once_terms(
    text, n, monkeypatch
):
    built = Counter()
    for cls in _SEVEN:
        def counted(self, *args, cls=cls, original=cls.__init__):
            built[cls.__name__] += 1
            original(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    got = enum(text, list(range(1, n + 1)), _CHECKED_ONCE_ENV)
    assert len(got) == egf_of(
        parse_expr(text), _CHECKED_ONCE_ENV, order=n
    ).count(n)
    assert built == Counter()
    # Nor on few labels.
    for k in range(4):
        enum(text, list(range(1, k + 1)), _CHECKED_ONCE_ENV)
        assert built == Counter()


# Labels whose codes sort apart from their values, cut to 0 to 3 labels.
_FEW_LABELS = {
    "int": [1, 2, 3], "str": ["c", "b", "a"], "mixed-code": [10, 9, 100],
}


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", sorted(_FEW_LABELS))
@pytest.mark.parametrize(
    "text", ["L", "Lp", "C", "C'", "Part", "pt(L)", "pt(C)", "(X*L')''"]
)
def test_listings_on_few_labels_equal_their_rebuilt_terms(text, kind, k):
    """On 0 to 3 labels, the terms listed on a checked label tuple or
    child list equal their decode_structure rebuilds, strictly increase
    by encoding and share one interned label set."""
    labels = _FEW_LABELS[kind][:k]
    got = enum(text, labels, _CHECKED_ONCE_ENV)
    assert len(got) == egf_of(
        parse_expr(text), _CHECKED_ONCE_ENV, order=k
    ).count(k)
    _assert_checked_once_listing(got, labels)
    assert len({id(t.labels()) for t in got}) <= 1


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_a_derivative_on_split_off_stars_adds_a_longer_star(n):
    """Under a product, a derivative may be taken on labels that hold a
    longer star but not a shorter one; the star it adds is longer than
    both, so that DerivTerm, which takes its longest star as the added
    point, keeps the labels the term lives on."""
    text = "(X*L')''"
    got = enum(text, list(range(1, n + 1)))
    assert len(got) == egf_of(parse_expr(text), None, order=n).count(n)
    _assert_checked_once_listing(got, list(range(1, n + 1)))
    for term in got:
        right = term.inner.inner.right
        stars = {l for l in right.inner.labels() if isinstance(l, str)}
        assert max(stars, key=len) not in right.labels()


# -- subsets, graphs, digraphs and substitution pairs built in bulk --------

# Digests of `enumerate EXPR LABELS --defs <_DIGEST_DEFS> [--json]` stdout
# for listings that build many substitution assignments, pinned from the
# listing that built each assignment by one step.
_BULK_DIGESTS = {
    ("A", 5, "int", True): "17107d2e6d7cc138874cb8c1635ccfabd83461a54bcd66bb1759a52948427037",
    ("A", 5, "int", False): "90975cf24825b6f327355ace3c82fc06f4ec2c1e91bb7ee60b311f6de71bcbc7",
    ("A", 5, "str", True): "d5a81ea64737e21a4207165daaafdadc4354b3cef811ddd0021517e8b2b1fb37",
    ("A", 5, "str", False): "fcf282e4a5f1bd97db0a2481ca08195e4e437f0281be2dbe1df14d304939ec1c",
    ("S(A)", 4, "int", True): "1e11fae068e46662b52332241fad165a14300dbafaa618b5a31feb4785c83f22",
    ("S(A)", 4, "int", False): "f77120164edc6e3c502b85e5f973da040511a9b3031d13b1dbb590cdbd15e4ac",
    ("S(A)", 4, "str", True): "6cb3d3357ffcca4ae12e53e818089478108a96273f1dd968e03b6ee49410943b",
    ("S(A)", 4, "str", False): "0b0551763de17461b7842a45153fdd757179243a4347dd9c8ad2df6dcc7178dc",
    ("Lp(A)", 4, "int", True): "4d668a27f463815e3376a061201d1f43c891504c020e42420e173f241178fa0f",
    ("Lp(A)", 4, "int", False): "5d0d2f3e72acc3ba4eefd24002a1d8d13d07ffdbf16e59646d0627fc0d4f6094",
    ("Lp(A)", 4, "str", True): "bb4be305b95651521097834822380771aa4e6d550c31c98baad2671d6c456575",
    ("Lp(A)", 4, "str", False): "6f66a57da7e9316975d51ce1cb7640e7fef2cbcf340f547cc8d315fa9579d435",
    ("E(C)", 5, "int", True): "b93fa104d3728a1705126353e113292cf797b27afea615c03d1cbdf84a5219c9",
    ("E(C)", 5, "int", False): "1ee6234466c1dced58d9f6d0d3ac308ed60a0946795777ac7233ccdfbb8912f3",
    ("E(C)", 5, "str", True): "9c1d74fc4df142cd6575a783464b84a2cdec56bad715782ad27d2e2b64018e90",
    ("E(C)", 5, "str", False): "c3e0f6e7eba68eb3b8eb94587a09c475e46f203686ad1c10f57bff1d94fec6a3",
}


@pytest.mark.parametrize("key", sorted(_BULK_DIGESTS), ids=str)
def test_bulk_built_stdout_digest(key, tmp_path):
    text, n, kind, as_json = key
    defs = tmp_path / "defs.species"
    defs.write_text(_DIGEST_DEFS, encoding="utf-8")
    pool = _INT_LABELS if kind == "int" else _STR_LABELS
    argv = ["enumerate", text, ",".join(pool[:n]), "--defs", str(defs)]
    code, out = _cli_stdout(argv + (["--json"] if as_json else []))
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == _BULK_DIGESTS[key]


# -- one walk shared by several calls -----------------------------------------

_SHARED_ENV = parse_defs("A = X*E(A)\nF = E*F\nG = Ep(G)\n")


def _encodings(found):
    return [s.encode() for s in found]


class TestSharedWalk:
    def test_a_call_with_another_env_is_refused(self):
        walk = enumerator._Walk(env=_SHARED_ENV)
        other = parse_defs("A = X*E(A)\n")
        with pytest.raises(ValueError, match="env"):
            enumerate_structures(parse_expr("A"), other, [1, 2], walk=walk)
        with pytest.raises(ValueError, match="env"):
            enumerate_structures(parse_expr("X"), None, [1], walk=walk)
        with pytest.raises(ValueError, match="env"):
            enumerate_structures(parse_expr("X"), other, [1],
                                 walk=enumerator._Walk())
        assert not walk.memo

    def test_refused_calls_leave_the_walk_usable(self):
        a = parse_expr("A")
        walk = enumerator._Walk(env=_SHARED_ENV)
        with pytest.raises(BudgetExceeded):
            enumerate_structures(a, _SHARED_ENV, [1, 2, 3, 4], budget=1,
                                 walk=walk)
        with pytest.raises(IllFoundedEquation):
            enumerate_structures(parse_expr("F"), _SHARED_ENV, [1, 2],
                                 walk=walk)
        with pytest.raises(IllFoundedEquation):
            enumerate_structures(parse_expr("G"), _SHARED_ENV, [1, 2],
                                 walk=walk)
        assert not walk.memo  # each was refused before any node was visited
        for n in (4, 2, 3):
            labels = list(range(1, n + 1))
            got = enumerate_structures(a, _SHARED_ENV, labels, walk=walk)
            want = enumerate_structures(a, _SHARED_ENV, labels)
            assert _encodings(got) == _encodings(want)

    def test_a_shared_walk_returns_its_memo_lists(self):
        a = parse_expr("A")
        walk = enumerator._Walk(env=_SHARED_ENV)
        first = enumerate_structures(a, _SHARED_ENV, [1, 2, 3], walk=walk)
        again = enumerate_structures(a, _SHARED_ENV, [3, 2, 1], walk=walk)
        assert again is first
        assert enumerate_structures(a, _SHARED_ENV, [1, 2, 3]) is not first

    def test_calls_after_the_largest_size_count_no_series(self, monkeypatch):
        """The first call counts every node it reaches at the size it
        reaches it on; calls on fewer labels read those counts, budget
        check included."""
        counted = []
        expr = parse_expr("E(C) * pt(A) + L'")
        walk = enumerator._Walk(env=_SHARED_ENV)
        real = walk.evaluator.eval

        def recorded(expr, order):
            counted.append(expr)
            return real(expr, order)

        monkeypatch.setattr(walk.evaluator, "eval", recorded)
        enumerate_structures(expr, _SHARED_ENV, range(1, 5), walk=walk)
        assert expr in counted
        del counted[:]
        for n in range(3, -1, -1):
            got = enumerate_structures(expr, _SHARED_ENV, range(1, n + 1),
                                       walk=walk)
            assert len(got) == egf_of(expr, _SHARED_ENV, order=n).count(n)
        assert counted == []

    def test_a_walk_shared_smallest_first_solves_again_deeper(self):
        """A system solved for a small listing is solved again, deeper,
        for a larger one on the same walk, and the shallow solution does
        not stand in for the deeper one while it is solved."""
        env = parse_defs(_DIGEST_DEFS)
        b = parse_expr("B")
        with enumerator._Walk(env=env) as walk:
            small = enumerate_structures(b, env, [1, 2], walk=walk)
            large = enumerate_structures(b, env, range(1, 7), walk=walk)
        assert _encodings(small) == _encodings(
            enumerate_structures(b, env, [1, 2]))
        assert _encodings(large) == _encodings(
            enumerate_structures(b, env, range(1, 7)))
        assert len(large) == egf_of(b, env, order=6).count(6)


class TestSubstitutionTables:
    """A substitution node's blocks, pairs and assignment tails are the
    walk's, built once for every label set the walk lists it on."""

    def test_each_pair_is_formed_once_per_walk(self, monkeypatch):
        """Listing A = X*E(A) on 6 labels lists E(A) on every proper
        subset, and each (block, inner) pair is formed once: one per tree
        on each block of 1..5 labels, C(6,k)*k^(k-1) on k labels."""
        formed = []
        real = structures.Assignment.pair

        def counted(block, inner):
            formed.append((block.members, inner.encode()))
            return real(block, inner)

        monkeypatch.setattr(structures.Assignment, "pair",
                            staticmethod(counted))
        got = enumerate_structures(parse_expr("A"), _SHARED_ENV,
                                   range(1, 7))
        assert len(got) == 6 ** 5
        assert len(formed) == len(set(formed)) == sum(
            comb(6, k) * k ** (k - 1) for k in range(1, 6)
        ) == 4926

    @pytest.mark.parametrize("sizes", [range(5, -1, -1), range(6)],
                             ids=["largest-first", "smallest-first"])
    def test_a_shared_walk_lists_as_fresh_walks_do(self, sizes):
        exprs = [parse_expr(t) for t in ("A", "pt(A)", "Lp(A)", "E(C)")]
        with enumerator._Walk(env=_SHARED_ENV) as walk:
            for n in sizes:
                for expr in exprs:
                    labels = range(1, n + 1)
                    got = enumerate_structures(expr, _SHARED_ENV, labels,
                                               walk=walk)
                    want = enumerate_structures(expr, _SHARED_ENV, labels)
                    assert _encodings(got) == _encodings(want)

    def test_a_call_refused_mid_walk_leaves_the_tables_usable(
            self, monkeypatch):
        """A listing that raises part way through its assignments stores
        no unfinished table entry: the same walk then lists as a fresh
        one does."""
        real = structures.Assignment.listed
        calls = []

        def failing(pairs, tails):
            calls.append(None)
            if len(calls) == 40:
                raise ValueError("refused part way")
            return real(pairs, tails)

        a = parse_expr("A")
        walk = enumerator._Walk(env=_SHARED_ENV)
        monkeypatch.setattr(structures.Assignment, "listed",
                            staticmethod(failing))
        with pytest.raises(ValueError, match="part way"):
            enumerate_structures(a, _SHARED_ENV, range(1, 6), walk=walk)
        monkeypatch.undo()
        assert walk.tables
        for n in (5, 4):
            got = enumerate_structures(a, _SHARED_ENV, range(1, n + 1),
                                       walk=walk)
            want = enumerate_structures(a, _SHARED_ENV, range(1, n + 1))
            assert _encodings(got) == _encodings(want)


class TestOneSolvePerSystem:
    """A walk's nodes count through the walk's one evaluator, so each
    recursive system a listing reaches is solved once, however many of its
    nodes read it."""

    @pytest.mark.parametrize("defs, text, n", [
        (_DIGEST_DEFS, "B", 5),
        (_DIGEST_DEFS, "A", 6),
        (_DIGEST_DEFS, "pt(A)", 5),
        ("M = X*E(N)\nN = X*E(M)\n", "M", 5),
        (_DIGEST_DEFS, "B''", 3),
    ], ids=["B-5", "A-6", "pt(A)-5", "mutual-5", "B''-3"])
    def test_each_listing_solves_each_system_once(self, monkeypatch, defs,
                                                  text, n):
        solved = []
        real = semantics.solve_system

        def recorded(equations, order, order_loss=0):
            solved.append(frozenset(name for name, _ in equations))
            return real(equations, order, order_loss=order_loss)

        monkeypatch.setattr(semantics, "solve_system", recorded)
        got = enumerate_structures(parse_expr(text), parse_defs(defs),
                                   range(1, n + 1))
        assert got
        assert len(solved) == len(set(solved)) == 1


# -- holder counts -----------------------------------------------------------

# The enumerate workload's templates; listings that substitute into, point
# at and differentiate recursive species; and a product whose right factors
# are each held by several left factors.  On int and str labels.
_HOLDER_CASES = [
    ("B", 5), ("A", 6), ("pt(A)", 5), ("E(C)", 7), ("Part", 8), ("C'", 7),
    ("S", 7), ("Gra", 5), ("Inv", 8), ("S(A)", 5), ("Lp(A)", 4),
    ("pt(pt(A))", 4), ("B''", 3), ("L*C", 5),
]
_HOLDER_LABELS = {
    "int": [8, 9, 10, 11, 12, 13, 14, 15],
    "str": ["q", "ab", "b", "zz", "c", "a'", "d", "é"],
}


def _children(term):
    """Every place in term that holds a child term, one per place."""
    for _, attr, fk in term.fields:
        value = getattr(term, attr)
        if fk is structures._CHILD or fk is structures._ON_BLOCKS:
            yield value
        elif fk is structures._ASSIGN:
            for _, inner in value:
                yield inner


class TestHolders:
    @pytest.mark.parametrize("kind", sorted(_HOLDER_LABELS))
    @pytest.mark.parametrize("text, n", _HOLDER_CASES,
                             ids=[f"{t}-{n}" for t, n in _HOLDER_CASES])
    def test_shared_ids_equal_a_brute_force_count(self, text, n, kind):
        """walk.shared() is every term held in two or more places by the
        terms of the walk's memo lists, counted term by term."""
        env = parse_defs(_DIGEST_DEFS)
        with enumerator._Walk(env=env) as walk:
            got = enumerate_structures(parse_expr(text), env,
                                       _HOLDER_LABELS[kind][:n], walk=walk)
            held = Counter()
            lists = {id(found): found for found in walk.memo.values()}
            for found in lists.values():
                for term in found:
                    held.update(map(id, _children(term)))
            assert got
            assert {id(t) for t in walk.shared()} == {
                k for k, c in held.items() if c > 1
            }

    def test_a_product_of_a_term_with_itself_holds_it_twice(self):
        expr = parse_expr("E*E")
        with enumerator._Walk() as walk:
            (term,) = enumerate_structures(expr, None, [], walk=walk)
            assert term.left is term.right
            assert {id(t) for t in walk.shared()} == {id(term.left)}

    @pytest.mark.parametrize("kind", sorted(_HOLDER_LABELS))
    @pytest.mark.parametrize("text, n", _HOLDER_CASES,
                             ids=[f"{t}-{n}" for t, n in _HOLDER_CASES])
    def test_shared_terms_come_once_and_children_first(self, text, n, kind):
        env = parse_defs(_DIGEST_DEFS)
        with enumerator._Walk(env=env) as walk:
            _check_shared_order_and_bytes(parse_expr(text), env,
                                          _HOLDER_LABELS[kind][:n], walk)

    def test_a_restricted_name_shares_its_list_under_two_keys(self):
        """A restriction returns its child's list, so the memo holds that
        list under two keys; shared() lists its terms once."""
        restricted = RestrictCard(Name("A"), ">=", 1)
        expr = Product(restricted, Primitive(PrimitiveKind.LIST))
        env = parse_defs(_DIGEST_DEFS)
        with enumerator._Walk(env=env) as walk:
            _check_shared_order_and_bytes(expr, env, [1, 2, 3, 4, 5], walk)
            keys = Counter(map(id, walk.memo.values()))
            twice = [k for k, c in keys.items() if c > 1]
            assert twice
            assert any(walk.holders.get(k, 0) > 1 for k in twice)


def _check_shared_order_and_bytes(expr, env, labels, walk):
    """walk.shared() lists each shared term once and every shared child
    before each shared term that holds it, and the --json writer writes
    json.dumps's bytes with and without it; walk is open, made with env."""
    got = enumerate_structures(expr, env, labels, walk=walk)
    assert got
    shared = walk.shared()
    place = {id(t): i for i, t in enumerate(shared)}
    assert len(place) == len(shared)
    held = Counter()
    lists = {id(found): found for found in walk.memo.values()}
    for found in lists.values():
        for term in found:
            held.update(map(id, _children(term)))
    assert set(place) == {k for k, c in held.items() if c > 1}
    for i, term in enumerate(shared):
        for child in _children(term):
            assert place.get(id(child), -1) < i
    want = _dumped(got)
    for given in ((), shared):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli._write_json_listing(got, given)
        assert out.getvalue() == want
