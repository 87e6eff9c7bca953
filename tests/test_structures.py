"""Each term kind's JSON, sort parts, --json text, decoder and relabelling,
checked against one another on a hand-built term of every kind."""

import json
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from species import structures
from species.errors import ParseError
from species.structures import (
    STAR,
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
    SubsetTerm,
    SumTerm,
    decode_structure,
    is_star,
    label_sort_key,
    label_to_string,
    string_to_label,
)

# Labels mix integers with strings that JSON escapes (the quote, e acute).
TERMS = {
    "set": SetTerm([1, "a", 'q"']),
    "subset": SubsetTerm([1, "é"], [2, "b"]),
    "list": ListTerm(["b", 1, 10]),
    "cycle": CycleTerm(["b", 1, 10]),
    "map": MapTerm([(1, 2), (2, 1), ("a", "a")]),
    "graph": GraphTerm([1, 2, "a"], [(1, "a"), (2, 1)]),
    "digraph": DigraphTerm([1, "a"], [(1, 1), ("a", 1)]),
    "partition": PartitionTerm([[1, "a"], [2]]),
    "sum": SumTerm("right", ListTerm([2, 1])),
    "prod": ProdTerm(SetTerm([1]), CycleTerm(["a", 2])),
    "comp": CompTerm(
        CycleTerm([Block([1, 2]), Block(["a"]), Block([10])]),
        [
            (Block([1, 2]), ListTerm([2, 1])),
            (Block(["a"]), SetTerm(["a"])),
            (Block([10]), SetTerm([10])),
        ],
    ),
    "deriv": DerivTerm(ListTerm([1, STAR, "a"])),
    "point": PointTerm("a", SetTerm([1, "a"])),
    "named": NamedTerm("B", SumTerm("left", SetTerm([]))),
}

# The canonical encoding of each term above: it fixes enumeration order and
# bytes, so it is pinned here rather than derived.
ENCODED = {
    "set": r'{"kind":"set","labels":["1","a","q\""]}',
    "subset": r'{"kind":"subset","members":["1","\u00e9"],"rest":["2","b"]}',
    "list": r'{"kind":"list","labels":["b","1","10"]}',
    "cycle": r'{"kind":"cycle","labels":["1","10","b"]}',
    "map": r'{"kind":"map","pairs":[["1","2"],["2","1"],["a","a"]]}',
    "graph": r'{"edges":[["1","2"],["1","a"]],"kind":"graph",'
             r'"vertices":["1","2","a"]}',
    "digraph": r'{"arcs":[["1","1"],["a","1"]],"kind":"digraph",'
               r'"vertices":["1","a"]}',
    "partition": r'{"blocks":[["1","a"],["2"]],"kind":"partition"}',
    "sum": r'{"inner":{"kind":"list","labels":["2","1"]},"kind":"sum",'
           r'"side":"right"}',
    "prod": r'{"kind":"prod","left":{"kind":"set","labels":["1"]},'
            r'"right":{"kind":"cycle","labels":["2","a"]}}',
    "comp": r'{"assign":[[["1","2"],{"kind":"list","labels":["2","1"]}],'
            r'[["10"],{"kind":"set","labels":["10"]}],'
            r'[["a"],{"kind":"set","labels":["a"]}]],"kind":"comp",'
            r'"outer":{"kind":"cycle","labels":["{1,2}","{a}","{10}"]}}',
    "deriv": r'{"inner":{"kind":"list","labels":["1","\u2605","a"]},'
             r'"kind":"deriv"}',
    "point": r'{"at":"a","inner":{"kind":"set","labels":["1","a"]},'
             r'"kind":"point"}',
    "named": r'{"inner":{"inner":{"kind":"set","labels":[]},"kind":"sum",'
             r'"side":"left"},"kind":"named","name":"B"}',
}

# A bijection on every label above that changes their order; the star is
# fixed, as transport fixes it.
MOVE = {1: "b", 2: 'q"', 10: 1, "a": 10, "b": 2, 'q"': "é",
        "é": "a", STAR: STAR}

# JSON keys whose values are not labels.
NOT_LABELS = {"kind", "side", "name"}


def _joined(term):
    """A term's sort parts with every child key joined back into text."""
    return "".join(term._sort_parts(_joined))


def _dumped(term):
    """A term's --json text, every child's text written in full."""
    return term._text(_dumped)


def _relabelled(obj, f):
    """A term's JSON with f applied to every label, blocks included."""
    if isinstance(obj, dict):
        return {
            k: v if k in NOT_LABELS else _relabelled(v, f)
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [_relabelled(v, f) for v in obj]
    label = string_to_label(obj)
    if isinstance(label, Block):
        return label_to_string(Block(f(m) for m in label.members))
    return label_to_string(f(label))


def test_every_kind_has_a_term():
    assert sorted(TERMS) == sorted(t.kind for t in TERMS.values())
    assert sorted(TERMS) == sorted(structures._CLASSES)
    assert len(TERMS) == 14


@pytest.mark.parametrize("kind", sorted(TERMS))
class TestEachKind:
    def test_decode_inverts_to_json(self, kind):
        term = TERMS[kind]
        assert decode_structure(term.to_json()) == term
        assert decode_structure(json.loads(term.encode())) == term

    def test_encoding_is_pinned(self, kind):
        assert TERMS[kind].encode() == ENCODED[kind]

    def test_sort_parts_join_to_encode(self, kind):
        term = TERMS[kind]
        assert _joined(term) == term.encode()
        assert term.encode() == json.dumps(
            term.to_json(), separators=(",", ":"), sort_keys=True
        )

    def test_text_is_json_dumps(self, kind):
        term = TERMS[kind]
        assert _dumped(term) == json.dumps(term.to_json())

    def test_relabel_matches_the_relabelled_json(self, kind):
        term = TERMS[kind]
        moved = term.relabel(MOVE.__getitem__)
        assert moved == decode_structure(
            _relabelled(term.to_json(), MOVE.__getitem__)
        )
        assert moved.labels() == frozenset(
            MOVE[l] for l in term.labels()
        )

    def test_each_field_is_required(self, kind):
        obj = TERMS[kind].to_json()
        for key in obj:
            broken = {k: v for k, v in obj.items() if k != key}
            with pytest.raises(ParseError):
                decode_structure(broken)

    def test_each_field_needs_its_json_type(self, kind):
        obj = TERMS[kind].to_json()
        for key, value in obj.items():
            for wrong in (None, 5, "ab", ["ab"], {"kind": "set"}):
                if type(wrong) is type(value):
                    continue
                with pytest.raises(ParseError):
                    decode_structure({**obj, key: wrong})


class TestLabelLists:
    def test_partition_block_must_be_a_list(self):
        with pytest.raises(ParseError):
            decode_structure({"kind": "partition", "blocks": ["ab"]})

    def test_comp_block_must_be_a_list(self):
        obj = {
            "kind": "comp",
            "outer": {"kind": "set", "labels": ["{a,b}"]},
            "assign": [["ab", {"kind": "set", "labels": ["a", "b"]}]],
        }
        with pytest.raises(ParseError):
            decode_structure(obj)
        obj["assign"][0][0] = ["a", "b"]
        assert decode_structure(obj).assign[0][0] == Block(["a", "b"])


def _set(*labels):
    return {"kind": "set", "labels": list(labels)}


def _comp(outer, *assign):
    return {"kind": "comp", "outer": _set(*outer), "assign": list(assign)}


# Each refusal: the message it names, the term built through its
# constructor, and the same term as JSON for decode_structure.
REFUSED = {
    "graph loop": (
        "no loops",
        lambda: GraphTerm([1, 2], [(1, 2), (2, 2)]),
        {"kind": "graph", "vertices": ["1", "2"], "edges": [["2", "2"]]},
    ),
    "graph endpoint": (
        "edge endpoint outside",
        lambda: GraphTerm([1, 2], [(1, 3)]),
        {"kind": "graph", "vertices": ["1", "2"], "edges": [["3", "1"]]},
    ),
    "graph duplicate edge": (
        "duplicate edge",
        lambda: GraphTerm([1, 2, 3], [(1, 2), (2, 3), (1, 2)]),
        {"kind": "graph", "vertices": ["1", "2"],
         "edges": [["1", "2"], ["1", "2"]]},
    ),
    "graph duplicate edge turned": (
        "duplicate edge",
        lambda: GraphTerm([1, 2, "a"], [("a", 1), (1, "a")]),
        {"kind": "graph", "vertices": ["1", "2"],
         "edges": [["2", "1"], ["1", "2"]]},
    ),
    "digraph endpoint": (
        "arc endpoint outside",
        lambda: DigraphTerm([1, 2], [(1, 1), (2, 3)]),
        {"kind": "digraph", "vertices": ["1"], "arcs": [["b", "1"]]},
    ),
    "digraph duplicate arc": (
        "duplicate arc",
        lambda: DigraphTerm([1, 2], [(2, 1), (1, 2), (2, 1)]),
        {"kind": "digraph", "vertices": ["1", "2"],
         "arcs": [["1", "1"], ["1", "1"]]},
    ),
    "comp blocks overlap": (
        "blocks overlap",
        lambda: CompTerm(
            SetTerm([Block([1, 2]), Block([2, 3])]),
            [(Block([2, 3]), SetTerm([2, 3])), (Block([1, 2]), SetTerm([1, 2]))],
        ),
        _comp(
            ["{1,2}", "{2,3}"],
            [["1", "2"], _set("1", "2")], [["2", "3"], _set("2", "3")],
        ),
    ),
    "comp inner off its block": (
        "inner structure is not on its block",
        lambda: CompTerm(
            SetTerm([Block([1]), Block([2, 3])]),
            [(Block([1]), SetTerm([1])), (Block([2, 3]), SetTerm([2]))],
        ),
        _comp(["{1,2}"], [["1", "2"], _set("1", "2", "3")]),
    ),
    "comp outer off the block set": (
        "outer structure is not on the block set",
        lambda: CompTerm(
            SetTerm([Block([1])]),
            [(Block([1]), SetTerm([1])), (Block([2]), SetTerm([2]))],
        ),
        _comp(["{1}", "{3}"], [["1"], _set("1")], [["2"], _set("2")]),
    ),
    "empty block": (
        "at least one member",
        lambda: Block([]),
        _comp(["{1}"], [[], _set()]),
    ),
    "duplicate block member": (
        "duplicate member in block",
        lambda: Block(["a", 1, "a"]),
        _comp(["{1}"], [["1", "1"], _set("1")]),
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_constructor_refusals(case):
    message, build, obj = REFUSED[case]
    with pytest.raises(ValueError, match=message):
        build()
    with pytest.raises(ParseError, match=message):
        decode_structure(obj)


def test_comp_refuses_a_key_that_is_not_a_block():
    with pytest.raises(TypeError, match="must be blocks"):
        CompTerm(SetTerm([]), [(1, SetTerm([1]))])


def test_pairs_that_are_not_refused():
    """Refusals look at whole pairs: the same arc in both directions, and
    an edge given turned, are fine."""
    assert DigraphTerm([1, 2], [(2, 1), (1, 2)]).arcs == ((1, 2), (2, 1))
    assert GraphTerm([1, "a", 2], [("a", 1), (2, 1)]).edges == (
        (1, 2), (1, "a"),
    )
    assert GraphTerm([1, 2], [[2, 1]]) == GraphTerm([1, 2], [(1, 2)])


def _reference_key(label):
    """label_sort_key as it was before blocks kept their keys: every call
    rebuilds a block's key from its members."""
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, Block):
        return (2, tuple(_reference_key(m) for m in label.members))
    if isinstance(label, str) and label and set(label) == {STAR}:
        return (3, len(label))
    return (1, label)


MIXED = [
    10, 2, "b", "a", "10", STAR * 2, STAR, Block([3, "c"]), Block([1]),
    Block(["a", 2]), Block([Block([2]), 1]), Block([Block([1, "x"])]),
]


class TestBlock:
    def test_equal_members_make_equal_blocks(self):
        a, b = Block([2, 1]), Block([1, 2])
        assert a == b and hash(a) == hash(b)
        assert a.code() == b.code() == '["1","2"]'
        assert a.text() == b.text() == '["1", "2"]'
        assert a.members == (1, 2) and a.member_set == frozenset({1, 2})
        assert Block([1]) != Block([1, 2]) and Block([1]) != (1,)

    def test_members_sort_by_the_reference_key(self):
        for labels in (MIXED, MIXED[::-1], MIXED[3:] + MIXED[:3]):
            want = sorted(labels, key=_reference_key)
            assert Block(labels).members == tuple(want)
            assert sorted(labels, key=label_sort_key) == want

    def test_key_is_the_reference_key(self):
        for label in MIXED:
            assert label_sort_key(label) == _reference_key(label)
        for block in MIXED:
            if isinstance(block, Block):
                assert block.key == _reference_key(block)

    def test_relabelled_block_is_resorted(self):
        block = Block([1, "a", 2])
        moved = Block(MOVE[m] for m in block.members)
        assert moved.members == (10, "b", 'q"')
        assert moved.key == _reference_key(moved)


# (label, is_star, label_sort_key)
STAR_TABLE = [
    (STAR, True, (3, 1)),
    (STAR * 2, True, (3, 2)),
    ("", False, (1, "")),
    ("a", False, (1, "a")),
    (STAR + "a", False, (1, STAR + "a")),
    ("a" + STAR, False, (1, "a" + STAR)),
    (1, False, (0, 1)),
    (Block([1]), False, (2, ((0, 1),))),
    (Block([STAR]), False, (2, ((3, 1),))),
]


@pytest.mark.parametrize("label, star, key", STAR_TABLE)
def test_is_star_and_label_sort_key(label, star, key):
    assert is_star(label) is star
    assert label_sort_key(label) == key


@pytest.mark.parametrize("seq, first", [
    ([STAR, "b", Block([1]), 3], 3),
    ([STAR * 2, Block([2]), "b"], "b"),
    ([STAR * 2, STAR, Block([2])], Block([2])),
    ([STAR * 2, STAR], STAR),
    (["b", 10, "a", 2], 2),
])
def test_cycle_rotates_from_the_least_label(seq, first):
    """Integers, then strings, then blocks, then stars, the shortest
    first."""
    cycle = CycleTerm(seq)
    assert cycle.seq[0] == first
    start = seq.index(first)
    assert cycle.seq == tuple(seq[start:] + seq[:start])


# -- graphs and digraphs against a brute-force reference -------------------

def _reference_graph(vertices, pairs, directed):
    """(vertices, pairs) as GraphTerm or DigraphTerm should store them, or
    the exception they should raise, found without vertex tables or ranks:
    sort the vertices, check every pair against the vertex list, turn each
    edge to put its lesser end first, refuse repeats, sort by place."""
    ordered = tuple(sorted(vertices, key=_reference_key))
    if len(set(ordered)) != len(ordered):
        raise ValueError(f"duplicate label in {ordered!r}")
    place = list(ordered).index
    what = "arc" if directed else "edge"
    kept = []
    for pair in pairs:
        a, b = pair
        if not directed and a == b:
            raise ValueError("a simple graph has no loops")
        if a not in ordered or b not in ordered:
            raise ValueError(f"{what} endpoint outside the vertex set")
        if not directed:
            pair = (b, a) if place(a) > place(b) else (a, b)
        kept.append(pair)
    if len(set(kept)) != len(kept):
        raise ValueError(f"duplicate {what}")
    kept.sort(key=lambda p: (place(p[0]), place(p[1])))
    return ordered, tuple(kept)


def _outcome(build):
    try:
        return build()
    except Exception as err:  # the outcome compared is the exception
        return type(err), str(err)


def _stored(term):
    pairs = term.arcs if isinstance(term, DigraphTerm) else term.edges
    return term.vertices, pairs


_GRAPH_LABELS = st.sampled_from([0, 1, 2, 7, 10, 12, "a", "b", "é", "a!"])
_DISTURB = st.sampled_from(
    ["shuffle", "reverse", "duplicate", "outside", "turn", "loop", "list"]
)


@settings(max_examples=300, deadline=None)
@given(
    directed=st.booleans(),
    vertices=st.lists(_GRAPH_LABELS, unique=True, max_size=5),
    repeat_vertex=st.integers(0, 9),
    picks=st.lists(st.booleans(), min_size=25, max_size=25),
    disturbs=st.lists(_DISTURB, max_size=3),
    data=st.data(),
)
def test_graph_terms_match_the_reference(
    directed, vertices, repeat_vertex, picks, disturbs, data
):
    """GraphTerm and DigraphTerm store what the reference computes, or
    raise its exception with its message, on vertex lists and tuples, for
    pair lists that are in order or shuffled, reversed, repeated, turned,
    looped, given as lists or reaching outside the vertices.  On a vertex
    tuple, each term is built right after terms of both kinds on that same
    tuple object, so its pairs meet a vertex table whose ranks are already
    filled."""
    if vertices and repeat_vertex == 0:
        vertices.append(vertices[-1])
    order = sorted(set(vertices), key=_reference_key)
    arcs = list(product(order, repeat=2))
    edges = list(combinations(order, 2))
    cls, every, other, others = (
        (DigraphTerm, arcs, GraphTerm, edges) if directed
        else (GraphTerm, edges, DigraphTerm, arcs)
    )
    pairs = [p for p, keep in zip(every, picks) if keep]
    start = pairs
    for disturb in disturbs:
        # Most changes touch one place, so the pairs around it stay in
        # order and the rank check alone has to catch the change.
        at = data.draw(st.integers(0, len(pairs)))
        if disturb == "shuffle":
            pairs = data.draw(st.permutations(pairs))
        elif disturb == "reverse":
            pairs = pairs[::-1]
        elif disturb == "duplicate" and pairs:
            at = min(at, len(pairs) - 1)
            pairs = pairs[:at + 1] + pairs[at:]
        elif disturb == "outside":
            outside = data.draw(st.sampled_from([(99, 0), ("a", "zz")]))
            pairs = pairs[:at] + [outside] + pairs[at:]
        elif disturb == "turn" and pairs:
            at = min(at, len(pairs) - 1)
            a, b = pairs[at]
            pairs = pairs[:at] + [(b, a)] + pairs[at + 1:]
        elif disturb == "loop" and order:
            loop = data.draw(st.sampled_from(order))
            pairs = pairs[:at] + [(loop, loop)] + pairs[at:]
        elif disturb == "list":
            pairs = [list(p) for p in pairs]
    for given_vertices in (tuple(vertices), list(vertices)):
        # Rank every pair of the other kind, which shares a tuple's table,
        # and the first picked pairs of this kind.
        _outcome(lambda: other(given_vertices, others))
        _outcome(lambda: cls(given_vertices, start))
        want = _outcome(
            lambda: _reference_graph(given_vertices, pairs, directed)
        )
        got = _outcome(lambda: _stored(cls(given_vertices, pairs)))
        assert got == want
        got = _outcome(lambda: _stored(cls(given_vertices, iter(pairs))))
        assert got == want


@pytest.mark.parametrize("cls", [GraphTerm, DigraphTerm])
def test_a_vertex_list_is_checked_again_after_it_changes(cls):
    """A vertex table is kept only for a tuple: a list may change between
    two terms, and each term checks the list as it is then."""
    vertices = [1, 2, 3]
    assert cls(vertices, [(1, 2)]).vertices == (1, 2, 3)
    vertices.append(1)
    with pytest.raises(ValueError, match="duplicate label"):
        cls(vertices, [(1, 2)])
    vertices[:] = [2, 1]
    with pytest.raises(ValueError, match="endpoint outside the vertex set"):
        cls(vertices, [(1, 3)])
    assert cls(vertices, [(1, 2)]).vertices == (1, 2)


def test_ranked_pairs_are_still_refused_where_they_do_not_fit():
    """Once every pair of a tuple's vertices is ranked, a repeated arc, a
    repeated, turned or looped edge, still takes the full check."""
    vertices = (1, 2)
    arcs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert DigraphTerm(vertices, arcs).arcs == tuple(arcs)
    assert GraphTerm(vertices, [(1, 2)]).edges == ((1, 2),)
    with pytest.raises(ValueError, match="duplicate arc"):
        DigraphTerm(vertices, [(1, 2), (1, 2)])
    with pytest.raises(ValueError, match="duplicate edge"):
        GraphTerm(vertices, [(1, 2), (1, 2)])
    with pytest.raises(ValueError, match="no loops"):
        GraphTerm(vertices, [(1, 1)])
    assert GraphTerm(vertices, [(2, 1)]).edges == ((1, 2),)
