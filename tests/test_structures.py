"""Each term kind's JSON, sort parts, --json text, decoder and relabelling,
checked against one another on a hand-built term of every kind."""

import contextlib
import json
import sys
import threading
import weakref
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from species import (
    cli, enumerate_structures, parse_defs, parse_expr, structures,
)
from species.enumerator import _Walk, transport
from species.errors import ParseError
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
    SubsetTerm,
    SumTerm,
    decode_structure,
    is_star,
    label_sort_key,
    label_to_string,
    string_to_label,
)

from internals import _joined, _tables_empty

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


def _dumped(term):
    """A term's --json text, every child's text written in full."""
    return term._text({})


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
    sort the vertices, check every pair against the vertex list, take it
    as a tuple (a list pair is accepted as both an edge and an arc), turn
    each edge to put its lesser end first, refuse repeats, sort by place."""
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
        if not directed and place(a) > place(b):
            a, b = b, a
        kept.append((a, b))
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


# -- compiled writers against to_json() -------------------------------------

# Integers, and strings with characters JSON escapes (the quote, the
# backslash, e acute) or that sit next to the quote in code order (!, ').
_LABEL = st.one_of(
    st.integers(min_value=0, max_value=20),
    st.text(alphabet='ab!"\\é\'', min_size=1, max_size=3),
)
_LEAVES = ["set", "subset", "list", "cycle", "map", "graph", "digraph",
           "partition"]


def _star_after(labels):
    """A star token longer than every star among labels."""
    return STAR * (1 + max((len(l) for l in labels if is_star(l)), default=0))


@st.composite
def _split(draw, labels):
    """labels cut in two, each part in labels' order."""
    mask = draw(st.lists(st.booleans(), min_size=len(labels),
                         max_size=len(labels)))
    left = tuple(l for l, m in zip(labels, mask) if m)
    right = tuple(l for l, m in zip(labels, mask) if not m)
    return left, right


@st.composite
def _blocks(draw, labels):
    """A partition of labels into nonempty label tuples."""
    place = draw(st.lists(st.integers(0, max(len(labels) - 1, 0)),
                          min_size=len(labels), max_size=len(labels)))
    parts = {}
    for label, i in zip(labels, place):
        parts.setdefault(i, []).append(label)
    return [tuple(p) for p in parts.values()]


@st.composite
def _term(draw, labels, kind=None, depth=2):
    """A term of kind (drawn when None) on exactly labels, whose children
    are drawn to depth more levels."""
    labels = tuple(labels)
    if kind is None:
        kinds = [k for k in _LEAVES if k != "cycle" or labels]
        if depth > 0:
            kinds += ["sum", "prod", "comp", "deriv", "named"]
            kinds += ["point"] if labels else []
        kind = draw(st.sampled_from(kinds))
    child = lambda on: _term(on, depth=depth - 1)  # noqa: E731
    if kind == "set":
        return SetTerm(labels)
    if kind == "subset":
        return SubsetTerm(*draw(_split(labels)))
    if kind == "list":
        return ListTerm(draw(st.permutations(labels)))
    if kind == "cycle":
        return CycleTerm(draw(st.permutations(labels)))
    if kind == "map":
        images = st.sampled_from(labels) if labels else st.nothing()
        return MapTerm(zip(labels, draw(st.lists(
            images, min_size=len(labels), max_size=len(labels)))))
    if kind == "graph":
        edges = draw(st.lists(st.sampled_from(list(combinations(labels, 2))),
                              unique=True)) if len(labels) > 1 else []
        return GraphTerm(labels, draw(st.permutations(edges)))
    if kind == "digraph":
        arcs = draw(st.lists(st.sampled_from(list(product(labels, labels))),
                             unique=True)) if labels else []
        return DigraphTerm(labels, arcs)
    if kind == "partition":
        return PartitionTerm(draw(_blocks(labels)))
    if kind == "sum":
        return SumTerm(draw(st.sampled_from(["left", "right"])),
                       draw(child(labels)))
    if kind == "prod":
        left, right = draw(_split(labels))
        return ProdTerm(draw(child(left)), draw(child(right)))
    if kind == "comp":
        blocks = [Block(b) for b in draw(_blocks(labels))] if labels else []
        assign = [(b, draw(child(b.members))) for b in blocks]
        return CompTerm(draw(child(blocks)), assign)
    if kind == "deriv":
        return DerivTerm(draw(child(labels + (_star_after(labels),))))
    if kind == "point":
        return PointTerm(draw(st.sampled_from(labels)), draw(child(labels)))
    assert kind == "named"
    return NamedTerm(draw(st.sampled_from(["B", "Tree", "F2"])),
                     draw(child(labels)))


class TestCompiledWriters:
    """Every class's compiled _text and encode() against json.dumps of its
    to_json() tree."""

    @pytest.mark.parametrize("kind", sorted(TERMS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), labels=st.lists(_LABEL, max_size=5, unique=True),
           stars=st.integers(0, 2))
    def test_text_and_encode_equal_json_dumps(self, kind, data, labels,
                                              stars):
        labels = labels + [STAR * k for k in range(1, stars + 1)]
        if not labels and kind in ("cycle", "point"):
            labels = [1]
        term = data.draw(_term(labels, kind))
        assert term.kind == kind
        tree = term.to_json()
        assert _dumped(term) == json.dumps(tree)
        assert term.encode() == json.dumps(
            tree, separators=(",", ":"), sort_keys=True
        )
        assert _joined(term) == term.encode()

    def test_block_labels_of_an_outer_term(self):
        """A comp term's outer writes each block as its quoted token."""
        blocks = [Block([1, 'q"']), Block(["é", "\\"]),
                  Block([Block([2]), 3])]
        outer = GraphTerm(blocks, [(blocks[0], blocks[2])])
        for term in (outer, PointTerm(blocks[1], SetTerm(blocks))):
            assert _dumped(term) == json.dumps(term.to_json())
            assert term.encode() == json.dumps(
                term.to_json(), separators=(",", ":"), sort_keys=True
            )


# -- constructors: input in canonical order against a full sort ------------

def _reference_labels(labels):
    """A label tuple as the constructors stored it when they sorted every
    input in full."""
    out = tuple(sorted(labels, key=_reference_key))
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate label in {out!r}")
    return out


def _reference_subset(members, rest):
    members, rest = _reference_labels(members), _reference_labels(rest)
    if set(members) & set(rest):
        raise ValueError("subset and complement overlap")
    return members, rest


def _reference_cycle(seq):
    seq = tuple(seq)
    if not seq:
        raise ValueError("a cycle needs at least one label")
    if len(set(seq)) != len(seq):
        raise ValueError("duplicate label in cycle")
    pivot = min(range(len(seq)), key=lambda i: _reference_key(seq[i]))
    return (seq[pivot:] + seq[:pivot],)


def _reference_map(pairs):
    items = sorted(pairs, key=lambda p: _reference_key(p[0]))
    sources = [a for a, _ in items]
    if len(set(sources)) != len(sources):
        raise ValueError("duplicate source in map")
    if not {b for _, b in items} <= set(sources):
        raise ValueError("map target outside the label set")
    return (tuple(items),)


def _reference_partition(blocks):
    norm = [_reference_labels(b) for b in blocks]
    if any(not b for b in norm):
        raise ValueError("empty block in partition")
    seen = set()
    for b in norm:
        for x in b:
            if x in seen:
                raise ValueError("blocks overlap")
            seen.add(x)
    return (tuple(sorted(norm, key=lambda b: _reference_key(b[0]))),)


def _reference_block(members):
    ms = tuple(sorted(members, key=_reference_key))
    if not ms:
        raise ValueError("a block needs at least one member")
    if len(set(ms)) != len(ms):
        raise ValueError("duplicate member in block")
    return ms, (2, tuple(map(_reference_key, ms)))


#: kind: (constructor, what a full sort stored for its arguments)
_BUILT = {
    "set": (SetTerm, lambda labels: (_reference_labels(labels),)),
    "subset": (SubsetTerm, _reference_subset),
    "cycle": (CycleTerm, _reference_cycle),
    "map": (MapTerm, _reference_map),
    "partition": (PartitionTerm, _reference_partition),
    "block": (Block, _reference_block),
}


# Integers whose codes sort apart from their values, strings, stars and
# blocks (one nested): every class of label_sort_key.
_ORDERED_POOL = [9, 10, 100, 11, 0, "a", "b", "é", 'q"', "a!", STAR,
                 STAR * 2, Block([9, 10]), Block(["x"]),
                 Block([Block([100]), "y"])]


@st.composite
def _constructor_input(draw, kind, labels, fault):
    """Arguments for kind's constructor on labels in canonical order, with
    fault (duplicate, outside, overlap, empty) worked in when one is drawn
    that kind can refuse."""
    labels = sorted(labels, key=_reference_key)
    if kind in ("set", "block"):
        if fault == "duplicate" and labels:
            at = draw(st.integers(0, len(labels) - 1))
            labels.insert(at, labels[at])
        return (labels,)
    if kind == "subset":
        members, rest = draw(_split(labels))
        members, rest = list(members), list(rest)
        if fault in ("duplicate", "overlap") and members:
            rest = sorted(rest + [members[0]], key=_reference_key)
        return members, rest
    if kind == "cycle":
        seq = labels[:1] + draw(st.permutations(labels[1:]))
        if fault == "duplicate" and seq:
            seq.append(draw(st.sampled_from(seq)))
        return (seq,)
    if kind == "map":
        images = st.sampled_from(labels) if labels else st.nothing()
        pairs = list(zip(labels, draw(st.lists(
            images, min_size=len(labels), max_size=len(labels)))))
        if fault == "duplicate" and pairs:
            at = draw(st.integers(0, len(pairs) - 1))
            pairs.insert(at + 1, (pairs[at][0], pairs[0][1]))
        elif fault == "outside" and pairs:
            at = draw(st.integers(0, len(pairs) - 1))
            pairs[at] = (pairs[at][0], "zz")
        return (pairs,)
    blocks = [list(b) for b in draw(_blocks(labels))] if labels else []
    blocks.sort(key=lambda b: _reference_key(b[0]))
    if fault == "overlap" and len(blocks) > 1:
        blocks[1] = sorted(blocks[1] + [blocks[0][0]], key=_reference_key)
    elif fault == "duplicate" and blocks:
        blocks[0].append(blocks[0][-1])
    elif fault == "empty":
        blocks.insert(draw(st.integers(0, len(blocks))), [])
    return (blocks,)


@st.composite
def _shuffled(draw, kind, args):
    """The same arguments in another order: each list shuffled, a cycle
    rotated."""
    if kind == "cycle":
        [seq] = args
        at = draw(st.integers(0, max(len(seq) - 1, 0)))
        return (seq[at:] + seq[:at],)
    if kind == "partition":
        [blocks] = args
        blocks = [draw(st.permutations(b)) for b in blocks]
        return (draw(st.permutations(blocks)),)
    return tuple(draw(st.permutations(arg)) for arg in args)


def _fields(made):
    if isinstance(made, Block):
        return made.members, made.key
    return tuple(getattr(made, attr) for _, attr, _ in made.fields)


def _written(made):
    """What made stores, its encode() and its --json text (a block's
    member list texts)."""
    if isinstance(made, Block):
        return _fields(made), made.code(), made.text()
    return _fields(made), made.encode(), _dumped(made)


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(sorted(_BUILT)),
    labels=st.lists(st.sampled_from(_ORDERED_POOL), unique=True, max_size=6),
    fault=st.sampled_from([None, None, "duplicate", "outside", "overlap",
                           "empty"]),
    in_walk=st.booleans(),
    data=st.data(),
)
def test_canonical_and_shuffled_input_build_the_same_term(
    kind, labels, fault, in_walk, data
):
    """Each constructor stores what a full sort of its input stored, or
    raises the same exception with the same message, whether the input
    arrives in canonical order (checked and kept) or shuffled (sorted),
    outside a walk or in an open one whose label tables come to hold the
    labels; and the terms built both ways write the same encode() and
    --json text."""
    cls, reference = _BUILT[kind]
    args = data.draw(_constructor_input(kind, labels, fault))
    shuffled = data.draw(_shuffled(kind, args))
    with _Walk() if in_walk else contextlib.nullcontext():
        want = _outcome(lambda: reference(*args))
        for given_args in (args, shuffled):
            assert _outcome(lambda: _fields(cls(*given_args))) == want
        assert _outcome(lambda: _written(cls(*args))) == _outcome(
            lambda: _written(cls(*shuffled))
        )


def test_a_tuple_in_canonical_order_is_kept_as_given():
    labels = (9, 10, 100, "a", Block(["x"]), STAR)
    assert SetTerm(labels).members is labels
    assert CycleTerm(labels).seq is labels
    first, second = (9, 100), (10, "a")
    assert PartitionTerm([second, first]).blocks == (first, second)
    assert PartitionTerm([first, second]).blocks[0] is first


# -- the label tables ------------------------------------------------------

def _runs_kept():
    """Every run the two run tables keep."""
    return [*structures._RUN_CODES, *structures._RUN_TEXTS]


def test_the_label_tables_are_empty_after_a_listing():
    found = enumerate_structures(parse_expr("E(C) + S + Part"), None,
                                 [9, 10, "a"])
    assert found and _tables_empty()


def test_the_label_tables_stay_empty_outside_a_walk():
    """Public constructors, encode(), decode_structure and transport run
    outside any walk leave nothing in the label tables."""
    for i in range(1000):
        graph = GraphTerm([Block([i, "a"]), Block([i + 1000])], [])
        graph.encode()
    decoded = decode_structure(graph.to_json())
    assert decoded == graph
    moved = transport(None, None, SetTerm([1, 2]),
                      Bijection({1: "b", 2: "c"}))
    assert moved.encode() == '{"kind":"set","labels":["b","c"]}'
    for term in (MapTerm([(1, 2), (2, 1)]), PartitionTerm([[1, "a"], [2]]),
                 DigraphTerm([1, 2], [(1, 2), (2, 2)])):
        term.encode()
        _dumped(term)
    assert _tables_empty()


def test_the_code_table_keeps_no_block_alive():
    with _Walk():
        block = Block([1, "a"])
        alive = weakref.ref(block)
        SetTerm([Block([2]), block]).encode()
        PartitionTerm([[block, 3]]).encode()
        CycleTerm([block, Block([0])]).encode()
        # A map and a partition on blocks, and runs that mix a block with
        # an int, in both run tables.
        for term in (
            MapTerm([(block, Block([0])), (Block([0]), block)]),
            PartitionTerm([[block], [Block([0]), Block([5])]]),
            PartitionTerm([[block, 3], [4]]),
            MapTerm([(3, 3), (block, 3)]),
        ):
            term.encode()
            _dumped(term)
        assert structures._CODES
        assert all(type(label) in (int, str) for label in structures._CODES)
        assert _runs_kept() and all(
            type(label) in (int, str) for run in _runs_kept() for label in run
        )
        del block, term
        assert alive() is None


def test_a_walk_writes_vertex_lists_and_blocks_from_the_run_tables(capsys):
    """In an open walk every graph's and digraph's vertex list, and every
    block's member list, is written from the run tables, and the bytes
    are json.dumps's."""
    with _Walk() as walk:
        found = [
            *enumerate_structures(parse_expr("Gra"), None, [1, 2, 3, 4],
                                  walk=walk),
            *enumerate_structures(parse_expr("Gro"), None, [1, 2, 3],
                                  walk=walk),
        ]
        cli._write_json_listing(found)
        assert capsys.readouterr().out == json.dumps(
            [term.to_json() for term in found]) + "\n"
        assert {term.vertices for term in found} == {(1, 2, 3, 4), (1, 2, 3)}
        assert all(term.vertices in structures._RUN_TEXTS for term in found)
        block = Block([3, "a", 1])
        assert block.code() is structures._RUN_CODES[(1, 3, "a")]
        assert block.text() is structures._RUN_TEXTS[(1, 3, "a")]
        assert block.text() == '["1", "3", "a"]'
    assert _tables_empty()


def test_each_label_is_keyed_as_its_own_type():
    """1.0 and True equal 1; each is still keyed as itself."""
    keys = structures._label_keys([1.0, True, 1])
    assert keys == [label_sort_key(1.0), label_sort_key(True), (0, 1)]
    assert [type(key[1]) for key in keys] == [float, bool, int]
    # 1.0 sorts as a string-class label, after every integer.
    assert SetTerm([1.0, 2]).members == (2, 1.0)
    assert CycleTerm([1.0, 2]).seq == (2, 1.0)


def test_a_bool_label_leaves_no_code_for_its_int_twin():
    """True equals 1, but the code table of an open walk does not keep
    it, so a listing on 1 in that walk writes 1 as itself, in encode()
    order."""
    with _Walk():
        SetTerm([True, 2]).encode()
        found = enumerate_structures(parse_expr("L"), None, [1, 2])
        assert [term.encode() for term in found] == [
            '{"kind":"list","labels":["1","2"]}',
            '{"kind":"list","labels":["2","1"]}',
        ]


@pytest.mark.parametrize("twin", [True, 1.0])
def test_a_bool_or_float_run_leaves_no_text_for_its_int_twin(twin):
    """(True, 2) and (1.0, 2) equal (1, 2), but the run tables of an open
    walk keep no run holding them, so maps and partitions listed on 1 and
    2 in that walk write 1 as itself, in encode() order."""
    with _Walk():
        for term in (MapTerm([(twin, 2), (2, twin)]),
                     PartitionTerm([[twin, 2]]),
                     PartitionTerm([[twin], [2]])):
            term.encode()
            _dumped(term)
        assert all(type(label) in (int, str)
                   for run in _runs_kept() for label in run)
        maps = enumerate_structures(parse_expr("S"), None, [1, 2])
        parts = enumerate_structures(parse_expr("Part"), None, [1, 2])
        assert [term.encode() for term in maps + parts] == [
            '{"kind":"map","pairs":[["1","1"],["2","2"]]}',
            '{"kind":"map","pairs":[["1","2"],["2","1"]]}',
            '{"blocks":[["1","2"]],"kind":"partition"}',
            '{"blocks":[["1"],["2"]],"kind":"partition"}',
        ]
        for term in maps + parts:
            assert _dumped(term) == json.dumps(term.to_json())
    assert _tables_empty()


def test_a_float_label_leaves_no_code_for_its_int_twin():
    with _Walk():
        SetTerm([2, 1.0]).encode()
        assert SetTerm([1, 2]).encode() == (
            '{"kind":"set","labels":["1","2"]}'
        )
        assert all(type(label) in (int, str) for label in structures._CODES)


def test_a_float_label_writes_itself_after_its_int_twin():
    assert SetTerm([1, 2]).encode() == '{"kind":"set","labels":["1","2"]}'
    assert SetTerm([1.0, 2]).encode() == (
        '{"kind":"set","labels":["2","1.0"]}'
    )


# -- one label-set object per set ---------------------------------------------

def _subterms(term):
    """Every term and block a term holds, itself included."""
    todo = [term]
    while todo:
        item = todo.pop()
        if isinstance(item, structures.Structure):
            yield item
            todo.extend(getattr(item, attr) for _, attr, _ in item.fields)
        elif isinstance(item, Block):
            yield item
            todo.extend(item.members)
        elif isinstance(item, tuple):
            todo.extend(item)


class TestSharedLabelSets:
    @pytest.mark.parametrize("text,labels", [
        ("A", range(1, 6)), ("B", range(1, 5)), ("C'", range(1, 6)),
        ("E(C)", ["a", "b", "c", "d"]), ("L*Part", range(1, 6)),
    ])
    def test_equal_sets_are_one_object_within_a_listing(self, text, labels):
        env = parse_defs("A = X*E(A)\nB = 1 + X*B^2\n")
        found = enumerate_structures(parse_expr(text), env, labels)
        assert found
        assert _tables_empty()
        kept = {}
        for term in found:
            for sub in _subterms(term):
                if isinstance(sub, Block):
                    got = sub.member_set
                else:
                    got = getattr(sub, "_labels", None)
                    if got is None:
                        continue
                kept.setdefault(got, set()).add(id(got))
        assert kept
        assert all(len(ids) == 1 for ids in kept.values())

    def test_labels_equal_the_set_built_from_scratch(self):
        env = parse_defs("A = X*E(A)\n")
        expr = parse_expr("pt(A)+E(C)'")
        found = enumerate_structures(expr, env, range(1, 5))
        for term in found:
            for sub in _subterms(term):
                if isinstance(sub, Block):
                    assert sub.member_set == frozenset(sub.members)
                else:
                    fresh = decode_structure(sub.to_json())
                    assert sub.labels() == fresh.labels()
        assert _tables_empty()


# -- public constructors refusing what listings check once ----------------

def _digraph(*arcs):
    return DigraphTerm((1, 2, "a"), arcs)


def _graph(*edges):
    return GraphTerm((1, 2, "a"), edges)


def _assignment(*pairs):
    """The Assignment of pairs, each formed by Assignment.pair, given in
    block order, each put before the others by Assignment.listed."""
    found = structures.Assignment()
    for block, inner in reversed(pairs):
        (found,) = structures.Assignment.listed(
            [structures.Assignment.pair(block, inner)], [found]
        )
    return found


_B1, _B23, _B2 = Block([1]), Block([2, 3]), Block([2])

# Each refusal of a public constructor that a bulk builder also makes, from
# the same check: the constructor on the parts, and the exception type and
# message it raises.
EXTENSION_REFUSED = {
    "duplicate arc": (
        lambda: _digraph((1, 2), (1, 2)),
        ValueError, "duplicate arc",
    ),
    "arc endpoint outside": (
        lambda: _digraph((1, 2), (2, 3)),
        ValueError, "arc endpoint outside the vertex set",
    ),
    "duplicate edge": (
        lambda: _graph((1, 2), (1, 2)),
        ValueError, "duplicate edge",
    ),
    "edge loop": (
        lambda: _graph((1, 2), (2, 2)),
        ValueError, "a simple graph has no loops",
    ),
    "edge endpoint outside": (
        lambda: _graph((1, 2), (2, 3)),
        ValueError, "edge endpoint outside the vertex set",
    ),
    "overlapping block": (
        lambda: CompTerm(
            SetTerm([_B1, Block([1, 2])]),
            [(_B1, SetTerm([1])), (Block([1, 2]), SetTerm([1, 2]))],
        ),
        ValueError, "blocks overlap",
    ),
    "inner term not on its block": (
        lambda: CompTerm(SetTerm([_B23]), [(_B23, SetTerm([2]))]),
        ValueError, "inner structure is not on its block",
    ),
    "key that is not a block": (
        lambda: CompTerm(SetTerm([1]), [(1, SetTerm([1]))]),
        TypeError, "assignment keys must be blocks",
    ),
    "outer term off the blocks": (
        lambda: CompTerm(SetTerm([_B1]), [
            (_B1, SetTerm([1])), (_B2, SetTerm([2]))]),
        ValueError, "outer structure is not on the block set",
    ),
}


@pytest.mark.parametrize("case", sorted(EXTENSION_REFUSED))
def test_extension_refusals(case):
    """Each public constructor refuses these parts with the exact exception
    type and message."""
    public, error, message = EXTENSION_REFUSED[case]
    with pytest.raises(error) as refused:
        public()
    assert str(refused.value) == message


def test_what_a_step_refuses_the_public_constructor_puts_in_order():
    assert _digraph((2, 1), (1, 2)).arcs == ((1, 2), (2, 1))
    assert _graph((2, "a"), (1, "a")).edges == ((1, "a"), (2, "a"))
    assert _graph((2, 1)).edges == ((1, 2),)
    assert SubsetTerm([2, 1], []).members == (1, 2)
    term = CompTerm(SetTerm([_B1, _B23]),
                    [(_B23, SetTerm([2, 3])), (_B1, SetTerm([1]))])
    assert term.assign == ((_B1, SetTerm([1])), (_B23, SetTerm([2, 3])))


def test_a_comp_term_on_an_assignment_equals_the_public_one():
    inners = [(_B1, ListTerm([1])), (_B23, CycleTerm([3, 2]))]
    outer = ListTerm([_B23, _B1])
    assign = _assignment(*inners)
    (built,) = structures._comp_terms([assign], {assign.blocks: [outer]})
    want = CompTerm(outer, inners[::-1])
    assert built == want and built.encode() == want.encode()
    assert built.labels() == want.labels() == frozenset({1, 2, 3})


# -- subsets, graphs, digraphs and assignments built in bulk ---------------

_VERTS = (1, 2, "a")
_B3 = Block([3])

# Each refusal of a check a bulk builder makes once: the builder, the
# public constructor given the same parts (None where it sorts or turns what
# the builder refuses, or has no such check), the exception type and the
# message both raise.
BULK_REFUSED = {
    "listed arc endpoint outside": (
        lambda: DigraphTerm.listed(_VERTS, [(1, 2), (2, 3)]),
        lambda: _digraph((1, 2), (2, 3)),
        ValueError, "arc endpoint outside the vertex set",
    ),
    "listed duplicate arc": (
        lambda: DigraphTerm.listed(_VERTS, [(1, 2), (1, 2)]),
        lambda: _digraph((1, 2), (1, 2)),
        ValueError, "duplicate arc",
    ),
    "listed arcs out of order": (
        lambda: DigraphTerm.listed(_VERTS, [(2, 1), (1, 2)]),
        None,
        ValueError, "arc out of order",
    ),
    "listed edge loop": (
        lambda: GraphTerm.listed(_VERTS, [(1, 2), (2, 2)]),
        lambda: _graph((1, 2), (2, 2)),
        ValueError, "a simple graph has no loops",
    ),
    "listed edge endpoint outside": (
        lambda: GraphTerm.listed(_VERTS, [(1, 2), (2, 3)]),
        lambda: _graph((1, 2), (2, 3)),
        ValueError, "edge endpoint outside the vertex set",
    ),
    "listed turned edge": (
        lambda: GraphTerm.listed(_VERTS, [(2, 1)]),
        None,
        ValueError, "edge out of order",
    ),
    "listed duplicate edge": (
        lambda: GraphTerm.listed(_VERTS, [(1, 2), (1, 2)]),
        lambda: _graph((1, 2), (1, 2)),
        ValueError, "duplicate edge",
    ),
    "listed edges out of order": (
        lambda: GraphTerm.listed(_VERTS, [(2, "a"), (1, "a")]),
        None,
        ValueError, "edge out of order",
    ),
    "listed subset labels out of order": (
        lambda: SubsetTerm.listed([2, 1]),
        None,
        ValueError, "subset members out of order",
    ),
    "listed subset label twice": (
        lambda: SubsetTerm.listed([1, "a", "a"]),
        None, ValueError, "subset members out of order",
    ),
    "listed key that is not a block": (
        lambda: structures.Assignment.listed(
            [(1, SetTerm([1]))], [structures.Assignment()]
        ),
        lambda: CompTerm(SetTerm([1]), [(1, SetTerm([1]))]),
        TypeError, "assignment keys must be blocks",
    ),
    "listed pairs on two blocks": (
        lambda: structures.Assignment.listed(
            [(_B1, SetTerm([1])), (_B2, SetTerm([2]))],
            [structures.Assignment()],
        ),
        None, ValueError, "assignment pairs do not share one block",
    ),
    "listed block meeting a tail": (
        lambda: structures.Assignment.listed(
            [(_B1, SetTerm([1]))],
            [_assignment((_B2, SetTerm([2]))),
             _assignment((Block([1, 2]), SetTerm([1, 2])))],
        ),
        lambda: CompTerm(
            SetTerm([_B1, Block([1, 2])]),
            [(_B1, SetTerm([1])), (Block([1, 2]), SetTerm([1, 2]))],
        ),
        ValueError, "blocks overlap",
    ),
    "listed block after a tail's first": (
        lambda: structures.Assignment.listed(
            [(_B23, SetTerm([2, 3]))],
            [_assignment((_B1, SetTerm([1])))],
        ),
        None, ValueError, "blocks out of order",
    ),
    "listed inner term off its block": (
        lambda: structures.Assignment.pair(_B23, SetTerm([2])),
        lambda: CompTerm(SetTerm([_B23]), [(_B23, SetTerm([2]))]),
        ValueError, "inner structure is not on its block",
    ),
    "listed outer terms off the blocks": (
        lambda: structures._comp_terms([], {
            _assignment((_B1, SetTerm([1])), (_B2, SetTerm([2]))).blocks:
                [SetTerm([_B1, _B2]), SetTerm([_B1])],
        }),
        lambda: CompTerm(SetTerm([_B1]), [
            (_B1, SetTerm([1])), (_B2, SetTerm([2]))]),
        ValueError, "outer structure is not on the block set",
    ),
    "listed outer term that keeps no label set yet": (
        lambda: structures._comp_terms([], {
            frozenset({_B1, _B2}): [SetTerm([_B1, _B2]), ListTerm([_B1])],
        }),
        None, ValueError, "outer structure is not on the block set",
    ),
}


@pytest.mark.parametrize("case", sorted(BULK_REFUSED))
def test_bulk_refusals(case):
    """Each check a bulk builder makes once refuses what it must, with the
    exception type and message of the public constructor where that checks
    the same parts."""
    bulk, step, error, message = BULK_REFUSED[case]
    with pytest.raises(error) as refused:
        bulk()
    assert str(refused.value) == message
    if step is not None:
        with pytest.raises(error) as refused:
            step()
        assert str(refused.value) == message


def _publicly_built(cls, labels, items, size=None):
    """The public constructor's terms on every sublist of items (only those
    of length size, when given), each given in reverse order, sorted by
    encoding: the listing the bulk builders must make."""
    chosen = [
        c[::-1] for k in range(len(items) + 1)
        for c in combinations(items, k) if size is None or k == size
    ]
    if cls is SubsetTerm:
        terms = [SubsetTerm(c, set(labels) - set(c)) for c in chosen]
    else:
        terms = [cls(labels, c) for c in chosen]
    return sorted(terms, key=lambda t: t.encode())


def _same_bulk_terms(built, want):
    """built equals want term by term, in order, equality, hash, encoding
    and label set."""
    assert len(built) == len(want)
    for mine, theirs in zip(built, want):
        assert mine == theirs
        assert hash(mine) == hash(theirs)
        assert mine.encode() == theirs.encode()
        assert mine.labels() == theirs.labels()


@pytest.mark.parametrize("labels", [
    (1, 2, 3, 4), ("a", "b", "c", "d"), (9, 10, 100),
], ids=["int", "str", "mixed-code"])
@pytest.mark.parametrize("text", ["Gra", "Gro", "P", "Pk[2]"])
def test_bulk_built_terms_equal_the_step_built_ones(text, labels):
    """The bulk builders list the terms the public constructors build, in
    encode() order, and every term shares one label set."""
    if text == "Gro":
        labels = labels[:3]
    if text == "Gra":
        edges = list(combinations(labels, 2))
        built = GraphTerm.listed(labels, edges)
        want = _publicly_built(GraphTerm, labels, edges)
    elif text == "Gro":
        arcs = list(product(labels, repeat=2))
        built = DigraphTerm.listed(labels, arcs)
        want = _publicly_built(DigraphTerm, labels, arcs)
    else:
        size = 2 if text == "Pk[2]" else None
        built = SubsetTerm.listed(labels, size)
        want = _publicly_built(SubsetTerm, labels, labels, size)
    _same_bulk_terms(built, want)
    assert len({id(t.labels()) for t in built}) == 1
    listed = enumerate_structures(parse_expr(text), None, labels)
    _same_bulk_terms(listed, want)


@pytest.mark.parametrize("size,members", [
    (-1, []), (0, [()]), (2, [(1, 2), (1, 3), (2, 3)]), (3, [(1, 2, 3)]),
    (4, []),
])
def test_bulk_built_subsets_of_one_size(size, members):
    """Subsets of a size out of reach are none, not a failed walk."""
    assert SubsetTerm.listed((1, 2, 3), size) == [
        SubsetTerm(m, {1, 2, 3} - set(m)) for m in members
    ]


def _json_order_key(codes):
    """A sublist's place in the order of JSON lists: element by element,
    elements by code, and a list after its extensions ("," sorts before
    "]")."""
    return lambda sub: [(0, codes[i]) for i in sub] + [(1,)]


def _sublists(items, sizes):
    """Every sublist of items whose length is in sizes (any, on None)."""
    return [sub for k in range(len(items) + 1)
            for sub in combinations(items, k) if sizes is None or k in sizes]


@settings(max_examples=300, deadline=None)
@given(
    codes=st.lists(st.text("ab!", max_size=3), unique=True, max_size=10),
    size=st.none() | st.integers(min_value=-1, max_value=11),
)
def test_list_order_joins_every_sublist_once_in_json_order(codes, size):
    """_list_order gives the masks of the sublists, sorted as their JSON
    lists, the same over any bit units, and the chunk decoder turns each
    back into its sublist and its complement, on more than 8 items too."""
    items = tuple(range(len(codes)))
    want = sorted(_sublists(items, None if size is None else {size}),
                  key=_json_order_key(codes))
    masks = structures._list_order(codes, size)
    chunks = structures._chunk_tables(list(zip(items)), ())
    full = (1 << len(items)) - 1
    assert [structures._decode(chunks, m) for m in masks] == want
    assert [structures._decode(chunks, full ^ m) for m in masks] == [
        tuple(i for i in items if i not in s) for s in want
    ]
    shifted = structures._list_order(codes, size, [2 << i for i in items])
    assert shifted == [m << 1 for m in masks]


_SPLIT_LABEL = st.integers(0, 120) | st.text("ab!", min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(_SPLIT_LABEL, unique=True, max_size=10),
    sizes=st.none() | st.sets(st.integers(-1, 11), max_size=3),
)
def test_splits_give_each_sublist_and_its_complement(labels, sizes):
    """_splits gives the sublists of a label tuple whose length is in sizes,
    each with the other labels, in the order of the sublists' JSON lists,
    by one length or by several, up to 8 labels and past them."""
    labels = tuple(labels)
    codes = [structures.label_code(x) for x in labels]
    at = {x: i for i, x in enumerate(labels)}
    order = _json_order_key(codes)
    want = sorted(_sublists(labels, sizes),
                  key=lambda sub: order([at[x] for x in sub]))
    assert structures._splits(labels, sizes) == [
        (s, tuple(x for x in labels if x not in s)) for s in want
    ]


@pytest.mark.parametrize("cls,labels", [
    (GraphTerm, [2, 10, "a", "b"]), (GraphTerm, ["b", 10, "a!", 2, "a"]),
    (DigraphTerm, [2, 10, "a"]), (DigraphTerm, ["b", 10, 2]),
], ids=["graph", "graph-5", "digraph", "digraph-turned"])
def test_masked_graphs_equal_their_public_twins(cls, labels):
    """On labels whose sort keys and codes order them differently, every
    listed graph or digraph equals and hashes as the term the public
    constructor builds from its pairs, given reversed and (edges) turned,
    and both hold the same mask; the pairs decode to the listing's own
    pair objects, and back to the mask through JSON."""
    text = "Gra" if cls is GraphTerm else "Gro"
    listed = enumerate_structures(parse_expr(text), None, labels)
    every = {id(p) for p in listed[0]._table.pairs()}
    twins = []
    for term in listed:
        pairs = term.pairs
        assert {id(p) for p in pairs} <= every
        turned = [p[::-1] for p in pairs] if cls is GraphTerm else pairs
        twin = cls(labels[::-1], turned[::-1])
        assert (twin == term, hash(twin), twin.mask, twin.pairs) == (
            True, hash(term), term.mask, pairs)
        assert decode_structure(json.loads(term._text({}))).mask == term.mask
        twins.append(twin)
    assert set(twins) == set(listed)
    assert len(set(listed)) == len(listed)


def test_threads_reading_one_table_at_once_read_whole_chunk_tables():
    """Threads that decode and write masks on one fresh listing table at
    once, each building its chunk tables if none is there yet, all read
    what a table of its own gives: no thread finds a table half built."""
    vertices = tuple(range(1, 9)) + ("a", "b")
    masks = [0, 1, 2**45 - 1, 0b1011 << 20, 2**44 | 5]
    runs = (structures._RUN_CODES, structures._RUN_TEXTS)

    def read(table):
        return [(table.decode(m), *[table.write(m, r) for r in runs])
                for m in masks]

    want = read(structures._VertexTable(vertices, False, listing=True))
    for _ in range(20):
        table = structures._VertexTable(vertices, False, listing=True)
        start = threading.Barrier(4)
        got = []

        def race():
            start.wait(timeout=30)
            got.append(read(table))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=race) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 4


def test_bulk_built_assignments_equal_the_step_built_ones():
    """Assignment.listed builds, pair by pair and tail by tail, each pair
    put before each tail, each tail's block and label sets with the block
    formed once for all the pairs; comp terms on them equal the ones
    CompTerm builds from the pairs given in reverse block order."""
    pairs = [
        structures.Assignment.pair(_B1, inner)
        for inner in (SetTerm([1]), ListTerm([1]), CycleTerm([1]))
    ]
    tails = [
        structures.Assignment(),
        _assignment((_B2, SetTerm([2]))),
        _assignment((_B23, CycleTerm([3, 2]))),
        _assignment((_B2, SetTerm([2])), (_B3, ListTerm([3]))),
    ]
    built = structures.Assignment.listed(pairs, tails)
    want = [(pair,) + tail.pairs for pair in pairs for tail in tails]
    assert len(built) == len(want) == 12
    for mine, theirs in zip(built, want):
        assert mine.pairs == theirs
        assert mine.blocks == frozenset(block for block, _ in theirs)
        assert mine.labels == frozenset().union(
            *(block.members for block, _ in theirs)
        )
        outer = SetTerm(mine.blocks)
        (term,) = structures._comp_terms([mine], {mine.blocks: [outer]})
        public = CompTerm(outer, theirs[::-1])
        assert term == public and term.encode() == public.encode()
        assert term.labels() == public.labels()
    for at in range(len(tails)):
        column = built[at::len(tails)]
        assert len({id(a.blocks) for a in column}) == 1
        assert len({id(a.labels) for a in column}) == 1
    assert structures.Assignment.listed([], tails) == []
    assert structures.Assignment.listed(pairs, []) == []


def _relabelled_labels(term):
    """The labels other than stars that term.relabel passes to its
    function: the term's label set, found without reading _labels."""
    seen = set()

    def record(label):
        seen.add(label)
        return label

    term.relabel(record)
    return frozenset(label for label in seen if not is_star(label))


# One listing per primitive kind and per composite kind, each built by its
# bulk builder; sets are listed for every primitive that makes one.
LISTED_KINDS = [
    ("set", "1", []), ("set", "X", ["a"]), ("set", "E", [1, "a", 10]),
    ("set", "Ep", [1, "a"]), ("set", "Ek[2]", [1, "a"]),
    ("subset", "P", [1, "a", 10]), ("subset", "Pk[1]", [1, "a", 10]),
    ("list", "L", [1, "a", 10]), ("cycle", "C", [1, "a", 10]),
    ("map", "S", [1, "a", 10]), ("map", "Der", [1, "a", 10]),
    ("map", "Inv", [1, "a", 10]), ("map", "End", [1, "a"]),
    ("graph", "Gra", [1, "a", 10]), ("digraph", "Gro", [1, "a", 10]),
    ("partition", "Part", [1, "a", 10]), ("sum", "X+L", [1, "a"]),
    ("prod", "X*L", [1, "a", 10]), ("comp", "E(C)", [1, "a", 10]),
    ("deriv", "L'", [1, "a"]), ("point", "pt(C)", [1, "a", 10]),
    ("named", "A", [1, "a", 10]),
]


def test_every_term_has_its_label_slot_set():
    """Every way a term is built fixes its label set there: its public
    constructor, decode_structure and the bulk builder a listing runs.  No
    term or subterm keeps None, and each set is the labels relabel reaches,
    stars excluded (a subterm inside a derivative also keeps its stars)."""
    ways = {"public": [], "decoded": [], "bulk": []}
    for term in TERMS.values():
        ways["public"].append(term)
        ways["decoded"].append(decode_structure(term.to_json()))
    env = parse_defs("A = X*E(A)\n")
    for kind, text, labels in LISTED_KINDS:
        found = enumerate_structures(parse_expr(text), env, labels)
        assert found and {term.kind for term in found} == {kind}, text
        ways["bulk"] += found
    for way, terms in ways.items():
        assert {term.kind for term in terms} == set(TERMS), way
        for term in terms:
            assert term.labels() == _relabelled_labels(term), (way, term)
            for sub in _subterms(term):
                if isinstance(sub, Block):
                    continue
                assert sub._labels is not None, (way, sub)
                labels = sub.labels()
                assert type(labels) is frozenset, (way, sub)
                assert labels - {l for l in labels if is_star(l)} == (
                    _relabelled_labels(sub)
                ), (way, sub)


# -- products on a split and maps on a source tuple, checked once ----------

# Each refusal of a builder that checks a shared part once: the step, the
# public constructor given the same parts (None where it accepts them), the
# exception type and the message.
CHECKED_ONCE_REFUSED = {
    "split parts that meet": (
        lambda: structures.ProductSplit((1, 2), (2, 3), [SetTerm([2, 3])]),
        lambda: ProdTerm(SetTerm([1, 2]), SetTerm([2, 3])),
        ValueError, "product parts share labels",
    ),
    "right factor off its labels": (
        lambda: structures.ProductSplit((1,), (2, 3), [
            SetTerm([2, 3]), SetTerm([2])]),
        None, ValueError, "right factor is not on its labels",
    ),
    "right factor that keeps no label set yet": (
        lambda: structures.ProductSplit((1,), (2, 3), [ListTerm([3])]),
        None, ValueError, "right factor is not on its labels",
    ),
    "left factor off its labels": (
        lambda: structures.ProductSplit(
            (1,), (2,), [SetTerm([2])]
        ).products(SetTerm([1, 3])),
        None, ValueError, "left factor is not on its labels",
    ),
    "sources out of order": (
        lambda: structures.MapSources((2, 1)),
        None, ValueError, "map sources out of order",
    ),
    "a source twice": (
        lambda: structures.MapSources((1, 1)),
        None, ValueError, "map sources out of order",
    ),
    "image outside the sources": (
        lambda: structures.MapSources((1, 2)).maps([(2, 1), (1, 3)]),
        lambda: MapTerm([(1, 1), (2, 3)]),
        ValueError, "map target outside the label set",
    ),
    "image of another length": (
        lambda: structures.MapSources((1, 2)).maps([(1,)]),
        None, ValueError, "map needs one target per source",
    ),
}


@pytest.mark.parametrize("case", sorted(CHECKED_ONCE_REFUSED))
def test_checked_once_refusals(case):
    """Each check a split or a source tuple makes once refuses what it
    must, with the exception type and message of the public constructor
    where that refuses the same parts."""
    step, public, error, message = CHECKED_ONCE_REFUSED[case]
    with pytest.raises(error) as refused:
        step()
    assert str(refused.value) == message
    if public is not None:
        with pytest.raises(error) as refused:
            public()
        assert str(refused.value) == message


def test_terms_on_a_split_or_sources_equal_the_public_ones():
    """Products of a split and maps on a source tuple equal the terms the
    public constructors build, and share one label set."""
    rights = [ListTerm([3, "a"]), ListTerm(["a", 3])]
    split = structures.ProductSplit((1, 10), (3, "a"), rights)
    left = SetTerm([10, 1])
    built = split.products(left)
    assert built == [ProdTerm(left, r) for r in rights]
    assert [t.encode() for t in built] == [
        ProdTerm(left, r).encode() for r in rights
    ]
    assert built[0].labels() is built[1].labels() is split.labels
    assert split.labels == frozenset({1, 10, 3, "a"})
    sources = structures.MapSources((1, 10, "a"))
    images = [(10, "a", 1), (1, 1, 1)]
    maps = sources.maps(images)
    assert maps == [MapTerm([("a", 1), (10, "a"), (1, 10)]),
                    MapTerm([("a", 1), (10, 1), (1, 1)])]
    assert [hash(m) for m in maps] == [
        hash(MapTerm(list(zip((1, 10, "a"), image))[::-1])) for image in images
    ]
    assert maps[0].labels() is maps[1].labels() is sources.targets


# -- lists, cycles, partitions and wrapped terms, checked once -------------

_ON = structures.MapSources
_KEPT_OFF = ListTerm([1, 3])  # keeps its own set, not the tuple's one

# Each refusal of a check made once for a list of terms: the step, the
# public constructor given the same parts (None where it accepts them or
# refuses them for another reason), the exception type and the message.
WRAPPED_REFUSED = {
    "list order missing a label": (
        lambda: _ON((1, 2, 3)).lists((1, 2)),
        None, ValueError, "list does not hold each label once",
    ),
    "list order with a label twice": (
        lambda: _ON((1, 2)).lists((1, 1)),
        None, ValueError, "list does not hold each label once",
    ),
    "list order that holds every label and one twice": (
        lambda: _ON((1, 2)).lists((1, 2, 1)),
        None, ValueError, "list does not hold each label once",
    ),
    "list order with a label off the tuple": (
        lambda: _ON((1, 2)).lists((1, 3)),
        None, ValueError, "list does not hold each label once",
    ),
    "cycle on no label": (
        lambda: _ON(()).cycles(()),
        lambda: CycleTerm(()),
        ValueError, "a cycle needs at least one label",
    ),
    "cycle rest holding the least label": (
        lambda: _ON((1, 2, 3)).cycles((1, 2)),
        None, ValueError, "cycle does not hold each label once",
    ),
    "cycle rest missing a label": (
        lambda: _ON((1, 2, 3)).cycles((2,)),
        None, ValueError, "cycle does not hold each label once",
    ),
    "partition block not a tuple": (
        lambda: _ON((1, 2)).partitions([("12",)]),
        None, TypeError, "a partition block must be a tuple",
    ),
    "empty partition block": (
        lambda: _ON((1,)).partitions([((1,), ())]),
        lambda: PartitionTerm([(1,), ()]),
        ValueError, "empty block in partition",
    ),
    "partition block out of order": (
        lambda: _ON((1, 2)).partitions([((2, 1),)]),
        None, ValueError, "partition block out of order",
    ),
    "partition missing a label": (
        lambda: _ON((1, 2, 3)).partitions([((1,), (2,))]),
        None, ValueError, "partition does not hold each label once",
    ),
    "partition with a label twice": (
        lambda: _ON((1, 2)).partitions([((1, 2), (2,))]),
        None, ValueError, "partition does not hold each label once",
    ),
    "partition with a label off the tuple": (
        lambda: _ON((1, 2)).partitions([((1,), (3,))]),
        None, ValueError, "partition does not hold each label once",
    ),
    "partition blocks out of order": (
        lambda: _ON((1, 2)).partitions([((2,), (1,))]),
        None, ValueError, "partition blocks out of order",
    ),
    "derivative star not the last label": (
        lambda: _ON((1, STAR, STAR * 2)).derivatives(
            STAR, [ListTerm([1, STAR, STAR * 2])]
        ),
        None, ValueError, "derivative star is not its longest label",
    ),
    "derivative point that is no star": (
        lambda: _ON((1, 2)).derivatives(2, [ListTerm([1, 2])]),
        None, ValueError, "derivative star is not its longest label",
    ),
    "derivative of a term off its labels": (
        lambda: _ON((1, STAR)).derivatives(STAR, [
            _ON((1, STAR)).lists((1, STAR))[0], SetTerm([2, STAR]),
        ]),
        None, ValueError, "derivative structure is not on its labels",
    ),
    "derivative of a term that keeps no label set yet": (
        lambda: _ON((1, STAR)).derivatives(STAR, [ListTerm([1, 2])]),
        None, ValueError, "derivative structure is not on its labels",
    ),
    "point off the labels": (
        lambda: _ON((1, 2)).pointed((3,), [SetTerm([1, 2])]),
        lambda: PointTerm(3, SetTerm([1, 2])),
        ValueError, "distinguished point is not a label",
    ),
    "pointed term off its labels": (
        lambda: _ON((1, 2)).pointed((1,), [SetTerm([1, 2]), SetTerm([1])]),
        None, ValueError, "pointed structure is not on its labels",
    ),
    "pointed term that keeps no label set yet": (
        lambda: _ON((1, 2)).pointed((1,), [_KEPT_OFF]),
        None, ValueError, "pointed structure is not on its labels",
    ),
    "sum side": (
        lambda: structures.sum_terms("middle", [SetTerm([1])]),
        lambda: SumTerm("middle", SetTerm([1])),
        ValueError, "side must be 'left' or 'right'",
    ),
    "name that is no string": (
        lambda: structures.named_terms(7, [SetTerm([1])]),
        lambda: NamedTerm(7, SetTerm([1])),
        TypeError, "a name must be a string",
    ),
}


@pytest.mark.parametrize("case", sorted(WRAPPED_REFUSED))
def test_wrapped_and_primitive_refusals(case):
    """Each check a label tuple or a child list makes once refuses what it
    must, with the exception type and message of the public constructor
    where that refuses the same parts."""
    step, public, error, message = WRAPPED_REFUSED[case]
    with pytest.raises(error) as refused:
        step()
    assert str(refused.value) == message
    if public is not None:
        with pytest.raises(error) as refused:
            public()
        assert str(refused.value) == message


def _same_terms(built, want, labels):
    """built equals want term by term, in equality, hash, encoding and
    label set, and every built term keeps the one set labels."""
    assert built == want
    for mine, theirs in zip(built, want):
        assert hash(mine) == hash(theirs)
        assert mine.encode() == theirs.encode()
        assert mine._labels is labels
        assert mine.labels() == theirs.labels()


def test_terms_on_a_label_tuple_equal_the_public_ones():
    """Lists, cycles, partitions, derivatives and pointed terms built on a
    label tuple checked once equal the terms the public constructors
    build, and share the tuple's one label set."""
    on = _ON((1, 10, "a"))
    order = (10, 1, "a")
    _same_terms(on.lists(order),
                [ListTerm(p) for p in permutations(order)], on.targets)
    # The public constructor rotates each cycle to start at 1.
    _same_terms(on.cycles((10, "a")),
                [CycleTerm(["a", 1, 10]), CycleTerm(["a", 10, 1])],
                on.targets)
    parts = [((1,), (10, "a")), ((1, 10, "a"),), ((1, "a"), (10,))]
    _same_terms(on.partitions(parts),
                [PartitionTerm([b[::-1] for b in p][::-1]) for p in parts],
                on.targets)
    pointed = on.pointed(("a", 1), [SetTerm([1, 10, "a"]), ListTerm(order)])
    _same_terms(pointed, [
        PointTerm(at, inner)
        for at in ("a", 1)
        for inner in (SetTerm([1, 10, "a"]), ListTerm(order))
    ], on.targets)
    starred = _ON((1, "a", STAR, STAR * 2))
    inners = starred.lists((STAR * 2, 1, STAR, "a"))[:3]
    derivs = starred.derivatives(STAR * 2, inners)
    _same_terms(derivs, [DerivTerm(t) for t in inners], derivs[0]._labels)
    assert derivs[0].labels() == frozenset({1, "a", STAR})


def test_wrapped_terms_equal_the_public_ones():
    inners = _ON((1, 2)).lists((1, 2))
    for side in ("left", "right"):
        _same_terms(structures.sum_terms(side, inners),
                    [SumTerm(side, t) for t in inners], inners[0]._labels)
    _same_terms(structures.named_terms("F", inners),
                [NamedTerm("F", t) for t in inners], inners[0]._labels)
    assert structures.sum_terms("left", []) == []


# -- refusals no other table reaches ----------------------------------------

class _NoFields(structures.Structure):
    """A term class with no field table, so with no compiled writer."""

    __slots__ = ()
    kind = "no fields"


# Each refusal of label and token parsing, of a JSON pair list, and of
# public constructors no listing runs: the call, the exception type and
# its message.
OTHER_REFUSED = {
    "bool label": (
        lambda: structures.check_label(True),
        ParseError, "True is not a usable label",
    ),
    "float label": (
        lambda: structures.check_label(2.5),
        ParseError, "2.5 is not a usable label",
    ),
    "empty label": (
        lambda: structures.check_label(""),
        ParseError, "'' is not a usable label",
    ),
    "token that is no string": (
        lambda: string_to_label(None),
        ParseError, "None is not a label",
    ),
    "block token with no closing brace": (
        lambda: string_to_label("{1,2"),
        ParseError, "unbalanced block token '{1,2'",
    ),
    "empty block token": (
        lambda: string_to_label("{}"),
        ParseError, "a block cannot be empty",
    ),
    "block token with an unclosed inner block": (
        lambda: string_to_label("{{1}"),
        ParseError, "unbalanced block token '{{1}'",
    ),
    "pair of three labels": (
        lambda: decode_structure({"kind": "map", "pairs": [["1", "1", "1"]]}),
        ParseError, "a pair must be a two-element list",
    ),
    "list with a label twice": (
        lambda: ListTerm([1, 2, 1]),
        ValueError, "duplicate label in list",
    ),
    "derivative with no star": (
        lambda: DerivTerm(SetTerm([1])),
        ValueError, "derivative structure is missing its star point",
    ),
    "writer of a class with no field table": (
        lambda: _NoFields()._text({}),
        NotImplementedError, "",
    ),
    "sort parts of a class with no field table": (
        lambda: _NoFields()._sort_parts(None),
        NotImplementedError, "",
    ),
}


@pytest.mark.parametrize("case", sorted(OTHER_REFUSED))
def test_other_refusals(case):
    build, error, message = OTHER_REFUSED[case]
    with pytest.raises(error) as refused:
        build()
    assert str(refused.value) == message
