"""Each term kind's JSON, sort parts, --json text, decoder and relabelling,
checked against one another on a hand-built term of every kind."""

import json

import pytest

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
