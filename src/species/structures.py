"""Canonical terms for labeled structures.

Every structure a species puts on a label set is represented by a term built
from the constructors below.  Construction canonicalizes (sets sort their
labels, cycles rotate their smallest label first, partitions order blocks by
least member, mappings sort by key), so two terms are equal exactly when they
denote the same structure, and the compact JSON encoding of a term fixes
the order of enumeration output.

Labels are strings or integers.  A token consisting of digits only is always
an integer.  The reserved token STAR (serialized "\\u2605") marks the extra
point a derivative adds; nested derivatives use runs of the same character
(two stars, three stars, ...) so the added points stay distinct.  Every term
knows its underlying label set — subsets remember their complement and
graphs their isolated vertices — which is what transport needs to check
domains.
"""

import json
from json.encoder import encode_basestring_ascii as _quote

from .errors import DomainMismatch, NotABijection, ParseError

__all__ = [
    "STAR",
    "is_star",
    "check_label",
    "label_sort_key",
    "label_to_string",
    "string_to_label",
    "Block",
    "Structure",
    "SetTerm",
    "SubsetTerm",
    "ListTerm",
    "CycleTerm",
    "MapTerm",
    "GraphTerm",
    "DigraphTerm",
    "PartitionTerm",
    "SumTerm",
    "ProdTerm",
    "CompTerm",
    "DerivTerm",
    "PointTerm",
    "NamedTerm",
    "Bijection",
    "decode_structure",
]

STAR = "★"

#: Characters that cannot appear in a user label: they would collide with
#: the textual renderings and the star token.
_FORBIDDEN = set(" \t\r\n,{}()[]<>|" + STAR)

#: The canonical encoder, built once: json.dumps with keyword arguments
#: builds a new encoder on every call.
_ENCODE = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode

#: json.dumps with its defaults, built once: the form of `enumerate --json`.
_DUMPS = json.JSONEncoder().encode


def is_star(label):
    """True for the point tokens added by derivatives: ★, ★★, ..."""
    return (
        isinstance(label, str)
        and len(label) > 0
        and set(label) == {STAR}
    )


def check_label(label):
    """Validate one user-supplied label and return it normalized."""
    if isinstance(label, bool):
        raise ParseError(f"{label!r} is not a usable label")
    if isinstance(label, int):
        return label
    if not isinstance(label, str) or not label:
        raise ParseError(f"{label!r} is not a usable label")
    if any(ch in _FORBIDDEN for ch in label):
        raise ParseError(
            f"label {label!r} contains a reserved character"
        )
    if label.isdigit():
        return int(label)
    return label


def label_sort_key(label):
    """A total order on labels: integers, then strings, then blocks, then
    the star tokens (so cycles rotate from a real label when one exists)."""
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, Block):
        return (2, tuple(label_sort_key(m) for m in label.members))
    if is_star(label):
        return (3, len(label))
    return (1, label)


def label_to_string(label):
    if isinstance(label, Block):
        return label.token()
    return str(label)


def string_to_label(text):
    """Invert label_to_string: digits become ints, braces become blocks.

    Bare (non-bool) integers pass through, so hand-written JSON may say 3
    where the canonical form says "3".
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return text
    if not isinstance(text, str) or not text:
        raise ParseError(f"{text!r} is not a label")
    if text.isdigit():
        return int(text)
    if text[0] == "{":
        return Block(_parse_block_members(text))
    return text


def _parse_block_members(text):
    if text[-1] != "}":
        raise ParseError(f"unbalanced block token {text!r}")
    body = text[1:-1]
    if not body:
        raise ParseError("a block cannot be empty")
    members = []
    depth = 0
    start = 0
    for i, ch in enumerate(body):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "," and depth == 0:
            members.append(string_to_label(body[start:i]))
            start = i + 1
    if depth != 0:
        raise ParseError(f"unbalanced block token {text!r}")
    members.append(string_to_label(body[start:]))
    return members


class Block:
    """A nonempty group of labels acting itself as a label.

    Substitution structures place the outer structure on blocks; a block
    compares by its least member, which is well defined because blocks that
    meet in one structure are disjoint.
    """

    __slots__ = ("members",)

    def __init__(self, members):
        ms = tuple(sorted(members, key=label_sort_key))
        if not ms:
            raise ValueError("a block needs at least one member")
        if len(set(ms)) != len(ms):
            raise ValueError("duplicate member in block")
        self.members = ms

    def token(self):
        return "{" + ",".join(label_to_string(m) for m in self.members) + "}"

    def __eq__(self, other):
        return isinstance(other, Block) and self.members == other.members

    def __hash__(self):
        return hash(("Block", self.members))

    def __repr__(self):
        return f"Block({self.token()})"


def _labels_json(labels):
    return [label_to_string(l) for l in labels]


def _sorted_labels(labels):
    out = tuple(sorted(labels, key=label_sort_key))
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate label in {out!r}")
    return out


def _brace(labels):
    return "{" + ",".join(label_to_string(l) for l in labels) + "}"


class Structure:
    """Base class: canonical term with equality, ordering key, and JSON."""

    __slots__ = ("_labels",)
    kind = ""

    def _key(self):
        raise NotImplementedError

    def labels(self):
        """The underlying label set (derivative stars excluded), computed on
        first use and kept."""
        try:
            return self._labels
        except AttributeError:
            self._labels = found = self._label_set()
            return found

    def _label_set(self):
        raise NotImplementedError

    def relabel(self, f):
        """A copy with f applied to every label; stars stay fixed by the
        transport wrapper, not here."""
        raise NotImplementedError

    def to_json(self):
        """The term as a JSON-ready dict, for API callers: listing and
        `enumerate --json` build none for a composite term.

        Composite terms (sum, prod, comp, deriv, point, named) build it once
        and return that same dict on every call, nested inside the JSON of
        every term that contains them: callers must not mutate it.
        Primitive terms build a fresh dict per call, because one kept dict
        per listed set, map or graph costs more memory than rebuilding it.
        """
        raise NotImplementedError

    def _text(self, text):
        """json.dumps(self.to_json()): default separators, keys in
        insertion order, non-ASCII escaped.  A composite term writes its
        own literals around text(child) for each child, so the caller
        decides which children's texts to keep; a term with no child
        dumps its dict."""
        return _DUMPS(self.to_json())

    def render(self):
        raise NotImplementedError

    def encode(self):
        """Canonical encoding; byte-stable, and it fixes the enumeration
        order."""
        return _ENCODE(self.to_json())

    def _sort_parts(self, key):
        """encode() cut at every child term: a tuple that alternates literal
        JSON text with key(child), starting and ending with text.  Every
        child is a complete JSON object, so no literal is a proper prefix of
        a different literal at the same position, and comparing these tuples
        (with key giving the children's tuples) orders terms exactly as
        comparing their encodings does.  A term with no child is one
        literal."""
        return (self.encode(),)

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((self.kind, self._key()))

    def __repr__(self):
        return self.render()


class _Composite(Structure):
    """A term built from other terms.  Enumeration shares one subterm among
    many parents, so the JSON tree is built once, on the first to_json()
    call, and kept.  That tree serves API callers only: sorting uses
    _sort_parts and `enumerate --json` writes _text, neither of which
    builds it."""

    __slots__ = ("_json",)

    def to_json(self):
        try:
            return self._json
        except AttributeError:
            self._json = tree = self._json_tree()
            return tree

    def _json_tree(self):
        raise NotImplementedError


class SetTerm(Structure):
    """The underlying set itself; also the one structure of 1 (empty set)
    and X (singleton)."""

    __slots__ = ("members",)
    kind = "set"

    def __init__(self, members):
        self.members = _sorted_labels(members)

    def _key(self):
        return self.members

    def _label_set(self):
        return frozenset(self.members)

    def relabel(self, f):
        return SetTerm(f(m) for m in self.members)

    def to_json(self):
        return {"kind": "set", "labels": _labels_json(self.members)}

    def render(self):
        return _brace(self.members)


class SubsetTerm(Structure):
    """A chosen subset; the complement is kept so the underlying set is
    still recoverable."""

    __slots__ = ("members", "rest")
    kind = "subset"

    def __init__(self, members, rest):
        self.members = _sorted_labels(members)
        self.rest = _sorted_labels(rest)
        if set(self.members) & set(self.rest):
            raise ValueError("subset and complement overlap")

    def _key(self):
        return (self.members, self.rest)

    def _label_set(self):
        return frozenset(self.members) | frozenset(self.rest)

    def relabel(self, f):
        return SubsetTerm((f(m) for m in self.members), (f(r) for r in self.rest))

    def to_json(self):
        return {
            "kind": "subset",
            "members": _labels_json(self.members),
            "rest": _labels_json(self.rest),
        }

    def render(self):
        return _brace(self.members)


class ListTerm(Structure):
    """A linear order on the labels."""

    __slots__ = ("seq",)
    kind = "list"

    def __init__(self, seq):
        self.seq = tuple(seq)
        if len(set(self.seq)) != len(self.seq):
            raise ValueError("duplicate label in list")

    def _key(self):
        return self.seq

    def _label_set(self):
        return frozenset(self.seq)

    def relabel(self, f):
        return ListTerm(f(x) for x in self.seq)

    def to_json(self):
        return {"kind": "list", "labels": _labels_json(self.seq)}

    def render(self):
        return "[" + ",".join(label_to_string(x) for x in self.seq) + "]"


class CycleTerm(Structure):
    """A cyclic order; stored rotated so the least label comes first."""

    __slots__ = ("seq",)
    kind = "cycle"

    def __init__(self, seq):
        seq = tuple(seq)
        if not seq:
            raise ValueError("a cycle needs at least one label")
        if len(set(seq)) != len(seq):
            raise ValueError("duplicate label in cycle")
        pivot = min(range(len(seq)), key=lambda i: label_sort_key(seq[i]))
        self.seq = seq[pivot:] + seq[:pivot]

    def _key(self):
        return self.seq

    def _label_set(self):
        return frozenset(self.seq)

    def relabel(self, f):
        return CycleTerm(f(x) for x in self.seq)

    def to_json(self):
        return {"kind": "cycle", "labels": _labels_json(self.seq)}

    def render(self):
        return "(" + " ".join(label_to_string(x) for x in self.seq) + ")"


class MapTerm(Structure):
    """A self-map of the label set, stored as pairs sorted by source.

    Used for permutations, derangements, involutions, and endofunctions;
    relabeling a pair list is exactly conjugation by the bijection.
    """

    __slots__ = ("pairs",)
    kind = "map"

    def __init__(self, pairs):
        items = sorted(
            ((a, b) for a, b in pairs), key=lambda p: label_sort_key(p[0])
        )
        keys = [a for a, _ in items]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate source in map")
        targets = {b for _, b in items}
        if not targets <= set(keys):
            raise ValueError("map target outside the label set")
        self.pairs = tuple(items)

    def _key(self):
        return self.pairs

    def _label_set(self):
        return frozenset(a for a, _ in self.pairs)

    def mapping(self):
        return dict(self.pairs)

    def apply(self, label):
        return self.mapping()[label]

    def is_bijection(self):
        return {b for _, b in self.pairs} == {a for a, _ in self.pairs}

    def relabel(self, f):
        return MapTerm((f(a), f(b)) for a, b in self.pairs)

    def to_json(self):
        return {
            "kind": "map",
            "pairs": [
                [label_to_string(a), label_to_string(b)] for a, b in self.pairs
            ],
        }

    def render(self):
        inner = ", ".join(
            f"{label_to_string(a)}->{label_to_string(b)}" for a, b in self.pairs
        )
        return "{" + inner + "}"


def _sorted_pairs(pairs):
    return tuple(
        sorted(pairs, key=lambda p: (label_sort_key(p[0]), label_sort_key(p[1])))
    )


class GraphTerm(Structure):
    """A simple graph: vertex set plus sorted undirected edges."""

    __slots__ = ("vertices", "edges")
    kind = "graph"

    def __init__(self, vertices, edges):
        self.vertices = _sorted_labels(vertices)
        vs = set(self.vertices)
        norm = []
        for a, b in edges:
            if a == b:
                raise ValueError("a simple graph has no loops")
            if a not in vs or b not in vs:
                raise ValueError("edge endpoint outside the vertex set")
            x, y = sorted((a, b), key=label_sort_key)
            norm.append((x, y))
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate edge")
        self.edges = _sorted_pairs(norm)

    def _key(self):
        return (self.vertices, self.edges)

    def _label_set(self):
        return frozenset(self.vertices)

    def relabel(self, f):
        return GraphTerm(
            (f(v) for v in self.vertices),
            ((f(a), f(b)) for a, b in self.edges),
        )

    def to_json(self):
        return {
            "kind": "graph",
            "vertices": _labels_json(self.vertices),
            "edges": [
                [label_to_string(a), label_to_string(b)] for a, b in self.edges
            ],
        }

    def render(self):
        edges = " ".join(_brace(e) for e in self.edges) or "-"
        return f"graph(V={_brace(self.vertices)}, E: {edges})"


class DigraphTerm(Structure):
    """A directed graph on the label set; loops allowed."""

    __slots__ = ("vertices", "arcs")
    kind = "digraph"

    def __init__(self, vertices, arcs):
        self.vertices = _sorted_labels(vertices)
        vs = set(self.vertices)
        arcs = list(arcs)
        for a, b in arcs:
            if a not in vs or b not in vs:
                raise ValueError("arc endpoint outside the vertex set")
        if len(set(arcs)) != len(arcs):
            raise ValueError("duplicate arc")
        self.arcs = _sorted_pairs(arcs)

    def _key(self):
        return (self.vertices, self.arcs)

    def _label_set(self):
        return frozenset(self.vertices)

    def relabel(self, f):
        return DigraphTerm(
            (f(v) for v in self.vertices),
            ((f(a), f(b)) for a, b in self.arcs),
        )

    def to_json(self):
        return {
            "kind": "digraph",
            "vertices": _labels_json(self.vertices),
            "arcs": [
                [label_to_string(a), label_to_string(b)] for a, b in self.arcs
            ],
        }

    def render(self):
        arcs = " ".join(
            f"({label_to_string(a)}->{label_to_string(b)})" for a, b in self.arcs
        ) or "-"
        return f"digraph(V={_brace(self.vertices)}, A: {arcs})"


class PartitionTerm(Structure):
    """A partition into nonempty blocks, ordered by least member."""

    __slots__ = ("blocks",)
    kind = "partition"

    def __init__(self, blocks):
        norm = [_sorted_labels(b) for b in blocks]
        if any(not b for b in norm):
            raise ValueError("empty block in partition")
        seen = set()
        for b in norm:
            for x in b:
                if x in seen:
                    raise ValueError("blocks overlap")
                seen.add(x)
        self.blocks = tuple(
            sorted(norm, key=lambda b: label_sort_key(b[0]))
        )

    def _key(self):
        return self.blocks

    def _label_set(self):
        return frozenset(x for b in self.blocks for x in b)

    def relabel(self, f):
        return PartitionTerm(tuple(f(x) for x in b) for b in self.blocks)

    def to_json(self):
        return {
            "kind": "partition",
            "blocks": [_labels_json(b) for b in self.blocks],
        }

    def render(self):
        return "{" + ",".join(_brace(b) for b in self.blocks) + "}"


class SumTerm(_Composite):
    """A structure of the left or right summand, tagged with its side."""

    __slots__ = ("side", "inner")
    kind = "sum"

    def __init__(self, side, inner):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.side = side
        self.inner = inner

    def _key(self):
        return (self.side, self.inner)

    def _label_set(self):
        return self.inner.labels()

    def relabel(self, f):
        return SumTerm(self.side, self.inner.relabel(f))

    def _json_tree(self):
        return {"kind": "sum", "side": self.side, "inner": self.inner.to_json()}

    def _sort_parts(self, key):
        return (
            '{"inner":',
            key(self.inner),
            ',"kind":"sum","side":' + _ENCODE(self.side) + "}",
        )

    def _text(self, text):
        return (
            f'{{"kind": "sum", "side": {_quote(self.side)}, '
            f'"inner": {text(self.inner)}}}'
        )

    def render(self):
        return f"{self.side}({self.inner.render()})"


class ProdTerm(_Composite):
    """An ordered pair of structures on complementary label sets."""

    __slots__ = ("left", "right")
    kind = "prod"

    def __init__(self, left, right):
        if not left.labels().isdisjoint(right.labels()):
            raise ValueError("product parts share labels")
        self.left = left
        self.right = right

    def _key(self):
        return (self.left, self.right)

    def _label_set(self):
        return self.left.labels() | self.right.labels()

    def relabel(self, f):
        return ProdTerm(self.left.relabel(f), self.right.relabel(f))

    def _json_tree(self):
        return {
            "kind": "prod",
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }

    def _sort_parts(self, key):
        return (
            '{"kind":"prod","left":',
            key(self.left),
            ',"right":',
            key(self.right),
            "}",
        )

    def _text(self, text):
        return (
            f'{{"kind": "prod", "left": {text(self.left)}, '
            f'"right": {text(self.right)}}}'
        )

    def render(self):
        return f"({self.left.render()}, {self.right.render()})"


class CompTerm(_Composite):
    """A substitution structure: a partition into blocks, one inner
    structure per block, and an outer structure on the blocks themselves."""

    __slots__ = ("outer", "assign")
    kind = "comp"

    def __init__(self, outer, assign):
        assign = sorted(
            ((block, inner) for block, inner in assign),
            key=lambda pair: label_sort_key(pair[0]),
        )
        blocks = [block for block, _ in assign]
        if any(not isinstance(b, Block) for b in blocks):
            raise TypeError("assignment keys must be blocks")
        if outer.labels() != frozenset(blocks):
            raise ValueError("outer structure is not on the block set")
        seen = set()
        for block, inner in assign:
            if inner.labels() != frozenset(block.members):
                raise ValueError("inner structure is not on its block")
            for m in block.members:
                if m in seen:
                    raise ValueError("blocks overlap")
                seen.add(m)
        self.outer = outer
        self.assign = tuple(assign)

    def _key(self):
        return (self.outer, self.assign)

    def _label_set(self):
        return frozenset(
            m for block, _ in self.assign for m in block.members
        )

    def relabel(self, f):
        def on_block(b):
            return Block(f(m) for m in b.members)

        return CompTerm(
            self.outer.relabel(on_block),
            (
                (on_block(block), inner.relabel(f))
                for block, inner in self.assign
            ),
        )

    def _json_tree(self):
        return {
            "kind": "comp",
            "outer": self.outer.to_json(),
            "assign": [
                [_labels_json(block.members), inner.to_json()]
                for block, inner in self.assign
            ],
        }

    def _sort_parts(self, key):
        parts = []
        text, sep = '{"assign":[', ""
        for block, inner in self.assign:
            labels = _ENCODE(_labels_json(block.members))
            parts += (text + sep + "[" + labels + ",", key(inner))
            text, sep = "]", ","
        parts += (text + '],"kind":"comp","outer":', key(self.outer), "}")
        return tuple(parts)

    def _text(self, text):
        assign = ", ".join(
            f"[{_DUMPS(_labels_json(block.members))}, {text(inner)}]"
            for block, inner in self.assign
        )
        return (
            f'{{"kind": "comp", "outer": {text(self.outer)}, '
            f'"assign": [{assign}]}}'
        )

    def render(self):
        parts = ", ".join(
            f"{block.token()}=>{inner.render()}"
            for block, inner in self.assign
        )
        return f"comp({self.outer.render()}; {parts})" if parts else (
            f"comp({self.outer.render()};)"
        )


class DerivTerm(_Composite):
    """A structure on the labels plus one extra reserved point."""

    __slots__ = ("inner",)
    kind = "deriv"

    def __init__(self, inner):
        if not any(is_star(l) for l in inner.labels()):
            raise ValueError("derivative structure is missing its star point")
        self.inner = inner

    def _star(self):
        return max(
            (l for l in self.inner.labels() if is_star(l)), key=len
        )

    def _key(self):
        return (self.inner,)

    def _label_set(self):
        return self.inner.labels() - {self._star()}

    def relabel(self, f):
        return DerivTerm(self.inner.relabel(f))

    def _json_tree(self):
        return {"kind": "deriv", "inner": self.inner.to_json()}

    def _sort_parts(self, key):
        return ('{"inner":', key(self.inner), ',"kind":"deriv"}')

    def _text(self, text):
        return f'{{"kind": "deriv", "inner": {text(self.inner)}}}'

    def render(self):
        return f"D({self.inner.render()})"


class PointTerm(_Composite):
    """A structure together with one of its own labels singled out."""

    __slots__ = ("at", "inner")
    kind = "point"

    def __init__(self, at, inner):
        if at not in inner.labels():
            raise ValueError("distinguished point is not a label")
        self.at = at
        self.inner = inner

    def _key(self):
        return (self.at, self.inner)

    def _label_set(self):
        return self.inner.labels()

    def relabel(self, f):
        return PointTerm(f(self.at), self.inner.relabel(f))

    def _json_tree(self):
        return {
            "kind": "point",
            "at": label_to_string(self.at),
            "inner": self.inner.to_json(),
        }

    def _sort_parts(self, key):
        return (
            '{"at":' + _ENCODE(label_to_string(self.at)) + ',"inner":',
            key(self.inner),
            ',"kind":"point"}',
        )

    def _text(self, text):
        return (
            f'{{"kind": "point", "at": {_quote(label_to_string(self.at))}, '
            f'"inner": {text(self.inner)}}}'
        )

    def render(self):
        return f"pt[{label_to_string(self.at)}]{self.inner.render()}"


class NamedTerm(_Composite):
    """One unfolding of a named species wrapped with that name."""

    __slots__ = ("name", "inner")
    kind = "named"

    def __init__(self, name, inner):
        self.name = name
        self.inner = inner

    def _key(self):
        return (self.name, self.inner)

    def _label_set(self):
        return self.inner.labels()

    def relabel(self, f):
        return NamedTerm(self.name, self.inner.relabel(f))

    def _json_tree(self):
        return {
            "kind": "named",
            "name": self.name,
            "inner": self.inner.to_json(),
        }

    def _sort_parts(self, key):
        return (
            '{"inner":',
            key(self.inner),
            ',"kind":"named","name":' + _ENCODE(self.name) + "}",
        )

    def _text(self, text):
        return (
            f'{{"kind": "named", "name": {_quote(self.name)}, '
            f'"inner": {text(self.inner)}}}'
        )

    def render(self):
        return f"{self.name}:{self.inner.render()}"


# -- JSON decoding ---------------------------------------------------------

def _need(obj, field, types):
    if not isinstance(obj, dict) or field not in obj:
        raise ParseError(f"structure object is missing '{field}'")
    value = obj[field]
    if not isinstance(value, types):
        raise ParseError(f"structure field '{field}' has the wrong shape")
    return value


def _decode_labels(values):
    return [string_to_label(v) for v in values]


def _decode_pairs(values):
    out = []
    for pair in values:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError("a pair must be a two-element list")
        out.append((string_to_label(pair[0]), string_to_label(pair[1])))
    return out


def decode_structure(obj):
    """Rebuild a Structure from its JSON form; raises ParseError when the
    object does not describe a well-formed term."""
    kind = _need(obj, "kind", str)
    try:
        if kind == "set":
            return SetTerm(_decode_labels(_need(obj, "labels", list)))
        if kind == "subset":
            return SubsetTerm(
                _decode_labels(_need(obj, "members", list)),
                _decode_labels(_need(obj, "rest", list)),
            )
        if kind == "list":
            return ListTerm(_decode_labels(_need(obj, "labels", list)))
        if kind == "cycle":
            return CycleTerm(_decode_labels(_need(obj, "labels", list)))
        if kind == "map":
            return MapTerm(_decode_pairs(_need(obj, "pairs", list)))
        if kind == "graph":
            return GraphTerm(
                _decode_labels(_need(obj, "vertices", list)),
                _decode_pairs(_need(obj, "edges", list)),
            )
        if kind == "digraph":
            return DigraphTerm(
                _decode_labels(_need(obj, "vertices", list)),
                _decode_pairs(_need(obj, "arcs", list)),
            )
        if kind == "partition":
            blocks = _need(obj, "blocks", list)
            return PartitionTerm(_decode_labels(b) for b in blocks)
        if kind == "sum":
            return SumTerm(
                _need(obj, "side", str),
                decode_structure(_need(obj, "inner", dict)),
            )
        if kind == "prod":
            return ProdTerm(
                decode_structure(_need(obj, "left", dict)),
                decode_structure(_need(obj, "right", dict)),
            )
        if kind == "comp":
            outer = decode_structure(_need(obj, "outer", dict))
            assign = []
            for entry in _need(obj, "assign", list):
                if not isinstance(entry, list) or len(entry) != 2:
                    raise ParseError("an assignment must pair block and term")
                assign.append(
                    (Block(_decode_labels(entry[0])), decode_structure(entry[1]))
                )
            return CompTerm(outer, assign)
        if kind == "deriv":
            return DerivTerm(decode_structure(_need(obj, "inner", dict)))
        if kind == "point":
            return PointTerm(
                string_to_label(_need(obj, "at", str)),
                decode_structure(_need(obj, "inner", dict)),
            )
        if kind == "named":
            return NamedTerm(
                _need(obj, "name", str),
                decode_structure(_need(obj, "inner", dict)),
            )
    except (ValueError, TypeError) as err:
        raise ParseError(f"malformed '{kind}' structure: {err}") from None
    raise ParseError(f"unknown structure kind {kind!r}")


# -- bijections ------------------------------------------------------------

class Bijection:
    """A bijection between finite label sets, for transporting structures."""

    def __init__(self, mapping):
        self._map = dict(mapping)
        for side in (self._map.keys(), self._map.values()):
            for label in side:
                if is_star(label):
                    raise NotABijection(
                        "the star point is fixed by definition and cannot "
                        "appear in a bijection"
                    )
        values = list(self._map.values())
        if len(set(values)) != len(values):
            raise NotABijection("mapping sends two labels to the same target")
        self.domain = frozenset(self._map)
        self.codomain = frozenset(values)

    @classmethod
    def identity(cls, labels):
        return cls({l: l for l in labels})

    def apply(self, label):
        try:
            return self._map[label]
        except KeyError:
            raise DomainMismatch(
                f"label {label_to_string(label)!r} is outside the bijection's "
                "domain"
            ) from None

    def then(self, other):
        """The composite: first self, then other."""
        return Bijection({a: other.apply(b) for a, b in self._map.items()})

    def inverse(self):
        return Bijection({b: a for a, b in self._map.items()})

    def items(self):
        return sorted(self._map.items(), key=lambda p: label_sort_key(p[0]))

    def __eq__(self, other):
        return isinstance(other, Bijection) and self._map == other._map

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        inner = ", ".join(
            f"{label_to_string(a)}->{label_to_string(b)}"
            for a, b in self.items()
        )
        return f"Bijection({inner})"
