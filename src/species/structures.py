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
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter, lt

from .errors import DomainMismatch, NotABijection, ParseError

__all__ = [
    "STAR",
    "is_star",
    "check_label",
    "label_sort_key",
    "label_code",
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
        and label[:1] == STAR
        and label.count(STAR) == len(label)
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
        return label.key
    if is_star(label):
        return (3, len(label))
    return (1, label)


def label_to_string(label):
    if isinstance(label, Block):
        return label.token()
    return str(label)


def label_code(label):
    """A label as encode() writes it: its JSON-quoted, ASCII-escaped string.
    Where terms hold labels in the same places, these codes order them as
    their encodings do (no code is a prefix of another)."""
    return _quote(label_to_string(label))


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

    Enumeration shares one block among many terms, so a block keeps what
    those terms ask of it.  At creation it sorts its members and keeps
    them, its sort key (what label_sort_key returns for it), the frozenset
    of its members and its hash.  On first use it keeps its member list's
    encode() text (code()) and its json.dumps text (text()).
    """

    __slots__ = ("members", "key", "member_set", "_hash", "_code", "_text")

    def __init__(self, members):
        ms = tuple(sorted(members, key=label_sort_key))
        if not ms:
            raise ValueError("a block needs at least one member")
        self.member_set = frozenset(ms)
        if len(self.member_set) != len(ms):
            raise ValueError("duplicate member in block")
        self.members = ms
        self.key = (2, tuple(map(label_sort_key, ms)))
        self._hash = hash(("Block", ms))

    def token(self):
        return "{" + ",".join(label_to_string(m) for m in self.members) + "}"

    def code(self):
        """The member list as encode() writes it in a substitution term."""
        try:
            return self._code
        except AttributeError:
            self._code = found = _ENCODE(_labels_json(self.members))
            return found

    def text(self):
        """The member list as json.dumps writes it, for `enumerate --json`."""
        try:
            return self._text
        except AttributeError:
            self._text = found = _DUMPS(_labels_json(self.members))
            return found

    def __eq__(self, other):
        return isinstance(other, Block) and self.members == other.members

    def __hash__(self):
        return self._hash

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


# -- JSON decoding ---------------------------------------------------------

def _need(obj, field, types):
    if not isinstance(obj, dict) or field not in obj:
        raise ParseError(f"structure object is missing '{field}'")
    value = obj[field]
    if not isinstance(value, types):
        raise ParseError(f"structure field '{field}' has the wrong shape")
    return value


def _decode_labels(values):
    if not isinstance(values, list):
        raise ParseError(f"a label list must be a JSON list, not {values!r}")
    return [string_to_label(v) for v in values]


def _pairs(values):
    for pair in values:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError("a pair must be a two-element list")
    return values


def decode_structure(obj):
    """Rebuild a Structure from its JSON form; raises ParseError when the
    object does not describe a well-formed term."""
    kind = _need(obj, "kind", str)
    cls = _CLASSES.get(kind)
    if cls is None:
        raise ParseError(f"unknown structure kind {kind!r}")
    try:
        return cls(*[
            fk.decode(_need(obj, key, fk.shape)) for key, _, fk in cls.fields
        ])
    except (ValueError, TypeError) as err:
        raise ParseError(f"malformed '{kind}' structure: {err}") from None


# -- field tables ----------------------------------------------------------
#
# Every term class declares `fields`: one (JSON key, attribute, field kind)
# entry per constructor argument, in constructor order, which is also the
# key order of to_json().  to_json(), the decoder, the equality key and
# relabelling read the table.  A composite term's _text and _sort_parts,
# which `enumerate --json` and listing call once per term, are compiled
# from it when the class is created, with the literal JSON text around
# each field fixed then.


class _FieldKind:
    """How one kind of field is read, written and relabelled.  decode turns
    its JSON value, checked to be a shape, into a constructor argument,
    json turns the attribute back into that value, and relabel(value, f)
    applies f to its labels.  For a composite term's compiled writers, the
    rest are templates of Python expressions in which {v} is the value:
    code is the JSON text of a value that holds no term, and a value that
    holds terms has its text in _text(text) and its part of
    _sort_parts(key): one child's key or, when splice is set, a run of
    texts and keys that starts and ends with text."""

    def __init__(self, shape, decode, json, relabel, code="", text="",
                 part="", splice=False):
        self.shape, self.decode, self.json = shape, decode, json
        self.relabel, self.code, self.text = relabel, code, text
        self.part, self.splice = part, splice


_TEXT = _FieldKind(
    str, lambda v: v, lambda v: v, lambda v, f: v, code="_quote({v})"
)
_LABEL = _FieldKind(
    str, string_to_label, label_to_string, lambda v, f: f(v),
    code="label_code({v})",
)
_LABELS = _FieldKind(
    list, _decode_labels, _labels_json, lambda v, f: [f(x) for x in v]
)
_PAIRS = _FieldKind(
    list,
    lambda v: [(string_to_label(a), string_to_label(b)) for a, b in _pairs(v)],
    lambda v: [[label_to_string(a), label_to_string(b)] for a, b in v],
    lambda v, f: [(f(a), f(b)) for a, b in v],
)
_BLOCKS = _FieldKind(
    list,
    lambda v: [_decode_labels(b) for b in v],
    lambda v: [_labels_json(b) for b in v],
    lambda v, f: [[f(x) for x in b] for b in v],
)
_CHILD = _FieldKind(
    dict, decode_structure, lambda v: v.to_json(), lambda v, f: v.relabel(f),
    text="text({v})", part="key({v})",
)
#: A child whose labels are blocks, relabelled by each block's image.
_ON_BLOCKS = _FieldKind(
    dict, decode_structure, lambda v: v.to_json(),
    lambda v, f: v.relabel(lambda b: Block(f(m) for m in b.members)),
    text="text({v})", part="key({v})",
)
#: A substitution's (block, inner term) pairs.
_ASSIGN = _FieldKind(
    list,
    lambda v: [
        (Block(_decode_labels(b)), decode_structure(t)) for b, t in _pairs(v)
    ],
    lambda v: [[_labels_json(b.members), t.to_json()] for b, t in v],
    lambda v, f: [
        (Block(f(m) for m in b.members), t.relabel(f)) for b, t in v
    ],
    text="_assign_text({v}, text)",
    part="_assign_parts({v}, key)",
    splice=True,
)

#: Every term class by its JSON kind.
_CLASSES = {}


def _tuple(items):
    return "(" + "".join(item + ", " for item in items) + ")"


def _compile(cls):
    """A composite class's _text and _sort_parts, by name."""
    fields = [(key, "self." + attr, fk) for key, attr, fk in cls.fields]
    src = [_text_source(cls.kind, fields), _parts_source(cls.kind, fields)]
    methods = {}
    code = compile("\n".join(src), f"<fields of {cls.__name__}>", "exec")
    exec(code, globals(), methods)
    return methods


def _text_source(kind, fields):
    """_text: keys in insertion order, json.dumps's separators.  Here and in
    _sort_parts, the keys and kinds written into the generated f-strings
    have no brace, quote or backslash to escape."""
    text = '{{"kind": ' + _quote(kind)
    for k, v, fk in fields:
        value = (fk.text or fk.code).format(v=v)
        text += f", {_quote(k)}: {{{value}}}"
    return f"def _text(self, text): return f'{text}}}}}'"


def _parts_source(kind, fields):
    """_sort_parts: keys sorted, encode()'s separators, cut at each child."""
    runs, items, text = [], [], "{{"
    for i, (k, v, fk) in enumerate(sorted(fields + [("kind", "", None)])):
        text += ("," if i else "") + _quote(k) + ":"
        if fk is None:
            text += _quote(kind)
        elif not fk.part:
            text += "{" + fk.code.format(v=v) + "}"
        elif fk.splice:
            runs += [_tuple(items + [f"f'{text}'"]), fk.part.format(v=v)]
            items, text = [], ""
        else:
            items += [f"f'{text}'", fk.part.format(v=v)]
            text = ""
    parts = _tuple(items + [f"f'{text}}}}}'"])
    if runs:
        parts = "_splice" + _tuple(runs + [parts])
    return f"def _sort_parts(self, key): return {parts}"


def _splice(*runs):
    """Join runs of sort parts, each starting and ending with text, merging
    the texts where two runs meet."""
    out = list(runs[0])
    for run in runs[1:]:
        out[-1] += run[0]
        out += run[1:]
    return tuple(out)


def _assign_text(assign, text):
    return "[" + ", ".join(
        f"[{block.text()}, {text(inner)}]"
        for block, inner in assign
    ) + "]"


def _assign_parts(assign, key):
    parts, text, sep = [], "[", ""
    for block, inner in assign:
        parts += (text + sep + "[" + block.code() + ",", key(inner))
        text, sep = "]", ","
    return (*parts, text + "]")


class Structure:
    """Base class: canonical term with equality, ordering key, and JSON."""

    __slots__ = ("_labels",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "fields" in cls.__dict__:
            _CLASSES[cls.kind] = cls
            cls._attrs = attrgetter(*[attr for _, attr, _ in cls.fields])
            if issubclass(cls, _Composite):
                for name, method in _compile(cls).items():
                    setattr(cls, name, method)

    def labels(self):
        """The underlying label set (derivative stars excluded), computed on
        first use and kept."""
        try:
            return self._labels
        except AttributeError:
            self._labels = found = self._label_set()
            return found

    def relabel(self, f):
        """A copy with f applied to every label; stars stay fixed by the
        transport wrapper, not here."""
        return type(self)(*[
            fk.relabel(getattr(self, attr), f) for _, attr, fk in self.fields
        ])

    def to_json(self):
        """The term as a JSON-ready dict, for API callers; a primitive term
        builds a fresh one per call."""
        tree = {"kind": self.kind}
        for key, attr, fk in self.fields:
            tree[key] = fk.json(getattr(self, attr))
        return tree

    def _text(self, text):
        """json.dumps(self.to_json()): default separators, keys in
        insertion order, non-ASCII escaped.  A composite term writes its
        own literals around text(child) for each child, so the caller
        decides which children's texts to keep; a term with no child
        dumps its dict."""
        return _DUMPS(self.to_json())

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
        comparing their encodings does.  Enumeration compares terms this way
        where it merges sorted lists.  A term with no child is one
        literal."""
        return (self.encode(),)

    def _key(self):
        return self._attrs(self)

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((self.kind, self._key()))

    def __repr__(self):
        return self.render()


class _Composite(Structure):
    """A term built from other terms.  Enumeration shares one subterm among
    many parents, so its to_json() tree is built on the first call and
    kept, and every later call, and the JSON of every term containing it,
    returns that same dict: callers must not mutate it.  (A primitive term
    builds a fresh dict per call: one kept dict per listed set, map or
    graph costs more memory than rebuilding it.)  The tree serves API
    callers only: enumeration compares _sort_parts and `enumerate --json`
    writes _text, neither of which builds it."""

    __slots__ = ("_json",)

    def to_json(self):
        try:
            return self._json
        except AttributeError:
            self._json = tree = super().to_json()
            return tree


class SetTerm(Structure):
    """The underlying set itself; also the one structure of 1 (empty set)
    and X (singleton)."""

    __slots__ = ("members",)
    kind = "set"
    fields = (("labels", "members", _LABELS),)

    def __init__(self, members):
        self.members = _sorted_labels(members)

    def _label_set(self):
        return frozenset(self.members)

    def render(self):
        return _brace(self.members)


class SubsetTerm(Structure):
    """A chosen subset; the complement is kept so the underlying set is
    still recoverable."""

    __slots__ = ("members", "rest")
    kind = "subset"
    fields = (("members", "members", _LABELS), ("rest", "rest", _LABELS))

    def __init__(self, members, rest):
        self.members = _sorted_labels(members)
        self.rest = _sorted_labels(rest)
        if set(self.members) & set(self.rest):
            raise ValueError("subset and complement overlap")

    def _label_set(self):
        return frozenset(self.members) | frozenset(self.rest)

    def render(self):
        return _brace(self.members)


class ListTerm(Structure):
    """A linear order on the labels."""

    __slots__ = ("seq",)
    kind = "list"
    fields = (("labels", "seq", _LABELS),)

    def __init__(self, seq):
        self.seq = tuple(seq)
        if len(set(self.seq)) != len(self.seq):
            raise ValueError("duplicate label in list")

    def _label_set(self):
        return frozenset(self.seq)

    def render(self):
        return "[" + ",".join(label_to_string(x) for x in self.seq) + "]"


class CycleTerm(Structure):
    """A cyclic order; stored rotated so the least label comes first."""

    __slots__ = ("seq",)
    kind = "cycle"
    fields = (("labels", "seq", _LABELS),)

    def __init__(self, seq):
        seq = tuple(seq)
        if not seq:
            raise ValueError("a cycle needs at least one label")
        if len(set(seq)) != len(seq):
            raise ValueError("duplicate label in cycle")
        pivot = min(range(len(seq)), key=lambda i: label_sort_key(seq[i]))
        self.seq = seq[pivot:] + seq[:pivot]

    def _label_set(self):
        return frozenset(self.seq)

    def render(self):
        return "(" + " ".join(label_to_string(x) for x in self.seq) + ")"


class MapTerm(Structure):
    """A self-map of the label set, stored as pairs sorted by source.

    Used for permutations, derangements, involutions, and endofunctions;
    relabeling a pair list is exactly conjugation by the bijection.
    """

    __slots__ = ("pairs",)
    kind = "map"
    fields = (("pairs", "pairs", _PAIRS),)

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

    def _label_set(self):
        return frozenset(a for a, _ in self.pairs)

    def mapping(self):
        return dict(self.pairs)

    def apply(self, label):
        return self.mapping()[label]

    def is_bijection(self):
        return {b for _, b in self.pairs} == {a for a, _ in self.pairs}

    def render(self):
        inner = ", ".join(
            f"{label_to_string(a)}->{label_to_string(b)}" for a, b in self.pairs
        )
        return "{" + inner + "}"


#: The vertex table of one vertex tuple: given is the caller's object,
#: vertices its sorted, checked copy, pos each vertex's place in it, and
#: edge_ranks and arc_ranks the rank pos[a] * n + pos[b] of every pair a
#: graph or a digraph on it has been built with.  The rank dicts start
#: empty and learn a pair when a term first holds it, so a table costs
#: O(n) to build however many pairs its vertices allow.  Edges are ranked
#: apart from arcs because only a pair with a before b, and no loop, is an
#: edge in its place.
_VertexTable = namedtuple(
    "_VertexTable", "given vertices pos edge_ranks arc_ranks"
)


#: The table of the last vertex tuple a graph or digraph was built on.
#: A listing builds all its graphs on one tuple, so they share one table.
#: The record is replaced whole and read once per term, so two threads
#: building terms at once never mix the fields of two tables.
_last_table = _VertexTable((), (), {}, {}, {})


def _vertex_table(vertices):
    """The vertex table of vertices: the last one built when vertices is
    that very tuple object, else a new one.  Only tuples are kept, because
    a tuple cannot change between two terms while a list can."""
    global _last_table
    table = _last_table
    if table.given is not vertices:
        ordered = _sorted_labels(vertices)
        pos = {v: i for i, v in enumerate(ordered)}
        table = _VertexTable(vertices, ordered, pos, {}, {})
        if type(vertices) is tuple:
            _last_table = table
    return table


def _in_rank_order(ranks, pairs):
    """True when every pair has a rank and the ranks strictly increase:
    the pairs are then valid, distinct and already in order."""
    try:
        keys = list(map(ranks.__getitem__, pairs))
    except (KeyError, TypeError):
        return False
    return all(map(lt, keys, keys[1:]))


def _sorted_pairs(pos, ranks, pairs, what):
    """A tuple of pairs of labels, in the order of their endpoints' places
    pos[a], pos[b] among the sorted vertices, which is the order
    label_sort_key gives; refused if a pair has an endpoint outside them or
    two pairs are the same.  The tuple holds the caller's own pairs, so the
    many graphs listed on one vertex set share theirs.  Each pair's rank is
    kept in ranks, for _in_rank_order to find next time."""
    n = len(pos)
    try:
        keys = [pos[a] * n + pos[b] for a, b in pairs]
    except KeyError:
        raise ValueError(f"{what} endpoint outside the vertex set") from None
    if len(set(pairs)) != len(pairs):
        raise ValueError(f"duplicate {what}")
    ranks.update(zip(pairs, keys))
    return tuple(map(dict(zip(keys, pairs)).__getitem__, sorted(keys)))


class GraphTerm(Structure):
    """A simple graph: vertex set plus sorted undirected edges.

    The vertices are sorted and checked once per vertex table (see
    _vertex_table), and every graph built on the same vertex tuple object
    shares the table's sorted tuple.  Edges that the table has ranked
    before, given each with its lesser end first and in order, are checked
    by their ranks alone; any other edge list is turned, checked and sorted
    in full, with the same refusals."""

    __slots__ = ("vertices", "edges")
    kind = "graph"
    fields = (("vertices", "vertices", _LABELS), ("edges", "edges", _PAIRS))

    def __init__(self, vertices, edges):
        table = _vertex_table(vertices)
        self.vertices = table.vertices
        edges = tuple(edges)
        ranks = table.edge_ranks
        if not _in_rank_order(ranks, edges):
            pos = table.pos
            turned = []
            for edge in edges:
                a, b = edge
                if a == b:
                    raise ValueError("a simple graph has no loops")
                i, j = pos.get(a), pos.get(b)
                if i is None or j is None:
                    raise ValueError("edge endpoint outside the vertex set")
                if i > j:
                    edge = (b, a)
                elif type(edge) is not tuple:
                    edge = (a, b)
                turned.append(edge)
            edges = _sorted_pairs(pos, ranks, tuple(turned), "edge")
        self.edges = edges

    def _label_set(self):
        return frozenset(self.vertices)

    def render(self):
        edges = " ".join(_brace(e) for e in self.edges) or "-"
        return f"graph(V={_brace(self.vertices)}, E: {edges})"


class DigraphTerm(Structure):
    """A directed graph on the label set; loops allowed.

    Like GraphTerm, it shares the vertex table of its vertex tuple: arcs
    the table has ranked before, given in order, are checked by their ranks
    alone, and any other arc list is checked and sorted in full."""

    __slots__ = ("vertices", "arcs")
    kind = "digraph"
    fields = (("vertices", "vertices", _LABELS), ("arcs", "arcs", _PAIRS))

    def __init__(self, vertices, arcs):
        table = _vertex_table(vertices)
        self.vertices = table.vertices
        arcs = tuple(arcs)
        ranks = table.arc_ranks
        if not _in_rank_order(ranks, arcs):
            arcs = _sorted_pairs(table.pos, ranks, arcs, "arc")
        self.arcs = arcs

    def _label_set(self):
        return frozenset(self.vertices)

    def render(self):
        arcs = " ".join(
            f"({label_to_string(a)}->{label_to_string(b)})" for a, b in self.arcs
        ) or "-"
        return f"digraph(V={_brace(self.vertices)}, A: {arcs})"


class PartitionTerm(Structure):
    """A partition into nonempty blocks, ordered by least member."""

    __slots__ = ("blocks",)
    kind = "partition"
    fields = (("blocks", "blocks", _BLOCKS),)

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

    def _label_set(self):
        return frozenset(x for b in self.blocks for x in b)

    def render(self):
        return "{" + ",".join(_brace(b) for b in self.blocks) + "}"


class SumTerm(_Composite):
    """A structure of the left or right summand, tagged with its side."""

    __slots__ = ("side", "inner")
    kind = "sum"
    fields = (("side", "side", _TEXT), ("inner", "inner", _CHILD))

    def __init__(self, side, inner):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.side = side
        self.inner = inner

    def _label_set(self):
        return self.inner.labels()

    def render(self):
        return f"{self.side}({self.inner.render()})"


class ProdTerm(_Composite):
    """An ordered pair of structures on complementary label sets."""

    __slots__ = ("left", "right")
    kind = "prod"
    fields = (("left", "left", _CHILD), ("right", "right", _CHILD))

    def __init__(self, left, right):
        if not left.labels().isdisjoint(right.labels()):
            raise ValueError("product parts share labels")
        self.left = left
        self.right = right

    def _label_set(self):
        return self.left.labels() | self.right.labels()

    def render(self):
        return f"({self.left.render()}, {self.right.render()})"


def _block_key(pair):
    """A substitution pair's place in its term, refusing a key that is not
    a block."""
    block, _ = pair
    if not isinstance(block, Block):
        raise TypeError("assignment keys must be blocks")
    return block.key


class CompTerm(_Composite):
    """A substitution structure: a partition into blocks, one inner
    structure per block, and an outer structure on the blocks themselves."""

    __slots__ = ("outer", "assign")
    kind = "comp"
    fields = (("outer", "outer", _ON_BLOCKS), ("assign", "assign", _ASSIGN))

    def __init__(self, outer, assign):
        assign = tuple(sorted(map(tuple, assign), key=_block_key))
        if outer.labels() != frozenset(map(itemgetter(0), assign)):
            raise ValueError("outer structure is not on the block set")
        seen = set()
        for block, inner in assign:
            members = block.member_set
            if inner.labels() != members:
                raise ValueError("inner structure is not on its block")
            if not seen.isdisjoint(members):
                raise ValueError("blocks overlap")
            seen |= members
        self.outer = outer
        self.assign = assign

    def _label_set(self):
        return frozenset().union(
            *[block.member_set for block, _ in self.assign]
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
    fields = (("inner", "inner", _CHILD),)

    def __init__(self, inner):
        if not any(is_star(l) for l in inner.labels()):
            raise ValueError("derivative structure is missing its star point")
        self.inner = inner

    def _star(self):
        return max(
            (l for l in self.inner.labels() if is_star(l)), key=len
        )

    def _label_set(self):
        return self.inner.labels() - {self._star()}

    def render(self):
        return f"D({self.inner.render()})"


class PointTerm(_Composite):
    """A structure together with one of its own labels singled out."""

    __slots__ = ("at", "inner")
    kind = "point"
    fields = (("at", "at", _LABEL), ("inner", "inner", _CHILD))

    def __init__(self, at, inner):
        if at not in inner.labels():
            raise ValueError("distinguished point is not a label")
        self.at = at
        self.inner = inner

    def _label_set(self):
        return self.inner.labels()

    def render(self):
        return f"pt[{label_to_string(self.at)}]{self.inner.render()}"


class NamedTerm(_Composite):
    """One unfolding of a named species wrapped with that name."""

    __slots__ = ("name", "inner")
    kind = "named"
    fields = (("name", "name", _TEXT), ("inner", "inner", _CHILD))

    def __init__(self, name, inner):
        self.name = name
        self.inner = inner

    def _label_set(self):
        return self.inner.labels()

    def render(self):
        return f"{self.name}:{self.inner.render()}"


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
