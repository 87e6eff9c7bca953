"""Canonical terms for labeled structures.

Every structure a species puts on a label set is represented by a term built
from the constructors below.  Construction canonicalizes (sets sort their
labels, cycles rotate their smallest label first, partitions order blocks by
least member, mappings sort by key), so two terms are equal exactly when they
denote the same structure, and the compact JSON encoding of a term fixes
the order of enumeration output.  Each constructor reads the labels' sort
keys once and keeps its input as given when the keys strictly increase;
only other input is sorted.

Every term class is built in two ways: by its public constructor, which
normalizes and checks its input in full, and by one bulk builder, which
listings use.  SubsetTerm.listed, GraphTerm.listed and DigraphTerm.listed
check a tuple of labels, possible edges or possible arcs once for all the
terms built from its sublists; Assignment.listed checks the one block of
many (block, inner) pairs once against the one label set of the
assignments it is put before, and _comp_terms each list of outer terms
once against its block set; a ProductSplit checks a split's two label sets
and each of its factors once for all the products of that split;
MapSources checks a sorted label tuple once for the set and all the maps,
lists, cycles, partitions, derivatives and pointed terms on it; and
sum_terms and named_terms check a side or a name once for every term
wrapped around a list of children.  Where both ways check the same thing
they call one check, which raises that refusal.

Labels are strings or integers.  A token consisting of digits only is always
an integer.  The reserved token STAR (serialized "\\u2605") marks the extra
point a derivative adds; nested derivatives use runs of the same character
(two stars, three stars, ...) so the added points stay distinct.  Every term
fixes its underlying label set when it is built — subsets remember their
complement and graphs their isolated vertices — which is what transport
needs to check domains: a public constructor keeps the frozenset its checks
compute, and a bulk builder gives its terms the one set _SETS holds.

The tables of label codes (_CODES), of run texts (_RUN_CODES and
_RUN_TEXTS) and of label sets (_SETS) keep entries only while a walk
(enumerator._Walk) is open; the last open walk to close empties them.
"""

import gc
from _thread import allocate_lock
from itertools import chain, combinations, permutations, product, repeat
from operator import add, attrgetter, eq, getitem, is_, itemgetter, lt

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
    "Assignment",
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


def _quote(text):
    """text as a JSON string literal, non-ASCII escaped: json's own
    encode_basestring_ascii, which the first call imports and binds in
    place of this function.  It is taken from the C module _json, the one
    json.encoder itself binds, so that writing a label does not load the
    json package; from json.encoder where _json is missing.  No counting
    call writes a label, so none loads either."""
    global _quote
    try:
        from _json import encode_basestring_ascii as _quote
    except ImportError:
        from json.encoder import encode_basestring_ascii as _quote

    return _quote(text)


def label_code(label):
    """A label as encode() and json.dumps write it: its JSON-quoted,
    ASCII-escaped string.  Where terms hold labels in the same places, these
    codes order them as their encodings do (no code is a prefix of
    another)."""
    return _CODES[label]


class _Codes(dict):
    """label -> label_code(label), each label quoted when it is first
    written.  Only labels whose type is exactly int or str are kept, so a
    bool never takes the code of the int it equals, and only while a walk
    is open (_OPEN_WALKS): outside one every label is quoted anew, so a
    float written after the int it equals still writes itself.  A block is
    not kept here but keeps its own (Block.quoted), so the table never
    keeps a block alive.  The run tables (_Runs) keep to the same rules."""

    __slots__ = ()

    def __missing__(self, label):
        if isinstance(label, Block):
            return label.quoted()
        found = _quote(str(label))
        if _OPEN_WALKS and (type(label) is int or type(label) is str):
            self[label] = found
        return found


#: The one table of label codes.  It only ever maps a label to its own
#: code, so threads share it safely: a walk that empties it while another
#: thread writes costs that thread a few quotings again.
_CODES = _Codes()
_CODE = _CODES.__getitem__


#: The one frozenset of each set of labels that a bulk builder has given
#: its terms or Block.member_set holds, while a walk is open: terms of a
#: listing that cover the same labels share one set instead of keeping a
#: copy each.  Like _CODES, it only ever maps a set to an equal set, so
#: threads share it safely; sets of blocks it holds keep those blocks
#: alive until the last open walk closes.
_SETS = {}


def _label_list(labels, sep):
    """A list of labels as JSON text: each label written as its code, sep
    between them."""
    return "[" + sep.join(map(_CODE, labels)) + "]"


class _Runs(dict):
    """run -> _label_list(run, sep), for a run (a tuple of labels: a pair,
    a block's members, a graph's vertices) when it is first written.  A
    listing writes the same few runs in many terms: every partition on 8
    labels holds some of the 255 blocks, every map on 7 some of the 49
    pairs, every graph on 5 the one vertex list.  Like _CODES, a run is
    kept only while a walk is open and only when each of its labels is
    exactly an int or a str, so a run holding a bool or a float never
    takes the text of the run of ints it equals, and no block is kept
    alive."""

    __slots__ = ("sep",)

    def __init__(self, sep):
        super().__init__()
        self.sep = sep

    def __missing__(self, run):
        found = _label_list(run, self.sep)
        if _OPEN_WALKS and all(type(x) is int or type(x) is str for x in run):
            self[run] = found
        return found


#: The run tables of encode() and of `enumerate --json`, which differ in
#: their separator.  Each only ever maps a run to its own text, so threads
#: share them as they share _CODES.
_RUN_CODES = _Runs(",")
_RUN_TEXTS = _Runs(", ")


#: One entry per open walk, in any thread, opened and closed under
#: _WALK_LOCK; the first is whether the collector was on.  _CODES,
#: _RUN_CODES, _RUN_TEXTS and _SETS keep entries only while it is nonempty.
_OPEN_WALKS = []
_WALK_LOCK = allocate_lock()


def _open_walk():
    """Open one walk, pausing the collector."""
    with _WALK_LOCK:
        _OPEN_WALKS.append(not _OPEN_WALKS and gc.isenabled())
        gc.disable()


def _close_walk():
    """Close one walk; the last to close empties the label, run and set
    tables, and turns the collector back on if the first found it on."""
    with _WALK_LOCK:
        collecting = _OPEN_WALKS.pop()
        if not _OPEN_WALKS:
            _CODES.clear()
            _RUN_CODES.clear()
            _RUN_TEXTS.clear()
            _SETS.clear()
            if collecting:
                gc.enable()


def _interned(labels):
    """The frozenset of labels, the one _SETS holds while a walk is
    open."""
    found = frozenset(labels)
    if _OPEN_WALKS:
        return _SETS.setdefault(found, found)
    return found


_kept_labels = attrgetter("_labels")


def _all_on(terms, labels):
    """True when every term of terms lives on labels: the label sets the
    terms keep are compared in C."""
    return all(map(eq, map(_kept_labels, terms), repeat(labels)))


_new = object.__new__


def _bare(cls, count):
    """count terms of cls made in C with no __init__ run, for a builder to
    fill from parts it has checked."""
    return list(map(_new, repeat(cls, count)))


def _list_order(codes, size=None, units=None):
    """Every sublist of some items, as the mask of its items' bits, in the
    order of the JSON lists they are written as; with size, only those of
    that length.  codes gives each item's code, and units its bit, 1 << k
    for the k-th item unless given.  The list is new, for a builder to
    turn into its terms in place.

    Those lists compare element by element, elements by code, and a list
    comes after its extensions ("," sorts before "]").  So the sublists
    are the group of each item j, in code order, then the empty one; the
    group of j joins j's unit to each sublist of the items after j, in
    their order, which is itself their groups and the empty one.  With
    size the groups are kept by length, the group of j of length k built
    from the sublists of length k - 1 after j.  The groups are built a
    length at a time (without size, one level that reads itself), later
    items first, each by one list comprehension.
    """
    n = len(codes)
    if size is not None and not 0 <= size <= n:
        return []
    if units is None:
        units = [1 << k for k in range(n)]
    by_code = sorted(range(n), key=codes.__getitem__)
    groups = [()] * n
    for k in [None] if size is None else range(1, size + 1):
        level = [()] * n
        below = level if k is None else groups
        whole = k is None or k == 1
        for i in reversed(range(0 if k is None else size - k,
                                n if k is None else n - k + 1)):
            unit = units[i]
            group = [unit + x for j in by_code if j > i for x in below[j]]
            if whole:
                group.append(unit)
            level[i] = group
        groups = level
    found = [x for j in by_code for x in groups[j]]
    if not size:
        found.append(0)
    return found


def _chunk_tables(units, empty, width=8):
    """For each width units, the joins (+) of every subset of them, lowest
    bit first, built by doubling; _decode reads 8-unit tables a byte each."""
    found = []
    for at in range(0, len(units), width):
        chunk = [empty]
        for unit in units[at:at + width]:
            chunk += [x + unit for x in chunk]
        found.append(chunk)
    return found


def _decode(chunks, mask):
    """The join of the tuple units of mask's bits, lowest first, from their
    chunk tables: with one table, the table's own tuple."""
    found = ()
    for chunk in chunks:
        found += chunk[mask & 255]
        mask >>= 8
    return found


def _splits(labels, sizes=None):
    """Each sublist of a tuple of labels whose length is in sizes (any with
    None) and the other labels, two tuples in a new list, in the order of
    the sublists' JSON lists (_list_order), decoded from chunk tables."""
    codes = list(map(_CODE, labels))
    if sizes is None:
        masks = _list_order(codes)
    elif len(sizes) == 1:
        masks = _list_order(codes, *sizes)
    else:
        masks = [mask for mask in (_list_order(codes) if sizes else ())
                 if mask.bit_count() in sizes]
    full = (1 << len(labels)) - 1
    # Masks that are most of the sublists read one table of them all.
    chunks = _chunk_tables(list(zip(labels)), (),
                           len(labels) if 2 * len(masks) > full > 0 else 8)
    if len(chunks) == 1:
        table = chunks[0]
        return [(table[mask], table[full ^ mask]) for mask in masks]
    return [(_decode(chunks, mask), _decode(chunks, full ^ mask))
            for mask in masks]


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
    those terms ask of it.  At creation it sorts its members (members
    given in order are kept as given) and keeps them, its sort key (what
    label_sort_key returns for it), the frozenset of its members (the one
    _SETS holds for that set in a walk) and its hash.  Its member list's
    encode() and json.dumps texts (code() and text()) come from the run
    tables, like a partition's blocks.  On first use it keeps its own code
    as a label of an outer term (quoted()), so the code table never keeps
    a block; a block can be weakly referenced, so that can be checked.
    """

    __slots__ = ("members", "key", "member_set", "_hash", "_quoted",
                 "__weakref__")

    def __init__(self, members):
        ms = tuple(members)
        keys = _label_keys(ms)
        if not _increasing(keys):
            ms = tuple(_in_key_order(ms, keys))
            keys.sort()
        if not ms:
            raise ValueError("a block needs at least one member")
        member_set = frozenset(ms)
        if len(member_set) != len(ms):
            raise ValueError("duplicate member in block")
        self.member_set = _interned(member_set)
        self.members = ms
        self.key = (2, tuple(keys))
        self._hash = hash(("Block", ms))

    def token(self):
        return _brace(self.members)

    def code(self):
        """The member list as encode() writes it in a substitution term."""
        return _RUN_CODES[self.members]

    def text(self):
        """The member list as json.dumps writes it, for `enumerate --json`."""
        return _RUN_TEXTS[self.members]

    def quoted(self):
        """label_code(self): the block's token, JSON-quoted."""
        try:
            return self._quoted
        except AttributeError:
            self._quoted = found = _quote(self.token())
            return found

    def __eq__(self, other):
        return isinstance(other, Block) and self.members == other.members

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Block({self.token()})"


def _labels_json(labels):
    return [label_to_string(l) for l in labels]


def _label_keys(labels):
    """[label_sort_key(l) for l in labels]."""
    return list(map(label_sort_key, labels))


def _increasing(keys):
    """True when keys strictly increase.  Every constructor checks the
    order its input arrives in with this, and keeps the input as given when
    it holds: the items are then distinct and already in canonical order."""
    return all(map(lt, keys, keys[1:]))


def _in_key_order(items, keys):
    """items as sorted(items, key=...) orders them, keys holding the key of
    each item: a stable sort of the keys already read."""
    return [items[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]


def _sorted_labels(labels):
    """The labels as a tuple in label_sort_key order, refused if two are
    the same; a tuple already in that order is returned as given."""
    labels = tuple(labels)
    keys = _label_keys(labels)
    if _increasing(keys):
        return labels
    out = tuple(_in_key_order(labels, keys))
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
# key order of to_json().  The decoder, the equality key, relabelling and
# to_json() read the table (a graph's equality key reads its mask
# instead).  Every class's _text and _sort_parts, which
# `enumerate --json`, listing and encode() call once per term, are compiled
# from it, for all classes in one compile() call on the first call of
# either writer (Structure._text and Structure._sort_parts compile, then
# dispatch), so that no counting call pays for it: f-strings with the
# literal JSON text around each field fixed then, every label written as
# its code from the one table of label codes, every map's pairs, every
# partition's blocks and every graph's vertex list from the run table of
# its separator (_RUN_CODES for encode(), _RUN_TEXTS for --json), and
# every graph's edges or arcs from its vertex table.  No writer builds a
# to_json() tree.


class _FieldKind:
    """How one kind of field is read, written and relabelled.  decode turns
    its JSON value, checked to be a shape, into a constructor argument,
    json turns the attribute back into that value, and relabel(value, f)
    applies f to its labels.  The rest are templates of the compiled
    writers, in which @ is the value: code is a piece of f-string writing
    the encode() text of a value that holds no term, and text its
    json.dumps text when that differs (a list's separators do).  A value
    that holds terms has its text, a piece of f-string, in _text(kept)
    (see _CHILD_TEXT), and its part of _sort_parts(key), a Python
    expression: one child's key or, when splice is set, a run of texts and
    keys that starts and ends with text."""

    def __init__(self, shape, decode, json, relabel, code="", text="",
                 part="", splice=False):
        self.shape, self.decode, self.json = shape, decode, json
        self.relabel, self.code, self.text = relabel, code, text
        self.part, self.splice = part, splice


def _run_text(run, table):
    """A run as JSON text, read from table, a run table, while a walk is
    open.  Outside one, where the table is empty, and for a run of blocks,
    which a substitution's outer term holds, it is written afresh: a
    lookup that always misses, or hashes blocks, costs more than writing
    the codes."""
    if _OPEN_WALKS and run and type(run[0]) is not Block:
        return table[run]
    return _label_list(run, table.sep)


def _run_list(runs, table):
    """A list of runs (a map's pairs, a partition's blocks) as
    JSON text, each run as _run_text writes it."""
    sep = table.sep
    if _OPEN_WALKS and runs and type(runs[0][0]) is not Block:
        items = map(table.__getitem__, runs)
    else:
        items = [_label_list(run, sep) for run in runs]
    return "[" + sep.join(items) + "]"


# A string that is not a label has the same code as the label it spells.
_TEXT = _FieldKind(
    str, lambda v: v, lambda v: v, lambda v, f: v, code="{_CODE(@)}"
)
_LABEL = _FieldKind(
    str, string_to_label, label_to_string, lambda v, f: f(v),
    code="{_CODE(@)}",
)
_LABELS = _FieldKind(
    list, _decode_labels, _labels_json, lambda v, f: [f(x) for x in v],
    code='[{",".join(map(_CODE, @))}]', text='[{", ".join(map(_CODE, @))}]',
)
#: A label list that many terms share (a graph's vertices), as a run.
_RUN = _FieldKind(list, _decode_labels, _labels_json, _LABELS.relabel,
                  code="{_run_text(@, _RUN_CODES)}",
                  text="{_run_text(@, _RUN_TEXTS)}")
_PAIRS = _FieldKind(
    list,
    lambda v: [(string_to_label(a), string_to_label(b)) for a, b in _pairs(v)],
    lambda v: [[label_to_string(a), label_to_string(b)] for a, b in v],
    lambda v, f: [(f(a), f(b)) for a, b in v],
    code="{_run_list(@, _RUN_CODES)}", text="{_run_list(@, _RUN_TEXTS)}",
)
#: A graph's or digraph's pairs, written by its vertex table from its
#: mask, so the templates name the term (self) where others name @.
_MASKED = _FieldKind(
    list, _PAIRS.decode, _PAIRS.json, _PAIRS.relabel,
    code="{self._table.write(self.mask, _RUN_CODES)}",
    text="{self._table.write(self.mask, _RUN_TEXTS)}",
)
_BLOCKS = _FieldKind(
    list,
    lambda v: [_decode_labels(b) for b in v],
    lambda v: [_labels_json(b) for b in v],
    lambda v, f: [[f(x) for x in b] for b in v],
    code="{_run_list(@, _RUN_CODES)}", text="{_run_list(@, _RUN_TEXTS)}",
)
#: A child's text: its kept text, or its own _text(kept) when none is kept.
_CHILD_TEXT = "{(kept.get(id(@)) or @._text(kept))}"
_CHILD = _FieldKind(
    dict, decode_structure, lambda v: v.to_json(), lambda v, f: v.relabel(f),
    text=_CHILD_TEXT, part="key(@)",
)
#: A child whose labels are blocks, relabelled by each block's image.
_ON_BLOCKS = _FieldKind(
    dict, decode_structure, lambda v: v.to_json(),
    lambda v, f: v.relabel(lambda b: Block(f(m) for m in b.members)),
    text=_CHILD_TEXT, part="key(@)",
)
#: A substitution's (block, inner term) pairs, written as one join of each
#: pair's kept text or, where none is kept, its own (_pair_text).
_ASSIGN = _FieldKind(
    list,
    lambda v: [
        (Block(_decode_labels(b)), decode_structure(t)) for b, t in _pairs(v)
    ],
    lambda v: [[_labels_json(b.members), t.to_json()] for b, t in v],
    lambda v, f: [
        (Block(f(m) for m in b.members), t.relabel(f)) for b, t in v
    ],
    text='[{", ".join([kept.get(id(p)) or _pair_text(p, kept) for p in @])}]',
    part="_assign_parts(@, key)",
    splice=True,
)

#: Every term class by its JSON kind.
_CLASSES = {}


def _tuple(items):
    return "(" + "".join(item + ", " for item in items) + ")"


def _compile_writers():
    """Set every class's _text and _sort_parts, compiled from the field
    tables in one go.  Compiling again sets equal methods, so two threads
    that make the first write at once may both compile."""
    classes = list(_CLASSES.values())
    src = []
    for cls in classes:
        fields = [(key, "self." + attr, fk) for key, attr, fk in cls.fields]
        src += [_text_source(cls, fields), _parts_source(cls, fields)]
    methods = {}
    exec(compile("\n".join(src), "<field tables>", "exec"), globals(), methods)
    for cls in classes:
        cls._text = methods[cls.__name__ + "_text"]
        cls._sort_parts = methods[cls.__name__ + "_sort_parts"]


def _text_source(cls, fields):
    """_text: keys in insertion order, json.dumps's separators.  Here and in
    _sort_parts, the keys and kinds written into the generated f-strings
    have no brace, quote or backslash to escape."""
    text = '{{"kind": ' + _quote(cls.kind)
    for k, v, fk in fields:
        text += f", {_quote(k)}: " + (fk.text or fk.code).replace("@", v)
    return f"def {cls.__name__}_text(self, kept): return f'{text}}}}}'"


def _parts_source(cls, fields):
    """_sort_parts: keys sorted, encode()'s separators, cut at each child."""
    runs, items, text = [], [], "{{"
    for i, (k, v, fk) in enumerate(sorted(fields + [("kind", "", None)])):
        text += ("," if i else "") + _quote(k) + ":"
        if fk is None:
            text += _quote(cls.kind)
        elif not fk.part:
            text += fk.code.replace("@", v)
        elif fk.splice:
            runs += [_tuple(items + [f"f'{text}'"]), fk.part.replace("@", v)]
            items, text = [], ""
        else:
            items += [f"f'{text}'", fk.part.replace("@", v)]
            text = ""
    parts = _tuple(items + [f"f'{text}}}}}'"])
    if runs:
        parts = "_splice" + _tuple(runs + [parts])
    return f"def {cls.__name__}_sort_parts(self, key): return {parts}"


def _splice(*runs):
    """Join runs of sort parts, each starting and ending with text, merging
    the texts where two runs meet."""
    out = list(runs[0])
    for run in runs[1:]:
        out[-1] += run[0]
        out += run[1:]
    return tuple(out)


def _pair_text(pair, kept):
    """A (block, inner) pair as JSON text: the block's member list and its
    inner term's kept text, or its own _text(kept)."""
    block, inner = pair
    return f"[{block.text()}, {kept.get(id(inner)) or inner._text(kept)}]"


def _kept_texts(shared):
    """The texts of shared, terms and (block, inner) pairs each once and
    every child before its parents (enumerator._Walk.shared()), by id:
    each text reads the kept texts of the children it holds."""
    kept = {}
    for item in shared:
        kept[id(item)] = (_pair_text(item, kept) if type(item) is tuple
                          else item._text(kept))
    return kept


def _assign_parts(assign, key):
    parts, text, sep = [], "[", ""
    for block, inner in assign:
        parts += (text + sep + "[" + block.code() + ",", key(inner))
        text, sep = "]", ","
    return (*parts, text + "]")


def _first_write(term, writer):
    """term's compiled method named writer, once every class's writers are
    compiled.  A class with no field table has none."""
    _compile_writers()
    method = getattr(type(term), writer)
    if method is Structure.__dict__[writer]:
        raise NotImplementedError
    return method.__get__(term)


def _encoded(term):
    """term.encode(), its children written without calling encode()."""
    return "".join(term._sort_parts(_encoded))


class Structure:
    """Base class: canonical term with equality, ordering key, and JSON."""

    __slots__ = ("_labels",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "fields" in cls.__dict__:
            _CLASSES[cls.kind] = cls
            cls._attrs = attrgetter(*[attr for _, attr, _ in cls.fields])

    def labels(self):
        """The underlying label set (derivative stars excluded), fixed when
        the term is built.  A public constructor keeps the frozenset its
        own checks compute; a bulk builder gives its terms the one set
        _SETS holds; a graph reads it from its vertex table."""
        return self._labels

    def relabel(self, f):
        """A copy with f applied to every label; stars stay fixed by the
        transport wrapper, not here."""
        return type(self)(*[
            fk.relabel(getattr(self, attr), f) for _, attr, fk in self.fields
        ])

    def to_json(self):
        """The term as a fresh JSON-ready dict on every call, built from
        the field tables: the reference the compiled writers are checked
        against, and a tree for API callers.  No writer of this module
        builds it."""
        tree = {"kind": self.kind}
        for key, attr, fk in self.fields:
            tree[key] = fk.json(getattr(self, attr))
        return tree

    def _text(self, kept):
        """json.dumps(self.to_json()): default separators, keys in
        insertion order, non-ASCII escaped.  kept maps the id of a term to
        its text.  A term writes its own literals and labels around each
        child's text: the child's kept text when there is one, else the
        child's own _text(kept), so _text({}) writes the term in full.
        Every class compiles its own from its field table; this one, reached
        before they are compiled, compiles them and calls the term's own."""
        return _first_write(self, "_text")(kept)

    def encode(self):
        """Canonical encoding, json.dumps(self.to_json(), separators=(",",
        ":"), sort_keys=True), written from the field tables; byte-stable,
        and it fixes the enumeration order."""
        return _encoded(self)

    def _sort_parts(self, key):
        """encode() cut at every child term: a tuple that alternates literal
        JSON text with key(child), starting and ending with text.  Every
        child is a complete JSON object, so no literal is a proper prefix of
        a different literal at the same position, and comparing these tuples
        (with key giving the children's tuples) orders terms exactly as
        comparing their encodings does.  Enumeration compares terms this way
        where it merges sorted lists.  A term with no child is one literal,
        its encode().  Every class compiles its own from its field table;
        this one, reached before they are compiled, compiles them and calls
        the term's own."""
        return _first_write(self, "_sort_parts")(key)

    def _key(self):
        return self._attrs(self)

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((self.kind, self._key()))

    def __repr__(self):
        return self.render()


class SetTerm(Structure):
    """The underlying set itself; also the one structure of 1 (empty set)
    and X (singleton)."""

    __slots__ = ("members",)
    kind = "set"
    fields = (("labels", "members", _LABELS),)

    def __init__(self, members):
        self.members = _sorted_labels(members)
        self._labels = frozenset(self.members)

    def render(self):
        return _brace(self.members)


class SubsetTerm(Structure):
    """A chosen subset; the complement is kept so the underlying set is
    still recoverable.  Listings build subsets with SubsetTerm.listed."""

    __slots__ = ("members", "rest")
    kind = "subset"
    fields = (("members", "members", _LABELS), ("rest", "rest", _LABELS))

    def __init__(self, members, rest):
        self.members = _sorted_labels(members)
        self.rest = _sorted_labels(rest)
        chosen = frozenset(self.members)
        if not chosen.isdisjoint(self.rest):
            raise ValueError("subset and complement overlap")
        self._labels = chosen.union(self.rest)

    @classmethod
    def listed(cls, labels, size=None):
        """SubsetTerm(chosen, rest) for every sublist chosen of labels (only
        those of length size, when given), rest the other labels, in
        encode() order (see _splits), made bare.  labels is checked
        once to be distinct and in key order, so every sublist is, and
        every term takes its one interned set."""
        labels = tuple(labels)
        if not _increasing(_label_keys(labels)):
            raise ValueError("subset members out of order")
        found = _splits(labels, None if size is None else (size,))
        every = _interned(labels)
        for at, (members, rest) in enumerate(found):
            found[at] = term = _new(cls)
            term.members, term.rest, term._labels = members, rest, every
        return found

    def render(self):
        return _brace(self.members)


class ListTerm(Structure):
    """A linear order on the labels."""

    __slots__ = ("seq",)
    kind = "list"
    fields = (("labels", "seq", _LABELS),)

    def __init__(self, seq):
        self.seq = tuple(seq)
        self._labels = labels = frozenset(self.seq)
        if len(labels) != len(self.seq):
            raise ValueError("duplicate label in list")

    def render(self):
        return "[" + ",".join(label_to_string(x) for x in self.seq) + "]"


class CycleTerm(Structure):
    """A cyclic order; stored rotated so the least label comes first."""

    __slots__ = ("seq",)
    kind = "cycle"
    fields = (("labels", "seq", _LABELS),)

    def __init__(self, seq):
        seq = tuple(seq)
        _check_cycle(seq)
        self._labels = labels = frozenset(seq)
        if len(labels) != len(seq):
            raise ValueError("duplicate label in cycle")
        keys = _label_keys(seq)
        pivot = keys.index(min(keys))
        self.seq = seq[pivot:] + seq[:pivot] if pivot else seq

    def render(self):
        return "(" + " ".join(label_to_string(x) for x in self.seq) + ")"


def _check_cycle(labels):
    if not labels:
        raise ValueError("a cycle needs at least one label")


class MapTerm(Structure):
    """A self-map of the label set, stored as pairs sorted by source.

    Used for permutations, derangements, involutions, and endofunctions;
    relabeling a pair list is exactly conjugation by the bijection.
    """

    __slots__ = ("pairs",)
    kind = "map"
    fields = (("pairs", "pairs", _PAIRS),)

    def __init__(self, pairs):
        items = [(a, b) for a, b in pairs]
        sources = [a for a, _ in items]
        keys = _label_keys(sources)
        if not _increasing(keys):
            items = _in_key_order(items, keys)
        self._labels = labels = frozenset(sources)
        if len(labels) != len(sources):
            raise ValueError("duplicate source in map")
        _check_targets([map(itemgetter(1), items)], labels)
        self.pairs = tuple(items)

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


def _check_targets(images, labels):
    """Refuse images, iterables of map targets, unless all are labels."""
    if not all(map(labels.issuperset, images)):
        raise ValueError("map target outside the label set")


class MapSources:
    """A sorted label tuple that a listing builds its set, maps, lists,
    cycles, partitions, derivatives or pointed terms on, checked once for
    every term built on it.

    MapSources(labels) refuses labels whose keys do not strictly increase,
    so they are distinct and in the order MapTerm keeps its pairs, and
    keeps their one interned set, targets, which every term built on it
    takes as its label set.  Listings build every such term on one, on any
    number of labels.  Each builder below returns the terms the public
    constructor would build, in the order given, made bare (no __init__
    run), and checks only what each term adds:

    - sets(): [SetTerm(labels)], which adds nothing.
    - maps(images): MapTerm(zip(labels, image)) for every image, a tuple
      of one target per source; each image's length, and that its targets
      lie in targets.
    - lists(order): ListTerm(p) for every permutation p of order, in
      the order itertools.permutations gives them; order is checked once
      to hold each label once, so every permutation does.
    - cycles(rest): CycleTerm((labels[0],) + p) for every permutation p
      of rest, in that order; labels[0] and rest are checked once to hold
      each label once, and every cycle starts at labels[0], the least
      label, so that no rotation is needed.
    - partitions(parts): PartitionTerm(blocks) for every tuple of blocks,
      each a tuple of labels; each distinct block is checked once, to be
      nonempty with increasing keys, and each partition to hold each label
      once, its blocks in order of their least keys.
    - derivatives(star, inners): DerivTerm(inner) for every inner.  Two
      things are checked once: that star is the tuple's last label, so
      its longest star, which DerivTerm takes as the added point; and that
      every inner lives on the tuple.  Each term takes the set of the
      other labels.
    - pointed(points, inners): PointTerm(at, inner) for every point, then
      every inner: the points are checked once to be labels and the
      inners to live on them."""

    __slots__ = ("labels", "targets")

    def __init__(self, labels):
        labels = tuple(labels)
        if not _increasing(_label_keys(labels)):
            raise ValueError("map sources out of order")
        self.labels, self.targets = labels, _interned(labels)

    def sets(self):
        term = _new(SetTerm)
        term.members, term._labels = self.labels, self.targets
        return [term]

    def maps(self, images):
        labels, targets = self.labels, self.targets
        images = list(images)
        if not all(map(len(labels).__eq__, map(len, images))):
            raise ValueError("map needs one target per source")
        _check_targets(images, targets)
        # Checks and pair tuples are made in C; the loop only fills the
        # terms' slots.
        terms = _bare(MapTerm, len(images))
        for term, pairs in zip(
            terms, map(tuple, map(zip, repeat(labels), images))
        ):
            term.pairs, term._labels = pairs, targets
        return terms

    def lists(self, order):
        order = tuple(order)
        self._check_order(order, "list")
        return self._fill(ListTerm, permutations(order))

    def cycles(self, rest):
        _check_cycle(self.labels)
        first = self.labels[:1]
        rest = tuple(rest)
        self._check_order(first + rest, "cycle")
        return self._fill(
            CycleTerm, map(add, repeat(first), permutations(rest))
        )

    def _check_order(self, order, what):
        """Refuse order unless it holds each label once, so that every
        permutation of it does."""
        if len(order) != len(self.labels) or frozenset(order) != self.targets:
            raise ValueError(f"{what} does not hold each label once")

    def _fill(self, cls, seqs):
        seqs, targets = list(seqs), self.targets
        terms = _bare(cls, len(seqs))
        for term, seq in zip(terms, seqs):
            term.seq, term._labels = seq, targets
        return terms

    def partitions(self, parts):
        parts = list(map(tuple, parts))
        least = {}
        for block in set(chain.from_iterable(parts)):
            if type(block) is not tuple:
                raise TypeError("a partition block must be a tuple")
            keys = _block_keys(block)
            if not _increasing(keys):
                raise ValueError("partition block out of order")
            least[block] = keys[0]
        targets = self.targets
        flat = list(map(tuple, map(chain.from_iterable, parts)))
        if not (
            all(map(len(self.labels).__eq__, map(len, flat)))
            and all(map(targets.__eq__, map(frozenset, flat)))
        ):
            raise ValueError("partition does not hold each label once")
        # Blocks that hold each label once have distinct least keys, so
        # the blocks are in order when the least keys equal their sorted
        # list.
        firsts = list(map(list, map(map, repeat(least.__getitem__), parts)))
        if not all(map(eq, firsts, map(sorted, firsts))):
            raise ValueError("partition blocks out of order")
        terms = _bare(PartitionTerm, len(parts))
        for term, blocks in zip(terms, parts):
            term.blocks, term._labels = blocks, targets
        return terms

    def derivatives(self, star, inners):
        targets = self.targets
        if not (self.labels[-1:] == (star,) and is_star(star)):
            raise ValueError("derivative star is not its longest label")
        inners = tuple(inners)
        if not _all_on(inners, targets):
            raise ValueError("derivative structure is not on its labels")
        labels = _interned(self.labels[:-1])
        terms = _bare(DerivTerm, len(inners))
        for term, inner in zip(terms, inners):
            term.inner, term._labels = inner, labels
        return terms

    def pointed(self, points, inners):
        targets = self.targets
        points = tuple(points)
        _check_points(points, targets)
        inners = tuple(inners)
        if not _all_on(inners, targets):
            raise ValueError("pointed structure is not on its labels")
        terms = _bare(PointTerm, len(points) * len(inners))
        ats = chain.from_iterable(map(repeat, points, repeat(len(inners))))
        for term, at, inner in zip(terms, ats, inners * len(points)):
            term.at, term.inner, term._labels = at, inner, targets
        return terms


def sum_terms(side, inners):
    """SumTerm(side, inner) for every inner, made bare: the side is checked
    once, and each term takes the label set its inner term fixed when it
    was built."""
    _check_side(side)
    terms = _bare(SumTerm, len(inners))
    for term, inner in zip(terms, inners):
        term.side, term.inner, term._labels = side, inner, inner._labels
    return terms


def named_terms(name, inners):
    """NamedTerm(name, inner) for every inner, made bare: the name is
    checked once to be a string, and each term takes the label set its
    inner term fixed when it was built."""
    _check_name(name)
    terms = _bare(NamedTerm, len(inners))
    for term, inner in zip(terms, inners):
        term.name, term.inner, term._labels = name, inner, inner._labels
    return terms


class _VertexTable:
    """The vertex table of one vertex list and one kind of pair: vertices
    its sorted, checked tuple, pos each vertex's place in it, labels the
    one set of them _SETS holds, which is the label set of every term on
    the table, and directed whether its pairs are arcs (every ordered pair
    of vertices) or edges (every two vertices, the lesser first).  A term
    on the table holds a mask: bit k stands for the k-th possible pair in
    rank order (see bit).

    The possible pairs, one tuple each, are made on first use and kept
    (pairs()).  A public constructor makes a table for its one term, which
    reads its mask bit by bit.  A listing's terms share one table
    (listing), whose chunk tables of the pairs' tuples and of their
    encode() and json.dumps texts are built on first use and kept
    (chunks()), so that a mask of 16 arcs is decoded, or written, from two
    lookups.  Two threads that build one of them at once store equal
    values.  (A plain class: creating a namedtuple class costs more at
    import.)"""

    __slots__ = ("vertices", "pos", "labels", "directed", "_pairs",
                 "_chunks")

    def __init__(self, vertices, directed, listing=False):
        self.vertices = vertices = _sorted_labels(vertices)
        self.pos = {v: i for i, v in enumerate(vertices)}
        self.labels = _interned(vertices)
        self.directed = directed
        self._pairs = None
        self._chunks = {} if listing else None

    def pairs(self):
        """Every possible pair, in bit order."""
        if self._pairs is None:
            vertices = self.vertices
            self._pairs = tuple(
                product(vertices, repeat=2) if self.directed
                else combinations(vertices, 2)
            )
        return self._pairs

    def bit(self, i, j):
        """The bit of the pair of the vertices at places i and j (i < j for
        an edge): the number of possible pairs of lesser rank, a pair's
        rank being i * n + j, which orders pairs as label_sort_key does."""
        n = len(self.pos)
        if self.directed:
            return i * n + j
        return i * (2 * n - i - 3) // 2 + j - 1

    def chunks(self, sep):
        """The chunk tables (_chunk_tables) of the possible pairs' units: a
        unit is a pair's 1-tuple (sep None), or its JSON text led by sep,
        "," as encode() writes it and ", " as json.dumps does."""
        found = self._chunks.get(sep)
        if found is None:
            pairs = self.pairs()
            found = self._chunks[sep] = (
                _chunk_tables(list(zip(pairs)), ()) if sep is None else
                _chunk_tables([sep + _label_list(p, sep) for p in pairs], "")
            )
        return found

    def decode(self, mask):
        """The pairs of mask's bits, in bit order."""
        if self._chunks is None:
            pairs = self.pairs()
            return tuple([pairs[k] for k in range(mask.bit_length())
                          if mask >> k & 1])
        return _decode(self.chunks(None), mask)

    def write(self, mask, runs):
        """The pairs of mask as a JSON list, with the separator of runs,
        a run table, which writes them on a table of one term."""
        if self._chunks is None:
            return _run_list(self.decode(mask), runs)
        sep = runs.sep
        chunks = self._chunks.get(sep) or self.chunks(sep)
        return "[" + "".join(map(
            getitem, chunks, mask.to_bytes(len(chunks), "little")
        ))[len(sep):] + "]"


def _pair_bits(table, pairs, given=False):
    """The bits of pairs, the edges or arcs of a term on table, in rank
    order.  Each pair is checked, in the order given, before any two are
    compared: both ends must be vertices, and an edge no loop; two pairs
    of one rank are the same, refused.  Given (by public constructors), an
    edge may have its greater end first, and the bits are sorted; else
    (from listings) the pairs must come in rank order."""
    pos, bit = table.pos, table.bit
    edges = not table.directed
    what = "edge" if edges else "arc"
    bits = []
    for a, b in pairs:
        if edges and a == b:
            raise ValueError("a simple graph has no loops")
        try:
            i, j = pos[a], pos[b]
        except KeyError:
            raise ValueError(f"{what} endpoint outside the vertex set") from None
        if edges and i > j:
            if not given:
                raise ValueError("edge out of order")
            i, j = j, i
        bits.append(bit(i, j))
    if given:
        bits.sort()
    for last, at in zip(bits, bits[1:]):
        if at <= last:
            raise ValueError(
                f"duplicate {what}" if at == last else f"{what} out of order"
            )
    return bits


def _pair_code(pair):
    """The codes of a pair's two labels, which order pairs as their JSON
    lists do."""
    return _CODE(pair[0]), _CODE(pair[1])


class _Graph(Structure):
    """A graph or digraph on a vertex table, which holds the sorted,
    checked vertices and their one interned set, the term's label set, and
    reads the term's mask of edges or arcs (pairs, named after the JSON
    key by each class).  Equality and hashing read the vertices and the
    mask, and decode nothing.  Listings build graphs and digraphs with
    listed, every term on one table."""

    __slots__ = ("_table", "mask")

    vertices = property(attrgetter("_table.vertices"))
    _labels = property(attrgetter("_table.labels"))

    def __init__(self, vertices, pairs):
        self._table = table = _VertexTable(vertices, self.directed)
        self.mask = sum([1 << b for b in _pair_bits(table, pairs, True)])

    @property
    def pairs(self):
        """The edges or arcs in rank order: the table's own pair tuples."""
        return self._table.decode(self.mask)

    def _key(self):
        return self._table.vertices, self.mask

    @classmethod
    def listed(cls, vertices, pairs):
        """cls(vertices, chosen) for every sublist chosen of pairs, in
        encode() order (see _list_order), made bare.  pairs, possible
        edges or arcs in rank order, are checked once by _pair_bits, and
        every term shares the table."""
        table = _VertexTable(vertices, cls.directed, listing=True)
        bits = _pair_bits(table, pairs)
        every = table.pairs()
        found = _list_order([_pair_code(every[b]) for b in bits],
                            units=[1 << b for b in bits])
        for at, mask in enumerate(found):
            found[at] = term = _new(cls)
            term._table = table
            term.mask = mask
        return found


class GraphTerm(_Graph):
    """A simple graph: vertex set plus sorted undirected edges."""

    __slots__ = ()
    kind = "graph"
    directed = False
    fields = (("vertices", "vertices", _RUN), ("edges", "edges", _MASKED))
    edges = _Graph.pairs

    def render(self):
        edges = " ".join(_brace(e) for e in self.edges) or "-"
        return f"graph(V={_brace(self.vertices)}, E: {edges})"


class DigraphTerm(_Graph):
    """A directed graph on the label set; loops allowed."""

    __slots__ = ()
    kind = "digraph"
    directed = True
    fields = (("vertices", "vertices", _RUN), ("arcs", "arcs", _MASKED))
    arcs = _Graph.pairs

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
        firsts = [_block_keys(b[:1])[0] for b in norm]
        seen = frozenset()
        for block in norm:
            seen = _joined(frozenset(block), seen)
        if not _increasing(firsts):
            norm = _in_key_order(norm, firsts)
        self.blocks = tuple(norm)
        self._labels = seen

    def render(self):
        return "{" + ",".join(_brace(b) for b in self.blocks) + "}"


def _block_keys(block):
    """The keys of a partition block's labels, refused when it is empty."""
    keys = _label_keys(block)
    if not keys:
        raise ValueError("empty block in partition")
    return keys


def _joined(block, labels):
    """labels | block, the sets of a block's labels and of the labels of
    the blocks beside it, refused if they meet."""
    found = labels | block
    if len(found) != len(labels) + len(block):
        raise ValueError("blocks overlap")
    return found


class SumTerm(Structure):
    """A structure of the left or right summand, tagged with its side."""

    __slots__ = ("side", "inner")
    kind = "sum"
    fields = (("side", "side", _TEXT), ("inner", "inner", _CHILD))

    def __init__(self, side, inner):
        _check_side(side)
        self.side = side
        self.inner = inner
        self._labels = inner._labels

    def render(self):
        return f"{self.side}({self.inner.render()})"


def _check_side(side):
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")


class ProdTerm(Structure):
    """An ordered pair of structures on complementary label sets."""

    __slots__ = ("left", "right")
    kind = "prod"
    fields = (("left", "left", _CHILD), ("right", "right", _CHILD))

    def __init__(self, left, right):
        self._labels = _product_labels(left.labels(), right.labels())
        self.left = left
        self.right = right

    def render(self):
        return f"({self.left.render()}, {self.right.render()})"


def _product_labels(left, right):
    """The set of a product's labels, refused if its parts meet."""
    if not left.isdisjoint(right):
        raise ValueError("product parts share labels")
    return left | right


class ProductSplit:
    """A product's labels cut in two, as listings build products: the left
    factors' labels and the right factors', checked once for every product
    term built on them.

    ProductSplit(chosen, rest, rights) refuses chosen and rest when they
    meet, and any term of rights, the right factors, that does not live on
    rest.  split.products(left) refuses left unless it lives on chosen, and
    is the list of ProdTerm(left, right) for every right of rights, in
    order: no pair is checked again, and every term takes the split's one
    interned label set as its own."""

    __slots__ = ("chosen", "rights", "labels")

    def __init__(self, chosen, rest, rights):
        chosen, rest = _interned(chosen), _interned(rest)
        self.labels = _interned(_product_labels(chosen, rest))
        rights = tuple(rights)
        if not _all_on(rights, rest):
            raise ValueError("right factor is not on its labels")
        self.chosen, self.rights = chosen, rights

    def products(self, left):
        if left.labels() != self.chosen:
            raise ValueError("left factor is not on its labels")
        labels, rights = self.labels, self.rights
        terms = _bare(ProdTerm, len(rights))
        for term, right in zip(terms, rights):
            term.left, term.right, term._labels = left, right, labels
        return terms


def _block_key(pair):
    """A substitution pair's place in its term, refusing a key that is not
    a block."""
    block, _ = pair
    if not isinstance(block, Block):
        raise TypeError("assignment keys must be blocks")
    return block.key


def _before(block, tail):
    """The interned label set of the assignment tail with block put before
    its pairs, refused unless block meets none of tail's labels and its key
    is below the key of tail's first block."""
    labels = _joined(block.member_set, tail.labels)
    pairs = tail.pairs
    if pairs and not block.key < pairs[0][0].key:
        raise ValueError("blocks out of order")
    return _interned(labels)


_tail_labels = attrgetter("labels")


class Assignment:
    """The (block, inner) pairs of a substitution, checked as listings
    build them, one part at a time, for _comp_terms to build terms on.

    Assignment.pair(block, inner) forms a pair, checking that inner lives
    on block; a listing forms each pair once, however many assignments
    share it.  Assignment() holds no pair, and Assignment.listed builds
    the others.  pairs is the tuple of pairs in block order, blocks the set
    of their blocks and labels the set of their members, each the one set
    _SETS holds for it."""

    __slots__ = ("pairs", "blocks", "labels")

    def __init__(self):
        self.pairs = ()
        self.blocks = self.labels = _interned(())

    @staticmethod
    def pair(block, inner):
        """The pair (block, inner), refused unless inner lives on block."""
        _block_key((block, inner))
        if inner.labels() != block.member_set:
            raise ValueError("inner structure is not on its block")
        return block, inner

    @staticmethod
    def listed(pairs, tails):
        """Each pair of pairs put before the pairs of each tail of tails,
        pair by pair and then tail by tail, made bare.  The pairs, formed by
        Assignment.pair, are checked once to share one block; the block set
        it makes with a tail is formed once for all the pairs.

        The tails of a listing all cover one label set, so their
        assignments share one label set, made and checked against the
        block once (_before, on the first tail), each tail's labels
        compared with the first's in C.  The first block of every
        assignment holds its least label, so checking the block's order
        against one tail checks it against all.  Tails on other label sets
        are each checked on their own."""
        pairs = tuple(pairs)
        if not pairs:
            return []
        _block_key(pairs[0])
        block = pairs[0][0]
        if not all(map(is_, map(itemgetter(0), pairs), repeat(block))):
            raise ValueError("assignment pairs do not share one block")
        if not tails:
            return []
        first = tails[0].labels
        if all(map(eq, map(_tail_labels, tails), repeat(first))):
            sets = repeat(_before(block, tails[0]))
        else:
            sets = [_before(block, tail) for tail in tails]
        # A union with a set holding the block reads its stored hash, where
        # one with the block itself would call Block.__hash__ per tail.
        unit = frozenset((block,))
        joined = [
            (tail.pairs, _interned(tail.blocks | unit), labels)
            for tail, labels in zip(tails, sets)
        ]
        terms = _bare(Assignment, len(pairs) * len(joined))
        made = iter(terms)
        for pair in pairs:
            head = (pair,)
            for (rest, blocks, labels), term in zip(joined, made):
                term.pairs, term.blocks, term.labels = head + rest, blocks, labels
        return terms


class CompTerm(Structure):
    """A substitution structure: a partition into blocks, one inner
    structure per block, and an outer structure on the blocks themselves.

    assign is the (block, inner) pairs in any order, sorted by block.  The
    outer term, then each pair, take the checks the bulk builders make
    (_check_outers, Assignment.pair and _joined)."""

    __slots__ = ("outer", "assign")
    kind = "comp"
    fields = (("outer", "outer", _ON_BLOCKS), ("assign", "assign", _ASSIGN))

    def __init__(self, outer, assign):
        assign = tuple(sorted(map(tuple, assign), key=_block_key))
        _check_outers((outer,), frozenset(map(itemgetter(0), assign)))
        labels = frozenset()
        for block, inner in assign:
            Assignment.pair(block, inner)
            labels = _joined(block.member_set, labels)
        self.outer = outer
        self.assign = assign
        self._labels = labels

    def render(self):
        parts = ", ".join(
            f"{block.token()}=>{inner.render()}"
            for block, inner in self.assign
        )
        return f"comp({self.outer.render()}; {parts})" if parts else (
            f"comp({self.outer.render()};)"
        )


def _check_outers(outers, blocks):
    """Refuse outers unless all live on blocks, a substitution's blocks."""
    if not _all_on(outers, blocks):
        raise ValueError("outer structure is not on the block set")


def _comp_terms(assigns, outers_on):
    """CompTerm(outer, assign.pairs) for every Assignment assign of
    assigns, then every outer of outers_on[assign.blocks], made bare: each
    outer list is checked once, in C, to live on its block set, and every
    term takes its assignment's label set."""
    for blocks, outers in outers_on.items():
        _check_outers(outers, blocks)
    terms = []
    for assign in assigns:
        pairs, labels = assign.pairs, assign.labels
        for outer in outers_on[assign.blocks]:
            term = _new(CompTerm)
            term.outer, term.assign, term._labels = outer, pairs, labels
            terms.append(term)
    return terms


class DerivTerm(Structure):
    """A structure on the labels plus one extra reserved point, its
    inner term's longest star."""

    __slots__ = ("inner",)
    kind = "deriv"
    fields = (("inner", "inner", _CHILD),)

    def __init__(self, inner):
        labels = inner.labels()
        stars = [l for l in labels if is_star(l)]
        if not stars:
            raise ValueError("derivative structure is missing its star point")
        self.inner = inner
        self._labels = labels.difference((max(stars, key=len),))

    def render(self):
        return f"D({self.inner.render()})"


class PointTerm(Structure):
    """A structure together with one of its own labels singled out."""

    __slots__ = ("at", "inner")
    kind = "point"
    fields = (("at", "at", _LABEL), ("inner", "inner", _CHILD))

    def __init__(self, at, inner):
        labels = inner.labels()
        _check_points((at,), labels)
        self.at = at
        self.inner = inner
        self._labels = labels

    def render(self):
        return f"pt[{label_to_string(self.at)}]{self.inner.render()}"


def _check_points(points, labels):
    if not labels.issuperset(points):
        raise ValueError("distinguished point is not a label")


class NamedTerm(Structure):
    """One unfolding of a named species wrapped with that name."""

    __slots__ = ("name", "inner")
    kind = "named"
    fields = (("name", "name", _TEXT), ("inner", "inner", _CHILD))

    def __init__(self, name, inner):
        _check_name(name)
        self.name = name
        self.inner = inner
        self._labels = inner._labels

    def render(self):
        return f"{self.name}:{self.inner.render()}"


def _check_name(name):
    if not isinstance(name, str):
        raise TypeError("a name must be a string")


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
        return _in_key_order(list(self._map.items()), _label_keys(self._map))

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
