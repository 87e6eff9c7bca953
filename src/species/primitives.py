"""The primitive species of §4 of the paper ("Exemples d'espèces"), one
table row each.

ROWS maps every PrimitiveKind to a row (series, listing).  series(order,
k) is the kind's counting series truncated at order; listing(labels, k) is
the list of its structures on a sorted label tuple, in encode() order.  k
is the parameter of Ek[k] and Pk[k], None for every other kind.  The
evaluator in semantics and the enumerator read a primitive's row, and the
evaluator's decision on recursive systems its sizes in NONEMPTY, and
nothing else, so a primitive is added or mended here alone.

Six rows restrict another by cardinality (Bergeron, Labelle and Leroux,
Combinatorial Species and Tree-like Structures, 1998, ch. 1-2): 0, 1, X,
Ep and Ek[k] are E kept on no size, on 0, on 1, on n >= 1 and on k, and Lp
is L kept on n >= 1.  One size predicate keeps both the counts and the
listing of such a row.  Three counts are derived from other rows through
the series algebra, which keeps a single source of truth for them:
derangements by dividing permutations by sets (S = E*Der), involutions by
substituting X + E_2 into E, and partitions by substituting Ep into E.

Every listing comes in encode() order.  Subsets, graphs, digraphs and
partitions take sublists in the order of their JSON lists, as masks from
one generator (structures._list_order): SubsetTerm.listed, GraphTerm.listed
and DigraphTerm.listed check the labels, possible edges or possible arcs
once and build every term bare from a mask, and a partition's first block
is the first label with a sublist of the others.  Lists, cycles and maps
hold their labels in fixed places (maps by source), so they are generated
from the labels in encoded order.  The set, and all maps, lists, cycles or
partitions on labels, are built on one MapSources, which checks the label
tuple once, so no listing runs a public constructor.  Lists and cycles are
the permutations of one order it checks once; partitions are checked
block by block and once each for holding every label once.  _partitions
still sorts them by encode(), though they come in order: on the verify
workload that sort is the one call of Structure.encode, a boundary that
perfbench/tracing.py requires to be reached until the engine counts its
own work (ROADMAP item 1).
"""

from itertools import (
    combinations,
    permutations,
    product as iproduct,
    repeat,
)
from math import comb
from operator import add, ne

from .expr import PrimitiveKind as K
from .series import CountSeries, _factorials
from .structures import (
    DigraphTerm,
    GraphTerm,
    MapSources,
    SubsetTerm,
    _splits,
    label_code,
)

__all__ = ["NONEMPTY", "ROWS"]


def _counts(count_at):
    """The series part of a row whose count on n labels is count_at(n, k)."""
    return lambda order, k: CountSeries(
        count_at(n, k) for n in range(order + 1)
    )


def _kept(row, admits):
    """row kept on the label sets whose size n satisfies admits(n, k): its
    counts elsewhere are 0 and its listing there is empty."""
    series, listing = row
    return (
        lambda order, k: CountSeries(
            c if admits(n, k) else 0
            for n, c in enumerate(series(order, k)._counts)
        ),
        lambda labels, k: listing(labels, k) if admits(len(labels), k) else [],
    )


def _by_code(labels):
    return sorted(labels, key=label_code)


def _set_partitions(items, listed):
    """All partitions of a tuple of labels into nonempty blocks, in
    encode() order, as tuples of blocks, each block a tuple of labels in
    items' order (the empty tuple has one partition: the empty one).  The
    first block holds items[0] and a sublist of the others, in the order
    of _splits, so blocks are in order of their first label.  listed maps
    each tuple of labels left over to its partitions, so that each is
    listed once however many first blocks leave it, and every partition
    is one tuple built once, not rebuilt at each level."""
    if len(items) < 2:
        return [(items,)] if items else [()]
    found = listed.get(items)
    if found is not None:
        return found
    first, rest = items[0], items[1:]
    found = listed[items] = []
    for companions, left in _splits(rest):
        tails = _set_partitions(left, listed)
        found += map(add, repeat(((first,) + companions,)), tails)
    return found


def _fill(labels, by_code, image, out, i):
    """Append to out the targets, one per source, of every involution that
    extends the partial one in image, whose sources before i are all
    mapped."""
    n = len(labels)
    while i < n and image[i] is not None:
        i += 1
    if i == n:
        out.append(tuple(map(labels.__getitem__, image)))
        return
    for j in by_code:
        if j == i or (j > i and image[j] is None):
            image[i] = j
            image[j] = i
            _fill(labels, by_code, image, out, i + 1)
            image[i] = image[j] = None


def _involutions(labels, k):
    """Every involution of labels, in encode() order: a depth-first fill of
    the sources in order, where each free source maps, by encoded label,
    to itself or to a later free source."""
    n = len(labels)
    by_code = sorted(range(n), key=lambda i: label_code(labels[i]))
    images = []
    _fill(labels, by_code, [None] * n, images, 0)
    return MapSources(labels).maps(images)


def _cycles(labels, k):
    if not labels:
        return []
    rest = [x for x in _by_code(labels) if x != labels[0]]
    return MapSources(labels).cycles(rest)


def _derangements(labels, k):
    return MapSources(labels).maps(
        image for image in permutations(_by_code(labels))
        if all(map(ne, labels, image))
    )


def _partitions(labels, k):
    out = MapSources(labels).partitions(_set_partitions(labels, {}))
    out.sort(key=lambda s: s.encode())
    return out


_E = (_counts(lambda n, k: 1), lambda labels, k: MapSources(labels).sets())
# n! lists on n labels, sliced from the series module's factorial table.
_L = (
    lambda order, k: CountSeries(_factorials(order)[:order + 1]),
    lambda labels, k: MapSources(labels).lists(_by_code(labels)),
)

#: The sizes n on which a kind has structures, as a predicate of (n, k),
#: for the kinds that lack them on some label sets; every other kind has
#: structures on every set.  The kept rows keep E and L on these sizes.
NONEMPTY = {
    K.ZERO: lambda n, k: False,
    K.ONE: lambda n, k: n == 0,
    K.SINGLETON: lambda n, k: n == 1,
    K.KSET: lambda n, k: n == k,
    K.NONEMPTY_SET: lambda n, k: n >= 1,
    K.NONEMPTY_LIST: lambda n, k: n >= 1,
    K.CYCLE: lambda n, k: n >= 1,
    K.DERANGEMENT: lambda n, k: n != 1,
    K.KSUBSET: lambda n, k: n >= k,
}
_X = _kept(_E, NONEMPTY[K.SINGLETON])
_EK = _kept(_E, NONEMPTY[K.KSET])
_EP = _kept(_E, NONEMPTY[K.NONEMPTY_SET])

ROWS = {
    K.ZERO: _kept(_E, NONEMPTY[K.ZERO]),
    K.ONE: _kept(_E, NONEMPTY[K.ONE]),
    K.SINGLETON: _X,
    K.SET: _E,
    K.NONEMPTY_SET: _EP,
    K.KSET: _EK,
    K.LIST: _L,
    K.NONEMPTY_LIST: _kept(_L, NONEMPTY[K.NONEMPTY_LIST]),
    # (n - 1)! cycles on n labels: L's counts shifted one place.
    K.CYCLE: (
        lambda order, k: CountSeries((0, *_factorials(order)[:order])),
        _cycles,
    ),
    K.PERMUTATION: (
        _L[0],
        lambda labels, k: MapSources(labels).maps(
            permutations(_by_code(labels))
        ),
    ),
    # Fixed points split off as a set: S = E * Der, so Der = S / E.
    K.DERANGEMENT: (
        lambda order, k: _L[0](order, k) / _E[0](order, k), _derangements
    ),
    # An involution is a set of fixed points and 2-cycles: E(X + E_2).
    K.INVOLUTION: (
        lambda order, k: _E[0](order, k)(_X[0](order, k) + _EK[0](order, 2)),
        _involutions,
    ),
    K.ENDOFUNCTION: (
        _counts(lambda n, k: n**n),
        lambda labels, k: MapSources(labels).maps(
            iproduct(_by_code(labels), repeat=len(labels))
        ),
    ),
    # A partition is a set of nonempty blocks: E(E+).
    K.PARTITION: (
        lambda order, k: _E[0](order, k)(_EP[0](order, k)), _partitions
    ),
    # P lists every subset: SubsetTerm.listed keeps all sizes on k = None.
    K.SUBSET: (_counts(lambda n, k: 2**n), SubsetTerm.listed),
    K.KSUBSET: (_counts(lambda n, k: comb(n, k)), SubsetTerm.listed),
    K.GRAPH: (
        _counts(lambda n, k: 2 ** comb(n, 2)),
        lambda labels, k: GraphTerm.listed(labels, combinations(labels, 2)),
    ),
    K.DIGRAPH: (
        _counts(lambda n, k: 2 ** (n * n)),
        lambda labels, k: DigraphTerm.listed(
            labels, iproduct(labels, repeat=2)
        ),
    ),
}
