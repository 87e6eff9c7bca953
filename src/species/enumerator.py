"""Exhaustive enumeration of labeled structures and their transport.

enumerate_structures produces every structure of a species on a concrete
label set, as canonical terms in the order of their encoding.  The expected
cardinality is computed from the counting series first, which doubles as the
budget guard and keeps enumeration and series honest against each other.

No listing is sorted at the end.  The encoding fixes the order child first,
so every node builds its list in encode() order from its children's lists:
a node that wraps one child keeps the child's order, a sum merges its two
sides, a product orders its left factors, and primitives are generated in
order.  Only partitions are still sorted by encode(), once per label set.

Transport applies a bijection of label sets to a structure.  Because the
canonical constructors determine how relabeling acts (pair lists conjugate,
cycles re-rotate, partitions re-sort), transport is a uniform relabeling
that fixes the reserved star points.

The walk runs with Python's cyclic garbage collector paused.  A listing
holds hundreds of thousands of terms that refer only to their children, so
it has no reference cycles to find, yet each full collection would traverse
all of them again.  The walk itself makes no cycle either: its recursive
helpers are module functions that get their state as arguments, not
closures that refer to themselves.  listing() pauses the collector and
turns it back on when the listing returns or raises, if it was on when the
listing began.  The switch is process-wide: another thread that turns the
collector off during a walk finds it on again when the walk ends, and one
that turns it on makes the rest of the walk collect as usual.  Walks that
overlap in several threads leave it on if it was on before the first of
them began.
"""

import gc
import random
from itertools import combinations, permutations, product as iproduct

from .errors import (
    BudgetExceeded,
    DomainMismatch,
    NotABijection,
    ParseError,
    RecursionGuard,
)
from .expr import (
    Derivative,
    Environment,
    Name,
    Pointing,
    Primitive,
    PrimitiveKind,
    Product,
    RestrictCard,
    Substitute,
    Sum,
)
from .semantics import egf_of
from .structures import (
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
    STAR,
    SubsetTerm,
    SumTerm,
    check_label,
    clear_label_codes,
    is_star,
    label_code,
    label_sort_key,
)

__all__ = [
    "DEFAULT_BUDGET",
    "enumerate_structures",
    "transport",
    "decompose_permutation",
    "recompose_permutation",
    "permutation_to_cycles",
    "cycles_to_permutation",
    "check_functoriality",
    "FunctorialityReport",
]

DEFAULT_BUDGET = 10_000_000

K = PrimitiveKind


def _clean_labels(labels):
    seen = []
    for label in labels:
        if isinstance(label, (str, int)):
            seen.append(check_label(label))
        else:
            raise ParseError(f"{label!r} is not a label")
    out = tuple(sorted(seen, key=label_sort_key))
    if len(set(out)) != len(out):
        raise ParseError(f"duplicate label in {labels!r}")
    return out


def _set_partitions(items):
    """All partitions of a tuple into nonempty blocks (the empty tuple has
    exactly one partition: the empty one)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k in range(len(rest) + 1):
        for companions in combinations(rest, k):
            block = (first,) + companions
            taken = set(companions)
            remaining = tuple(x for x in rest if x not in taken)
            for others in _set_partitions(remaining):
                yield [block] + others


def enumerate_structures(expr, env=None, labels=(), budget=DEFAULT_BUDGET):
    """All structures of the species on the given labels, in the order of
    their canonical encoding.

    The series count is computed first; BudgetExceeded is raised before any
    structure is built when it is larger than the budget.  The result's
    length always equals that count.  The walk builds the list in order, so
    it is returned as built.  It runs in the scope of one listing().
    """
    env = env or Environment()
    labs = _clean_labels(labels)
    expected = egf_of(expr, env, order=len(labs)).count(len(labs))
    if expected > budget:
        raise BudgetExceeded(
            f"{expected} structures would exceed the budget of {budget}"
        )
    with listing():
        return _structures(expr, env, labs, _Walk())


class listing:
    """The scope of a listing: the cyclic garbage collector is paused in it
    and left as it was found (see the module docstring), and the table of
    label codes the listing filled is emptied when it ends.  Scopes nest.

    Not a generator: its exit would allocate a StopIteration after turning
    the collector back on, and that allocation starts a young collection
    that traverses every term the caller still holds.
    """

    def __enter__(self):
        self.collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        clear_label_codes()
        if self.collecting:
            gc.enable()


class _Walk(set):
    """The guard set of one enumerate_structures call, carrying that
    call's memos.

    memo maps (id(node), labels) to a finished list, so that each
    subexpression is enumerated once per label set and its terms are shared
    by every term built on them.  Node ids are stable because the
    expression and env outlive the call; term ids are stable because the
    memo keeps every term alive.  The memos ride on the guard set because
    _structures keeps its four-argument signature, which
    perfbench/tracing.py wraps to count every node visit.
    """

    __slots__ = ("memo", "keys", "series_counts")

    def __init__(self, guards=()):
        super().__init__(guards)
        self.memo = {}
        self.keys = {}
        self.series_counts = {}

    def key(self, term):
        """term's _sort_parts tuple, built once per walk: comparing keys
        compares encodings, and a shared subterm is cut up once.

        A key cut around one child (a sum, named, derivative or pointed
        term, or a substitution with no blocks) holds that child's parts in
        place of the child's tuple.  The parts still cut the encoding at
        whole child terms, so the order is the same, but keys nest less
        deeply: comparing nested tuples costs time quadratic in the depth
        of their first difference.
        """
        found = self.keys.get(id(term))
        if found is None:
            parts = term._sort_parts(self.key)
            if len(parts) == 3:
                head, child, tail = parts
                parts = (head, *child, tail)
            found = self.keys[id(term)] = parts
        return found

    def counts(self, expr, env, n):
        """The structure counts of a subexpression on 0..n labels, from its
        series; kept per node, and recomputed only when a visit needs more
        labels (a derivative adds one)."""
        found = self.series_counts.get(id(expr))
        if found is None or len(found) <= n:
            found = self.series_counts[id(expr)] = egf_of(
                expr, env, order=n
            ).counts()
        return found


def _structures(expr, env, labels, active):
    """The list of structures on a sorted label tuple, in encode() order;
    active tracks the named species currently being expanded on each label
    set.

    Finished lists are memoised in the walk and shared: never mutate one.
    A plain set as active starts a new walk holding its guards.
    """
    if not isinstance(active, _Walk):
        active = _Walk(active)
    if isinstance(expr, Name):
        guard = (expr.ident, frozenset(labels))
        if guard in active:
            raise RecursionGuard(
                f"'{expr.ident}' recurred on the same labels "
                f"without consuming any; its structures are not well-founded"
            )
    memo = active.memo
    key = (id(expr), labels)
    found = memo.get(key)
    if found is None:
        found = memo[key] = _build(expr, env, labels, active)
    return found


def _build(expr, env, labels, active):
    """The structures of one node on labels, in encode() order, from its
    children's lists.

    Each term's encoding begins with what decides its order: a named or
    derivative term, like a restriction, keeps its child's order; a sum
    term orders by its inner term, then left before right; a product term
    by its left factor, then its right; a pointed term by its point, then
    its inner term.
    """
    if isinstance(expr, Primitive):
        return _primitive_structures(expr, labels)
    if isinstance(expr, Name):
        guard = (expr.ident, frozenset(labels))
        active.add(guard)
        try:
            inner = _structures(env[expr.ident], env, labels, active)
        finally:
            active.discard(guard)
        return [NamedTerm(expr.ident, s) for s in inner]
    if isinstance(expr, Sum):
        left = _structures(expr.left, env, labels, active)
        right = _structures(expr.right, env, labels, active)
        out = [SumTerm("left", s) for s in left] + [
            SumTerm("right", s) for s in right
        ]
        if left and right:
            # A stable sort of two sorted runs is their merge, with the
            # left side first on equal inner terms.
            key = active.key
            out.sort(key=lambda t: key(t.inner))
        return out
    if isinstance(expr, Product):
        n = len(labels)
        left_counts = active.counts(expr.left, env, n)
        right_counts = active.counts(expr.right, env, n)
        pairs = []
        splits = 0
        for k in range(n + 1):
            if not left_counts[k] or not right_counts[n - k]:
                continue
            for chosen in combinations(labels, k):
                lefts = _structures(expr.left, env, chosen, active)
                taken = set(chosen)
                rest = tuple(x for x in labels if x not in taken)
                rights = _structures(expr.right, env, rest, active)
                pairs.extend((l, rights) for l in lefts)
                splits += 1
        if splits > 1:
            # One sorted run of left factors per split; each left factor's
            # rights are already in order.
            key = active.key
            pairs.sort(key=lambda pair: key(pair[0]))
        return [ProdTerm(l, r) for l, rights in pairs for r in rights]
    if isinstance(expr, Substitute):
        return _compositions(expr, env, labels, active)
    if isinstance(expr, Derivative):
        star = STAR
        present = set(labels)
        while star in present:
            star += STAR
        extended = tuple(
            sorted(labels + (star,), key=label_sort_key)
        )
        return [
            DerivTerm(s)
            for s in _structures(expr.inner, env, extended, active)
        ]
    if isinstance(expr, Pointing):
        inner = _structures(expr.inner, env, labels, active)
        return [
            PointTerm(at, s)
            for at in sorted(labels, key=label_code)
            for s in inner
        ]
    if isinstance(expr, RestrictCard):
        if not expr.admits(len(labels)):
            return []
        return _structures(expr.inner, env, labels, active)
    raise TypeError(f"not a species expression: {expr!r}")


def _compositions(expr, env, labels, active):
    """The substitution structures of expr on labels, in encode() order.

    A comp term encodes its (block, inner) pairs first, in block order, and
    its outer term last.  The first block holds the least label, so the
    terms order by that block's encoded label list, then its inner term,
    then the pairs on the remaining labels (listed once per remaining label
    set), and last by outer term.  The outer's counts say on how many
    blocks it has structures; other partitions are not listed.
    """
    n = len(labels)
    outer_counts = active.counts(expr.outer, env, n)
    state = (expr, env, active, {}, {})
    wanted = sum(1 << k for k in range(n + 1) if outer_counts[k])
    out = []
    outers_on = {}
    for assign in _assignments(state, labels, wanted):
        blocks = tuple(block for block, _ in assign)
        outers = outers_on.get(blocks)
        if outers is None:
            outers = outers_on[blocks] = _structures(
                expr.outer, env, blocks, active
            )
        out.extend(CompTerm(outer, assign) for outer in outers)
    return out


def _assignments(state, rest, blocks):
    """The (block, inner) pair tuples on rest in order, using a number of
    blocks whose bit is set in blocks.  state is (expr, env, active,
    listed, block_on): listed keeps every finished tuple list by (rest,
    blocks), and block_on one block per member tuple, so every entry of
    listed and every term built on it share the block and what it keeps."""
    if not rest:
        return [()] if blocks & 1 else []
    blocks &= (2 << len(rest)) - 2
    if not blocks:
        return []
    expr, env, active, listed, block_on = state
    found = listed.get((rest, blocks))
    if found is not None:
        return found
    first, others = rest[0], rest[1:]
    heads = []
    for k in range(len(others) + 1):
        for chosen in combinations(others, k):
            members = (first,) + chosen
            block = block_on.get(members)
            if block is None:
                block = block_on[members] = Block(members)
            heads.append((block.code(), block, chosen))
    heads.sort(key=lambda head: head[0])
    out = []
    for _, block, chosen in heads:
        inners = _structures(expr.inner, env, block.members, active)
        if not inners:
            continue
        taken = set(chosen)
        tails = _assignments(
            state, tuple(x for x in others if x not in taken), blocks >> 1
        )
        for inner in inners:
            pair = ((block, inner),)
            out.extend(pair + tail for tail in tails)
    listed[(rest, blocks)] = out
    return out


def _involutions(labels):
    """Every involution of labels, in encode() order: a depth-first fill of
    the sources in order, where each free source maps, by encoded label,
    to itself or to a later free source."""
    n = len(labels)
    by_code = sorted(range(n), key=lambda i: label_code(labels[i]))
    out = []
    _fill(labels, by_code, [None] * n, out, 0)
    return out


def _fill(labels, by_code, image, out, i):
    """Append to out every involution that extends the partial one in
    image, whose sources before i are all mapped."""
    n = len(labels)
    while i < n and image[i] is not None:
        i += 1
    if i == n:
        out.append(MapTerm(zip(labels, [labels[j] for j in image])))
        return
    for j in by_code:
        if j == i or (j > i and image[j] is None):
            image[i] = j
            image[j] = i
            _fill(labels, by_code, image, out, i + 1)
            image[i] = image[j] = None


def _sublists(items, code, build, size=None):
    """build(chosen) for every sublist chosen of items, kept in items'
    order, in the order of the JSON lists they are written as.

    Those lists compare element by element, and elements compare by code.
    A list that extends another comes before it, because "," sorts before
    "]", so the empty list comes last.  A depth-first walk therefore takes
    the next element of items in code order and emits a list after all of
    its extensions.  With size, only the lists of that length are built.
    """
    n = len(items)
    by_code = sorted(range(n), key=lambda i: code(items[i]))
    after = [[i for i in by_code if i >= start] for start in range(n + 1)]
    out = []
    _sublist_walk((items, after, build, size, out), (), 0)
    return out


def _sublist_walk(state, chosen, start):
    """Append to out every sublist that extends chosen with items from
    start on, then chosen itself; state is (items, after, build, size,
    out), where after[start] lists the places from start on in code
    order."""
    items, after, build, size, out = state
    if size is None or len(chosen) < size:
        for i in after[start]:
            _sublist_walk(state, chosen + (items[i],), i + 1)
    if size is None or len(chosen) == size:
        out.append(build(chosen))


def _primitive_structures(expr, labels):
    """The structures of a primitive on labels, in encode() order.

    Lists, cycles and maps hold their labels in fixed places (maps by
    source), so they are generated from the labels in encoded order.  On
    one label set, subsets, graphs and digraphs differ only in their list
    of members, edges or arcs, so _sublists walks those lists in order.
    Partitions are still sorted by encode().  On the verify workload that
    sort is the one call of Structure.encode, a boundary that
    perfbench/tracing.py requires to be reached until the engine counts its
    own work (ROADMAP item 1).
    """
    kind = expr.kind
    n = len(labels)
    if kind is K.ZERO:
        return []
    if kind is K.ONE:
        return [SetTerm(())] if n == 0 else []
    if kind is K.SINGLETON:
        return [SetTerm(labels)] if n == 1 else []
    if kind is K.SET:
        return [SetTerm(labels)]
    if kind is K.NONEMPTY_SET:
        return [SetTerm(labels)] if n >= 1 else []
    if kind is K.KSET:
        return [SetTerm(labels)] if n == expr.param else []
    by_code = sorted(labels, key=label_code)
    if kind is K.LIST:
        return [ListTerm(p) for p in permutations(by_code)]
    if kind is K.NONEMPTY_LIST:
        return [ListTerm(p) for p in permutations(by_code)] if n >= 1 else []
    if kind is K.CYCLE:
        if n == 0:
            return []
        rest = [x for x in by_code if x != labels[0]]
        return [CycleTerm((labels[0],) + p) for p in permutations(rest)]
    if kind is K.PERMUTATION:
        return [
            MapTerm(zip(labels, image)) for image in permutations(by_code)
        ]
    if kind is K.DERANGEMENT:
        out = []
        for image in permutations(by_code):
            pairs = tuple(zip(labels, image))
            if all(a != b for a, b in pairs):
                out.append(MapTerm(pairs))
        return out
    if kind is K.INVOLUTION:
        return _involutions(labels)
    if kind is K.ENDOFUNCTION:
        return [
            MapTerm(zip(labels, image))
            for image in iproduct(by_code, repeat=n)
        ]
    codes = {x: label_code(x) for x in labels}
    if kind is K.SUBSET or kind is K.KSUBSET:

        def subset(chosen):
            taken = set(chosen)
            return SubsetTerm(chosen, (x for x in labels if x not in taken))

        size = expr.param if kind is K.KSUBSET else None
        return _sublists(labels, codes.__getitem__, subset, size)

    def pair_code(pair):
        return codes[pair[0]], codes[pair[1]]

    if kind is K.GRAPH:
        return _sublists(
            list(combinations(labels, 2)),
            pair_code,
            lambda edges: GraphTerm(labels, edges),
        )
    if kind is K.DIGRAPH:
        return _sublists(
            list(iproduct(labels, repeat=2)),
            pair_code,
            lambda arcs: DigraphTerm(labels, arcs),
        )
    if kind is K.PARTITION:
        out = [PartitionTerm(p) for p in _set_partitions(labels)]
        out.sort(key=lambda s: s.encode())
        return out
    raise TypeError(f"no structure rule for primitive {kind}")


# -- transport -------------------------------------------------------------

def _star_fixing(apply):
    def f(label):
        if is_star(label):
            return label
        return apply(label)

    return f


def transport(expr, env, structure, bijection):
    """The image of a structure under a bijection of label sets.

    The caller guarantees that structure belongs to the species named by
    expr on bijection.domain; the expression is part of the signature so
    call sites document what they transport.  DomainMismatch is raised when
    the structure's labels are not exactly the bijection's domain.
    """
    del expr, env  # canonical terms relabel uniformly
    found = structure.labels()
    if found != bijection.domain:
        raise DomainMismatch(
            "structure labels and bijection domain differ: "
            f"{sorted(map(str, found))} vs "
            f"{sorted(map(str, bijection.domain))}"
        )
    return structure.relabel(_star_fixing(bijection.apply))


# -- permutations as set * derangement and as set of cycles ----------------

def _as_permutation(structure):
    if not isinstance(structure, MapTerm) or not structure.is_bijection():
        raise NotABijection("expected a permutation structure (a bijective map)")
    return structure.mapping()


def decompose_permutation(structure):
    """Split a permutation into its fixed-point set and the derangement on
    the remaining labels."""
    perm = _as_permutation(structure)
    fixed = [a for a, b in perm.items() if a == b]
    moved = [(a, b) for a, b in perm.items() if a != b]
    return SetTerm(fixed), MapTerm(moved)


def recompose_permutation(fixed, moved):
    """Inverse of decompose_permutation."""
    if not isinstance(fixed, SetTerm):
        raise NotABijection("fixed part must be a set term")
    perm = _as_permutation(moved)
    if any(a == b for a, b in perm.items()):
        raise NotABijection("derangement part has a fixed point")
    if fixed.labels() & moved.labels():
        raise NotABijection("fixed and moved labels overlap")
    pairs = [(a, a) for a in fixed.members] + list(perm.items())
    return MapTerm(pairs)


def permutation_to_cycles(structure):
    """A permutation as a set of cycles on the blocks of its orbits."""
    perm = _as_permutation(structure)
    remaining = set(perm)
    assign = []
    while remaining:
        start = min(remaining, key=label_sort_key)
        orbit = [start]
        nxt = perm[start]
        while nxt != start:
            orbit.append(nxt)
            nxt = perm[nxt]
        remaining.difference_update(orbit)
        assign.append((Block(orbit), CycleTerm(orbit)))
    outer = SetTerm(block for block, _ in assign)
    return CompTerm(outer, assign)


def cycles_to_permutation(structure):
    """Inverse of permutation_to_cycles."""
    if not isinstance(structure, CompTerm):
        raise NotABijection("expected a set-of-cycles structure")
    pairs = []
    for _, cycle in structure.assign:
        if not isinstance(cycle, CycleTerm):
            raise NotABijection("expected a cycle on every block")
        seq = cycle.seq
        pairs.extend(
            (seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))
        )
    return MapTerm(pairs)


# -- functoriality checking ------------------------------------------------

class FunctorialityReport:
    """Outcome of check_functoriality: pass flag, trial count, first failure."""

    def __init__(self, passed, trials, failure=None):
        self.passed = passed
        self.trials = trials
        self.failure = failure

    def __bool__(self):
        return self.passed

    def __repr__(self):
        state = "ok" if self.passed else f"FAILED: {self.failure}"
        return f"FunctorialityReport({self.trials} trials, {state})"


def check_functoriality(expr, env=None, labels=(), trials=100, seed=0):
    """Probe the functor laws on a concrete label set.

    Checks that transport along the identity fixes every structure, that
    transport along a composite equals the composite of transports, and that
    transport along each random bijection permutes the full structure set
    (same codomain enumeration, no collisions).
    """
    env = env or Environment()
    labs = _clean_labels(labels)
    n = len(labs)
    base = enumerate_structures(expr, env, labs)
    mid_labels = _clean_labels([f"b{i}" for i in range(1, n + 1)])
    far_labels = _clean_labels([f"c{i}" for i in range(1, n + 1)])
    mid_set = {s.encode() for s in enumerate_structures(expr, env, mid_labels)}

    ident = Bijection.identity(labs)
    for s in base:
        if transport(expr, env, s, ident) != s:
            return FunctorialityReport(
                False, 0, f"identity transport moved {s.render()}"
            )

    rng = random.Random(seed)
    for trial in range(trials):
        mid = list(mid_labels)
        far = list(far_labels)
        rng.shuffle(mid)
        rng.shuffle(far)
        sigma = Bijection(dict(zip(labs, mid)))
        tau = Bijection(dict(zip(mid_labels, far)))
        composite = sigma.then(tau)
        images = set()
        for s in base:
            via_mid = transport(expr, env, s, sigma)
            once = transport(expr, env, via_mid, tau)
            twice = transport(expr, env, s, composite)
            if once != twice:
                return FunctorialityReport(
                    False,
                    trial,
                    f"composite transport disagrees on {s.render()}",
                )
            images.add(via_mid.encode())
        if images != mid_set:
            return FunctorialityReport(
                False,
                trial,
                "transport is not a bijection onto the codomain structures",
            )
    return FunctorialityReport(True, trials)
