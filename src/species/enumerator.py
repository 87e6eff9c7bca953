"""Exhaustive enumeration of labeled structures and their transport.

enumerate_structures produces every structure of a species on a concrete
label set, as canonical terms in the order of their encoding.  The expected
cardinality is computed from the counting series first, which doubles as the
budget guard and keeps enumeration and series honest against each other.

Transport applies a bijection of label sets to a structure.  Because the
canonical constructors determine how relabeling acts (pair lists conjugate,
cycles re-rotate, partitions re-sort), transport is a uniform relabeling
that fixes the reserved star points.
"""

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
    _Composite,
    check_label,
    is_star,
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
    length always equals that count.
    """
    env = env or Environment()
    labs = _clean_labels(labels)
    expected = egf_of(expr, env, order=len(labs)).count(len(labs))
    if expected > budget:
        raise BudgetExceeded(
            f"{expected} structures would exceed the budget of {budget}"
        )
    return _sorted(_structures(expr, env, labs, _Walk()))


def _sorted(found):
    """found in encode() order.

    The terms of one listing are all of one class.  Primitive terms are
    sorted by encode() directly: they share nothing, so a memo over a large
    listing (65 536 digraphs) would only add memory.  Composite terms are
    sorted by their _sort_parts tuples, which give the same order; the
    tuples are kept by term id for this sort only, so a subterm shared by
    many results is cut up once and its primitive leaves are encoded once.
    """
    if not found or not isinstance(found[0], _Composite):
        return sorted(found, key=lambda s: s.encode())
    keys = {}

    def key(term):
        parts = keys.get(id(term))
        if parts is None:
            parts = keys[id(term)] = term._sort_parts(key)
        return parts

    return sorted(found, key=key)


class _Walk(set):
    """The guard set of one enumerate_structures call, carrying that
    call's memo.

    The memo maps (id(node), labels) to a finished list, so that each
    subexpression is enumerated once per label set and its terms are shared
    by every term built on them.  Node ids are stable because the
    expression and env outlive the call.  The memo rides on the guard set
    because _structures keeps its four-argument signature, which
    perfbench/tracing.py wraps to count every node visit.
    """

    __slots__ = ("memo", "factor_counts")

    def __init__(self, guards=()):
        super().__init__(guards)
        self.memo = {}
        self.factor_counts = {}

    def counts_of_factors(self, expr, env, n):
        """The structure counts of a Product's left and right factors on
        0..n labels, from their series; kept per node, and recomputed only
        when a visit needs more labels (a derivative adds one)."""
        found = self.factor_counts.get(id(expr))
        if found is None or len(found[0]) <= n:
            found = self.factor_counts[id(expr)] = (
                egf_of(expr.left, env, order=n).counts(),
                egf_of(expr.right, env, order=n).counts(),
            )
        return found


def _structures(expr, env, labels, active):
    """The list of structures on a sorted label tuple; active tracks the
    named species currently being expanded on each label set.

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
    """The structures of one node on labels, from its children's lists."""
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
        return [SumTerm("left", s) for s in left] + [
            SumTerm("right", s) for s in right
        ]
    if isinstance(expr, Product):
        n = len(labels)
        left_counts, right_counts = active.counts_of_factors(expr, env, n)
        out = []
        for k in range(n + 1):
            if not left_counts[k] or not right_counts[n - k]:
                continue
            for chosen in combinations(labels, k):
                lefts = _structures(expr.left, env, chosen, active)
                taken = set(chosen)
                rest = tuple(x for x in labels if x not in taken)
                rights = _structures(expr.right, env, rest, active)
                out.extend(
                    ProdTerm(l, r) for l in lefts for r in rights
                )
        return out
    if isinstance(expr, Substitute):
        out = []
        for part in _set_partitions(labels):
            blocks = sorted((Block(b) for b in part), key=label_sort_key)
            per_block = []
            for block in blocks:
                inners = _structures(expr.inner, env, block.members, active)
                if not inners:
                    per_block = None
                    break
                per_block.append(inners)
            if per_block is None:
                continue
            outers = _structures(expr.outer, env, tuple(blocks), active)
            if not outers:
                continue
            for outer in outers:
                for chosen in iproduct(*per_block):
                    out.append(CompTerm(outer, zip(blocks, chosen)))
        return out
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
        return [
            PointTerm(at, s)
            for s in _structures(expr.inner, env, labels, active)
            for at in labels
        ]
    if isinstance(expr, RestrictCard):
        if not expr.admits(len(labels)):
            return []
        return _structures(expr.inner, env, labels, active)
    raise TypeError(f"not a species expression: {expr!r}")


def _primitive_structures(expr, labels):
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
    if kind is K.LIST:
        return [ListTerm(p) for p in permutations(labels)]
    if kind is K.NONEMPTY_LIST:
        return [ListTerm(p) for p in permutations(labels)] if n >= 1 else []
    if kind is K.CYCLE:
        if n == 0:
            return []
        first, rest = labels[0], labels[1:]
        return [CycleTerm((first,) + p) for p in permutations(rest)]
    if kind is K.PERMUTATION:
        return [
            MapTerm(zip(labels, image)) for image in permutations(labels)
        ]
    if kind is K.DERANGEMENT:
        out = []
        for image in permutations(labels):
            pairs = tuple(zip(labels, image))
            if all(a != b for a, b in pairs):
                out.append(MapTerm(pairs))
        return out
    if kind is K.INVOLUTION:
        out = []
        for image in permutations(labels):
            f = dict(zip(labels, image))
            if all(f[f[a]] == a for a in labels):
                out.append(MapTerm(f.items()))
        return out
    if kind is K.ENDOFUNCTION:
        return [
            MapTerm(zip(labels, image))
            for image in iproduct(labels, repeat=n)
        ]
    if kind is K.PARTITION:
        return [PartitionTerm(p) for p in _set_partitions(labels)]
    if kind is K.SUBSET:
        out = []
        for k in range(n + 1):
            for chosen in combinations(labels, k):
                taken = set(chosen)
                out.append(
                    SubsetTerm(chosen, (x for x in labels if x not in taken))
                )
        return out
    if kind is K.KSUBSET:
        k = expr.param
        if k > n:
            return []
        out = []
        for chosen in combinations(labels, k):
            taken = set(chosen)
            out.append(
                SubsetTerm(chosen, (x for x in labels if x not in taken))
            )
        return out
    if kind is K.GRAPH:
        all_edges = list(combinations(labels, 2))
        return [
            GraphTerm(labels, chosen)
            for k in range(len(all_edges) + 1)
            for chosen in combinations(all_edges, k)
        ]
    if kind is K.DIGRAPH:
        all_arcs = list(iproduct(labels, repeat=2))
        return [
            DigraphTerm(labels, chosen)
            for k in range(len(all_arcs) + 1)
            for chosen in combinations(all_arcs, k)
        ]
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
