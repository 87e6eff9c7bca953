"""Exhaustive enumeration of labeled structures and their transport.

enumerate_structures produces every structure of a species on a concrete
label set, as canonical terms in the order of their encoding.  The expected
cardinality is computed from the counting series first, which doubles as the
budget guard, refuses an ill-founded name before any node is visited, and
keeps enumeration and series honest against each other.

No listing is sorted at the end.  The encoding fixes the order child first,
so every node builds its list in encode() order from its children's lists:
a node that wraps one child keeps the child's order, a sum merges its two
sides, a product orders its left factors, and a primitive's listing, its
row of primitives.ROWS, comes in order (see primitives.py).  A walk made
with ordered=False, the one the identity suite lists with, skips the two
merges: a sum lists its left side, then its right, and a product its
left factors in split order, each with its split's rights.  It lists the
same structures, each once, and builds no sort key; it serves callers
that read only how many there are.

Listed terms are built from parts checked once.  The (block, inner) pairs
of substitution terms are formed once each per walk, and Assignment.listed
puts the pairs on one block before each assignment of the labels left,
checking that block once against their one label set; _comp_terms then
builds the substitution terms on every assignment, checking each list of
outer terms once against its block set.  A ProductSplit checks a split's
two label sets, each left factor and each right factor once for all the
products on that split.  A MapSources checks a sorted label tuple once for
the derivative and pointed terms around a listed child, the child list
checked once to live on the tuple.  Sum and named terms check their side
or name once per child list.  No listing runs a public constructor, on
any number of labels.

A walk is the state and the scope of a listing: its memos of lists,
sort keys and series counts, its substitution tables, and its evaluator;
and, while `with walk:` holds it open, the paused collector (see below)
and the tables of label codes and label sets (see structures).
enumerate_structures opens a fresh one per call unless the caller passes
one in (walk=), which several calls then share, so that each
subexpression is listed once per label set and each recursive system
solved once for all of them.  A walk is bound to the env it was made
with, since its memo is keyed by node and names resolve through env; a
call with another env is refused.  Lists from a shared walk are its memo
lists, shared with every later call, and must not be mutated.  A caller
that shares a walk opens it around all of its calls; closing it drops
its caches, and the last open walk to close empties the label tables,
so no cache outlives the listing.  The identity suite opens one walk per
case, unordered, since it reads only the lengths of its listings;
`enumerate`, `transport` and every API call list on ordered walks.

A walk made with holders=True, the one `enumerate --json` writes, also
counts, for each memo list and each list of (block, inner) pairs, the
places in parent terms and pairs that hold its items; other walks, such
as the identity suite's, count nothing.  Every parent build holds each
item of a child list the same number of times: a named, sum or derivative
term holds its child once, a pointed term once per point, a product's
left factors once per right factor of their split and its right factors
once per left factor, and a substitution's outer terms once per
assignment on their blocks and each pair once per assignment holding it
times the outers on those blocks; a pair holds its inner term once.  A
restriction returns its child's list and adds nothing.  So one count per
list is exact, and walk.shared() gives the terms and pairs held in two or
more places, children before their parents: the only ones a writer that
writes each subterm once needs to keep the text of.  A substitution term
is written as its outer's text and one join of its pairs' texts, and a
pair's text holds its inner term's.  So an inner term that only pairs
hold is kept, if at all, inside its pair's text, and one also held
elsewhere may be kept twice, alone and in its pair.  `enumerate --json`
fills the kept texts first, in that order, so that each parent reads its
shared children's texts, and then writes the listing with no callback.

Transport applies a bijection of label sets to a structure.  Because the
canonical constructors determine how relabeling acts (pair lists conjugate,
cycles re-rotate, partitions re-sort), transport is a uniform relabeling
that fixes the reserved star points.

The walk runs with Python's cyclic garbage collector paused.  A listing
holds hundreds of thousands of terms that refer only to their children, so
it has no reference cycles to find, yet each full collection would traverse
all of them again.  The walk itself makes no cycle either: its recursive
helpers are module functions that get their state as arguments, not
closures that refer to themselves.  Each walk pauses the collector as it
opens, and the last to close, however its block ends, turns it back on
if it was on when the first opened, in any thread: both under the lock
that opens and closes the label tables (structures).  The switch is
process-wide: another thread that turns the collector off during a walk
finds it on again when the last walk ends, and one that turns it on
makes the walks collect as usual until another opens.
"""

import random
from itertools import combinations
from math import prod

from .errors import (
    BudgetExceeded,
    DomainMismatch,
    NotABijection,
    ParseError,
)
from .expr import (
    Derivative,
    Environment,
    Name,
    Pointing,
    Primitive,
    Product,
    RestrictCard,
    Substitute,
    Sum,
)
from .primitives import ROWS
# egf_of stays importable here for perfbench/tracing.py.
from .semantics import _Evaluator, egf_of  # noqa: F401
from .structures import (
    Assignment,
    Bijection,
    Block,
    CompTerm,
    CycleTerm,
    MapSources,
    MapTerm,
    ProductSplit,
    SetTerm,
    STAR,
    _close_walk,
    _comp_terms,
    _open_walk,
    _splits,
    check_label,
    is_star,
    label_code,
    label_sort_key,
    named_terms,
    sum_terms,
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


def enumerate_structures(expr, env=None, labels=(), budget=DEFAULT_BUDGET,
                         *, walk=None):
    """All structures of the species on the given labels, in the order of
    their canonical encoding.

    The series count is computed first; BudgetExceeded is raised before any
    structure is built when it is larger than the budget.  The result's
    length always equals that count.  The walk builds the list in order, so
    it is returned as built.

    walk, a _Walk(env=env), lets several calls share one walk: each
    subexpression is then listed once per label set, and each recursive
    system solved once, for all of them.  A walk is bound to the env it was
    made with, since its memo is keyed by node and names resolve through
    env; a call with another env raises ValueError.  On a shared walk the
    result is the walk's own memo list, shared with later calls: callers
    must not mutate it.  On a walk made with ordered=False the list holds
    the same structures, each once, in split order rather than encode()
    order (see _Walk).  Calls at the largest size first solve every
    system once; a call on more labels solves again, deeper.  The caller
    opens a shared walk (`with walk:`) around all of its calls, so that
    the collector stays paused between them and the label tables serve
    them all; a call opens no scope of its own on it.  Without walk, each
    call lists in a fresh walk of its own, opened for the call.
    """
    if walk is None:
        with _Walk(env=env) as walk:
            return _listed(expr, env, labels, budget, walk)
    if walk.env is not env:
        raise ValueError("a walk lists only on the env it was made with")
    return _listed(expr, env, labels, budget, walk)


def _listed(expr, env, labels, budget, walk):
    """enumerate_structures on walk, whose env is env."""
    env = env or Environment()
    labs = walk.clean.get(id(labels))
    if labs is None:
        labs = _clean_labels(labels)
    n = len(labs)
    expected = walk.counts(expr, n)[n]
    if expected > budget:
        raise BudgetExceeded(
            f"{expected} structures would exceed the budget of {budget}"
        )
    return _structures(expr, env, labs, walk)


class _Walk:
    """The memos of a walk: one enumerate_structures call's, or those of
    every call that shares it, and the evaluator that counts their nodes;
    and the scope of their listing.

    memo maps (id(node), labels) to a finished list, so that each
    subexpression is enumerated once per label set and its terms are shared
    by every term built on them.  tables maps the id of a substitution node
    to its tables (see _assignments), one set for all its label sets, so
    that each of its blocks, pairs and assignment tails is built once per
    walk.  holders, None unless the walk was made with holders=True, maps
    the id of a memo list or list of pairs to the number of places in the
    walk's parent terms and pairs that hold each of its items (see the
    module docstring), and held keeps those lists in the order they were
    first held; a product of a term with itself holds it in two places.
    ordered, True unless the walk was made with ordered=False, says whether
    sums and products merge their runs into encode() order; an unordered
    walk, the identity suite's, lists them in split order (see the module
    docstring) and builds no key.
    Node ids are stable because the expression and env outlive the walk;
    term and pair ids are stable because the memo and tables keep them
    alive.
    clean holds the label tuples its caller has cleaned (see keep_clean).
    env is the env the walk was made with (None for none), the only one
    its calls may use.  A refused call leaves only finished lists, table
    entries and counts in the walk, so the walk stays usable.  It holds no
    guard against a name that recurs on the same labels: _build never walks
    back to one (see there).

    `with walk:` is the listing's scope: it opens the label tables and
    pauses the collector (see the module docstring); its exit, however the
    block ends, releases the walk and closes the tables, which the last
    walk to close empties, restoring the collector.  Not a generator,
    whose exit would allocate a StopIteration after the collector is back
    on, starting a young collection over every term the caller still
    holds.
    """

    __slots__ = ("memo", "tables", "keys", "series_counts", "holders",
                 "held", "clean", "env", "evaluator", "ordered")

    def __init__(self, env=None, holders=False, ordered=True):
        self.ordered = ordered
        self.memo = {}
        self.tables = {}
        self.keys = {}
        self.series_counts = {}
        self.holders = {} if holders else None
        self.held = []
        self.clean = {}
        self.env = env
        self.evaluator = _Evaluator(env or Environment())

    def __enter__(self):
        _open_walk()
        return self

    def __exit__(self, *exc_info):
        self.release()
        _close_walk()

    def release(self):
        """Drop the memos, tables, keys, holders, held lists, clean label
        tuples and evaluator: only what the caller holds stays alive, and
        the walk lists no more."""
        self.memo = self.tables = self.keys = self.clean = None
        self.series_counts = self.holders = self.held = None
        self.evaluator = None

    def keep_clean(self, labels):
        """Keep labels, a tuple _clean_labels returned or a prefix of one,
        so that a call on the walk given that very tuple takes it as it
        is.  clean maps the id of each such tuple to the tuple, which it
        keeps alive, so that no other object takes its id."""
        self.clean[id(labels)] = labels
        return labels

    def hold(self, terms, times):
        """Count times more places that hold each item of terms, a memo
        list or a list of (block, inner) pairs, in a parent list just
        built.  Called only on a walk made with holders=True."""
        key = id(terms)
        holders = self.holders
        count = holders.get(key)
        if count is None:
            self.held.append(terms)
            count = 0
        holders[key] = count + times

    def shared(self):
        """The terms and (block, inner) pairs of each list held in two or
        more places, each once and every child before its parents: held
        keeps the lists in the order they were first held, and a list is
        first held while its first parent is built, after its own build
        first held every list its items hold.  A list under two keys (a
        restriction's is its child's) is held as one.  Over a walk shared
        by several calls, it counts the parents of all of them.  Only a
        walk made with holders=True has them."""
        holders = self.holders
        return [item for items in self.held if holders[id(items)] > 1
                for item in items]

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

    def counts(self, expr, n):
        """The structure counts of a subexpression on 0..n labels, from its
        series in the walk's evaluator; kept per node, and recomputed only
        when a visit needs more labels (a derivative adds one)."""
        found = self.series_counts.get(id(expr))
        if found is None or len(found) <= n:
            found = self.evaluator.eval(expr, n).counts()
            self.series_counts[id(expr)] = found
        return found


def _structures(expr, env, labels, active):
    """The list of structures on a sorted label tuple, in encode() order;
    active is the _Walk that holds the memos.

    Finished lists are memoised in the walk and shared: never mutate one.
    """
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
    its inner term.  On a walk that counts holders, each branch counts
    those of every child list it reads (_Walk.hold).  On an unordered walk
    a sum and a product keep their runs as built, with no merge.

    No walk comes back to a name on the labels it is listed on.  A name
    lists nothing where its count is 0, a pointing nothing on no labels,
    a product only splits whose factors both have structures, and a
    substitution a block's inner only when the rest can complete it.  So
    on one label set each child's count enters its parent's at least
    once, and every name met has a positive count: a walk back to one
    would be a count that depends on itself, which semantics refuses
    before any listing.
    """
    if isinstance(expr, Primitive):
        return ROWS[expr.kind][1](labels, expr.param)
    if isinstance(expr, Name):
        if not active.counts(expr, len(labels))[len(labels)]:
            return []
        inner = _structures(env[expr.ident], env, labels, active)
        if active.holders is not None:
            active.hold(inner, 1)
        return named_terms(expr.ident, inner)
    if isinstance(expr, Sum):
        left = _structures(expr.left, env, labels, active)
        right = _structures(expr.right, env, labels, active)
        if active.holders is not None:
            active.hold(left, 1)
            active.hold(right, 1)
        out = sum_terms("left", left) + sum_terms("right", right)
        if left and right and active.ordered:
            # A stable sort of two sorted runs is their merge, with the
            # left side first on equal inner terms.
            key = active.key
            out.sort(key=lambda t: key(t.inner))
        return out
    if isinstance(expr, Product):
        n = len(labels)
        left_counts = active.counts(expr.left, n)
        right_counts = active.counts(expr.right, n)
        rows = []
        splits = 0
        for k in range(n + 1):
            if not left_counts[k] or not right_counts[n - k]:
                continue
            for chosen in combinations(labels, k):
                lefts = _structures(expr.left, env, chosen, active)
                taken = set(chosen)
                rest = tuple(x for x in labels if x not in taken)
                rights = _structures(expr.right, env, rest, active)
                if active.holders is not None:
                    active.hold(lefts, len(rights))
                    active.hold(rights, len(lefts))
                split = ProductSplit(chosen, rest, rights)
                rows.extend((l, split) for l in lefts)
                splits += 1
        if splits > 1 and active.ordered:
            # One sorted run of left factors per split; each left factor's
            # rights are already in order.
            key = active.key
            rows.sort(key=lambda row: key(row[0]))
        out = []
        for left, split in rows:
            out += split.products(left)
        return out
    if isinstance(expr, Substitute):
        return _compositions(expr, env, labels, active)
    if isinstance(expr, Derivative):
        # The added point is one star longer than any star on labels, which
        # sort last, longest last; DerivTerm takes its longest star as the
        # added one.
        star = STAR
        if labels and is_star(labels[-1]):
            star += labels[-1]
        extended = labels + (star,)
        inner = _structures(expr.inner, env, extended, active)
        if active.holders is not None:
            active.hold(inner, 1)
        return MapSources(extended).derivatives(star, inner)
    if isinstance(expr, Pointing):
        if not labels:
            return []
        inner = _structures(expr.inner, env, labels, active)
        points = sorted(labels, key=label_code)
        if active.holders is not None:
            active.hold(inner, len(points))
        return MapSources(labels).pointed(points, inner)
    if isinstance(expr, RestrictCard):
        if not expr.admits(len(labels)):
            return []
        return _structures(expr.inner, env, labels, active)
    raise TypeError(f"not a species expression: {expr!r}")


def _compositions(expr, env, labels, active):
    """The substitution structures of expr on labels, in encode() order.

    A comp term encodes its (block, inner) pairs first, in block order, and
    its outer term last.  The first block holds the least label, so the
    terms order by its other labels as a JSON list (_list_order), then its
    inner term, then the pairs on the remaining labels (listed once per
    remaining label set), and last by outer term.  The outer's and the
    inner's counts say on how many blocks, and on blocks of which sizes,
    there are structures; no other block is listed.  Each assignment is
    checked once, when _assignments builds it, and _comp_terms checks each
    block set's outers once against it.  The tables of _assignments are
    the walk's, one set per substitution node.

    Holders are counted once per block set, not per term, on the lists of
    pairs the assignments were built from: the assignments on a block set
    are every choice of one pair per block, so there are as many as the
    product of the pair lists' lengths, and each pair is in that product
    divided by its list's length of them.
    """
    n = len(labels)
    outer_counts = active.counts(expr.outer, n)
    tables = active.tables.setdefault(id(expr), ({}, {}, Assignment()))
    state = (expr, env, active, *tables)
    wanted = sum(1 << k for k in range(n + 1) if outer_counts[k])
    assigns = _assignments(state, labels, wanted)
    outers_on = {}
    for assign in assigns:
        if assign.blocks not in outers_on:
            outers_on[assign.blocks] = _structures(
                expr.outer, env, tuple(b for b, _ in assign.pairs), active
            )
    out = _comp_terms(assigns, outers_on)
    if active.holders is not None:
        pairs_on, hold = tables[1], active.hold
        for blocks, outers in outers_on.items():
            lists = [pairs_on[block.members] for block in blocks]
            count = prod(map(len, lists))
            hold(outers, count)
            count *= len(outers)
            for pairs in lists:
                hold(pairs, count // len(pairs))
    return out


def _assignments(state, rest, blocks):
    """The Assignments on rest in order, using a number of blocks whose
    bit is set in blocks, built by Assignment.listed from the pairs on
    each first block and the tails listed on the labels left.  state is
    (expr, env, active, listed, pairs_on, empty), the last three the
    walk's tables for expr: listed keeps every finished list by (rest,
    blocks) and pairs_on the checked (block, inner) pairs of each first
    block by its members, so every entry of listed and every term built
    on it share the block and its pairs, each pair holding its inner term
    once; empty is the Assignment with no pair.  blocks is cut to the sizes
    rest can take, so one entry serves every label set around rest.  An
    entry is stored only when finished, so a refused call leaves the tables
    usable.  A first block's inner is listed only when the labels left have
    tails."""
    expr, env, active, listed, pairs_on, empty = state
    if not rest:
        return [empty] if blocks & 1 else []
    blocks &= (2 << len(rest)) - 2
    if not blocks:
        return []
    found = listed.get((rest, blocks))
    if found is not None:
        return found
    first, others = rest[0], rest[1:]
    # k other members: the inner has structures on k + 1 labels, and blocks
    # >> 1 has a bit for 1 to m blocks on the m labels left (bit 0 if m is 0).
    sizes = active.counts(expr.inner, len(rest))
    taken = {k for k in range(len(rest)) if sizes[k + 1]
             and blocks >> 1 & ((2 << len(others) - k) - 2 or 1)}
    out = []
    for chosen, left in _splits(others, taken):
        tails = _assignments(state, left, blocks >> 1)
        if not tails:
            continue
        members = (first,) + chosen
        pairs = pairs_on.get(members)
        if pairs is None:
            block = Block(members)
            inners = _structures(expr.inner, env, members, active)
            pairs = pairs_on[members] = [
                Assignment.pair(block, inner) for inner in inners
            ]
            if active.holders is not None:
                active.hold(inners, 1)
        out += Assignment.listed(pairs, tails)
    listed[(rest, blocks)] = out
    return out


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
