"""From expressions to counting series.

egf_of evaluates an expression to its exact truncated series.  Primitive
species have closed-form count tables; three of them are deliberately
derived from the others through the series algebra (derangements by dividing
permutations by sets, involutions and partitions by substitution), which
keeps a single source of truth for those counts.

Named species may be mutually recursive.  Evaluation groups the reachable
names into strongly connected components, resolves acyclic names directly,
and hands every genuine cycle to series.solve_system.
"""

from math import comb, factorial

from .errors import (
    IllFoundedEquation,
    NonemptyInnerOnEmptySet,
    NonzeroConstantTerm,
    UnboundName,
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
    print_expr,
)
from .series import CountSeries, solve_system

__all__ = [
    "DEFAULT_ORDER",
    "egf_of",
    "primitive_series",
    "validate",
    "ValidationReport",
]

DEFAULT_ORDER = 12

K = PrimitiveKind


def _from_counts(order, count_at):
    return CountSeries(count_at(n) for n in range(order + 1))


def _build_set(order, _):
    return _from_counts(order, lambda n: 1)


def _build_nonempty_set(order, _):
    return _from_counts(order, lambda n: 1 if n >= 1 else 0)


def _build_list(order, _):
    return _from_counts(order, factorial)


def _build_derangement(order, _):
    # Fixed points split off as a set: S = E * Der, so Der = S / E.
    return _build_list(order, None) / _build_set(order, None)


def _build_involution(order, _):
    # An involution is a set of fixed points and 2-cycles: E(X + E_2).
    if order == 0:
        return CountSeries.one(0)
    singles = CountSeries.x(order)
    pairs = _build_kset(order, 2)
    return _build_set(order, None)(singles + pairs)


def _build_partition(order, _):
    # A partition is a set of nonempty blocks: E(E+).
    return _build_set(order, None)(_build_nonempty_set(order, None))


def _build_kset(order, k):
    return _from_counts(order, lambda n: 1 if n == k else 0)


_SERIES_BUILDERS = {
    K.ZERO: lambda order, _: CountSeries.zero(order),
    K.ONE: lambda order, _: CountSeries.one(order),
    K.SINGLETON: lambda order, _: _from_counts(
        order, lambda n: 1 if n == 1 else 0
    ),
    K.SET: _build_set,
    K.NONEMPTY_SET: _build_nonempty_set,
    K.KSET: _build_kset,
    K.LIST: _build_list,
    K.NONEMPTY_LIST: lambda order, _: _from_counts(
        order, lambda n: factorial(n) if n >= 1 else 0
    ),
    K.CYCLE: lambda order, _: _from_counts(
        order, lambda n: factorial(n - 1) if n >= 1 else 0
    ),
    K.PERMUTATION: _build_list,
    K.DERANGEMENT: _build_derangement,
    K.INVOLUTION: _build_involution,
    K.ENDOFUNCTION: lambda order, _: _from_counts(
        order, lambda n: n**n if n else 1
    ),
    K.PARTITION: _build_partition,
    K.SUBSET: lambda order, _: _from_counts(order, lambda n: 2**n),
    K.KSUBSET: lambda order, k: _from_counts(order, lambda n: comb(n, k)),
    K.GRAPH: lambda order, _: _from_counts(order, lambda n: 2 ** comb(n, 2)),
    K.DIGRAPH: lambda order, _: _from_counts(order, lambda n: 2 ** (n * n)),
}


def primitive_series(kind, order, param=None):
    """The counting series of one primitive, truncated at order."""
    return _SERIES_BUILDERS[kind](order, param)


def _sccs(nodes, edges):
    """Tarjan's algorithm; components come out dependencies-first.  The
    depth-first walk keeps its own stack of (node, unread edges), so a long
    definition chain does not reach Python's recursion limit."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    out = []
    for root in sorted(nodes):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(edges.get(root, {})))]
        while work:
            v, unread = work[-1]
            for w in unread:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(edges.get(w, {}))))
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


class _Evaluator:
    def __init__(self, env):
        self.env = env
        self.resolved = {}
        self.memo = {}

    def eval(self, expr, order):
        self._resolve_names(expr, order)
        return self._eval(expr, order)

    def _resolve_names(self, expr, order):
        seeds = expr.depths
        if not seeds:
            return
        edges = {}
        todo = list(seeds)
        while todo:
            name = todo.pop()
            if name in edges:
                continue
            edges[name] = self.env[name].depths
            todo.extend(edges[name])

        components = _sccs(set(edges), edges)

        # Orders needed, flowing from use sites down to definitions.
        need = {name: order + depth for name, depth in seeds.items()}
        for comp in reversed(components):
            comp_order = max(need.get(name, 0) for name in comp)
            comp_order = max(comp_order, order)
            for name in comp:
                need[name] = comp_order
            for name in comp:
                for ref, depth in edges[name].items():
                    if ref not in comp:
                        need[ref] = max(need.get(ref, 0), comp_order + depth)

        for comp in components:
            comp_order = need[comp[0]]
            if len(comp) == 1 and comp[0] not in edges[comp[0]]:
                name = comp[0]
                self.resolved[name] = self._eval(self.env[name], comp_order)
                continue
            in_cycle = set(comp)
            loss = max(
                (
                    depth
                    for name in comp
                    for ref, depth in edges[name].items()
                    if ref in in_cycle
                ),
                default=0,
            )
            equations = [
                (name, self._equation(self.env[name])) for name in comp
            ]
            self.resolved.update(
                solve_system(equations, comp_order, order_loss=loss)
            )

    def _equation(self, rhs):
        def evaluate(approx, target):
            return self._eval(rhs, target, overlay=approx)

        return evaluate

    def _eval(self, expr, order, overlay=None):
        """The series of expr to order.  A node that references no name
        has the same series under every overlay, so those are memoised."""
        if expr.depths:
            return self._eval_node(expr, order, overlay)
        key = (expr, order)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._eval_node(expr, order, overlay)
        return hit

    def _eval_node(self, expr, order, overlay):
        if isinstance(expr, Primitive):
            return primitive_series(expr.kind, order, expr.param)
        if isinstance(expr, Name):
            if overlay is not None and expr.ident in overlay:
                return overlay[expr.ident].truncate(order)
            if expr.ident in self.resolved:
                return self.resolved[expr.ident].truncate(order)
            # Force the UnboundName error if truly absent.
            self.env[expr.ident]
            raise AssertionError(f"name {expr.ident} was never resolved")
        if isinstance(expr, Sum):
            return self._eval(expr.left, order, overlay) + self._eval(
                expr.right, order, overlay
            )
        if isinstance(expr, Product):
            return self._eval(expr.left, order, overlay) * self._eval(
                expr.right, order, overlay
            )
        if isinstance(expr, Substitute):
            inner = self._eval(expr.inner, order, overlay)
            if inner.coefficient(0) != 0:
                raise NonemptyInnerOnEmptySet(
                    "substitution inner species "
                    f"{print_expr(expr.inner)} has a structure on the empty set"
                )
            outer = self._eval(expr.outer, order, overlay)
            return outer(inner)
        if isinstance(expr, Derivative):
            return self._eval(expr.inner, order + 1, overlay).derive()
        if isinstance(expr, Pointing):
            return self._eval(expr.inner, order, overlay).point()
        if isinstance(expr, RestrictCard):
            inner = self._eval(expr.inner, order, overlay)
            return CountSeries(
                c if expr.admits(n) else 0
                for n, c in enumerate(inner.counts())
            )
        raise TypeError(f"not a species expression: {expr!r}")


def egf_of(expr, env=None, order=DEFAULT_ORDER):
    """The counting series of expr, truncated at order.

    Raises UnboundName, NonemptyInnerOnEmptySet / NonzeroConstantTerm, or
    IllFoundedEquation when the expression (or a definition it reaches) is
    not a well-formed species.
    """
    return _Evaluator(env or Environment()).eval(expr, order)


class ValidationReport:
    """Outcome of validate(): ok flag plus the collected problems."""

    def __init__(self, problems):
        self.problems = list(problems)

    @property
    def ok(self):
        return not self.problems

    def __bool__(self):
        return self.ok

    def describe(self):
        if self.ok:
            return "ok"
        return "; ".join(f"{type(p).__name__}: {p}" for p in self.problems)

    def __repr__(self):
        return f"ValidationReport({self.describe()})"


def validate(expr, env=None, order=DEFAULT_ORDER):
    """Check that expr (with its reachable definitions) denotes a species.

    Collects unbound names first; if all names resolve, attempts the series
    evaluation and reports substitution and well-foundedness failures.
    """
    env = env or Environment()
    problems = []
    seen = set()
    todo = sorted(expr.depths)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        if name not in env:
            problems.append(UnboundName(f"no definition for '{name}'"))
            continue
        todo.extend(env[name].depths)
    if not problems:
        try:
            egf_of(expr, env, order)
        except (NonzeroConstantTerm, IllFoundedEquation) as err:
            problems.append(err)
    return ValidationReport(problems)
