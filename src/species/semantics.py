"""From expressions to counting series.

egf_of evaluates an expression to its exact truncated series.  A primitive
species reads its series from its row of primitives.ROWS.

Named species may be mutually recursive.  Evaluation groups the reachable
names into strongly connected components, resolves acyclic names directly,
and hands every genuine cycle to series.solve_system.

Each egf_of call compiles the expression, and every definition it reaches,
once into a tree of closures.  Inside a solve, product and substitution
nodes resume from the counts their operands kept since the previous pass
(the kernels' known prefix), and name-free nodes are built once and
sliced, so one solve costs O(N^2) kernel work in the order N instead of
O(N^3).
"""

from itertools import compress, count
from operator import ne

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
    Product,
    RestrictCard,
    Substitute,
    Sum,
    print_expr,
)
from .primitives import ROWS
from .series import CountSeries, solve_system

__all__ = [
    "DEFAULT_ORDER",
    "egf_of",
    "primitive_series",
    "validate",
    "ValidationReport",
]

DEFAULT_ORDER = 12


def primitive_series(kind, order, param=None):
    """The counting series of one primitive, truncated at order."""
    return ROWS[kind][0](order, param)


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


def _resumed(kernel):
    """kernel(f, g, known), a product or a substitution, as a function of
    f and g that keeps its last operands' counts and result.  Count n of
    either reads its operands' counts 0 .. n only, so each call hands the
    kernel the previous result's counts below the first count where f or g
    changed.  Tuple-slice compares and the scan for the first change both
    run in C."""
    was_f = was_g = was_h = ()

    def run(f, g):
        nonlocal was_f, was_g, was_h
        now_f, now_g = f._counts, g._counts
        n = min(len(was_h), len(now_f), len(now_g))
        if was_f[:n] != now_f[:n]:
            n = next(compress(count(), map(ne, was_f, now_f)))
        if was_g[:n] != now_g[:n]:
            n = next(compress(count(), map(ne, was_g, now_g)))
        h = kernel(f, g, was_h[:n])
        was_f, was_g, was_h = now_f, now_g, h._counts
        return h

    return run


class _Evaluator:
    """One egf_of call.  Every node of the expression, and of each
    definition it reaches, is compiled once into a closure order ->
    CountSeries; _compile is the one place that dispatches on node kind.

    A node that references no name has the same series under every
    overlay: it is built once, at the deepest order asked for so far but at
    least the order of the solve running, and sliced for lower ones.  A
    product or substitution node keeps its operands' counts and its result
    from its last evaluation, and hands the kernel the part of that result
    its new operands leave valid.  Solver passes change only the counts
    above what earlier passes fixed, so a pass computes only those, and a
    solve costs O(N^2) kernel work instead of O(N^3).
    """

    def __init__(self, env):
        self.env = env
        self.resolved = {}
        self.overlay = {}
        self.horizon = 0
        self.compiled = {}

    def eval(self, expr, order):
        try:
            self._resolve_names(expr, order)
            return self._compile(expr)(order)
        finally:
            # Compiled nodes refer back to the evaluator; once they are
            # dropped, the call leaves no reference cycle behind.
            self.compiled.clear()

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
                self.resolved[name] = self._compile(self.env[name])(comp_order)
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
            self.horizon = comp_order
            try:
                solution = solve_system(equations, comp_order, order_loss=loss)
            finally:
                self.horizon = 0
                self.overlay = {}
            self.resolved.update(solution)

    def _equation(self, rhs):
        node = self._compile(rhs)

        def evaluate(approx, target):
            self.overlay = approx
            return node(target)

        return evaluate

    def _compile(self, expr):
        node = self.compiled.get(expr)
        if node is None:
            kind = _COMPILE.get(type(expr))
            if kind is None:
                raise TypeError(f"not a species expression: {expr!r}")
            node = kind(self, expr)
            if not expr.depths:
                node = self._built_once(node)
            self.compiled[expr] = node
        return node

    def _built_once(self, build):
        built = None

        def node(order):
            nonlocal built
            if built is None or built.order < order:
                built = build(max(order, self.horizon))
            return built if built.order == order else built.truncate(order)

        return node

    def _primitive(self, expr):
        series = ROWS[expr.kind][0]
        param = expr.param
        return lambda order: series(order, param)

    def _name(self, expr):
        ident = expr.ident
        resolved = self.resolved

        def node(order):
            found = resolved.get(ident)
            if found is None:
                found = self.overlay[ident]
            return found.truncate(order)

        return node

    def _sum(self, expr):
        left = self._compile(expr.left)
        right = self._compile(expr.right)
        return lambda order: left(order) + right(order)

    def _product(self, expr):
        left = self._compile(expr.left)
        right = self._compile(expr.right)
        multiply = _resumed(lambda f, g, known: f.__mul__(g, known))
        if left is right:
            # One series passed twice, so that the product squares it.
            def square(order):
                f = left(order)
                return multiply(f, f)

            return square
        return lambda order: multiply(left(order), right(order))

    def _substitute(self, expr):
        outer = self._compile(expr.outer)
        inner = self._compile(expr.inner)
        substitute = _resumed(lambda f, g, known: f(g, known))

        def node(order):
            g = inner(order)
            if g._counts[0] != 0:
                raise NonemptyInnerOnEmptySet(
                    "substitution inner species "
                    f"{print_expr(expr.inner)} has a structure on the empty set"
                )
            return substitute(outer(order), g)

        return node

    def _derivative(self, expr):
        inner = self._compile(expr.inner)
        return lambda order: inner(order + 1).derive()

    def _pointing(self, expr):
        inner = self._compile(expr.inner)
        return lambda order: inner(order).point()

    def _restrict(self, expr):
        inner = self._compile(expr.inner)
        admits = expr.admits
        return lambda order: CountSeries(
            c if admits(n) else 0 for n, c in enumerate(inner(order).counts())
        )


_COMPILE = {
    Primitive: _Evaluator._primitive,
    Name: _Evaluator._name,
    Sum: _Evaluator._sum,
    Product: _Evaluator._product,
    Substitute: _Evaluator._substitute,
    Derivative: _Evaluator._derivative,
    Pointing: _Evaluator._pointing,
    RestrictCard: _Evaluator._restrict,
}


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
