"""From expressions to counting series.

egf_of evaluates an expression to its exact truncated series.  A primitive
species reads its series from its row of primitives.ROWS.

Named species may be mutually recursive.  Evaluation groups the reachable
names into strongly connected components, decides the recursive ones from
their equations (_decide), resolves acyclic names directly, and hands each
recursive one to series.solve_system, which computes its least fixed
point, resolving the names it reads outside itself through its reach
(series.reach).

A recursive system is counted when it is well-founded in the sense of
Pivoteau, Salvy and Soria ("Algorithms for combinatorial structures:
well-founded systems and Newton iterations", JCTA 2012): its Jacobian is
nilpotent at its least solution, the limit of the iteration from zero.
Count n of F depends on count m of G when a term of F's equation at size
n reads count m of G beside factors that are nonzero at the least
solution (a substitution's blocks are nonempty, so no term reads count 0
of its inner).  The system is well-founded when no substitution inner has
a structure on the empty set there, and no count depends on itself or on
counts of ever larger size; an unknown that is itself a substitution
inner has its count at size 0 forced to 0, so that count depends on
nothing.  Each count is then fixed by the finitely many it depends on,
one run from zero reaches the least solution, and any other solution
differs from it only where it has a factor 0 (F = F*F is also solved by
the constant 1).  The tree species A = X*E(A) of the paper's section 11
is the one-equation case.  _decide settles this before any kernel runs,
once per system (equal systems under other names share the decision),
and refuses with IllFoundedEquation, naming the equation, the unknown
and the size.

An evaluator keeps each name's series across its calls and solves a system
again only deeper: egf_of makes one per call, a listing's walk one for all
its counts.  Each evaluation numbers the distinct nodes it reaches in one
table (expr._Table), which also records the names under each row, and
compiles each row once into a closure, children first.  Inside a solve, product and substitution nodes resume from the
counts their operands kept since the previous pass (the kernels' known
prefix), and name-free nodes are built once and sliced, so one solve
costs O(N^2) kernel work in the order N instead of O(N^3).
"""

from .errors import IllFoundedEquation, NonemptyInnerOnEmptySet
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
    _Table,
    print_expr,
)
from .primitives import NONEMPTY, ROWS
from .series import CountSeries, _first_difference, reach, solve_system

__all__ = [
    "DEFAULT_ORDER",
    "egf_of",
    "primitive_series",
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


def _times(a, b, full):
    """The support of a product of series with supports a and b, cut to
    full.  A support is a bit mask of the sizes whose count is nonzero."""
    out = 0
    for k in range(a.bit_length()):
        if a >> k & 1:
            out |= b << k
    return out & full


def _merged(profiles):
    """The profile of a sum of nodes with these profiles (see _Window)."""
    out = {}
    for profile in profiles:
        for key, mask in profile.items():
            out[key] = out.get(key, 0) | mask
    return out


def _product(a, b, full):
    """The profile of a product of nodes with profiles a and b: the
    product's support, and by the product rule each read of one factor
    where the other is nonzero."""
    out = {None: _times(a[None], b[None], full)}
    for one, other in ((a, b), (b, a)):
        for key, mask in one.items():
            if key is not None:
                out[key] = out.get(key, 0) | _times(mask, other[None], full)
    return out


class _Window:
    """The profiles of the rows of the components reached, over the sizes
    0 .. top - 1 that _decide reads.  A profile maps None to the row's
    support at the least solution, and each count (name, m) of an unknown
    to the mask of the sizes whose count reads it beside nonzero factors:
    the row's counts and their first derivatives, over the booleans.  The
    supports are least fixed points, dependencies first, from none, and
    least keeps each row's profile there, reading no count.  trees maps
    each name reached to the rows under its definition (occurrences), and
    roots to the row of the definition."""

    def __init__(self, table, roots, reached, trees):
        self.table, self.trees = table, trees
        nodes = [table.nodes[row] for tree in trees.values() for row in tree]
        spin = sum(occurs for tree in trees.values()
                   for row, occurs in tree.items()
                   if type(table.nodes[row]) is Derivative)
        # Restriction bounds, each gap between them cut to gap (_decide).
        gap = 3 * spin + 2 + max((node.param for node in nodes
                                  if type(node) is Primitive and node.param),
                                 default=0)
        self.place, at, last = {}, 0, 0
        for bound in sorted({node.bound for node in nodes
                             if type(node) is RestrictCard}):
            at += min(bound - last, gap)
            self.place[bound], last = at, bound
        self.low = 2 * spin + 1 + at
        self.deep = self.low + spin
        self.top = self.deep + 2 * spin + 1
        self.full = (1 << self.top) - 1
        self.held, self.memo, self.least = {}, {}, {}
        for comp in reached:
            self.held.update(dict.fromkeys(comp, 0))
            while True:
                found = self.profiles(comp)
                supports = {name: found[roots[name]][None] for name in comp}
                if supports.items() <= self.held.items():
                    break
                self.held.update(supports)
            self.least.update(found)

    def size(self, n):
        """The size that n in the window stands for."""
        b, p = min(((0, 0), *self.place.items()),
                   key=lambda bp: abs(n - bp[1]))
        return n + b - p

    def profiles(self, comp, names=()):
        """The profile of each row under the definitions of comp's names,
        children first, reading the counts of the unknowns in names.  memo
        keeps the profiles of the rows that read no name."""
        table, memo, found = self.table, self.memo, {}
        for row in sorted(set().union(*map(self.trees.get, comp))):
            profile = memo.get(row)
            if profile is None:
                node = table.nodes[row]
                profile = self._profile(node, names, *[
                    found[kid] for kid in table.kids[row]])
                if not table.reads[row]:
                    memo[row] = profile
            found[row] = profile
        return found

    def _profile(self, node, names, *kids):
        """node's profile, from those of its children."""
        kind, full = type(node), self.full
        if kind is Name:
            found = {None: self.held[node.ident]}
            if node.ident in names:
                found.update(((node.ident, m), 1 << m)
                             for m in range(self.top))
            return found
        if kind is Primitive:
            has = NONEMPTY.get(node.kind)
            return {None: full if has is None else sum(
                1 << n for n in range(self.top) if has(n, node.param))}
        if kind is Sum:
            return _merged(kids)
        if kind is Product:
            return _product(*kids, full)
        if kind is Substitute:
            # outer's count k times the k-th power of inner, for each k;
            # blocks are nonempty, so no count 0 of inner is read.
            outer, inner = kids
            inner = {key: mask if key is None else mask & ~1
                     for key, mask in inner.items()}
            terms, power = [], {None: 1}
            for k in range(self.top):
                at_k = {key: mask >> k & 1 for key, mask in outer.items()}
                terms.append(_product(at_k, power, full))
                power = _product(power, inner, full)
            return _merged(terms)
        # a derivative, a pointing or a restriction of one inner
        shift = 1 if kind is Derivative else 0
        keep = full - 1 if kind is Pointing else full
        if kind is RestrictCard:
            b = self.place[node.bound]
            keep &= {"==": 1 << b, ">=": full >> b << b,
                     "<=": (2 << b) - 1}[node.relation]
        return {key: mask >> shift & keep for key, mask in kids[0].items()}


def _refusal(env, name, verdict, n, why):
    """The IllFoundedEquation that refuses name's equation."""
    return IllFoundedEquation(
        f"equation {name} = {print_expr(env[name])} {verdict}: the system "
        f"does not determine {name}, whose count at size {n} {why}"
    )


def _decide(env, table, roots, components, cycles):
    """Refuse each recursive component in cycles that is not well-founded
    (see the module docstring).  components holds the components of the
    names the cycles reach, dependencies first, and roots the row of each
    one's definition in table.  No series is built.

    The counts of a cycle at sizes 0 .. low, and all they depend on, form
    a finite graph over (unknown, size).  A path of dependencies passes at
    most spin derivatives, all those of the equations reached, so in a
    well-founded system no count at size n depends on one above n + spin:
    a read above deep = low + spin is a chain of ever larger sizes, and a
    cycle of the graph a count that depends on itself.  A derivative adds
    one to the size a term reads, and a factor with no structure below
    size k takes k away, so a loop is a cycle of weight >= 0 in a shift
    graph; it takes away at most spin along its way, so it shows from
    some size up to low, which also leaves room for a pointing (size 1)
    and each restriction's bound.  Near each bound such a cycle spans
    fewer than gap = 3 * spin + 2 + (largest parameter) sizes, so a
    longer gap between two bounds, or below the first, is cut to gap
    (_Window.place), and a refusal names the size it stands for; past a
    cut gap, whether a loop's least count is 0 may differ.  The masks
    reach 2 * spin above deep, room for the derivatives read there, so
    those at and below deep + spin are the least solution's."""
    reached = components[:max(map(components.index, cycles)) + 1]
    trees = {name: table.occurrences(roots[name])
             for comp in reached for name in comp}
    window, nodes = _Window(table, roots, reached, trees), table.nodes
    for comp in cycles:
        inners = [(name, table.kids[row][1]) for name in comp
                  for row in trees[name] if type(nodes[row]) is Substitute]
        for name, inner in inners:
            if window.least[inner][None] & 1:
                raise NonemptyInnerOnEmptySet(
                    f"substitution inner species {print_expr(nodes[inner])} "
                    f"has a structure on the empty set in equation {name} = "
                    f"{print_expr(env[name])}"
                )
        forced = {(nodes[inner].ident, 0) for _, inner in inners
                  if type(nodes[inner]) is Name}
        found, graph = window.profiles(comp, set(comp)), {}
        for name in comp:
            reads = found[roots[name]].items()
            for n in range(window.top):
                if (name, n) not in forced:
                    graph[name, n] = {key for key, mask in reads
                                      if key is not None and mask >> n & 1}
        seen = set()
        for start in sorted(((name, n) for name in comp
                             for n in range(window.low + 1)),
                            key=lambda node: node[::-1]):
            todo = [start]
            while todo:
                node = todo.pop()
                if node not in seen:
                    seen.add(node)
                    reads = graph.get(node, ())
                    if any(m > window.deep for _, m in reads):
                        raise _refusal(env, start[0], "is not well-founded",
                                       window.size(start[1]), "depends on "
                                       "counts of ever larger size")
                    todo += reads
        loops = [node for loop in _sccs(seen, graph)
                 if len(loop) > 1 or loop[0] in graph.get(loop[0], ())
                 for node in loop]
        if loops:
            name, n = min(loops, key=lambda node: node[::-1])
            raise _refusal(
                env, name, "has no fixed point" if window.held[name] >> n & 1
                else "admits more than one fixed point", window.size(n),
                "depends on itself"
            )


# The systems found well-founded, each as its rows, a name by its place
# (_Evaluator._resolve_names): the one record of a decision, which reads
# the equations alone, so it holds in every env, under any names.
_WELL_FOUNDED = set()


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
            n = _first_difference(was_f, now_f)
        if was_g[:n] != now_g[:n]:
            n = _first_difference(was_g, now_g)
        h = kernel(f, g, was_h[:n])
        was_f, was_g, was_h = now_f, now_g, h._counts
        return h

    return run


class _Evaluator:
    """Series over one env, keeping each name's (resolved) across calls.
    A call compiles each row of its table once into a closure order ->
    CountSeries, which the evaluator does not keep, so a call leaves no
    reference cycle; _compile is the one place that dispatches on kind.

    A node that references no name has the same series under every
    overlay: it is built once, at the deepest order asked for so far but at
    least the reach of the solve running, and sliced for lower ones.  A
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

    def eval(self, expr, order):
        table, built = _Table(), []
        self._resolve_names(expr, order, table, built)
        return self._compile(table, built, expr)(order)

    def _resolve_names(self, expr, order, table, built):
        """Resolve every name expr reaches, deep enough to evaluate expr
        to order.  The names come from the rows' reads: expr's from its
        row in the call's table, and each definition's from its row in a
        table of the definitions alone, numbered in the order the walk
        meets them.  The recursive components are decided from their
        equations in that table first (_decide), all of them before any
        series is built, unless a system equal up to its names was found
        well-founded before (_WELL_FOUNDED); then, definitions first, each
        acyclic name is evaluated and each recursive component solved for
        its least fixed point (solve_system), through the order its users
        need plus the reach its derivatives ask for.  A definition enters
        the call's table when its component is resolved."""
        seeds = table.reads[table.add(expr)]
        if not seeds:
            return
        defs, roots, edges = _Table(), {}, {}
        todo = list(seeds)
        while todo:
            name = todo.pop()
            if name in edges:
                continue
            roots[name] = defs.add(self.env[name])
            edges[name] = defs.reads[roots[name]]
            todo.extend(edges[name])

        components = _sccs(set(edges), edges)
        cycles = [comp for comp in components
                  if len(comp) > 1 or comp[0] in edges[comp[0]]]
        if cycles:
            places = {name: place for place, name in enumerate(edges)}
            key = (tuple(roots.values()), *[places[row[1]] if row[0] is Name
                                            else row for row in defs.rows])
            if key not in _WELL_FOUNDED:
                _decide(self.env, defs, roots, components, cycles)
                if len(_WELL_FOUNDED) >= 4096:
                    _WELL_FOUNDED.clear()
                _WELL_FOUNDED.add(key)

        # Orders needed, flowing from use sites down to definitions: a
        # cycle reads the names outside it through its reach.
        need = {name: order + depth for name, depth in seeds.items()}
        plan = []
        for comp in reversed(components):
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
            comp_order = max(need.get(name, 0) for name in comp)
            far = reach(comp_order, len(comp), loss)
            for name in comp:
                for ref, depth in edges[name].items():
                    if ref not in in_cycle:
                        need[ref] = max(need.get(ref, 0), far + depth)
            plan.append((comp, comp_order, loss, far))

        for comp, comp_order, loss, far in reversed(plan):
            held = [self.resolved.get(name) for name in comp]
            if all(s is not None and s.order >= comp_order for s in held):
                continue
            # A shallower solution would shadow the solver's overlay.
            for name in comp:
                self.resolved.pop(name, None)
            nodes = [self._compile(table, built, self.env[name])
                     for name in comp]
            if len(comp) == 1 and comp[0] not in edges[comp[0]]:
                self.resolved[comp[0]] = nodes[0](comp_order)
                continue
            equations = [(name, self._equation(node))
                         for name, node in zip(comp, nodes)]
            self.horizon = far
            try:
                solution = solve_system(equations, comp_order, order_loss=loss)
            finally:
                self.horizon = 0
                self.overlay = {}
            self.resolved.update(solution)

    def _equation(self, node):
        def evaluate(approx, target):
            self.overlay = approx
            return node(target)

        return evaluate

    def _compile(self, table, built, expr):
        """expr's closure.  built holds the closures of table's first rows;
        each row up to expr's is compiled in turn, from its children's."""
        row = table.add(expr)
        for at in range(len(built), row + 1):
            node = table.nodes[at]
            make = _COMPILE.get(type(node))
            if make is None:
                raise TypeError(f"not a species expression: {node!r}")
            closure = make(self, node, *map(built.__getitem__, table.kids[at]))
            built.append(closure if table.reads[at]
                         else self._built_once(closure))
        return built[row]

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

    def _sum(self, expr, left, right):
        return lambda order: left(order) + right(order)

    def _product(self, expr, left, right):
        multiply = _resumed(lambda f, g, known: f.__mul__(g, known))
        if left is right:
            # One series passed twice, so that the product squares it.
            def square(order):
                f = left(order)
                return multiply(f, f)

            return square
        return lambda order: multiply(left(order), right(order))

    def _substitute(self, expr, outer, inner):
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

    def _derivative(self, expr, inner):
        return lambda order: inner(order + 1).derive()

    def _pointing(self, expr, inner):
        return lambda order: inner(order).point()

    def _restrict(self, expr, inner):
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
