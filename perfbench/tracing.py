"""Spans and counts around the calls into each layer of ``species``.

``install`` replaces the layer entry points at every site that binds them,
from outside the package: the module attributes that other modules imported
by name, and the ``CountSeries`` and ``Structure`` methods.  ``uninstall``
puts the originals back.  Spans are kept in memory as
``[name, start, end, parent, request]`` rows and written out once, at the
end; ``parent`` is the index of the enclosing span (-1 at the top) and
``request`` the index of the ``cli.main`` call.

A span's name is ``<layer>.<boundary>``.  Its self time is its duration
minus the time its child spans cover; a layer's self time sums the self
times of its spans.
"""

import functools
from collections import Counter
from time import perf_counter

# CountSeries methods timed as series kernels, by metric name.
KERNELS = {
    "mul": ("__mul__", "__rmul__"),
    "div": ("__truediv__",),
    "compose": ("__call__",),
    "add": ("__add__", "__radd__"),
    "derive": ("derive",),
    "point": ("point",),
}

NODE_KINDS = ("Primitive", "Name", "Sum", "Product", "Substitute",
              "Derivative", "Pointing", "RestrictCard")

CLI_EXITS = (0, 1, 2, 3, 4)

# The boundaries each workload must reach at least once in a traced run.
EXPECTED = {
    "series": (
        "cli.main", "parser.parse_expr", "parser.parse_defs",
        "semantics.egf_of", "semantics.rhs", "series.solve", "series.mul",
        "series.div", "series.compose", "series.add", "series.point",
    ),
    "enumerate": (
        "cli.main", "parser.parse_expr", "parser.parse_defs",
        "semantics.egf_of", "series.solve", "enumerator.enumerate_structures",
        "enumerator.walk", "structures.encode",
    ) + tuple(f"enumerator.node.{k}" for k in NODE_KINDS if k != "RestrictCard"),
    "verify": (
        "cli.main", "parser.parse_expr", "parser.parse_defs",
        "semantics.egf_of", "series.solve", "series.derive", "series.mul",
        "series.compose", "identities.run_suite", "identities.case",
        "enumerator.enumerate_structures", "enumerator.node.RestrictCard",
        "structures.encode", "enumerator.transport",
    ),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.request = -1
        self._undo = []

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named name."""
        row = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.request]
        self.stack.append(len(self.spans))
        self.spans.append(row)
        self.counts[name] += 1
        row[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            row[2] = perf_counter()
            self.stack.pop()

    # -- installing the wrappers ----------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        from species import cli, enumerator, identities, parser, semantics, series
        from species.structures import Structure

        counts = self.counts

        for site in (parser, cli, identities):
            for attr in ("parse_expr", "parse_defs"):
                self._patch(site, attr, self._spanned(f"parser.{attr}", getattr(site, attr)))

        default_order = semantics.DEFAULT_ORDER

        def egf_after(args, kwargs, result):
            counts["semantics.egf_of.order_sum"] += kwargs.get(
                "order", args[2] if len(args) > 2 else default_order)

        for site in (semantics, cli, identities, enumerator):
            self._patch(site, "egf_of",
                        self._spanned("semantics.egf_of", site.egf_of, egf_after))

        self._patch(semantics, "solve_system", self._solver(series.solve_system))

        def coeffs_after(kernel):
            def after(args, kwargs, result):
                if isinstance(result, series.CountSeries):
                    counts[f"series.{kernel}.coeffs"] += result.order + 1
            return after

        for kernel, methods in KERNELS.items():
            for method in methods:
                fn = series.CountSeries.__dict__[method]
                self._patch(series.CountSeries, method,
                            self._spanned(f"series.{kernel}", fn, coeffs_after(kernel)))

        def kept_after(args, kwargs, result):
            counts["enumerator.kept"] += len(result)

        for site in (enumerator, cli, identities):
            self._patch(site, "enumerate_structures",
                        self._spanned("enumerator.enumerate_structures",
                                      site.enumerate_structures, kept_after))
        self._patch(enumerator, "_structures", self._walker(enumerator._structures))
        self._patch(cli, "transport", self._spanned("enumerator.transport", cli.transport))
        self._patch(Structure, "encode", self._spanned("structures.encode", Structure.encode))
        self._patch(cli, "run_suite", self._spanned("identities.run_suite", cli.run_suite))
        self._patch(identities._Case, "run", self._spanned("identities.case", identities._Case.run))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _solver(self, solve_system):
        """solve_system with each right-hand side wrapped, so evaluations
        and passes are counted."""
        tracer = self

        @functools.wraps(solve_system)
        def wrapper(equations, order, order_loss=0):
            evals = [0]

            def counted(rhs):
                def evaluate(approx, target):
                    evals[0] += 1
                    return tracer.call("semantics.rhs", rhs, approx, target)
                return evaluate

            wrapped = [(name, counted(rhs)) for name, rhs in equations]
            try:
                return tracer.call("series.solve", solve_system, wrapped, order,
                                   order_loss=order_loss)
            finally:
                tracer.counts["series.solve.rhs_evals"] += evals[0]
                if equations:
                    tracer.counts["series.solve.passes"] += evals[0] // len(equations)

        return wrapper

    def _walker(self, structures):
        """_structures, counted per node kind; the outermost call of each
        walk is a span.  The function recurses through its module global,
        so the replacement sees every node."""
        tracer = self
        counts = self.counts
        depth = [0]

        @functools.wraps(structures)
        def wrapper(expr, env, labels, active):
            counts[f"enumerator.node.{type(expr).__name__}"] += 1
            depth[0] += 1
            try:
                if depth[0] == 1:
                    out = tracer.call("enumerator.walk", structures, expr, env, labels, active)
                else:
                    out = structures(expr, env, labels, active)
            finally:
                depth[0] -= 1
            counts["enumerator.built"] += len(out)
            return out

        return wrapper


# -- reading a trace -----------------------------------------------------------

def self_times(spans):
    """Per span, its duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span do not overlap and
    their durations add up to the time they cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans, counts, records):
    """The per-layer metrics of a traced pass.  ``records`` are the pass's
    call records (exit code and stdout size of each ``cli.main`` call)."""
    own = self_times(spans)
    by_name = Counter()
    by_layer = Counter()
    walk_s = 0.0
    for (name, start, end, _, _), s in zip(spans, own):
        by_name[name] += s
        by_layer[name.split(".", 1)[0]] += s
        if name == "enumerator.walk":
            walk_s += end - start

    m = {}
    for kernel in KERNELS:
        m[f"series.{kernel}.calls"] = counts[f"series.{kernel}"]
        m[f"series.{kernel}.coeffs"] = counts[f"series.{kernel}.coeffs"]
        m[f"series.{kernel}.self_s"] = by_name[f"series.{kernel}"]
    m["series.solve.calls"] = counts["series.solve"]
    m["series.solve.rhs_evals"] = counts["series.solve.rhs_evals"]
    m["series.solve.passes"] = counts["series.solve.passes"]
    m["series.solve.self_s"] = by_name["series.solve"]
    m["semantics.egf_of.calls"] = counts["semantics.egf_of"]
    m["semantics.egf_of.order_sum"] = counts["semantics.egf_of.order_sum"]
    m["semantics.self_s"] = by_layer["semantics"]
    m["parser.calls"] = counts["parser.parse_expr"] + counts["parser.parse_defs"]
    m["parser.self_s"] = by_layer["parser"]
    for kind in NODE_KINDS:
        m[f"enumerator.node.{kind}.calls"] = counts[f"enumerator.node.{kind}"]
    built, kept = counts["enumerator.built"], counts["enumerator.kept"]
    m["enumerator.built"] = built
    m["enumerator.kept"] = kept
    m["enumerator.kept_ratio"] = kept / built if built else 0.0
    m["enumerator.walk_s"] = walk_s
    m["enumerator.self_s"] = by_layer["enumerator"]
    m["structures.encode.calls"] = counts["structures.encode"]
    m["structures.encode.self_s"] = by_name["structures.encode"]
    m["cli.main.calls"] = counts["cli.main"]
    m["cli.self_s"] = by_layer["cli"]
    m["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in records)
    for code in CLI_EXITS:
        m[f"cli.exit.{code}"] = sum(1 for r in records if r["exit"] == code)
    m["identities.cases"] = counts["identities.case"]
    m["identities.self_s"] = by_layer["identities"]
    return m


def unit(metric):
    """The unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "overhead")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def missing_boundaries(workload, counts):
    """The boundaries the workload should reach but never did."""
    return [b for b in EXPECTED[workload] if counts[b] == 0]
