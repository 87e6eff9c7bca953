"""Expression trees for the species language.

An expression is built from primitive species, bound names, and the closed
operations: sum, product, substitution, derivative, pointing, and cardinality
restriction.  Trees are immutable values; equal trees compare and hash equal.
"""

from enum import Enum, unique
from types import MappingProxyType

from .errors import DuplicateName, UnboundName

__all__ = [
    "PrimitiveKind",
    "SpeciesExpr",
    "Primitive",
    "Name",
    "Sum",
    "Product",
    "Substitute",
    "Derivative",
    "Pointing",
    "RestrictCard",
    "Environment",
    "TOKEN_TO_KIND",
    "RESERVED",
    "print_expr",
]


@unique
class PrimitiveKind(Enum):
    """The built-in species, named by the structures they put on a label set."""

    ZERO = "O"            # no structures at all
    ONE = "1"             # one structure on the empty set only
    SINGLETON = "X"       # one structure on each 1-element set
    SET = "E"             # the underlying set itself
    NONEMPTY_SET = "Ep"   # sets, nonempty only
    KSET = "Ek"           # sets of one fixed cardinality k
    LIST = "L"            # linear orders
    NONEMPTY_LIST = "Lp"  # linear orders, nonempty only
    CYCLE = "C"           # cyclic orders
    PERMUTATION = "S"     # bijections of the set to itself
    DERANGEMENT = "Der"   # fixed-point-free permutations
    INVOLUTION = "Inv"    # self-inverse permutations
    ENDOFUNCTION = "End"  # arbitrary self-maps
    PARTITION = "Part"    # partitions into nonempty blocks
    SUBSET = "P"          # a chosen subset (with its complement)
    KSUBSET = "Pk"        # subsets of one fixed cardinality k
    GRAPH = "Gra"         # simple graphs on the set
    DIGRAPH = "Gro"       # directed graphs, loops allowed


#: Kinds that carry an integer parameter, written Kind[k].
PARAMETRIC = frozenset({PrimitiveKind.KSET, PrimitiveKind.KSUBSET})

TOKEN_TO_KIND = {kind.value: kind for kind in PrimitiveKind}

#: Identifiers that may not be bound by a definitions file.
RESERVED = frozenset(TOKEN_TO_KIND) | {"pt"}


class SpeciesExpr:
    """Base of the expression nodes: immutable values.

    Each node class lists its fields in constructor order, as
    ``__slots__ = fields = (...)``.  Two nodes are equal when they have the
    same class and equal fields.  height, the number of nodes on the longest
    path down, is set at construction, and _values keeps the fields in
    order; the hash and depths are computed the first time they are asked
    for and kept, so a tree is walked for them once however often it is
    looked up.
    """

    __slots__ = ("height", "_values", "_hash", "_depths")

    def __init__(self, *values):
        height = 0
        for field, value in zip(self.fields, values, strict=True):
            _set(self, field, value)
            if isinstance(value, SpeciesExpr) and value.height > height:
                height = value.height
        _set(self, "height", height + 1)
        _set(self, "_values", values)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # Each distinct pair of nodes is compared once, from a stack, so a
        # node shared by many paths (F^k's base) costs one comparison.
        compared, todo = set(), [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b or (id(a), id(b)) in compared:
                continue
            if type(a) is not type(b):
                return False
            kept = getattr(a, "_hash", None), getattr(b, "_hash", None)
            if None not in kept and kept[0] != kept[1]:
                return False
            compared.add((id(a), id(b)))
            for x, y in zip(a._values, b._values):
                if isinstance(x, SpeciesExpr):
                    todo.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        found = getattr(self, "_hash", None)
        if found is None:
            found = hash((type(self), *self._values))
            _set(self, "_hash", found)
        return found

    def __reduce__(self):
        return type(self), self._values

    def __repr__(self):
        args = ", ".join(map("{}={!r}".format, self.fields, self._values))
        return f"{type(self).__name__}({args})"

    @property
    def depths(self):
        """A read-only map from each name the tree references to the most
        derivatives stacked above any of its occurrences: evaluating the
        tree to order n needs that name to order n + depth."""
        found = getattr(self, "_depths", None)
        if found is None:
            found = MappingProxyType(self._name_depths())
            _set(self, "_depths", found)
        return found

    def _name_depths(self):
        out = {}
        for child in self._values:
            if isinstance(child, SpeciesExpr):
                for name, depth in child.depths.items():
                    out[name] = max(depth, out.get(name, 0))
        return out


_set = object.__setattr__


class Primitive(SpeciesExpr):
    __slots__ = fields = ("kind", "param")

    def __init__(self, kind, param=None):
        if kind in PARAMETRIC:
            if type(param) is not int or param < 0:
                raise ValueError(
                    f"{kind.value} requires a nonnegative integer parameter"
                )
        elif param is not None:
            raise ValueError(f"{kind.value} takes no parameter")
        super().__init__(kind, param)


class Name(SpeciesExpr):
    __slots__ = fields = ("ident",)

    def _name_depths(self):
        return {self.ident: 0}


class Sum(SpeciesExpr):
    __slots__ = fields = ("left", "right")


class Product(SpeciesExpr):
    __slots__ = fields = ("left", "right")


class Substitute(SpeciesExpr):
    __slots__ = fields = ("outer", "inner")


class Derivative(SpeciesExpr):
    __slots__ = fields = ("inner",)

    def _name_depths(self):
        return {name: d + 1 for name, d in self.inner.depths.items()}


class Pointing(SpeciesExpr):
    __slots__ = fields = ("inner",)


class RestrictCard(SpeciesExpr):
    """The same structures, kept only on label sets whose size satisfies
    |A| <relation> bound, with relation one of '==', '>=', '<='."""

    __slots__ = fields = ("inner", "relation", "bound")

    def __init__(self, inner, relation, bound):
        if relation not in ("==", ">=", "<="):
            raise ValueError(f"unknown cardinality relation {relation!r}")
        if bound < 0:
            raise ValueError("cardinality bound must be nonnegative")
        super().__init__(inner, relation, bound)

    def admits(self, n):
        if self.relation == "==":
            return n == self.bound
        if self.relation == ">=":
            return n >= self.bound
        return n <= self.bound


class Environment:
    """A set of named definitions Name -> SpeciesExpr.

    Right-hand sides may reference any name of the environment, including
    later ones and themselves; recursion is resolved when series are computed
    or structures enumerated, not here.
    """

    def __init__(self, defs=()):
        self._defs = {}
        pairs = defs.items() if isinstance(defs, dict) else defs
        for name, rhs in pairs:
            self.bind(name, rhs)

    def bind(self, name, rhs):
        if name in RESERVED:
            raise DuplicateName(f"'{name}' is reserved and cannot be redefined")
        if name in self._defs:
            raise DuplicateName(f"'{name}' is defined twice")
        if not isinstance(rhs, SpeciesExpr):
            raise TypeError("definition right-hand side must be a SpeciesExpr")
        self._defs[name] = rhs

    def __contains__(self, name):
        return name in self._defs

    def __getitem__(self, name):
        try:
            return self._defs[name]
        except KeyError:
            raise UnboundName(f"no definition for '{name}'") from None

    def __len__(self):
        return len(self._defs)

    def __iter__(self):
        return iter(self._defs)

    def items(self):
        return self._defs.items()

    def merged(self, other):
        """A new environment holding both sets of definitions."""
        merged = Environment(self._defs)
        for name, rhs in other.items():
            merged.bind(name, rhs)
        return merged

    def __repr__(self):
        return f"Environment({sorted(self._defs)})"


# -- printing --------------------------------------------------------------

_SUM, _PROD, _POSTFIX = 1, 2, 3


def print_expr(expr):
    """Render an expression in the concrete grammar.

    parse_expr(print_expr(t)) == t for every tree in the grammar's image;
    nodes with no concrete syntax (RestrictCard, substitution with a compound
    outer) render in a readable fallback form instead.
    """
    return _pp(expr, 0)


def _pp(e, ctx):
    if isinstance(e, Primitive):
        if e.kind is PrimitiveKind.ZERO:
            return "0"
        if e.kind in PARAMETRIC:
            return f"{e.kind.value}[{e.param}]"
        return e.kind.value
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Sum):
        # Right operand one level up keeps the reparse left-associated.
        body = f"{_pp(e.left, _SUM)} + {_pp(e.right, _SUM + 1)}"
        return f"({body})" if ctx > _SUM else body
    if isinstance(e, Product):
        body = f"{_pp(e.left, _PROD)}*{_pp(e.right, _PROD + 1)}"
        return f"({body})" if ctx > _PROD else body
    if isinstance(e, Derivative):
        return f"{_pp(e.inner, _POSTFIX)}'"
    if isinstance(e, Pointing):
        return f"pt({_pp(e.inner, 0)})"
    if isinstance(e, Substitute):
        outer = e.outer
        if isinstance(outer, Primitive) and outer.kind not in PARAMETRIC:
            head = outer.kind.value
        elif isinstance(outer, Name):
            head = outer.ident
        else:
            head = f"({_pp(outer, 0)})"
        return f"{head}({_pp(e.inner, 0)})"
    if isinstance(e, RestrictCard):
        return f"restrict({_pp(e.inner, 0)}, n {e.relation} {e.bound})"
    raise TypeError(f"not a species expression: {e!r}")
