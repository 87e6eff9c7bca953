"""Independent oracles for the test suite.

Everything here is computed from first principles with no imports from the
package under test, so a bug in the engine cannot leak into its own
expected values.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, gcd


def binomial_convolution(f, g, n):
    """Count of a product structure: choose which labels go left."""
    return sum(comb(n, k) * f[k] * g[n - k] for k in range(n + 1))


def index_partitions(items):
    """Every partition of a list into nonempty blocks, as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in index_partitions(rest):
        # head joins an existing block, or starts its own
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1:]
        yield [[head]] + sub


def partitional_composite(f, g, n):
    """Count of a composite structure: an f-assembly of g-structures.

    Sums f_(#blocks) * product over blocks of g_(block size) over all
    partitions of an n-set.
    """
    total = 0
    for part in index_partitions(range(n)):
        term = f[len(part)]
        for block in part:
            term *= g[len(block)]
        total += term
    return total


def subfactorial(n):
    """Permutations of n letters without fixed points, by inclusion-exclusion."""
    acc = sum(Fraction((-1) ** k, factorial(k)) for k in range(n + 1))
    value = factorial(n) * acc
    assert value.denominator == 1
    return int(value)


def subfactorial_table(n):
    """Derangements of m letters for every m <= n: the inclusion-exclusion
    sum m! * sum_k (-1)^k / k! taken one term at a time,
    D(m) = m * D(m - 1) + (-1)^m."""
    table = [1]
    for m in range(1, n + 1):
        table.append(m * table[m - 1] + (-1) ** m)
    return table


def bell_table(n):
    """Partitions of an m-set for every m <= n, by the companion recurrence."""
    table = [1]
    for m in range(n):
        table.append(sum(comb(m, k) * table[k] for k in range(m + 1)))
    return table


def bell(n):
    """Number of partitions of an n-set."""
    return bell_table(n)[n]


def involutions(n):
    """Self-inverse permutations, by the standard two-term recurrence."""
    if n <= 1:
        return 1
    return involutions(n - 1) + (n - 1) * involutions(n - 2)


def involution_table(n):
    """Self-inverse permutations of m letters for every m <= n, iteratively:
    m is a fixed point, or it swaps with one of the m - 1 others."""
    table = [1, 1]
    for m in range(2, n + 1):
        table.append(table[m - 1] + (m - 1) * table[m - 2])
    return table[: n + 1]


def factorial_product_table(n):
    """m! * (m - 1)! for every 1 <= m <= n, and 0 at m = 0, from
    m! (m - 1)! = m (m - 1) * (m - 1)! (m - 2)!."""
    table = [0, 1]
    for m in range(2, n + 1):
        table.append(m * (m - 1) * table[m - 1])
    return table[: n + 1]


def catalan(n):
    return comb(2 * n, n) // (n + 1)


# -- fixed points of a permutation -----------------------------------------
#
# A natural isomorphism F = G gives, for every permutation sigma of [n],
# as many F-structures as G-structures that transport along sigma leaves
# fixed, and those numbers depend only on sigma's cycle type: they are the
# coefficients of the cycle index series (Bergeron, Labelle and Leroux,
# Combinatorial Species and Tree-like Structures, 1998, ch. 1.2-1.3).


def cycle_types(n):
    """Every partition of n into positive parts, largest part first: the
    cycle types of the permutations of [n]."""
    def parts(left, most):
        if left == 0:
            yield ()
            return
        for part in range(min(left, most), 0, -1):
            for rest in parts(left - part, part):
                yield (part,) + rest

    return list(parts(n, n))


def permutation_of_type(cycle_type):
    """A permutation of 1..n, as a dict, whose cycles have the lengths of
    cycle_type: each cycle on a run of consecutive labels."""
    sigma = {}
    start = 1
    for length in cycle_type:
        run = list(range(start, start + length))
        sigma.update(zip(run, run[1:] + run[:1]))
        start += length
    return sigma


def _centraliser(cycle_type):
    """The permutations that commute with one of this cycle type:
    prod over lengths k of k^m_k * m_k!, with m_k cycles of length k."""
    size = 1
    for k in set(cycle_type):
        m = cycle_type.count(k)
        size *= k ** m * factorial(m)
    return size


def _totient(d):
    return sum(1 for j in range(1, d + 1) if gcd(j, d) == 1)


def _fixed_cycles(cycle_type):
    """Cyclic orders fixed by a permutation of this cycle type: with m
    cycles all of length d, phi(d) * d^(m - 1) * (m - 1)!; none if the
    lengths differ or there are no labels."""
    if not cycle_type or len(set(cycle_type)) > 1:
        return 0
    d, m = cycle_type[0], len(cycle_type)
    return _totient(d) * d ** (m - 1) * factorial(m - 1)


#: Fixed points read off the cycle index series, by cycle type.
CLOSED_FIXED_POINTS = {
    "E": lambda cycle_type: 1,
    "L": lambda cycle_type: factorial(len(cycle_type))
    if all(part == 1 for part in cycle_type) else 0,
    "S": _centraliser,
    "C": _fixed_cycles,
}


def _maps(labels):
    """Every map of labels to themselves, as a frozenset of (a, f(a))."""
    return [frozenset(zip(labels, images))
            for images in product(labels, repeat=len(labels))]


def _subsets(items):
    items = list(items)
    return [frozenset(c) for r in range(len(items) + 1)
            for c in combinations(items, r)]


def raw_structures(token, labels, k=None):
    """The structures of a primitive on labels, named by its kind's value
    (O for the species 0; Ek and Pk take k apart), built as plain values
    of labels: tuples, frozensets, and maps as frozensets of pairs, so
    that relabelling one (moved) is transport."""
    n = len(labels)
    if token in ("O", "1", "X", "E", "Ep", "Ek"):
        keep = {"O": False, "1": n == 0, "X": n == 1, "E": True,
                "Ep": n >= 1, "Ek": n == k}[token]
        return [frozenset(labels)] if keep else []
    if token in ("L", "Lp"):
        return list(permutations(labels)) if n or token == "L" else []
    if token in ("S", "Der", "Inv", "End"):
        keep = {
            "S": lambda f: len(set(f.values())) == n,
            "Der": lambda f: len(set(f.values())) == n
            and all(a != b for a, b in f.items()),
            "Inv": lambda f: all(f[f[a]] == a for a in f),
            "End": lambda f: True,
        }[token]
        return [m for m in _maps(labels) if keep(dict(m))]
    if token == "C":
        return list({frozenset(p[i:] + p[:i] for i in range(n))
                     for p in permutations(labels)}) if n else []
    if token == "Part":
        return [frozenset(map(frozenset, part))
                for part in index_partitions(labels)]
    if token == "P":
        return _subsets(labels)
    if token == "Pk":
        return [s for s in _subsets(labels) if len(s) == k]
    if token == "Gra":
        return _subsets(map(frozenset, combinations(labels, 2)))
    if token == "Gro":
        return _subsets(product(labels, repeat=2))
    raise ValueError(f"no raw structures for {token!r}")


def moved(value, sigma):
    """value with every label x replaced by sigma[x]."""
    if isinstance(value, (frozenset, tuple)):
        return type(value)(moved(v, sigma) for v in value)
    return sigma[value]


def fixed_by(token, cycle_type, k=None):
    """How many structures of a primitive on [n], n the sum of
    cycle_type, the permutation permutation_of_type(cycle_type) fixes:
    by the closed form of CLOSED_FIXED_POINTS where it has one, else by
    brute force over raw_structures."""
    if token in CLOSED_FIXED_POINTS:
        return CLOSED_FIXED_POINTS[token](cycle_type)
    sigma = permutation_of_type(cycle_type)
    found = raw_structures(token, list(sigma), k)
    return sum(1 for s in found if moved(s, sigma) == s)


# -- recursive species ------------------------------------------------------


def lagrange_counts(r_counts, order):
    """Counts 0 .. order of the species F = X * R(F), by Lagrange
    inversion: f_n = (n - 1)! [t^(n-1)] R(t)^n, where R(t) is the
    exponential series sum_k r_k t^k / k! of r_counts, which must hold
    r_0 .. r_(order-1) at least (Bergeron, Labelle and Leroux, ch. 3.1).
    For R = E it gives Cayley's n^(n-1) rooted trees."""
    r = [Fraction(c, factorial(k)) for k, c in enumerate(r_counts[:order])]
    power = [Fraction(1)] + [Fraction(0)] * (order - 1)  # R(t)^0
    out = [0]
    for n in range(1, order + 1):
        power = [sum(power[j] * r[i - j] for j in range(i + 1))
                 for i in range(order)]
        value = factorial(n - 1) * power[n - 1]
        assert value.denominator == 1
        out.append(int(value))
    return out


#: Counts of the primitives of the solver sweeps, by token.
PRIMITIVE_COUNTS = {
    "X": lambda n: int(n == 1),
    "1": lambda n: int(n == 0),
    "E": lambda n: 1,
    "L": factorial,
    "C": lambda n: factorial(n - 1) if n else 0,
}


def _plain_counts(tree, values, order):
    """Counts 0 .. order of a plain tree (see kleene_counts), reading each
    name's counts from values and 0 past their end."""
    if isinstance(tree, str):
        return [PRIMITIVE_COUNTS[tree](n) for n in range(order + 1)]
    op, *args = tree
    if op == "name":
        found = values[args[0]][:order + 1]
        return found + [0] * (order + 1 - len(found))
    if op == "'":
        return _plain_counts(args[0], values, order + 1)[1:]
    f = _plain_counts(args[0], values, order)
    if op == "pt":
        return [n * c for n, c in enumerate(f)]
    g = _plain_counts(args[1], values, order)
    if op == "+":
        return [a + b for a, b in zip(f, g)]
    if op == "*":
        return [binomial_convolution(f, g, n) for n in range(order + 1)]
    if op == "of":
        if g[0]:
            raise ValueError("a substitution inner has a structure on the "
                             "empty set")
        return [partitional_composite(f, g, n) for n in range(order + 1)]
    raise ValueError(f"not a plain tree: {tree!r}")


def _derivatives(tree):
    """The most derivatives stacked on any path of a plain tree."""
    if isinstance(tree, str) or tree[0] == "name":
        return 0
    return (tree[0] == "'") + max(map(_derivatives, tree[1:]))


def kleene_counts(equations, order):
    """The least fixed point of a system of species equations, as counts
    0 .. order of each name, or None when the iteration finds none.

    equations maps each name to a plain tree: a token of PRIMITIVE_COUNTS,
    ("name", ident), ("+", a, b), ("*", a, b), ("of", outer, inner),
    ("'", a) for a derivative or ("pt", a) for a pointing.  Counts are
    iterated from zero (Kleene), every equation reading the previous
    pass, until a pass repeats its counts.  They are kept through order
    plus the number of equations times the most derivatives in any tree,
    the deepest a count through order reads in a system that determines
    its unknowns, and read as 0 beyond.  Each count is a nondecreasing
    integer that stops changing or grows for ever, so a system whose
    counts still change after one pass per count kept, plus two, gets
    None."""
    deep = order + len(equations) * max(map(_derivatives, equations.values()))
    values = {name: [0] * (deep + 1) for name in equations}
    for _ in range((deep + 1) * len(equations) + 2):
        found = {name: _plain_counts(tree, values, deep)
                 for name, tree in equations.items()}
        if found == values:
            return {name: counts[:order + 1] for name, counts in values.items()}
        values = found
    return None
