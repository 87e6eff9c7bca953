"""Integer oracles for the benchmark's checks.

Every count here comes from a closed form or a recurrence on Python
integers.  Nothing imports the package under test, so a wrong answer from
the engine cannot leak into its own expected values.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def rooted_trees(n):
    """Labelled rooted trees, A = X*E(A): n^(n-1)."""
    return n ** (n - 1) if n else 0


def binary_trees(n):
    """Labelled binary trees, B = 1 + X*B^2: Catalan(n) * n!."""
    return catalan(n) * factorial(n)


def plane_trees(n):
    """Labelled plane trees, T = X*L(T): n! * Catalan(n-1)."""
    return factorial(n) * catalan(n - 1) if n else 0


def pointed_trees(n):
    """Vertebrates, pt(A): n^n for n >= 1."""
    return n**n if n else 0


def endofunctions(n):
    """Endofunctions, S(A): n^n (and 1 on the empty set)."""
    return n**n


def permutations(n):
    """Permutations, E(C) or S: n!.  Also C' on n labels, a cycle on n + 1
    points."""
    return factorial(n)


def graphs(n):
    """Simple graphs: 2^(n choose 2)."""
    return 2 ** comb(n, 2)


@lru_cache(maxsize=None)
def bell(n):
    """Set partitions, by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


@lru_cache(maxsize=None)
def involutions(n):
    """Involutions: t(n) = t(n-1) + (n-1) t(n-2)."""
    if n <= 1:
        return 1
    return involutions(n - 1) + (n - 1) * involutions(n - 2)


@lru_cache(maxsize=None)
def derangements(n):
    """Derangements: d(n) = (n-1) (d(n-1) + d(n-2))."""
    if n == 0:
        return 1
    if n == 1:
        return 0
    return (n - 1) * (derangements(n - 1) + derangements(n - 2))


def counts(oracle, order):
    return [oracle(n) for n in range(order + 1)]


def coefficients(table):
    """The ordinary coefficients f_n / n! as the CLI prints them."""
    return [str(Fraction(f, factorial(n))) for n, f in enumerate(table)]
