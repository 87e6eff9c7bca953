"""Independent oracles for the test suite.

Everything here is computed from first principles with no imports from the
package under test, so a bug in the engine cannot leak into its own
expected values.
"""

from fractions import Fraction
from math import comb, factorial


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
