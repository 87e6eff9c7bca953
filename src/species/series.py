"""Exact truncated exponential generating series.

A CountSeries holds the structure counts f_0 .. f_N of a species; its
ordinary coefficients are a_n = f_n / n!.  Each count is a Python int, or a
Fraction only when it is not integral, so the kernels run on integers for
every genuine species and fall back to exact rationals on the same code
path.  All arithmetic (sum, binomial product, substitution, derivative,
pointing, division) is exact, so extending the truncation order never
changes a count that was already computed.

Counts may be negative or fractional at this level: the engine works in the
full rational-coefficient algebra (a quotient like exp(-x)/(1-x) passes
through negative intermediate values).  Only count() insists on integrality,
and only the CLI insists on nonnegativity.

Every kernel is O(N^2) in the order N, except substitution into an outer
series that is none of E, L or C; that one costs O(N^3).  Each O(N^2)
kernel multiplies counts, except division by E (a divisor whose counts
are all 1): f / E = f e^-x is f's inverse binomial transform, which takes
O(N^2) additions and nothing else.  The product, quotient and E, L, C
substitution kernels also resume: given the leading counts of the result
that are already known (``known``), they compute only the counts after
them.  Count n of each of those results reads the operands' counts 0 .. n
only, so a caller whose operands changed only above some index may keep
the result's counts below it.  The evaluator in
semantics does that on every solver pass, which makes one solve O(N^2)
kernel work instead of O(N^3).  Substituting into
E, L and C follows the standard recurrences (Bergeron, Labelle and Leroux,
Combinatorial Species and Tree-like Structures, ch. 1-3): exp for E,
1/(1 - g) for L and log 1/(1 - g) for C.  The binomial kernels (product,
E, L and C substitution, and division by anything but E) read C(n, k)
from one module-level Pascal table, grown to the largest order they are
asked for, rather than computing it once per term; division by E reads
no row of it, so derangements, Der = S / E, grow no row.  A substitution
recognises those three outers by comparing its counts with a module-level
table of factorials.  A series times itself is squared in half the
products, because C(n, k) = C(n, n - k).

solve_system computes the least fixed point of a recursive system by one
run from zero; whether the system determines its unknowns is decided from
its equations before (semantics).

The fractions module is loaded only where a Fraction is made: for a count
that is not integral, and by the Fraction API (from_coefficients,
coefficient).  A series of integer counts never loads it, so no count,
series or solve call of the CLI does; a scalar operand is recognised
without it (_scalar).
"""

import sys
from itertools import compress, count
from math import factorial
from operator import add, ne, sub

from .errors import (
    IllFoundedEquation,
    NonIntegerCount,
    NonzeroConstantTerm,
    OrderExceeded,
    ZeroConstantDivisor,
)

__all__ = ["CountSeries", "solve_system"]


_INT = {int}  # the only count type a series keeps without normalising


def _integral(c):
    """c as an int when it is integral; a non-integral Fraction as is."""
    if type(c) is int:
        return c
    from fractions import Fraction

    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _quotient(a, b):
    """The exact quotient a / b, an int whenever it is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    from fractions import Fraction

    return _integral(Fraction(a) / b)


def _scalar(x):
    """Whether x is a number a series is lifted from, multiplied or divided
    by: an int or a Fraction.  No Fraction exists before the fractions
    module is loaded, so the check never loads it."""
    if isinstance(x, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


# Rows 0 .. N of Pascal's triangle, _PASCAL[n][k] = C(n, k), grown on demand
# to the largest order a binomial kernel has asked for (division by E, which
# reads no binomial, grows none).  A grower builds a longer table and
# rebinds the name, so a reader keeps the complete table it read, and
# threads need no lock: two that grow at once each build their own.
_PASCAL = [[1]]

# 0!, 1!, .., N!, the counts of L, S and C (primitives.py) and those that
# _closed_form compares outer counts with.  Grown like _PASCAL; a tuple,
# so that the comparisons run in C.
_FACTORIALS = (1,)


def _binomials(order):
    """Pascal's triangle through row order at least (the shared table
    itself)."""
    global _PASCAL
    rows = _PASCAL
    if len(rows) <= order:
        rows = rows[:]
        while len(rows) <= order:
            row = rows[-1]
            rows.append([1, *map(add, row, row[1:]), 1])
        _PASCAL = rows
    return rows


def _first_difference(a, b):
    """The lowest index at which the count sequences a and b differ, or
    None where they agree as far as the shorter goes; the scan runs in C."""
    return next(compress(count(), map(ne, a, b)), None)


def _nonzero(counts, start, stop):
    """(k, counts[k]) for the nonzero counts with start <= k < stop."""
    return [(k, counts[k]) for k in range(start, stop) if counts[k]]


def _convolve(f, g, order, known=()):
    """Counts of the product f*g: h_n = sum_k C(n, k) f_k g_(n-k), after
    the known leading ones."""
    terms = _nonzero(f, 0, order + 1)
    rows = _binomials(order)
    out = list(known)
    for n in range(len(out), order + 1):
        row = rows[n]
        acc = 0
        for k, c in terms:
            if k > n:
                break
            d = g[n - k]
            if d:
                acc += row[k] * c * d
        out.append(acc)
    return out


def _square(f, order, known=()):
    """Counts of f*f, after the known leading ones.  C(n, k) = C(n, n-k)
    makes the sum of _convolve(f, f) symmetric, so each pair k < n-k is
    multiplied once and doubled, and the middle term k = n/2 added."""
    terms = _nonzero(f, 0, order + 1)
    rows = _binomials(order)
    out = list(known)
    for n in range(len(out), order + 1):
        row = rows[n]
        acc = 0
        for k, c in terms:
            if 2 * k >= n:
                break
            d = f[n - k]
            if d:
                acc += row[k] * c * d
        acc *= 2
        if not n % 2:
            c = f[n // 2]
            if c:
                acc += row[n // 2] * c * c
        out.append(acc)
    return out


def _exp(g, order, known=()):
    """Counts of exp(g) from y' = g' y, i.e.
    y_(n+1) = sum_k C(n,k) g_(k+1) y_(n-k), after the known leading ones.
    Like _inv and _log, it does not read known[0]: the constant term is
    the closed form's own."""
    slopes = _nonzero(g, 1, order + 1)
    rows = _binomials(order)
    y = [1, *known[1:]]
    for n in range(len(y) - 1, order):
        row = rows[n]
        acc = 0
        for k, c in slopes:
            if k > n + 1:
                break
            acc += row[k - 1] * c * y[n + 1 - k]
        y.append(acc)
    return y


def _divide(f, g, order, known=()):
    """Counts of f / g, from f = q g: q_n = (f_n - sum_(k>=1) C(n,k) g_k
    q_(n-k)) / g_0, after the known leading ones.  They stay ints when f's
    do and g_0 is 1."""
    terms = _nonzero(g, 1, order + 1)
    rows = _binomials(order)
    quot = list(known)
    for n in range(len(quot), order + 1):
        row = rows[n]
        acc = f[n]
        for k, c in terms:
            if k > n:
                break
            acc -= row[k] * c * quot[n - k]
        quot.append(_quotient(acc, g[0]))
    return quot


def _over_e(f, order):
    """Counts of f / E, the inverse binomial transform q_n = sum_j
    (-1)^(n-j) C(n, j) f_j (f = q e^x, so q = f e^-x).  q_n is the leading
    entry of the n-th forward difference of f_0 .. f_N, so the table of
    differences yields every count with additions only: no binomial is
    read and no two counts are multiplied."""
    row = f[:order + 1]
    quot = []
    while row:
        quot.append(row[0])
        row = [*map(sub, row[1:], row)]
    return quot


def _inv(g, order, known=()):
    """Counts of 1/(1 - g)."""
    return _divide(
        [1] + [0] * order, [1] + [-c for c in g[1:order + 1]], order,
        (1, *known[1:]) if known else (),
    )


def _log(g, order, known=()):
    """Counts of log 1/(1 - g), whose derivative is g'/(1 - g)."""
    return [0] + _divide(
        g[1:], [1] + [-c for c in g[1:order]], order - 1, known[1:]
    )


def _factorials(order):
    """The tuple (0!, 1!, .., N!) for some N >= order (the shared table
    itself)."""
    global _FACTORIALS
    facts = _FACTORIALS
    if len(facts) <= order:
        grown = list(facts)
        for n in range(len(grown), order + 1):
            grown.append(grown[-1] * n)
        _FACTORIALS = facts = tuple(grown)
    return facts


def _closed_form(f, order):
    """The O(N^2) recurrence for an outer series whose counts f_1 .. f_order
    are those of E (all 1), L (n!) or C ((n-1)!); None for any other.  f is
    a tuple, compared in C with those counts."""
    head = f[1:order + 1]
    if head == (1,) * order:
        return _exp
    facts = _factorials(order)
    if head == facts[1:order + 1]:
        return _inv
    if head == facts[:order]:
        return _log
    return None


def _power_sum(f, g, order):
    """Counts of sum_k f_k g^k / k!, for any outer counts f.

    g^k / k! counts sets of k g-structures, so its counts are integers when
    g's are, and the division by k below is exact on them."""
    h = [f[0]] + [0] * order
    power = [1] + [0] * order  # g^0 / 0!
    top = max((k for k in range(order + 1) if f[k]), default=0)
    for k in range(1, top + 1):
        power = [_quotient(c, k) for c in _convolve(g, power, order)]
        h = [a + f[k] * b for a, b in zip(h, power)]
    return h


class CountSeries:
    """Truncated exponential series with exact structure counts f_0 .. f_N."""

    __slots__ = ("_counts",)

    def __init__(self, counts):
        counts = tuple(counts)
        if not _INT.issuperset(map(type, counts)):
            counts = tuple(map(_integral, counts))
        if not counts:
            raise ValueError("a series needs at least its constant coefficient")
        self._counts = counts

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coefficients(cls, coefficients):
        """Build a series from ordinary coefficients, i.e. f_n = n! * a_n."""
        from fractions import Fraction

        return cls(Fraction(a) * factorial(n) for n, a in enumerate(coefficients))

    @classmethod
    def from_counts(cls, counts):
        """Build a series from structure counts f_n."""
        return cls(counts)

    @classmethod
    def zero(cls, order):
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order):
        return cls([1] + [0] * order)

    @classmethod
    def x(cls, order):
        if order < 1:
            raise OrderExceeded("the series x needs truncation order >= 1")
        return cls([0, 1] + [0] * (order - 1))

    # -- observers ---------------------------------------------------------

    @property
    def order(self):
        return len(self._counts) - 1

    def _at(self, n):
        if n < 0:
            raise ValueError("coefficient index must be nonnegative")
        if n > self.order:
            raise OrderExceeded(
                f"coefficient {n} requested beyond truncation order {self.order}"
            )
        return self._counts[n]

    def coefficient(self, n):
        """The ordinary coefficient a_n = f_n / n!, as a Fraction."""
        from fractions import Fraction

        return Fraction(self._at(n), factorial(n))

    def count(self, n):
        """The labeled structure count f_n = n! * a_n, which must be an integer."""
        value = self._at(n)
        if type(value) is not int:
            raise NonIntegerCount(
                f"count at n={n} is {value}, not an integer; "
                "this is not the counting series of a species"
            )
        return value

    def counts(self):
        """All counts f_0 .. f_N as a list of integers."""
        return [self.count(n) for n in range(self.order + 1)]

    def coefficients(self):
        return [self.coefficient(n) for n in range(self.order + 1)]

    def truncate(self, order):
        if order >= len(self._counts):
            raise OrderExceeded(
                f"cannot truncate an order-{self.order} series to order {order}"
            )
        return _series(self._counts[: order + 1])

    # -- arithmetic --------------------------------------------------------

    def _promoted(self, other):
        """Lift a plain number to a constant series of the same order."""
        if isinstance(other, CountSeries):
            return other
        if _scalar(other):
            return CountSeries([other] + [0] * self.order)
        return None

    def __add__(self, other):
        other = self._promoted(other)
        if other is None:
            return NotImplemented
        return CountSeries(map(add, self._counts, other._counts))

    __radd__ = __add__

    def __neg__(self):
        return CountSeries(-c for c in self._counts)

    def __sub__(self, other):
        other = self._promoted(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._promoted(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other, known=()):
        """The product; known, when given, holds its leading counts.  A
        series times itself is squared in half the products."""
        if not isinstance(other, CountSeries):
            if _scalar(other):
                return CountSeries(c * other for c in self._counts)
            return NotImplemented
        if other is self:
            return CountSeries(_square(self._counts, self.order, known))
        order = min(self.order, other.order)
        return CountSeries(
            _convolve(self._counts, other._counts, order, known)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, CountSeries):
            if _scalar(other):
                return CountSeries(_quotient(c, other) for c in self._counts)
            return NotImplemented
        if other._counts[0] == 0:
            raise ZeroConstantDivisor(
                "division requires a divisor with nonzero constant term"
            )
        order = min(self.order, other.order)
        if other._counts[:order + 1] == (1,) * (order + 1):
            return CountSeries(_over_e(self._counts, order))
        return CountSeries(_divide(self._counts, other._counts, order))

    def __call__(self, inner, known=()):
        """Substitution self(inner); inner must have zero constant term.
        known, when given, holds the leading counts of the result; an outer
        that is none of E, L or C recomputes them all."""
        if not isinstance(inner, CountSeries):
            raise TypeError("substitution needs a CountSeries argument")
        if inner._counts[0] != 0:
            raise NonzeroConstantTerm(
                "substitution requires an inner series with zero constant term"
            )
        order = min(self.order, inner.order)
        f = self._counts
        g = inner._counts
        recurrence = _closed_form(f, order)
        if recurrence is None:
            return CountSeries(_power_sum(f, g, order))
        # The outer is f_0 - 1 + e^x, f_0 - 1 + 1/(1 - x) or f_0 + log
        # 1/(1 - x), so past the constant term it is the bare closed form.
        h = recurrence(g, order, known)
        h[0] = f[0]
        return CountSeries(h)

    def derive(self):
        """The derivative: counts shift down one place; order drops by one."""
        if self.order < 1:
            raise OrderExceeded("cannot differentiate an order-0 series")
        return _series(self._counts[1:])

    def point(self):
        """Pointing: f_n becomes n f_n, i.e. x * d/dx, at the same order."""
        return CountSeries(n * c for n, c in enumerate(self._counts))

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, CountSeries) and self._counts == other._counts

    def __hash__(self):
        return hash(self._counts)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self._counts[:8])
        if self.order > 7:
            shown += ", ..."
        return f"CountSeries(order={self.order}, counts=[{shown}])"


def _series(counts):
    """A series on a tuple of counts cut from another series, which are
    normalised already."""
    cut = object.__new__(CountSeries)
    cut._counts = counts
    return cut


# -- implicit systems ------------------------------------------------------

def reach(order, width, order_loss):
    """How far solve_system solves a cycle of width equations, and
    semantics the names outside it that it reads (see solve_system)."""
    return order + width * order_loss


def solve_system(equations, order, order_loss=0):
    """The least fixed point of a system of implicit equations name =
    rhs(names), through order.

    equations is a sequence of (name, rhs) pairs where rhs is a callable
    rhs(approx, target_order) -> CountSeries evaluating the right-hand side
    against the current approximations.  order_loss is the number of
    truncation orders one evaluation may consume (nonzero only when a
    derivative is applied to an unknown inside its own cycle).

    One Gauss-Seidel run from zero: each pass evaluates the equations in
    turn, later ones reading this pass's values, one band of len(equations)
    counts further than the last, through the reach, with order_loss counts
    of headroom above it; the run ends when a pass through the reach
    changes nothing.  Whether the system determines its unknowns is left to
    the caller: semantics.egf_of decides it from the equations before it
    calls here (see semantics), and then count n reads no count past
    order_loss above it on any path back to an unknown, so no count through
    order reads past reach(order, len(equations), order_loss).  For an
    opaque rhs, a safety net raises IllFoundedEquation once the lowest
    changed count stays at one index for len(equations) + 1 passes, or the
    passes run out.
    """
    names = [name for name, _ in equations]
    if len(set(names)) != len(names):
        raise ValueError("duplicate name in equation system")
    if not equations:
        return {}

    width = len(equations)
    far = reach(order, width, order_loss)
    warmup = -(-far // width)  # passes before one reaches far
    cap = (far + 2) * width + warmup
    approx = dict.fromkeys(names, CountSeries.zero(far + order_loss))
    low = streak = 0
    for passno in range(1, cap + 1):
        # Pass p evaluates only through p * width, about as far as p passes
        # can have fixed the unknowns; the coefficients above keep the
        # previous approximation's values until a later pass reaches them.
        target = min(far, passno * width)
        current = dict(approx)
        for name, rhs in equations:
            # Gauss-Seidel: later equations see this pass's values.  Every
            # value keeps order far + order_loss, so a lookup always has
            # its truncation headroom.
            value = rhs(current, target)
            above = approx[name]._counts[target + 1:]
            current[name] = _series(value._counts + above) if above else value
        # The safety net: (lowest changed index, its unknown).  The counts
        # above target are the previous pass's, so at target == far no
        # change means agreement through far.
        changed = [
            (k, name) for name in names
            if (k := _first_difference(
                approx[name]._counts, current[name]._counts
            )) is not None
        ]
        if not changed:
            if target == far:
                return {name: current[name].truncate(order) for name in names}
            streak = 0
        else:
            k, name = min(changed)
            streak = streak + 1 if k == low else 1
            low = k
            if streak > width:
                raise IllFoundedEquation(
                    f"equation for {name} has no fixed point: its count at "
                    f"size {k} grows on every pass"
                )
        approx = current
    raise IllFoundedEquation(
        "system {" + ", ".join(names)
        + f"}} did not stabilize through order {far} after {cap} passes"
    )
