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
series that is none of E, L or C; that one costs O(N^3).  Substituting into
E, L and C follows the standard recurrences (Bergeron, Labelle and Leroux,
Combinatorial Species and Tree-like Structures, ch. 1-3): exp for E,
1/(1 - g) for L and log 1/(1 - g) for C.
"""

from fractions import Fraction
from math import comb, factorial
from operator import add

from .errors import (
    IllFoundedEquation,
    NonIntegerCount,
    NonzeroConstantTerm,
    OrderExceeded,
    ZeroConstantDivisor,
)

__all__ = ["CountSeries", "solve_system"]


def _integral(c):
    """c as an int when it is integral; a non-integral Fraction as is."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _quotient(a, b):
    """The exact quotient a / b, an int whenever it is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _integral(Fraction(a) / b)


def _nonzero(counts, start, stop):
    """(k, counts[k]) for the nonzero counts with start <= k < stop."""
    return [(k, counts[k]) for k in range(start, stop) if counts[k]]


def _convolve(f, g, order):
    """Counts of the product f*g: h_n = sum_k C(n, k) f_k g_(n-k)."""
    terms = _nonzero(f, 0, order + 1)
    out = []
    for n in range(order + 1):
        acc = 0
        for k, c in terms:
            if k > n:
                break
            d = g[n - k]
            if d:
                acc += comb(n, k) * c * d
        out.append(acc)
    return out


def _exp(g, order):
    """Counts of exp(g) from y' = g' y, i.e.
    y_(n+1) = sum_k C(n,k) g_(k+1) y_(n-k)."""
    slopes = _nonzero(g, 1, order + 1)
    y = [1]
    for n in range(order):
        acc = 0
        for k, c in slopes:
            if k > n + 1:
                break
            acc += comb(n, k - 1) * c * y[n + 1 - k]
        y.append(acc)
    return y


def _divide(f, g, order):
    """Counts of f / g, from f = q g: q_n = (f_n - sum_(k>=1) C(n,k) g_k
    q_(n-k)) / g_0.  They stay ints when f's do and g_0 is 1."""
    terms = _nonzero(g, 1, order + 1)
    quot = []
    for n in range(order + 1):
        acc = f[n]
        for k, c in terms:
            if k > n:
                break
            acc -= comb(n, k) * c * quot[n - k]
        quot.append(_quotient(acc, g[0]))
    return quot


def _inv(g, order):
    """Counts of 1/(1 - g)."""
    return _divide([1] + [0] * order, [1] + [-c for c in g[1:order + 1]], order)


def _log(g, order):
    """Counts of log 1/(1 - g), whose derivative is g'/(1 - g)."""
    return [0] + _divide(g[1:], [1] + [-c for c in g[1:order]], order - 1)


def _closed_form(f, order):
    """The O(N^2) recurrence for an outer series whose counts f_1 .. f_order
    are those of E (all 1), L (n!) or C ((n-1)!); None for any other."""
    exp = inv = log = True
    fact = 1
    for n in range(1, order + 1):
        c = f[n]
        exp = exp and c == 1
        log = log and c == fact
        fact *= n
        inv = inv and c == fact
        if not (exp or inv or log):
            return None
    return _exp if exp else _inv if inv else _log


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
        counts = tuple(map(_integral, counts))
        if not counts:
            raise ValueError("a series needs at least its constant coefficient")
        self._counts = counts

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coefficients(cls, coefficients):
        """Build a series from ordinary coefficients, i.e. f_n = n! * a_n."""
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
        if order > self.order:
            raise OrderExceeded(
                f"cannot truncate an order-{self.order} series to order {order}"
            )
        return CountSeries(self._counts[: order + 1])

    def agrees_through(self, other, order):
        """True when self and other share counts f_0 .. f_order."""
        return (
            self._counts[: order + 1] == other._counts[: order + 1]
            and self.order >= order
            and other.order >= order
        )

    # -- arithmetic --------------------------------------------------------

    def _promoted(self, other):
        """Lift a plain number to a constant series of the same order."""
        if isinstance(other, CountSeries):
            return other
        if isinstance(other, (int, Fraction)):
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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CountSeries(c * other for c in self._counts)
        if not isinstance(other, CountSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return CountSeries(_convolve(self._counts, other._counts, order))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return CountSeries(_quotient(c, other) for c in self._counts)
        if not isinstance(other, CountSeries):
            return NotImplemented
        if other._counts[0] == 0:
            raise ZeroConstantDivisor(
                "division requires a divisor with nonzero constant term"
            )
        order = min(self.order, other.order)
        return CountSeries(_divide(self._counts, other._counts, order))

    def __call__(self, inner):
        """Substitution self(inner); inner must have zero constant term."""
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
        h = recurrence(g, order)
        h[0] = f[0]
        return CountSeries(h)

    def derive(self):
        """The derivative: counts shift down one place; order drops by one."""
        if self.order < 1:
            raise OrderExceeded("cannot differentiate an order-0 series")
        return CountSeries(self._counts[1:])

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


# -- implicit systems ------------------------------------------------------

def _probe(order):
    """A generic start with zero constant term: x + x^2 + ... + x^order."""
    return CountSeries.from_coefficients([0] + [1] * order)


def solve_system(equations, order, order_loss=0):
    """Solve a system of implicit equations name = rhs(names) for series.

    equations is a sequence of (name, rhs) pairs where rhs is a callable
    rhs(approx, target_order) -> CountSeries evaluating the right-hand side
    against the current approximations.  order_loss is the number of
    truncation orders one evaluation may consume (nonzero only when a
    derivative is applied to an unknown inside its own cycle).

    The iteration starts from the zero series and, independently, from a
    generic nonzero series.  A well-founded system is a contraction in the
    coefficient metric, so both runs stabilize on the same coefficients; if
    either run fails to stabilize, or the two runs disagree, the system does
    not determine its unknowns and IllFoundedEquation is raised.
    """
    names = [name for name, _ in equations]
    if len(set(names)) != len(names):
        raise ValueError("duplicate name in equation system")
    if not equations:
        return {}

    cap = (order + 2) * len(equations)
    deep = order + cap * order_loss

    def run(start):
        approx = {name: start for name in names}
        for passno in range(1, cap + 1):
            target = deep - passno * order_loss
            current = dict(approx)
            for name, rhs in equations:
                # Gauss-Seidel when no order is lost per pass: later
                # equations see this pass's values, which speeds up chains.
                # With order loss, stick to the previous snapshot so every
                # lookup still has enough truncation headroom.
                source = current if order_loss == 0 else approx
                current[name] = rhs(dict(source), target)
            if all(
                current[name].agrees_through(approx[name], order)
                for name in names
            ):
                return {name: current[name].truncate(order) for name in names}
            approx = current
        raise IllFoundedEquation(
            "system {"
            + ", ".join(names)
            + f"}} did not stabilize through order {order} after {cap} passes"
        )

    solution = run(CountSeries.zero(deep))
    cross_check = run(_probe(deep))
    for name in names:
        if not solution[name].agrees_through(cross_check[name], order):
            raise IllFoundedEquation(
                f"equation for {name} admits more than one fixed point; "
                "the system does not determine it"
            )
    return solution
