"""The built-in verification suite.

Each case pins an identity between two species expressions, a frozen count
table, or a closed-form count law, and checks it two ways: exact equality of
series counts up to a truncation order, and (where tractable) cardinality of
the exhaustive enumerations on small label sets.

Identities are verified by comparing structure counts; the suite never
attempts to exhibit a natural isomorphism between the two sides, and the
report header says so.
"""

from fractions import Fraction
from math import comb, factorial

from .enumerator import enumerate_structures
from .expr import Name, PrimitiveKind, Primitive, RestrictCard
from .parser import parse_defs, parse_expr
from .semantics import egf_of
from .series import CountSeries

__all__ = [
    "SUITE_NOTE",
    "VerificationReport",
    "IdentityCase",
    "TableCase",
    "FormulaCase",
    "SubstitutionCase",
    "catalog",
    "run_suite",
    "verify_series",
    "verify_enumerative",
]

SUITE_NOTE = (
    "identities are verified by comparing structure counts (series "
    "coefficients and exhaustive enumeration); exhibiting natural "
    "isomorphisms is out of scope"
)

#: Definitions shared by the recursive cases.
_SUITE_DEFS = """
A = X*E(A)          # rooted trees
B = 1 + X*B^2       # binary trees, counted with labels
V = pt(A)           # a tree with one distinguished vertex
"""


class VerificationReport:
    """The outcome of one case and, if it failed, its first witness."""

    def __init__(self, name, passed, witness=None, witness_n=None,
                 lhs_count=None, rhs_count=None):
        self.name = name
        self.passed = passed
        self.witness = witness
        self.witness_n = witness_n
        self.lhs_count = lhs_count
        self.rhs_count = rhs_count

    def to_json(self):
        """Stable machine-readable form, byte-identical across runs."""
        out = {"name": self.name, "status": "pass" if self.passed else "fail"}
        if self.passed:
            out["witness"] = None
        else:
            out["witness"] = {
                "n": self.witness_n,
                "lhs": _json_count(self.lhs_count),
                "rhs": _json_count(self.rhs_count),
                "detail": self.witness,
            }
        return out


def _json_count(value):
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    return value


def _report(name, check):
    """Run check() and turn the witness it returns, a tuple (detail, n,
    lhs, rhs) or None, into a VerificationReport."""
    witness = check()
    return VerificationReport(name, witness is None, *(witness or ()))


class _Case:
    """One suite entry; subclasses supply the actual comparison."""

    def __init__(self, name, env=None, series_order=12, enum_max=5):
        self.name = name
        self.env = env
        self.series_order = series_order
        self.enum_max = enum_max

    def _series_witness(self, order):
        raise NotImplementedError

    def _enum_witness(self, max_n):
        raise NotImplementedError

    def run(self, order=None):
        so = self.series_order if order is None else order
        em = self.enum_max if order is None else min(self.enum_max, order)
        return _report(
            self.name,
            lambda: self._series_witness(so) or self._enum_witness(em),
        )


class IdentityCase(_Case):
    """Two expressions that must have the same counts."""

    def __init__(self, name, lhs, rhs, env=None, series_order=12, enum_max=5):
        super().__init__(name, env, series_order, enum_max)
        self.lhs = parse_expr(lhs) if isinstance(lhs, str) else lhs
        self.rhs = parse_expr(rhs) if isinstance(rhs, str) else rhs

    def _series_witness(self, order):
        left = egf_of(self.lhs, self.env, order)
        right = egf_of(self.rhs, self.env, order)
        for n in range(order + 1):
            lc, rc = left.coefficient(n), right.coefficient(n)
            if lc != rc:
                return (
                    f"series counts differ at n={n}",
                    n,
                    lc * factorial(n),
                    rc * factorial(n),
                )
        return None

    def _enum_witness(self, max_n):
        for n in range(max_n + 1):
            labels = list(range(1, n + 1))
            lhs = len(enumerate_structures(self.lhs, self.env, labels))
            rhs = len(enumerate_structures(self.rhs, self.env, labels))
            if lhs != rhs:
                return (f"enumerations differ on [{n}]", n, lhs, rhs)
        return None


class TableCase(_Case):
    """One expression against a frozen table of counts."""

    def __init__(self, name, expr, expected, env=None, enum_max=5):
        super().__init__(
            name, env, series_order=len(expected) - 1,
            enum_max=min(enum_max, len(expected) - 1),
        )
        self.expr = parse_expr(expr) if isinstance(expr, str) else expr
        self.expected = list(expected)

    def _series_witness(self, order):
        order = min(order, len(self.expected) - 1)
        got = egf_of(self.expr, self.env, order)
        for n in range(order + 1):
            value = got.count(n)
            if value != self.expected[n]:
                return (
                    f"count table differs at n={n}",
                    n,
                    value,
                    self.expected[n],
                )
        return None

    def _enum_witness(self, max_n):
        max_n = min(max_n, len(self.expected) - 1)
        for n in range(max_n + 1):
            labels = list(range(1, n + 1))
            got = len(enumerate_structures(self.expr, self.env, labels))
            if got != self.expected[n]:
                return (f"enumeration differs on [{n}]", n, got, self.expected[n])
        return None


class FormulaCase(_Case):
    """One expression against a count law checked pointwise.

    check(n, count) returns None when the law holds at n, or a pair
    (got, expected) describing the violation.
    """

    def __init__(self, name, expr, check, low, high, env=None):
        super().__init__(name, env, series_order=high, enum_max=-1)
        self.expr = parse_expr(expr) if isinstance(expr, str) else expr
        self.check = check
        self.low = low
        self.high = high

    def _series_witness(self, order):
        high = min(order, self.high)
        if high < self.low:
            return None
        got = egf_of(self.expr, self.env, high)
        for n in range(self.low, high + 1):
            verdict = self.check(n, got.count(n))
            if verdict is not None:
                return (f"count law fails at n={n}", n, *verdict)
        return None

    def _enum_witness(self, max_n):
        return None


class SubstitutionCase(_Case):
    """Substitution against the partitional sum it must equal.

    A fixed generic pair of integer count series is composed through the
    series algebra and checked, coefficient by coefficient, against the sum
    over set partitions of f_(number of blocks) * product of g_(block size),
    computed here independently of the composition code.
    """

    F_COUNTS = [2, 3, 5, 7, 11, 13, 17]
    G_COUNTS = [0, 2, 3, 5, 7, 11, 13]

    def __init__(self, name):
        super().__init__(name, env=None, series_order=6, enum_max=-1)

    @staticmethod
    def _partition_sizes(n):
        """Block-size lists of every partition of an n-set, with multiplicity."""
        if n == 0:
            yield []
            return
        # The block containing element 1 picks k - 1 companions.
        for k in range(1, n + 1):
            ways = comb(n - 1, k - 1)
            for rest in SubstitutionCase._partition_sizes(n - k):
                for _ in range(ways):
                    yield [k] + rest

    def _series_witness(self, order):
        order = min(order, self.series_order)
        f = CountSeries.from_counts(self.F_COUNTS)
        g = CountSeries.from_counts(self.G_COUNTS)
        h = f(g)
        fc, gc = self.F_COUNTS, self.G_COUNTS
        for n in range(order + 1):
            total = 0
            for sizes in self._partition_sizes(n):
                term = fc[len(sizes)]
                for size in sizes:
                    term *= gc[size]
                total += term
            got = h.count(n)
            if got != total:
                return (f"substitution differs at n={n}", n, got, total)
        if order >= 4:
            law = (
                fc[4] * gc[1] ** 4
                + 6 * fc[3] * gc[1] ** 2 * gc[2]
                + 4 * fc[2] * gc[1] * gc[3]
                + 3 * fc[2] * gc[2] ** 2
                + fc[1] * gc[4]
            )
            got = h.count(4)
            if got != law:
                return ("x^4 substitution term is off", 4, got, law)
        return None

    def _enum_witness(self, max_n):
        return None


def verify_series(case, order=None):
    """Series-level check of one case; a VerificationReport."""
    so = case.series_order if order is None else order
    return _report(case.name, lambda: case._series_witness(so))


def verify_enumerative(case, max_n=None):
    """Enumeration-level check of one case; a VerificationReport."""
    em = case.enum_max if max_n is None else max_n
    return _report(case.name, lambda: case._enum_witness(em))


def _alternating_count(n):
    total = sum(Fraction((-1) ** k, factorial(k)) for k in range(n + 1))
    return int(factorial(n) * total)


def _tree_quotient(n, count):
    want = 1 if n == 1 else n ** (n - 2)
    if count % n != 0 or count // n != want:
        return (count, n * want)
    return None


def catalog(extra_env=None):
    """Build the full list of suite cases (fresh on every call)."""
    env = parse_defs(_SUITE_DEFS)
    if extra_env is not None:
        env = env.merged(extra_env)

    end_positive = RestrictCard(
        Primitive(PrimitiveKind.ENDOFUNCTION), ">=", 1
    )

    cases = [
        # Count tables for every catalogued species.
        TableCase("counts-O", "0", [0, 0, 0, 0, 0, 0]),
        TableCase("counts-1", "1", [1, 0, 0, 0, 0, 0]),
        TableCase("counts-X", "X", [0, 1, 0, 0, 0, 0]),
        TableCase("counts-E", "E", [1] * 13),
        TableCase("counts-Ep", "Ep", [0] + [1] * 12),
        TableCase("counts-Ek2", "Ek[2]", [0, 0, 1, 0, 0, 0]),
        TableCase("counts-L", "L", [factorial(n) for n in range(13)]),
        TableCase("counts-Lp", "Lp", [0] + [factorial(n) for n in range(1, 13)]),
        TableCase("counts-C", "C", [0, 1, 1, 2, 6, 24]),
        TableCase("counts-S", "S", [factorial(n) for n in range(13)]),
        TableCase("counts-P", "P", [1, 2, 4, 8, 16], enum_max=4),
        TableCase("counts-Pk2", "Pk[2]", [0, 0, 1, 3, 6, 10]),
        TableCase("counts-Gra", "Gra", [1, 1, 2, 8, 64, 1024]),
        TableCase("counts-Gro", "Gro", [1, 2, 16, 512, 65536, 33554432],
                  enum_max=4),
        TableCase("counts-Inv", "Inv", [1, 1, 2, 4, 10, 26]),
        TableCase("counts-Der", "Der", [1, 0, 1, 2, 9, 44]),
        TableCase("counts-End", "End", [1, 1, 4, 27, 256, 3125]),
        TableCase("counts-Part", "Part", [1, 1, 2, 5, 15, 52, 203, 877, 4140]),
        # Structural identities.
        IdentityCase("S=E*Der", "S", "E*Der"),
        IdentityCase("S=E(C)", "S", "E(C)"),
        IdentityCase("Part=E(Ep)", "Part", "E(Ep)"),
        IdentityCase("C'=L", "C'", "L"),
        IdentityCase("Inv=E(X+Ek[2])", "Inv", "E(X + Ek[2])"),
        IdentityCase("P=E*E", "P", "E*E", enum_max=4),
        # Recursive species and the laws of their counts.
        TableCase(
            "B=1+X*B^2",
            Name("B"),
            [factorial(n) * comb(2 * n, n) // (n + 1) for n in range(13)],
            env=env,
        ),
        TableCase(
            "A=X*E(A)",
            Name("A"),
            [0] + [n ** (n - 1) for n in range(1, 13)],
            env=env,
        ),
        TableCase(
            "pt(A)=n^n",
            "pt(A)",
            [0] + [n**n for n in range(1, 13)],
            env=env,
        ),
        IdentityCase("End=S(A)", "End", "S(A)", env=env, series_order=10),
        IdentityCase("pt(A)=Lp(A)", "pt(A)", "Lp(A)", env=env, series_order=10),
        IdentityCase(
            "End+=pt(A)", end_positive, "pt(A)", env=env, series_order=10
        ),
        FormulaCase("trees=n^(n-2)", Name("A"), _tree_quotient, 1, 10, env=env),
        # Count laws.
        FormulaCase(
            "Der-alternating-sum",
            "Der",
            lambda n, c: None if c == _alternating_count(n) else
            (c, _alternating_count(n)),
            0,
            12,
        ),
        SubstitutionCase("substitution-x4"),
    ]
    return cases


def run_suite(order=None, names=None, extra_env=None):
    """Run the catalogue; returns one VerificationReport per selected case."""
    reports = []
    for case in catalog(extra_env):
        if names is not None and case.name not in names:
            continue
        reports.append(case.run(order=order))
    return reports
