"""The built-in verification suite.

Each case pins an identity between two species expressions, a frozen count
table, or a closed-form count law, and checks it two ways: exact equality of
series counts up to a truncation order, and (where tractable) cardinality of
the exhaustive enumerations on small label sets.

The enumerations of one case share one walk (enumerator._Walk), opened
around all of them and unordered (ordered=False): only the lengths of the
listings are read, so the walk lists every structure but merges no sum or
product into encode() order, and builds no sort key.  Every side is
listed on [n] for n from the largest order down to 0 on that walk, so
each subexpression is listed once per label set for the whole case, and
the listings count through the walk's one evaluator, which solves each
recursive system once.  The series checks do not share it: each calls
egf_of, which solves every system it reaches again.  The smallest n at
which two count lists differ (_witness) is the witness, as if the orders
were tried from 0 up; but every order is listed, so a refusal at a larger
order (a budget, say) is raised even when a smaller one already differs.
The walk is closed, and its caches dropped, when the case's listings end,
so no listing outlives it.

The catalogue is one table of makers (_CASES), and a call builds only the
cases it names, afresh: their expressions are parsed then, and the shared
definitions of the recursive cases (_SUITE_DEFS) only when a named case
reads them.  A definitions file that rebinds one of those names is refused
whichever cases are named, checked against the names alone.

Identities are verified by comparing structure counts; the suite never
attempts to exhibit a natural isomorphism between the two sides, and the
report header says so.
"""

from math import comb, factorial

from .enumerator import _Walk, _clean_labels, enumerate_structures
from .errors import DuplicateName, ParseError
from .expr import Name, PrimitiveKind, Primitive, RestrictCard
from .parser import parse_defs, parse_expr
from .semantics import egf_of
from .series import CountSeries, _first_difference

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

#: The names _SUITE_DEFS binds, read off its lines without parsing them.
_SUITE_NAMES = frozenset(
    line.partition("=")[0].strip()
    for line in _SUITE_DEFS.splitlines()
    if line.strip()
)


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
                "lhs": self.lhs_count,
                "rhs": self.rhs_count,
                "detail": self.witness,
            }
        return out


def _witness(detail, lhs, rhs):
    """The witness (detail, n, lhs[n], rhs[n]) at the smallest n at which
    the count lists lhs and rhs differ, as far as the shorter goes, with n
    put into detail; None where they agree."""
    n = _first_difference(lhs, rhs)
    if n is None:
        return None
    return (detail.format(n=n), n, lhs[n], rhs[n])


def _report(name, check):
    """Run check() and turn the witness it returns, a tuple (detail, n,
    lhs, rhs) or None, into a VerificationReport."""
    witness = check()
    return VerificationReport(name, witness is None, *(witness or ()))


def _listing_sizes(exprs, env, max_n):
    """For each of exprs, the number of its structures on [n] for n = 0 ..
    max_n, as one list per expression.

    Every listing runs in one open walk, largest n first, so the listings
    on fewer labels reuse the lists and series counts of the first, and
    the collector stays paused between the listings.  The labels are
    cleaned once, as [1, max_n]: each [n] is a prefix of it, kept by the
    walk as clean.  The walk is unordered: each listing holds the
    structures an ordered one would, each once, in split order, and only
    its length is read.  The walk releases its caches as it closes, while
    the collector is still paused.
    """
    sizes = [[None] * (max_n + 1) for _ in exprs]
    every = _clean_labels(range(1, max_n + 1))
    with _Walk(env=env, ordered=False) as walk:
        for n in range(max_n, -1, -1):
            labels = walk.keep_clean(every[:n])
            for row, expr in zip(sizes, exprs):
                row[n] = len(
                    enumerate_structures(expr, env, labels, walk=walk)
                )
    return sizes


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
        """None: a case without a listing check has no listing witness."""
        return None

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
        return _witness(
            "series counts differ at n={n}",
            egf_of(self.lhs, self.env, order).counts(),
            egf_of(self.rhs, self.env, order).counts(),
        )

    def _enum_witness(self, max_n):
        """The smallest n <= max_n at which the two sides have different
        numbers of structures on [n], both sides listed on one walk."""
        lhs, rhs = _listing_sizes((self.lhs, self.rhs), self.env, max_n)
        return _witness("enumerations differ on [{n}]", lhs, rhs)


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
        return _witness(
            "count table differs at n={n}",
            egf_of(self.expr, self.env, order).counts(),
            self.expected,
        )

    def _enum_witness(self, max_n):
        """The smallest n <= max_n (and within the table) at which the
        number of structures on [n] differs from the table, every order
        listed on one walk."""
        max_n = min(max_n, len(self.expected) - 1)
        (got,) = _listing_sizes((self.expr,), self.env, max_n)
        return _witness("enumeration differs on [{n}]", got, self.expected)


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
        totals = []
        for n in range(order + 1):
            total = 0
            for sizes in self._partition_sizes(n):
                term = fc[len(sizes)]
                for size in sizes:
                    term *= gc[size]
                total += term
            totals.append(total)
        witness = _witness("substitution differs at n={n}", h.counts(), totals)
        if witness:
            return witness
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


def verify_series(case, order=None):
    """Series-level check of one case; a VerificationReport."""
    so = case.series_order if order is None else order
    return _report(case.name, lambda: case._series_witness(so))


def verify_enumerative(case, max_n=None):
    """Enumeration-level check of one case; a VerificationReport."""
    em = case.enum_max if max_n is None else max_n
    return _report(case.name, lambda: case._enum_witness(em))


def _alternating_count(n):
    """The derangements of n labels by the alternating sum
    sum over k of (-1)^k n!/k!, in integers."""
    return sum((-1) ** k * (factorial(n) // factorial(k))
               for k in range(n + 1))


def _tree_quotient(n, count):
    want = 1 if n == 1 else n ** (n - 2)
    if count % n != 0 or count // n != want:
        return (count, n * want)
    return None


def _reads_shared(make):
    """Whether the case a _CASES maker builds reads the shared definitions:
    such a maker takes their env as its second argument."""
    return make.__code__.co_argcount == 2


#: The suite, in catalogue order: each case's name and the maker that
#: builds the case from that name.  A maker of two arguments builds a case
#: that reads the shared definitions and is given their env, merged with
#: any extra definitions, as the second.  Every call of a maker parses and
#: builds its case afresh.
_CASES = (
    # Count tables for every catalogued species.
    ("counts-O", lambda name: TableCase(name, "0", [0, 0, 0, 0, 0, 0])),
    ("counts-1", lambda name: TableCase(name, "1", [1, 0, 0, 0, 0, 0])),
    ("counts-X", lambda name: TableCase(name, "X", [0, 1, 0, 0, 0, 0])),
    ("counts-E", lambda name: TableCase(name, "E", [1] * 13)),
    ("counts-Ep", lambda name: TableCase(name, "Ep", [0] + [1] * 12)),
    ("counts-Ek2", lambda name: TableCase(name, "Ek[2]", [0, 0, 1, 0, 0, 0])),
    ("counts-L", lambda name: TableCase(
        name, "L", [factorial(n) for n in range(13)])),
    ("counts-Lp", lambda name: TableCase(
        name, "Lp", [0] + [factorial(n) for n in range(1, 13)])),
    ("counts-C", lambda name: TableCase(name, "C", [0, 1, 1, 2, 6, 24])),
    ("counts-S", lambda name: TableCase(
        name, "S", [factorial(n) for n in range(13)])),
    ("counts-P", lambda name: TableCase(
        name, "P", [1, 2, 4, 8, 16], enum_max=4)),
    ("counts-Pk2", lambda name: TableCase(
        name, "Pk[2]", [0, 0, 1, 3, 6, 10])),
    ("counts-Gra", lambda name: TableCase(
        name, "Gra", [1, 1, 2, 8, 64, 1024])),
    ("counts-Gro", lambda name: TableCase(
        name, "Gro", [1, 2, 16, 512, 65536, 33554432], enum_max=4)),
    ("counts-Inv", lambda name: TableCase(name, "Inv", [1, 1, 2, 4, 10, 26])),
    ("counts-Der", lambda name: TableCase(name, "Der", [1, 0, 1, 2, 9, 44])),
    ("counts-End", lambda name: TableCase(
        name, "End", [1, 1, 4, 27, 256, 3125])),
    ("counts-Part", lambda name: TableCase(
        name, "Part", [1, 1, 2, 5, 15, 52, 203, 877, 4140])),
    # Structural identities.
    ("S=E*Der", lambda name: IdentityCase(name, "S", "E*Der")),
    ("S=E(C)", lambda name: IdentityCase(name, "S", "E(C)")),
    ("Part=E(Ep)", lambda name: IdentityCase(name, "Part", "E(Ep)")),
    ("C'=L", lambda name: IdentityCase(name, "C'", "L")),
    ("Inv=E(X+Ek[2])", lambda name: IdentityCase(name, "Inv", "E(X + Ek[2])")),
    ("P=E*E", lambda name: IdentityCase(name, "P", "E*E", enum_max=4)),
    # Recursive species and the laws of their counts.
    ("B=1+X*B^2", lambda name, env: TableCase(
        name,
        Name("B"),
        [factorial(n) * comb(2 * n, n) // (n + 1) for n in range(13)],
        env=env,
    )),
    ("A=X*E(A)", lambda name, env: TableCase(
        name,
        Name("A"),
        [0] + [n ** (n - 1) for n in range(1, 13)],
        env=env,
    )),
    ("pt(A)=n^n", lambda name, env: TableCase(
        name, "pt(A)", [0] + [n**n for n in range(1, 13)], env=env)),
    ("End=S(A)", lambda name, env: IdentityCase(
        name, "End", "S(A)", env=env, series_order=10)),
    ("pt(A)=Lp(A)", lambda name, env: IdentityCase(
        name, "pt(A)", "Lp(A)", env=env, series_order=10)),
    ("End+=pt(A)", lambda name, env: IdentityCase(
        name,
        RestrictCard(Primitive(PrimitiveKind.ENDOFUNCTION), ">=", 1),
        "pt(A)",
        env=env,
        series_order=10,
    )),
    ("trees=n^(n-2)", lambda name, env: FormulaCase(
        name, Name("A"), _tree_quotient, 1, 10, env=env)),
    # Count laws.
    ("Der-alternating-sum", lambda name: FormulaCase(
        name,
        "Der",
        lambda n, c: None if c == _alternating_count(n) else
        (c, _alternating_count(n)),
        0,
        12,
    )),
    ("substitution-x4", lambda name: SubstitutionCase(name)),
)


def _cases(names, extra_env):
    """The cases named (every case when names is None), built afresh in
    catalogue order.

    Before anything is built, a name that extra_env shares with the shared
    definitions raises DuplicateName, as merging the two would, checked
    against _SUITE_NAMES without parsing; then a name no case has raises
    ParseError.  The shared definitions are parsed, and merged with
    extra_env, once and only if a named case reads them."""
    for name in extra_env or ():
        if name in _SUITE_NAMES:
            raise DuplicateName(f"'{name}' is defined twice")
    rows = _CASES
    if names is not None:
        rows = [row for row in _CASES if row[0] in names]
        missing = set(names).difference(name for name, _ in rows)
        if missing:
            raise ParseError("no such case: " + ", ".join(sorted(missing)))
    env = None
    cases = []
    for name, make in rows:
        if not _reads_shared(make):
            cases.append(make(name))
            continue
        if env is None:
            env = parse_defs(_SUITE_DEFS)
            if extra_env is not None:
                env = env.merged(extra_env)
        cases.append(make(name, env))
    return cases


def catalog(extra_env=None):
    """Build the full list of suite cases (fresh on every call)."""
    return _cases(None, extra_env)


def run_suite(order=None, names=None, extra_env=None):
    """Run the catalogue; returns one VerificationReport per selected case,
    in catalogue order.  With names, only the named cases are built, so
    only their expressions are parsed, and the shared definitions only if
    one of them reads them.  A clash between extra_env and the shared
    definitions (DuplicateName), and then an unknown name (ParseError),
    are refused before any case is built."""
    return [case.run(order=order) for case in _cases(names, extra_env)]
