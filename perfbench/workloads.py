"""Seeded call lists for the three workloads, and the check of each call.

A workload is an endless sequence of rounds.  Every round issues each of
the workload's templates once (a series template once at each order of its
window, an enumerate template once on integer and once on string labels),
in a seeded order.  A series or enumerate round also makes one short
``verify`` call, which reaches the layers the workload otherwise leaves
idle, so that no per-layer time reads 0 on every run.  The seed draws the
call order, the names bound in the definitions file, the subcommand form
and the label sets.  So every round does about the same work, while no two
calls of a run share an argv and definitions file.

Each call carries a JSON-ready ``check``: what its output must be.  The
expected values come from ``closed_forms`` and from the documented output
formats, never from the package under test.
"""

import itertools
import json
import random
import string

import closed_forms

WORKLOADS = ("series", "enumerate", "verify")

#: About how long one round took when the benchmark was defined (2-core
#: Intel Xeon virtual machine, Python 3.11).  A run of --seconds makes
#: round(seconds / ROUND_SECONDS) rounds, so two commits run the same calls;
#: at 25 s that is 3, 2 and 5 rounds, which puts the tail percentile inside
#: one cluster of like latencies rather than at its edge.
ROUND_SECONDS = {"series": 8.0, "enumerate": 12.5, "verify": 5.0}

# -- series ------------------------------------------------------------------

# (template, definitions, expression, oracle, orders).  {A} and {B}
# stand for seeded names; {U} binds a name that the expression leaves unused.
_SERIES = [
    ("A", "{A} = X*E({A})", "{A}", "rooted_trees", (16, 17)),
    ("B", "{A} = 1 + X*{A}^2", "{A}", "binary_trees", (36, 38)),
    ("T", "{A} = X*L({A})", "{A}", "plane_trees", (16, 17)),
    ("M", "{A} = X*E({B})\n{B} = X*E({A})", "{A}", "rooted_trees", (13, 14)),
    ("pt(A)", "{A} = X*E({A})", "pt({A})", "pointed_trees", (14, 15)),
    ("S(A)", "{A} = X*E({A})", "S({A})", "endofunctions", (14, 15)),
    ("Part", "{U} = X*L({U})", "Part", "bell", (52, 54)),
    ("Inv", "{U} = X*L({U})", "Inv", "involutions", (46, 48)),
    ("E(C)", "{U} = X*L({U})", "E(C)", "permutations", (46, 48)),
    ("Der", "{U} = X*L({U})", "Der", "derangements", (150, 160)),
]

# -- enumerate ---------------------------------------------------------------

# (template, defs, expression, label count, oracle).
_ENUMERATE = [
    ("B", "{A} = 1 + X*{A}^2", "{A}", 5, "binary_trees"),
    ("A", "{A} = X*E({A})", "{A}", 6, "rooted_trees"),
    ("pt(A)", "{A} = X*E({A})", "pt({A})", 5, "pointed_trees"),
    ("E(C)", None, "E(C)", 7, "permutations"),
    ("Part", None, "Part", 8, "bell"),
    ("C'", None, "C'", 7, "permutations"),
    ("S", None, "S", 7, "permutations"),
    ("Gra", None, "Gra", 5, "graphs"),
    ("Inv", None, "Inv", 8, "involutions"),
]

# -- verify ------------------------------------------------------------------

SUITE_NOTE = (
    "identities are verified by comparing structure counts (series "
    "coefficients and exhaustive enumeration); exhibiting natural "
    "isomorphisms is out of scope"
)

SUITE_CASES = (
    "counts-O", "counts-1", "counts-X", "counts-E", "counts-Ep", "counts-Ek2",
    "counts-L", "counts-Lp", "counts-C", "counts-S", "counts-P", "counts-Pk2",
    "counts-Gra", "counts-Gro", "counts-Inv", "counts-Der", "counts-End",
    "counts-Part", "S=E*Der", "S=E(C)", "Part=E(Ep)", "C'=L",
    "Inv=E(X+Ek[2])", "P=E*E", "B=1+X*B^2", "A=X*E(A)", "pt(A)=n^n",
    "End=S(A)", "pt(A)=Lp(A)", "End+=pt(A)", "trees=n^(n-2)",
    "Der-alternating-sum", "substitution-x4",
)

# Expressions that no grammar reading accepts.
_MALFORMED = ("E(", "X*", "(X", "X+)", "Ek[", "X^", "E((X)", "X**X", "pt(",
              "Pk[2", "X+*E", ")")

#: Placeholder in an argv for the path of the call's definitions file.
DEFS = "@defs"

_REFUSALS = ("ill-founded", "self-loop", "nonempty-inner", "parse", "budget",
             "domain")


def verify_expected(case):
    """The exact bytes ``verify --case CASE --json`` prints for a pass."""
    payload = {
        "note": SUITE_NOTE,
        "ok": True,
        "cases": [{"name": case, "status": "pass", "witness": None}],
    }
    return json.dumps(payload, indent=2) + "\n"


class _Draw:
    """Seeded names and labels, none used twice in one run."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def name(self):
        while True:
            tail = "".join(self.rng.choices(string.ascii_lowercase + string.digits, k=5))
            name = "Q" + tail
            if name not in self.used:
                self.used.add(name)
                return name

    def labels(self, n, as_text):
        if as_text:
            pool = ["".join(self.rng.choices(string.ascii_lowercase, k=self.rng.randint(1, 3)))
                    for _ in range(4 * n)]
            picked = list(dict.fromkeys(pool))[:n]
        else:
            picked = self.rng.sample(range(1, 100), n)
        if len(picked) < n:
            return self.labels(n, as_text)
        return picked


def _call(argv, check, defs=None):
    return {"argv": argv, "defs": defs, "check": check}


def _series_round(rng, draw, rnd):
    calls = []
    for tmpl, defs, expr, oracle, orders in _SERIES:
        for order in orders:
            names = {"A": draw.name(), "B": draw.name(), "U": draw.name()}
            target = expr.format(**names)
            if tmpl == "M" and rng.random() < 0.5:
                target = names["B"]
            forms = ["series", "count"] + (["solve"] if target.startswith("Q") else [])
            form = rng.choice(forms)
            if form == "count":
                argv = ["count", target, str(order)]
                check = {"kind": "count", "oracle": oracle, "n": order}
            else:
                argv = [form, target, "--order", str(order)]
                check = {"kind": "series", "oracle": oracle, "n": order}
            calls.append(_call(argv + ["--defs", DEFS, "--json"], check,
                               defs.format(**names) + "\n"))
    calls.append(_verify_call(draw, "C'=L"))
    rng.shuffle(calls)
    return calls


def _enumerate_round(rng, draw, rnd):
    calls = []
    for tmpl, defs, expr, n, oracle in _ENUMERATE:
        for as_text in (False, True):
            names = {"A": draw.name()}
            if not as_text and rnd == 0:
                spec = str(n)  # the size form, labels 1..n
            else:
                spec = ",".join(map(str, draw.labels(n, as_text)))
            argv = ["enumerate", expr.format(**names), spec]
            check = {"kind": "enumerate", "oracle": oracle, "n": n}
            text = None
            if defs is not None:
                text = defs.format(**names) + "\n"
                argv += ["--defs", DEFS]
            calls.append(_call(argv + ["--json"], check, text))
    calls.append(_verify_call(draw, "counts-Der"))
    rng.shuffle(calls)
    return calls


def _unused(draw):
    """A definitions file binding one fresh name that no call refers to."""
    return "{0} = X*L({0})\n".format(draw.name())


def _refusal(rng, draw, kind):
    order = str(rng.randint(4, 8))
    size = str(rng.randint(1, 6))
    if kind == "ill-founded":
        f = draw.name()
        return _call(["solve", f, "--order", order, "--defs", DEFS],
                     {"kind": "refusal", "exit": 1}, f"{f} = E*{f}\n")
    if kind == "self-loop":
        g = draw.name()
        return _call(["solve", g, "--order", order, "--defs", DEFS],
                     {"kind": "refusal", "exit": 1}, f"{g} = {g}\n")
    if kind == "nonempty-inner":
        return _call(["count", "E(E)", size, "--defs", DEFS],
                     {"kind": "refusal", "exit": 1}, _unused(draw))
    if kind == "parse":
        return _call(["count", rng.choice(_MALFORMED), size, "--defs", DEFS],
                     {"kind": "refusal", "exit": 1}, _unused(draw))
    if kind == "budget":
        labels = draw.labels(5, rng.random() < 0.5)
        return _call(["enumerate", "Gro", ",".join(map(str, labels)), "--defs", DEFS],
                     {"kind": "refusal", "exit": 3}, _unused(draw))
    # A subset structure on three labels, moved by a bijection of two.
    a, b, c = draw.labels(3, True)
    x, y = draw.labels(2, True)
    structure = json.dumps({"kind": "subset", "members": [a], "rest": [b, c]})
    return _call(["transport", "P", f"{a}->{x},{b}->{y}", structure, "--defs", DEFS],
                 {"kind": "refusal", "exit": 4}, _unused(draw))


def _verify_call(draw, case):
    return _call(["verify", "--case", case, "--json", "--defs", DEFS],
                 {"kind": "verify", "case": case}, _unused(draw))


def _verify_round(rng, draw, rnd):
    calls = [_verify_call(draw, case) for case in rng.sample(SUITE_CASES, len(SUITE_CASES))]
    for kind in _REFUSALS:
        calls.insert(rng.randint(0, len(calls)), _refusal(rng, draw, kind))
    return calls


_ROUNDS = {"series": _series_round, "enumerate": _enumerate_round,
           "verify": _verify_round}


def rounds(workload, seed):
    """Yield the workload's rounds, each a list of calls; the same seed
    gives the same calls.  ``DEFS`` in an argv stands for the path of the
    file that holds the call's definitions."""
    rng = random.Random(f"{workload}:{seed}")
    draw = _Draw(rng)
    make = _ROUNDS[workload]
    for rnd in itertools.count():
        yield make(rng, draw, rnd)


def call_key(call):
    return json.dumps([call["argv"], call["defs"]])


# -- checks ------------------------------------------------------------------

def _canonical(obj):
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def check_output(check, exit_code, stdout, stderr):
    """None when the output is right, else the reason it is not."""
    want_exit = check.get("exit", 0)
    if exit_code != want_exit:
        return f"exit {exit_code}, expected {want_exit}: {stderr.strip()[:200]}"
    kind = check["kind"]
    if kind == "refusal":
        if stdout:
            return "a refusal printed to stdout"
        if not stderr.startswith("error: "):
            return "a refusal without an error message"
        return None
    if kind == "verify":
        if stdout != verify_expected(check["case"]):
            return "verify output differs from the pinned pass document"
        return None
    try:
        got = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    oracle = getattr(closed_forms, check["oracle"])
    n = check["n"]
    if kind == "count":
        want = {"n": n, "count": oracle(n)}
        return None if got == want else f"count differs: {stdout[:200]}"
    if kind == "series":
        table = closed_forms.counts(oracle, n)
        want = {"order": n, "counts": table, "coefficients": closed_forms.coefficients(table)}
        return None if got == want else "series differs from the oracle"
    if kind == "enumerate":
        if not isinstance(got, list):
            return "enumeration is not a JSON array"
        if len(got) != oracle(n):
            return f"{len(got)} structures, expected {oracle(n)}"
        keys = [_canonical(s) for s in got]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            return "structures are not strictly increasing by canonical encoding"
        return None
    raise ValueError(f"unknown check {kind!r}")
