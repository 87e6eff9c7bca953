"""Four oracles for the solver, on small families of recursive systems.

Decided before any kernel runs: every system that egf_of refuses at some
order is counted again at that order with every CountSeries kernel, and
semantics.solve_system, replaced by one that raises (kernels_raise), and
must be refused with the same exception class.  So the engine decides
each system from its equations alone, and no refusal comes from running
the solver.

Order consistency: a count at some order implies the same counts, as a
prefix, at every lower order, and no order raises OrderExceeded.  A system
is decided from its equations, not from the order asked for, so a lower
order cannot refuse what a higher one counts.

The least fixed point: where egf_of counts a system, its counts equal
those that oracles.kleene_counts, which shares no code with the engine,
iterates from zero over plain count lists.

Renaming (metamorphic): a two-name system is counted again with its
equations swapped and F and G renamed into each other, and F's outcome
at every order must equal the renamed G's: the same counts, or a refusal
of the same class.  The decision is a property of the equation graph, so
it cannot depend on how the system is written.

The families are single_name_systems, F = t for every tree t of at most
a number of operators over LEAVES that names F, substituting into HEADS;
two_name_systems, a seeded sample of cycles F = s, G = t over the same
leaves and heads with G added to both; and derivative_systems, cycles
through X^k with a derivative in them, F = X + a*G^(d), G = X^k*b*F and
F = X + X^k*a*F^(d)*b, with factors a and b that include the name H =
X + E outside the cycle.  The derivative systems run at orders 0 ..
DERIVATIVE_MAX_ORDER.

Each system runs under a time limit.  One that runs out of it, or out of
memory, at some order is not compared there.

Run as a script, it sweeps the single-name systems of at most --ops
operators and --pairs two-name systems drawn with --seed, at orders 0 ..
--max-order, and every derivative system, against the first two oracles,
the derivative-free single-name systems at --max-order against the
least fixed point, and the two-name systems against their renaming, in
--jobs worker processes, each under an address-space limit of
--memory-mb, and prints each failure:

    PYTHONPATH=src:tests python tests/solve_sweep.py --ops 3 --pairs 3000

The decision ledger, tests/decisions.json, holds one sha256 per family of
every system's outcome at orders 0, 3 and 5: F's counts, or the class and
message of its refusal.  The families are the single-name systems of at
most three operators, 3 000 two-name systems of seed 1 and every
derivative system, each decided afresh and with no time limit.  The
script recomputes the ledger beside the sweep and names each family whose
digest differs.  A change that changes an outcome writes the file again:

    PYTHONPATH=src:tests python -c "import solve_sweep; solve_sweep.write_ledger()"

It exits 1 when a system fails an oracle or a family differs from the
ledger.  test_solve_sweep.py runs the single-name systems of at most two
operators, derivatives included, a slice of the derivative systems, and
the first 600 two-name systems of seed 1 against their renaming.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import random
import resource
import signal
import sys
from contextlib import contextmanager
from functools import partial
from itertools import product

from species import semantics
from species.expr import (
    Derivative,
    Environment,
    Name,
    Pointing,
    Primitive,
    Product,
    SpeciesExpr,
    Substitute,
    Sum,
    print_expr,
)
from species.parser import parse_expr
from species.semantics import egf_of
from species.series import CountSeries

from oracles import kleene_counts
from strategies import expression_trees

LEAVES = ("X", "1", "E", "F")
HEADS = ("E", "L", "C", "F")
#: The factors a and b of derivative_systems; H is bound outside the cycle.
FACTORS = ("1", "X", "E", "L", "C", "H")
DERIVATIVE_MAX_ORDER = 8

#: What a path that ran out of time or memory reads as.
TIMEOUT = "Timeout"
OUT_OF_MEMORY = "MemoryError"
_RAN_OUT = {TIMEOUT, OUT_OF_MEMORY}


def _ran_out(got):
    return isinstance(got, str) and got in _RAN_OUT


class _Timeout(Exception):
    pass


def single_name_systems(max_ops):
    """{F: t} for each tree t of at most max_ops operators that names F."""
    return [
        {"F": tree}
        for tree in expression_trees(max_ops, LEAVES, HEADS)
        if "F" in tree.depths
    ]


def two_name_systems(count, seed, max_ops=2):
    """count systems {F: s, G: t}, drawn with seed, in which s names G and
    t names F, over trees of at most max_ops operators."""
    trees = list(expression_trees(max_ops, LEAVES + ("G",), HEADS + ("G",)))
    names_g = [t for t in trees if "G" in t.depths]
    names_f = [t for t in trees if "F" in t.depths]
    pick = random.Random(seed)
    return [
        {"F": pick.choice(names_g), "G": pick.choice(names_f)}
        for _ in range(count)
    ]


def derivative_systems(factors=FACTORS):
    """F = X + a*G^(d), G = X^k*b*F and F = X + X^k*a*F^(d)*b for each
    1 <= k <= 5, 1 <= d <= 3 and factors a and b; a system that reads H
    also binds H = X + E."""
    systems = []
    for k, d, a, b in product(range(1, 6), range(1, 4), factors, factors):
        marks = "'" * d
        for texts in (
            {"F": f"X + {a}*G{marks}", "G": f"X^{k}*{b}*F"},
            {"F": f"X + X^{k}*{a}*F{marks}*{b}"},
        ):
            if "H" in (a, b):
                texts["H"] = "X + E"
            systems.append({n: parse_expr(t) for n, t in texts.items()})
    return systems


#: The CountSeries methods that compute counts, which kernels_raise
#: replaces.
KERNELS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
           "__mul__", "__rmul__", "__truediv__", "__call__", "derive",
           "point")


class KernelRan(Exception):
    """What a kernel raises under kernels_raise."""


def _kernel_ran(*args, **kwargs):
    raise KernelRan


@contextmanager
def kernels_raise():
    """Make every CountSeries kernel, and semantics.solve_system, raise
    KernelRan."""
    kept = {name: CountSeries.__dict__[name] for name in KERNELS}
    solve = semantics.solve_system
    for name in KERNELS:
        setattr(CountSeries, name, _kernel_ran)
    semantics.solve_system = _kernel_ran
    try:
        yield
    finally:
        for name, method in kept.items():
            setattr(CountSeries, name, method)
        semantics.solve_system = solve


@contextmanager
def _time_limit(seconds):
    if seconds is None:
        yield
        return

    def expire(signum, frame):
        raise _Timeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def outcomes(system, orders, seconds=None, name="F"):
    """name's counts at each order, or the class name of what egf_of
    raises; TIMEOUT at each order left when the time limit expires.  The
    decisions kept from earlier calls are dropped before each call, so that
    every order and every renaming is decided afresh."""
    env = Environment(system)
    out = []
    try:
        with _time_limit(seconds):
            for order in orders:
                semantics._WELL_FOUNDED.clear()
                try:
                    out.append(egf_of(Name(name), env, order=order).counts())
                except (_Timeout, MemoryError):
                    raise
                except Exception as err:
                    out.append(type(err).__name__)
    except _Timeout:
        out += [TIMEOUT] * (len(orders) - len(out))
    except MemoryError:
        out += [OUT_OF_MEMORY] * (len(orders) - len(out))
    return out


def inconsistency(found, orders):
    """Why one path's outcomes at orders contradict each other, as text,
    or None: an order that raises OrderExceeded, or one below a counted
    order that does not give a prefix of its counts."""
    counted = None
    for order, got in reversed(list(zip(orders, found))):
        if got == "OrderExceeded":
            return f"OrderExceeded at order {order}"
        if counted is None:
            if isinstance(got, list):
                counted = order, got
        elif got != counted[1][:order + 1]:
            return f"{got} at order {order}, {counted[1]} at {counted[0]}"
    return None


def _text(system):
    return "; ".join(f"{n} = {print_expr(t)}" for n, t in system.items())


def disagreement(system, orders, seconds=None):
    """Why system's outcomes at orders contradict each other, or a
    refusal is not made again, with the same class, when every kernel
    raises, as text, or None."""
    found = outcomes(system, orders, seconds)
    why = inconsistency(found, orders)
    if why:
        return f"{_text(system)}: {why}"
    refused = {order: got for order, got in zip(orders, found)
               if isinstance(got, str) and not _ran_out(got)}
    if not refused:
        return None
    with kernels_raise():
        again = outcomes(system, list(refused), seconds)
    for (order, got), other in zip(refused.items(), again):
        if got != other and not _ran_out(other):
            return (f"{_text(system)} at order {order}: {got}, but {other} "
                    "when every kernel raises")
    return None


def _renamed(expr, swap):
    """expr with each name that swap maps replaced by its image."""
    if isinstance(expr, Name):
        return Name(swap.get(expr.ident, expr.ident))
    values = (getattr(expr, field) for field in expr.fields)
    return type(expr)(*(
        _renamed(value, swap) if isinstance(value, SpeciesExpr) else value
        for value in values
    ))


def swapped(system):
    """The two-name system {F: s, G: t} written the other way round:
    {F: t', G: s'}, where ' renames F and G into each other."""
    swap = {"F": "G", "G": "F"}
    return {swap[name]: _renamed(system[name], swap)
            for name in reversed(system)}


def renaming_disagreement(system, orders, seconds=None):
    """How F's outcomes on a two-name system at orders differ from G's in
    swapped(system), as text, or None where they agree at every order."""
    one = outcomes(system, orders, seconds)
    other = outcomes(swapped(system), orders, seconds, name="G")
    for order, a, b in zip(orders, one, other):
        if a != b and not (_ran_out(a) or _ran_out(b)):
            return (f"{_text(system)} at order {order}: {a} as written, {b} "
                    "with the equations swapped and F and G renamed")
    return None


_PLAIN_OPS = {Sum: "+", Product: "*", Substitute: "of", Derivative: "'",
              Pointing: "pt"}


def plain(expr):
    """expr as a plain tree of oracles.kleene_counts."""
    if isinstance(expr, Primitive):
        return expr.kind.value
    if isinstance(expr, Name):
        return ("name", expr.ident)
    return (_PLAIN_OPS[type(expr)],
            *(plain(getattr(expr, field)) for field in expr.fields))


def lfp_disagreement(system, order, seconds=None):
    """Why F's counts at order differ from the least fixed point that
    oracles.kleene_counts finds, as text, or None.  A system egf_of does
    not count is not compared."""
    (got,) = outcomes(system, [order], seconds)
    if not isinstance(got, list):
        return None
    want = kleene_counts({n: plain(t) for n, t in system.items()}, order)
    if want is not None and want["F"] == got:
        return None
    return (f"{_text(system)} at order {order}: {got} by egf_of, "
            f"{want and want['F']} least fixed point")


LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "decisions.json")


def decision_ledger():
    """{family: sha256 of each system's text and its outcomes at orders 0,
    3 and 5}, each outcome F's counts or the class and message of the
    refusal, every system decided afresh."""
    families = {
        "single_name": single_name_systems(3),
        "two_name": two_name_systems(3000, 1),
        "derivative": derivative_systems(),
    }
    digests = {}
    for family, systems in families.items():
        digest = hashlib.sha256()
        for system in systems:
            env, found = Environment(system), []
            for order in (0, 3, 5):
                semantics._WELL_FOUNDED.clear()
                try:
                    found.append(egf_of(Name("F"), env, order=order).counts())
                except Exception as err:
                    found.append((type(err).__name__, str(err)))
            digest.update(f"{_text(system)}\t{found!r}\n".encode())
        digests[family] = digest.hexdigest()
    return digests


def write_ledger():
    with open(LEDGER, "w", encoding="utf-8") as out:
        json.dump(decision_ledger(), out, indent=2)
        out.write("\n")


def ledger_differences():
    """The families whose digest differs from the ledger's."""
    with open(LEDGER, encoding="utf-8") as kept:
        want = json.load(kept)
    got = decision_ledger()
    return sorted(f for f in set(want) | set(got) if want.get(f) != got.get(f))


def _checked(job, seconds):
    return disagreement(*job, seconds=seconds)


def _lfp_checked(job, seconds):
    return lfp_disagreement(*job, seconds=seconds)


def _renaming_checked(job, seconds):
    return renaming_disagreement(*job, seconds=seconds)


def _limit_memory(megabytes):
    limit = megabytes * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ops", type=int, default=3)
    parser.add_argument("--pairs", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-order", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="time limit of each path of each system")
    parser.add_argument("--memory-mb", type=int, default=2048)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    orders = range(args.max_order + 1)
    jobs = [
        (system, orders)
        for system in single_name_systems(args.ops)
        + two_name_systems(args.pairs, args.seed)
    ] + [
        (system, range(DERIVATIVE_MAX_ORDER + 1))
        for system in derivative_systems()
    ]
    lfp_jobs = [
        (system, args.max_order) for system in single_name_systems(args.ops)
        if "'" not in print_expr(system["F"])
    ]
    renaming_jobs = [
        (system, orders) for system in two_name_systems(args.pairs, args.seed)
    ]
    with multiprocessing.get_context("spawn").Pool(
        args.jobs, _limit_memory, (args.memory_mb,)
    ) as pool:
        ledger = pool.apply_async(ledger_differences)
        found = list(pool.imap(
            partial(_checked, seconds=args.seconds), jobs, chunksize=50
        ))
        lfp_found = list(pool.imap(
            partial(_lfp_checked, seconds=args.seconds), lfp_jobs,
            chunksize=50
        ))
        renamed = list(pool.imap(
            partial(_renaming_checked, seconds=args.seconds), renaming_jobs,
            chunksize=50
        ))
        differ = ledger.get()
    failures = [line for line in found + lfp_found + renamed if line] + [
        f"{family}: outcomes differ from {LEDGER}" for family in differ]
    for line in failures:
        print("FAIL", line)
    print(f"{len(jobs)} systems, {len(lfp_jobs)} against the least fixed "
          f"point and {len(renaming_jobs)} renamed, {len(failures)} fail")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
