"""Four oracles for the solver, on small families of recursive systems.

One run against two: each system is counted by egf_of twice, once as it
stands and once with the one-run shortcut forced off (series._triangular,
the one predicate that takes it, replaced by one that never holds), so
that every system also runs the cross-check from series._probe.  At every
order the two must give the same counts or raise the same exception class.

Order consistency: on each path, a count at some order implies the same
counts, as a prefix, at every lower order, and no order raises
OrderExceeded.  A system is decided through its reach, not through the
order asked for, so a lower order cannot refuse what a higher one counts.

The least fixed point: where egf_of counts a system, its counts equal
those that oracles.kleene_counts, which shares no code with the engine,
iterates from zero over plain count lists.

Renaming (metamorphic): a two-name system is counted again with its
equations swapped and F and G renamed into each other, and F's outcome
at every order is compared with the renamed G's.  It fails only where
both count the system and the counts differ.  A system counted one way
and refused the other, or refused with another class, is a finding for
ROADMAP item 15, where the decision must not depend on how a system is
written: it is printed, and fails nothing.

The families are single_name_systems, F = t for every tree t of at most
a number of operators over LEAVES that names F, substituting into HEADS;
two_name_systems, a seeded sample of cycles F = s, G = t over the same
leaves and heads with G added to both; and derivative_systems, cycles
through X^k with a derivative in them, F = X + a*G^(d), G = X^k*b*F and
F = X + X^k*a*F^(d)*b, with factors a and b that include the name H =
X + E outside the cycle.  The derivative systems run at orders 0 ..
DERIVATIVE_MAX_ORDER.

Each path of a system runs under a time limit.  A path that runs out of
it, or out of memory, is a refusal only when the other path is too: it
refuses, runs out of time or runs out of memory at that order.

Run as a script, it sweeps the single-name systems of at most --ops
operators and --pairs two-name systems drawn with --seed, at orders 0 ..
--max-order, and every derivative system, against the first two oracles,
the derivative-free single-name systems at --max-order against the
least fixed point, and the two-name systems against their renaming, in
--jobs worker processes, each under an address-space limit of
--memory-mb, and prints each failure and each renaming finding:

    PYTHONPATH=src:tests python tests/solve_sweep.py --ops 3 --pairs 3000

It exits 1 when a system fails an oracle.  test_solve_sweep.py runs the
single-name systems of at most two operators, derivatives included, a
slice of the derivative systems, and the first 600 two-name systems of
seed 1 against their renaming.
"""

import argparse
import multiprocessing
import random
import resource
import signal
import sys
from contextlib import contextmanager
from functools import partial
from itertools import product

from species import series
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


@contextmanager
def one_run_off():
    """Force every solve through the cross-check run from _probe."""
    kept = series._triangular
    series._triangular = lambda solution, order: False
    try:
        yield
    finally:
        series._triangular = kept


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
    raises; TIMEOUT at each order left when the time limit expires."""
    env = Environment(system)
    out = []
    try:
        with _time_limit(seconds):
            for order in orders:
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


def disagreement(system, orders, seconds=None):
    """Why the two paths disagree on system, or either contradicts itself
    across orders, as text, or None."""
    one = outcomes(system, orders, seconds)
    with one_run_off():
        two = outcomes(system, orders, seconds)
    text = "; ".join(f"{n} = {print_expr(t)}" for n, t in system.items())
    for path, found in (("one run", one), ("two runs", two)):
        why = inconsistency(found, orders)
        if why:
            return f"{text} with {path}: {why}"
    for order, a, b in zip(orders, one, two):
        if a == b:
            continue
        if isinstance(a, str) and isinstance(b, str) and {a, b} & _RAN_OUT:
            continue  # both refused, one of them by running out
        return f"{text} at order {order}: {a} with one run, {b} with two"
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
    swapped(system), as (text, counts_differ), or None where they agree
    at every order.  counts_differ holds when both count the system at
    some order and the counts differ; any other difference, counted one
    way and refused the other or refused with two classes, is a finding
    for ROADMAP item 15: a decision that depends on how the system is
    written."""
    one = outcomes(system, orders, seconds)
    other = outcomes(swapped(system), orders, seconds, name="G")
    differ = [(order, a, b) for order, a, b in zip(orders, one, other)
              if a != b]
    if not differ:
        return None
    text = "; ".join(f"{n} = {print_expr(t)}" for n, t in system.items())
    order, a, b = differ[0]
    counts_differ = any(isinstance(a, list) and isinstance(b, list)
                        for _, a, b in differ)
    return (f"{text} at order {order}: {a} as written, {b} with the "
            "equations swapped and F and G renamed"), counts_differ


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
    text = "; ".join(f"{n} = {print_expr(t)}" for n, t in system.items())
    return (f"{text} at order {order}: {got} by egf_of, "
            f"{want and want['F']} least fixed point")


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
        found = list(pool.imap(
            partial(_checked, seconds=args.seconds), jobs, chunksize=50
        ))
        lfp_found = list(pool.imap(
            partial(_lfp_checked, seconds=args.seconds), lfp_jobs,
            chunksize=50
        ))
        renamed = [got for got in pool.imap(
            partial(_renaming_checked, seconds=args.seconds), renaming_jobs,
            chunksize=50
        ) if got]
    failures = [line for line in found + lfp_found if line]
    failures += [line for line, counts_differ in renamed if counts_differ]
    findings = [line for line, counts_differ in renamed if not counts_differ]
    for line in failures:
        print("FAIL", line)
    for line in findings:
        print("ROADMAP item 15:", line)
    print(f"{len(jobs)} systems, {len(lfp_jobs)} against the least fixed "
          f"point and {len(renaming_jobs)} renamed, {len(failures)} fail; "
          f"{len(findings)} decided otherwise once renamed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
