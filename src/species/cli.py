"""Command-line front end.

Subcommands:
    count      size of the structure set on a given label set
    series     counts and coefficients of an expression up to an order
    enumerate  list every structure on a label set
    transport  relabel a structure (JSON in, JSON or text out)
    solve      series of a name defined in a definitions file
    verify     run the built-in identity suite

Exit codes: 0 success, 1 parse/validation failure (also a failed verify run),
2 non-integer or negative count, 3 enumeration budget exceeded, 4 label-set
mismatch in transport.  transport first checks that the structure is one of
the expression's structures on its labels: one that is not exits 1, and one
whose listing would exceed the default budget exits 3.  A reader that
closes stdout early is no failure: output stops and the exit code is 0.
An expression that nests deeper than parser.MAX_NESTING levels is a parse
failure, and so is any other input that nests too deeply for Python's
recursion limit (a long chain of names enumerated, a deeply nested JSON
structure).
"""

import argparse
import json
import os
import re
import sys
from math import gcd
from pathlib import Path

from .enumerator import DEFAULT_BUDGET, enumerate_structures, listing, transport
from .errors import (
    BudgetExceeded,
    DomainMismatch,
    DuplicateName,
    IllFoundedEquation,
    NonIntegerCount,
    NonzeroConstantTerm,
    NotABijection,
    OrderExceeded,
    ParseError,
    RecursionGuard,
    UnboundName,
)
from .expr import Name, RESERVED, print_expr
from .identities import SUITE_NOTE, run_suite
from .parser import _IDENT_RE, parse_defs, parse_expr
from .semantics import DEFAULT_ORDER, egf_of
from .structures import Bijection, check_label, decode_structure

_SIZE_RE = re.compile(r"\d+")


def _load_env(path):
    if path is None:
        return None
    return parse_defs(Path(path).read_text(encoding="utf-8"))


def _parse_labels(text):
    """A label argument: either a size n (meaning 1..n) or a comma list."""
    text = text.strip()
    if not text:
        return []
    if _SIZE_RE.fullmatch(text):
        return list(range(1, int(text) + 1))
    return [check_label(tok.strip()) for tok in text.split(",")]


def _order(text):
    """An --order argument: a nonnegative truncation order."""
    try:
        order = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if order < 0:
        raise argparse.ArgumentTypeError(f"order must be nonnegative, got {order}")
    return order


def _parse_bijection(text):
    mapping = {}
    text = text.strip()
    if not text:
        return Bijection({})
    for part in text.split(","):
        src, arrow, dst = part.partition("->")
        if not arrow:
            raise ParseError(f"bijection entry {part.strip()!r} is not of the form a->b")
        mapping[check_label(src.strip())] = check_label(dst.strip())
    return Bijection(mapping)


def _checked_count(series, n):
    value = series.count(n)
    if value < 0:
        raise NonIntegerCount(f"count at n={n} is negative: {value}")
    return value


def _coefficient_texts(counts):
    """Each a_n = f_n / n! written as str(Fraction(f_n, n!)) writes it, "p/q"
    or "p" when q is 1, from a running factorial and one gcd per count."""
    texts = []
    fact = 1
    for n, count in enumerate(counts):
        if n:
            fact *= n
        common = gcd(count, fact)
        p, q = count // common, fact // common
        texts.append(f"{p}/{q}" if q != 1 else str(p))
    return texts


def _print_series(series, as_json):
    counts = [_checked_count(series, n) for n in range(series.order + 1)]
    coefficients = _coefficient_texts(counts)
    if as_json:
        payload = {
            "order": series.order,
            "counts": counts,
            "coefficients": coefficients,
        }
        print(json.dumps(payload))
    else:
        for n, value in enumerate(counts):
            print(n, value, coefficients[n])


def _cmd_count(args):
    env = _load_env(args.defs)
    expr = parse_expr(args.expr)
    labels = _parse_labels(args.labels)
    n = len(labels)
    value = _checked_count(egf_of(expr, env, order=n), n)
    if args.json:
        print(json.dumps({"n": n, "count": value}))
    else:
        print(value)
    return 0


def _cmd_series(args):
    env = _load_env(args.defs)
    expr = parse_expr(args.expr)
    _print_series(egf_of(expr, env, order=args.order), args.json)
    return 0


def _cmd_enumerate(args):
    """List the structures.  The listing holds no reference cycles (see the
    enumerator module), so one listing() scope keeps the collector paused
    from the walk through the last line written: otherwise the first
    collection after the walk would traverse every listed term.  The scope
    restores it however the call ends, a closed pipe included."""
    env = _load_env(args.defs)
    expr = parse_expr(args.expr)
    labels = _parse_labels(args.labels)
    with listing():
        structures = enumerate_structures(
            expr, env, labels, budget=args.budget
        )
        if args.json:
            _write_json_listing(structures)
        else:
            for s in structures:
                print(s.render())
            print(len(structures))
    return 0


def _write_json_listing(structures):
    """Write json.dumps([s.to_json() for s in structures]) + "\n", one
    structure at a time.

    A subterm's text is kept from the second time it is asked for: a
    subterm shared by many results is serialised at most twice, and the
    wrappers that belong to a single result are never kept.  The memo maps
    a term's id to "" once it has been asked for, then to its text; the
    listing keeps every term alive, so ids stay unique.
    """
    kept = {}

    def text(term):
        key = id(term)
        found = kept.get(key)
        if found:
            return found
        out = term._text(text)
        kept[key] = "" if found is None else out
        return out

    write = sys.stdout.write
    write("[")
    for i, s in enumerate(structures):
        if i:
            write(", ")
        write(s._text(text))
    write("]\n")


def _cmd_transport(args):
    env = _load_env(args.defs)
    expr = parse_expr(args.expr)
    bijection = _parse_bijection(args.bijection)
    text = args.structure if args.structure is not None else sys.stdin.read()
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"structure is not valid JSON: {exc}") from exc
    structure = decode_structure(obj)
    if structure not in enumerate_structures(expr, env, structure.labels()):
        raise ParseError(
            f"the structure is not one of {print_expr(expr)} on its labels"
        )
    moved = transport(expr, env, structure, bijection)
    if args.json:
        print(json.dumps(moved.to_json()))
    else:
        print(moved.render())
    return 0


def _cmd_solve(args):
    name = args.name.strip()
    if not _IDENT_RE.fullmatch(name):
        raise ParseError(f"{name!r} is not a name; solve takes a defined name")
    if name in RESERVED:
        raise ParseError(f"'{name}' is a built-in species, not a defined name")
    env = _load_env(args.defs)
    _print_series(egf_of(Name(name), env, order=args.order), args.json)
    return 0


def _cmd_verify(args):
    env = _load_env(args.defs)
    names = set(args.case) if args.case else None
    reports = run_suite(order=args.order, names=names, extra_env=env)
    if names:
        missing = names - {r.name for r in reports}
        if missing:
            raise ParseError(
                "no such case: " + ", ".join(sorted(missing))
            )
    ok = all(r.passed for r in reports)
    if args.json:
        payload = {
            "note": SUITE_NOTE,
            "ok": ok,
            "cases": [r.to_json() for r in reports],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"# {SUITE_NOTE}")
        for r in reports:
            if r.passed:
                print(f"pass  {r.name}")
            else:
                print(
                    f"FAIL  {r.name}  ({r.witness}: "
                    f"lhs={r.lhs_count}, rhs={r.rhs_count})"
                )
        failed = sum(1 for r in reports if not r.passed)
        print(f"{len(reports) - failed} passed, {failed} failed")
    return 0 if ok else 1


def _common(p, defs=True, order=None, as_json=True):
    if defs:
        p.add_argument("--defs", metavar="FILE", default=None,
                       help="definitions file of name = expression lines")
    if order is not None:
        p.add_argument("--order", type=_order, default=order,
                       help="truncation order")
    if as_json:
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")


def _count_arguments(p):
    p.add_argument("expr")
    p.add_argument("labels", help="a size n (labels 1..n) or a comma list")
    _common(p)


def _series_arguments(p):
    p.add_argument("expr")
    _common(p, order=DEFAULT_ORDER)


def _enumerate_arguments(p):
    p.add_argument("expr")
    p.add_argument("labels", help="a size n (labels 1..n) or a comma list")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="refuse to list more than this many structures")
    _common(p)


def _transport_arguments(p):
    p.add_argument("expr")
    p.add_argument("bijection", help="comma list of a->b entries")
    p.add_argument("structure", nargs="?", default=None,
                   help="structure as JSON (read from stdin when omitted)")
    _common(p)


def _solve_arguments(p):
    p.add_argument("name")
    _common(p, order=DEFAULT_ORDER)


def _verify_arguments(p):
    p.add_argument("--case", action="append", default=None, metavar="NAME",
                   help="run only this case (repeatable)")
    p.add_argument("--order", type=_order, default=None,
                   help="cap both series order and enumeration size")
    _common(p)


#: Every subcommand: (help, the function adding its arguments, the function
#: running it), in the order `species --help` lists them.
_COMMANDS = {
    "count": ("number of structures on a label set", _count_arguments,
              _cmd_count),
    "series": ("counting series of an expression", _series_arguments,
               _cmd_series),
    "enumerate": ("list every structure on a label set",
                  _enumerate_arguments, _cmd_enumerate),
    "transport": ("relabel a structure along a bijection",
                  _transport_arguments, _cmd_transport),
    "solve": ("series of a name from a definitions file", _solve_arguments,
              _cmd_solve),
    "verify": ("run the built-in identity suite", _verify_arguments,
               _cmd_verify),
}


def _build_parser(command=None):
    """The argument parser: with command, a subcommand name, the top parser
    with that one subparser, else with all of them.  The one-subcommand
    parser names every subcommand in its usage, as the full one does, so
    its messages are the same."""
    parser = argparse.ArgumentParser(
        prog="species",
        description="Count, list, and relabel the structures of a species expression.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments, run) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=run)
    return parser


def main(argv=None):
    """Run one command line and return its exit code.  Only the subparser of
    the subcommand named first is built; any other first word (an option,
    an unknown name, nothing) gets the full parser and its messages.

    Exact counts print in full however many digits they have: CPython's
    limit on converting integers to text (4 300 digits by default) is
    lifted while main runs, and the caller's limit is restored when it
    returns."""
    if not hasattr(sys, "set_int_max_str_digits"):  # CPython before 3.10.7
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into the parse-failure
        # code so 2 stays reserved for count integrality.
        return 0 if exc.code == 0 else 1
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped early (`| head`), which ends the output but is
        # no error.  Stdout now goes to devnull, so that flushing what is
        # still buffered, here or at exit, stays quiet.
        _quiet_stdout()
        return 0
    except NonIntegerCount as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RecursionError:
        print(
            "error: the input nests too deeply for Python's recursion limit",
            file=sys.stderr,
        )
        return 1
    except (
        ParseError,
        DuplicateName,
        UnboundName,
        NonzeroConstantTerm,
        IllFoundedEquation,
        NotABijection,
        OrderExceeded,
        RecursionGuard,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _quiet_stdout():
    """Point stdout's file descriptor, if it has one, at devnull."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
