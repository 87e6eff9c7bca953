"""Command-line front end.

Subcommands:
    count      size of the structure set on a given label set
    series     counts and coefficients of an expression up to an order
    enumerate  list every structure on a label set
    transport  relabel a structure (JSON in, JSON or text out)
    solve      series of a name defined in a definitions file
    verify     run the built-in identity suite

Exit codes: 0 success, 1 parse/validation failure (also a failed verify run),
2 non-integer or negative count, 3 enumeration budget exceeded (or a
label set larger than MAX_LABELS, 10 000, given to count or enumerate,
refused before any label list is built, or an --order above MAX_ORDER,
10 000, given to series, solve or verify, refused before any series is
computed), 4 label-set mismatch in transport.  transport first checks that
the structure is one of the expression's structures on its labels: one
that is not exits 1, and one whose listing would exceed the default budget
exits 3.  A reader that closes stdout early is no failure: output stops
and the exit code is 0.  An expression that nests deeper than
parser.MAX_NESTING levels is a parse failure, and so is any other input
that nests too deeply for Python's recursion limit (a long chain of names
enumerated, a deeply nested JSON structure).

A well-formed command line (a subcommand, its positionals, then its
options spelled in full) is read straight from one argument table,
_COMMANDS.  Everything else (help, usage errors, abbreviations,
--opt=value, --) goes to an argparse parser built from the same table,
with the same output and exit codes, so argparse is imported only then.
"""

import json
import os
import re
import sys
from math import gcd
from pathlib import Path
from types import SimpleNamespace

from .enumerator import (
    DEFAULT_BUDGET,
    _Walk,
    enumerate_structures,
    listing,
    transport,
)
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
    UnboundName,
)
from .expr import Name, RESERVED, print_expr
from .identities import SUITE_NOTE, run_suite
from .parser import _IDENT_RE, parse_defs, parse_expr
from .semantics import DEFAULT_ORDER, egf_of
from .structures import Bijection, check_label, decode_structure

_SIZE_RE = re.compile(r"\d+")

#: The most labels a count or enumerate call takes, given as a size or as
#: a comma list.  A larger label set is refused with exit 3 before any
#: label list is built.
MAX_LABELS = 10_000

#: The largest --order that series, solve and verify take.  A larger order
#: is refused with exit 3 before any series is computed.
MAX_ORDER = 10_000


def _load_env(path):
    if path is None:
        return None
    return parse_defs(Path(path).read_text(encoding="utf-8"))


def _parse_labels(text):
    """A label argument: either a size n (meaning 1..n) or a comma list of
    distinct labels ("1" and "01" are the same label), of at most
    MAX_LABELS labels.  A size's digits are counted before int() reads
    them, so a size of any length is refused at once."""
    text = text.strip()
    if not text:
        return []
    if _SIZE_RE.fullmatch(text):
        digits = text.lstrip("0") or "0"
        if len(digits) > len(str(MAX_LABELS)) or int(digits) > MAX_LABELS:
            raise BudgetExceeded(
                f"size {text} exceeds the limit of {MAX_LABELS} labels"
            )
        return list(range(1, int(digits) + 1))
    if text.count(",") >= MAX_LABELS:
        raise BudgetExceeded(
            f"{text.count(',') + 1} labels exceed the limit of "
            f"{MAX_LABELS} labels"
        )
    labels = [check_label(tok.strip()) for tok in text.split(",")]
    if len(set(labels)) != len(labels):
        raise ParseError(f"duplicate label in {labels!r}")
    return labels


def _order(text):
    """An --order argument: a nonnegative truncation order of at most
    MAX_ORDER.  A larger order raises BudgetExceeded, naming the bound; an
    order written as plain digits has its digits counted before int()
    reads them, so an order of any length is refused at once."""
    shown = text.strip()
    if (_SIZE_RE.fullmatch(shown)
            and len(shown.lstrip("0")) > len(str(MAX_ORDER))):
        order = MAX_ORDER + 1  # too many digits to read
    else:
        try:
            order = int(text)
        except ValueError:
            order = None
    if order is not None and order > MAX_ORDER:
        raise BudgetExceeded(
            f"order {shown} exceeds the limit of {MAX_ORDER}"
        )
    if order is not None and order >= 0:
        return order
    import argparse

    if order is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    raise argparse.ArgumentTypeError(f"order must be nonnegative, got {order}")


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
    restores it however the call ends, a closed pipe included.

    For --json the walk gives the ids of the subterms held in two or more
    places, and is then dropped, memos and all, before the first byte is
    written: the listing keeps every term it reaches alive."""
    env = _load_env(args.defs)
    expr = parse_expr(args.expr)
    labels = _parse_labels(args.labels)
    walk = _Walk(env=env)
    with listing():
        structures = enumerate_structures(
            expr, env, labels, budget=args.budget, walk=walk
        )
        if args.json:
            shared = walk.shared()
            walk = None
            _write_json_listing(structures, shared)
        else:
            for s in structures:
                print(s.render())
            print(len(structures))
    return 0


def _write_json_listing(structures, shared=frozenset()):
    """Write json.dumps([s.to_json() for s in structures]) + "\n", one
    structure at a time.

    shared holds the ids of the subterms to keep the text of, from their
    first ask on: those held in two or more places (_Walk.shared()).  Then
    every subterm is serialised exactly once, and the writer stores
    nothing for any other subterm.  Without shared it keeps nothing, and
    writes the same bytes.  The listing keeps every term alive, so ids stay
    unique.  text refers to itself through its closure, so the writer
    drops that reference when it ends: text and the memo are then freed at
    once, not left as a cycle for the cyclic collector to find.
    """
    kept = {}

    def text(term):
        key = id(term)
        if key not in shared:
            return term._text(text)
        found = kept.get(key)
        if found is None:
            found = kept[key] = term._text(text)
        return found

    write = sys.stdout.write
    try:
        write("[")
        for i, s in enumerate(structures):
            if i:
                write(", ")
            write(s._text(text))
        write("]\n")
    finally:
        text = None


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
    # run_suite refuses a clashing --defs, then an unknown name, before it
    # runs any case.
    reports = run_suite(order=args.order, names=names, extra_env=env)
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


#: The options shared by several subcommands.  An option is (spelling,
#: dest, action, type, default, metavar, help), its action being argparse's
#: "store", "store_true" or "append".
_DEFS = ("--defs", "defs", "store", None, None, "FILE",
         "definitions file of name = expression lines")
_ORDER = ("--order", "order", "store", _order, DEFAULT_ORDER, None,
          "truncation order")
_JSON = ("--json", "json", "store_true", None, False, None,
         "machine-readable output")

#: The positionals shared by several subcommands.  A positional is (dest,
#: optional, help); only the last one of a subcommand may be optional, and
#: it reads as None when omitted.
_EXPR = ("expr", False, None)
_LABELS = ("labels", False, "a size n (labels 1..n) or a comma list")

#: Every subcommand, in the order `species --help` lists them: its help,
#: its positionals, its options in the order its help lists them, and the
#: function running it.  This table is the one statement of the command
#: line: _read reads well-formed lines from it and _build_parser builds the
#: argparse parser from it.
_COMMANDS = {
    "count": ("number of structures on a label set", (_EXPR, _LABELS),
              (_DEFS, _JSON), _cmd_count),
    "series": ("counting series of an expression", (_EXPR,),
               (_DEFS, _ORDER, _JSON), _cmd_series),
    "enumerate": ("list every structure on a label set", (_EXPR, _LABELS),
                  (("--budget", "budget", "store", int, DEFAULT_BUDGET, None,
                    "refuse to list more than this many structures"),
                   _DEFS, _JSON), _cmd_enumerate),
    "transport": ("relabel a structure along a bijection",
                  (_EXPR, ("bijection", False, "comma list of a->b entries"),
                   ("structure", True,
                    "structure as JSON (read from stdin when omitted)")),
                  (_DEFS, _JSON), _cmd_transport),
    "solve": ("series of a name from a definitions file",
              (("name", False, None),), (_DEFS, _ORDER, _JSON), _cmd_solve),
    "verify": ("run the built-in identity suite", (),
               (("--case", "case", "append", None, None, "NAME",
                 "run only this case (repeatable)"),
                ("--order", "order", "store", _order, None, None,
                 "cap both series order and enumeration size"),
                _DEFS, _JSON), _cmd_verify),
}


def _read(argv):
    """The attributes parse_args gives argv, read straight from _COMMANDS
    when argv is a well-formed line: a subcommand, its positionals, then
    only its options, each spelled in full and each value option followed
    by a value that does not start with "-".  None when argv is anything
    else (help, a usage error, or a spelling that only argparse reads, such
    as an abbreviation, --opt=value, -- or a positional after an option),
    so that argparse parses it."""
    if not argv or not all(isinstance(token, str) for token in argv):
        return None
    row = _COMMANDS.get(argv[0])
    if row is None:
        return None
    _, positionals, options, run = row
    end = 1
    while end < len(argv) and not argv[end].startswith("-"):
        end += 1
    given = argv[1:end]
    if len(given) > len(positionals):
        return None
    args = {"command": argv[0], "func": run}
    for i, (dest, optional, _) in enumerate(positionals):
        if i < len(given):
            args[dest] = given[i]
        elif optional:
            args[dest] = None
        else:
            return None
    spelled = {}
    for option in options:
        spelled[option[0]] = option
        args[option[1]] = option[4]
    i = end
    while i < len(argv):
        option = spelled.get(argv[i])
        if option is None:
            return None
        _, dest, action, convert, _, _, _ = option
        if action == "store_true":
            args[dest] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if convert is not None:
            # argparse reports a ValueError or ArgumentTypeError of the
            # conversion as a usage error.  Declining on any other exception
            # lets argparse run the same conversion and report or raise it;
            # a refused bound is raised at once, as argparse would raise it.
            try:
                value = convert(value)
            except BudgetExceeded:
                raise
            except Exception:
                return None
        if action == "append":
            value = [*(args[dest] or ()), value]
        args[dest] = value
        i += 2
    return SimpleNamespace(**args)


def _build_parser(command=None):
    """The argparse parser of _COMMANDS: with command, a subcommand name,
    the top parser with that one subparser, else with all of them.  The
    one-subcommand parser names every subcommand in its usage, as the full
    one does, so its messages are the same.  argparse is imported here, so
    that a process whose line _read reads never imports it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="species",
        description="Count, list, and relabel the structures of a species expression.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, positionals, options, run) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for dest, optional, help_ in positionals:
                p.add_argument(dest, nargs="?" if optional else None,
                               help=help_)
            for spelling, dest, action, convert, default, meta, help_ in options:
                typed = {} if action == "store_true" else {
                    "type": convert, "metavar": meta}
                p.add_argument(spelling, dest=dest, action=action,
                               default=default, help=help_, **typed)
            p.set_defaults(func=run)
    return parser


def main(argv=None):
    """Run one command line and return its exit code.  A well-formed line
    is read straight from the argument table (_read) and builds no parser.
    Any other line (help, a usage error, a spelling only argparse reads)
    goes to argparse, with the subparser of the subcommand named first or,
    for any other first word (an option, an unknown name, nothing), the
    full parser and its messages.

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
    try:
        # Reading the line converts --order, which refuses an order past
        # its bound with BudgetExceeded, exit 3 like any other bound.
        args = _read(argv)
        if args is None:
            command = argv[0] if argv and argv[0] in _COMMANDS else None
            try:
                args = _build_parser(command).parse_args(argv)
            except SystemExit as exc:
                # argparse exits 2 on usage errors; fold that into the
                # parse-failure code so 2 stays reserved for count
                # integrality.
                return 0 if exc.code == 0 else 1
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
