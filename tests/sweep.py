"""An exhaustive sweep over small expressions: every tree up to a number of
operators over an alphabet of leaves (strategies.expression_trees), each
checked against the engine's own invariants on a few label sets.

For each tree, print_expr must re-parse to the same node.  On each label
set of LABEL_SETS, the listing must have as many structures as the series
counts, their encodings must strictly increase, and decode_structure must
rebuild every structure from its JSON tree.  A tree whose series is
refused (a SpeciesError: an ill-founded name, an inner with structures on
the empty set) must be refused by the listing too.  A listing that
refuses with a SpeciesError is a refusal, not a failure, even where the
series counts: the series of an ill-founded name F = F on the empty set
is 0, and its listing raises RecursionGuard.  A listing over BUDGET
structures is not built.

Run as a script, it sweeps every tree of at most --ops operators and two
leaves over X and each other primitive (full_sweep), substituting into
FULL_HEADS, in --jobs worker processes, and prints each failure:

    PYTHONPATH=src:tests python tests/sweep.py --ops 4 --jobs 2

It exits 1 when a tree fails.  At four operators that is 161 322 trees;
with no cap on the leaves it would be 1 033 194.
test_sweep.py runs a fixed slice of it.
"""

import argparse
import multiprocessing
import sys
from functools import partial

from species.enumerator import enumerate_structures
from species.errors import SpeciesError
from species.expr import PrimitiveKind, print_expr
from species.parser import parse_defs, parse_expr
from species.semantics import egf_of
from species.structures import decode_structure

from strategies import expression_trees

LABEL_SETS = ([], [1], [1, 2], [1, 2, 3], ["a", 2, "b10"])

#: Two recursive names and an ill-founded one.
DEFS = "A = X*E(A)\nB = 1 + X*B^2\nF = F\n"

#: Every primitive kind as a leaf, Ek and Pk at k = 2.
PRIMITIVE_LEAVES = tuple(
    f"{kind.value}[2]" if kind.value in ("Ek", "Pk") else
    "0" if kind is PrimitiveKind.ZERO else kind.value
    for kind in PrimitiveKind
)

#: The most structures listed on one label set; Gro' on 3 labels, 65 536
#: digraphs on 4, is the one tree of the Tier-1 slice it skips.
BUDGET = 2_000

#: The full sweep substitutes into these heads.
FULL_HEADS = ("E", "L", "C")


def check(tree, env, budget=BUDGET):
    """Why tree fails a check, as text, or None when it passes them all.
    A refusal passes."""
    text = print_expr(tree)
    if parse_expr(text) != tree:
        return f"{text}: print_expr does not re-parse to the same tree"
    counted = {}
    for labels in LABEL_SETS:
        n = len(labels)
        if n not in counted:
            try:
                counted[n] = egf_of(tree, env, order=n).count(n)
            except SpeciesError as err:
                counted[n] = err
        want = counted[n]
        try:
            listed = enumerate_structures(tree, env, labels, budget)
        except SpeciesError:  # BudgetExceeded among them
            continue
        except Exception as err:  # a defect, reported as the tree's failure
            return f"{text} on {labels}: the listing raises {err!r}"
        if isinstance(want, SpeciesError):
            return f"{text} on {labels}: the series refuses: {want!r}"
        if len(listed) != want:
            return f"{text} on {labels}: {len(listed)} listed, {want} counted"
        codes = [term.encode() for term in listed]
        if not all(a < b for a, b in zip(codes, codes[1:])):
            return f"{text} on {labels}: encodings do not strictly increase"
        for term in listed:
            if decode_structure(term.to_json()) != term:
                return f"{text} on {labels}: {term.render()} does not decode"
    return None


def full_sweep(max_ops):
    """Every tree of at most max_ops operators and two leaves over X and
    one other primitive kind, for each kind, each distinct tree once.  X
    takes one label, so in a product it shifts its partner's label set
    without multiplying its structures."""
    seen = set()
    for leaf in PRIMITIVE_LEAVES:
        for tree in expression_trees(max_ops, ("X", leaf), FULL_HEADS, 2):
            if tree not in seen:
                seen.add(tree)
                yield tree


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ops", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    trees = list(full_sweep(args.ops))
    checked = partial(check, env=parse_defs(DEFS))
    if args.jobs > 1:
        with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
            found = list(pool.imap(checked, trees, chunksize=100))
    else:
        found = list(map(checked, trees))
    failures = [line for line in found if line]
    for line in failures:
        print("FAIL", line)
    print(f"{len(trees)} trees, {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
