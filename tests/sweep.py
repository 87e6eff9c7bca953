"""An exhaustive sweep over small expressions: every tree up to a number of
operators over an alphabet of leaves (strategies.expression_trees), each
checked against the engine's own invariants on a few label sets.

For each tree, print_expr must re-parse to the same node.  On each label
set of LABEL_SETS, the listing must have as many structures as the series
counts, their encodings must strictly increase, and decode_structure must
rebuild every structure from its JSON tree.  A tree whose series is
refused (a SpeciesError: an ill-founded name, an inner with structures on
the empty set) must be refused by the listing too, and a listing may
refuse (with a SpeciesError) only where the series refuses, except that a
listing over BUDGET structures is not built (BudgetExceeded).  The
ill-founded name F = F is refused by both on every label set, the empty
one included: the series raises IllFoundedEquation, and so does the
listing, which counts the series before it visits a node.  Each tree is
also listed on one walk over every label set, largest first, as the
identity suite shares a walk, and must list and refuse as the fresh
walks do, encoding for encoding and in order.

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

from species.enumerator import _Walk, enumerate_structures
from species.errors import BudgetExceeded, SpeciesError
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
    A listing over budget passes, and so does a listing refused where the
    series is refused too."""
    text = print_expr(tree)
    if parse_expr(text) != tree:
        return f"{text}: print_expr does not re-parse to the same tree"
    counted = {}
    fresh = []
    for labels in LABEL_SETS:
        n = len(labels)
        if n not in counted:
            try:
                counted[n] = egf_of(tree, env, order=n).count(n)
            except SpeciesError as err:
                counted[n] = err
        want = counted[n]
        fresh.append(None)
        try:
            listed = enumerate_structures(tree, env, labels, budget)
        except BudgetExceeded:
            continue
        except SpeciesError as err:
            if isinstance(want, SpeciesError):
                continue
            return (f"{text} on {labels}: {want} counted, but the listing "
                    f"refuses: {err!r}")
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
        fresh[-1] = codes
    return _shared_walk_check(tree, env, budget, text, fresh)


def _shared_walk_check(tree, env, budget, text, fresh):
    """Why one walk over every label set, largest first, lists otherwise
    than the fresh walks did, or None.  fresh holds each label set's
    encodings from its fresh walk, None where that listing was refused."""
    with _Walk(env=env) as walk:
        for i in sorted(range(len(LABEL_SETS)),
                        key=lambda i: -len(LABEL_SETS[i])):
            labels = LABEL_SETS[i]
            try:
                listed = enumerate_structures(tree, env, labels, budget,
                                              walk=walk)
                codes = [term.encode() for term in listed]
            except SpeciesError:
                codes = None
            except Exception as err:  # a defect, as in check
                return f"{text} on {labels}: the shared walk raises {err!r}"
            if codes != fresh[i]:
                return (f"{text} on {labels}: a shared walk lists otherwise "
                        f"than a fresh one")
        del walk
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
