"""A fixed slice of the exhaustive sweep over small expressions (sweep.py):
every tree of at most one operator over X and one other leaf, for each
primitive kind and for the names A, B and the ill-founded F = F.  The full
sweep, up to four operators, runs in CI."""

import pytest

from species.expr import Primitive, PrimitiveKind, Substitute
from species.parser import parse_defs

from strategies import expression_trees
from sweep import DEFS, FULL_HEADS, PRIMITIVE_LEAVES, check

_ENV = parse_defs(DEFS)


def _slice():
    """The slice's trees by the leaf X is paired with, each tree under
    the first leaf that yields it."""
    seen = set()
    out = {}
    for leaf in PRIMITIVE_LEAVES + ("A", "B", "F"):
        out[leaf] = []
        for tree in expression_trees(1, ("X", leaf), FULL_HEADS):
            if tree not in seen:
                seen.add(tree)
                out[leaf].append(tree)
    return out


SLICE = _slice()


def test_the_slice_takes_every_kind_as_a_leaf_and_as_an_inner():
    trees = [t for trees in SLICE.values() for t in trees]
    leaves = {t.kind for t in trees if isinstance(t, Primitive)}
    inners = {
        t.inner.kind for t in trees
        if isinstance(t, Substitute) and isinstance(t.inner, Primitive)
    }
    assert leaves == inners == set(PrimitiveKind)


@pytest.mark.parametrize("leaf", list(SLICE))
def test_every_tree_passes(leaf):
    assert [found for found in (check(t, _ENV) for t in SLICE[leaf])
            if found] == []


def test_the_generator_yields_every_tree_once():
    # Over two leaves and one head, three unary operators and two binary
    # ones: 2 leaves; 3*2 + 2*2*2 = 14 trees of one operator, 6 of them
    # unary; of two operators, 3*14 with a unary root and 2*(2*14 + 14*2)
    # with a binary one, of which 2*(2*6 + 6*2) have two leaves.
    trees = list(expression_trees(2, ("X", "L"), ("E",)))
    assert len(trees) == len(set(trees)) == 2 + 14 + 3 * 14 + 2 * 56
    capped = list(expression_trees(2, ("X", "L"), ("E",), max_leaves=2))
    assert len(capped) == 2 + 14 + 3 * 14 + 2 * 24
    assert set(capped) < set(trees)
    assert max(t.height for t in trees) == 3
