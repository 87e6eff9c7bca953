"""Shared hypothesis strategies for building random species expressions."""

from itertools import product as iproduct

from hypothesis import strategies as st

from species.expr import Derivative, Pointing, Product, Substitute, Sum
from species.parser import parse_expr

_PRIM_LEAVES = ["0", "1", "X", "E", "Ep", "L", "Lp", "C", "S",
                "Der", "Inv", "End", "Part", "P", "Gra", "Gro",
                "Ek[2]", "Ek[3]", "Pk[2]"]
_NAME_LEAVES = ["F", "G2", "Tree"]
_CALL_HEADS = ["E", "Ep", "L", "C", "S"]


def grammar_exprs(include_names=True, max_leaves=6):
    """Random trees from the concrete-grammar fragment of the language.

    Cardinality restrictions are excluded (they have no surface syntax), and
    substitution heads are kept to token form so that printing re-parses.
    """
    leaf_pool = _PRIM_LEAVES + (_NAME_LEAVES if include_names else [])
    heads = _CALL_HEADS + (_NAME_LEAVES if include_names else [])
    leaves = st.sampled_from(leaf_pool).map(parse_expr)

    def compound(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: Sum(*p)),
            st.tuples(children, children).map(lambda p: Product(*p)),
            st.tuples(
                st.sampled_from(heads).map(parse_expr), children
            ).map(lambda p: Substitute(*p)),
            children.map(Derivative),
            children.map(Pointing),
        )

    return st.recursive(leaves, compound, max_leaves=max_leaves)


def expression_trees(max_ops, leaves, heads, max_leaves=None):
    """Every expression tree with at most max_ops operators and at most
    max_leaves leaves (any number for None), deterministic and in order of
    operator count.

    leaves are the trees of no operator.  Each operator adds one node: a
    derivative, a pointing, a substitution into one of heads (primitives
    with no parameter, or names, so that the tree prints as head(inner)
    and re-parses), a sum or a product.  A tree is built once, from the
    trees of fewer operators, so each is yielded once."""
    heads = [parse_expr(head) for head in heads]
    if max_leaves is None:
        max_leaves = max_ops + 1
    # built[ops][n]: the trees of ops operators and n leaves.
    built = [[[], [parse_expr(leaf) for leaf in leaves]]]
    yield from built[0][1]
    for ops in range(1, max_ops + 1):
        row = [[] for _ in range(min(ops + 1, max_leaves) + 1)]
        for n, below in enumerate(built[ops - 1]):
            row[n] += [Derivative(t) for t in below]
            row[n] += [Pointing(t) for t in below]
            row[n] += [Substitute(head, t) for head in heads for t in below]
        for left_ops in range(ops):
            for n_left, lefts in enumerate(built[left_ops]):
                for n_right, rights in enumerate(built[ops - 1 - left_ops]):
                    if n_left + n_right < len(row):
                        row[n_left + n_right] += [
                            op(left, right)
                            for left, right in iproduct(lefts, rights)
                            for op in (Sum, Product)
                        ]
        built.append(row)
        for trees in row:
            yield from trees
