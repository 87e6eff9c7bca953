"""Identities as isomorphisms (§5 of the paper), checked by fixed points.

A natural isomorphism F = G leaves, for every permutation sigma of [n], as
many F-structures as G-structures fixed by transport along sigma; equal
counts alone cannot tell L from S.  The primitives' fixed-point counts are
compared with oracles.fixed_by, which imports nothing from the engine, so
a wrong relabel fails here even when both sides of an identity share it.
The suite's identities are then pinned as natural, or as equipotent only.
"""

import pytest

from species.enumerator import enumerate_structures, transport
from species.expr import PrimitiveKind
from species.identities import IdentityCase, catalog
from species.parser import parse_expr
from species.structures import Bijection

from oracles import (
    CLOSED_FIXED_POINTS,
    cycle_types,
    fixed_by,
    moved,
    permutation_of_type,
    raw_structures,
)

#: Each primitive by token and parameter, and the largest n it is checked on.
PRIMITIVES = [
    (kind.value, k, 3 if kind is PrimitiveKind.DIGRAPH else 4)
    for kind in PrimitiveKind
    for k in ((0, 1, 2) if kind.value in ("Ek", "Pk") else (None,))
]


def _fixed_counts(expr, env, n):
    """For each cycle type of [n], how many structures of expr on [n]
    transport along permutation_of_type of that type leaves fixed."""
    listed = enumerate_structures(expr, env, range(1, n + 1))
    out = {}
    for cycle_type in cycle_types(n):
        sigma = Bijection(permutation_of_type(cycle_type))
        out[cycle_type] = sum(
            1 for s in listed if transport(expr, env, s, sigma) == s
        )
    return out


def test_every_kind_is_checked():
    assert {token for token, _, _ in PRIMITIVES} == {
        kind.value for kind in PrimitiveKind
    }


@pytest.mark.parametrize("token", sorted(CLOSED_FIXED_POINTS))
def test_the_closed_forms_count_the_raw_structures(token):
    for n in range(5):
        for cycle_type in cycle_types(n):
            sigma = permutation_of_type(cycle_type)
            raw = raw_structures(token, list(sigma))
            assert fixed_by(token, cycle_type) == sum(
                1 for s in raw if moved(s, sigma) == s
            ), (n, cycle_type)


@pytest.mark.parametrize("token,k,top", PRIMITIVES)
def test_a_primitive_fixes_what_its_cycle_index_says(token, k, top):
    expr = parse_expr(
        "0" if token == "O" else token if k is None else f"{token}[{k}]"
    )
    for n in range(top + 1):
        want = {t: fixed_by(token, t, k) for t in cycle_types(n)}
        assert _fixed_counts(expr, None, n) == want, n


#: Every IdentityCase of the suite, natural up to n = 4 or equipotent only.
VERDICTS = {
    "S=E*Der": "natural",
    "S=E(C)": "natural",
    "Part=E(Ep)": "natural",
    "C'=L": "natural",
    "Inv=E(X+Ek[2])": "natural",
    "P=E*E": "natural",
    "End=S(A)": "natural",
    "pt(A)=Lp(A)": "natural",
    "End+=pt(A)": "equipotent",
}

_IDENTITIES = [case for case in catalog() if isinstance(case, IdentityCase)]


def test_every_identity_has_a_verdict():
    assert sorted(case.name for case in _IDENTITIES) == sorted(VERDICTS)


@pytest.mark.parametrize(
    "case", _IDENTITIES, ids=[case.name for case in _IDENTITIES]
)
def test_identity_verdict(case):
    """Natural: the two sides fix as many structures for every cycle type
    of every n <= 4.  Equipotent: as many structures on each [n], but not
    as many fixed by some permutation."""
    sides = [
        [_fixed_counts(expr, case.env, n) for n in range(5)]
        for expr in (case.lhs, case.rhs)
    ]
    identity = [(1,) * n for n in range(5)]
    assert [c[t] for c, t in zip(sides[0], identity)] == \
        [c[t] for c, t in zip(sides[1], identity)]
    verdict = "natural" if sides[0] == sides[1] else "equipotent"
    assert verdict == VERDICTS[case.name]


def test_a_transposition_tells_endofunctions_from_pointed_trees():
    [case] = [case for case in _IDENTITIES if case.name == "End+=pt(A)"]
    lhs, rhs = (
        _fixed_counts(expr, case.env, 2) for expr in (case.lhs, case.rhs)
    )
    assert (lhs[(2,)], rhs[(2,)]) == (2, 0)
