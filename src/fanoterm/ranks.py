"""Coinvariant ranks of subgroups of the symplectic actions.

One exact mechanism for every ambient and every subgroup.  By Griffiths'
residue theorem the primitive middle cohomology H^{2,2}_prim(X) of the
cubic X = {F = 0} is the degree-3 piece R_3 of its Jacobian ring, and by
Beauville-Donagi H^2(F(X)) = H^4(X) equivariantly.  For a lift M of g with
F(Mx) = lambda(M) F(x) this gives

    tr(g | H^2(F(X))) = 3 + h3(M)/lambda(M) - tr(M) tr(M^-1),
    h3 = (p1^3 + 3 p1 p2 + 2 p3)/6,  p_k = tr(M^k),

and the coinvariant rank of H is 23 minus the average of that trace over H.
The trace is a class function, so it is evaluated once per conjugacy class
of the ambient; the rank of a subgroup then needs no matrix work.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .catalog import CatalogValidationError, load_rank_rows
from .cyclo import CycloNum, dot, rational
from .groups import FinGroup, GroupId, GroupView
from .linalg import CUBIC_MONOMIALS, cubic_eval

__all__ = [
    "rank_candidates",
    "class_traces",
    "coinvariant_rank",
    "resolve_rank",
]


@lru_cache(maxsize=None)
def _rank_by_id() -> dict[GroupId, frozenset[int]]:
    table: dict[GroupId, set[int]] = {}
    for _, gid, rank in load_rank_rows():
        table.setdefault(gid, set()).add(rank)
    return {gid: frozenset(rs) for gid, rs in table.items()}


def rank_candidates(gid) -> frozenset[int]:
    """All coinvariant ranks listed for an id; empty when the id is absent."""
    if isinstance(gid, GroupId):
        return _rank_by_id().get(gid, frozenset())
    return frozenset()


def class_traces(group: FinGroup, cubic: Sequence[CycloNum]) -> tuple[int, ...]:
    """tr(g | H^2(F(X))) for each class of the group's class map.

    The group must preserve the cubic up to scalars.  lambda(M) is read off
    at a point where F does not vanish; some e_i + e_j + e_k is one, since
    the values at these points determine a cubic.  tr(M^-1) comes from the
    stored inverse class, a scalar multiple s*M^-1 with s = (M*(s*M^-1))_00.
    """
    for mono in CUBIC_MONOMIALS:
        point = [rational(mono.count(a)) for a in range(6)]
        value = cubic_eval(cubic, point)
        if not value.is_zero:
            break
    classes, _ = group.view.class_map()
    d = group.dim
    traces = []
    for members in classes:
        x = members[0]
        m = group.elements[x]
        m_inv = group.elements[group.inv(x)]
        s = dot([(m[0, j], m_inv[j, 0]) for j in range(d)])
        m2 = m * m
        p1, p2 = m.trace(), m2.trace()
        p3 = dot([(m2[i, j], m[j, i]) for i in range(d) for j in range(d)])
        h3 = (p1 * p1 * p1 + 3 * p1 * p2 + 2 * p3) / 6
        image = [dot([(m[i, j], point[j]) for j in range(d)]) for i in range(d)]
        lam = cubic_eval(cubic, image) / value
        trace = 3 + h3 / lam - p1 * m_inv.trace() / s
        if trace.n != 1 or trace.den != 1:
            raise CatalogValidationError(
                f"the trace of element {x} on H^2 is {trace.to_string()}, not an integer"
            )
        traces.append(trace.num[0])
    return tuple(traces)


def coinvariant_rank(h: GroupView, traces: Sequence[int]) -> int:
    """23 minus the average over H of the trace on H^2(F(X)), from the
    ambient's class_traces: one term per H-class, the trace of the ambient
    class holding it times its size.

    The result must be an integer in [0, 20]; anything else means the
    shipped cubic or generators are wrong, a CatalogValidationError.
    """
    _, ambient_class_of = h.ambient.view.class_map()
    total = sum(len(c) * traces[ambient_class_of[c[0]]] for c in h.class_map()[0])
    rank, rem = divmod(23 * h.order - total, h.order)
    if rem or not 0 <= rank <= 20:
        raise CatalogValidationError(
            f"coinvariant rank {rational(23 * h.order - total, h.order)} of a subgroup "
            f"of order {h.order} is not an integer in [0, 20]"
        )
    return rank


def resolve_rank(h: GroupView, traces: Sequence[int], gid, n3: int) -> int:
    """The coinvariant rank, checked against the rank table's candidates for
    the id and against the codimension-2 bounds: N3 >= 1 forces rank >= 18
    and N3 >= 2 forces rank 20.  A failed check raises CatalogValidationError.
    """
    rank = coinvariant_rank(h, traces)
    candidates = rank_candidates(gid)
    if candidates and rank not in candidates:
        raise CatalogValidationError(
            f"computed rank {rank} for {gid} not among table candidates {sorted(candidates)}"
        )
    if n3 >= 1 and rank < 18:
        raise CatalogValidationError(f"rank bound violated: N3={n3} but computed rank {rank} < 18")
    if n3 >= 2 and rank != 20:
        raise CatalogValidationError(f"rank bound violated: N3={n3} but computed rank {rank} != 20")
    return rank
