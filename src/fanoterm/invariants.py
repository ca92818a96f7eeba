"""Core invariants of quotient terminalizations.

For a subgroup H of a symplectic action: the involution classes n2, the
codimension-2-fixing order-3 subgroups (N3, and their H-classes n3, split
into n31/n32 by whether H inverts their generator), the fundamental group
of the regular locus, and the second Betti number
    b2 = 23 - rank_coinvariant + n2 + n31 + 2*n32.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Union

from .catalog import build_group, load_group
from .cyclo import ONE, CycloNum, rational
from .groups import (
    FinGroup,
    GroupId,
    GroupView,
    UnidentifiedGroup,
    identify,
    quotient_group,
)
from .linalg import MatC
from .ranks import class_traces, resolve_rank

__all__ = [
    "L3Set",
    "SubgroupRecord",
    "detect_l3",
    "is_l3_matrix",
    "singular_invariants",
    "pi1_quotient",
    "pi1_id",
    "b2_of_terminalization",
    "classification_table",
    "records_for_classes",
]


class L3Set(NamedTuple):
    """The order-3 subgroups whose generator fixes a codimension-2 locus."""

    group: FinGroup
    subgroups: tuple[frozenset[int], ...]
    generators: tuple[int, ...]  # minimal generator index per subgroup
    members: frozenset[int]  # union of the non-identity elements

    @property
    def count(self) -> int:
        return len(self.subgroups)


def is_l3_matrix(mat: MatC) -> bool:
    """Exact normal-form test on any lift: the characteristic polynomial is
    (t^2 + a*t + a^2)^3 for a nonzero scalar a, i.e. the eigenvalues are
    {r,r,r, rw,rw,rw} up to the lift's scalar.  The coefficients of that
    cube are a^6, 3a^5, 6a^4, 7a^3, 6a^2, 3a, 1, so a is a third of c5.
    A scalar cI fails it: a = -2c, and its t^4 coefficient is 15c^2, not
    6a^2 = 24c^2."""
    cp = mat.char_poly()
    a = cp[5] * rational(1, 3)
    if a.is_zero:
        return False
    a2 = a * a
    a3 = a2 * a
    return cp == (a3 * a3, 3 * a3 * a2, 6 * a3 * a, 7 * a3, 6 * a2, 3 * a, ONE)


def detect_l3(group: FinGroup) -> L3Set:
    """All order-3 subgroups acting with the codimension-2 normal form.

    The test is a class function, so it runs once per conjugacy class of
    order-3 elements; one subgroup per {g, g^2} pair, whose members are
    both in the set since squaring keeps the normal form.
    """
    view = group.view
    classes, _ = view.class_map()
    l3_elements = sorted(
        x
        for c in classes
        if view.order_of(c[0]) == 3 and is_l3_matrix(group.elements[c[0]])
        for x in c
    )
    subgroups, generators = [], []
    for x in l3_elements:
        x2 = group.mult(x, x)
        if x < x2:
            subgroups.append(frozenset((0, x, x2)))
            generators.append(x)
    return L3Set(
        group=group,
        subgroups=tuple(subgroups),
        generators=tuple(generators),
        members=frozenset(l3_elements),
    )


def singular_invariants(h: GroupView, l3: L3Set) -> tuple[int, int, int, int, int]:
    """(n2, N3, n3, n31, n32) for one subgroup, read off its class map.

    n2 counts H-conjugacy classes of involutions; N3 the codimension-2
    order-3 subgroups <g> inside H; n3 their H-conjugacy classes, one per
    set {class of g, class of g^2}.  n31 counts those where some element
    of even order normalizes <g> without centralizing it, n32 the rest.
    That is where g and g^2 share an H-class: an x with x^-1 g x = g^2
    has x^2 centralizing g, and an x of odd order is a power of x^2, so x
    has even order.
    """
    if h.ambient is not l3.group:
        raise ValueError("subgroup does not belong to the ambient of the L3 set")
    classes, class_of = h.class_map()
    n2 = sum(1 for c in classes if h.order_of(c[0]) == 2)
    inside = [fs for fs in l3.subgroups if fs <= h.members]
    keys = {frozenset(class_of[m] for m in fs if m) for fs in inside}
    n31 = sum(len(key) == 1 for key in keys)
    return n2, len(inside), len(keys), n31, len(keys) - n31


def pi1_quotient(h: GroupView, l3: L3Set) -> GroupView:
    """H modulo the subgroup generated by everything fixing codimension 2.

    The generating set (all involutions plus the members of the contained
    codimension-2 order-3 subgroups) is conjugation-stable, so the
    subgroup is normal; quotient_group re-verifies that.
    """
    seeds = set(h.involutions())
    seeds.update(m for m in (l3.members & h.members))
    return quotient_group(h, h.sub(*h.span(seeds)))


def pi1_id(h: GroupView, l3: L3Set):
    return identify(pi1_quotient(h, l3))


def b2_of_terminalization(rank_coinvariant: int, n2: int, n31: int, n32: int) -> int:
    """23 - rank_coinvariant + n2 + n31 + 2*n32."""
    if not 0 <= rank_coinvariant <= 23:
        raise ValueError("coinvariant rank must lie in [0, 23]")
    return 23 - rank_coinvariant + n2 + n31 + 2 * n32


class SubgroupRecord(NamedTuple):
    class_index: int
    order: int
    group_id: Union[GroupId, UnidentifiedGroup]
    n2: int
    n3_subgroups: int  # N3
    n3: int
    n31: int
    n32: int
    rank: int  # coinvariant rank
    pi1: Union[GroupId, UnidentifiedGroup]

    @property
    def terminal(self) -> bool:
        return self.n2 + self.n3 == 0

    @property
    def b2(self) -> int:
        return b2_of_terminalization(self.rank, self.n2, self.n31, self.n32)

    @property
    def pi1_trivial(self) -> bool:
        return isinstance(self.pi1, GroupId) and self.pi1 == GroupId(1, 1)


def records_for_classes(l3: L3Set, cubic: Sequence[CycloNum],
                        classes: Sequence[tuple[int, GroupView]]) -> list[SubgroupRecord]:
    """Build one record per (index, subgroup) pair; ``cubic`` is the form
    the ambient preserves, from which its class traces and so the ranks
    are computed."""
    traces = class_traces(l3.group, cubic)
    records = []
    for idx, h in classes:
        n2, n3s, n3, n31, n32 = singular_invariants(h, l3)
        gid = identify(h)
        pid = pi1_id(h, l3)
        records.append(
            SubgroupRecord(
                class_index=idx,
                order=h.order,
                group_id=gid,
                n2=n2,
                n3_subgroups=n3s,
                n3=n3,
                n31=n31,
                n32=n32,
                rank=resolve_rank(h, traces, gid, n3s),
                pi1=pid,
            )
        )
    return records


def classification_table(ambient_key: str, *, mode: str = "full-sweep",
                         targeted: Optional[Sequence[GroupView]] = None,
                         all_subgroups: bool = False) -> list[SubgroupRecord]:
    """One record per subgroup conjugacy class with n2 + n3 > 0.

    ``full-sweep`` enumerates every class of any ambient by the sweep's
    involution-guided cyclic extension, with no multiplication table,
    keeping the canonical class indices after filtering;
    ``full-group-only`` and ``targeted`` give rows with class index 0.
    """
    group = build_group(ambient_key)
    cubic = load_group(ambient_key).cubic
    l3 = detect_l3(group)
    if mode == "full-sweep":
        pairs = list(enumerate(group.subgroup_conjugacy_classes(), start=1))
    elif mode == "full-group-only":
        pairs = [(0, group.view)]
    elif mode == "targeted":
        if not targeted:
            raise ValueError("targeted mode requires at least one subgroup")
        pairs = [(0, h) for h in targeted]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    records = records_for_classes(l3, cubic, pairs)
    if not all_subgroups and mode != "full-group-only":
        records = [r for r in records if not r.terminal]
    return records
