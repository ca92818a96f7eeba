"""Core invariants of quotient terminalizations.

For a subgroup H of a symplectic action: the involution classes n2, the
codimension-2-fixing order-3 subgroups (N3 and its class split n31/n32 by
even-order normalizer witnesses), the fundamental group of the regular
locus, and the second Betti number
    b2 = 23 - rank_coinvariant + n2 + n31 + 2*n32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .cyclo import CycloNum, rational
from .groups import (
    FinGroup,
    GroupId,
    SubgroupHandle,
    TableGroup,
    UnidentifiedGroup,
    identify,
    quotient_group,
)
from .linalg import MatC, PolyC
from .ranks import resolve_rank

__all__ = [
    "L3Set",
    "SubgroupRecord",
    "detect_l3",
    "is_l3_matrix",
    "l3_trace_prefilter",
    "singular_invariants",
    "pi1_quotient",
    "pi1_id",
    "b2_of_terminalization",
    "classification_table",
    "records_for_classes",
    "merged_rows",
]


@dataclass(frozen=True)
class L3Set:
    """The order-3 subgroups whose generator fixes a codimension-2 locus."""

    group: FinGroup
    subgroups: tuple[frozenset[int], ...]
    generators: tuple[int, ...]  # minimal generator index per subgroup
    members: frozenset[int]  # union of the non-identity elements

    @property
    def count(self) -> int:
        return len(self.subgroups)


def l3_trace_prefilter(mat: MatC) -> bool:
    """Fast eigenvalue-multiset test: tr(M) != 0 and tr(M)^2 + 3 tr(M^2) = 0.

    For a finite-order matrix with M^3 scalar this holds exactly for the
    eigenvalue pattern {r,r,r, rw,rw,rw}; the one other multiset solving
    the quadratic relation, {r,r,rw,rw,rw^2,rw^2}, has trace zero.
    """
    t1 = mat.trace()
    if t1.is_zero:
        return False
    t2 = (mat * mat).trace()
    return (t1 * t1 + rational(3) * t2).is_zero


def is_l3_matrix(mat: MatC) -> bool:
    """Exact normal-form test on any lift: the characteristic polynomial is
    (t^2 + a*t + a^2)^3 for a nonzero scalar a, i.e. the eigenvalues are
    {r,r,r, rw,rw,rw} up to the lift's scalar."""
    if mat.is_scalar() is not None:
        return False
    cp = mat.char_poly()
    c5 = cp.coeffs[5]
    alpha = c5 * rational(1, 3)
    if alpha.is_zero:
        return False
    quad = PolyC([alpha * alpha, alpha, rational(1)])
    return cp == quad * quad * quad


def detect_l3(group: FinGroup) -> L3Set:
    """All order-3 subgroups acting with the codimension-2 normal form.

    One subgroup per {g, g^2} pair; cheap trace prefilter first, then the
    exact characteristic-polynomial confirmation.  The result is memoized
    on the group, so it lives exactly as long as the group does.
    """
    if group.l3_memo is not None:
        return group.l3_memo
    seen: set[frozenset[int]] = set()
    subs: list[tuple[frozenset[int], int]] = []
    for x in range(1, group.n):
        if group.element_order(x) != 3:
            continue
        x2 = group.mult(x, x)
        fs = frozenset((0, x, x2))
        if fs in seen:
            continue
        seen.add(fs)
        mat = group.elements[x].mat
        if not l3_trace_prefilter(mat):
            continue
        if not is_l3_matrix(mat):
            continue
        subs.append((fs, min(x, x2)))
    subs.sort(key=lambda p: p[1])
    members = frozenset(m for fs, _ in subs for m in fs if m != 0)
    out = L3Set(
        group=group,
        subgroups=tuple(fs for fs, _ in subs),
        generators=tuple(g for _, g in subs),
        members=members,
    )
    group.l3_memo = out
    return out


def singular_invariants(h: SubgroupHandle, l3: L3Set) -> tuple[int, int, int, int, int]:
    """(n2, N3, n3, n31, n32) for one subgroup.

    n2 counts H-conjugacy classes of involutions; N3 the codimension-2
    order-3 subgroups inside H; n3 their H-conjugacy classes, split by
    whether the normalizer minus the centralizer contains an even-order
    element (n31) or not (n32).
    """
    if h.group is not l3.group:
        raise ValueError("subgroup does not belong to the ambient of the L3 set")
    view = h.view
    group = h.group
    # involution classes
    invs = h.involutions()
    seen: set[int] = set()
    n2 = 0
    for x in invs:
        if x in seen:
            continue
        orbit = {x}
        queue = [x]
        for y in queue:
            for g in h.gens:
                z = view.conj(y, g)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        seen |= orbit
        n2 += 1
    # codimension-2 order-3 subgroups inside H, up to H-conjugacy
    inside = [fs for fs in l3.subgroups if fs <= h.members]
    n3_count = len(inside)
    seen_sets: set[frozenset[int]] = set()
    n31 = n32 = 0
    for fs in inside:
        if fs in seen_sets:
            continue
        orbit_sets = {fs}
        queue = [fs]
        for s in queue:
            for g in h.gens:
                t = frozenset(view.conj(m, g) for m in s)
                if t not in orbit_sets:
                    orbit_sets.add(t)
                    queue.append(t)
        seen_sets |= orbit_sets
        gen = min(m for m in fs if m)
        witness = False
        for x in sorted(h.members):
            c = view.conj(gen, x)
            if c == gen:
                continue  # centralizing
            if c in fs:  # normalizing but not centralizing
                if view.order_of(x) % 2 == 0:
                    witness = True
                    break
        if witness:
            n31 += 1
        else:
            n32 += 1
    return n2, n3_count, n31 + n32, n31, n32


def pi1_quotient(h: SubgroupHandle, l3: L3Set) -> TableGroup:
    """H modulo the subgroup generated by everything fixing codimension 2.

    The generating set (all involutions plus the members of the contained
    codimension-2 order-3 subgroups) is conjugation-stable, so the
    subgroup is normal; quotient_group re-verifies that.
    """
    seeds = set(h.involutions())
    seeds.update(m for m in (l3.members & h.members))
    view = h.view
    members = frozenset((0,))
    gens: list[int] = []
    for s in sorted(seeds):
        if s not in members:
            gens.append(s)
            members = view.closure(gens)
    n_handle = SubgroupHandle(h.group, members, tuple(gens))
    return quotient_group(h, n_handle)


def pi1_id(h: SubgroupHandle, l3: L3Set):
    return identify(pi1_quotient(h, l3).view)


def b2_of_terminalization(rank_coinvariant: int, n2: int, n31: int, n32: int) -> int:
    """23 - rank_coinvariant + n2 + n31 + 2*n32."""
    if not 0 <= rank_coinvariant <= 23:
        raise ValueError("coinvariant rank must lie in [0, 23]")
    return 23 - rank_coinvariant + n2 + n31 + 2 * n32


@dataclass
class SubgroupRecord:
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


def records_for_classes(group: FinGroup, l3: L3Set, cubic: Sequence[CycloNum],
                        classes: Sequence[tuple[int, SubgroupHandle]]) -> list[SubgroupRecord]:
    """Build one record per (index, subgroup) pair; ``cubic`` is the form
    the group preserves, from which the ranks are computed."""
    records = []
    for idx, h in classes:
        n2, n3s, n3, n31, n32 = singular_invariants(h, l3)
        gid = identify(h.view)
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
                rank=resolve_rank(h, cubic, gid, n3s),
                pi1=pid,
            )
        )
    return records


def classification_table(ambient_key: str, *, mode: str = "full-sweep",
                         targeted: Optional[Sequence[SubgroupHandle]] = None,
                         budget: int = 1000, all_subgroups: bool = False) -> list[SubgroupRecord]:
    """One record per subgroup conjugacy class with n2 + n3 > 0.

    ``full-sweep`` enumerates every class (within the budget), keeping the
    canonical class indices even after filtering; ``full-group-only`` and
    ``targeted`` compute the requested rows with class index 0.
    """
    from .catalog import build_group, load_group

    group = build_group(ambient_key)
    cubic = load_group(ambient_key).cubic
    l3 = detect_l3(group)
    if mode == "full-sweep":
        classes = group.subgroup_conjugacy_classes(budget=budget)
        pairs = [(c.index, c.rep) for c in classes]
        records = records_for_classes(group, l3, cubic, pairs)
        if not all_subgroups:
            records = [r for r in records if not r.terminal]
        return records
    if mode == "full-group-only":
        pairs = [(0, group.whole())]
    elif mode == "targeted":
        if not targeted:
            raise ValueError("targeted mode requires at least one subgroup")
        pairs = [(0, h) for h in targeted]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    records = records_for_classes(group, l3, cubic, pairs)
    if not all_subgroups and mode == "targeted":
        records = [r for r in records if not r.terminal]
    return records


def merged_rows(records: Sequence[SubgroupRecord]) -> list[tuple]:
    """Collapse records carrying identical invariant strings.

    Two conjugacy classes print one row when they agree in id, rank, n2,
    n31, n32, b2 and the fundamental group (mirroring the convention of
    folding indistinguishable rows).
    """
    seen = set()
    out = []
    for r in records:
        key = (str(r.group_id), str(r.rank), r.n2, r.n31, r.n32, str(r.b2), str(r.pi1))
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out
