"""Numerical obstruction to deformation equivalence of terminalizations.

A candidate quotient matches a known class when the square root of the
order ratio (with an extra factor 3 against Kummer-type classes) is
rational; entries matched by no catalog are genuinely new numerically.
The criterion is necessary, not sufficient, so matched entries are only
"numerically unobstructed".

The comparison catalogs and the fixture rows are read here.  Only
check-deformation imports this module, and with it ``fractions``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .catalog import table_rows
from .data import read_data as _read
from .groups import GroupId

__all__ = [
    "KnownClassCatalog",
    "ObstructionEntry",
    "ObstructionReport",
    "is_square_rational",
    "load_deformation_catalog",
    "load_fixtures",
    "obstruction_report",
]


class KnownClassCatalog(NamedTuple):
    """b2 -> orders of the groups realizing that b2, per comparison family."""

    fujiki: dict[int, tuple[int, ...]]
    hilbert_square: dict[int, tuple[int, ...]]
    kummer: dict[int, tuple[int, ...]]


class ObstructionEntry(NamedTuple):
    group_id: GroupId
    b2: int
    ambient_order: int


class ObstructionReport(NamedTuple):
    fujiki_unmatched: tuple[ObstructionEntry, ...]
    hilbert_square_unmatched: tuple[ObstructionEntry, ...]
    kummer_unmatched: tuple[ObstructionEntry, ...]
    new_candidates: tuple[ObstructionEntry, ...]


def _load_b2_table(name: str) -> dict[int, tuple[int, ...]]:
    rows = table_rows(name, _read(name), lambda line: tuple(map(int, line.split())))
    return {row[0]: row[1:] for row in rows}


@lru_cache(maxsize=None)
def load_deformation_catalog() -> KnownClassCatalog:
    return KnownClassCatalog(
        fujiki=_load_b2_table("vfuj.table"),
        hilbert_square=_load_b2_table("vk3.table"),
        kummer=_load_b2_table("vkum.table"),
    )


@lru_cache(maxsize=None)
def load_fixtures() -> tuple[ObstructionEntry, ...]:
    def row(line: str) -> ObstructionEntry:
        order, gid, b2, ambient = map(int, line.split())
        if order <= 0 or ambient <= 0:
            raise ValueError("orders must be positive")
        return ObstructionEntry(GroupId(order, gid), b2, ambient)
    return tuple(table_rows("fixtures.list", _read("fixtures.list"), row))


def is_square_rational(q) -> bool:
    """True when sqrt(q) is rational, i.e. both parts of q are squares."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("ratio must be positive")
    return (
        math.isqrt(q.numerator) ** 2 == q.numerator
        and math.isqrt(q.denominator) ** 2 == q.denominator
    )


def _unmatched(entries, table: dict[int, tuple[int, ...]], denominator_factor: int):
    out = []
    for e in entries:
        orders = table.get(e.b2)
        if not orders:
            out.append(e)  # no known class at this b2: nothing to match against
            continue
        if not any(
            is_square_rational(Fraction(e.group_id.order, denominator_factor * h))
            for h in orders
        ):
            out.append(e)
    return tuple(out)


def obstruction_report(entries: Sequence[ObstructionEntry],
                       catalog: KnownClassCatalog) -> ObstructionReport:
    """Compare entries against the three known-class catalogs.

    The order used in each ratio is the subgroup's own order, never the
    ambient's; the Kummer comparison carries the extra factor 3.
    """
    fuj = _unmatched(entries, catalog.fujiki, 1)
    k3 = _unmatched(entries, catalog.hilbert_square, 1)
    kum = _unmatched(entries, catalog.kummer, 3)
    kum_set = set(kum)
    k3_set = set(k3)
    new = tuple(e for e in fuj if e in k3_set and e in kum_set)
    return ObstructionReport(fuj, k3, kum, new)
