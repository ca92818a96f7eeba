"""Numerical obstruction to deformation equivalence of terminalizations.

A candidate quotient matches a known class when the square root of the
order ratio (with an extra factor 3 against Kummer-type classes) is
rational; entries matched by no catalog are genuinely new numerically.
The criterion is necessary, not sufficient, so matched entries are only
"numerically unobstructed".
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .groups import GroupId

__all__ = [
    "KnownClassCatalog",
    "ObstructionEntry",
    "ObstructionReport",
    "is_square_rational",
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
