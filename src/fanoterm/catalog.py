"""Data layer: group definitions and the rank table.

Matrices and cubic forms live in text files under ``fanoterm/data`` using
the cyclotomic grammar, one file per group; the tables are
whitespace-separated columns with ``#`` comments.  Everything is read-only
once loaded.  The comparison catalogs and fixture rows of the deformation
obstruction are read by ``deform``, which only ``check-deformation`` imports.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .cyclo import ONE, CycloNum, parse_cyclo
from .data import DATA_DIR, data_lines, read_data as _read
from .groups import EnumerationUnproved, FinGroup, GroupId, OrderCapExceeded
from .linalg import CUBIC_MONOMIALS, MatC, cubic_compose

__all__ = [
    "GroupDefinition",
    "CatalogValidationError",
    "group_keys",
    "load_group",
    "build_group",
    "load_rank_rows",
    "table_rows",
]


class CatalogValidationError(RuntimeError):
    """Shipped data disagree: a definition or a table line failed a check,
    or a computed rank contradicts the rank table or the codimension-2 bounds."""


class GroupDefinition(NamedTuple):
    key: str
    name: str
    order: int
    group_id: GroupId
    cubic: tuple[CycloNum, ...]  # coefficients on CUBIC_MONOMIALS
    generators: tuple[MatC, ...]


@lru_cache(maxsize=None)
def group_keys() -> tuple[str, ...]:
    names = os.listdir(os.path.join(DATA_DIR, "groups"))
    return tuple(sorted(name[:-4] for name in names if name.endswith(".txt")))


@lru_cache(maxsize=None)
def load_group(key: str) -> GroupDefinition:
    """Parse one group definition file; raises KeyError on unknown keys.

    The ``key`` and ``variant`` headers document the file and are not read.
    """
    if key not in group_keys():
        raise KeyError(f"unknown catalog group {key!r}; known: {', '.join(group_keys())}")
    text = _read(f"groups/{key}.txt")
    header: dict[str, str] = {}
    gens: list[list[list[str]]] = []
    current: Optional[list[list[str]]] = None
    for line in data_lines(text):
        if line.startswith("generator ") and line.endswith(":"):
            current = []
            gens.append(current)
            continue
        if current is None:
            k, _, v = line.partition(":")
            header[k.strip()] = v.strip()
        else:
            current.append([e.strip() for e in line.split(",")])
    for name in ("id", "name", "order", "cubic"):
        if name not in header:
            raise CatalogValidationError(f"{key}: missing header {name!r}")
    try:
        order_s, id_s = header["id"].split(",")
        group_id = GroupId(int(order_s), int(id_s))
        order = int(header["order"])
        # each distinct literal is parsed once: a file repeats a few of them
        parsed: dict[str, CycloNum] = {}
        value = lambda s: parsed[s] if s in parsed else parsed.setdefault(s, parse_cyclo(s))
        cubic = tuple(value(c) for c in header["cubic"].split(","))
        mats = tuple(MatC([map(value, row) for row in g]) for g in gens)
    except (ValueError, ZeroDivisionError) as exc:
        raise CatalogValidationError(f"{key}: bad entry: {exc}") from None
    if not mats:
        raise CatalogValidationError(f"{key}: no generator block")
    for i, m in enumerate(mats, start=1):
        if m.dim != 6:
            raise CatalogValidationError(f"{key}: generator {i} is {m.dim}x{m.dim}, not 6x6")
    if len(cubic) != len(CUBIC_MONOMIALS) or all(c.is_zero for c in cubic):
        raise CatalogValidationError(
            f"{key}: the cubic needs {len(CUBIC_MONOMIALS)} coefficients, not all zero"
        )
    return GroupDefinition(
        key=key,
        name=header["name"],
        order=order,
        group_id=group_id,
        cubic=cubic,
        generators=mats,
    )


@lru_cache(maxsize=None)
def build_group(key: str) -> FinGroup:
    """Enumerate a catalog group (memoized in-process, like ``load_group``;
    a failure is not cached).

    Every generator must have determinant 1 and preserve the cubic,
    F(Mx) = F(x), so the action is symplectic (lambda^2 = det); and the
    enumerated order must match the definition, so enumeration stops as
    soon as it passes the declared order; every edge of the enumeration is
    proved exact (``FinGroup.generate``).  A failure is a validation error,
    not a silent fallback.
    """
    definition = load_group(key)
    for i, m in enumerate(definition.generators, start=1):
        det = m.det()
        if det != ONE:
            raise CatalogValidationError(
                f"{key}: generator {i} has determinant {det.to_string()}, not 1"
            )
        if cubic_compose(definition.cubic, m) != definition.cubic:
            raise CatalogValidationError(f"{key}: generator {i} does not preserve the cubic")
    try:
        group = FinGroup.generate(definition.generators, cap=definition.order)
    except OrderCapExceeded:
        raise CatalogValidationError(
            f"{key}: enumeration exceeds the declared order {definition.order}"
        ) from None
    except EnumerationUnproved as exc:
        raise CatalogValidationError(f"{key}: enumeration is not exact: {exc}") from None
    if group.n != definition.order:
        raise CatalogValidationError(
            f"{key}: enumerated order {group.n} != declared order {definition.order}"
        )
    return group


# -- tables -------------------------------------------------------------------


def table_rows(name: str, text: str, parse: Callable[[str], object]) -> list:
    """``parse`` of each line of the text of the shipped table ``name``; a
    line it refuses with a ValueError is a CatalogValidationError that
    names the file and quotes the line."""
    rows = []
    for line in data_lines(text):
        try:
            rows.append(parse(line))
        except ValueError as exc:
            raise CatalogValidationError(f"{name}: bad line {line!r}: {exc}") from None
    return rows


@lru_cache(maxsize=None)
def load_rank_rows() -> tuple[tuple[str, GroupId, int], ...]:
    def row(line: str) -> tuple[str, GroupId, int]:
        label, order, gid, rank = line.split()
        return label, GroupId(int(order), int(gid)), int(rank)
    return tuple(table_rows("rkl.table", _read("rkl.table"), row))
