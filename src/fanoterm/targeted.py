"""The ``--subgroup`` grammar, imported by ``table --mode targeted`` only.

A malformed value raises ``SubgroupSpecError``, which the command line
reports as an input error.  This module must not import ``fanoterm.cli``:
under ``python -m`` that would load a second command line, whose error
class ``main`` does not catch.
"""

from __future__ import annotations

import re
from typing import Sequence

from .cyclo import MAX_NESTING
from .groups import FinGroup, GroupView
from .linalg import mat_from_strings

__all__ = ["SubgroupSpecError", "parse_subgroup_spec"]


class SubgroupSpecError(ValueError):
    """A --subgroup value that does not name elements of the ambient."""


_WORD_TOKEN = re.compile(r"\s*(g\d+|\^|\*|\(|\)|-?\d+)")


def _clip(text: str) -> str:
    """User input as an error line echoes it: at most 60 characters, then an
    ellipsis."""
    return text if len(text) <= 60 else text[:60] + "…"


def _parse_word(expr: str, group: FinGroup, gens: Sequence[int]) -> int:
    """The element index of a product expression over the catalog
    generators, such as g1*g2^2 with parens, where ``gens`` holds the
    generators' indices.  It is evaluated in the Cayley graph: ``*`` is
    ``group.mult``, and x^k is k mod the order of x products by x, so a
    negative or huge exponent needs no inverse."""
    toks = []
    pos = 0
    while pos < len(expr):
        m = _WORD_TOKEN.match(expr, pos)
        if not m:
            if expr[pos:].strip():
                raise SubgroupSpecError(f"bad token in generator word: {_clip(expr[pos:])!r}")
            break
        toks.append(m.group(1))
        pos = m.end()
    state = {"i": 0, "depth": 0}

    def peek():
        return toks[state["i"]] if state["i"] < len(toks) else None

    def take():
        t = peek()
        state["i"] += 1
        return t

    def number(t: str) -> int:
        try:
            return int(t)
        except ValueError:  # past the interpreter's limit on digits
            raise SubgroupSpecError("number in generator word has too many digits") from None

    def atom() -> int:
        t = take()
        if t == "(":
            state["depth"] += 1
            if state["depth"] > MAX_NESTING:
                raise SubgroupSpecError(f"word nested deeper than {MAX_NESTING} parentheses")
            out = product()
            if take() != ")":
                raise SubgroupSpecError(f"unbalanced parentheses in word {_clip(expr)!r}")
            state["depth"] -= 1
        elif t and t.startswith("g"):
            k = number(t[1:])
            if not 1 <= k <= len(gens):
                raise SubgroupSpecError(
                    f"generator {_clip(t)} out of range; group has {len(gens)} generators"
                )
            out = gens[k - 1]
        else:
            raise SubgroupSpecError(f"unexpected token {_clip(repr(t))} in word {_clip(expr)!r}")
        if peek() == "^":
            take()
            e = take()
            if e is None or not re.fullmatch(r"-?\d+", e):
                raise SubgroupSpecError(f"bad exponent in word {_clip(expr)!r}")
            x, out = out, 0
            for _ in range(number(e) % group.order_of(x)):
                out = group.mult(out, x)
        return out

    def product() -> int:
        out = atom()
        while peek() == "*":
            take()
            out = group.mult(out, atom())
        return out

    result = product()
    if peek() is not None:
        raise SubgroupSpecError(f"trailing tokens in word {_clip(expr)!r}")
    return result


def parse_subgroup_spec(spec: str, group: FinGroup, gens: Sequence[int]) -> list[int]:
    """The element indices of one --subgroup value: comma-separated
    generator words (``_parse_word``), or an inline matrix of the form
    mat:entry,...;entry,...  (rows split by ';'), found by ``index_of``."""
    if spec.startswith("mat:"):
        rows = [cell.split(",") for cell in spec[4:].split(";")]
        try:
            return [group.index_of(mat_from_strings(rows))]
        except KeyError:
            raise SubgroupSpecError(
                f"subgroup specification {_clip(spec)!r} leaves the ambient group"
            )
        except (ValueError, ZeroDivisionError) as exc:
            raise SubgroupSpecError(
                f"bad matrix in subgroup specification {_clip(spec)!r}: {_clip(str(exc))}"
            )
    return [_parse_word(part, group, gens) for part in spec.split(",") if part.strip()]


def _resolve_subgroups(group, definition, specs: Sequence[str]) -> list[GroupView]:
    gens = [group.index_of(g) for g in definition.generators]
    return [group.subgroup(gens=parse_subgroup_spec(spec, group, gens)) for spec in specs]
