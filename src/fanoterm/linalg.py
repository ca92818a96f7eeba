"""Exact dense linear algebra over cyclotomic numbers.

Matrices are immutable values; products exploit row sparsity and compute
each entry as one fused dot product (``cyclo.dot``).  One Faddeev-LeVerrier
recursion gives the characteristic polynomial and the determinant, so no
elimination runs: only divisions by 1..dim occur.  There is no matrix
power or inverse: a group's elements are multiplied and inverted by index
(``groups.FinGroup``).
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Optional, Sequence

from .cyclo import ONE, ZERO, CycloNum, dot, parse_cyclo, rational

__all__ = [
    "MatC",
    "identity",
    "diag",
    "perm_mat",
    "scalar_mat",
    "mat_from_strings",
    "CUBIC_MONOMIALS",
    "cubic_eval",
    "cubic_compose",
]


class MatC:
    """A dim x dim matrix of canonical cyclotomic entries."""

    __slots__ = ("rows", "dim", "_nnz")

    def __init__(self, rows: Sequence[Sequence[CycloNum]]):
        rows = tuple(tuple(r) for r in rows)
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_nnz", None)

    def __setattr__(self, name, value):
        raise AttributeError("MatC is immutable")

    def __hash__(self) -> int:
        return hash(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, MatC) and self.rows == other.rows

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    @property
    def nnz(self) -> tuple[tuple[int, ...], ...]:
        """Column indices of the nonzero entries, per row (zero is hash-consed,
        so it is the one value ``ZERO``)."""
        cached = self._nnz
        if cached is None:
            cached = tuple(
                tuple(j for j, e in enumerate(row) if e is not ZERO) for row in self.rows
            )
            object.__setattr__(self, "_nnz", cached)
        return cached

    # -- arithmetic -------------------------------------------------------

    def __mul__(self, other: "MatC") -> "MatC":
        if not isinstance(other, MatC):
            return NotImplemented
        return self.times(other)

    def times(self, other: "MatC", head: Sequence[CycloNum] = ()) -> "MatC":
        """The product self other, whose first row starts with ``head``,
        entries known already and not computed again."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        d = self.dim
        arows = self.rows
        annz = self.nnz
        brows = other.rows
        bnnz = other.nnz
        out = []
        for i in range(d):
            arow = arows[i]
            terms: list[list] = [[] for _ in range(d)]
            for k in annz[i]:
                aik = arow[k]
                brow = brows[k]
                for j in bnnz[k]:
                    terms[j].append((aik, brow[j]))
            out.append([*head, *map(dot, terms[len(head):])])
            head = ()
        return MatC(out)

    def scale(self, c: CycloNum) -> "MatC":
        return MatC([[c * e for e in row] for row in self.rows])

    def add(self, other: "MatC") -> "MatC":
        return MatC(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def trace(self) -> CycloNum:
        return dot([(row[i], ONE) for i, row in enumerate(self.rows)])

    def char_poly(self) -> tuple[CycloNum, ...]:
        """Monic characteristic polynomial det(tI - A) as its tuple of
        coefficients, ascending degree, by the Faddeev-LeVerrier recursion
        M_1 = I, c_(d-k) = -tr(A M_k) / k, M_(k+1) = A M_k + c_(d-k) I, so
        only divisions by 1..dim occur."""
        d = self.dim
        coeffs = [ONE]  # c_d, c_(d-1), ..., c_0 as they are computed
        am = self  # A M_k
        for k in range(1, d + 1):
            c = am.trace() * rational(-1, k)
            coeffs.append(c)
            if k < d:
                am = self * am.add(scalar_mat(d, c))
        return tuple(reversed(coeffs))

    def det(self) -> CycloNum:
        c0 = self.char_poly()[0]
        return c0 if self.dim % 2 == 0 else -c0

    def to_strings(self) -> list[list[str]]:
        return [[e.to_string() for e in row] for row in self.rows]

    def __repr__(self) -> str:
        body = "; ".join(",".join(e.to_string() for e in row) for row in self.rows)
        return f"MatC[{body}]"


def identity(d: int) -> MatC:
    return MatC([[ONE if i == j else ZERO for j in range(d)] for i in range(d)])


def scalar_mat(d: int, c: CycloNum) -> MatC:
    return MatC([[c if i == j else ZERO for j in range(d)] for i in range(d)])


def diag(entries: Sequence[CycloNum]) -> MatC:
    d = len(entries)
    return MatC([[entries[i] if i == j else ZERO for j in range(d)] for i in range(d)])


def perm_mat(images: Sequence[int], dim: Optional[int] = None) -> MatC:
    """Permutation matrix P with P e_j = e_images[j]."""
    d = dim if dim is not None else len(images)
    images = list(images) + list(range(len(images), d))
    rows = [[ZERO] * d for _ in range(d)]
    for j, i in enumerate(images):
        rows[i][j] = ONE
    return MatC(rows)


def mat_from_strings(rows: Sequence[Sequence[str]]) -> MatC:
    return MatC([[parse_cyclo(s) for s in row] for row in rows])


# -- cubic forms in six variables -------------------------------------------------

# A cubic form is the tuple of its coefficients on these monomials
# x_i*x_j*x_k, i <= j <= k, in this order.
CUBIC_MONOMIALS = tuple(combinations_with_replacement(range(6), 3))
_MONOMIAL_INDEX = {m: i for i, m in enumerate(CUBIC_MONOMIALS)}


def cubic_eval(coeffs: Sequence[CycloNum], point: Sequence[CycloNum]) -> CycloNum:
    """The value F(p) of a cubic form at a point."""
    return dot([(c, point[i] * point[j] * point[k])
                for c, (i, j, k) in zip(coeffs, CUBIC_MONOMIALS) if not c.is_zero])


def cubic_compose(coeffs: Sequence[CycloNum], mat: MatC) -> tuple[CycloNum, ...]:
    """The coefficients of the cubic form x -> F(Mx), M acting on column vectors.

    F is grouped as the sum over i <= j of x_i*x_j times a linear form in
    x_j..x_5, so each product (Mx)_i*(Mx)_j is expanded once.
    """
    forms = [[(j, e) for j, e in enumerate(row) if not e.is_zero] for row in mat.rows]
    out: list[list] = [[] for _ in CUBIC_MONOMIALS]  # the terms of each coefficient
    for i in range(6):
        for j in range(i, 6):
            tail: list[list] = [[] for _ in range(6)]  # the image of sum_k c_ijk x_k
            for k in range(j, 6):
                c = coeffs[_MONOMIAL_INDEX[(i, j, k)]]
                if not c.is_zero:
                    for b, e in forms[k]:
                        tail[b].append((c, e))
            tail_terms = [(c, e) for c, e in enumerate(map(dot, tail)) if not e.is_zero]
            if not tail_terms:
                continue
            quad: dict[tuple[int, int], list] = {}
            for a, ea in forms[i]:
                for b, eb in forms[j]:
                    quad.setdefault((a, b) if a <= b else (b, a), []).append((ea, eb))
            for (a, b), terms in quad.items():
                q = dot(terms)
                if not q.is_zero:
                    for c, e in tail_terms:
                        out[_MONOMIAL_INDEX[tuple(sorted((a, b, c)))]].append((q, e))
    return tuple(map(dot, out))
