#!/usr/bin/env python3
"""Regenerate the group definition data files from the vetted transcriptions.

Each file holds the generators and the ``cubic:`` line: the 56 coefficients,
on the monomials x_i*x_j*x_k (i <= j <= k) in
``combinations_with_replacement(range(6), 3)`` order, of a cubic form F that
every generator preserves.  Matrices act on column vectors, x -> Mx, so the
condition is F(Mx) = F(x).  F is derived here, not transcribed: it is a
nonzero vector of the intersection over the generators of the kernels of
Sym^3(M) - I, found by exact elimination.

Run from the repository root:  python3 scripts/gen_catalog_data.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fanoterm.cyclo import ONE, ZERO
from fanoterm.linalg import CUBIC_MONOMIALS, cubic_compose, mat_from_strings

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "fanoterm" / "data" / "groups"

W, W2 = "E(3)", "E(3)^2"


def ident_rows():
    return [["1" if i == j else "0" for j in range(6)] for i in range(6)]


def perm_rows(images):
    rows = [["0"] * 6 for _ in range(6)]
    for j, i in enumerate(images):
        rows[i][j] = "1"
    return rows


def diag_rows(entries):
    rows = [["0"] * 6 for _ in range(6)]
    for i, e in enumerate(entries):
        rows[i][i] = e
    return rows


def invariant_cubic(gens):
    """The cubic of a group: F with F(Mx) = F(x) for every generator M.

    Each generator contributes the rows of Sym^3(M) - I, whose column a is
    the image of the a-th monomial minus that monomial.  When the common
    kernel has dimension above one, F is the sum of its reduced basis.  F
    is scaled so that its first nonzero coefficient is 1.
    """
    n = len(CUBIC_MONOMIALS)
    unit = [tuple(ONE if a == b else ZERO for b in range(n)) for a in range(n)]
    rows = []
    for mat in gens:
        cols = [cubic_compose(unit[a], mat) for a in range(n)]
        for i in range(n):
            row = [cols[a][i] - unit[a][i] for a in range(n)]
            if any(not e.is_zero for e in row):
                rows.append(row)
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if not rows[i][col].is_zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col].inv()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        raise ValueError("the generators preserve no cubic form")
    coeffs = [ZERO] * n
    for f in free:
        coeffs[f] = coeffs[f] + ONE
        for i, p in enumerate(pivots):
            coeffs[p] = coeffs[p] - rows[i][f]
    lead = next(c for c in coeffs if not c.is_zero).inv()
    return [c * lead for c in coeffs]


C11 = "E(11)+E(11)^3+E(11)^4+E(11)^5+E(11)^9"
CC11 = f"-1-({C11})"

GROUPS = {}

GROUPS["C3_4_A6"] = dict(
    name="C3^4 : A6 (Fermat cubic)",
    order=29160,
    gid=(29160, 0),
    variant="monomial model: diagonal C3 block with zero exponent sum, plus A6 permutations",
    gens=[
        diag_rows(["1", W, "1", "1", "1", W2]),
        diag_rows(["1", "1", W, "1", "1", W2]),
        diag_rows(["1", "1", "1", W, "1", W2]),
        diag_rows(["1", "1", "1", "1", W, W2]),
        perm_rows([1, 2, 3, 4, 0, 5]),
        perm_rows([0, 2, 3, 4, 5, 1]),
    ],
)

GROUPS["A7_perm"] = dict(
    name="A7, first action (permutations of seven linear forms)",
    order=2520,
    gid=(2520, 0),
    variant="even permutations of {x0..x5, -x0-x1-x2-x3-x4-x5}",
    gens=[
        perm_rows([1, 2, 0, 3, 4, 5]),
        [
            ["0", "0", "0", "0", "1", "0"],
            ["0", "1", "0", "0", "0", "0"],
            ["0", "0", "0", "1", "0", "0"],
            ["0", "0", "0", "0", "0", "1"],
            ["-1", "-1", "-1", "-1", "-1", "-1"],
            ["0", "0", "1", "0", "0", "0"],
        ],
    ],
)

GROUPS["A7_second"] = dict(
    name="A7, second action",
    order=2520,
    gid=(2520, 0),
    variant="second linearization; dense generator with quadratic irrationalities",
    gens=[
        diag_rows(["1", "E(3)", "E(3)^2", "-1", "E(3)", "-E(3)^2"]),
        [
            ["1/2", "1/2", "1/2", "ER(5/3)/6", "ER(5/3)/6", "ER(5/3)/6"],
            ["1/2", "1/2*E(3)", "-1/2*E(6)", "ER(5/3)/6", "1/6*E(3)*ER(5/3)", "-1/36*ER(5)*(3*E(4)+ER(3))"],
            ["1/2", "-1/2*E(6)", "1/2*E(3)", "ER(5/3)/6", "-1/36*ER(5)*(3*E(4)+ER(3))", "1/6*E(3)*ER(5/3)"],
            ["ER(3/5)/2", "ER(3/5)/2", "ER(3/5)/2", "-1/2", "-1/2", "-1/2"],
            ["ER(3/5)/2", "1/2*E(3)*ER(3/5)", "-1/2*E(6)*ER(3/5)", "-1/2", "-1/2*E(3)", "1/2*E(6)"],
            ["ER(3/5)/2", "-1/2*E(6)*ER(3/5)", "1/2*E(3)*ER(3/5)", "-1/2", "1/2*E(6)", "-1/2*E(3)"],
        ],
    ],
)

T3 = "ER(3)/3"
GROUPS["G1944"] = dict(
    name="(C3^3 : C3^2) : Q8, order 1944",
    order=1944,
    gid=(1944, 3559),
    variant="extraspecial 3-group extension acting on a Fermat-plus-cross-term cubic",
    gens=[
        diag_rows([W, W, W, "1", "1", "1"]),
        diag_rows(["1", W, W2, "1", "1", "1"]),
        diag_rows(["1", "1", "1", "1", W, W2]),
        perm_rows([1, 2, 0, 3, 4, 5]),
        perm_rows([0, 1, 2, 4, 5, 3]),
        perm_rows([1, 0, 2, 4, 3, 5]),
        perm_rows([4, 3, 5, 0, 1, 2]),
        [
            [f"E(3)*{T3}", f"E(3)^2*{T3}", T3, "0", "0", "0"],
            [T3, T3, T3, "0", "0", "0"],
            [f"E(3)^2*{T3}", f"E(3)*{T3}", T3, "0", "0", "0"],
            ["0", "0", "0", f"E(3)^2*{T3}", f"E(3)*{T3}", T3],
            ["0", "0", "0", f"E(3)^2*{T3}", f"E(3)^2*{T3}", f"E(3)^2*{T3}"],
            ["0", "0", "0", f"E(3)^2*{T3}", T3, f"E(3)*{T3}"],
        ],
    ],
)

GROUPS["M10_first"] = dict(
    name="M10, first action",
    order=720,
    gid=(720, 765),
    variant="first linearization (Fermat-plus-cross-terms cubic)",
    gens=[
        perm_rows([0, 2, 1, 4, 3, 5]),
        [
            ["0", "1", "0", "0", "0", "0"],
            ["0", "0", W, "0", "0", "0"],
            ["0", "0", "0", "1", "0", "0"],
            [W2, "0", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0", "1"],
            ["0", "0", "0", "0", "1", "0"],
        ],
        [[f"({e})*ER(6)/6" for e in row] for row in [
            ["1", W, W2, W, "1", W],
            [W2, "1", "1", W, W, W],
            [W, "1", W2, W, W2, W2],
            [W2, W2, W, W, "1", W2],
            ["1", W2, "1", W, W2, "1"],
            [W2, W2, W2, W2, W2, W],
        ]],
    ],
)

GROUPS["M10_second"] = dict(
    name="M10, second action",
    order=720,
    gid=(720, 765),
    variant="second linearization; dense conductor-24 generator",
    gens=[
        [
            ["1/4*E(3)^2",
             "17/44*E(24)-1/22*E(24)^8+5/22*E(24)^11-4/11*E(24)^14-5/44*E(24)^16+3/22*E(24)^17+23/44*E(24)^19-6/11*E(24)^22",
             "3/22*E(24)+1/44*E(24)^8+4/11*E(24)^11+5/44*E(24)^14-1/44*E(24)^16-1/22*E(24)^17+13/44*E(24)^19-3/22*E(24)^22",
             "-5/44*E(24)-27/44*E(24)^8+1/11*E(24)^11+7/44*E(24)^14-9/44*E(24)^16-15/22*E(24)^17+1/2*E(24)^19-5/11*E(24)^22",
             "1/44*E(24)+1/11*E(24)^8-2/11*E(24)^11+1/22*E(24)^14-3/44*E(24)^16-1/22*E(24)^17+1/44*E(24)^19-1/4*E(24)^22",
             "-3/44*E(24)+5/11*E(24)^8-1/2*E(24)^11-1/22*E(24)^14+15/44*E(24)^16+4/11*E(24)^17-7/44*E(24)^19+5/44*E(24)^22"],
            ["17/44*E(24)+1/22*E(24)^8+5/22*E(24)^11+4/11*E(24)^14+5/44*E(24)^16+3/22*E(24)^17+23/44*E(24)^19+6/11*E(24)^22",
             "-1/4*E(3)^2",
             "-5/44*E(24)+27/44*E(24)^8+1/11*E(24)^11-7/44*E(24)^14+9/44*E(24)^16-15/22*E(24)^17+1/2*E(24)^19+5/11*E(24)^22",
             "3/22*E(24)-1/44*E(24)^8+4/11*E(24)^11-5/44*E(24)^14+1/44*E(24)^16-1/22*E(24)^17+13/44*E(24)^19+3/22*E(24)^22",
             "1/44*E(24)-1/11*E(24)^8-2/11*E(24)^11-1/22*E(24)^14+3/44*E(24)^16-1/22*E(24)^17+1/44*E(24)^19+1/4*E(24)^22",
             "-3/44*E(24)-5/11*E(24)^8-1/2*E(24)^11+1/22*E(24)^14-15/44*E(24)^16+4/11*E(24)^17-7/44*E(24)^19-5/44*E(24)^22"],
            ["11/292*E(24)-35/292*E(24)^8-10/73*E(24)^11+69/292*E(24)^14-23/292*E(24)^16-22/73*E(24)^17-17/73*E(24)^19+55/146*E(24)^22",
             "-155/146*E(24)-321/292*E(24)^8+119/146*E(24)^11+53/292*E(24)^14-115/292*E(24)^16-147/146*E(24)^17-121/292*E(24)^19+129/146*E(24)^22",
             "-1/4*E(12)^11",
             "-55/292*E(24)-11/73*E(24)^8-23/73*E(24)^11+83/146*E(24)^14+47/73*E(24)^16-36/73*E(24)^17-317/292*E(24)^19+253/292*E(24)^22",
             "-91/292*E(24)-51/146*E(24)^8+23/73*E(24)^11-5/73*E(24)^14-115/292*E(24)^16-1/146*E(24)^17+25/292*E(24)^19+39/292*E(24)^22",
             "93/292*E(24)+81/146*E(24)^8-43/146*E(24)^11+38/73*E(24)^14+217/292*E(24)^16+33/73*E(24)^17+29/292*E(24)^19-19/292*E(24)^22"],
            ["-155/146*E(24)+321/292*E(24)^8+119/146*E(24)^11-53/292*E(24)^14+115/292*E(24)^16-147/146*E(24)^17-121/292*E(24)^19-129/146*E(24)^22",
             "11/292*E(24)+35/292*E(24)^8-10/73*E(24)^11-69/292*E(24)^14+23/292*E(24)^16-22/73*E(24)^17-17/73*E(24)^19-55/146*E(24)^22",
             "-55/292*E(24)+11/73*E(24)^8-23/73*E(24)^11-83/146*E(24)^14-47/73*E(24)^16-36/73*E(24)^17-317/292*E(24)^19-253/292*E(24)^22",
             "1/4*E(12)^11",
             "-91/292*E(24)+51/146*E(24)^8+23/73*E(24)^11+5/73*E(24)^14+115/292*E(24)^16-1/146*E(24)^17+25/292*E(24)^19-39/292*E(24)^22",
             "93/292*E(24)-81/146*E(24)^8-43/146*E(24)^11-38/73*E(24)^14-217/292*E(24)^16+33/73*E(24)^17+29/292*E(24)^19+19/292*E(24)^22"],
            ["3/8*E(24)-1/2*E(24)^8+1/4*E(24)^14-3/8*E(24)^16+1/4*E(24)^17-1/8*E(24)^19+1/8*E(24)^22",
             "3/8*E(24)+1/2*E(24)^8-1/4*E(24)^14+3/8*E(24)^16+1/4*E(24)^17-1/8*E(24)^19-1/8*E(24)^22",
             "1/8*E(24)+1/4*E(24)^11+1/4*E(24)^14-3/8*E(24)^16-1/8*E(24)^19+1/8*E(24)^22",
             "1/8*E(24)+1/4*E(24)^11-1/4*E(24)^14+3/8*E(24)^16-1/8*E(24)^19-1/8*E(24)^22",
             "0",
             "E(24)-1/2*E(24)^11+1/2*E(24)^17-1/2*E(24)^19"],
            ["7/104*E(24)+3/26*E(24)^8-5/52*E(24)^11-9/52*E(24)^14+3/104*E(24)^16-3/13*E(24)^17-9/104*E(24)^19-11/104*E(24)^22",
             "7/104*E(24)-3/26*E(24)^8-5/52*E(24)^11+9/52*E(24)^14-3/104*E(24)^16-3/13*E(24)^17-9/104*E(24)^19+11/104*E(24)^22",
             "15/104*E(24)+2/13*E(24)^8+3/26*E(24)^11+1/52*E(24)^14+17/104*E(24)^16+17/52*E(24)^17-23/104*E(24)^19+7/104*E(24)^22",
             "15/104*E(24)-2/13*E(24)^8+3/26*E(24)^11-1/52*E(24)^14-17/104*E(24)^16+17/52*E(24)^17-23/104*E(24)^19-7/104*E(24)^22",
             "-3/26*E(24)-5/26*E(24)^11+1/26*E(24)^17+1/13*E(24)^19",
             "0"],
        ],
        diag_rows(["1", "-1", "E(4)", "-E(4)", "E(8)^7", "-E(8)"]),
    ],
)

GROUPS["L2_11"] = dict(
    name="L2(11) = PSL(2,F11)",
    order=660,
    gid=(660, 13),
    variant="involution h1 and order-3 h2 over Q(zeta_11); (h1*h2)^11 = 1. "
            "The final entry of h1's fifth row is -c: the printed source drops the sign, "
            "and only the sign-corrected matrix has finite order.",
    gens=[
        [
            ["1", "0", "0", "0", "0", "0"],
            ["0", "0", "1", "0", "0", "0"],
            ["0", "1", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0", "1"],
            ["0", "1", "-1", C11, "1", f"-({C11})"],
            ["0", "0", "0", "1", "0", "0"],
        ],
        [
            ["1", "0", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "1", "0"],
            ["0", "0", "0", "1", "0", "0"],
            ["0", "0", "-1", "-1", "0", "0"],
            ["0", f"-({CC11})", "0", "0", "-1", f"-({C11})-2*({CC11})"],
            ["0", "1", "0", "0", "-1", "1"],
        ],
    ],
)

GROUPS["A3_5"] = dict(
    name="A3,5 = (S3 x S5) ∩ A8",
    order=360,
    gid=(360, 120),
    variant="permutations of {x0,x1,-x0-x1} times {x2..x5,-x2-x3-x4-x5}, even overall",
    gens=[
        [
            ["0", "-1", "0", "0", "0", "0"],
            ["1", "-1", "0", "0", "0", "0"],
            ["0", "0", "1", "0", "0", "0"],
            ["0", "0", "0", "1", "0", "0"],
            ["0", "0", "0", "0", "1", "0"],
            ["0", "0", "0", "0", "0", "1"],
        ],
        perm_rows([1, 0, 3, 2, 4, 5]),
        [
            ["1", "0", "0", "0", "0", "0"],
            ["0", "1", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0", "-1"],
            ["0", "0", "1", "0", "0", "-1"],
            ["0", "0", "0", "1", "0", "-1"],
            ["0", "0", "0", "0", "1", "-1"],
        ],
    ],
)

GROUPS["Q8_S3"] = dict(
    name="Q8 : S3 = GL(2,3)",
    order=48,
    gid=(48, 29),
    variant="one-dimensional moduli; generators n1, n2 for S3 and n3, n4 for Q8",
    gens=[
        [
            ["1", "0", "0", "0", "0", "0"],
            ["0", "0", "1", "0", "0", "0"],
            ["0", "1", "0", "0", "0", "0"],
            ["0", "0", "0", "1", "0", "0"],
            ["0", "0", "0", "0", "ER(2)/2", "E(4)*ER(2)/2"],
            ["0", "0", "0", "0", "-E(4)*ER(2)/2", "-ER(2)/2"],
        ],
        [
            ["1", "0", "0", "0", "0", "0"],
            ["0", "1", "0", "0", "0", "0"],
            ["0", "0", "0", "1", "0", "0"],
            ["0", "0", "1", "0", "0", "0"],
            ["0", "0", "0", "0", "0", "E(8)^5"],
            ["0", "0", "0", "0", "E(8)^3", "0"],
        ],
        [
            ["1", "0", "0", "0", "0", "0"],
            ["0", "-1", "0", "0", "0", "0"],
            ["0", "0", "1", "0", "0", "0"],
            ["0", "0", "0", "-1", "0", "0"],
            ["0", "0", "0", "0", "0", "-1"],
            ["0", "0", "0", "0", "1", "0"],
        ],
        diag_rows(["1", "1", "-1", "-1", "E(4)", "-E(4)"]),
    ],
)


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for key, spec in GROUPS.items():
        lines = [
            f"name: {spec['name']}",
            f"key: {key}",
            f"order: {spec['order']}",
            f"id: {spec['gid'][0]},{spec['gid'][1]}",
            f"variant: {spec['variant']}",
        ]
        cubic = invariant_cubic([mat_from_strings(rows) for rows in spec["gens"]])
        lines.append("cubic: " + ", ".join(c.to_string() for c in cubic))
        for gi, rows in enumerate(spec["gens"], start=1):
            lines.append(f"generator {gi}:")
            for row in rows:
                lines.append(", ".join(row))
        (OUT / f"{key}.txt").write_text("\n".join(lines) + "\n")
        print("wrote", key)


if __name__ == "__main__":
    main()
