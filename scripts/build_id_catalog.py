#!/usr/bin/env python3
"""Build the group-identification catalog (fingerprint -> small-group id).

Every id is anchored by an explicitly constructed reference model:
permutation groups, monomial matrix groups, linear groups over F3, and
projective-line actions.  Ids follow the standard small-group numbering;
the catalog ships as data and the test suite cross-validates it against
the classification fixtures.

Run from the repository root:  python3 scripts/build_id_catalog.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fanoterm.cyclo import ONE, root_of_unity
from fanoterm.groups import FinGroup, fingerprint
from fanoterm.linalg import MatC, diag, perm_mat

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "fanoterm" / "data" / "idcatalog.data"

W = root_of_unity(3, 1)
I4 = root_of_unity(4, 1)
Z8 = root_of_unity(8, 1)
Z5 = root_of_unity(5, 1)
Z9 = root_of_unity(9, 1)


def cycles_to_images(cycles, degree):
    images = list(range(degree))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            images[a] = cyc[(i + 1) % len(cyc)]
    return images


def pg(degree, *gens_cycles):
    """Permutation group from cycle lists."""
    mats = [perm_mat(cycles_to_images(cycs, degree)) for cycs in gens_cycles]
    return FinGroup.generate(mats, cap=60000)


def mg(*mats):
    # pad with an identity coordinate: the enumeration works modulo scalars,
    # and the extra slot keeps central elements visible
    padded = [direct_sum(m, diag([ONE])) for m in mats]
    return FinGroup.generate(padded, cap=60000)


def direct_sum(*mats):
    """Block-diagonal matrix from square blocks."""
    d = sum(m.dim for m in mats)
    from fanoterm.cyclo import ZERO

    rows = [[ZERO] * d for _ in range(d)]
    off = 0
    for m in mats:
        for i in range(m.dim):
            for j in range(m.dim):
                rows[off + i][off + j] = m.rows[i][j]
        off += m.dim
    return MatC(rows)


def cyclic(n):
    return pg(n, [tuple(range(n))])


def dihedral(n):
    # D_{2n} on an n-gon
    rot = [tuple(range(n))]
    refl = [tuple((i, (n - i) % n) for i in range(1, (n + 1) // 2))]
    refl_c = [c for c in refl[0] if len(set(c)) == 2]
    return pg(n, rot, refl_c)


def abelian(*orders):
    degree = sum(orders)
    cycles = []
    off = 0
    for o in orders:
        cycles.append([tuple(range(off, off + o))])
        off += o
    return pg(degree, *cycles)


# --- linear models over F3 ---------------------------------------------------


def _f3_vectors():
    return [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]


def f3_linear_perm(mat2):
    """Permutation of the 8 nonzero vectors of F3^2 induced by a 2x2 matrix."""
    vecs = _f3_vectors()
    idx = {v: i for i, v in enumerate(vecs)}
    images = [0] * 8
    (a, b), (c, d) = mat2
    for v, i in idx.items():
        w = ((a * v[0] + b * v[1]) % 3, (c * v[0] + d * v[1]) % 3)
        images[i] = idx[w]
    return perm_mat(images)


def agl_group(mats2):
    pts = [(a, b) for a in range(3) for b in range(3)]
    idx = {v: i for i, v in enumerate(pts)}
    gens = []
    for t in [(1, 0), (0, 1)]:
        gens.append(perm_mat([idx[((v[0] + t[0]) % 3, (v[1] + t[1]) % 3)] for v in pts]))
    for (a, b), (c, d) in mats2:
        gens.append(perm_mat([idx[((a * v[0] + b * v[1]) % 3, (c * v[0] + d * v[1]) % 3)] for v in pts]))
    return FinGroup.generate(gens, cap=2000)


# --- projective-line models ---------------------------------------------------


def psl2_prime(q):
    """PSL(2, q) for prime q, on the q+1 projective points."""
    pts = list(range(q)) + ["inf"]
    idx = {p: i for i, p in enumerate(pts)}

    def shift(p):
        return "inf" if p == "inf" else (p + 1) % q

    def inv_neg(p):
        if p == "inf":
            return 0
        if p == 0:
            return "inf"
        return (-pow(p, q - 2, q)) % q

    g1 = perm_mat([idx[shift(p)] for p in pts])
    g2 = perm_mat([idx[inv_neg(p)] for p in pts])
    return FinGroup.generate([g1, g2], cap=60000)


class F9:
    """Tiny F9 = F3[i] arithmetic for the degree-10 models."""

    els = [(a, b) for a in range(3) for b in range(3)]

    @staticmethod
    def add(x, y):
        return ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3)

    @staticmethod
    def mul(x, y):
        # (a+bi)(c+di) with i^2 = -1
        a, b = x
        c, d = y
        return ((a * c - b * d) % 3, (a * d + b * c) % 3)

    @staticmethod
    def inv(x):
        for y in F9.els:
            if F9.mul(x, y) == (1, 0):
                return y
        raise ZeroDivisionError

    @staticmethod
    def neg(x):
        return ((-x[0]) % 3, (-x[1]) % 3)

    @staticmethod
    def cube(x):
        return F9.mul(F9.mul(x, x), x)


def _f9_points():
    return F9.els + ["inf"]


def _f9_perm(f):
    pts = _f9_points()
    idx = {p: i for i, p in enumerate(pts)}
    return perm_mat([idx[f(p)] for p in pts])


def psl2_9():
    def shift(p):
        return "inf" if p == "inf" else F9.add(p, (1, 0))

    def inv_neg(p):
        if p == "inf":
            return (0, 0)
        if p == (0, 0):
            return "inf"
        return F9.neg(F9.inv(p))

    return FinGroup.generate([_f9_perm(shift), _f9_perm(inv_neg)], cap=2000)


def m10():
    """A6 extended by x -> nu * x^3 with nu a nonsquare: the point
    stabilizer model of degree 10."""

    def shift(p):
        return "inf" if p == "inf" else F9.add(p, (1, 0))

    def inv_neg(p):
        if p == "inf":
            return (0, 0)
        if p == (0, 0):
            return "inf"
        return F9.neg(F9.inv(p))

    nu = (1, 1)  # 1 + i, a nonsquare in F9

    def twist(p):
        if p == "inf":
            return "inf"
        return F9.mul(nu, F9.cube(p))

    g = FinGroup.generate([_f9_perm(shift), _f9_perm(inv_neg), _f9_perm(twist)], cap=2000)
    hist = dict(fingerprint(g.view).order_histogram)
    assert 8 in hist and 10 not in hist, "degree-10 extension is not the expected one"
    return g


# --- monomial 2x2 models -------------------------------------------------------


def mono2(a, b):
    from fanoterm.cyclo import ZERO

    return MatC([[a, ZERO], [ZERO, b]])


def anti2(a, b):
    from fanoterm.cyclo import ZERO

    return MatC([[ZERO, a], [b, ZERO]])


NEG1 = -ONE

RECIPES = {}


def recipe(order, gid, builder):
    RECIPES[(order, gid)] = builder


# cyclic groups
for n, gid in [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1), (8, 1), (9, 1), (11, 1), (13, 1), (15, 1), (16, 1)]:
    recipe(n, gid, (lambda n=n: cyclic(n)))
recipe(6, 2, lambda: cyclic(6))
recipe(10, 2, lambda: cyclic(10))
recipe(12, 2, lambda: cyclic(12))
recipe(14, 2, lambda: cyclic(14))
recipe(18, 2, lambda: cyclic(18))
recipe(20, 2, lambda: cyclic(20))
recipe(21, 2, lambda: cyclic(21))
recipe(24, 2, lambda: cyclic(24))
recipe(30, 4, lambda: cyclic(30))

# other abelian groups
recipe(4, 2, lambda: abelian(2, 2))
recipe(8, 2, lambda: abelian(4, 2))
recipe(8, 5, lambda: abelian(2, 2, 2))
recipe(9, 2, lambda: abelian(3, 3))
recipe(12, 5, lambda: abelian(6, 2))
recipe(18, 5, lambda: abelian(6, 3))
recipe(20, 5, lambda: abelian(10, 2))
recipe(24, 9, lambda: abelian(12, 2))
recipe(24, 15, lambda: abelian(6, 2, 2))
recipe(27, 2, lambda: abelian(9, 3))
recipe(27, 5, lambda: abelian(3, 3, 3))
recipe(36, 8, lambda: abelian(12, 3))
recipe(36, 14, lambda: abelian(6, 6))
recipe(81, 15, lambda: abelian(3, 3, 3, 3))

# dihedral groups
recipe(6, 1, lambda: dihedral(3))
recipe(8, 3, lambda: dihedral(4))
recipe(10, 1, lambda: dihedral(5))
recipe(12, 4, lambda: dihedral(6))
recipe(14, 1, lambda: dihedral(7))
recipe(16, 7, lambda: dihedral(8))
recipe(18, 1, lambda: dihedral(9))
recipe(20, 4, lambda: dihedral(10))
recipe(24, 6, lambda: dihedral(12))
recipe(30, 3, lambda: dihedral(15))
recipe(36, 4, lambda: dihedral(18))

# dicyclic / quaternion (monomial 2x2 models)
recipe(8, 4, lambda: mg(mono2(I4, -I4), anti2(ONE, NEG1)))
recipe(16, 9, lambda: mg(mono2(Z8, Z8 ** 7), anti2(ONE, NEG1)))
recipe(12, 1, lambda: mg(mono2(W, W * W), anti2(ONE, NEG1)))
recipe(20, 1, lambda: mg(mono2(Z5, Z5 ** 4), anti2(ONE, NEG1)))
recipe(24, 4, lambda: mg(mono2(W, W * W), mono2(I4, -I4), anti2(ONE, NEG1)))

# other 2-groups
recipe(16, 8, lambda: mg(mono2(Z8, Z8 ** 3), anti2(ONE, ONE)))  # semidihedral

# symmetric / alternating and friends
recipe(12, 3, lambda: pg(4, [(0, 1, 2)], [(0, 1), (2, 3)]))
recipe(24, 12, lambda: pg(4, [(0, 1, 2, 3)], [(0, 1)]))
recipe(60, 5, lambda: pg(5, [(0, 1, 2)], [(0, 1, 2, 3, 4)]))
recipe(120, 34, lambda: pg(5, [(0, 1, 2, 3, 4)], [(0, 1)]))
recipe(360, 118, lambda: pg(6, [(0, 1, 2)], [(1, 2, 3, 4, 5)]))
recipe(24, 13, lambda: pg(6, [(0, 1, 2)], [(0, 1), (2, 3)], [(4, 5)]))
recipe(24, 14, lambda: pg(7, [(0, 1)], [(2, 3)], [(4, 5, 6)], [(4, 5)]))
recipe(24, 5, lambda: pg(7, [(0, 1, 2, 3)], [(4, 5, 6)], [(4, 5)]))
recipe(24, 10, lambda: pg(7, [(0, 1, 2)], [(3, 4, 5, 6)], [(3, 5)]))
recipe(24, 7, lambda: mg(direct_sum(mono2(W, W * W), diag([NEG1])),
                         direct_sum(anti2(ONE, NEG1), diag([ONE])),
                         direct_sum(mono2(ONE, ONE), diag([NEG1]))))
recipe(24, 11, lambda: mg(direct_sum(mono2(I4, -I4), diag([ONE])),
                          direct_sum(anti2(ONE, NEG1), diag([ONE])),
                          direct_sum(mono2(ONE, ONE), diag([W]))))
recipe(24, 1, lambda: mg(mono2(W, W * W), anti2(ONE, I4)))
# the C3:D8 with dihedral part acting through its Klein quotient (contains
# a dicyclic C3:C4, unlike the variant with cyclic kernel, which is D24)
recipe(24, 8, lambda: pg(7, [(0, 1, 2)], [(0, 1), (3, 4, 5, 6)], [(0, 1), (3, 5)]))
recipe(18, 3, lambda: pg(6, [(0, 1, 2)], [(3, 4, 5)], [(3, 4)]))
recipe(18, 4, lambda: pg(6, [(0, 1, 2)], [(3, 4, 5)], [(1, 2), (4, 5)]))
recipe(20, 3, lambda: pg(5, [(0, 1, 2, 3, 4)], [(1, 2, 4, 3)]))
recipe(21, 1, lambda: pg(7, [(0, 1, 2, 3, 4, 5, 6)], [(1, 2, 4), (3, 6, 5)]))
recipe(30, 1, lambda: pg(8, [(0, 1, 2, 3, 4)], [(5, 6, 7)], [(5, 6)]))
recipe(30, 2, lambda: pg(8, [(0, 1, 2)], [(3, 4, 5, 6, 7)], [(4, 7), (5, 6)]))
recipe(55, 1, lambda: pg(11, [tuple(range(11))],
                         [(1, 3, 9, 5, 4), (2, 6, 7, 10, 8)]))

# order 27 nonabelian
recipe(27, 3, lambda: mg(diag([ONE, W, W * W]), perm_mat([1, 2, 0])))
recipe(27, 4, lambda: mg(diag([Z9, Z9 ** 4, Z9 ** 7]), perm_mat([1, 2, 0])))

# order 36
recipe(36, 9, lambda: pg(6, [(0, 1, 2)], [(3, 4, 5)], [(0, 3), (1, 4, 2, 5)]))
recipe(36, 10, lambda: pg(6, [(0, 1, 2)], [(0, 1)], [(3, 4, 5)], [(3, 4)]))
recipe(36, 11, lambda: pg(7, [(0, 1, 2)], [(3, 4, 5)], [(3, 4), (5, 6)]))
recipe(36, 12, lambda: pg(9, [(0, 1, 2, 3, 4, 5)], [(6, 7, 8)], [(6, 7)]))

# order 60/72/180 composites
recipe(60, 7, lambda: pg(8, [(0, 1, 2)], [(3, 4, 5, 6, 7)], [(0, 1), (4, 5, 7, 6)]))
recipe(180, 19, lambda: pg(8, [(0, 1, 2)], [(3, 4, 5)], [(3, 4, 5, 6, 7)]))
recipe(72, 41, lambda: agl_group([((0, 2), (1, 0)), ((1, 1), (1, 2))]))
recipe(72, 43, lambda: pg(7, [(0, 1, 2)], [(3, 4, 5)], [(0, 1), (3, 4)], [(0, 1), (3, 4, 5, 6)]))

# linear groups (S = [[0,-1],[1,0]] and the shear T generate SL(2,3))
recipe(24, 3, lambda: mg(f3_linear_perm(((0, 2), (1, 0))), f3_linear_perm(((1, 1), (0, 1)))))
recipe(48, 29, lambda: mg(f3_linear_perm(((0, 2), (1, 0))), f3_linear_perm(((1, 1), (0, 1))),
                          f3_linear_perm(((1, 0), (0, 2)))))
recipe(168, 42, lambda: psl2_prime(7))
recipe(660, 13, lambda: psl2_prime(11))
recipe(720, 765, m10)


def a35_model():
    return pg(8, [(0, 1, 2)], [(3, 4, 5, 6, 7)], [(0, 1), (3, 4)])


recipe(360, 120, a35_model)


def g1944_model():
    from fanoterm.catalog import load_group

    return FinGroup.generate(list(load_group("G1944").generators), cap=3000)


recipe(1944, 3559, g1944_model)


def fermat_s4_model():
    # C3^4 : S4(mixed) inside the monomial Fermat family
    w2 = W * W
    dg = [diag([ONE, W, ONE, ONE, ONE, w2]), diag([ONE, ONE, W, ONE, ONE, w2]),
          diag([ONE, ONE, ONE, W, ONE, w2]), diag([ONE, ONE, ONE, ONE, W, w2])]
    perms = [perm_mat([1, 0, 2, 3, 5, 4]),  # (01)(45)
             perm_mat([1, 2, 3, 0, 5, 4])]  # (0123)(45)
    return FinGroup.generate(dg + perms, cap=3000)


recipe(1944, 3877, fermat_s4_model)


def g108_37_model():
    # the explicitly printed rank-19 order-108 monomial group
    g = diag([ONE, ONE, ONE, W, W, W])
    a = diag([ONE, ONE, ONE, ONE, W, W * W]) * perm_mat([1, 2, 0, 3, 4, 5])
    b = diag([ONE, W * W, W, ONE, ONE, ONE]) * perm_mat([0, 1, 2, 4, 5, 3])
    c = perm_mat([3, 4, 5, 0, 2, 1])
    return FinGroup.generate([g, a, b, c], cap=500)


recipe(108, 37, g108_37_model)


def catalog_text():
    """The catalog file text, one line per recipe; exits naming both ids
    when two recipes share a tier-1 fingerprint."""
    lines = ["# order id | tier1 fingerprint"]
    seen = {}
    for (order, gid), builder in sorted(RECIPES.items()):
        group = builder()
        if group.n != order:
            raise SystemExit(f"recipe ({order},{gid}) built a group of order {group.n}")
        t1 = tuple(fingerprint(group.view))
        if t1 in seen:
            raise SystemExit(f"fingerprint collision between ({order},{gid}) and {seen[t1]}")
        seen[t1] = (order, gid)
        lines.append(f"{order} {gid} | {t1!r}")
    return "\n".join(lines) + "\n"


def main():
    OUT.write_text(catalog_text())
    print(f"wrote {OUT} with {len(RECIPES)} entries")


if __name__ == "__main__":
    main()
