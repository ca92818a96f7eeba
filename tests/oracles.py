"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive: Fraction- and integer-coefficient
polynomial arithmetic with textbook long division (cyclotomic polynomials
from the Moebius product of the x^d - 1), cyclotomic sums of products by
schoolbook convolution, a direct trace over monomials
for ranks on the Fermat cubic, element-by-element scans of the group
table for the L3 set and the singular invariants, subgroup closures
rebuilt breadth-first from the identity, the center by commuting with
every element, normal closures grown to a fixpoint of conjugates, a
subgroup-class sweep that
joins every class with every cyclic subgroup by word-walk products and
those closures, an enumeration by one exact product per Cayley-graph
edge, and a reader of cyclotomic literals that adds, multiplies and
powers one operation at a time, so results never depend on the code
paths under test.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cyclo_poly_product(*factors: tuple) -> tuple:
    """The product of polynomials with cyclotomic coefficients, each an
    ascending coefficient tuple like ``MatC.char_poly()``."""
    from fanoterm.cyclo import ONE, ZERO

    out = (ONE,)
    for f in factors:
        prod = [ZERO] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] = prod[i + j] + x * y
        out = tuple(prod)
    return out


def poly_at_matrix(coeffs: tuple, m):
    """Horner evaluation of an ascending coefficient tuple at a matrix."""
    from fanoterm.linalg import scalar_mat

    acc = scalar_mat(m.dim, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = (acc * m).add(scalar_mat(m.dim, c))
    return acc


def cayley_hamilton_inverse(m):
    """The inverse of an invertible matrix from its characteristic
    polynomial c_0 + c_1 t + ... + t^d: m^-1 = -(c_1 + c_2 m + ... +
    m^(d-1)) / c_0."""
    cp = m.char_poly()
    return poly_at_matrix(cp[1:], m).scale(-cp[0].inv())


def poly_mod(a: list[Fraction], m: list[Fraction]) -> list[Fraction]:
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            f = lead / m[-1]
            for i in range(len(m)):
                a[shift + i] -= f * m[i]
        a.pop()
    while len(a) < dm:
        a.append(Fraction(0))
    return a


@lru_cache(maxsize=None)
def _cyclotomic_poly_cached(n: int) -> tuple[Fraction, ...]:
    if n == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(0)] * (n + 1)
    num[0], num[n] = Fraction(-1), Fraction(1)
    for d in range(1, n):
        if n % d == 0:
            num = poly_divexact(num, list(_cyclotomic_poly_cached(d)))
    return tuple(num)


def cyclotomic_poly_oracle(n: int) -> list[Fraction]:
    """Phi_n computed by dividing x^n - 1 by all proper-divisor factors."""
    return list(_cyclotomic_poly_cached(n))


def poly_divexact(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    num = list(num)
    dd = len(den) - 1
    out = [Fraction(0)] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        f = num[i + dd] / den[dd]
        out[i] = f
        if f:
            for j in range(len(den)):
                num[i + j] -= f * den[j]
    assert all(c == 0 for c in num)
    return out


def reduce_power_poly(coeffs: dict[int, Fraction], n: int) -> tuple[Fraction, ...]:
    """Reduce a sparse polynomial in zeta_n modulo Phi_n; dense output."""
    dense = [Fraction(0)] * n
    for k, c in coeffs.items():
        dense[k % n] += c  # zeta^n = 1 first
    phi = cyclotomic_poly_oracle(n)
    red = poly_mod(dense, phi)
    return tuple(red)


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _int_poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_poly_rem(a: list[int], m: list[int]) -> list[int]:
    """The remainder of a modulo the monic integer polynomial m, padded to
    deg m coefficients; the quotient's coefficients are those cancelled."""
    a = list(a)
    dm = len(m) - 1
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        if c:
            for i, y in enumerate(m):
                a[k - dm + i] -= c * y
    return (a + [0] * dm)[:dm]


@lru_cache(maxsize=None)
def int_cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Phi_n as the Moebius product of the x^d - 1 over d | n, on integers:
    the factors of exponent -1 divide out exactly by long division."""
    num, den = [1], [1]
    for d in range(1, n + 1):
        mu = _mobius(n // d) if n % d == 0 else 0
        if mu:
            factor = [-1] + [0] * (d - 1) + [1]
            if mu == 1:
                num = _int_poly_mul(num, factor)
            else:
                den = _int_poly_mul(den, factor)
    out = []
    dd = len(den) - 1
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        out.append(c)
        if c:
            for i, y in enumerate(den):
                num[k - dd + i] -= c * y
    assert not any(num)
    return tuple(reversed(out))


def _lift_numerators(x, n: int) -> list[int]:
    """The coordinates of x times its denominator at conductor n, by the
    substitution zeta_(x.n) -> zeta_n^(n/x.n), reduced modulo Phi_n."""
    step = n // x.conductor
    dense = [0] * n
    for j, c in enumerate(x.num):
        dense[j * step] += c
    return _int_poly_rem(dense, list(int_cyclotomic_poly(n)))


def cyclo_as_power_poly(x, n: int) -> tuple[Fraction, ...]:
    """Express a CycloNum in the power basis of zeta_n via oracle reduction."""
    assert n % x.conductor == 0
    return tuple(Fraction(c, x.den) for c in _lift_numerators(x, n))


def schoolbook_dot(pairs, n: int) -> tuple[Fraction, ...]:
    """The sum of a * b over the pairs, as power-basis coordinates at
    conductor n: each product a schoolbook convolution of the integer
    numerators of the two lifts, scaled to one common denominator, and the
    sum reduced modulo Phi_n once by long division."""
    den = math.lcm(*(a.den * b.den for a, b in pairs))
    acc = [0]
    for a, b in pairs:
        conv = _int_poly_mul(_lift_numerators(a, n), _lift_numerators(b, n))
        scale = den // (a.den * b.den)
        acc += [0] * (len(conv) - len(acc))
        for k, c in enumerate(conv):
            acc[k] += c * scale
    return tuple(Fraction(c, den) for c in _int_poly_rem(acc, list(int_cyclotomic_poly(n))))


def split_parts_equal(n: int, p: int, vec) -> bool:
    """Whether the value with conductor-n coordinates vec lies in
    Q(zeta_(n/p)), p a prime prime to m = n/p, by the full split: zeta_n =
    zeta_m^a zeta_p^b (a = p^-1 mod m, b = m^-1 mod p) writes it as the sum
    of A_r zeta_p^r with A_r in Q(zeta_m), and it lies there exactly when
    A_1 = ... = A_(p-1)."""
    m = n // p
    a, b = pow(p, -1, m), pow(m, -1, p)
    parts = [[0] * m for _ in range(p)]
    for i, c in enumerate(vec):
        parts[b * i % p][a * i % m] += c
    reduced = [_int_poly_rem(part, list(int_cyclotomic_poly(m))) for part in parts]
    return all(part == reduced[-1] for part in reduced[1:])


# -- the monomial trace: coinvariant ranks on the Fermat cubic --------------------
#
# For a monomial group preserving the Fermat cubic, H^2(F(X)) is the three
# always-invariant classes plus the span W of the 20 squarefree cubic
# monomials x_a*x_b*x_c, so the coinvariant rank is 20 - dim W^H, and dim W^H
# is the average over H of the substitution trace on W.

SQUAREFREE_TRIPLES = tuple(combinations(range(6), 3))


def monomial_parts(mat):
    """Decompose a monomial matrix into (permutation, scalars).

    Returns (pi, c) with the unique nonzero of column j at row pi[j] equal
    to c[j]; None when any column has other than exactly one nonzero.
    """
    d = mat.dim
    pi = [-1] * d
    scal = [None] * d
    for i in range(d):
        for j in range(d):
            e = mat.rows[i][j]
            if not e.is_zero:
                if pi[j] != -1:
                    return None
                pi[j] = i
                scal[j] = e
    if any(p == -1 for p in pi):
        return None
    return tuple(pi), tuple(scal)


def _w_trace(mat):
    """Trace of a monomial matrix acting by substitution on the squarefree
    cubic monomials."""
    from fanoterm.cyclo import ZERO

    parts = monomial_parts(mat)
    if parts is None:
        raise ValueError("element is not monomial; the trace is undefined")
    pi, scal = parts
    total = ZERO
    for (a, b, c) in SQUAREFREE_TRIPLES:
        if tuple(sorted((pi[a], pi[b], pi[c]))) == (a, b, c):
            total = total + scal[a] * scal[b] * scal[c]
    return total


def monomial_invariant_dim(h) -> int:
    """dim W^H, the average of the substitution traces over the subgroup."""
    from fanoterm.cyclo import ZERO, rational

    total = ZERO
    for idx in h.members:
        total = total + _w_trace(h.ambient.elements[idx])
    value = (total * rational(Fraction(1, h.order))).to_rational()
    assert value is not None and value.denominator == 1 and 0 <= value <= 20, value
    return int(value)


def monomial_coinvariant_rank(h) -> int:
    return 20 - monomial_invariant_dim(h)


# -- group-table oracles ------------------------------------------------------------


def bounded_closure(view, gens, bound):
    """The subgroup generated by gens, or None once it passes bound elements."""
    gen_list = sorted({g for g in gens if g != 0})
    seen = {0}
    queue = [0]
    for x in queue:
        for s in gen_list:
            y = view.mult(x, s)
            if y not in seen:
                if len(seen) >= bound:
                    return None
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def bfs_closure(view, gens):
    """The subgroup generated by gens, breadth-first from the identity by
    right products.  When gens are all members of the view, past half its
    order the subgroup is the whole view (Lagrange), so it stops there."""
    gen_list = sorted({g for g in gens if g != 0})
    half = view.order // 2 if view.members.issuperset(gen_list) else math.inf
    seen = {0}
    queue = [0]
    for x in queue:
        for s in gen_list:
            y = view.mult(x, s)
            if y not in seen:
                seen.add(y)
                queue.append(y)
        if len(seen) > half:
            return view.members
    return frozenset(seen)


def greedy_gens(view, members):
    """The members, in increasing order, that each enlarge the closure of
    those before them, every closure rebuilt from the identity."""
    gens = []
    covered = frozenset((0,))
    for x in sorted(members):
        if x not in covered:
            gens.append(x)
            covered = bfs_closure(view, gens)
    return tuple(gens)


def commuting_center(view):
    """The elements of the view that commute with every element of it."""
    return frozenset(x for x in view.elements
                     if all(view.mult(x, y) == view.mult(y, x) for y in view.elements))


def fixpoint_normal_closure(view, seeds):
    """The smallest normal subgroup of the view holding the seeds: the
    seeds' closure, whose generators grow by their conjugates under the
    view's generators until no conjugate is new, every closure rebuilt
    from the identity."""
    gens = {s for s in seeds if s}
    while True:
        members = bfs_closure(view, gens)
        new = {view.mult(view.mult(view.inv(g), s), g) for s in gens for g in view.gens} - members
        if not new:
            return members
        gens |= new


def product_class_map(view):
    """The conjugacy classes of the view, each sorted and found from its
    least member, and the class index of every element: the orbits of the
    view's generators, by two products x -> g^-1 x g per generator and
    element."""
    classes, class_of = [], {}
    for x in view.elements:
        if x in class_of:
            continue
        orbit, queue = {x}, [x]
        for y in queue:
            for g in view.gens:
                z = view.mult(view.mult(view.inv(g), y), g)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        class_of.update(dict.fromkeys(orbit, len(classes)))
        classes.append(tuple(sorted(orbit)))
    return tuple(classes), class_of


class CosetTable:
    """A group given by its multiplication table: the ambient of the views
    that coset_table_quotient returns, with every product looked up in the
    table, conjugation by g as two products and an element's order and
    its powers up to a member set, one product each."""

    def __init__(self, table):
        self.table = table
        self._inv = [row.index(0) for row in table]

    def mult(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def coset(self, y, xs):
        return [self.table[y][x] for x in xs]

    def order_of(self, x):
        k, y = 1, x
        while y:
            k, y = k + 1, self.table[y][x]
        return k

    def powers(self, x, members):
        ys = [x]
        while ys[-1] not in members:
            ys.append(self.table[ys[-1]][x])
        return ys

    def conjugator(self, g):
        table, g_inv = self.table, self._inv[g]
        return lambda x: table[table[g_inv][x]][g]


def coset_table_quotient(view, normal_members):
    """The view's group modulo a normal subgroup over its m x m coset
    table, one product per entry, cosets numbered in order of their least
    members: the reference for groups.quotient_group."""
    from fanoterm.groups import GroupView

    coset_of, reps = {}, []
    nm = sorted(normal_members)
    for x in view.elements:
        if x not in coset_of:
            for n in nm:
                coset_of[view.mult(x, n)] = len(reps)
            reps.append(x)
    table = [[coset_of[view.mult(a, b)] for b in reps] for a in reps]
    gens = []
    for g in view.gens:
        q = coset_of[g]
        if q and q not in gens:
            gens.append(q)
    return GroupView(range(len(reps)), gens, CosetTable(table))


def l3_trace_prefilter(mat) -> bool:
    """Eigenvalue-multiset test: tr(M) != 0 and tr(M)^2 + 3 tr(M^2) = 0.

    For a finite-order matrix with M^3 scalar this holds exactly for the
    eigenvalue pattern {r,r,r, rw,rw,rw}; the one other multiset solving
    the quadratic relation, {r,r,rw,rw,rw^2,rw^2}, has trace zero.
    """
    from fanoterm.cyclo import rational

    t1 = mat.trace()
    if t1.is_zero:
        return False
    t2 = (mat * mat).trace()
    return (t1 * t1 + rational(3) * t2).is_zero


def scan_l3(group) -> tuple[int, ...]:
    """The least generator of every codimension-2 order-3 subgroup, by
    testing each order-3 element: the trace prefilter, then the
    characteristic polynomial."""
    from fanoterm.invariants import is_l3_matrix

    seen = set()
    gens = []
    for x in range(1, group.n):
        if group.view.order_of(x) != 3:
            continue
        x2 = group.mult(x, x)
        fs = frozenset((0, x, x2))
        if fs in seen:
            continue
        seen.add(fs)
        mat = group.elements[x]
        if l3_trace_prefilter(mat) and is_l3_matrix(mat):
            gens.append(min(x, x2))
    return tuple(sorted(gens))


def brute_singular_invariants(h, l3) -> tuple[int, int, int, int, int]:
    """(n2, N3, n3, n31, n32) with every orbit taken under conjugation by
    every element of H, not only by its generators."""
    group = h.ambient
    members = sorted(h.members)
    orders = {}

    def order(x):
        if x not in orders:
            k, y = 1, x
            while y != 0:
                y = group.mult(y, x)
                k += 1
            orders[x] = k
        return orders[x]

    def conj(x, y):
        return group.mult(group.mult(group.inv(y), x), y)

    involutions = [x for x in members if order(x) == 2]
    n2 = len({frozenset(conj(x, y) for y in members) for x in involutions})
    inside = [fs for fs in l3.subgroups if fs <= h.members]
    orbits = {frozenset(frozenset(conj(m, y) for m in fs) for y in members) for fs in inside}
    n31 = 0
    for orbit in orbits:
        fs = next(iter(orbit))
        gen = min(m for m in fs if m)
        if any(conj(gen, y) in fs and conj(gen, y) != gen and order(y) % 2 == 0
               for y in members):
            n31 += 1
    return n2, len(inside), len(orbits), n31, len(orbits) - n31


def subgroup_orbit(group, members):
    """The conjugation orbit of a subgroup's member set, every product a
    word walk of ``group.mult``."""
    seen = {members}
    queue = [members]
    for s in queue:
        for g in group.gen_idx:
            ig = group.inv(g)
            t = frozenset(group.mult(group.mult(ig, x), g) for x in s)
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return queue


def all_joins_subgroup_classes(group) -> list[list[int]]:
    """Sorted member lists of one representative per subgroup conjugacy
    class, in the sweep's order: cyclic subgroups joined with every class
    representative, every cyclic subgroup at every step, every product a
    word walk of ``group.mult`` and every closure ``bfs_closure``."""
    view = group.view
    cyclics = {}
    for x in range(1, group.n):
        cyclics.setdefault(bfs_closure(view, [x]), x)
    cyclic_list = sorted(cyclics.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    class_of = {}
    classes = []

    def register(members, gens):
        if members in class_of:
            return
        orbit = subgroup_orbit(group, members)
        rep = min(orbit, key=sorted)
        for s in orbit:
            class_of[s] = len(classes)
        classes.append((rep, gens if rep == members else greedy_gens(view, rep)))

    register(frozenset((0,)), ())
    for fs, gen in cyclic_list:
        register(fs, (gen,))
    joined = set()
    i = 0
    while i < len(classes):
        rep, rep_gens = classes[i]
        i += 1
        for fs, gen in cyclic_list:
            union = rep | fs
            if fs <= rep or union in joined:
                continue
            joined.add(union)
            register(bfs_closure(view, rep_gens + (gen,)), rep_gens + (gen,))
    return sorted((sorted(rep) for rep, _ in classes), key=lambda m: (len(m), m))


def exact_bfs_group(gens, cap: int = 250000):
    """FinGroup.generate by one exact product per Cayley-graph edge: the
    breadth-first closure of the generators' projective classes, each
    product normalized and looked up exactly."""
    from fanoterm.groups import FinGroup, OrderCapExceeded, _normalize
    from fanoterm.linalg import identity

    if not gens:
        raise ValueError("at least one generator is required")
    dim = gens[0].dim
    ident = identity(dim)
    gens_p = []
    for m in gens:
        g = _normalize(m)
        if g != ident and g not in gens_p:
            gens_p.append(g)
    elems = [ident]
    index = {ident: 0}
    words = [b""]
    perms = [[] for _ in gens_p]
    for x, ex in enumerate(elems):
        for a, g in enumerate(gens_p):
            y = _normalize(g * ex)
            yi = index.get(y)
            if yi is None:
                yi = len(elems)
                if yi >= cap:
                    raise OrderCapExceeded(f"group closure exceeded the cap of {cap} elements")
                elems.append(y)
                index[y] = yi
                words.append(words[x] + bytes((a,)))
            perms[a].append(yi)
    n = len(elems)
    order = [0] + sorted(range(1, n), key=lambda i: [(e.n, e.den, e.num)
                                                     for row in elems[i].rows for e in row])
    relabel = [0] * n
    for new, old in enumerate(order):
        relabel[old] = new
    new_perms = [[relabel[p[old]] for old in order] for p in perms]
    return FinGroup([elems[i] for i in order], new_perms, [words[i] for i in order], dim)


def residue_product(g, x: bytes, d: int, p: int) -> bytes:
    """The normal form mod p of g x, for g a flat d x d residue matrix and x
    a d x c one as row-major ``bytes``: the matrix product mod p, scaled so
    that its first nonzero entry is 1."""
    c = len(x) // d
    gx = [sum(g[i * d + k] * x[k * c + j] for k in range(d)) % p for i in range(d) for j in range(c)]
    scale = pow(next(v for v in gx if v), -1, p)
    return bytes(v * scale % p for v in gx)


def residue_bfs(gen_residues, d: int, p: int, cap: int):
    """groups._residue_bfs keyed by the residues themselves: every vertex's
    residue is compared, one ``residue_product`` per Cayley-graph edge."""
    from fanoterm.groups import OrderCapExceeded

    r0 = bytes(int(f // d == f % d) for f in range(d * d))
    residues = [r0]
    index = {r0: 0}
    words = [b""]
    perms = [[] for _ in gen_residues]
    for x, rx in enumerate(residues):
        for a, g in enumerate(gen_residues):
            ry = residue_product(g, rx, d, p)
            y = index.get(ry)
            if y is None:
                y = len(residues)
                if y >= cap:
                    raise OrderCapExceeded(f"group closure exceeded the cap of {cap} elements")
                residues.append(ry)
                index[ry] = y
                words.append(words[x] + bytes((a,)))
            perms[a].append(y)
    return residues, words, perms


def pairwise_parse(text: str):
    """A cyclotomic literal of the catalog grammar, read with one ``+``,
    ``-``, ``*`` or ``/`` of values per operator, left to right, and a
    power x^k as k products by x (by 1/x for k < 0), so every partial sum,
    product and power is canonicalized on its own."""
    from fanoterm.cyclo import ONE, rational, root_of_unity, sqrt_rational

    toks = re.findall(r"ER|E|\d+|[()+\-*/^]", text)
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def peek():
        return toks[pos] if pos < len(toks) else None

    def signs():
        sign = 1
        while peek() in ("+", "-"):
            sign = -sign if take() == "-" else sign
        return sign

    def atom():
        tok = take()
        if tok == "(":
            out = expr()
            take()
            return out
        if tok in ("E", "ER"):
            take()
            num = signs() * int(take())
            den = 1
            if peek() == "/":
                take()
                den = int(take())
            take()
            return root_of_unity(num) if tok == "E" else sqrt_rational(Fraction(num, den))
        return rational(int(tok))

    def factor():
        sign = signs()
        base = atom()
        if peek() == "^":
            take()
            k = signs() * int(take())
            step = base if k >= 0 else ONE / base
            base = ONE
            for _ in range(abs(k)):
                base = base * step
        return base if sign == 1 else -base

    def term():
        out = factor()
        while peek() in ("*", "/"):
            out = out * factor() if take() == "*" else out / factor()
        return out

    def expr():
        out = term()
        while peek() in ("+", "-"):
            out = out + term() if take() == "+" else out - term()
        return out

    return expr()


def merged_rows(records) -> list[tuple]:
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
