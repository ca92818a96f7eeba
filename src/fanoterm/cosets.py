"""The exact enumeration of a group not read off its residues: ``_exact_cosets``
closes it as cosets of a subgroup H, whose generators ``_coset_subgroup`` picks.

``FinGroup.generate`` imports this module only when the read-off is
refused (Q8_S3, L2_11, M10_second, A7_second), so the commands of the
other ambients never compile it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .cyclo import ONE, ZERO, CycloNum, dot
from .groups import EnumerationUnproved, _entries
from .linalg import MatC


def _coset_subgroup(residues: Sequence[bytes], words: Sequence[bytes], perms: Sequence[Sequence[int]],
                    d: int, s: int) -> tuple[list[int], set[int]]:
    """The vertices that generate H, and H's vertices: s, then each vertex
    whose residue is monomial, d of its d^2 entries nonzero, that those
    before it, in vertex order, do not reach.  Reach is a closure by index
    products, each generator's word replayed through the perms."""
    def reach(hverts: list[int]) -> set[int]:
        found, seen = [0], {0}
        for x in found:
            for h in hverts:
                y = x
                for b in words[h]:
                    y = perms[b][y]
                if y not in seen:
                    seen.add(y)
                    found.append(y)
        return seen

    hverts = [s]
    members = reach(hverts)
    for v, r in enumerate(residues):
        if v not in members and r.count(0) == d * d - d:
            hverts.append(v)
            members = reach(hverts)
    return hverts, members


def _exact_cosets(gens: Sequence[MatC], residues: Sequence, words: Sequence[bytes],
                  perms: Sequence[Sequence[int]], reduce: Callable[[CycloNum], Optional[int]],
                  p: int, ident: MatC) -> list[MatC]:
    """The exact normal form of every vertex of the residue graph, and the
    proof that the generators give the group their residues show.

    H is generated by s, the first generator of largest residue order m,
    so that its chain of powers is as long as any generator's, and by the
    vertices with monomial residues that ``_coset_subgroup`` picks; such a
    vertex's matrix is the product along its word, and it must reduce to
    the vertex.  H is closed exactly by a BFS of right products with its
    generators, the powers of s first: s^m = 1 is checked in PGL_d, and
    each other product lies at a new vertex or is the element there.  E
    grows by cosets t H, each built along H's BFS tree, t eta =
    (t eta') gamma; g t, for each representative t and generator g, is in
    E, and then so is g t H, as g (t eta) = (g t) eta, or it starts a new
    coset.  So E is closed under the generators: it is the group G they
    generate.  Each element is placed at the vertex of its residue (an
    entry whose denominator p divides has none).  Reduction maps G onto
    the residue group, so two elements at one vertex mean |G| > n, and one
    at each vertex makes it a bijection: g_a e_x = e_y on every edge
    x -a-> y.

    Every product has a fixed factor, a generator on the left or one of
    H's on the right, and comes out in normal form: its lead entry c, the
    first nonzero in row-major order, is found by one dot per probe, and
    the fixed factor is scaled by 1/c, once per factor and lead, only
    when c is not one.  The probed entries, zeros and then one once
    scaled, start the product's first row and are not computed again.  Exact
    products, with r = n/|H| cosets and k generators: |w| - 1 for each of
    H's generators of word w, |H| - 1 per generator of H, |H| - 1 per
    coset but H and k per representative but the identity.
    """
    n, d = len(residues), ident.dim
    orders = []
    for perm in perms:
        m, y = 1, perm[0]
        while y:
            m, y = m + 1, perm[y]
        orders.append(m)
    a = max(range(len(gens)), key=orders.__getitem__)
    m = orders[a]
    index = {r: x for x, r in enumerate(residues)}
    elems: list[Optional[MatC]] = [None] * n

    def vertex(u: MatC) -> int:
        key = list(map(reduce, _entries(u)))
        x = None if None in key else index.get(bytes(key))
        if x is None:
            raise EnumerationUnproved(f"an entry's denominator is divisible by {p}" if None in key
                                      else f"an element's residue mod {p} is no vertex")
        return x

    def place(u: MatC) -> None:
        x = vertex(u)
        if elems[x] is not None:
            raise EnumerationUnproved(f"two products have the residue of element {x}: "
                                      f"the group has more than {n} elements")
        elems[x] = u

    # the fixed factors, the generators and then H's word products; a
    # factor scaled by the inverse of a lead is kept per (position, lead)
    factors, scaled = list(gens), {}

    def fixed(pos: int, c: CycloNum) -> MatC:
        if c is ONE:
            return factors[pos]
        f = scaled.get((pos, c))
        if f is None:
            f = scaled[pos, c] = factors[pos].scale(c.inv())
        return f

    def lead(x: MatC, y: MatC) -> tuple[tuple[CycloNum, ...], CycloNum]:
        """The first nonzero entry c of x y, in its first row as x y is
        invertible, and the head of that row scaled by 1/c: the zeros
        before c, then one."""
        row, ks, rows = x.rows[0], x.nnz[0], y.rows
        for j in range(d):
            c = dot([(row[k], rows[k][j]) for k in ks if rows[k][j] is not ZERO])
            if c is not ZERO:
                return (ZERO,) * j + (ONE,), c
        raise ZeroDivisionError("zero matrix has no projective class")

    def left(b: int, t: MatC) -> MatC:
        head, c = lead(gens[b], t)
        return fixed(b, c).times(t, head)

    def right(t: MatC, pos: int) -> MatC:
        head, c = lead(t, factors[pos])
        return t.times(fixed(pos, c), head)

    hverts, _ = _coset_subgroup(residues, words, perms, d, perms[a][0])
    hpos = [a]
    for v in hverts[1:]:
        w = words[v]
        u = gens[w[0]]
        for b in w[1:]:
            u = left(b, u)
        x = vertex(u)
        if x != v:
            raise EnumerationUnproved(f"the product along the word of element {v} "
                                      f"has the residue of element {x}")
        if u not in factors:
            factors.append(u)
        hpos.append(factors.index(u))

    # H by a BFS of right products, the powers of s first; tree[i - 1] is
    # the (parent, generator) of H's element i
    hs, tree = [ident], []
    elems[0] = ident
    u = gens[a]
    for k in range(1, m):
        place(u)
        hs.append(u)
        tree.append((k - 1, 0))
        u = right(u, a)
    if u != ident:
        raise EnumerationUnproved(f"generator {a} to the power {m}, its residue order, is not the identity")
    for i, eta in enumerate(hs):
        for j in range(1 if i < m else 0, len(hpos)):
            u = factors[hpos[j]] if i == 0 else right(eta, hpos[j])
            if elems[vertex(u)] != u:  # a new element, or a second one at its vertex that place refuses
                place(u)
                hs.append(u)
                tree.append((i, j))

    reps = [ident]
    for t in reps:
        for b, g in enumerate(gens):
            u = g if t is ident else left(b, t)
            if elems[vertex(u)] != u:  # a new coset, or a second element at its vertex
                reps.append(u)
                coset = [u]
                place(u)
                for i, j in tree:
                    coset.append(right(coset[i], hpos[j]))
                    place(coset[-1])
    if None in elems:
        raise EnumerationUnproved(f"the cosets reach {n - elems.count(None)} of the {n} elements")
    return elems
