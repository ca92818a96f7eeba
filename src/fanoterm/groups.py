"""Finite subgroups of PGL_d built from cyclotomic generator matrices.

A group is enumerated once by breadth-first closure of the projective
classes of its generators.  A group element is its normalized matrix (the
lift whose first nonzero entry is one); its entries are hash-consed
cyclotomic values, so matrices compare and hash by the identity of their
entries.

The closure runs on residues: with N the lcm of the entries' conductors
and p = 1 (mod N) an odd prime, zeta_N -> omega reduces every matrix mod
(p, zeta_N - omega).  The BFS keys each element by its images of the
projective frame {[e_1], ..., [e_d], [e_1 + ... + e_d]}, which determine
an element of PGL_d(Z/p): a generator moves a key by one table lookup per
frame point, and an element's residue, one ``bytes`` as p < 256, is
computed once, along the BFS's spanning tree.  When every residue value
has one preimage among the entries of the identity and the generators,
the group is read off its residues, with no product.  Every edge
x -a-> y is then proved exact: with A = g_a e_x and (i0, j0) the first
nonzero entry of e_y, D (A_ij - A_i0j0 y_ij) is an algebraic integer
whose conjugates are at most B in size, B from the L1 norms of the
entries; it lies in the prime above p, so p divides its norm, which is
at most B^phi(N), and p > B^phi(N) makes it zero.  Otherwise the
read-off is dropped and the exact group is closed as cosets of a cyclic
subgroup <s>, each element placed at the vertex of its residue: one to
one onto the vertices, reduction proves every edge.  A failed proof is
an error, so generators of an infinite group never yield a group.
Either way each element is kept as its code, the ranks of its entries
among the group's, and a matrix is built when one is asked for.

After enumeration the group theory runs on element indices.  A
``FinGroup`` is the Cayley graph of its generators: ``mult`` walks an
element's generator word through per-generator translation tables, and
conjugation by each generator is one array, built from the inverses
and those tables, so conjugation by any element walks its word through
arrays.  A quotient acts regularly on its cosets, so it is a
``FinGroup`` too, and every subgroup and quotient is a ``GroupView``,
a member set of one.  Matrices are multiplied again only per conjugacy
class, by the L3 test and the class traces of the rank.  No
multiplication table is built: a closure maps a coset through one
translation table per letter.  Every conjugacy question about a
subgroup (its classes, center, normal closures and normality of a
divisor) is a read of its memoized class map.  All derived data
(orderings, class lists, subgroup lattices) is canonical: two runs
produce identical output.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from array import array
from collections.abc import Set
from functools import lru_cache, reduce
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .cyclo import ONE, CycloNum, _prime_factors, cyclotomic_poly, galois
from .linalg import MatC, identity

__all__ = [
    "FinGroup",
    "GroupView",
    "GroupId",
    "UnidentifiedGroup",
    "Fingerprint",
    "OrderCapExceeded",
    "EnumerationUnproved",
    "fingerprint",
    "identify",
    "quotient_group",
]


class OrderCapExceeded(RuntimeError):
    """Enumeration passed the configured cap (runaway or wrong generators)."""


class EnumerationUnproved(RuntimeError):
    """The generators do not give the finite group their residues show, or
    that is not proved: a power of a generator at its residue order is not
    the identity, two exact elements share a residue, an entry has no
    residue, or the residue prime is unusable."""


# ---------------------------------------------------------------------------
# projective elements


def _normalize(mat: MatC) -> MatC:
    """The normal form of a matrix modulo scalars: scaled so the first
    nonzero entry in row-major order is one.  A group element is its
    normal form."""
    for row in mat.rows:
        for e in row:
            if not e.is_zero:
                if e is ONE:
                    return mat
                return mat.scale(e.inv())
    raise ZeroDivisionError("zero matrix has no projective class")


# ---------------------------------------------------------------------------
# residues modulo a split prime
#
# zeta_N -> omega, a root of the N-th cyclotomic polynomial mod m, is a ring
# map from Z[1/D][zeta_N] onto Z/m when m is coprime to D.  A matrix is
# reduced to the flat row-major ``bytes`` of its entries' residues, as
# m < 256.


def _cyclotomic_root(m: int, n_cond: int) -> Optional[int]:
    """A root mod m of the n_cond-th cyclotomic polynomial, from the least
    base g >= 2 of the form g^((m - 1)/n_cond); None if none is found.  For
    a prime m = 1 mod N any primitive root is such a base, and one lies far
    below the bound on g."""
    poly = cyclotomic_poly(n_cond)
    for g in range(2, min(m, 1 << 16)):
        w = pow(g, (m - 1) // n_cond, m)
        acc = 0
        for c in reversed(poly):
            acc = (acc * w + c) % m
        if acc == 0:
            return w
    return None


def _reducer(m: int, n_cond: int, w: int) -> Callable[[CycloNum], Optional[int]]:
    """The residue of a value under zeta_N -> w mod m, None when m divides
    its denominator; memoized per (hash-consed) value."""
    memo: dict[CycloNum, Optional[int]] = {}
    powers: dict[int, list[int]] = {}

    def reduce(e: CycloNum) -> Optional[int]:
        if e in memo:
            return memo[e]
        r = None
        if math.gcd(e.den, m) == 1:
            ws = powers.get(e.n)
            if ws is None:
                wn = pow(w, n_cond // e.n, m)
                ws = powers[e.n] = [pow(wn, k, m) for k in range(len(e.num))]
            r = sum(c * x for c, x in zip(e.num, ws)) * pow(e.den, -1, m) % m
        memo[e] = r
        return r

    return reduce


def _nonsingular_mod(flat: Sequence[int], d: int, m: int) -> bool:
    """Gaussian elimination mod a prime m on a flat d x d residue matrix."""
    rows = [list(flat[i * d:(i + 1) * d]) for i in range(d)]
    for col in range(d):
        piv = next((r for r in range(col, d) if rows[r][col] % m), None)
        if piv is None:
            return False
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, m)
        for r in range(col + 1, d):
            f = rows[r][col] * inv % m
            if f:
                rows[r] = [(x - f * y) % m for x, y in zip(rows[r], rows[col])]
    return True


def _prime_data(p: int, n_cond: int, gens: Sequence[MatC]):
    """(reduce, generator residues) when p is a usable residue prime: odd,
    1 mod N, dividing no entry denominator and leaving every generator
    nonsingular mod p; else None.  A generator singular mod p has its exact
    determinant checked, and a singular one raises EnumerationUnproved, as
    it is singular mod every prime."""
    if p % 2 == 0 or (p - 1) % n_cond:
        return None
    w = _cyclotomic_root(p, n_cond)
    if w is None:
        return None
    reduce = _reducer(p, n_cond, w)
    residues = []
    for g in gens:
        flat = [reduce(e) for row in g.rows for e in row]
        if None in flat:
            return None
        if not _nonsingular_mod(flat, g.dim, p):
            if g.det().is_zero:
                raise EnumerationUnproved(f"the generator {g!r} is singular")
            return None
        residues.append(flat)
    return reduce, residues


def _residue_prime(gens: Sequence[MatC], n_cond: int) -> int:
    """The largest usable residue prime below 256, so that a residue is
    one ``bytes``; EnumerationUnproved when the conductor N leaves none."""
    for p in range(1 + n_cond * (254 // n_cond), 2, -n_cond):
        if _prime_factors(p) == (p,) and _prime_data(p, n_cond, gens) is not None:
            return p
    raise EnumerationUnproved(f"no usable residue prime below 256 for conductor {n_cond}")


@lru_cache(maxsize=None)
def _byte_tables(p: int, d: int):
    """Per c < p the table of ``bytes.translate`` that multiplies
    by c mod p, the inverses mod p, and the reduction mod p of a sum of d
    residues.

    Each table is one translate of ``logs``, v -> the log of v mod p to a
    primitive root r, with 0 sent to the sentinel p - 1: through the
    powers of r rotated by log c, r^e -> r^(e + log c), and the sentinel
    to 0."""
    r = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // q, p) != 1 for q in _prime_factors(p - 1)))
    powers = [1]
    for _ in range(p - 2):
        powers.append(powers[-1] * r % p)
    log = {x: e for e, x in enumerate(powers)}
    logs = bytes(log.get(v % p, p - 1) for v in range(256))
    cycle, pad = bytes(powers), bytes(257 - p)
    tables = (bytes(256),) + tuple(logs.translate(cycle[log[c]:] + cycle[:log[c]] + pad)
                                   for c in range(1, p))
    inv = (0,) + tuple(pow(c, -1, p) for c in range(1, p))
    return tables, inv, bytes(s % p for s in range(d * (p - 1) + 1)).__getitem__


def _residue_mults(gen_residues: Sequence[Sequence[int]], d: int, p: int) -> list[Callable]:
    """Per generator g, x -> the normal form mod p of g x.

    A row of g x is a sum of rows of the ``bytes`` x, each scaled by
    ``bytes.translate`` through a table of multiples.  A monomial g takes
    one translate per row, with the scale that normalizes the product
    folded in.
    """
    tables, inv, mod = _byte_tables(p, d)

    def make(flat):
        rows = [[(k, flat[i * d + k]) for k in range(d) if flat[i * d + k]] for i in range(d)]
        if all(len(row) == 1 for row in rows):
            (k0, c0), = rows[0]
            s0, e0 = k0 * d, (k0 + 1) * d
            # by_scale[t]: (row slice, table of c t) per row of g
            by_scale = [[(k * d, (k + 1) * d, tables[c * t % p]) for ((k, c),) in rows]
                        for t in range(p)]

            def mult(x: bytes) -> bytes:
                spec = by_scale[inv[c0 * x[s0:e0].lstrip(b"\0")[0] % p]]
                return b"".join([x[s:e].translate(t) for s, e, t in spec])
        else:
            spec = [[(k * d, (k + 1) * d, tables[c]) for k, c in row] for row in rows]

            def mult(x: bytes) -> bytes:
                out = b"".join([bytes(map(mod, map(sum, zip(*[x[s:e].translate(t)
                                                               for s, e, t in row]))))
                                for row in spec])
                lead = out.lstrip(b"\0")[0]
                return out if lead == 1 else out.translate(tables[inv[lead]])
        return mult

    return [make(flat) for flat in gen_residues]


def _frame_orbit(gen_residues: Sequence[Sequence[int]], d: int, p: int, cap: int):
    """The orbit Omega of the projective frame F = {[e_1], ..., [e_d],
    [e_1 + ... + e_d]} of P^(d-1)(Z/p) under the generators: (the indices
    in Omega of F's points, and per generator the index of its image of
    each point of Omega).  Omega is found one orbit at a time, each
    numbered consecutively.  A group of at most cap elements moves a point
    to at most cap points, so an orbit passing cap points raises
    OrderCapExceeded.  An orbit grows by layers: row i of g X, for X the
    layer's points as ``bytes`` columns, is a sum of rows of X scaled by
    ``bytes.translate`` as in ``_residue_mults``, and each column of g X
    is then normalized."""
    tables, inv, mod = _byte_tables(p, d)
    join, scale = b"".join, lambda row, c: row.translate(tables[c])
    frame = [bytes(int(i == j) for i in range(d)) for j in range(d)] + [bytes((1,) * d)]

    def make(flat):
        spec = [[(k, c) for k, c in enumerate(flat[i * d:(i + 1) * d]) if c] for i in range(d)]

        def images(layer: list) -> list:
            x, m = join(layer), len(layer)
            rows = [x[k::d] for k in range(d)]
            gx = join([bytes(map(mod, map(sum, zip(*[scale(rows[k], c) for k, c in row]))))
                       for row in spec])
            out = [gx[j::m] for j in range(m)]
            return [w if (lead := next(filter(None, w))) == 1 else scale(w, inv[lead]) for w in out]
        return images
    maps = [make(flat) for flat in gen_residues]
    index: dict = {}
    images: list[list[int]] = [[] for _ in maps]
    for v0 in frame:
        if v0 in index:
            continue
        index[v0] = len(index)
        size, layer = 1, [v0]
        while layer:
            found = []
            for ws in zip(*[g(layer) for g in maps]):
                for w, image in zip(ws, images):
                    i = index.get(w)
                    if i is None:
                        if size >= cap:
                            raise OrderCapExceeded(f"an orbit of the projective frame passed {cap} points")
                        i = index[w] = len(index)
                        size += 1
                        found.append(w)
                    image.append(i)
            layer = found
    return [index[v] for v in frame], images


def _residue_bfs(gen_residues: Sequence[Sequence[int]], d: int, p: int, cap: int):
    """Breadth-first closure of the generators' classes in PGL_d(Z/p):
    (residues, words, perms) with perms[a][x] the vertex g_a x and
    words[x] the ``bytes`` of letters a_1 ... a_k with x = g_ak ... g_a1.

    A vertex is keyed by its images of the projective frame F
    (``_frame_orbit``): an element of PGL_d(Z/p) that fixes every point of
    F is the identity, so two residues with the same frame images are
    equal.  The key of g_a x is x's key sent through generator a's point
    images, one ``bytes.translate`` when the frame's orbit has at most 256
    points and a tuple otherwise.  The walk records each new vertex's
    parent and letter, its tree edge; once the keys and their index are
    freed, the residues and words are built along the tree: n - 1 residue
    products.  Every other edge x -a-> y has g_a r_x = r_y because their
    keys agree.  So a key and a residue are never held for every element
    at once; what is returned is kept by the group."""
    frame, images = _frame_orbit(gen_residues, d, p, cap)
    if all(len(image) <= 256 for image in images):
        key0, step = bytes(frame), bytes.translate
        tables = [bytes(image).ljust(256, b"\0") for image in images]
    else:
        key0, step = tuple(frame), lambda key, lookup: tuple(map(lookup, key))
        tables = [image.__getitem__ for image in images]
    mults = _residue_mults(gen_residues, d, p)
    keys = [key0]
    index = {key0: 0}
    parents, letters = array("I"), bytearray()  # the tree edge of vertex 1, 2, ...
    perms: list[list[int]] = [[] for _ in tables]
    for x, kx in enumerate(keys):
        for a, table in enumerate(tables):
            ky = step(kx, table)
            y = index.get(ky)
            if y is None:
                y = len(keys)
                if y >= cap:
                    raise OrderCapExceeded(f"group closure exceeded the cap of {cap} elements")
                keys.append(ky)
                index[ky] = y
                parents.append(x)
                letters.append(a)
            perms[a].append(y)
    del keys, index
    residues = [bytes(int(f // d == f % d) for f in range(d * d))]
    words = [b""]
    letter_bytes = [bytes((a,)) for a in range(len(mults))]
    for x, a in zip(parents, letters):
        residues.append(mults[a](residues[x]))
        words.append(words[x] + letter_bytes[a])
    return residues, words, perms


def _read_off(residues: Sequence, reduce: Callable[[CycloNum], Optional[int]],
              gens: Sequence[MatC], ident: MatC) -> Optional[dict[int, CycloNum]]:
    """The table from each residue value to its one preimage among the
    entries of the identity and the generators (each one used by them), or
    None when a value some residue uses has no preimage or two.  A vertex's
    first nonzero residue is 1, whose one preimage is then ONE, so the
    matrix of its residues' preimages is in normal form.  It is the
    vertex's element only where the norm bound proves every edge.  The
    ``bytes`` residues are tested 1024 at a time, so the test holds no copy
    of them."""
    preimage: dict[int, CycloNum] = {}
    shared = set()
    for e in set(_entries(ident)).union(*map(_entries, gens)):
        r = reduce(e)
        if r in preimage:
            shared.add(r)
        preimage[r] = e
    for r in shared:
        del preimage[r]
    known = bytes(preimage)
    unknown = any(b"".join(residues[i:i + 1024]).translate(None, known)
                  for i in range(0, len(residues), 1024))
    return None if unknown else preimage


def _entries(m: MatC) -> Iterable[CycloNum]:
    return itertools.chain.from_iterable(m.rows)


def _conj_bound(e: CycloNum, scale: int) -> int:
    """An integer bound on every conjugate of scale * e: |sigma(e)|^2 is
    sigma(e * conj(e)), at most the L1 norm of that value's coordinates,
    each power of zeta having absolute value one."""
    if e.is_zero:
        return 0
    sq = e * galois(e, -1)
    num, den = scale * scale * sum(map(abs, sq.num)), sq.den
    b = math.isqrt(num // den)
    while b * b * den < num:
        b += 1
    return b


def _norm_bound(gens: Sequence[MatC], entries: set[CycloNum], n_cond: int, p: int) -> int:
    """B^phi(N), the bound on the norm of every edge's defect when the
    elements are read off their residues and their entries are
    ``entries``, the read-off table's preimages.

    With A = g_a e_x and (i0, j0) the first nonzero entry of e_y, the edge
    x -a-> y holds iff every A_ij - A_i0j0 y_ij is zero.  D clears the
    denominators, so D (A_ij - A_i0j0 y_ij) is an algebraic integer, and
    B, built from bounds on the entries, bounds each of its conjugates.
    When the residues of e_x and e_y are the BFS's, it lies in
    (p, zeta_N - omega), so p divides its norm, which is at most B^phi(N)
    in size: for p > B^phi(N) it is zero.
    """
    phi = len(cyclotomic_poly(n_cond)) - 1
    delta = math.lcm(*(e.den for e in entries))  # Delta e_x is integral for every x
    c_max = max(_conj_bound(e, delta) for e in entries)
    r_max = 1  # the largest row sum of the conjugate bounds of delta_g g_a
    for g in gens:
        dg = math.lcm(*(e.den for e in _entries(g)))
        for row in g.rows:
            r_max = max(r_max, sum(_conj_bound(e, dg) for e in row))
    # |conj(D (A_ij - A_i0j0 y_ij))| <= Delta R C + R C C, D = delta_g Delta^2
    return (r_max * c_max * (delta + c_max)) ** phi


def _exact_cosets(gens: Sequence[MatC], residues: Sequence, perms: Sequence[Sequence[int]],
                  reduce: Callable[[CycloNum], Optional[int]], p: int, ident: MatC) -> list[MatC]:
    """The exact normal form of every vertex of the residue graph, and the
    proof that the generators give the group their residues show.

    H = <s>, for a cheap generator s of residue order m, is exact of order
    m once s^m = 1 in PGL_d.  E grows by cosets t H, chained t, t s, ... by
    right products with s; g t, for each representative t and generator g,
    is in E, and then so is g t H, or it starts a new coset.  So E is
    closed under the generators: it is the group G they generate.  Each
    element is placed at the vertex of its residue (an entry whose
    denominator p divides has none).  Reduction maps G onto the residue
    group, so two elements at one vertex mean |G| > n, and one at each
    vertex makes it a bijection: g_a e_x = e_y on every edge x -a-> y.
    Exact products: n/m per generator, m - 1 per coset and one for s^m.
    """
    n = len(residues)
    nnz = [sum(map(len, g.nnz)) for g in gens]
    orders = []
    for perm in perms:
        m, y = 1, perm[0]
        while y:
            m, y = m + 1, perm[y]
        orders.append(m)
    # the chains make about n products with s, the cosets n/m with each generator
    a = min(range(len(gens)), key=lambda a: nnz[a] + sum(nnz) / orders[a])
    s, m = gens[a], orders[a]
    index = {r: x for x, r in enumerate(residues)}
    elems: list[Optional[MatC]] = [None] * n
    reps: list[MatC] = []

    def vertex(u: MatC) -> int:
        key = list(map(reduce, _entries(u)))
        x = None if None in key else index.get(bytes(key))
        if x is None:
            raise EnumerationUnproved(f"an entry's denominator is divisible by {p}" if None in key
                                      else f"an element's residue mod {p} is no vertex")
        return x

    def add_coset(t: MatC) -> MatC:
        reps.append(t)
        for k in range(m):
            if k:
                t = _normalize(t * s)
            x = vertex(t)
            if elems[x] is not None:
                raise EnumerationUnproved(f"two products have the residue of element {x}: "
                                          f"the group has more than {n} elements")
            elems[x] = t
        return t

    if _normalize(add_coset(ident) * s) != ident:
        raise EnumerationUnproved(f"generator {a} to the power {m}, its residue order, is not the identity")
    for t in reps:
        for g in gens:
            u = _normalize(g * t)
            x = vertex(u)
            if elems[x] != u:  # a new coset, or a second element at x that add_coset refuses
                add_coset(u)
    if None in elems:
        raise EnumerationUnproved(f"the cosets reach {n - elems.count(None)} of the {n} elements")
    return elems


# ---------------------------------------------------------------------------
# generic group algorithms over an index interface


class _Indices(Set):
    """The members of a whole enumerated group's view, every index
    0 <= x < n, as a set that holds no hash table: membership is a range
    test and iteration walks ``elements``, the indices in order.  It equals
    and hashes as the frozenset of the indices, and the set operations
    return frozensets.  Inclusions test membership at C level, as a
    frozenset's do: each pi1 quotient of the whole group compares two of
    these sets."""

    __slots__ = ("elements", "_range")

    def __init__(self, elements: tuple[int, ...]):
        self.elements = elements
        self._range = range(len(elements))

    def __contains__(self, x) -> bool:
        return x in self._range

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __hash__(self) -> int:
        return hash(frozenset(self.elements))

    def issuperset(self, xs: Iterable[int]) -> bool:
        return all(map(self._range.__contains__, xs))

    def __le__(self, other) -> bool:
        if not isinstance(other, Set):
            return NotImplemented
        if isinstance(other, _Indices):
            return len(self) <= len(other)
        return len(self) <= len(other) and all(map(other.__contains__, self.elements))

    def __ge__(self, other) -> bool:
        if not isinstance(other, Set):
            return NotImplemented
        return self.issuperset(other)

    _from_iterable = staticmethod(frozenset)


class GroupView:
    """A finite group on element indices: a member set of a ``FinGroup``,
    its ``ambient``, whether the whole enumerated group, a subgroup of it
    or a quotient (itself a ``FinGroup`` on coset indices).

    ``members`` is a set of the ambient's element ids (a frozenset, or for
    the whole group its ``_Indices``) and ``elements`` the same ids in
    increasing order, so the identity id 0 is always the first element.
    ``mult``, ``inv``, ``coset`` and ``order_of`` are the ambient's, so
    element orders are memoized once per group.  A view memoizes its class
    map; nothing else about it changes.
    """

    __slots__ = ("elements", "members", "mult", "inv", "coset", "order_of", "gens", "ambient",
                 "_class_map")

    def __init__(self, members: Iterable[int], gens: Sequence[int], ambient: "FinGroup"):
        if isinstance(members, _Indices):
            self.members, self.elements = members, members.elements
        else:
            self.members = frozenset(members)
            self.elements = tuple(sorted(self.members))
        self.mult = ambient.mult
        self.inv = ambient.inv
        self.coset = ambient.coset
        self.order_of = ambient.order_of
        self.gens = tuple(gens)
        self.ambient = ambient
        self._class_map: Optional[tuple[tuple[tuple[int, ...], ...],
                                        list[int] | dict[int, int]]] = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def closure(self, gens: Iterable[int], base: frozenset[int] = frozenset((0,)),
                forbidden: Optional[frozenset[int]] = None) -> Optional[frozenset[int]]:
        """The subgroup generated by gens, grown from ``base``, a known
        subgroup of it, by cosets (Dimino; Butler, LNCS 559, 1991): per
        coset representative e and generator s, y = s e lies in a known
        coset or starts the coset y base, built by ``coset``.
        When gens and base are members, a result past half this view's
        order is the whole group (Lagrange), so the closure stops there.
        It returns None at its first element of ``forbidden`` outside base."""
        gen_list = sorted({g for g in gens if g != 0})
        members, mult, coset = self.members, self.mult, self.coset
        half = self.order // 2 if members.issuperset(gen_list) and members.issuperset(base) else math.inf
        seen, reps = set(base), [0]
        rest = [b for b in base if b]  # y 0 is y
        for e in reps:
            for s in gen_list:
                y = mult(s, e)
                if y not in seen:
                    reps.append(y)
                    seen.add(y)
                    new = coset(y, rest)
                    if forbidden is not None and (y in forbidden or not forbidden.isdisjoint(new)):
                        return None
                    seen.update(new)
                    if len(seen) > half:
                        return members if forbidden is None or forbidden <= seen else None
        return frozenset(seen)

    def span(self, candidates: Iterable[int]) -> tuple[frozenset[int], tuple[int, ...]]:
        """The subgroup the candidates generate, and as its generators the
        candidates, in increasing order, that each extend the span of those
        before them."""
        members: frozenset[int] = frozenset((0,))
        gens: list[int] = []
        for x in sorted(candidates):
            if x not in members:
                gens.append(x)
                members = self.closure(gens, members)
        return members, tuple(gens)

    def sub(self, members: Iterable[int], gens: Sequence[int]) -> "GroupView":
        """The subgroup with these members and generators, in this view."""
        return GroupView(members, gens, self.ambient)

    def class_map(self) -> tuple[tuple[tuple[int, ...], ...], list[int] | dict[int, int]]:
        """The orbits of the conjugation action and the class index of every
        element, memoized on the view.  Each orbit is found from its least
        member, so the classes come out sorted by it.  Conjugation by a
        generator g, x -> g^-1 x g, is the ambient's ``conjugator``: one
        array lookup per letter of g's word.

        The class index is looked up by element: for a whole enumerated
        group, whose elements are the indices 0 <= x < n, it is a list, and
        its classes hold the group's own ints, not the fresh ints that the
        conjugation arrays return; for any other view it is a dict.  The
        orbits' sets are transient."""
        if self._class_map is None:
            conjugators = list(map(self.ambient.conjugator, self.gens))
            elements = self.elements
            whole = isinstance(self.members, _Indices)
            classes = []
            class_of = [None] * len(elements) if whole else dict.fromkeys(elements)
            for x in elements:
                if class_of[x] is not None:
                    continue
                orbit = {x}
                queue = [x]
                for y in queue:
                    for conj in conjugators:
                        z = conj(y)
                        if z not in orbit:
                            orbit.add(z)
                            queue.append(z)
                k = len(classes)
                for z in orbit:
                    class_of[z] = k
                members = sorted(orbit)
                classes.append(tuple(map(elements.__getitem__, members) if whole else members))
            self._class_map = (tuple(classes), class_of)
        return self._class_map

    def involutions(self) -> list[int]:
        classes, _ = self.class_map()
        return sorted(x for c in classes if self.order_of(c[0]) == 2 for x in c)

    def normal_closure(self, seeds: Iterable[int]) -> tuple[frozenset[int], tuple[int, ...]]:
        """The smallest normal subgroup of this view's group containing the
        seeds, and its generators: the ``span`` of the seeds' classes."""
        classes, class_of = self.class_map()
        return self.span({x for k in {class_of[s] for s in seeds} for x in classes[k]})


# ---------------------------------------------------------------------------
# enumerated matrix groups


class _Elements:
    """The elements of an enumerated group, as a read-only sequence of
    normal forms.  ``codes[i]`` is element i's entries in row-major order,
    each as its ``rank`` in ``entries``, the group's distinct entries sorted
    by (conductor, denominator, coordinates): one ``bytes`` when there are
    at most 256 of them, else a tuple; ``generate`` sets the codes, in the
    group's order.  Element i is the matrix of ``entries`` over
    ``codes[i]``, built only when it is asked for.  Equal rows are one
    tuple."""

    __slots__ = ("codes", "entries", "rank", "_pack", "_cuts", "_rows")

    def __init__(self, entries: Sequence[CycloNum], dim: int):
        self.codes: list = []
        self.entries = entries
        self.rank = {e: r for r, e in enumerate(entries)}
        self._pack = bytes if len(entries) <= 256 else tuple
        self._cuts = [slice(i, i + dim) for i in range(0, dim * dim, dim)]
        self._rows: dict = {}

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._matrix, self.codes[i]))
        return self._matrix(self.codes[i])

    def __iter__(self):
        return map(self._matrix, self.codes)

    def _matrix(self, code) -> MatC:
        rows = []
        for cut in self._cuts:
            key = code[cut]
            row = self._rows.get(key)
            if row is None:
                row = self._rows[key] = tuple(map(self.entries.__getitem__, key))
            rows.append(row)
        return MatC(rows)

    def code(self, mat: MatC):
        """The code of ``mat``; KeyError when one of its entries is not in
        ``entries``.  Entry and rank are one to one, so this is exact."""
        return self._pack(map(self.rank.__getitem__, _entries(mat)))


class FinGroup:
    """A finite group on the indices 0 <= x < n, as the Cayley graph of
    its generators: ``perms[a][x]`` is the index of g_a x, so g_a is
    ``perms[a][0]``, and ``words[x]`` the ``bytes`` of letters a_1 ... a_k
    with x = g_ak ... g_a1.  ``elements[x]`` is, for a group enumerated in
    PGL_d (``generate``), the normal form of x, the identity first and the
    rest sorted by their entries, so the indexing is reproducible (an
    ``_Elements``, which keeps each element's code and no matrix); for a
    quotient (``quotient_view``, ``dim`` None), the least member of coset
    x.  Nothing about the group changes after construction but its memo of
    element orders.  Per element it keeps its code, its word, one index
    in each translation table, its inverse and one entry in each
    generator's conjugation array x -> g^-1 x g, an ``array('I')``; these
    index lists and the view's members share one int object per index.

    Building it holds no second copy of a per-element list: the BFS's keys
    are freed before its residues are built, the residues or normal forms
    are coded in place, the translation tables are relabeled one generator
    at a time, and each inverse permutation, transient here, is dropped
    once its conjugation array is built.
    """

    def __init__(self, elements, perms, words, dim):
        self.elements: Sequence = elements
        self.dim = dim
        self.gen_idx: tuple[int, ...] = tuple(perm[0] for perm in perms)
        self._perms: list[list[int]] = perms
        self._rword: list[bytes] = words
        self._orders: dict[int, int] = {}
        # each perm holds every index once: its ints are the group's, and the
        # inverses and the view's members reuse them
        ids = tuple(sorted(perms[0])) if perms else (0,)
        # the inverse of g_ak...g_a1 applies the inverse generators in reverse
        inv_perms = [sorted(ids, key=p.__getitem__) for p in perms]
        inv = []
        for word in words:
            r = 0
            for a in reversed(word):
                r = inv_perms[a][r]
            inv.append(r)
        self._inv = inv
        # g^-1 x g = g^-1 (g^-1 x^-1)^-1: per generator, two passes of the
        # inverse and two of left multiplication by g^-1; each inverse
        # permutation is dropped as soon as its array is built
        self._conjugations = [array("I", map(q.__getitem__, map(inv.__getitem__,
                                                                map(q.__getitem__, inv))))
                              for q in map(inv_perms.pop, [0] * len(inv_perms))]
        self.view = GroupView(_Indices(ids), self.gen_idx, self)

    # -- construction -----------------------------------------------------

    @classmethod
    def generate(cls, gens: Sequence[MatC], cap: int = 250000) -> "FinGroup":
        """Breadth-first closure of the projective classes of the generators,
        run on residues and proved exact.

        The BFS runs in PGL_d(Z/p) for a prime p = 1 mod N
        (``_residue_prime``), N the lcm of the entries' conductors, under
        zeta_N -> omega: reduction mod an odd split prime is injective on a
        finite matrix group (Minkowski), so the residue Cayley graph is the
        group's.  It tells elements apart by their images of a projective
        frame, which fix an element of PGL_d(Z/p), and computes each
        element's residue once, along its spanning tree (``_residue_bfs``).
        When every residue value has one preimage among the entries of the
        identity and the generators, the elements are read off their
        residues (``_read_off``), and they are kept
        when each preimage reduces to its value and a norm bound proves
        every edge from the residues alone (``_norm_bound``).  Otherwise
        the exact group is closed as cosets of a cyclic subgroup, about
        n/|H| products per generator, and reduction is proved one to one
        onto the vertices, which proves every edge (``_exact_cosets``); a
        failed proof raises EnumerationUnproved, so generators of an
        infinite group never yield a group.  Element
        y = g_a * x is found from x, so its word is x's word plus a, and
        ``mult`` replays the word through the translation tables.

        Both proofs end in one code per element, its entries' ranks
        (``_Elements``): read off, each residue is recoded in place by one
        ``bytes.translate``; closed as cosets, each normal form is coded in
        place and dropped.  The canonical order sorts the codes, and the
        codes are what the group keeps.
        """
        if not gens:
            raise ValueError("at least one generator is required")
        dim = gens[0].dim
        ident = identity(dim)
        gens_p = []
        for m in gens:
            g = _normalize(m)
            if g != ident and g not in gens_p:
                gens_p.append(g)
        if len(gens_p) >= 256:
            raise ValueError(f"a word holds one letter per byte: fewer than 256 distinct generators "
                             f"are allowed, {len(gens_p)} given")
        # every product of the generators has its entries in Q(zeta_N)
        n_cond = math.lcm(*(e.n for g in gens_p for e in _entries(g)))
        p = _residue_prime(gens_p, n_cond)
        data = _prime_data(p, n_cond, gens_p)
        if data is None:
            raise EnumerationUnproved(f"{p} is not a usable residue prime for conductor {n_cond}")
        reduce, gen_residues = data
        residues, words, perms = _residue_bfs(gen_residues, dim, p, cap)
        n = len(residues)
        table = _read_off(residues, reduce, gens_p, ident)
        # each read-off entry is its value's preimage, so every element's
        # entries reduce to its residues when the table's do
        if table is not None and not (all(reduce(e) == r for r, e in table.items())
                                      and p > _norm_bound(gens_p, set(table.values()), n_cond, p)):
            table = None
        # canonical order: identity first, the rest by their entries in
        # row-major order, each entry ranked by (conductor, denominator,
        # coordinates); every index list of the group takes its ints from
        # ids, one per element.  The codes are one to one with the
        # elements: implied by the proof, and checked as it is cheap.
        by_value = lambda e: (e.n, e.den, e.num)
        ids = list(range(n))
        if table is None:
            codes = _exact_cosets(gens_p, residues, perms, reduce, p, ident)
            elements = _Elements(sorted({e for m in codes for e in _entries(m)}, key=by_value), dim)
            for i, m in enumerate(codes):
                codes[i] = elements.code(m)
        else:
            # a read-off residue value has one preimage, so the rank of that
            # entry codes it: each residue is recoded in place by one
            # bytes.translate
            codes = residues
            elements = _Elements(sorted(table.values(), key=by_value), dim)
            rank_table = bytes(elements.rank.get(table.get(v), 0) for v in range(256))
            for i, r in enumerate(codes):
                codes[i] = r.translate(rank_table)
        del residues
        order = sorted(ids, key=codes.__getitem__)
        # distinct codes, strictly increasing in sorted order
        if not all(map(operator.lt, map(codes.__getitem__, order),
                       map(codes.__getitem__, itertools.islice(order, 1, None)))):
            raise EnumerationUnproved("two vertices of the residue graph are one element")
        order.remove(0)
        order.insert(0, ids[0])
        elements.codes = list(map(codes.__getitem__, order))
        del codes
        relabel = [0] * n
        for new, old in zip(ids, order):
            relabel[old] = new
        del ids
        words = [words[i] for i in order]
        # one generator at a time, so one old table at most is held beside the new ones
        for a in range(len(perms)):
            perms[a] = list(map(relabel.__getitem__, map(perms[a].__getitem__, order)))
        del order, relabel
        return cls(elements, perms, words, dim)

    # -- index arithmetic ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        r = j
        perms = self._perms
        for a in self._rword[i]:
            r = perms[a][r]
        return r

    def inv(self, i: int) -> int:
        return self._inv[i]

    def order_of(self, x: int) -> int:
        """The order of element x, memoized on the group."""
        if x not in self._orders:
            k, y = 1, x
            while y:
                k, y = k + 1, self.mult(y, x)
            self._orders[x] = k
        return self._orders[x]

    def index_of(self, mat: MatC) -> int:
        """The index of the element with lift ``mat``, any scalar multiple;
        KeyError when there is none.  It bisects the codes after the
        identity, which are sorted, for the code of ``mat``'s normal form."""
        elements, form = self.elements, _normalize(mat)
        try:
            key, codes = elements.code(form), elements.codes
            i = 0 if key == codes[0] else bisect.bisect_left(codes, key, 1)
            if i < len(codes) and codes[i] == key:
                return i
        except KeyError:
            pass
        raise KeyError("element does not belong to this group")

    def subgroup(self, gens: Iterable[int] = (), members: Optional[frozenset[int]] = None) -> GroupView:
        """The subgroup generated by ``gens``, or the one with the given
        ``members`` (ValueError if they are no subgroup); for the whole
        group this is the group's own view."""
        if members is None:
            gens = tuple(sorted({g for g in gens if g}))
            members = self.view.closure(gens)
        else:
            spanned, gens = self.view.span(members)
            if spanned != set(members):
                raise ValueError("the members are not a subgroup")
        if len(members) == self.n:
            return self.view
        return self.view.sub(members, gens)

    def coset(self, y: int, xs: Sequence[int]) -> list[int]:
        """The products y x, x in xs, by one ``map`` per letter of y's word."""
        for a in self._rword[y]:
            xs = map(self._perms[a].__getitem__, xs)
        return list(xs)

    def _conjugation_arrays(self, h: int) -> list[array]:
        """The arrays that map x -> h^-1 x h in turn: for h = g_ak ... g_a1,
        word a_1 ... a_k, conjugation by g_ak first."""
        return [self._conjugations[a] for a in reversed(self._rword[h])]

    def conjugator(self, h: int) -> Callable[[int], int]:
        """x -> h^-1 x h, one array lookup per letter of h's word."""
        arrays = self._conjugation_arrays(h)
        if len(arrays) == 1:
            return arrays[0].__getitem__

        def conj(x: int) -> int:
            for arr in arrays:
                x = arr[x]
            return x
        return conj

    # -- subgroup conjugacy sweep -------------------------------------------

    def subgroup_conjugacy_classes(self) -> list[GroupView]:
        """One representative view per conjugacy class of subgroups, sorted
        by order and then by sorted members, each the least member list of
        its orbit; class k is at position k - 1.

        A cyclic extension (Neubueser, Numer. Math. 2, 1960) guided by the
        involutions S, as H is reached from N = <S & H> by joining elements
        outside S that normalize N and bring no involution: a class K
        generated by involutions is joined with each involution outside K,
        every K with each <x>, x outside S normalizing <S & K>, abandoned at
        a new involution.  One join per N_G(K)-orbit, N_G(K) from Schreier
        generators of the walk registering each conjugate by its sorted
        members (Holt, Eick and O'Brien, 2005).  K is extended as the
        member set it was found as: the trivial class and an involution
        join are generated by involutions, so N_G(<S & K>) is N_G(K); any
        other join keeps its parent's S & K, and so its parent's N_G(<S & K>).
        """
        view, n, mult, inv = self.view, self.n, self.mult, self._inv
        involutions = view.involutions()
        forbidden = frozenset(involutions)
        half = [0] * n  # the involution x^k of <x> for x of order 2k, 0 for odd orders
        for c in view.class_map()[0]:
            k, odd = divmod(view.order_of(c[0]), 2)
            for x in () if odd else c:
                half[x] = reduce(lambda y, _: mult(x, y), range(k - 1), x)
        code = "H" if n <= 1 << 16 else "I"
        spanning = set(view.span(self.gen_idx)[1])  # generators enough to generate G
        steps = [(conj, g) for conj, g in zip(self._conjugations, self.gen_idx) if g in spanning]
        registered: set[bytes] = set()  # every conjugate of every class found
        # members as found, generators, letters of N_G(K)'s generators,
        # N_G(<S & K>), whether S & K generates K, least conjugate K^t, t
        classes = []

        def register(members: frozenset[int], gens: tuple[int, ...], candidates) -> None:
            """Key the conjugation orbit of K's sorted members, point i
            K^trans[i], and grow N_G(K) from its Schreier generators
            trans[i] g trans[j]^-1 up to order n/|orbit|; ``candidates``
            is N_G(<S & K>), or None when S & K generates K."""
            first = array(code, sorted(members))
            if first.tobytes() in registered:
                return
            points, trans, where, edges = [first], [0], {first.tobytes(): 0}, []
            for i, pts in enumerate(points):
                for conj, g in steps:
                    img = array(code, sorted(map(conj.__getitem__, pts)))
                    j = where.setdefault(img.tobytes(), len(points))
                    if j == len(points):
                        points.append(img)
                        trans.append(mult(trans[i], g))
                    else:
                        edges.append((i, g, j))
            registered.update(where)
            target, normalizer, grown = n // len(points), [], frozenset((0,))
            for i, g, j in edges:
                if len(grown) == target:
                    break
                h = mult(mult(trans[i], g), inv[trans[j]])
                if h not in grown:
                    normalizer.append(h)
                    grown = view.closure(normalizer, grown)
            by_involutions = candidates is None
            if by_involutions:
                candidates = grown if len(grown) == n else array(code, sorted(grown))
            r = min(range(len(points)), key=points.__getitem__)
            classes.append((members, gens, list(map(self._conjugation_arrays, normalizer)),
                            candidates, by_involutions, points[r], trans[r]))

        def orbit(xs: Sequence[int], letters: list[list[array]]) -> set[int]:
            """The union of the N_G(K)-orbits of xs: a map per letter and layer."""
            seen, layer = set(xs), list(xs)
            while layer:
                found: set[int] = set()
                for word in letters:
                    ys = layer
                    for conj in word:
                        ys = map(conj.__getitem__, ys)
                    found.update(ys)
                layer = list(found - seen)
                seen.update(layer)
            return seen

        register(frozenset((0,)), (), None)
        # classes grows as joins find new ones
        for members, gens, letters, candidates, by_involutions, _, _ in classes:
            # the involutions outside K when they generate K, then the x
            # normalizing <S & K> whose involution, if any, is in K
            covered: set[int] = set()
            for x in itertools.chain(involutions if by_involutions else (), candidates):
                if (x in covered or x in members
                        or half[x] not in members and not (by_involutions and half[x] == x)):
                    continue
                o = view.order_of(x)
                powers = itertools.accumulate(range(o - 2), lambda y, _: mult(x, y), initial=x)
                covered |= orbit([y for k, y in enumerate(powers, 1) if math.gcd(k, o) == 1], letters)
                joined = view.closure(gens + (x,), members, None if half[x] == x else forbidden)
                if joined is not None:
                    register(joined, gens + (x,), None if half[x] == x else candidates)
        classes.sort(key=lambda c: (len(c[5]), c[5]))
        return [view if len(rep) == n else
                view.sub(map(view.elements.__getitem__, rep), tuple(map(self.conjugator(t), gens)))
                for _, gens, _, _, _, rep, t in classes]


# ---------------------------------------------------------------------------
# quotients


def quotient_view(view: GroupView, normal_members: frozenset[int]) -> GroupView:
    """The quotient of a view's group by a normal subgroup N, as the view
    of a FinGroup on the cosets, numbered in order of their least members.
    The group acts regularly on them, so each distinct nontrivial
    generator coset has one translation table, one product per coset, and
    the words come from a breadth-first walk from N.  Normality is the
    caller's responsibility (checked in quotient_group); N the whole view
    gives the one-element group at once."""
    if len(normal_members) == view.order:
        return FinGroup([0], [], [b""], None).view
    coset = view.ambient.coset
    nm = sorted(normal_members)
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for x in view.elements:
        if x not in coset_of:
            coset_of.update(dict.fromkeys(coset(x, nm), len(reps)))
            reps.append(x)
    perms: list[list[int]] = []
    found = {0}
    for g in view.gens:
        q = coset_of[g]
        if q not in found:
            found.add(q)
            perms.append(list(map(coset_of.__getitem__, coset(g, reps))))
    words: list[Optional[bytes]] = [b""] + [None] * (len(reps) - 1)
    queue = [0]
    for x in queue:
        for a, perm in enumerate(perms):
            y = perm[x]
            if words[y] is None:
                words[y] = words[x] + bytes((a,))
                queue.append(y)
    return FinGroup(reps, perms, words, None).view


def quotient_group(h: GroupView, n: GroupView) -> GroupView:
    """H/N on minimal coset representatives; verifies N is normal in H,
    that is, the H-class of each generator of N lies in N."""
    if not n.members <= h.members:
        raise ValueError("divisor is not contained in the subgroup")
    classes, class_of = h.class_map()
    if not all(n.members.issuperset(classes[class_of[s]]) for s in n.gens):
        raise ValueError("divisor is not normal in the subgroup")
    return quotient_view(h, n.members)


# ---------------------------------------------------------------------------
# fingerprints and identification


class GroupId(NamedTuple):
    order: int
    gid: int

    def __str__(self):
        return f"({self.order},{self.gid})"


class UnidentifiedGroup(NamedTuple):
    order: int
    tier1: tuple

    def __str__(self):
        return f"({self.order},?)"


class Fingerprint(NamedTuple):
    """Isomorphism invariants: cheap tier separates almost everything."""

    order: int
    order_histogram: tuple[tuple[int, int], ...]
    class_count: int
    abelian_invariants: tuple[int, ...]
    center_order: int
    derived_sizes: tuple[int, ...]


def _abelian_invariants(q: GroupView) -> tuple[int, ...]:
    if q.order == 1:
        return ()
    orders = [q.order_of(x) for x in q.elements]
    out = []
    for p in _prime_factors(q.order):  # by Cauchy, the primes of the element orders
        # c_k = number of elements of order dividing p^k determines the
        # partition of the p-part
        k = 1
        prev = sum(1 for o in orders if o == 1)
        lam_conj = []
        while True:
            pk = p**k
            ck = sum(1 for o in orders if pk % o == 0)
            if ck == prev:
                break
            step = 0
            r = ck // prev
            while r > 1:
                r //= p
                step += 1
            lam_conj.append(step)
            prev = ck
            k += 1
        # lam_conj[k-1] = number of cyclic factors with exponent >= k
        for i, cnt in enumerate(lam_conj):
            nxt = lam_conj[i + 1] if i + 1 < len(lam_conj) else 0
            for _ in range(cnt - nxt):
                out.append(p ** (i + 1))
    return tuple(sorted(out))


def _derived_data(view: GroupView) -> tuple[frozenset[int], tuple[int, ...]]:
    comms = set()
    for a in view.gens:
        for b in view.gens:
            c = view.mult(view.mult(view.inv(a), view.inv(b)), view.mult(a, b))
            if c:
                comms.add(c)
    return view.normal_closure(comms)


def fingerprint(view: GroupView) -> Fingerprint:
    """The view's isomorphism invariants.  The order histogram, the class
    count and the center, whose elements are the singleton classes, are
    read off the class map, with one element order per class."""
    n = view.order
    classes, _ = view.class_map()
    hist: dict[int, int] = {}
    for c in classes:
        o = view.order_of(c[0])
        hist[o] = hist.get(o, 0) + len(c)
    # abelianization, then the derived series down to its perfect end
    dm, dg = _derived_data(view)
    ab = _abelian_invariants(quotient_view(view, dm))
    sizes = [n, len(dm)]
    while 1 < sizes[-1] < sizes[-2]:
        dm, dg = _derived_data(view.sub(dm, dg))
        sizes.append(len(dm))
    return Fingerprint(
        order=n,
        order_histogram=tuple(sorted(hist.items())),
        class_count=len(classes),
        abelian_invariants=ab,
        center_order=sum(len(c) == 1 for c in classes),
        derived_sizes=tuple(sizes),
    )


# identification catalog ------------------------------------------------------

IDENTIFY_ORDER_FLOOR = 2520  # orders at or above this report (order, 0)


def _tuples(x):
    """A JSON value with its arrays made tuples, all the way down."""
    return tuple(map(_tuples, x)) if isinstance(x, list) else x


@lru_cache(maxsize=None)
def _load_id_catalog() -> dict[tuple, list[GroupId]]:
    """Tier-1 fingerprint -> the catalog ids that carry it."""
    import json

    from .data import data_lines, read_data

    table: dict[tuple, list[GroupId]] = {}
    for line in data_lines(read_data("idcatalog.data")):
        ids, t1 = line.split("|")
        order_s, gid_s = ids.split()
        gid = GroupId(int(order_s), int(gid_s))
        # a tuple's repr is JSON with brackets for parentheses and no trailing comma
        t1 = json.loads(t1.replace("(", "[").replace(")", "]").replace(",]", "]"))
        table.setdefault(_tuples(t1), []).append(gid)
    return table


def identify(view: GroupView):
    """Match a group against the identification catalog.

    Returns a GroupId, with the (order, 0) convention at or above the
    floor where ids are not tracked; an UnidentifiedGroup sentinel carries
    the fingerprint when no single catalog entry matches.
    """
    n = view.order
    if n == 1:
        return GroupId(1, 1)
    if n >= IDENTIFY_ORDER_FLOOR:
        return GroupId(n, 0)
    fp = fingerprint(view)
    hits = _load_id_catalog().get(fp, [])
    if len(hits) == 1:
        return hits[0]
    return UnidentifiedGroup(n, tuple(fp))
