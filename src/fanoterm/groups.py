"""Finite subgroups of PGL_d built from cyclotomic generator matrices.

A group is enumerated once by breadth-first closure of the projective
classes of its generators.  A group element is its normalized matrix (the
lift whose first nonzero entry is one); its entries are hash-consed
cyclotomic values, so matrices compare and hash by the identity of their
entries.

The closure runs on residues: with N the lcm of the entries' conductors,
p = 1 (mod N) an odd prime and omega = r^((p - 1)/N) for r the least
primitive root mod p, zeta_N -> omega reduces every matrix mod
(p, zeta_N - omega).  The BFS keys each element by its images of the
projective frame {[e_1], ..., [e_d], [e_1 + ... + e_d]}, which determine
an element of PGL_d(Z/p): a generator moves a key by one table lookup per
frame point.  The residues, one ``bytes`` each as p < 256, are then
computed a layer of the BFS's spanning tree at a time by one batched
kernel, which also finds the frame's orbit.  When every residue value
has one preimage among the entries of the identity and the generators,
the group is read off its residues, with no product.  Every edge
x -a-> y is then proved exact: with A = g_a e_x and (i0, j0) the first
nonzero entry of e_y, D (A_ij - A_i0j0 y_ij) is an algebraic integer
whose conjugates are at most B in size, B from the L1 norms of the
entries; it lies in the prime above p, so p divides its norm, which is
at most B^phi(N), and p > B^phi(N) makes it zero.  Otherwise the
read-off is dropped and the exact group is closed as cosets of a
subgroup H, generated by the generator of largest residue order and the
vertices whose residues are monomial, each element placed at the vertex
of its residue: one to one onto the vertices, reduction proves every
edge.  That proof lives in ``cosets``, imported only when the read-off
is refused.  Each exact
product has a generator as one factor, scaled once per leading entry so
that the product comes out in normal form.  A failed proof is an error,
so generators of an infinite group never yield a group.  Either way each
element is kept as its code, the ranks of its entries among the group's
packed in ``bytes``, and a matrix is built when one is asked for.

After enumeration the group theory runs on element indices.  A
``FinGroup`` is the Cayley graph of its generators: ``mult`` walks an
element's generator word through per-generator translation tables, and
conjugation by each generator is one array, built from the inverses
and those tables, so conjugation by any element walks its word through
arrays.  A quotient acts regularly on its cosets, so it is a
``FinGroup`` too, built only for pi1 by ``quotient_group``, and every
subgroup and quotient is a ``GroupView``, a member set of one.
Matrices are multiplied again only per conjugacy class, by the L3 test
and the class traces of the rank.  No multiplication table is built: a
closure maps a coset through one translation table per letter.  Every
conjugacy question about a subgroup (its classes, center, normal
closures and normality of a divisor) is a read of its memoized class
map.  All derived data (orderings, class lists, subgroup lattices) is
canonical: two runs produce identical output.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import struct
from array import array
from collections.abc import Container, Set
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .cyclo import ONE, CycloNum, _phi, _prime_factors, galois
from .linalg import MatC, identity

__all__ = [
    "FinGroup",
    "GroupView",
    "GroupId",
    "UnidentifiedGroup",
    "Fingerprint",
    "OrderCapExceeded",
    "EnumerationUnproved",
    "SweepUnproved",
    "fingerprint",
    "identify",
    "quotient_group",
]


class OrderCapExceeded(RuntimeError):
    """Enumeration passed the configured cap (runaway or wrong generators)."""


class SweepUnproved(RuntimeError):
    """No certificate proves that the subgroup-class sweep found every class."""


class EnumerationUnproved(RuntimeError):
    """The generators do not give the finite group their residues show, or
    that is not proved: a power of a generator at its residue order is not
    the identity, two exact elements share a residue, an entry has no
    residue, a generator is singular, or no prime below 256 is a usable
    residue prime."""


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
# zeta_N -> omega, a root of the N-th cyclotomic polynomial mod a prime p,
# is a ring map from Z[1/D][zeta_N] onto Z/p when p is coprime to D.  A
# matrix is reduced to the flat row-major ``bytes`` of its entries'
# residues, as p < 256.


def _primitive_root(p: int) -> int:
    """The least primitive root mod an odd prime p: the least g >= 2
    with g^((p - 1)/q) != 1 for every prime q dividing p - 1."""
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in _prime_factors(p - 1)))


def _reducer(p: int, n_cond: int) -> Callable[[CycloNum], Optional[int]]:
    """The residue of a value under zeta_N -> omega mod a prime p = 1 mod
    N, None when p divides its denominator; memoized per (hash-consed)
    value.  omega = r^((p - 1)/N), r the least primitive root mod p, has
    order exactly N, so it is a root of the N-th cyclotomic polynomial
    mod p."""
    w = pow(_primitive_root(p), (p - 1) // n_cond, p)
    memo: dict[CycloNum, Optional[int]] = {}
    powers: dict[int, list[int]] = {}

    def reduce(e: CycloNum) -> Optional[int]:
        if e in memo:
            return memo[e]
        r = None
        if math.gcd(e.den, p) == 1:
            ws = powers.get(e.n)
            if ws is None:
                wn = pow(w, n_cond // e.n, p)
                ws = powers[e.n] = [pow(wn, k, p) for k in range(len(e.num))]
            r = sum(c * x for c, x in zip(e.num, ws)) * pow(e.den, -1, p) % p
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
    reduce = _reducer(p, n_cond)
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


def _residue_prime(gens: Sequence[MatC], n_cond: int):
    """(p, reduce, generator residues): the largest usable residue prime p
    below 256, so that a residue is one ``bytes``, and the ``_prime_data``
    that accepted it; EnumerationUnproved when the conductor N leaves
    none."""
    for p in range(1 + n_cond * (254 // n_cond), 2, -n_cond):
        if _prime_factors(p) == (p,) and (data := _prime_data(p, n_cond, gens)) is not None:
            return (p, *data)
    raise EnumerationUnproved(f"no usable residue prime below 256 for conductor {n_cond}")


@lru_cache(maxsize=None)
def _byte_tables(p: int, d: int):
    """Per c < p the table of ``bytes.translate`` that multiplies
    by c mod p, the inverses mod p, and the reduction mod p of a sum of d
    residues.

    Each table is one translate of ``logs``, v -> the log of v mod p to
    the primitive root r of ``_primitive_root``, with 0 sent to the
    sentinel p - 1: through the powers of r rotated by log c,
    r^e -> r^(e + log c), and the sentinel to 0."""
    r = _primitive_root(p)
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


def _layer_products(gen_residues: Sequence[Sequence[int]], d: int, c: int, p: int) -> list[Callable]:
    """Per generator g, [X_1, ..., X_m] -> the normal forms mod p of
    g X_1, ..., g X_m, for d x c residue matrices X_i as row-major
    ``bytes``: residues for c = d, points of P^(d-1)(Z/p) for c = 1.

    The X_i are stacked in one ``bytes``, so entry f of every X_i is the
    strided slice ``stack[f::d*c]``.  Entry (i, j) of every g X_i is then
    one ``bytes.translate`` of the slice of (k, j) through the table of
    multiples of g_ik when row i of g is monomial, and otherwise the sum
    mod p of such slices over the row's nonzero g_ik.  Product i is cut
    out as ``out[i::m]`` and scaled so that its first nonzero entry is 1.
    """
    tables, inv, mod = _byte_tables(p, d)
    size = d * c

    def make(flat):
        rows = [[(k, tables[flat[i * d + k]]) for k in range(d) if flat[i * d + k]] for i in range(d)]
        spec = [[(k * c + j, t) for k, t in row] for row in rows for j in range(c)]

        def products(xs: list) -> list:
            stack, m = b"".join(xs), len(xs)

            def entry(terms):
                slices = [stack[f::size].translate(t) for f, t in terms]
                return slices[0] if len(slices) == 1 else bytes(map(mod, map(sum, zip(*slices))))
            out = b"".join(map(entry, spec))
            return [w if (lead := next(filter(None, w))) == 1 else w.translate(tables[inv[lead]])
                    for w in [out[i::m] for i in range(m)]]
        return products

    return [make(flat) for flat in gen_residues]


def _frame_orbit(gen_residues: Sequence[Sequence[int]], d: int, p: int, cap: int):
    """The orbit Omega of the projective frame F = {[e_1], ..., [e_d],
    [e_1 + ... + e_d]} of P^(d-1)(Z/p) under the generators: (the indices
    in Omega of F's points, and per generator the index of its image of
    each point of Omega).  Omega is found one orbit at a time, each
    numbered consecutively.  A group of at most cap elements moves a point
    to at most cap points, so an orbit passing cap points raises
    OrderCapExceeded.  An orbit grows by layers, each layer's images under
    a generator the d x 1 case of ``_layer_products``."""
    frame = [bytes(int(i == j) for i in range(d)) for j in range(d)] + [bytes((1,) * d)]
    maps = _layer_products(gen_residues, d, 1, p)
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
    freed, the residues are built along the tree a layer at a time: the
    vertices after the last computed one whose parents are computed, at
    most 1024 of them, are g_a times their parents for each letter a, one
    ``_layer_products`` call per letter, n - 1 residue products in all.
    Every other edge x -a-> y has g_a r_x = r_y because their keys agree.
    So a key and a residue are never held for every element at once; what
    is returned is kept by the group."""
    frame, images = _frame_orbit(gen_residues, d, p, cap)
    if all(len(image) <= 256 for image in images):
        key0, step = bytes(frame), bytes.translate
        tables = [bytes(image).ljust(256, b"\0") for image in images]
    else:
        key0, step = tuple(frame), lambda key, lookup: tuple(map(lookup, key))
        tables = [image.__getitem__ for image in images]
    keys = [key0]
    index = {key0: 0}
    # the tree edge of vertex y, the root's a placeholder: parents never decrease
    parents, letters = array("I", [0]), bytearray(1)
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
    n = len(parents)
    words = [b""]
    letter_bytes = [bytes((a,)) for a in range(len(tables))]
    for x, a in zip(itertools.islice(parents, 1, None), itertools.islice(letters, 1, None)):
        words.append(words[x] + letter_bytes[a])
    residues = [bytes(int(f // d == f % d) for f in range(d * d))] * n
    mults = _layer_products(gen_residues, d, d, p)
    done = 1
    while done < n:
        stop = min(bisect.bisect_left(parents, done, done), done + 1024)
        for a, mult in enumerate(mults):
            ys = list(itertools.compress(range(done, stop), map(a.__eq__, letters[done:stop])))
            for y, r in zip(ys, mult(list(map(residues.__getitem__, map(parents.__getitem__, ys))))):
                residues[y] = r
        done = stop
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


def _norm_bound(gens: Sequence[MatC], entries: set[CycloNum], n_cond: int) -> int:
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
    phi = _phi(n_cond)
    delta = math.lcm(*(e.den for e in entries))  # Delta e_x is integral for every x
    c_max = max(_conj_bound(e, delta) for e in entries)
    r_max = 1  # the largest row sum of the conjugate bounds of delta_g g_a
    for g in gens:
        dg = math.lcm(*(e.den for e in _entries(g)))
        for row in g.rows:
            r_max = max(r_max, sum(_conj_bound(e, dg) for e in row))
    # |conj(D (A_ij - A_i0j0 y_ij))| <= Delta R C + R C C, D = delta_g Delta^2
    return (r_max * c_max * (delta + c_max)) ** phi


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
    map, and the sweep sets ``conjugates``; nothing else about it changes.
    """

    __slots__ = ("elements", "members", "mult", "inv", "coset", "order_of", "gens", "ambient",
                 "conjugates", "_class_map")

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
        self.conjugates: Optional[int] = None  # its number of conjugates in the ambient
        self._class_map: Optional[tuple[tuple[tuple[int, ...], ...],
                                        list[int] | dict[int, int]]] = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def closure(self, gens: Iterable[int], base: frozenset[int] = frozenset((0,))) -> frozenset[int]:
        """The subgroup generated by gens, grown from ``base``, a known
        subgroup of it, by cosets (Dimino; Butler, LNCS 559, 1991): per
        coset representative e and generator s, y = s e lies in a known
        coset or starts the coset y base, built by ``coset``.
        When gens and base are members, a result past half this view's
        order is the whole group (Lagrange), so the closure stops there."""
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
                    seen.update(coset(y, rest))
                    if len(seen) > half:
                        return members
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
        conjugation arrays return; for any other view it is a dict.  It is
        also the walk's visited set: an element gets its class number when
        the walk first reaches it, and the orbit's list is the queue."""
        if self._class_map is None:
            conjugators = list(map(self.ambient.conjugator, self.gens))
            elements = self.elements
            whole = isinstance(self.members, _Indices)
            classes = []
            class_of = [None] * len(elements) if whole else dict.fromkeys(elements)
            for x in elements:
                if class_of[x] is not None:
                    continue
                k = len(classes)
                class_of[x] = k
                orbit = [x]
                for y in orbit:
                    for conj in conjugators:
                        z = conj(y)
                        if class_of[z] is None:
                            class_of[z] = k
                            orbit.append(z)
                orbit.sort()
                classes.append(tuple(map(elements.__getitem__, orbit) if whole else orbit))
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
    by (conductor, denominator, coordinates), packed in one ``bytes``: one
    byte per rank when there are at most 256 entries, else two big-endian
    bytes, so codes compare as the tuples of their ranks.  ``generate``
    sets the codes, in the group's order.  Element i is the matrix of
    ``entries`` over ``codes[i]``, built only when it is asked for."""

    __slots__ = ("codes", "entries", "rank", "_pack", "_unpack", "_cuts")

    def __init__(self, entries: Sequence[CycloNum], dim: int):
        self.codes: list[bytes] = []
        self.entries = entries
        self.rank = {e: r for r, e in enumerate(entries)}
        unit = "B" if len(entries) <= 256 else "H"
        row = struct.Struct(f">{dim}{unit}")
        self._pack = struct.Struct(f">{dim * dim}{unit}").pack
        self._unpack = row.unpack
        self._cuts = [slice(i, i + row.size) for i in range(0, dim * row.size, row.size)]

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._matrix, self.codes[i]))
        return self._matrix(self.codes[i])

    def __iter__(self):
        return map(self._matrix, self.codes)

    def _matrix(self, code: bytes) -> MatC:
        entry, unpack = self.entries.__getitem__, self._unpack
        return MatC([map(entry, unpack(code[cut])) for cut in self._cuts])

    def code(self, mat: MatC) -> bytes:
        """The code of ``mat``; KeyError when one of its entries is not in
        ``entries``.  Entry and rank are one to one, so this is exact."""
        return self._pack(*map(self.rank.__getitem__, _entries(mat)))


class FinGroup:
    """A finite group on the indices 0 <= x < n, as the Cayley graph of
    its generators: ``perms[a][x]`` is the index of g_a x, so g_a is
    ``perms[a][0]``, and ``words[x]`` the ``bytes`` of letters a_1 ... a_k
    with x = g_ak ... g_a1.  ``elements[x]`` is, for a group enumerated in
    PGL_d (``generate``), the normal form of x, the identity first and the
    rest sorted by their entries, so the indexing is reproducible (an
    ``_Elements``, which keeps each element's code and no matrix); for a
    quotient (``quotient_group``, ``dim`` None, built only for pi1), the
    least member of coset x.  Nothing about the group changes after
    construction but its memo of element orders.  Per element it keeps
    its code, its word, one index in each translation table, its inverse
    and one entry in each generator's conjugation array x -> g^-1 x g, an
    ``array('I')``; these index lists and the view's members share one int
    object per index.

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

        The BFS runs in PGL_d(Z/p) for a prime p = 1 mod N, N the lcm of
        the entries' conductors, under zeta_N -> omega (``_residue_prime``
        returns p, the reduction and the generators' residues): reduction
        mod an odd split prime is injective on a finite matrix group
        (Minkowski), so the residue Cayley graph is the group's.  It tells
        elements apart by their images of a projective frame, which fix an
        element of PGL_d(Z/p), and computes the residues a layer of its
        spanning tree at a time, each layer's products under one generator
        in one call of the batched kernel ``_layer_products``
        (``_residue_bfs``).  When every residue
        value has one preimage among the entries of the identity and the
        generators, the elements are read off their residues
        (``_read_off``), and they are kept when each preimage reduces to
        its value and a norm bound proves every edge from the residues
        alone (``_norm_bound``).  Otherwise the exact group is closed as
        cosets of a subgroup H, generated by the generator of largest
        residue order and the vertices with monomial residues
        (``_coset_subgroup``): about one product per element of H and
        generator of H, one per element outside H, and one per coset
        representative and generator, each made in normal form by scaling
        its fixed factor.  Reduction is proved one to one onto the
        vertices, which proves every edge (``_exact_cosets``).  Both live
        in ``fanoterm.cosets``, imported only when the read-off is
        refused.  A failed proof raises EnumerationUnproved, so generators
        of an infinite group never yield a group.  Element y = g_a * x is
        found from x, so its word is x's word plus a, and ``mult`` replays
        the word through the translation tables.

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
        p, reduce, gen_residues = _residue_prime(gens_p, n_cond)
        residues, words, perms = _residue_bfs(gen_residues, dim, p, cap)
        n = len(residues)
        table = _read_off(residues, reduce, gens_p, ident)
        # each read-off entry is its value's preimage, so every element's
        # entries reduce to its residues when the table's do
        if table is not None and not (all(reduce(e) == r for r, e in table.items())
                                      and p > _norm_bound(gens_p, set(table.values()), n_cond)):
            table = None
        # canonical order: identity first, the rest by their entries in
        # row-major order, each entry ranked by (conductor, denominator,
        # coordinates); every index list of the group takes its ints from
        # ids, one per element.  The codes are one to one with the
        # elements: implied by the proof, and checked as it is cheap.
        by_value = lambda e: (e.n, e.den, e.num)
        ids = list(range(n))
        if table is None:
            from .cosets import _exact_cosets

            codes = _exact_cosets(gens_p, residues, words, perms, reduce, p, ident)
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
            self._orders[x] = len(self.powers(x, (0,)))
        return self._orders[x]

    def powers(self, x: int, members: Container[int]) -> list[int]:
        """x, x^2, ..., x^k for the least k >= 1 with x^k in ``members``."""
        ys = [x]
        while ys[-1] not in members:
            ys.append(self.mult(ys[-1], x))
        return ys

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
        except (KeyError, struct.error):  # an entry of no element, or another dimension
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

    def conjugator(self, h: int) -> Callable[[int], int]:
        """x -> h^-1 x h, one array lookup per letter of h's word: for
        h = g_ak ... g_a1, word a_1 ... a_k, conjugation by g_ak first."""
        arrays = [self._conjugations[a] for a in reversed(self._rword[h])]
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
        its orbit, whose size is its ``conjugates``; class k is at k - 1.

        A cyclic extension (Neubueser, Numer. Math. 2, 1960) guided by the
        involutions S, from N = <S & H> to H by normal prime-index steps: a
        class K generated by involutions joins each involution outside K,
        one closure per N_G(K)-orbit, each orbit marked as covered as it
        is walked, and every K each x in N_G(K) whose least power x^k in K
        has k prime, as the cosets x^i K, made once for all its elements
        outside K, and dropped for k = 2 when its new coset holds an
        involution; for k composite the powers x^j, j prime to k, are
        covered with x.  N_G(K) comes from Schreier generators of the walk
        registering each conjugate by its sorted members (Holt, Eick and
        O'Brien, 2005), kept until K is extended.  SweepUnproved unless a
        certificate proves that no class is missed.
        """
        view, n, mult, inv, coset = self.view, self.n, self.mult, self._inv, self.coset
        involutions = view.involutions()
        is_involution = frozenset(involutions).__contains__
        primes = _prime_factors(n)
        code = "H" if n <= 1 << 16 else "I"
        spanning = set(view.span(self.gen_idx)[1])  # generators enough to generate G
        steps = [(conj, g) for conj, g in zip(self._conjugations, self.gen_idx) if g in spanning]
        registered: set[bytes] = set()  # every conjugate of every class found
        pending = []  # members as found, generators, conjugators by N_G(K)'s generators, N_G(K)
        classes = []  # generators, least conjugate K^t, t, number of conjugates

        def register(members: frozenset[int], gens: tuple[int, ...]) -> None:
            """Key the conjugation orbit of K's sorted members, point i
            K^trans[i], and grow N_G(K) from its Schreier generators
            trans[i] g trans[j]^-1 up to order n/|orbit|."""
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
            pending.append((members, gens, list(map(self.conjugator, normalizer)),
                            grown if len(grown) == n else array(code, sorted(grown))))
            r = min(range(len(points)), key=points.__getitem__)
            classes.append((gens, points[r], trans[r], len(points)))

        register(frozenset((0,)), ())
        while pending:  # it grows as joins find new classes
            members, gens, conjugators, normalizer = pending.pop(0)
            covered: set[int] = set()
            if all(map(is_involution, gens)):
                for t in involutions:
                    if t not in covered and t not in members:
                        covered.add(t)
                        orbit = [t]
                        for y in orbit:
                            for conj in conjugators:
                                z = conj(y)
                                if z not in covered:
                                    covered.add(z)
                                    orbit.append(z)
                        register(view.closure(gens + (t,), members), gens + (t,))
            for x in normalizer:
                if x in covered or x in members:
                    continue
                xs = self.powers(x, members)
                k = len(xs)
                if k in primes:
                    new = [y for xi in xs[:-1] for y in coset(xi, members)]
                    covered.update(new)
                    if k > 2 or not any(map(is_involution, new)):
                        register(members.union(new), gens + (x,))
                else:  # each x^j, j prime to k, has the same composite k
                    covered.update(xs[j - 1] for j in range(2, k) if math.gcd(j, k) == 1)
        classes.sort(key=lambda c: (len(c[1]), c[1]))
        views = [view if len(rep) == n else
                 view.sub(map(view.elements.__getitem__, rep), tuple(map(self.conjugator(t), gens)))
                 for gens, rep, t, _ in classes]
        for v, c in zip(views, classes):
            v.conjugates = c[3]
        if not any(self._certificates(views)):
            raise SweepUnproved(f"no certificate proves the {len(views)} subgroup classes complete")
        return views

    def _certificates(self, classes: Sequence[GroupView]) -> tuple[bool, bool]:
        """Whether (a) and (b) hold; each proves every H / <S & H> solvable.
        (a) Every 2-subgroup P, all found, has P / <S & P> cyclic: a missed H
        holds a perfect R with R / (R & <S & H>) of even order (Feit-Thompson),
        so its Sylow 2-subgroup, a quotient of P / <S & P> for a Sylow P of R,
        is noncyclic (Burnside's normal p-complement theorem).  (b) Every N > 1
        generated by involutions (by its generators) has |N_G(N) : N| divisible
        by at most two primes (Burnside's p^a q^b theorem); N = 1 has |H| odd."""
        omegas = [(p, p.closure(x for x in p.elements if self.order_of(x) == 2))
                  for p in classes if p.order & (p.order - 1) == 0]
        cyclic = all(any(len(self.powers(x, omega)) * len(omega) == p.order for x in p.elements)
                     for p, omega in omegas)
        two_primes = all(len(_prime_factors(self.n // c.conjugates // c.order)) <= 2 for c in classes
                         if c.order > 1 and all(self.order_of(g) == 2 for g in c.gens))
        return cyclic, two_primes


# ---------------------------------------------------------------------------
# quotients


def quotient_group(h: GroupView, n: GroupView) -> GroupView:
    """H/N, the view of a FinGroup on the cosets of N, numbered in order of
    their least members; ValueError unless N is normal in H, that is, the
    H-class of each generator of N lies in N.  H acts regularly on the
    cosets: one translation table per distinct nontrivial generator coset,
    from its least member, one product per coset, and the words from a
    breadth-first walk from N.  N = H gives the one-element group at once."""
    if not n.members <= h.members:
        raise ValueError("divisor is not contained in the subgroup")
    classes, class_of = h.class_map()
    if not all(n.members.issuperset(classes[class_of[s]]) for s in n.gens):
        raise ValueError("divisor is not normal in the subgroup")
    if n.order == h.order:
        return FinGroup([0], [], [b""], None).view
    coset, nm = h.ambient.coset, n.elements
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for x in h.elements:
        if x not in coset_of:
            coset_of.update(dict.fromkeys(coset(x, nm), len(reps)))
            reps.append(x)
    perms = [list(map(coset_of.__getitem__, coset(reps[q], reps)))
             for q in dict.fromkeys(map(coset_of.__getitem__, h.gens)) if q]
    words: list[Optional[bytes]] = [b""] + [None] * (len(reps) - 1)
    queue = [0]
    for x in queue:
        for a, perm in enumerate(perms):
            y = perm[x]
            if words[y] is None:
                words[y] = words[x] + bytes((a,))
                queue.append(y)
    return FinGroup(reps, perms, words, None).view


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


def _abelian_invariants(view: GroupView, derived: Set[int]) -> tuple[int, ...]:
    """The abelian invariants of H/H', read off the order of each coset
    xH': the least k with x^k in H', one ``powers`` walk per element of H.
    Each coset is counted |H'| times, which leaves every ratio of the
    counts below unchanged."""
    index = view.order // len(derived)
    if index == 1:
        return ()
    powers = view.ambient.powers
    orders = [len(powers(x, derived)) for x in view.elements]
    out = []
    for p in _prime_factors(index):  # by Cauchy, the primes of the element orders
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
    read off the class map, with one element order per class.  The
    abelian invariants are read off the orders modulo the derived
    subgroup, so no quotient group is built."""
    n = view.order
    classes, _ = view.class_map()
    hist: dict[int, int] = {}
    for c in classes:
        o = view.order_of(c[0])
        hist[o] = hist.get(o, 0) + len(c)
    # abelianization, then the derived series down to its perfect end
    dm, dg = _derived_data(view)
    ab = _abelian_invariants(view, dm)
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

    from .catalog import table_rows
    from .data import read_data

    def row(line: str) -> tuple[tuple, GroupId]:
        ids, t1 = line.split("|")
        order_s, gid_s = ids.split()
        # a tuple's repr is JSON with brackets for parentheses and no trailing comma
        t1 = json.loads(t1.replace("(", "[").replace(")", "]").replace(",]", "]"))
        return _tuples(t1), GroupId(int(order_s), int(gid_s))

    table: dict[tuple, list[GroupId]] = {}
    for t1, gid in table_rows("idcatalog.data", read_data("idcatalog.data"), row):
        table.setdefault(t1, []).append(gid)
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
