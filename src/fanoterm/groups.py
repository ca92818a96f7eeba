"""Finite subgroups of PGL_d built from cyclotomic generator matrices.

A group is enumerated once by breadth-first closure of the projective
classes of its generators.  A group element is its normalized matrix (the
lift whose first nonzero entry is one); its entries are hash-consed
cyclotomic values, so matrices compare and hash by the identity of their
entries.  After enumeration the group theory runs on element indices:
``FinGroup.mult`` walks the element's generator word through
per-generator translation tables.  Matrices are multiplied again only per
conjugacy class, by the L3 test and the class traces of the rank.  The
subgroup sweep, which multiplies millions of times, builds the full
multiplication table once (2 n^2 bytes, bounded by its budget) and
multiplies by lookup.  All derived data (orderings, class lists, subgroup
lattices) is canonical: two runs produce identical output.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .cyclo import ONE
from .linalg import MatC, identity

__all__ = [
    "FinGroup",
    "GroupView",
    "GroupId",
    "UnidentifiedGroup",
    "Fingerprint",
    "OrderCapExceeded",
    "BudgetExceeded",
    "fingerprint",
    "identify",
    "quotient_group",
]


class OrderCapExceeded(RuntimeError):
    """Enumeration passed the configured cap (runaway or wrong generators)."""


class BudgetExceeded(RuntimeError):
    """A full subgroup sweep was requested above the enumeration budget."""


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
# generic group algorithms over an index interface


class GroupView:
    """A finite group on element indices: an enumerated group, a subgroup of
    it or a quotient.

    ``members`` is the frozenset of element ids valid for ``mult``/``inv``
    and ``elements`` the same ids in increasing order, so the identity id 0
    is always the first element.  ``ambient`` is the FinGroup whose indices
    a subgroup uses, or None for a quotient.  A view memoizes its element
    orders and its class map; nothing else about it changes.
    """

    __slots__ = ("elements", "members", "mult", "inv", "gens", "ambient",
                 "_order_cache", "_class_map")

    def __init__(self, members: Iterable[int], mult: Callable[[int, int], int],
                 inv: Callable[[int], int], gens: Sequence[int],
                 ambient: Optional["FinGroup"]):
        self.members = frozenset(members)
        self.elements = tuple(sorted(self.members))
        self.mult = mult
        self.inv = inv
        self.gens = tuple(gens)
        self.ambient = ambient
        self._order_cache: dict[int, int] = {}
        self._class_map: Optional[tuple[tuple[tuple[int, ...], ...], dict[int, int]]] = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def order_of(self, x: int) -> int:
        cached = self._order_cache.get(x)
        if cached is not None:
            return cached
        k, y = 1, x
        while y != 0:
            y = self.mult(y, x)
            k += 1
        self._order_cache[x] = k
        return k

    def conj(self, x: int, g: int) -> int:
        return self.mult(self.mult(self.inv(g), x), g)

    def closure(self, gens: Iterable[int]) -> frozenset[int]:
        gen_list = sorted({g for g in gens if g != 0})
        seen = {0}
        queue = [0]
        mult = self.mult
        for x in queue:
            for s in gen_list:
                y = mult(x, s)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return frozenset(seen)

    def class_map(self) -> tuple[tuple[tuple[int, ...], ...], dict[int, int]]:
        """The orbits of the conjugation action and the class index of every
        element, memoized on the view.  Each orbit is found from its least
        member, so the classes come out sorted by it."""
        if self._class_map is None:
            classes = []
            class_of: dict[int, int] = {}
            for x in self.elements:
                if x in class_of:
                    continue
                orbit = {x}
                queue = [x]
                for y in queue:
                    for g in self.gens:
                        z = self.conj(y, g)
                        if z not in orbit:
                            orbit.add(z)
                            queue.append(z)
                for z in orbit:
                    class_of[z] = len(classes)
                classes.append(tuple(sorted(orbit)))
            self._class_map = (tuple(classes), class_of)
        return self._class_map

    def involutions(self) -> list[int]:
        classes, _ = self.class_map()
        return sorted(x for c in classes if self.order_of(c[0]) == 2 for x in c)

    def normal_closure(self, seeds: Iterable[int]) -> tuple[frozenset[int], tuple[int, ...]]:
        """Smallest normal subgroup (of this view's group) containing seeds."""
        gen_list = sorted({s for s in seeds if s != 0})
        members = self.closure(gen_list)
        while True:
            new = []
            for s in gen_list:
                for g in self.gens:
                    c = self.conj(s, g)
                    if c not in members:
                        new.append(c)
            if not new:
                return members, tuple(gen_list)
            gen_list = sorted(set(gen_list) | set(new))
            members = self.closure(gen_list)

    def greedy_gens(self, members: frozenset[int]) -> tuple[int, ...]:
        """A small deterministic generating set for a known subgroup."""
        target = len(members)
        gens: list[int] = []
        covered: frozenset[int] = frozenset((0,))
        for x in sorted(members):
            if x not in covered:
                gens.append(x)
                covered = self.closure(gens)
                if len(covered) == target:
                    break
        return tuple(gens)


# ---------------------------------------------------------------------------
# enumerated matrix groups


class FinGroup:
    """A fully enumerated finite subgroup of PGL_d.

    ``elements[0]`` is the identity; the remaining elements are sorted by
    the serialized normal form of their representative matrices, so the
    indexing is reproducible across runs.  Nothing about the group changes
    after construction; only its view memoizes element orders and the
    class map.
    """

    def __init__(self, elements, gen_elem_idx, perms, words, dim):
        self.elements: list[MatC] = elements
        self.dim = dim
        self.gen_idx: tuple[int, ...] = tuple(gen_elem_idx)
        self._perms: list[list[int]] = perms
        self._rword: list[tuple[int, ...]] = words
        self._index: dict[MatC, int] = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        # the inverse of g_ak...g_a1 applies the inverse generators in reverse
        inv_perms = [[0] * n for _ in perms]
        for p, q in zip(perms, inv_perms):
            for x, y in enumerate(p):
                q[y] = x
        inv = []
        for word in words:
            r = 0
            for a in reversed(word):
                r = inv_perms[a][r]
            inv.append(r)
        self._inv = inv
        self.view = GroupView(range(n), self.mult, self.inv, self.gen_idx, self)

    # -- construction -----------------------------------------------------

    @classmethod
    def generate(cls, gens: Sequence[MatC], cap: int = 250000) -> "FinGroup":
        """Breadth-first closure of the projective classes of the generators.

        Element y = g_a * x is found from x, so its word is x's word plus a,
        and ``mult`` replays the word through the translation tables.
        """
        if not gens:
            raise ValueError("at least one generator is required")
        dim = gens[0].dim
        ident = identity(dim)
        gens_p = []
        for m in gens:
            p = _normalize(m)
            if p != ident and p not in gens_p:
                gens_p.append(p)
        elems: list[MatC] = [ident]
        index: dict[MatC, int] = {ident: 0}
        words: list[tuple[int, ...]] = [()]
        perms: list[list[int]] = [[] for _ in gens_p]
        for x, ex in enumerate(elems):
            for a, g in enumerate(gens_p):
                y = _normalize(g * ex)
                yi = index.get(y)
                if yi is None:
                    yi = len(elems)
                    if yi >= cap:
                        raise OrderCapExceeded(
                            f"group closure exceeded the cap of {cap} elements"
                        )
                    elems.append(y)
                    index[y] = yi
                    words.append(words[x] + (a,))
                perms[a].append(yi)
        n = len(elems)
        # canonical order: identity first, the rest by serialized normal form
        order = [0] + sorted(range(1, n), key=lambda i: elems[i].key)
        relabel = [0] * n
        for new, old in enumerate(order):
            relabel[old] = new
        new_perms = [[relabel[p[old]] for old in order] for p in perms]
        gen_elem_idx = [relabel[index[g]] for g in gens_p]
        return cls([elems[i] for i in order], gen_elem_idx, new_perms,
                   [words[i] for i in order], dim)

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

    def index_of(self, mat: MatC) -> int:
        """The index of the element with lift ``mat``, any scalar multiple."""
        try:
            return self._index[_normalize(mat)]
        except KeyError:
            raise KeyError("element does not belong to this group") from None

    def subgroup(self, gens: Iterable[int] = (), members: Optional[frozenset[int]] = None) -> GroupView:
        """The subgroup generated by ``gens``, or the one with the given
        ``members``; for the whole group this is the group's own view."""
        if members is None:
            gens = tuple(sorted({g for g in gens if g}))
            members = self.view.closure(gens)
        else:
            members = frozenset(members)
            gens = self.view.greedy_gens(members)
        if len(members) == self.n:
            return self.view
        return GroupView(members, self.mult, self.inv, gens, self)

    def multiplication_table(self) -> list[array]:
        """``table[i][j] == mult(i, j)``: one ``array('H')`` row per element,
        2 n^2 bytes in all.

        Element y = g_a * x has x's word plus the letter a, so row y is row x
        sent through generator a's translation table: n row passes instead
        of n^2 word walks.
        """
        words = self._rword
        index = {word: i for i, word in enumerate(words)}
        table: list = [None] * self.n
        table[0] = array("H", range(self.n))
        for y in sorted(range(1, self.n), key=lambda i: len(words[i])):
            word = words[y]
            table[y] = array("H", map(self._perms[word[-1]].__getitem__,
                                      table[index[word[:-1]]]))
        return table

    # -- subgroup conjugacy sweep -------------------------------------------

    def subgroup_conjugacy_classes(self, budget: int = 1000) -> list[GroupView]:
        """One representative view per conjugacy class of subgroups, sorted
        by order and then by sorted members; class k is at position k - 1.

        Seeds with the cyclic subgroups, then repeatedly joins class
        representatives K with cyclic subgroups until a fixed point; any
        subgroup arises this way because a maximal chain climbs one extra
        generator at a time.  K is joined with one cyclic subgroup per
        N_G(K)-orbit (Neubueser's cyclic extension): for h in N_G(K),
        <K, C^h> = <K, C>^h, so the rest of the orbit gives conjugate joins.
        Each representative is the least member list of its orbit.

        Every product goes through the multiplication table, built once here
        (2 n^2 bytes, which the budget bounds); the returned views multiply
        through it too, except the whole group, which is the group's view.
        """
        n = self.n
        if n > budget:
            raise BudgetExceeded(
                f"full sweep of a group of order {n} exceeds the budget {budget}"
            )
        table = self.multiplication_table()
        inv = self._inv
        view = GroupView(range(n), lambda a, b: table[a][b], inv.__getitem__,
                         self.gen_idx, self)
        # x -> g^-1 x g for each generator g of the group
        conjugations = [array("H", [table[y][g] for y in table[inv[g]]]) for g in self.gen_idx]

        cyclic_of: list[frozenset[int]] = []  # <x> for x = 1, ..., n - 1
        cyclics: dict[frozenset[int], int] = {}  # each with its least generator
        for x in range(1, n):
            row = table[x]
            powers = [0]
            y = x
            while y:
                powers.append(y)
                y = row[y]
            fs = frozenset(powers)
            cyclics.setdefault(fs, x)
            cyclic_of.append(fs)
        cyclic_list = sorted(cyclics.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        position = {fs: c for c, (fs, _) in enumerate(cyclic_list)}
        cyclic_id = [0] + [position[fs] for fs in cyclic_of]  # by element; 0 is unused

        registered: set[frozenset[int]] = set()  # every member of every class found
        classes: list[tuple[frozenset[int], tuple[int, ...]]] = []

        def register(members: frozenset[int], gens: tuple[int, ...]) -> None:
            if members in registered:
                return
            orbit = [members]
            registered.add(members)
            for s in orbit:
                for perm in conjugations:
                    t = frozenset(map(perm.__getitem__, s))
                    if t not in registered:
                        registered.add(t)
                        orbit.append(t)
            rep = min(orbit, key=sorted)
            classes.append((rep, gens if rep == members else view.greedy_gens(rep)))

        register(frozenset((0,)), ())
        for fs, gen in cyclic_list:
            register(fs, (gen,))
        unions: set[frozenset[int]] = set()  # K | C of every join made
        for rep, rep_gens in classes:  # classes grows as joins find new ones
            if len(rep) == n:
                continue
            normalizer: Sequence[int] = range(n)
            for x in rep_gens:
                row = table[x]
                normalizer = [h for h in normalizer if table[inv[h]][row[h]] in rep]
            covered: set[int] = set()  # cyclic subgroups in the orbits joined so far
            for c, (fs, gen) in enumerate(cyclic_list):
                if c in covered or gen in rep:
                    continue
                row = table[gen]
                covered.update(cyclic_id[table[inv[h]][row[h]]] for h in normalizer)
                union = rep | fs
                if union in unions:
                    continue
                unions.add(union)
                register(view.closure(rep_gens + (gen,)), rep_gens + (gen,))
        classes.sort(key=lambda c: (len(c[0]), sorted(c[0])))
        return [self.view if len(rep) == n else GroupView(rep, view.mult, view.inv, gens, self)
                for rep, gens in classes]


# ---------------------------------------------------------------------------
# quotients


def quotient_view(view: GroupView, normal_members: frozenset[int]) -> GroupView:
    """Quotient of a view's group by a normal subgroup, over its coset table.

    Cosets are represented by their minimal member; normality of the
    divisor is the caller's responsibility (checked in quotient_group).
    """
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    nm = sorted(normal_members)
    for x in view.elements:
        if x in coset_of:
            continue
        cid = len(reps)
        reps.append(x)
        for n_ in nm:
            coset_of[view.mult(x, n_)] = cid
    m = len(reps)
    table = [[coset_of[view.mult(reps[a], reps[b])] for b in range(m)] for a in range(m)]
    gens = []
    for g in view.gens:
        q = coset_of[g]
        if q and q not in gens:
            gens.append(q)
    inv = [row.index(0) for row in table]
    return GroupView(range(m), lambda a, b: table[a][b], inv.__getitem__, gens, None)


def quotient_group(h: GroupView, n: GroupView) -> GroupView:
    """H/N on minimal coset representatives; verifies N is normal in H."""
    if not n.members <= h.members:
        raise ValueError("divisor is not contained in the subgroup")
    for g in h.gens:
        for s in n.gens:
            if h.conj(s, g) not in n.members:
                raise ValueError("divisor is not normal in the subgroup")
    return quotient_view(h, n.members)


# ---------------------------------------------------------------------------
# fingerprints and identification


@dataclass(frozen=True)
class GroupId:
    order: int
    gid: int

    def __str__(self):
        return f"({self.order},{self.gid})"


@dataclass(frozen=True)
class UnidentifiedGroup:
    order: int
    tier1: tuple

    def __str__(self):
        return f"({self.order},?)"


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism invariants: cheap tier separates almost everything."""

    order: int
    order_histogram: tuple[tuple[int, int], ...]
    class_count: int
    abelian_invariants: tuple[int, ...]
    center_order: int
    derived_sizes: tuple[int, ...]

    @property
    def tier1(self) -> tuple:
        return (
            self.order,
            self.order_histogram,
            self.class_count,
            self.abelian_invariants,
            self.center_order,
            self.derived_sizes,
        )


def _abelian_invariants(q: GroupView) -> tuple[int, ...]:
    if q.order == 1:
        return ()
    orders = [q.order_of(x) for x in q.elements]
    primes = set()
    for o in orders:
        m = o
        d = 2
        while d * d <= m:
            if m % d == 0:
                primes.add(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            primes.add(m)
    out = []
    for p in sorted(primes):
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
    n = view.order
    hist: dict[int, int] = {}
    for x in view.elements:
        o = view.order_of(x)
        hist[o] = hist.get(o, 0) + 1
    classes = len(view.class_map()[0])
    # abelianization, then the derived series down to its perfect end
    dm, dg = _derived_data(view)
    ab = _abelian_invariants(quotient_view(view, dm))
    center = sum(
        1
        for x in view.elements
        if all(view.mult(x, g) == view.mult(g, x) for g in view.gens)
    )
    sizes = [n, len(dm)]
    while 1 < sizes[-1] < sizes[-2]:
        dm, dg = _derived_data(GroupView(dm, view.mult, view.inv, dg, view.ambient))
        sizes.append(len(dm))
    return Fingerprint(
        order=n,
        order_histogram=tuple(sorted(hist.items())),
        class_count=classes,
        abelian_invariants=ab,
        center_order=center,
        derived_sizes=tuple(sizes),
    )


# identification catalog ------------------------------------------------------

IDENTIFY_ORDER_FLOOR = 2520  # orders at or above this report (order, 0)


@lru_cache(maxsize=None)
def _load_id_catalog() -> dict[tuple, list[GroupId]]:
    """Tier-1 fingerprint -> the catalog ids that carry it."""
    import ast
    import importlib.resources as res

    from . import data as _data

    table: dict[tuple, list[GroupId]] = {}
    for line in (res.files(_data) / "idcatalog.data").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        ids, t1 = line.split("|")
        order_s, gid_s = ids.split()
        gid = GroupId(int(order_s), int(gid_s))
        table.setdefault(ast.literal_eval(t1.strip()), []).append(gid)
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
    hits = _load_id_catalog().get(fp.tier1, [])
    if len(hits) == 1:
        return hits[0]
    return UnidentifiedGroup(n, fp.tier1)
