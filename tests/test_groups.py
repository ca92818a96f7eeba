import contextlib
import math
from collections import Counter
import random
import signal
import sys
import tracemalloc

import pytest

from fanoterm.cyclo import ONE, ZERO, rational, root_of_unity, sqrt_rational
from fanoterm import catalog, cli, cosets, groups
from fanoterm.catalog import group_keys, load_group
from fanoterm.cli import EXIT_VALIDATION, main as cli_main
from fanoterm.groups import (
    EnumerationUnproved,
    FinGroup,
    GroupId,
    GroupView,
    OrderCapExceeded,
    UnidentifiedGroup,
    _normalize,
    fingerprint,
    identify,
    quotient_group,
)
from fanoterm.linalg import MatC, diag, identity, mat_from_strings, perm_mat
from oracles import (all_joins_subgroup_classes, bfs_closure, bounded_closure, commuting_center,
                     coset_table_quotient, exact_bfs_group, fixpoint_normal_closure, greedy_gens,
                     int_cyclotomic_poly, product_class_map, residue_bfs, residue_product,
                     subgroup_orbit)

W = root_of_unity(3, 1)


def perm_group(*image_lists, dim=None):
    d = dim or max(len(x) for x in image_lists)
    return FinGroup.generate([perm_mat(im, d) for im in image_lists])


S3 = lambda: perm_group([1, 0, 2], [1, 2, 0])
A4 = lambda: perm_group([1, 2, 0, 3], [1, 0, 3, 2])
C6 = lambda: perm_group([1, 2, 3, 4, 5, 0])


def test_projective_normalization():
    m = diag([W, W, W, ONE, ONE, ONE])
    scaled = m.scale(W)
    assert _normalize(m) == _normalize(scaled)
    first = next(e for row in _normalize(scaled).rows for e in row if not e.is_zero)
    assert first is ONE


def test_generate_identity_only():
    g = FinGroup.generate([identity(3)])
    assert g.n == 1


def test_generate_cap():
    with pytest.raises(OrderCapExceeded):
        perm_group_cap = FinGroup.generate([perm_mat([1, 2, 3, 4, 5, 6, 0], 7)], cap=5)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_generate_identity_only_in_every_dimension(d):
    # no generator is left after normalization, so there is no point image
    # table and the frame's orbit is the frame itself
    for gens in ([identity(d)], [identity(d).scale(W)], [identity(d), identity(d).scale(ONE + ONE)]):
        group = FinGroup.generate(gens)
        assert group.n == 1 and list(group.elements) == [identity(d)] and group.gen_idx == ()
    residue = bytes(int(i == j) for i in range(d) for j in range(d))
    assert groups._residue_bfs([], d, 251, 10) == ([residue], [b""], [])


def _elementary(d, i, j):
    return MatC([[ONE if a == b or (a, b) == (i, j) else ZERO for b in range(d)]
                 for a in range(d)])


def test_generate_cap_on_an_infinite_group_passed_by_the_frame_orbit():
    # the elementary matrices generate SL_3(Z): mod p the orbit of [e_1] is
    # all of P^2(Z/p), so the frame's orbit passes the cap first
    gens = [_elementary(3, 0, 1), _elementary(3, 1, 2), _elementary(3, 2, 0)]
    with pytest.raises(OrderCapExceeded, match="an orbit of the projective frame passed 100 points"):
        FinGroup.generate(gens, cap=100)


def test_generate_cap_on_an_infinite_group_passed_by_the_element_count():
    # two commuting unipotent blocks, each fixing its (1, 1): mod p the
    # group has p^2 elements, but each frame point moves through at most p
    # points, so the element count passes the cap first
    block = [[ONE + ONE, -ONE], [ONE, ZERO]]
    upper = MatC([row + [ZERO, ZERO] for row in block] + [[ZERO, ZERO, ONE, ZERO],
                                                          [ZERO, ZERO, ZERO, ONE]])
    lower = MatC([[ONE, ZERO, ZERO, ZERO], [ZERO, ONE, ZERO, ZERO]]
                 + [[ZERO, ZERO] + row for row in block])
    with pytest.raises(OrderCapExceeded, match="exceeded the cap of 1000 elements"):
        FinGroup.generate([upper, lower], cap=1000)


# the size of the projective frame's orbit: at most 256 points give bytes keys
FRAME_ORBIT_SIZES = {"Q8_S3": 58, "A3_5": 23, "L2_11": 1706, "M10_first": 84, "M10_second": 990,
                     "G1944": 66, "A7_perm": 28, "A7_second": 420, "C3_4_A6": 87}


@pytest.mark.parametrize("key", sorted(FRAME_ORBIT_SIZES))
def test_residue_bfs_matches_the_residue_keyed_oracle(monkeypatch, key):
    # frame-image keys with residues built a tree layer at a time give
    # exactly the residues, words and permutations of comparing every
    # edge's residue, with one residue product per element but the identity
    calls, products = [], []
    residue_bfs_under_test, layer_products = groups._residue_bfs, groups._layer_products

    def recorded_bfs(*args):
        # generate recodes the residues and relabels the perms in place, so
        # the record keeps copies of the returned lists
        got = residue_bfs_under_test(*args)
        calls.append((args, tuple(map(list, got))))
        return got

    def counted_products(gen_residues, d, c, p):
        # the frame orbit's d x 1 images are not residue products
        kernels = layer_products(gen_residues, d, c, p)
        if c != d:
            return kernels
        return [lambda xs, k=k: (out := k(xs), products.append(len(out)))[0] for k in kernels]

    monkeypatch.setattr(groups, "_residue_bfs", recorded_bfs)
    monkeypatch.setattr(groups, "_layer_products", counted_products)
    definition = load_group(key)
    FinGroup.generate(definition.generators, cap=definition.order)
    [(args, got)] = calls
    assert len(got[0]) == definition.order and sum(products) == definition.order - 1
    gen_residues, d, p, cap = args
    _, images = groups._frame_orbit(gen_residues, d, p, cap)
    assert {len(image) for image in images} == {FRAME_ORBIT_SIZES[key]}
    assert got == residue_bfs(*args)


@pytest.mark.parametrize("key", sorted(FRAME_ORBIT_SIZES))
def test_layer_products_match_the_per_element_product(key):
    # the batched kernel gives each product of the plain matrix product mod
    # p, normalized, on stacks of 1, 2 and more than 1024 residues and of
    # d x 1 points.  A stack of two or more holds x and 2x, whose products
    # lead with l and 2l, so one of them leads with l != 1 and is scaled;
    # some inputs have zero rows, so some products lead past their entry 0
    definition = load_group(key)
    n_cond = math.lcm(*(e.n for g in definition.generators for row in g.rows for e in row))
    p, _, gen_residues = groups._residue_prime(definition.generators, n_cond)
    d, rng = 6, random.Random(key)
    double = bytes(2 * v % p for v in range(256))

    def matrix(c):
        zero_rows = rng.choice((0, 0, 1, d - 1))
        return bytes(rng.randrange(p) if f >= zero_rows * c else 0 for f in range(d * c - 1)) + b"\1"

    for c in (d, 1):
        kernels = groups._layer_products(gen_residues, d, c, p)
        for m in (1, 2, 1030):
            xs = [matrix(c) for _ in range(m - m // 2)]
            xs += [x.translate(double) for x in xs[:m // 2]]
            for g, kernel in zip(gen_residues, kernels):
                assert kernel(xs) == [residue_product(g, x, d, p) for x in xs]


def _assert_same_enumeration(got, want):
    assert list(got.elements) == list(want.elements)
    assert got.gen_idx == want.gen_idx
    assert got._perms == want._perms
    assert got._rword == want._rword


@pytest.mark.parametrize("key", ["Q8_S3", "A3_5", "L2_11", "M10_first", "M10_second", "G1944",
                                 "A7_perm", "A7_second"])
def test_generate_matches_exact_bfs_on_catalog_groups(built, key):
    # residue BFS, exact spanning tree and edge proofs give exactly the
    # enumeration of one exact product per Cayley-graph edge
    _assert_same_enumeration(built(key), exact_bfs_group(load_group(key).generators))


def test_read_off_elements_of_c3_4_a6_are_exact(built):
    # every C3_4_A6 element is read off its residues with no exact product;
    # one exact product per element checks the edges of one diagonal and one
    # permutation generator
    group = built("C3_4_A6")
    gens = [group.elements[i] for i in group.gen_idx]
    diagonal = next(a for a, g in enumerate(gens)
                    if g.nnz == tuple((i,) for i in range(group.dim)))
    permutation = next(a for a, g in enumerate(gens)
                       if all(e is ZERO or e is ONE for row in g.rows for e in row))
    for a in (diagonal, permutation):
        g, perm = gens[a], group._perms[a]
        assert all(_normalize(g * e) == group.elements[perm[x]]
                   for x, e in enumerate(group.elements))


def test_c3_4_a6_stores_one_int_per_index_and_byte_words(built):
    # a word is bytes of generator letters, and the perms, the inverses and
    # the whole-group view's members share one int object per index
    group = built("C3_4_A6")
    assert all(type(word) is bytes for word in group._rword)
    seqs = (*group._perms, group._inv, group.view.members)
    assert all(len(seq) == group.n for seq in seqs)
    assert len({id(x) for seq in seqs for x in seq}) == group.n


def test_whole_group_members_hold_no_hash_table(built):
    # every index 0 <= x < n is a member of the whole group's view, so its
    # members are a range test that acts as the frozenset of the indices
    group = built("C3_4_A6")
    members, want = group.view.members, frozenset(range(group.n))
    assert not isinstance(members, frozenset) and sys.getsizeof(members) < 100
    assert members == want and want == members and hash(members) == hash(want)
    assert {want: "whole"}[members] == "whole"
    assert 0 in members and group.n - 1 in members
    assert group.n not in members and -1 not in members and "0" not in members
    sub = group.subgroup(gens=[1, 2]).members
    assert sub <= members and members >= sub and members.issuperset(sub)
    assert type(sub & members) is frozenset and sub & members == sub
    assert type(members - sub) is frozenset and members - sub == want - sub
    assert group.view.closure(group.gen_idx) is members
    assert group.subgroup(members=want) is group.view


def test_generate_refuses_256_generators():
    # a word holds one letter per byte; the generators are checked before
    # any residue is computed
    gens = [diag([ONE, rational(k)]) for k in range(2, 258)]
    with pytest.raises(ValueError, match="fewer than 256 distinct generators"):
        FinGroup.generate(gens)
    with pytest.raises(ValueError, match="fewer than 256 distinct generators"):
        FinGroup.generate(gens[:255] + [identity(2)] + gens[:1] + gens[255:256])


def test_canonical_order_of_c3_4_a6(built):
    # C3_4_A6 is sorted by its residues translated to entry ranks; the
    # elements after the identity strictly increase under the tuple of
    # their entries' ranks, each entry ranked by (conductor, denominator,
    # coordinates)
    group = built("C3_4_A6")
    entries = sorted({e for m in group.elements for row in m.rows for e in row},
                     key=lambda e: (e.n, e.den, e.num))
    rank = {e: r for r, e in enumerate(entries)}
    keys = [tuple(rank[e] for row in m.rows for e in row) for m in group.elements[1:]]
    assert group.elements[0] == identity(group.dim)
    assert all(a < b for a, b in zip(keys, keys[1:]))


# the order of the subgroup H whose cosets close each catalog group not read
# off its residues (some residues there have no preimage or two), and the
# number of its cosets: H is generated by a cheap generator s and the
# monomial vertices, and L2_11's only monomial vertex is the identity
COSET_SUBGROUPS = {"Q8_S3": (16, 3), "L2_11": (3, 220), "M10_second": (16, 45), "A7_second": (72, 35)}


def _record_coset_subgroup(monkeypatch):
    # (the BFS words, H's generator vertices, H's vertices) per call
    calls, coset_subgroup = [], cosets._coset_subgroup

    def recorded(residues, words, *args):
        calls.append((list(words), *coset_subgroup(residues, words, *args)))
        return calls[-1][1:]

    monkeypatch.setattr(cosets, "_coset_subgroup", recorded)
    return calls


@pytest.mark.parametrize("key", sorted(COSET_SUBGROUPS))
def test_coset_subgroup_of_each_exact_group(monkeypatch, key):
    calls = _record_coset_subgroup(monkeypatch)
    definition = load_group(key)
    group = FinGroup.generate(definition.generators, cap=definition.order)
    [(words, hverts, members)] = calls
    assert (len(members), group.n // len(members)) == COSET_SUBGROUPS[key]
    # s, H's first generator, is the first generator of largest order, a
    # generator's order being its residue order; its vertex's word is its letter
    orders = [group.order_of(g) for g in group.gen_idx]
    assert words[hverts[0]] == bytes((orders.index(max(orders)),))


@pytest.mark.parametrize("key, read_off", [
    ("A3_5", True), ("A7_perm", True), ("M10_first", True), ("G1944", True),
    ("Q8_S3", False), ("L2_11", False), ("M10_second", False), ("A7_second", False),
])
def test_generate_exact_product_count(monkeypatch, key, read_off):
    products = []
    times = MatC.times  # every product, a * b included
    monkeypatch.setattr(MatC, "times", lambda a, b, head=(): products.append(1) or times(a, b, head))
    calls = _record_coset_subgroup(monkeypatch)
    definition = load_group(key)
    group = FinGroup.generate(definition.generators, cap=definition.order)
    if read_off:
        assert products == [] and calls == []
    else:
        # the products along the words of H's generators but s, then every
        # element of H but the identity times each of H's generators, each
        # coset but H built along H's BFS tree, and every representative
        # but the identity times each of the k generators
        [(words, hverts, members)] = calls
        h, r, k = len(members), group.n // len(members), len(group.gen_idx)
        along_words = sum(len(words[v]) - 1 for v in hverts[1:])
        assert len(products) == along_words + (h - 1) * len(hverts) + (r - 1) * (h - 1) + (r - 1) * k


def test_generate_scales_each_factor_once_per_lead(monkeypatch):
    # every exact product of M10_second's closure comes out in normal form
    # by scaling its fixed factor, a generator or one of H's, by the inverse
    # of the product's lead, once per factor and lead: no product is scaled
    definition = load_group("M10_second")
    gens = [*definition.generators, *map(_normalize, definition.generators)]
    scaled = []
    scale = MatC.scale
    monkeypatch.setattr(MatC, "scale", lambda m, c: scaled.append((m, c)) or scale(m, c))
    calls = _record_coset_subgroup(monkeypatch)
    group = FinGroup.generate(definition.generators, cap=definition.order)
    [(words, hverts, _)] = calls
    factors = {*gens, *(group.elements[group._rword.index(words[v])] for v in hverts)}
    assert scaled and len(set(scaled)) == len(scaled)
    assert {m for m, _ in scaled} <= factors


@pytest.mark.parametrize("key", ["Q8_S3", "L2_11", "M10_second"])
def test_generate_probes_no_lead_twice(monkeypatch, key):
    # a product's lead probes are the first entries of its first row, so
    # the closure makes one dot per entry of its products and no other:
    # on L2_11, 878 products, all of lead one, and 878 x 36 dots
    from fanoterm import linalg

    dots, dot = [], linalg.dot
    counted = lambda pairs: dots.append(1) or dot(pairs)
    monkeypatch.setattr(linalg, "dot", counted)
    monkeypatch.setattr(cosets, "dot", counted)
    products, times = [], MatC.times
    monkeypatch.setattr(MatC, "times", lambda a, b, head=(): products.append(1) or times(a, b, head))
    definition = load_group(key)
    FinGroup.generate(definition.generators, cap=definition.order)
    assert products and len(dots) == 36 * len(products)
    if key == "L2_11":
        assert len(products) == 878


@pytest.mark.parametrize("gens", [
    pytest.param(lambda: [identity(3)], id="identity-only"),
    pytest.param(lambda: [identity(2), identity(2).scale(W)], id="2x2-scalars-only"),
    pytest.param(lambda: [perm_mat([1, 0, 2], 3), perm_mat([1, 2, 0], 3)], id="3x3-S3"),
    pytest.param(lambda: [perm_mat([1, 2, 0, 3], 4), perm_mat([1, 0, 3, 2], 4)], id="4x4-A4"),
    pytest.param(lambda: [diag([W, W, W, ONE, ONE, ONE]), diag([ONE, W, W * W, ONE, ONE, ONE])],
                 id="6x6-diagonal"),
    pytest.param(lambda: [perm_mat([1, 0, 2, 3, 4, 5, 6], 7), perm_mat([1, 2, 3, 4, 5, 6, 0], 7)],
                 id="7x7-S7"),
    pytest.param(lambda: [perm_mat(list(range(1, 17)) + [0], 17)], id="17x17-C17"),
])
def test_generate_matches_exact_bfs_on_small_groups(gens):
    _assert_same_enumeration(FinGroup.generate(gens()), exact_bfs_group(gens()))


def test_generate_refuses_infinite_group_with_finite_residues():
    # [[1, 1], [0, 1]] has infinite order, but mod the residue prime it has
    # finite order: the residue BFS closes, and the power at its residue
    # order is not the identity
    unipotent = MatC([[ONE, ONE], [ZERO, ONE]])
    with pytest.raises(EnumerationUnproved, match="to the power 251, its residue order, is not the identity"):
        FinGroup.generate([unipotent], cap=1000)


def test_generate_refuses_a_cheap_generator_of_infinite_order():
    # the unipotent generator, sparse and of residue order 251, is the cheap
    # one beside diag(-1, 1) of order 2; mod p the group has 502 elements
    unipotent = MatC([[ONE, ONE], [ZERO, ONE]])
    with pytest.raises(EnumerationUnproved, match="generator 1 to the power 251, its residue order, is not"):
        FinGroup.generate([diag([-ONE, ONE]), unipotent], cap=1000)


def test_generate_refuses_an_infinite_group_of_finite_order_generators():
    # two involutions whose product [[1, -1], [0, 1]] has infinite order
    # (the infinite dihedral group): the cheap one, diag(-1, 1), closes
    # exactly, but its cosets pass the 502 elements of the residue group
    reflection = MatC([[-ONE, ONE], [ZERO, ONE]])
    assert _normalize(reflection * reflection) == identity(2)
    with pytest.raises(EnumerationUnproved, match="the group has more than 502 elements"):
        FinGroup.generate([diag([-ONE, ONE]), reflection], cap=1000)


def test_generate_refuses_an_infinite_group_read_off_its_residues(monkeypatch):
    # mod 3 every power of [[1, 1], [0, 1]] reads off the entries 0, 1, -1
    # of it and its inverse, giving a group of order 3; 3 is below the norm
    # bound, so the read-off is dropped and the cube of the first generator
    # is not the identity
    monkeypatch.setattr(groups, "_residue_prime",
                        lambda gens, n_cond: (3, *groups._prime_data(3, n_cond, gens)))
    read = []
    read_off = groups._read_off

    def recorded(residues, *args):
        read.append((len(residues), read_off(residues, *args)))
        return read[-1][1]

    monkeypatch.setattr(groups, "_read_off", recorded)
    unipotent = MatC([[ONE, ONE], [ZERO, ONE]])
    with pytest.raises(EnumerationUnproved, match="generator 0 to the power 3, its residue order, is not"):
        FinGroup.generate([unipotent, MatC([[ONE, -ONE], [ZERO, ONE]])], cap=1000)
    [(vertices, table)] = read
    assert vertices == 3 and sorted(table) == [0, 1, 2]


def test_generate_drops_a_tampered_read_off(monkeypatch, built):
    # one preimage of the read-off table replaced by another entry does not
    # reduce to its residue value: the table's check fails, the read-off is
    # dropped, and every element is computed exactly
    read_off, exact_cosets, tried, closed = groups._read_off, cosets._exact_cosets, [], []

    def tampered(residues, reduce, gens, ident):
        table = read_off(residues, reduce, gens, ident)
        r = max(table)
        table[r] = next(e for e in table.values() if reduce(e) != r)
        tried.append(table)
        return table

    monkeypatch.setattr(groups, "_read_off", tampered)
    monkeypatch.setattr(cosets, "_exact_cosets", lambda *args: closed.append(1) or exact_cosets(*args))
    definition = load_group("A3_5")
    group = FinGroup.generate(definition.generators, cap=definition.order)
    assert tried and closed
    _assert_same_enumeration(group, built("A3_5"))


@pytest.mark.parametrize("kept, repeated", [(1, -1), (0, -1), (0, 1)])
def test_generate_refuses_two_vertices_with_one_residue(monkeypatch, kept, repeated):
    # a residue graph whose vertex repeats another's residue, the
    # identity's among them, still reads off A3_5's entries, and the check
    # that the residues are one to one with the vertices refuses it
    residue_bfs = groups._residue_bfs

    def repeating(*args):
        residues, words, perms = residue_bfs(*args)
        residues[repeated] = residues[kept]
        return residues, words, perms

    monkeypatch.setattr(groups, "_residue_bfs", repeating)
    definition = load_group("A3_5")
    with pytest.raises(EnumerationUnproved, match="two vertices of the residue graph are one element"):
        FinGroup.generate(definition.generators, cap=definition.order)


def test_generate_holds_no_second_copy_of_per_element_data():
    # building C3_4_A6 never holds two copies of a per-element list: the
    # traced peak stays within 1.2 times the finished group's size (1.11
    # on Python 3.10 to 3.13; 1.37 with the BFS's keys beside its residues,
    # the residues joined for the read-off test, a translated copy of each
    # residue as its sort key and every inverse permutation kept to the end)
    definition = load_group("C3_4_A6")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = FinGroup.generate(definition.generators, cap=definition.order)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.n == 29160
    assert peak - before < 1.2 * (retained - before)


def test_generate_builds_no_matrix_per_read_off_element(monkeypatch):
    # a read-off group keeps residues and the preimage table: enumerating
    # C3_4_A6 builds the identity and at most one normal form per generator
    built_mats = []
    init = MatC.__init__
    monkeypatch.setattr(MatC, "__init__", lambda m, rows: built_mats.append(1) or init(m, rows))
    definition = load_group("C3_4_A6")
    group = FinGroup.generate(definition.generators, cap=definition.order)
    assert group.n == 29160
    assert len(built_mats) <= len(definition.generators) + 1
    assert isinstance(group.elements[5], MatC) and len(built_mats) <= len(definition.generators) + 2


def _assert_index_of_round_trips(group, count=50, seed=7):
    # elements in the middle, every slice element equal to its indexed one,
    # and scalar multiples of each lift give the same index
    rng = random.Random(seed)
    scalars = [W, -ONE, W * W + W, ONE + ONE]
    for i in rng.sample(range(group.n), min(count, group.n)):
        m = group.elements[i]
        assert group.elements[i:i + 1] == [m]
        assert group.index_of(m) == i
        assert group.index_of(m.scale(rng.choice(scalars))) == i


def test_index_of_round_trips_on_c3_4_a6(built):
    group = built("C3_4_A6")
    _assert_index_of_round_trips(group)
    assert group.index_of(identity(6).scale(W)) == 0


def test_index_of_round_trips_on_an_exact_group(built):
    # M10_second is closed as exact cosets and has 1511 distinct entries:
    # its codes are two bytes per rank, bisected as one-byte codes are, and
    # a miss is a KeyError
    group = built("M10_second")
    assert type(group.elements.codes[1]) is bytes and len(group.elements.codes[1]) == 2 * 36
    _assert_index_of_round_trips(group)
    assert group.index_of(identity(6).scale(W)) == 0
    with pytest.raises(KeyError, match="does not belong"):
        group.index_of(_elementary(6, 0, 1))


@pytest.mark.parametrize("key", sorted(set(group_keys()) - {"C3_4_A6", "M10_second"}))
def test_index_of_round_trips(built, key):
    group = built(key)
    _assert_index_of_round_trips(group)
    assert group.index_of(identity(6).scale(W)) == 0


# closed as exact cosets: A7_second's codes are one byte per rank, M10_second's two
@pytest.mark.parametrize("key", ["A7_second", "M10_second"])
def test_index_of_rejects_foreign_matrices_of_an_exact_group(built, key):
    group = built(key)
    with pytest.raises(KeyError, match="does not belong"):
        group.index_of(_elementary(6, 0, 1))
    # a lift of no element whose normal form has a code, so the bisection
    # misses: element 1 with its first two rows swapped
    rows = list(group.elements[1].rows)
    rows[0], rows[1] = rows[1], rows[0]
    assert all(e in group.elements.rank for row in _normalize(MatC(rows)).rows for e in row)
    with pytest.raises(KeyError, match="does not belong"):
        group.index_of(MatC(rows))


@pytest.mark.parametrize("key", group_keys())
def test_every_enumerated_group_keeps_sorted_codes_and_no_matrix(built, key):
    # one bytes code per element, one byte per entry's rank for at most 256
    # distinct entries and two above, sorted and distinct after the
    # identity; the group and its store hold no per-element matrix
    group = built(key)
    store = group.elements
    codes = store.codes
    assert len(codes) == group.n
    width = 1 if len(store.entries) <= 256 else 2
    assert {(type(c), len(c)) for c in codes} == {(bytes, width * group.dim ** 2)}
    assert all(a < b for a, b in zip(codes[1:], codes[2:]))
    held = [*vars(group).values(), *(getattr(store, name) for name in store.__slots__)]
    for value in held:
        if isinstance(value, (list, tuple, dict)) and len(value) >= group.n:
            items = value.values() if isinstance(value, dict) else value
            assert not any(isinstance(x, MatC) for x in items), key


def test_element_orders_are_memoized_once_per_group(monkeypatch):
    # an element's order does not depend on the view: once one view has
    # asked for it, another view of the same group makes no product for it
    group = A4()
    mult, calls = group.mult, []
    monkeypatch.setattr(group, "mult", lambda i, j: calls.append((i, j)) or mult(i, j))
    x = group.gen_idx[0]  # a 3-cycle
    first = group.subgroup(gens=[x])
    second = group.view.sub(range(group.n), group.gen_idx)
    assert first.order_of(x) == 3 and calls
    calls.clear()
    assert second.order_of(x) == 3 and calls == []


def test_index_of_rejects_foreign_matrices_of_a_read_off_group(built):
    group = built("C3_4_A6")
    entries = group.elements.entries
    # every entry is a preimage, but the elementary matrix has infinite order
    elementary = _elementary(6, 0, 1)
    assert all(e in entries for row in elementary.rows for e in row)
    with pytest.raises(KeyError, match="does not belong"):
        group.index_of(elementary)
    # an element with its last zero entry replaced by 256!, a multiple of
    # every prime below 256: the residue is the element's, but 256! is no
    # preimage, so the lift is not that element
    rows = [list(row) for row in group.elements[1].rows]
    shifted = rational(math.factorial(256))
    j = max(j for j in range(6) if rows[5][j] is ZERO)
    rows[5][j] = shifted
    assert shifted not in entries
    with pytest.raises(KeyError, match="does not belong"):
        group.index_of(MatC(rows))


def test_generate_refuses_a_conductor_with_no_residue_prime_below_256():
    # a residue is one byte per entry, so its prime is below 256; no prime
    # below 256 is 1 mod 132 (133 = 7 * 19, 265 = 5 * 53)
    gens = [diag([root_of_unity(132, 1), ONE]), perm_mat([1, 0], 2)]
    with pytest.raises(EnumerationUnproved, match="no usable residue prime below 256 for conductor 132"):
        FinGroup.generate(gens)


def test_generate_refuses_a_tampered_element(monkeypatch):
    # one element of a coset, a right product with s, is replaced by another
    # group element: its coset no longer fills its own vertices, and a
    # later coset reaches one of the vertices it took.  s is Q8_S3's third
    # generator (order 4, the first of largest order, the choice of
    # _exact_cosets); H has 16 elements, all of leading entry one, so its BFS
    # makes 15 right products with s itself, and the 18th is in the first
    # coset after H
    gens = load_group("Q8_S3").generators
    s = _normalize(gens[2])
    times, chained = MatC.times, []

    def tampered(a, b, head=()):
        c = times(a, b, head)
        if b == s:
            chained.append(c)
            if len(chained) == 18:
                return times(gens[0], c)
        return c

    monkeypatch.setattr(MatC, "times", tampered)
    with pytest.raises(EnumerationUnproved, match="the group has more than 48 elements"):
        FinGroup.generate(gens, cap=48)
    assert len(chained) >= 18


def test_generate_refuses_a_tampered_generator_of_the_coset_subgroup(monkeypatch):
    # M10_second's second generator of H is a monomial vertex whose matrix
    # is the product along its BFS word, the first products made; the last
    # of them replaced by another group element does not reduce to it
    gens = load_group("M10_second").generators
    g = _normalize(gens[0])
    calls = _record_coset_subgroup(monkeypatch)
    times, products = MatC.times, []

    def tampered(a, b, head=()):
        products.append(times(a, b, head))
        [(words, hverts, _)] = calls
        if len(products) == len(words[hverts[1]]) - 1:
            return _normalize(times(g, products[-1]))
        return products[-1]

    monkeypatch.setattr(MatC, "times", tampered)
    with pytest.raises(EnumerationUnproved, match="the product along the word of element"):
        FinGroup.generate(gens, cap=720)
    [(words, hverts, _)] = calls
    assert len(products) == len(words[hverts[1]]) - 1 > 0


def test_generate_never_returns_the_sign_dropped_l2_11():
    # the variant note of L2_11: h1 without the sign of its fifth row's
    # final entry has infinite order
    h1, h2 = load_group("L2_11").generators
    rows = [list(row) for row in h1.rows]
    rows[4][5] = -rows[4][5]
    with pytest.raises((OrderCapExceeded, EnumerationUnproved)):
        FinGroup.generate([MatC(rows), h2], cap=660)


def test_generate_refuses_an_even_residue_prime(monkeypatch, capsys):
    gens = [_normalize(m) for m in load_group("A7_perm").generators]
    assert groups._prime_data(2, 1, gens) is None
    # a prime search that proves nothing fails validate-catalog, not the
    # process; the uncached builder, so the session's cached A7_perm is left
    # as it is

    def unproved(gens, n_cond):
        raise EnumerationUnproved(f"no usable residue prime below 256 for conductor {n_cond}")

    monkeypatch.setattr(groups, "_residue_prime", unproved)
    monkeypatch.setattr(cli, "build_group", catalog.build_group.__wrapped__)
    assert cli_main(["validate-catalog", "--group", "A7_perm"]) == EXIT_VALIDATION
    assert capsys.readouterr().out.startswith("FAIL A7_perm: enumeration is not exact: ")


def test_generate_refuses_a_singular_generator():
    # a singular generator is singular mod every prime, so the search for a
    # residue prime stops at its exact determinant; the alarm turns a
    # search that never ends into a failure
    def hang(signum, frame):
        raise TimeoutError("FinGroup.generate did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        with pytest.raises(EnumerationUnproved, match=r"generator MatC\[1,0; 0,0\] is singular"):
            FinGroup.generate([mat_from_strings([["1", "0"], ["0", "0"]])])
        with pytest.raises(EnumerationUnproved, match=r"generator MatC\[1,E\(3\); 0,0\]"):
            FinGroup.generate([perm_mat([1, 0]), mat_from_strings([["1", "E(3)"], ["0", "0"]])])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_generate_skips_a_prime_that_divides_a_determinant():
    # [[0, 1], [251, 0]] squares to 251, a scalar, and is singular mod 251,
    # the first candidate prime for conductor 1; the next prime, 241, serves
    g = FinGroup.generate([mat_from_strings([["0", "1"], ["251", "0"]])])
    assert g.n == 2


def _ambient_conductors():
    # (key, normalized generators, conductor N) per ambient
    for key in group_keys():
        gens = [_normalize(m) for m in load_group(key).generators]
        yield key, gens, math.lcm(*(e.n for g in gens for row in g.rows for e in row))


def test_byte_tables_match_their_definition():
    primes = sorted({groups._residue_prime(gens, n_cond)[0] for _, gens, n_cond in _ambient_conductors()})
    assert primes == [199, 241, 251]  # the residue primes of the nine ambients
    for p in primes + [3, 5, 7, 13]:
        tables, inv, mod = groups._byte_tables(p, 6)
        assert len(tables) == p
        for c in range(p):
            assert tables[c] == bytes(c * v % p for v in range(256)), (p, c)
        assert inv == (0,) + tuple(pow(c, -1, p) for c in range(1, p))
        assert [mod(s) for s in range(6 * (p - 1) + 1)] == [s % p for s in range(6 * (p - 1) + 1)]


def test_primitive_root_gives_a_root_of_the_cyclotomic_polynomial():
    pairs = {(groups._residue_prime(gens, n_cond)[0], n_cond) for _, gens, n_cond in _ambient_conductors()}
    pairs |= {(p, n) for p in (3, 5, 7, 13) for n in range(1, p) if (p - 1) % n == 0}
    for p, n in sorted(pairs):
        r = groups._primitive_root(p)
        assert sorted(pow(r, e, p) for e in range(1, p)) == list(range(1, p)), p  # order p - 1
        w = pow(r, (p - 1) // n, p)
        assert sum(c * pow(w, k, p) for k, c in enumerate(int_cyclotomic_poly(n))) % p == 0, (p, n)
        primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % f for f in range(2, q))]
        assert all(pow(w, n // q, p) != 1 for q in primes), (p, n)
        # zeta_N -> omega is the reduction mod p
        assert groups._reducer(p, n)(root_of_unity(n, 1)) == w, (p, n)


def test_residue_prime_returns_its_prime_data(built):
    # the reduction and generator residues come from the one search; they
    # equal a fresh _prime_data of its prime on every entry of the group
    for key, gens, n_cond in _ambient_conductors():
        p, reduce, residues = groups._residue_prime(gens, n_cond)
        fresh, fresh_residues = groups._prime_data(p, n_cond, gens)
        assert residues == fresh_residues, key
        entries = built(key).elements.entries
        assert list(map(reduce, entries)) == list(map(fresh, entries)), key


def test_id_catalog_parses_like_literal_eval():
    import ast
    import importlib.resources as res

    from fanoterm import data

    want: dict[tuple, list[GroupId]] = {}
    lines = (res.files(data) / "idcatalog.data").read_text().splitlines()
    for line in lines[1:]:
        ids, t1 = line.split("|")
        want.setdefault(ast.literal_eval(t1.strip()), []).append(GroupId(*map(int, ids.split())))
    table = groups._load_id_catalog()
    assert table == want
    assert sum(map(len, table.values())) == len(lines) - 1 == 90


def test_element_order():
    g = S3()
    assert g.view.order_of(0) == 1
    orders = sorted(g.view.order_of(i) for i in range(g.n))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_projective_order_of_scalar_power():
    # diag(w,w,w,1,1,1) has projective order 3 even though lifts differ by scalars
    g = FinGroup.generate([diag([W, W, W, ONE, ONE, ONE]), diag([ONE, W, W * W, ONE, ONE, ONE])])
    p1 = g.index_of(diag([W, W, W, ONE, ONE, ONE]))
    assert g.view.order_of(p1) == 3


def test_conjugacy_classes_trivial_and_abelian():
    t = FinGroup.generate([identity(2)])
    assert len(t.view.class_map()[0]) == 1
    c6 = C6()
    assert len(c6.view.class_map()[0]) == 6


@pytest.mark.parametrize("key", ["Q8_S3", "A3_5", "L2_11", "M10_first", "M10_second", "G1944",
                                 "A7_perm", "A7_second"])
def test_conjugation_arrays_match_word_walks(built, key):
    # the conjugator of each generator, one array, and of a few longer
    # words against two word-walk products per element, and the class map
    # read from them against the brute-force one by products
    group = built(key)
    view = group.view
    rng = random.Random(29)
    for h in view.gens + tuple(rng.sample(range(1, group.n), 3)):
        conj = group.conjugator(h)
        assert list(map(conj, range(group.n))) == [group.mult(group.mult(group.inv(h), x), h)
                                                   for x in range(group.n)]
    (classes, class_of), (want_classes, want_class_of) = view.class_map(), product_class_map(view)
    assert classes == want_classes
    assert [class_of[x] for x in range(group.n)] == [want_class_of[x] for x in range(group.n)]
    assert len(class_of) == len(want_class_of) == group.n


def test_class_map_holds_no_orbit_set(built):
    # the whole C3_4_A6 class map, on a fresh view, marks its class index
    # as it walks: the traced peak stays within 1.6 times what it retains
    # (1.34; 3.02 with a set per orbit and a second pass writing the index)
    group = built("C3_4_A6")
    view = GroupView(group.view.members, group.gen_idx, group)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        classes, _ = view.class_map()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, classes)) == group.n == 29160
    assert peak - before < 1.6 * (retained - before)


def test_whole_group_class_map_holds_the_groups_ints(built):
    # the whole group's classes hold the ints of its view, not fresh ones
    # from the conjugation arrays, and the class index is looked up by
    # every element
    view = built("G1944").view
    classes, class_of = view.class_map()
    assert sorted(x for c in classes for x in c) == list(view.elements)
    assert all(x is view.elements[x] for c in classes for x in c)
    assert len(class_of) == view.order
    assert all(x in classes[class_of[x]] for x in view.elements)


@pytest.mark.parametrize("key", ["G1944", "A7_perm"])
def test_sweep_class_views_hold_the_groups_ints(built, key):
    # every member of every sweep class is the group's own int object,
    # not a fresh int read from an array of the sweep
    group = built(key)
    elements = group.view.elements
    for c in group.subgroup_conjugacy_classes():
        assert all(x is elements[x] for x in c.members), (c.order, c.gens)
        assert all(x is elements[x] for x in c.elements), (c.order, c.gens)


@pytest.mark.parametrize("key", ["Q8_S3", "A3_5", "L2_11", "M10_first"])
def test_center_and_normal_closures_match_the_oracles(built, key):
    # on every sweep class H, the reads of its class map against brute
    # force: the center order against commuting with every element, and
    # the normal closure of each class's least element, and of the least
    # elements of two classes, against a fixpoint of conjugates
    for h in built(key).subgroup_conjugacy_classes():
        assert fingerprint(h).center_order == len(commuting_center(h)), (h.order, h.gens)
        reps = [c[0] for c in h.class_map()[0][1:]]
        for seeds in [[x] for x in reps] + [reps[:2]]:
            members, gens = h.normal_closure(seeds)
            assert members == fixpoint_normal_closure(h, seeds), (h.order, h.gens, seeds)
            assert bfs_closure(h, gens) == members


@pytest.mark.parametrize("key", ["Q8_S3", "A3_5", "L2_11", "M10_first"])
def test_quotients_match_the_coset_table(built, key):
    # on every sweep class H, the quotients by <S & H> and by the derived
    # subgroup against the coset-table quotient in fingerprint, and the
    # conjugator of every quotient element, its generators' one array,
    # against two products
    for h in built(key).subgroup_conjugacy_classes():
        commutators = {h.mult(h.mult(h.inv(a), h.inv(b)), h.mult(a, b)) for a in h.gens for b in h.gens}
        for normal in (h.span(h.involutions())[0], fixpoint_normal_closure(h, commutators)):
            q = quotient_group(h, h.sub(*h.span(normal)))
            assert fingerprint(q) == fingerprint(coset_table_quotient(h, normal)), (h.order, h.gens)
            for g in q.elements:
                conj = q.ambient.conjugator(g)
                assert list(map(conj, q.elements)) == [q.mult(q.mult(q.inv(g), x), g)
                                                       for x in q.elements], (h.order, h.gens, g)


def test_fingerprint_builds_no_group(built, monkeypatch):
    # the abelian invariants are read off the orders modulo the derived
    # subgroup, so fingerprinting every sweep class builds no FinGroup
    classes = [h for key in ("A3_5", "G1944") for h in built(key).subgroup_conjugacy_classes()]
    made = []
    init = FinGroup.__init__
    monkeypatch.setattr(FinGroup, "__init__", lambda g, *args: made.append(1) or init(g, *args))
    for h in classes:
        fingerprint(h)
    assert not made


@pytest.mark.parametrize("key", ["A3_5", "L2_11", "M10_first", "M10_second", "Q8_S3", "G1944"])
def test_abelian_invariants_match_the_coset_table(built, key):
    # on every sweep class H, the abelian invariants read off the orders
    # modulo H' against those of H/H' built on its coset table
    for h in built(key).subgroup_conjugacy_classes():
        commutators = {h.mult(h.mult(h.inv(a), h.inv(b)), h.mult(a, b)) for a in h.gens for b in h.gens}
        derived = fixpoint_normal_closure(h, commutators)
        want = fingerprint(coset_table_quotient(h, derived)).abelian_invariants
        assert fingerprint(h).abelian_invariants == want, (h.order, h.gens)


def test_conjugacy_classes_a7(built):
    a7 = built("A7_perm")
    assert len(a7.view.class_map()[0]) == 9


def test_subgroup_closure():
    g = S3()
    triv = g.subgroup(gens=[])
    assert triv.order == 1
    x3 = next(i for i in range(1, g.n) if g.view.order_of(i) == 3)
    assert g.subgroup(gens=[x3]).order == 3
    invs = [i for i in range(1, g.n) if g.view.order_of(i) == 2]
    assert g.subgroup(gens=invs).order == 6


@contextlib.contextmanager
def counted_products(group):
    """Wrap the group instance's mult and coset, which the views built
    meanwhile read, to list every product they make."""
    products = []
    mult, coset = group.mult, group.coset

    def counted_mult(a, b):
        products.append((a, b))
        return mult(a, b)

    def counted_coset(y, xs):
        products.extend((y, x) for x in xs)
        return coset(y, xs)

    group.mult, group.coset = counted_mult, counted_coset
    try:
        yield products
    finally:
        del group.mult, group.coset


def test_closure_stops_past_half_the_order(built):
    # a subgroup larger than half the group is the group (Lagrange), so the
    # closure of the whole group's generators stops with far fewer than the
    # n k products of a full closure
    l2 = built("L2_11")
    with counted_products(l2) as products:
        view = GroupView(range(l2.n), l2.gen_idx, l2)
    assert view.closure(l2.gen_idx) is view.members
    assert 0 < len(products) < l2.n * len(l2.gen_idx) * 3 // 4
    # generators outside the view never stop the closure early
    inner = GroupView((0,), (), l2)
    assert inner.closure(l2.gen_idx) == frozenset(range(l2.n))


@pytest.mark.parametrize("key", ["Q8_S3", "A3_5", "L2_11", "M10_first", "G1944"])
def test_closure_from_a_base_matches_the_oracle(built, key):
    # closure(gens, base), base generated by some of gens, against the
    # breadth-first closure from the identity: on the group's view, whose
    # cosets walk a word over base, a quotient (by the least normal
    # closure of one element), and a subgroup view holding base but not
    # every generator, where the closure must not stop at half the view's
    # order and makes k products per coset of base and |base| - 1 per
    # coset added
    group = built(key)
    classes, _ = group.view.class_map()
    normal = min((group.view.normal_closure([c[0]])[0] for c in classes[1:]), key=len)
    rng = random.Random(19)
    for view in (group.view, quotient_group(group.view, group.view.sub(*group.view.span(normal)))):
        for _ in range(8):
            gens = rng.sample(view.elements, rng.randint(1, min(3, view.order)))
            cut = rng.randrange(len(gens))
            base = bfs_closure(view, gens[:cut])
            want = bfs_closure(view, gens)
            assert view.closure(gens, base) == want
            assert view.closure(gens) == want
            with counted_products(view.ambient) as products:
                inner = GroupView(base, gens[:cut], view.ambient)
            assert inner.closure(gens, base) == want
            index, k = len(want) // len(base), len({g for g in gens if g})
            assert len(products) == index * k + (index - 1) * (len(base) - 1)


@pytest.mark.parametrize("key", ["Q8_S3", "A3_5", "L2_11", "M10_first"])
def test_span_keeps_the_sweep_generators(built, key):
    # every class representative's span and generators are the ones the
    # greedy loop over closures from the identity gives, and its view's
    # generators generate it
    group = built(key)
    for c in group.subgroup_conjugacy_classes():
        assert group.view.span(c.members) == (c.members, greedy_gens(group.view, c.members))
        assert bfs_closure(group.view, c.gens) == c.members


def test_subgroup_refuses_members_that_are_no_subgroup(built):
    group = built("Q8_S3")
    x = next(i for i in range(1, group.n) if group.view.order_of(i) == 3)
    with pytest.raises(ValueError, match="not a subgroup"):
        group.subgroup(members={0, x})
    assert group.subgroup(members={0, x, group.mult(x, x)}).gens == (min(x, group.mult(x, x)),)


def test_involution_closure_of_simple_group(built):
    l2 = built("L2_11")
    invs = [i for i in range(1, l2.n) if l2.view.order_of(i) == 2]
    assert l2.subgroup(gens=invs[:2]).order in (4, 6, 10, 12, 60, 660)
    assert l2.subgroup(gens=invs).order == 660


def test_quotients():
    c6 = C6()
    whole = c6.view
    assert quotient_group(whole, whole).order == 1
    c3 = c6.subgroup(gens=[next(i for i in range(1, 6) if c6.view.order_of(i) == 3)])
    q = quotient_group(whole, c3)
    assert q.order == 2
    s3 = S3()
    a3 = s3.subgroup(gens=[next(i for i in range(1, 6) if s3.view.order_of(i) == 3)])
    assert quotient_group(s3.view, a3).order == 2


def test_quotient_rejects_non_normal():
    s3 = S3()
    c2 = s3.subgroup(gens=[next(i for i in range(1, 6) if s3.view.order_of(i) == 2)])
    with pytest.raises(ValueError):
        quotient_group(s3.view, c2)


def test_quotient_identify_battery():
    c6 = C6()
    c3 = c6.subgroup(gens=[next(i for i in range(1, 6) if c6.view.order_of(i) == 3)])
    assert identify(quotient_group(c6.view, c3)) == GroupId(2, 1)
    c2 = c6.subgroup(gens=[next(i for i in range(1, 6) if c6.view.order_of(i) == 2)])
    assert identify(quotient_group(c6.view, c2)) == GroupId(3, 1)
    a4 = A4()
    v4 = a4.subgroup(gens=[i for i in range(1, 12) if a4.view.order_of(i) == 2])
    assert v4.order == 4
    assert identify(quotient_group(a4.view, v4)) == GroupId(3, 1)


def test_subgroup_classes_s3():
    classes = S3().subgroup_conjugacy_classes()
    assert [c.order for c in classes] == [1, 2, 3, 6]


def test_subgroup_classes_a4_contains_klein():
    classes = A4().subgroup_conjugacy_classes()
    assert [c.order for c in classes] == [1, 2, 3, 4, 12]


def test_subgroup_classes_budget():
    # the sweep builds no multiplication table and takes no budget: S7, of
    # order 5040, sweeps
    s7 = perm_group([1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0])
    with pytest.raises(TypeError):
        s7.subgroup_conjugacy_classes(budget=10)
    classes = s7.subgroup_conjugacy_classes()
    assert s7.n == 5040 and len(classes) == 96
    # C(t) / <t> is S5 for a transposition t, so only (a) proves them all
    assert s7._certificates(classes) == (True, False)


def _oracle_subgroup_classes(group):
    """Independent brute force: closures of all one- and two-element
    generating sets, deduplicated by conjugacy."""
    view = group.view
    cyclic = {}
    for x in range(1, group.n):
        fs = bfs_closure(view, [x])
        cyclic.setdefault(fs, x)
    subgroups = {frozenset((0,))} | set(cyclic)
    items = sorted(cyclic.items(), key=lambda kv: sorted(kv[0]))
    for i, (fs1, g1) in enumerate(items):
        for fs2, g2 in items[i + 1:]:
            subgroups.add(bfs_closure(view, [g1, g2]))
    reps = set()
    seen = set()
    for fs in sorted(subgroups, key=lambda s: (len(s), sorted(s))):
        if fs in seen:
            continue
        orbit = subgroup_orbit(group, fs)
        seen.update(orbit)
        reps.add(min(orbit, key=sorted))
    return reps


def _two_generated(group, members):
    view = group.view
    ms = sorted(members)
    target = len(members)
    for i, x in enumerate(ms):
        if x == 0:
            continue
        for y in ms[i:]:
            if len(bounded_closure(view, [x, y], target + 1) or ()) == target:
                return True
    return target == 1


@pytest.mark.parametrize("key", ["Q8_S3", "A3_5"])
def test_subgroup_classes_match_oracle(built, key):
    # the oracle sees exactly the two-generated subgroups; the sweep must
    # find all of those, and anything extra must be certified as needing
    # three generators (so the oracle could not reach it by construction)
    group = built(key)
    classes = group.subgroup_conjugacy_classes()
    got = {c.members for c in classes}
    oracle = _oracle_subgroup_classes(group)
    assert oracle <= got
    for extra in got - oracle:
        assert not _two_generated(group, extra)


def _exps(es):
    return diag([(ONE, W, W * W)[e] for e in es])


# groups of odd order, with no involutions: the sweep is then a plain
# cyclic extension
ODD_GROUPS = {
    # the order-3 group of test_invariants.py, which preserves the Fermat cubic
    "fermat-3": lambda: FinGroup.generate([_exps((0, 1, 1, 0, 2, 2))]),
    # a nonabelian group of order 81, with 56 subgroup classes
    "monomial-81": lambda: FinGroup.generate([perm_mat([1, 2, 0, 3, 4, 5], 6),
                                              _exps((0, 1, 2, 0, 0, 0)),
                                              _exps((0, 0, 0, 0, 1, 2))]),
}


@pytest.mark.parametrize("key", ["Q8_S3", "A3_5", "L2_11", "M10_first", *ODD_GROUPS])
def test_subgroup_classes_match_all_joins(built, key):
    # joining involutions to involution-generated classes, one per
    # normalizer orbit, and every class with its normal prime-index
    # extensions finds exactly the classes of the join of every class
    # with every cyclic subgroup
    group = ODD_GROUPS[key]() if key in ODD_GROUPS else built(key)
    classes = group.subgroup_conjugacy_classes()
    assert [sorted(c.members) for c in classes] == all_joins_subgroup_classes(group)


# which certificate holds on each ambient's classes: (a) every 2-subgroup
# P has P / Omega(P) cyclic, (b) every nontrivial N generated by
# involutions has |N_G(N) : N| divisible by at most two primes.  (a) fails
# through a Q8 of P / Omega(P) = C2 x C2
CERTIFICATES = {"A3_5": (True, True), "A7_perm": (True, True), "A7_second": (True, True),
                "C3_4_A6": (True, True), "L2_11": (True, True), "G1944": (False, True),
                "M10_first": (False, True), "M10_second": (False, True), "Q8_S3": (False, True)}

# the number of subgroups of each ambient, its classes' conjugates summed
SUBGROUP_TOTALS = {"Q8_S3": 55, "A3_5": 626, "L2_11": 620, "M10_first": 793, "M10_second": 793,
                   "G1944": 6794, "A7_perm": 3786, "A7_second": 3786, "C3_4_A6": 104774}


@pytest.mark.parametrize("key", sorted(SUBGROUP_TOTALS))
def test_sweep_counts_match_element_orders_and_frobenius(built, key):
    # identities the sweep's classes must meet, each class counted by its
    # view's number of conjugates: (i) a cyclic subgroup of order m holds
    # phi(m) of the elements of order m, and no other does; (ii) the
    # subgroups of each prime power order p^k dividing |G| number 1 mod p
    # (Frobenius); (iii) A7 has 3786 subgroups in 40 classes; and the
    # ambient's certificates
    group = built(key)
    by_order, cyclic = Counter(), Counter()
    classes = group.subgroup_conjugacy_classes()
    for c in classes:
        by_order[c.order] += c.conjugates
        if any(group.order_of(x) == c.order for x in c.elements):
            cyclic[c.order] += c.conjugates
    phi = lambda m: sum(math.gcd(k, m) == 1 for k in range(m))
    assert Counter({m: k * phi(m) for m, k in cyclic.items()}) == Counter(map(group.order_of,
                                                                              range(group.n)))
    for q in (q for q in range(2, group.n + 1) if group.n % q == 0 and all(q % r for r in range(2, q))):
        power = q
        while group.n % power == 0:
            assert by_order[power] % q == 1, (q, power)
            power *= q
    assert sum(by_order.values()) == SUBGROUP_TOTALS[key]
    if key.startswith("A7"):
        assert (len(classes), sum(by_order.values())) == (40, 3786)
    if key == "C3_4_A6":
        assert len(classes) == 302
    assert group._certificates(classes) == CERTIFICATES[key]


# the FinGroup.powers walks of each ambient's sweep: an x whose least
# power in K has composite exponent k covers each x^j, j prime to k, which
# has the same k (18428 walks on G1944 and 1436 on A7_perm without)
POWER_WALKS = {"G1944": 11424, "A7_perm": 991}


@pytest.mark.parametrize("key", sorted(POWER_WALKS))
def test_sweep_walks_no_coprime_power_of_a_composite_candidate(monkeypatch, key):
    # a fresh group, as order_of memoizes its walks on the group
    definition = load_group(key)
    group = FinGroup.generate(definition.generators, cap=definition.order)
    walks, powers = [], FinGroup.powers
    monkeypatch.setattr(FinGroup, "powers", lambda g, x, m: walks.append(x) or powers(g, x, m))
    group.subgroup_conjugacy_classes()
    assert len(walks) == POWER_WALKS[key]


def sl25():
    """SL(2,5) as 2 + 1 block matrices over Q(zeta_5), so that its central
    involution is no scalar: order 120 and one involution."""
    e, r = root_of_unity(5, 1), ONE / sqrt_rational(5)
    s = MatC([[-(e - e ** 4) * r, (e ** 2 - e ** 3) * r, ZERO],
              [(e ** 2 - e ** 3) * r, (e - e ** 4) * r, ZERO], [ZERO, ZERO, ONE]])
    t = diag([e ** 3, e ** 2, ONE])
    return FinGroup.generate([s, t])


def test_sweep_refuses_sl25(monkeypatch):
    # SL(2,5) / <S & SL(2,5)> is A5, so the sweep cannot reach SL(2,5)
    # from its one involution; neither certificate holds, and the sweep
    # raises rather than return its 11 of the 12 classes
    group = sl25()
    assert group.n == 120 and len(group.view.involutions()) == 1
    with pytest.raises(groups.SweepUnproved, match="no certificate proves the 11 subgroup classes"):
        group.subgroup_conjugacy_classes()
    monkeypatch.setattr(FinGroup, "_certificates", lambda self, classes: (True, True))
    found = group.subgroup_conjugacy_classes()
    assert (len(found), len(all_joins_subgroup_classes(group))) == (11, 12)
    monkeypatch.undo()
    assert group._certificates(found) == (False, False)


def test_table_reports_an_unproved_sweep(monkeypatch, capsys):
    def refuse(self):
        raise groups.SweepUnproved("no certificate proves the 11 subgroup classes complete")

    monkeypatch.setattr(FinGroup, "subgroup_conjugacy_classes", refuse)
    assert cli_main(["table", "--group", "Q8_S3"]) == EXIT_VALIDATION == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: no certificate proves the 11 subgroup classes complete\n")


def test_full_group_only_runs_no_sweep(monkeypatch):
    from fanoterm.invariants import classification_table

    def refuse(self):
        raise AssertionError("subgroup classes swept outside a full sweep")

    monkeypatch.setattr(FinGroup, "subgroup_conjugacy_classes", refuse)
    (row,) = classification_table("M10_second", mode="full-group-only")
    assert row.order == 720


def test_subgroup_classes_lagrange_and_nonconjugacy(built):
    group = built("A3_5")
    classes = group.subgroup_conjugacy_classes()
    for c in classes:
        assert group.n % c.order == 0
    # representatives are pairwise non-conjugate: orbits are disjoint
    orbits = [subgroup_orbit(group, c.members) for c in classes]
    # each view's number of conjugates is its orbit's size
    assert [c.conjugates for c in classes] == list(map(len, orbits))
    all_sets = [s for orbit in orbits for s in orbit]
    assert len(all_sets) == len(set(all_sets))
    for i, ci in enumerate(classes):
        for orbit in orbits[i + 1:]:
            assert ci.members not in orbit


def test_subgroup_classes_deterministic(built):
    group = built("Q8_S3")
    a = group.subgroup_conjugacy_classes()
    b = group.subgroup_conjugacy_classes()
    assert [sorted(c.members) for c in a] == [sorted(c.members) for c in b]
    # the top class is the whole group, held as the group's own view
    assert a[-1] is group.view and b[-1] is group.view
    assert all(c.ambient is group for c in a)


def test_generate_canonical_order_reproducible():
    g1 = S3()
    g2 = S3()
    assert [e.rows for e in g1.elements] == [e.rows for e in g2.elements]
    assert g1._perms == g2._perms


def test_fingerprint_separates_small_groups():
    fps = {name: fingerprint(g().view) for name, g in [("S3", S3), ("C6", C6), ("A4", A4)]}
    assert len(set(fps.values())) == 3


def test_identify_small():
    assert identify(FinGroup.generate([identity(2)]).view) == GroupId(1, 1)
    assert identify(S3().view) == GroupId(6, 1)
    assert identify(C6().view) == GroupId(6, 2)
    assert identify(A4().view) == GroupId(12, 3)


def test_identify_large_order_convention(built):
    a7 = built("A7_perm")
    assert identify(a7.view) == GroupId(2520, 0)


def test_identify_unknown_is_sentinel():
    # C17 is deliberately outside the catalog
    g = FinGroup.generate([perm_mat(list(range(1, 17)) + [0], 17)])
    out = identify(g.view)
    assert isinstance(out, UnidentifiedGroup)
    assert out.order == 17
    assert str(out) == "(17,?)"


def test_index_of_rejects_foreign_elements():
    g = S3()
    with pytest.raises(KeyError):
        g.index_of(perm_mat([1, 2, 3, 0], 4))
