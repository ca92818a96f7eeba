import random
from functools import lru_cache

import pytest

from fanoterm.catalog import CatalogValidationError, build_group, load_group
from fanoterm.cyclo import ONE, root_of_unity
from fanoterm.groups import GroupId, identify
from fanoterm.invariants import detect_l3, singular_invariants
from fanoterm.linalg import MatC, diag, perm_mat
from fanoterm.ranks import class_traces, coinvariant_rank, rank_candidates, resolve_rank
from oracles import (
    bounded_closure,
    monomial_coinvariant_rank,
    monomial_invariant_dim,
    monomial_parts,
)

W = root_of_unity(3, 1)
W2 = W * W
FERMAT_CUBIC = load_group("C3_4_A6").cubic


def _exps(es):
    return diag([(ONE, W, W2)[e] for e in es])


@pytest.fixture(scope="module")
def fermat():
    return build_group("C3_4_A6")


def _sub(fermat, mats):
    return fermat.subgroup(gens=[fermat.index_of(m) for m in mats])


@lru_cache(maxsize=None)
def _fermat_traces():
    return class_traces(build_group("C3_4_A6"), FERMAT_CUBIC)


def _rank(h):
    return coinvariant_rank(h, _fermat_traces())


def test_rank_candidates_examples():
    assert rank_candidates(GroupId(660, 13)) == {20}
    assert rank_candidates(GroupId(3, 1)) == {12, 18}
    assert rank_candidates(GroupId(2, 1)) == {8}
    assert rank_candidates(GroupId(999, 999)) == frozenset()


def test_monomial_parts():
    m = _exps((0, 1, 0, 0, 0, 2)) * perm_mat([1, 2, 0, 3, 4, 5])
    parts = monomial_parts(m)
    assert parts is not None
    pi, scal = parts
    assert pi == (1, 2, 0, 3, 4, 5)
    dense = MatC([[ONE] * 6 for _ in range(6)])
    assert monomial_parts(dense) is None


def test_fermat_dim_trivial(fermat):
    h = fermat.subgroup(gens=[])
    assert _rank(h) == 0
    assert monomial_invariant_dim(h) == 20


def test_fermat_dim_codim2_c3(fermat):
    h = _sub(fermat, [_exps((0, 0, 0, 1, 1, 1))])
    assert _rank(h) == 18
    assert monomial_invariant_dim(h) == 2


def test_fermat_rank_c3_cubed_with_four_l3(fermat):
    # a diagonal C3^3 containing four codimension-2 subgroups is pinned to
    # coinvariant rank 20 by the bound, and the trace agrees exactly
    h = _sub(fermat, [_exps((0, 0, 0, 0, 2, 1)), _exps((0, 0, 0, 2, 0, 1)),
                      _exps((0, 0, 2, 0, 0, 1))])
    assert h.order == 27
    assert identify(h) == GroupId(27, 5)
    l3 = detect_l3(fermat)
    assert sum(1 for fs in l3.subgroups if fs <= h.members) == 4
    assert _rank(h) == 20


def test_1944_full_group_has_even_normalizer_witness():
    # the unique codimension-2 C3 of the order-1944 group is normalized,
    # but not centralized, by an even-order element: n31 = 1 for the
    # whole group
    group = build_group("G1944")
    l3 = detect_l3(group)
    _, n3s, n3, n31, n32 = singular_invariants(group.view, l3)
    assert (n3s, n3, n31, n32) == (1, 1, 1, 0)


def test_fermat_dim_g1_g2(fermat):
    # the two non-conjugate order-108 monomial groups separating ranks 19/20
    g = _exps((0, 0, 0, 1, 1, 1))
    a = _exps((0, 0, 0, 0, 1, 2)) * perm_mat([1, 2, 0, 3, 4, 5])
    b = _exps((0, 2, 1, 0, 0, 0)) * perm_mat([0, 1, 2, 4, 5, 3])
    c = perm_mat([3, 4, 5, 0, 2, 1])
    g1 = _sub(fermat, [g, a, b, c])
    assert g1.order == 108
    assert _rank(g1) == 19
    assert monomial_invariant_dim(g1) == 1
    # rank-20 companion: three diagonals and a block-swapping 4-cycle
    d1 = _exps((0, 0, 0, 0, 2, 1))
    d2 = _exps((0, 0, 0, 2, 0, 1))
    d3 = _exps((0, 0, 2, 0, 0, 1))
    s = perm_mat([1, 0, 4, 5, 3, 2])
    g2 = _sub(fermat, [d1, d2, d3, s])
    assert g2.order == 108
    assert _rank(g2) == 20
    assert monomial_invariant_dim(g2) == 0
    from fanoterm.groups import fingerprint

    assert fingerprint(g1) == fingerprint(g2)
    assert g1.members != g2.members


def test_burnside_integrality_random_subgroups(fermat):
    rng = random.Random(2024)
    l3 = detect_l3(fermat)
    for _ in range(25):
        gens = [rng.randrange(1, fermat.n) for _ in range(2)]
        members = bounded_closure(fermat.view, gens, 3000)
        if members is None:
            continue
        h = fermat.subgroup(members=members)
        rank = _rank(h)  # raises unless an exact integer in [0, 20]
        n3 = sum(1 for fs in l3.subgroups if fs <= h.members)
        if n3 >= 1:
            assert rank >= 18
        if n3 >= 2:
            assert rank == 20


def test_fermat_rank_monotonicity(fermat):
    rng = random.Random(7)
    view = fermat.view
    for _ in range(15):
        x = rng.randrange(1, fermat.n)
        y = rng.randrange(1, fermat.n)
        inner = bounded_closure(view, [x], 3000)
        outer = bounded_closure(view, [x, y], 3000)
        if inner is None or outer is None:
            continue
        assert _rank(fermat.subgroup(members=inner)) <= _rank(fermat.subgroup(members=outer))


def test_rank_matches_monomial_oracle_on_random_subgroups(fermat):
    rng = random.Random(31)
    compared = set()
    while len(compared) < 30:
        gens = [rng.randrange(1, fermat.n) for _ in range(rng.choice([1, 2]))]
        members = bounded_closure(fermat.view, gens, 600)
        if members is None or members in compared:
            continue
        h = fermat.subgroup(members=members)
        assert _rank(h) == monomial_coinvariant_rank(h), sorted(gens)
        compared.add(members)
    assert len({len(m) for m in compared}) > 5  # not one order over and over


def test_class_traces_follow_the_class_map(fermat):
    traces = _fermat_traces()
    classes, class_of = fermat.view.class_map()
    assert len(traces) == len(classes) and class_of[0] == 0
    assert traces[0] == 23  # the identity acts trivially on H^2, of rank 23
    # the class map is memoized on the view; the whole group is one view
    # however it was made, so every row for it shares that map
    assert fermat.view.class_map() is fermat.view.class_map()
    assert fermat.subgroup(gens=fermat.gen_idx[::-1]) is fermat.view
    assert fermat.subgroup(gens=fermat.gen_idx[:1]) is not fermat.view


def test_resolve_rank_g1944_codim2_c3_and_c3_squared():
    group = build_group("G1944")
    traces = class_traces(group, load_group("G1944").cubic)
    # C2 resolves to the single rank the table lists for it
    inv = next(i for i in range(1, group.n) if group.view.order_of(i) == 2)
    assert resolve_rank(group.subgroup(gens=[inv]), traces, GroupId(2, 1), 0) == 8
    # the codimension-2 C3 (table candidates {12, 18}) and each of the 40
    # C3 x C3 through it (candidates {16, 18, 20}) have rank exactly 18
    l3 = detect_l3(group)
    assert l3.count == 1
    c3 = l3.subgroups[0]
    assert resolve_rank(group.subgroup(members=c3), traces, GroupId(3, 1), 1) == 18
    x = l3.generators[0]
    squares = set()
    for y in range(1, group.n):
        if y in c3 or group.view.order_of(y) != 3 or group.mult(x, y) != group.mult(y, x):
            continue
        members = group.view.closure([x, y])
        if members in squares:
            continue
        squares.add(members)
        h = group.subgroup(members=members)
        assert identify(h) == GroupId(9, 2)
        assert resolve_rank(h, traces, GroupId(9, 2), 1) == 18
    assert len(squares) == 40


def test_fermat_resolution_checks_table_membership(fermat):
    l3 = detect_l3(fermat)
    h = fermat.subgroup(members=l3.subgroups[0])
    assert resolve_rank(h, _fermat_traces(), GroupId(3, 1), 1) == 18
    # the table lists only rank 8 for C2: a rank-18 row under that id means
    # the shipped data disagree
    with pytest.raises(CatalogValidationError, match="not among table candidates"):
        resolve_rank(h, _fermat_traces(), GroupId(2, 1), 1)
    with pytest.raises(CatalogValidationError, match="rank bound violated"):
        resolve_rank(h, _fermat_traces(), GroupId(3, 1), 2)
    with pytest.raises(CatalogValidationError, match="rank bound violated"):
        resolve_rank(fermat.subgroup(gens=[]), _fermat_traces(), GroupId(1, 1), 1)


@pytest.mark.parametrize("identity_trace, shown", [(1, "1103/48"), (24, "45/2"), (48, "22"), (-48, "24")])
def test_rank_off_the_range_names_its_exact_value(identity_trace, shown):
    # traces that are zero but on the identity's class average to a rank
    # of 23 - t/48 on Q8_S3: a fraction, or an integer outside [0, 20]
    group = build_group("Q8_S3")
    classes, _ = group.view.class_map()
    traces = [identity_trace if c == (0,) else 0 for c in classes]
    with pytest.raises(CatalogValidationError) as exc:
        coinvariant_rank(group.view, traces)
    assert str(exc.value) == (f"coinvariant rank {shown} of a subgroup of order 48 "
                              f"is not an integer in [0, 20]")
