import gc
import random
import weakref

import pytest

from fanoterm.catalog import build_group
from fanoterm.cyclo import ONE, rational, root_of_unity
from fanoterm.groups import FinGroup, GroupId, identify
from fanoterm.invariants import (
    b2_of_terminalization,
    classification_table,
    detect_l3,
    is_l3_matrix,
    pi1_id,
    pi1_quotient,
    singular_invariants,
)
from fanoterm.linalg import diag, mat_from_strings, perm_mat, scalar_mat
from fanoterm.ranks import rank_candidates
from oracles import (
    bounded_closure,
    brute_singular_invariants,
    cyclo_poly_product,
    l3_trace_prefilter,
    merged_rows,
    scan_l3,
)

W = root_of_unity(3, 1)
W2 = W * W


def _exps(es):
    return diag([(ONE, W, W2)[e] for e in es])


@pytest.fixture(scope="module")
def fermat():
    return build_group("C3_4_A6")


@pytest.fixture(scope="module")
def fermat_l3(fermat):
    return detect_l3(fermat)


L3_COUNTS = {
    "A7_perm": 0,
    "A7_second": 0,
    "M10_first": 0,
    "M10_second": 0,
    "L2_11": 0,
    "A3_5": 0,
    "Q8_S3": 0,
    "G1944": 1,
    "C3_4_A6": 10,
}


@pytest.mark.parametrize("key", sorted(L3_COUNTS))
def test_l3_counts(built, key):
    group = built(key)
    l3 = detect_l3(group)
    assert l3.count == L3_COUNTS[key]
    # one test per class gives what the element-by-element scan gives
    assert l3.generators == scan_l3(group)


def test_l3_fermat_generators_are_exactly_the_balanced_diagonals(fermat, fermat_l3):
    from oracles import monomial_parts

    got = set()
    for fs in fermat_l3.subgroups:
        for x in fs:
            if x == 0:
                continue
            pi, scal = monomial_parts(fermat.elements[x])
            assert pi == tuple(range(6))  # identity permutation part
            exps = tuple(sorted({ONE: 0, W: 1, W2: 2}[s] for s in scal))
            got.add(exps)
    # each subgroup contributes the {0,0,0,1,1,1} pattern and its square
    assert got == {(0, 0, 0, 1, 1, 1), (0, 0, 0, 2, 2, 2)}
    assert len(fermat_l3.subgroups) == 10


def test_l3_prefilter_agrees_with_char_poly_test(built):
    for key in ("G1944", "Q8_S3", "L2_11"):
        group = built(key)
        for x in range(1, group.n):
            if group.view.order_of(x) != 3:
                continue
            mat = group.elements[x]
            assert l3_trace_prefilter(mat) == is_l3_matrix(mat)


def test_l3_char_poly_matches_product_formula(fermat_l3, fermat):
    # a balanced diagonal has characteristic polynomial (t-1)^3 (t-w)^3
    m = _exps((0, 0, 0, 1, 1, 1))
    lin1 = (rational(-1), ONE)
    linw = (-W, ONE)
    assert m.char_poly() == cyclo_poly_product(lin1, lin1, lin1, linw, linw, linw)
    assert is_l3_matrix(m)
    # a scalar cI has a = -2c and t^4 coefficient 15c^2, not 6a^2; zero has a = 0
    for c in (ONE, W, rational(-2), rational(0)):
        assert not is_l3_matrix(scalar_mat(6, c))


def test_l3_detection_conjugation_invariant(built):
    group = built("G1944")
    l3 = detect_l3(group)
    # conjugating the generator set produces the same count
    definition_gens = [group.elements[i] for i in group.gen_idx]
    # the enumeration is projective, so a scalar multiple of conj^-1 will do
    conj, conj_inv = group.elements[5], group.elements[group.inv(5)]
    conj_gens = [conj * m * conj_inv for m in definition_gens]
    regrouped = FinGroup.generate(conj_gens, cap=3000)
    assert detect_l3(regrouped).count == l3.count


def test_detect_l3_does_not_keep_the_group_alive():
    g = FinGroup.generate([_exps((0, 0, 0, 1, 1, 1))])
    l3 = detect_l3(g)
    assert l3.count == 1 and detect_l3(g) == l3
    ref = weakref.ref(g)
    del g, l3
    gc.collect()
    assert ref() is None


def _brute_force_sample(group, l3, key):
    """Every sweep class of the small ambients; the codimension-2 C3 of
    G1944 and the 40 C3 x C3 through it; 30 seeded random subgroups of the
    Fermat group through a codimension-2 generator."""
    if key == "G1944":
        x = l3.generators[0]
        squares = {group.view.closure([x, y]) for y in range(1, group.n)
                   if group.view.order_of(y) == 3 and group.mult(x, y) == group.mult(y, x)}
        squares.discard(l3.subgroups[0])
        assert len(squares) == 40
        return [group.subgroup(members=m) for m in [l3.subgroups[0]] + sorted(squares, key=sorted)]
    if key == "C3_4_A6":
        rng = random.Random(5)
        sample: dict[frozenset, object] = {}
        while len(sample) < 30:
            gens = [rng.choice(l3.generators), rng.randrange(1, group.n)]
            members = bounded_closure(group.view, gens, 600)
            if members is not None and members not in sample:
                sample[members] = group.subgroup(members=members)
        return list(sample.values())
    return group.subgroup_conjugacy_classes()


@pytest.mark.parametrize("key", ["Q8_S3", "A3_5", "L2_11", "M10_first", "G1944", "A7_perm",
                                 "C3_4_A6"])
def test_singular_invariants_match_brute_force(built, key):
    # the class-map invariants agree with orbits under every element of H
    group = built(key)
    l3 = detect_l3(group)
    rows = []
    for h in _brute_force_sample(group, l3, key):
        row = singular_invariants(h, l3)
        assert row == brute_singular_invariants(h, l3), (h.order, sorted(h.gens))
        rows.append(row)
    if key == "C3_4_A6":
        # both sides of the even-order normalizer split occur
        assert any(r[3] > 0 for r in rows) and any(r[4] > 0 for r in rows)


def test_singular_invariants_trivial(fermat, fermat_l3):
    h = fermat.subgroup(gens=[])
    assert singular_invariants(h, fermat_l3) == (0, 0, 0, 0, 0)


def test_singular_invariants_single_involution(built):
    group = built("L2_11")
    l3 = detect_l3(group)
    inv = next(i for i in range(1, group.n) if group.view.order_of(i) == 2)
    h = group.subgroup(gens=[inv])
    assert singular_invariants(h, l3) == (1, 0, 0, 0, 0)


def test_singular_invariants_codim2_c3(fermat, fermat_l3):
    h = fermat.subgroup(members=fermat_l3.subgroups[0])
    assert singular_invariants(h, fermat_l3) == (0, 1, 1, 0, 1)


def test_singular_invariants_reject_foreign_subgroup(built, fermat_l3):
    other = built("L2_11")
    h = other.subgroup(gens=[1])
    with pytest.raises(ValueError):
        singular_invariants(h, fermat_l3)


def test_pi1_cases(fermat, fermat_l3, built):
    # N = H for a codimension-2 C3 subgroup
    h = fermat.subgroup(members=fermat_l3.subgroups[0])
    assert pi1_id(h, fermat_l3) == GroupId(1, 1)
    # the simple group is generated by its involutions
    l2 = built("L2_11")
    l3_l2 = detect_l3(l2)
    assert pi1_id(l2.view, l3_l2) == GroupId(1, 1)


def test_pi1_c3_s3_cases(fermat, fermat_l3):
    # C3 x S3 whose central C3 fixes codimension 2: everything is swallowed
    # by the normal subgroup, so the quotient is trivial and b2 = 8
    c = perm_mat([0, 1, 2, 4, 5, 3])
    s = perm_mat([1, 0, 2, 4, 3, 5])
    g = _exps((0, 0, 0, 1, 1, 1))
    h18 = fermat.subgroup(gens=[fermat.index_of(m) for m in (g, c, s)])
    assert h18.order == 18
    assert identify(h18) == GroupId(18, 3)
    assert singular_invariants(h18, fermat_l3) == (1, 1, 1, 0, 1)
    assert pi1_id(h18, fermat_l3) == GroupId(1, 1)
    # C3 x S3 with no codimension-2 order-3 member: only the reflections
    # enter the normal subgroup and the quotient is C3
    swap = perm_mat([5, 4, 2, 3, 1, 0])
    u1 = swap
    u2 = _exps((1, 2, 0, 0, 0, 0)) * swap
    h18b = fermat.subgroup(gens=[fermat.index_of(m) for m in (u1, u2)])
    assert h18b.order == 18
    assert identify(h18b) == GroupId(18, 3)
    assert singular_invariants(h18b, fermat_l3) == (1, 0, 0, 0, 0)
    q = pi1_quotient(h18b, fermat_l3)
    assert q.order == 3 and pi1_id(h18b, fermat_l3) == GroupId(3, 1)


def test_b2_formula_examples():
    assert b2_of_terminalization(8, 1, 0, 0) == 16
    assert b2_of_terminalization(20, 1, 0, 0) == 4
    assert b2_of_terminalization(18, 0, 0, 1) == 7
    with pytest.raises(ValueError):
        b2_of_terminalization(24, 0, 0, 0)


def test_record_invariants_properties(sweeps):
    for key in ("Q8_S3", "A3_5", "L2_11", "M10_first"):
        records = sweeps(key, True)
        assert any(not r.terminal for r in records)
        for r in records:
            assert r.n3 == r.n31 + r.n32
            assert r.n3 <= r.n3_subgroups
            assert 0 <= r.rank <= 20
            assert r.b2 >= 23 - r.rank
            candidates = rank_candidates(r.group_id)
            if candidates:
                assert r.rank in candidates


def test_full_group_n2_matches_conjugacy_classes(built):
    for key in ("Q8_S3", "L2_11", "A3_5"):
        group = built(key)
        l3 = detect_l3(group)
        n2, *_ = singular_invariants(group.view, l3)
        assert n2 == brute_singular_invariants(group.view, l3)[0]


def test_classification_table_trivial_ambient():
    # an ambient with no involutions and no codimension-2 elements yields
    # an empty non-terminal table; it preserves the Fermat cubic, on which
    # its generator fixes 8 of the 20 squarefree monomials (rank 12)
    from fanoterm.catalog import load_group
    from fanoterm.invariants import records_for_classes

    g = FinGroup.generate([_exps((0, 1, 1, 0, 2, 2))])
    l3 = detect_l3(g)
    classes = g.subgroup_conjugacy_classes()
    recs = records_for_classes(l3, load_group("C3_4_A6").cubic,
                               list(enumerate(classes, start=1)))
    assert all(r.terminal for r in recs)
    assert [(r.order, r.rank) for r in recs] == [(1, 0), (3, 12)]


def test_targeted_requires_subgroup():
    with pytest.raises(ValueError):
        classification_table("Q8_S3", mode="targeted", targeted=[])


def test_merged_rows_fold_identical_strings(sweeps):
    records = sweeps("Q8_S3")
    merged = merged_rows(records)
    assert len(merged) < len(records)
    ids = [m[0] for m in merged if m[0] == "(2,1)"]
    assert len(ids) == 1  # the two central/reflection C2 classes fold


def test_table_runs_deterministic(built):
    a = classification_table("Q8_S3", mode="full-sweep")
    b = classification_table("Q8_S3", mode="full-sweep")
    assert [(r.class_index, str(r.group_id), r.rank, r.b2, str(r.pi1)) for r in a] == [
        (r.class_index, str(r.group_id), r.rank, r.b2, str(r.pi1)) for r in b
    ]
