import gc
import weakref

import pytest

from fanoterm.catalog import build_group
from fanoterm.cyclo import ONE, root_of_unity
from fanoterm.groups import FinGroup, GroupId, ProjElem, identify
from fanoterm.invariants import (
    b2_of_terminalization,
    classification_table,
    detect_l3,
    is_l3_matrix,
    l3_trace_prefilter,
    merged_rows,
    pi1_id,
    pi1_quotient,
    singular_invariants,
)
from fanoterm.linalg import diag, mat_from_strings, perm_mat
from fanoterm.ranks import rank_candidates

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
    assert detect_l3(group).count == L3_COUNTS[key]


def test_l3_fermat_generators_are_exactly_the_balanced_diagonals(fermat, fermat_l3):
    from oracles import monomial_parts

    got = set()
    for fs in fermat_l3.subgroups:
        for x in fs:
            if x == 0:
                continue
            pi, scal = monomial_parts(fermat.elements[x].mat)
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
            if group.element_order(x) != 3:
                continue
            mat = group.elements[x].mat
            assert l3_trace_prefilter(mat) == is_l3_matrix(mat)


def test_l3_char_poly_matches_product_formula(fermat_l3, fermat):
    # a balanced diagonal has characteristic polynomial (t-1)^3 (t-w)^3
    from fanoterm.linalg import PolyC
    from fanoterm.cyclo import rational

    m = _exps((0, 0, 0, 1, 1, 1))
    lin1 = PolyC([rational(-1), ONE])
    linw = PolyC([-W, ONE])
    assert m.char_poly() == lin1 * lin1 * lin1 * linw * linw * linw
    assert is_l3_matrix(m)


def test_l3_detection_conjugation_invariant(built):
    group = built("G1944")
    l3 = detect_l3(group)
    # conjugating the generator set produces the same count
    definition_gens = [group.elements[i].mat for i in group.gen_idx]
    conj = group.elements[5].mat
    conj_gens = [conj * m * conj.inv() for m in definition_gens]
    regrouped = FinGroup.generate(conj_gens, cap=3000)
    assert detect_l3(regrouped).count == l3.count


def test_detect_l3_does_not_keep_the_group_alive():
    g = FinGroup.generate([_exps((0, 0, 0, 1, 1, 1))])
    l3 = detect_l3(g)
    assert l3.count == 1 and detect_l3(g) is l3
    ref = weakref.ref(g)
    del g, l3
    gc.collect()
    assert ref() is None


def test_singular_invariants_trivial(fermat, fermat_l3):
    h = fermat.subgroup(gens=[])
    assert singular_invariants(h, fermat_l3) == (0, 0, 0, 0, 0)


def test_singular_invariants_single_involution(built):
    group = built("L2_11")
    l3 = detect_l3(group)
    inv = next(i for i in range(1, group.n) if group.element_order(i) == 2)
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
    assert pi1_id(l2.whole(), l3_l2) == GroupId(1, 1)


def test_pi1_c3_s3_cases(fermat, fermat_l3):
    # C3 x S3 whose central C3 fixes codimension 2: everything is swallowed
    # by the normal subgroup, so the quotient is trivial and b2 = 8
    c = perm_mat([0, 1, 2, 4, 5, 3])
    s = perm_mat([1, 0, 2, 4, 3, 5])
    g = _exps((0, 0, 0, 1, 1, 1))
    h18 = fermat.subgroup(gens=[fermat.index_of(ProjElem(m)) for m in (g, c, s)])
    assert h18.order == 18
    assert identify(h18.view) == GroupId(18, 3)
    assert singular_invariants(h18, fermat_l3) == (1, 1, 1, 0, 1)
    assert pi1_id(h18, fermat_l3) == GroupId(1, 1)
    # C3 x S3 with no codimension-2 order-3 member: only the reflections
    # enter the normal subgroup and the quotient is C3
    swap = perm_mat([5, 4, 2, 3, 1, 0])
    u1 = swap
    u2 = _exps((1, 2, 0, 0, 0, 0)) * swap
    h18b = fermat.subgroup(gens=[fermat.index_of(ProjElem(m)) for m in (u1, u2)])
    assert h18b.order == 18
    assert identify(h18b.view) == GroupId(18, 3)
    assert singular_invariants(h18b, fermat_l3) == (1, 0, 0, 0, 0)
    q = pi1_quotient(h18b, fermat_l3)
    assert q.n == 3 and pi1_id(h18b, fermat_l3) == GroupId(3, 1)


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
        n2, *_ = singular_invariants(group.whole(), l3)
        invol_classes = sum(
            1 for cls in group.conjugacy_classes() if group.element_order(cls[0]) == 2
        )
        assert n2 == invol_classes


def test_classification_table_trivial_ambient():
    # an ambient with no involutions and no codimension-2 elements yields
    # an empty non-terminal table; it preserves the Fermat cubic, on which
    # its generator fixes 8 of the 20 squarefree monomials (rank 12)
    from fanoterm.catalog import load_group
    from fanoterm.invariants import records_for_classes

    g = FinGroup.generate([_exps((0, 1, 1, 0, 2, 2))])
    l3 = detect_l3(g)
    classes = g.subgroup_conjugacy_classes(budget=10)
    recs = records_for_classes(g, l3, load_group("C3_4_A6").cubic,
                               [(c.index, c.rep) for c in classes])
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
    a = classification_table("Q8_S3", mode="full-sweep", budget=1000)
    b = classification_table("Q8_S3", mode="full-sweep", budget=1000)
    assert [(r.class_index, str(r.group_id), r.rank, r.b2, str(r.pi1)) for r in a] == [
        (r.class_index, str(r.group_id), r.rank, r.b2, str(r.pi1)) for r in b
    ]
