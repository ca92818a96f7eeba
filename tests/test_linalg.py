import random
from fractions import Fraction

import pytest

from fanoterm.catalog import build_group, group_keys, load_group
from fanoterm.cyclo import ONE, ZERO, ConductorLimitError, rational, root_of_unity
from fanoterm.linalg import MatC, diag, identity, mat_from_strings, perm_mat
from oracles import cayley_hamilton_inverse, cyclo_poly_product, poly_at_matrix


W = root_of_unity(3, 1)


def _random_matrix(rng, d=3):
    pool = [ZERO, ONE, rational(-1), W, W * W, rational(2), rational(Fraction(1, 2))]
    return MatC([[rng.choice(pool) for _ in range(d)] for _ in range(d)])


def _random_invertible(rng, d=3):
    while True:
        m = _random_matrix(rng, d)
        if not m.det().is_zero:
            return m


def test_identity_product():
    rng = random.Random(1)
    a = _random_matrix(rng, 4)
    assert identity(4) * a == a
    assert a * identity(4) == a


# conductors mixed within one matrix; the lcm of each family stays within
# the conductor limit (120 and 264)
CONDUCTOR_FAMILIES = [(1, 3, 8, 24, 60), (1, 3, 8, 11, 24)]


def _random_entry(rng, conductors):
    """Zero, or a sum of rational multiples of roots of unity, one
    conductor from the family per entry."""
    if rng.random() < 0.25:
        return ZERO
    n = rng.choice(conductors)
    out = rational(Fraction(rng.randint(-4, 4), rng.randint(1, 6)))
    for _ in range(rng.randint(0, 2)):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 6))
        out = out + rational(c) * root_of_unity(n, rng.randrange(n))
    return out


@pytest.mark.parametrize("conductors", CONDUCTOR_FAMILIES)
def test_product_matches_term_by_term_sum(conductors):
    # each entry of a product is one fused dot product, canonicalized once;
    # the oracle canonicalizes every product and partial sum
    rng = random.Random(sum(conductors))
    for trial in range(25):
        d = rng.choice([2, 4, 6])
        a = [[_random_entry(rng, conductors) for _ in range(d)] for _ in range(d)]
        b = [[_random_entry(rng, conductors) for _ in range(d)] for _ in range(d)]
        a[rng.randrange(d)] = [ZERO] * d  # a zero row of a
        zero_col = rng.randrange(d)
        for row in b:
            row[zero_col] = ZERO  # and a zero column of b
        want = [[sum((a[i][k] * b[k][j] for k in range(d)), ZERO) for j in range(d)]
                for i in range(d)]
        assert (MatC(a) * MatC(b)).rows == tuple(map(tuple, want))


def test_product_descends_below_the_conductor_limit():
    # E(11) * E(11)^10 + E(60) * 1: the terms' common conductor 660 passes
    # the limit, but the first product is 1, so the entry is 1 + E(60)
    a = MatC([[root_of_unity(11), root_of_unity(60)], [ZERO, ONE]])
    b = MatC([[root_of_unity(11, 10), ZERO], [ONE, ONE]])
    assert (a * b).rows[0] == (ONE + root_of_unity(60), root_of_unity(60))
    # the second product reads the memoized entries, which descended too
    assert (a * b).rows[0] == (ONE + root_of_unity(60), root_of_unity(60))


def test_product_past_the_conductor_limit_raises():
    # E(11) * 1 + 1 * E(60): each term is within the limit, their sum needs
    # conductor 660
    a = MatC([[root_of_unity(11), ONE], [ZERO, ONE]])
    b = MatC([[ONE, ZERO], [root_of_unity(60), ONE]])
    with pytest.raises(ConductorLimitError):
        a * b


def test_three_cycle_cubed():
    p = perm_mat([1, 2, 0], 6)
    assert p * p * p == identity(6)


@pytest.mark.parametrize("key", group_keys())
def test_inverse_of_catalog_generators(key):
    # the catalog's entries mix conductors up to 60 and carry square roots;
    # the group inverts by index, and the Cayley-Hamilton inverse is exact
    group = build_group(key)
    for g in load_group(key).generators:
        inv = cayley_hamilton_inverse(g)
        assert g * inv == identity(6)
        assert group.index_of(inv) == group.inv(group.index_of(g))


def test_char_poly_diagonal():
    m = diag([ONE, ONE, ONE, W, W, W])
    # (t-1)^3 (t-w)^3 expanded
    lin1 = (rational(-1), ONE)
    linw = (-W, ONE)
    expected = cyclo_poly_product(lin1, lin1, lin1, linw, linw, linw)
    assert m.char_poly() == expected


def test_char_poly_six_cycle():
    p = perm_mat([1, 2, 3, 4, 5, 0])
    coeffs = [rational(-1)] + [ZERO] * 5 + [ONE]
    assert p.char_poly() == tuple(coeffs)


def test_char_poly_monic():
    rng = random.Random(3)
    for _ in range(30):
        m = _random_matrix(rng, 4)
        assert m.char_poly()[-1] is ONE


def test_cayley_hamilton_randomized():
    rng = random.Random(4)
    for _ in range(40):
        m = _random_matrix(rng, 3)
        z = poly_at_matrix(m.char_poly(), m)
        assert all(e.is_zero for row in z.rows for e in row)


def test_char_poly_conjugation_invariance():
    rng = random.Random(5)
    for _ in range(30):
        m = _random_matrix(rng)
        g = _random_invertible(rng)
        g_inv = cayley_hamilton_inverse(g)
        assert g * g_inv == identity(3)
        assert (g * m * g_inv).char_poly() == m.char_poly()


def test_det_multiplicative():
    rng = random.Random(6)
    for _ in range(40):
        a = _random_matrix(rng)
        b = _random_matrix(rng)
        assert (a * b).det() is a.det() * b.det()


def test_mat_from_strings_round_trip():
    rows = [["1/2", "ER(5/3)/6"], ["-E(3)", "0"]]
    m = mat_from_strings(rows)
    again = mat_from_strings(m.to_strings())
    assert m == again
