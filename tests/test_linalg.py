import random
from fractions import Fraction

import pytest

from fanoterm.cyclo import ONE, ZERO, rational, root_of_unity
from fanoterm.linalg import MatC, diag, identity, mat_from_strings, perm_mat
from oracles import cyclo_poly_product, poly_at_matrix


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


def test_three_cycle_cubed():
    p = perm_mat([1, 2, 0], 6)
    assert p.pow(3) == identity(6)


def test_inverse_of_diagonal():
    m = diag([W, W * W, ONE, ONE, ONE, ONE])
    assert m.inv() == diag([W * W, W, ONE, ONE, ONE, ONE])


def test_inverse_property_randomized():
    rng = random.Random(2)
    for _ in range(60):
        m = _random_invertible(rng)
        assert m * m.inv() == identity(3)


def test_singular_rejected():
    m = MatC([[ONE, ONE], [ONE, ONE]])
    with pytest.raises(ZeroDivisionError):
        m.inv()


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
        assert (g * m * g.inv()).char_poly() == m.char_poly()


def test_det_multiplicative():
    rng = random.Random(6)
    for _ in range(40):
        a = _random_matrix(rng)
        b = _random_matrix(rng)
        assert (a * b).det() is a.det() * b.det()


def test_is_scalar():
    assert identity(4).is_scalar() is ONE
    m = diag([rational(3)] * 6)
    assert m.is_scalar() == 3
    assert diag([ONE, ONE, ONE, W, W, W]).is_scalar() is None
    p1 = diag([W, W, W, ONE, ONE, ONE])
    assert p1.pow(3).is_scalar() is ONE


def test_mat_from_strings_round_trip():
    rows = [["1/2", "ER(5/3)/6"], ["-E(3)", "0"]]
    m = mat_from_strings(rows)
    again = mat_from_strings(m.to_strings())
    assert m == again
