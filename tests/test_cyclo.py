import math
import random
from fractions import Fraction

import pytest

from fanoterm.cyclo import (
    ONE,
    ZERO,
    ConductorLimitError,
    CycloNum,
    dot,
    galois,
    parse_cyclo,
    rational,
    root_of_unity,
    sqrt_rational,
)

from fanoterm import catalog, cyclo
from oracles import (
    cyclo_as_power_poly,
    pairwise_parse,
    reduce_power_poly,
    schoolbook_dot,
    split_parts_equal,
)


def test_root_of_unity_identity_case():
    assert root_of_unity(1, 0) is ONE


def test_root_of_unity_rejects_zero_order():
    with pytest.raises(ValueError):
        root_of_unity(0, 1)


def test_phi3_relation():
    z = root_of_unity(3, 1)
    assert z + root_of_unity(3, 2) == -1


def test_i_squared():
    i = root_of_unity(4, 1)
    assert i * i == -1


def test_root_orders():
    for n in (1, 3, 4, 5, 8, 12, 24):
        for k in range(n):
            z = root_of_unity(n, k)
            order = n // math.gcd(n, k)
            p = z
            for m in range(1, order):
                assert p is not ONE
                p = p * z
            assert p is ONE


def test_product_of_conjugate_pair():
    # (1 + zeta_3)(1 + zeta_3^2) = 1
    z = root_of_unity(3, 1)
    assert (ONE + z) * (ONE + z * z) is ONE


def test_invert_root_of_unity():
    z8 = root_of_unity(8, 1)
    assert z8.inv() is root_of_unity(8, 7)


def test_twelfth_root_sum_squared_is_three():
    # (zeta_12 + zeta_12^11)^2 reduces to 3; cross-check with the oracle
    z = root_of_unity(12, 1)
    v = z + root_of_unity(12, 11)
    sq = v * v
    assert sq == 3
    expected = reduce_power_poly({0: Fraction(2), 2: Fraction(1), 10: Fraction(1)}, 12)
    got = reduce_power_poly(
        {2 * 1: Fraction(1), 1 + 11: Fraction(2), 2 * 11: Fraction(1)}, 12
    )
    assert got == expected


def test_sqrt2_form_and_square():
    s = sqrt_rational(2)
    assert s is root_of_unity(8, 1) - root_of_unity(8, 3)
    assert s * s == 2


def test_sqrt_one():
    assert sqrt_rational(1) is ONE


def test_sqrt5_is_gauss_sum_and_squares_to_five():
    s = sqrt_rational(5)
    gauss = ZERO
    for k in range(1, 5):
        sign = 1 if pow(k, 2, 5) == k * k % 5 and pow(k, (5 - 1) // 2, 5) == 1 else -1
        gauss = gauss + rational(sign) * root_of_unity(5, k)
    assert s is gauss
    # oracle expansion of the 16-term square
    signs = {1: 1, 2: -1, 3: -1, 4: 1}
    acc: dict[int, Fraction] = {}
    for a, sa in signs.items():
        for b, sb in signs.items():
            acc[a + b] = acc.get(a + b, Fraction(0)) + sa * sb
    assert reduce_power_poly(acc, 5) == (Fraction(5), 0, 0, 0)
    assert s * s == 5


@pytest.mark.parametrize("r", [Fraction(5, 3), Fraction(3, 5), 6, 15, Fraction(1, 2), 45, Fraction(49, 9)])
def test_sqrt_rational_squares_exactly(r):
    s = sqrt_rational(r)
    assert (s * s).to_rational() == Fraction(r)


@pytest.mark.parametrize("r", [269, 1000003, 67])
def test_sqrt_past_the_conductor_limit_rejected(r):
    # sqrt(269) has conductor 269, sqrt(67) conductor 268; 1000003 is a
    # prime past the limit, rejected by its cofactor before any table is built
    with pytest.raises(ConductorLimitError):
        parse_cyclo(f"ER({r})")


def _complex_value(x: CycloNum) -> complex:
    return sum(c * complex(math.cos(2 * math.pi * k / x.n), math.sin(2 * math.pi * k / x.n))
               for k, c in enumerate(x.num)) / x.den


@pytest.mark.parametrize("r, conductor", [(201, 201), (-67, 67), (-71, 71), (-284, 71), (-2, 8),
                                          (Fraction(-5, 3), 15)])
def test_sqrt_conductor_is_the_discriminant(r, conductor):
    # sqrt(201) = sqrt(3) sqrt(67) and sqrt(-67) lie in Q(zeta_201) and
    # Q(zeta_67), although sqrt(67) alone needs conductor 268
    s = parse_cyclo(f"ER({r})")
    assert s.conductor == conductor
    assert (s * s).to_rational() == Fraction(r)
    # the positive real root, or i times the positive root of -r
    value = _complex_value(s)
    assert abs(value - (math.sqrt(r) if r > 0 else 1j * math.sqrt(-r))) < 1e-9


def test_sqrt_normal_forms_kept():
    assert parse_cyclo("ER(2)") is root_of_unity(8, 1) - root_of_unity(8, 3)
    assert parse_cyclo("ER(3)") is root_of_unity(12, 1) + root_of_unity(12, 11)
    assert parse_cyclo("ER(-3)") is root_of_unity(3, 1) - root_of_unity(3, 2)
    assert parse_cyclo("ER(5)") is 1 + 2 * (root_of_unity(5, 1) + root_of_unity(5, 4))
    assert parse_cyclo("ER(-1)") is root_of_unity(4, 1)


def test_sqrt_with_a_square_cofactor_past_the_limit():
    # 1009 is a prime above the limit; its square leaves the root rational
    assert sqrt_rational(5 * 1009 ** 2) is 1009 * sqrt_rational(5)
    assert sqrt_rational(Fraction(1, 1009 ** 2)) is rational(Fraction(1, 1009))


def test_sqrt_negative_is_imaginary():
    s = sqrt_rational(-3)
    assert (s * s).to_rational() == -3


def test_to_rational():
    assert ONE.to_rational() == 1
    z3 = root_of_unity(3, 1)
    assert (z3 + z3 * z3).to_rational() == -1
    assert root_of_unity(5, 1).to_rational() is None


def test_vanishing_sums():
    for n in range(2, 25):
        total = ZERO
        for k in range(n):
            total = total + root_of_unity(n, k)
        assert total is ZERO


def test_conductor_minimality_examples():
    # zeta_6 lives in Q(zeta_3); zeta_12^2 likewise
    assert root_of_unity(6, 1).conductor == 3
    v = root_of_unity(12, 2)
    assert v.conductor == 3
    # sqrt(2)*sqrt(2) collapses all the way to conductor 1
    assert (sqrt_rational(2) ** 2).conductor == 1


def test_zero_inversion_rejected():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_zero_denominator_named():
    with pytest.raises(ZeroDivisionError, match=r"^zero denominator in 1/0$"):
        rational(1, 0)


def test_conductor_limit_enforced():
    z11 = root_of_unity(11, 1)
    z24 = root_of_unity(24, 1)
    assert (z11 * z24).conductor == 264
    with pytest.raises(ConductorLimitError):
        root_of_unity(11, 1) * root_of_unity(5, 1) * root_of_unity(24, 1)


@pytest.mark.parametrize("op", [
    pytest.param(lambda a, b: a + b, id="add"),
    pytest.param(lambda a, b: a - b, id="sub"),
    pytest.param(lambda a, b: a * b, id="mul"),
    pytest.param(lambda a, b: dot([(a, b)]), id="dot"),
])
def test_conductor_limit_enforced_by_every_operation(op):
    # E(11) and E(60) meet in conductor lcm(11, 60) = 660, past the limit 264
    with pytest.raises(ConductorLimitError):
        op(root_of_unity(11), root_of_unity(60))


@pytest.mark.parametrize("n", [12, 60, 84, 105, 120, 231, 264])
def test_descent_from_coordinates(n):
    # every subfield value, lifted to Q(zeta_n) by the oracle, descends to
    # itself: through p | n/p, p prime to n/p, and p = 2 with n/p odd
    rng = random.Random(n)
    fields = [m for m in range(1, n + 1) if n % m == 0 and m % 4 != 2]
    for _ in range(12):
        m = rng.choice(fields)
        coords = [rng.randint(-5, 5) for _ in range(cyclo._phi(m))]
        x = cyclo._canonical(m, coords, rng.randint(1, 6))
        lifted = cyclo_as_power_poly(x, n)
        den = math.lcm(*(c.denominator for c in lifted))
        assert cyclo._canonical(n, [int(c * den) for c in lifted], den) is x
        # adding zeta_n spans Q(zeta_n): the conductor stays n
        y = x + root_of_unity(n)
        assert y.conductor == n
        lifted = cyclo_as_power_poly(y, n)
        den = math.lcm(*(c.denominator for c in lifted))
        assert cyclo._canonical(n, [int(c * den) for c in lifted], den) is y


# 11 and 60 are conductors of the catalog's inverses and descents
CONDUCTORS = [1, 3, 4, 5, 7, 8, 9, 11, 12, 15, 20, 24, 60]


def _random_value(rng: random.Random, n: int) -> CycloNum:
    out = rational(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
    for _ in range(rng.randint(0, 2)):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        out = out + rational(c) * root_of_unity(n, rng.randrange(n))
    return out


def test_field_axioms_randomized():
    rng = random.Random(20240601)
    for _ in range(1500):
        n = rng.choice(CONDUCTORS)
        a, b, c = (_random_value(rng, n) for _ in range(3))
        assert (a + b) + c is a + (b + c)
        assert a + b is b + a
        assert (a * b) * c is a * (b * c)
        assert a * b is b * a
        assert a * (b + c) is a * b + a * c
        if not a.is_zero:
            assert a * a.inv() is ONE
        assert a + (-a) is ZERO


def test_hash_consing_and_canonical_idempotence():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.choice(CONDUCTORS)
        a = _random_value(rng, n)
        b = _random_value(rng, n)
        s = a * b
        # recomputing the same value always returns the identical object
        assert a * b is s
        # lifting to a multiple conductor and back is a no-op
        m = s.conductor * 2 if s.conductor % 2 else s.conductor
        lifted = s * root_of_unity(4, 1)
        back = lifted * root_of_unity(4, 3)
        assert back is s


def test_against_oracle_randomized():
    rng = random.Random(99)
    for _ in range(150):
        drawn = rng.choice(CONDUCTORS)
        a = _random_value(rng, drawn)
        b = _random_value(rng, drawn)
        n = math.lcm(a.conductor, b.conductor)
        pa = cyclo_as_power_poly(a, n)
        pb = cyclo_as_power_poly(b, n)
        # oracle product in the power basis of zeta_n
        acc: dict[int, Fraction] = {}
        for i, x in enumerate(pa):
            if x:
                for j, y in enumerate(pb):
                    if y:
                        acc[i + j] = acc.get(i + j, Fraction(0)) + x * y
        assert reduce_power_poly(acc, n) == cyclo_as_power_poly(a * b, n)
        acc2 = {i: x + y for i, (x, y) in enumerate(zip(pa, pb))}
        assert reduce_power_poly(acc2, n) == cyclo_as_power_poly(a + b, n)


def test_galois_against_oracle_randomized():
    rng = random.Random(5)
    for _ in range(150):
        x = _random_value(rng, rng.choice(CONDUCTORS))
        n = x.conductor
        k = rng.choice([k for k in range(-n, 2 * n) if math.gcd(k, n) == 1])
        # substitute zeta_n -> zeta_n^k in the power basis, then reduce mod Phi_n
        sub: dict[int, Fraction] = {}
        for j, c in enumerate(cyclo_as_power_poly(x, n)):
            if c:
                sub[j * k % n] = sub.get(j * k % n, Fraction(0)) + c
        assert reduce_power_poly(sub, n) == cyclo_as_power_poly(galois(x, k), n)
    with pytest.raises(ValueError):
        galois(root_of_unity(12, 1), 3)


def test_string_round_trip():
    rng = random.Random(13)
    values = [ZERO, ONE, rational(Fraction(-7, 3)), sqrt_rational(Fraction(5, 3))]
    values += [_random_value(rng, rng.choice(CONDUCTORS)) for _ in range(200)]
    for v in values:
        assert parse_cyclo(v.to_string()) is v


def test_parse_grammar_forms():
    assert parse_cyclo("E(3)") is root_of_unity(3, 1)
    assert parse_cyclo("E(3)^2") is root_of_unity(3, 2)
    assert parse_cyclo("-1/2") == Fraction(-1, 2)
    assert parse_cyclo("ER(2)/2") is sqrt_rational(2) / 2
    assert parse_cyclo("1/2*E(3)") is rational(Fraction(1, 2)) * root_of_unity(3)
    assert parse_cyclo("Sqrt := ER(5/3)/6".split(":=")[1]) is sqrt_rational(Fraction(5, 3)) / 6
    assert parse_cyclo("-(1/36)*ER(5)*(3*E(4)+ER(3))") == -(
        sqrt_rational(5) * (rational(3) * root_of_unity(4) + sqrt_rational(3))
    ) / 36
    assert parse_cyclo("E(8)^-1") is root_of_unity(8, 7)
    with pytest.raises(ValueError):
        parse_cyclo("E(3) +")
    with pytest.raises(ValueError):
        parse_cyclo("Q(3)")


def _catalog_literals():
    """Every cubic coefficient and generator cell of the group files."""
    for key in catalog.group_keys():
        cells = False
        for line in catalog._read(f"groups/{key}.txt").splitlines():
            line = line.strip()
            if line.startswith("cubic:"):
                yield from line[len("cubic:"):].split(",")
            elif line.startswith("generator "):
                cells = True
            elif cells and line and not line.startswith("#"):
                yield from line.split(",")


def test_catalog_literals_parse_as_pairwise_sums():
    literals = list(_catalog_literals())
    assert len(catalog.group_keys()) == 9 and len(literals) > 9 * 56
    for text in literals:
        assert parse_cyclo(text) is pairwise_parse(text), text


@pytest.mark.parametrize("text, value", [
    ("E(24)^0", ONE),
    ("E(24)^24", ONE),
    ("E(24)^25", root_of_unity(24, 1)),
    ("-E(8)^3", -root_of_unity(8, 3)),
    ("2*E(3)^2", 2 * root_of_unity(3, 2)),
    ("(E(3)+E(3)^2)^2", ONE),
    ("E(4)^2+1", ZERO),
    ("E(7)^-2", root_of_unity(7, 5)),
    ("1-E(5)^2-(E(5)-2)*3", 7 - root_of_unity(5, 2) - 3 * root_of_unity(5)),
])
def test_parse_edge_literals(text, value):
    assert parse_cyclo(text) is value
    assert pairwise_parse(text) is value


def test_negative_power_of_a_root_takes_the_general_path(monkeypatch):
    calls = []
    root = cyclo.root_of_unity
    monkeypatch.setattr(cyclo, "root_of_unity", lambda n, k=1: calls.append((n, k)) or root(n, k))
    assert parse_cyclo("E(7)^-2") is root(7, 5)
    assert calls == [(7, 1)]
    assert parse_cyclo("E(7)^2") is root(7, 2)
    assert calls[1:] == [(7, 1), (7, 2)]
    with pytest.raises(ValueError, match="exponent in cyclotomic literal exceeds 1000"):
        parse_cyclo("E(5)^1001")


def test_nested_powers_bounded():
    # exponents multiply through parentheses: 2^(10^6) passes the bound
    # of MAX_EXPONENT squared bits, a MAX_EXPONENT-bit base to that power
    assert parse_cyclo("(2^100)^100") == 2 ** 10000
    assert parse_cyclo("((E(7)^1000)^1000)^1000") is root_of_unity(7, 6)
    with pytest.raises(ValueError, match="power in cyclotomic literal"):
        parse_cyclo("((2^100)^100)^100")


def test_products_bounded():
    # a product or quotient is refused when its operands' sizes sum past
    # MAX_EXPONENT squared bits, so a chain of allowed powers cannot grow
    assert parse_cyclo("(2^999)^1000*3") == 3 * 2 ** 999000
    assert parse_cyclo("(2^999)^1000/3") == Fraction(2 ** 999000, 3)
    for factors in (2, 10, 40):
        with pytest.raises(ValueError, match="product in cyclotomic literal"):
            parse_cyclo("*".join(["(2^999)^1000"] * factors))
    with pytest.raises(ValueError, match="product in cyclotomic literal"):
        parse_cyclo("(2^999)^1000/(2^2)^1000")


def test_dot_memo_keeps_repeated_terms(monkeypatch):
    monkeypatch.setattr(cyclo, "_DOT_CACHE", {})
    a, b = root_of_unity(7, 3), rational(5, 11) * root_of_unity(9)
    assert dot([(a, b)]) is a * b
    # a repeated term counts twice: the memo keys on the whole term list
    assert dot([(a, b), (a, b)]) is 2 * a * b
    assert dot([(b, a), (a, b)]) is 2 * a * b
    assert dot([(a, b), (ONE, ONE)]) is a * b + 1
    assert dot([(ONE, ONE), (a, b)]) is a * b + 1


def test_dot_memo_lifts_each_term_list_once(monkeypatch):
    # each value is lifted and packed once per conductor, and a repeated
    # term tuple is a hit of the dot memo
    monkeypatch.setattr(cyclo, "_DOT_CACHE", {})
    monkeypatch.setattr(cyclo, "_PACKS", {})
    packed = []
    pack = cyclo._packed
    monkeypatch.setattr(cyclo, "_packed",
                        lambda x, n, memo: packed.append((x, n)) or pack(x, n, memo))
    z73, z9, z7, half = root_of_unity(7, 3), root_of_unity(9), root_of_unity(7), rational(1, 2)
    terms = [(z73, z9), (half, z7)]
    first = dot(terms)
    assert sorted(packed, key=str) == sorted([(z73, 63), (z9, 63), (half, 63), (z7, 63)], key=str)
    assert dot(list(terms)) is first
    assert dot(tuple(terms)) is first
    assert len(packed) == 4
    # a new term list at conductor 63 reuses the packings of its values
    assert dot([(z9, z73), (z7, half)]) is first
    assert len(packed) == 4
    # at its own conductor a value is packed once more
    assert z73 * z7 is root_of_unity(7, 4)
    assert z73 * root_of_unity(7, 5) is root_of_unity(7, 1)
    assert packed[4:] == [(z73, 7), (z7, 7), (root_of_unity(7, 5), 7)]
    assert first is root_of_unity(7, 3) * root_of_unity(9) + rational(1, 2) * root_of_unity(7)


# the conductors of canonical values up to the limit: n = 2 mod 4 never is one
KERNEL_CONDUCTORS = [n for n in range(1, cyclo._CONDUCTOR_LIMIT + 1) if n % 4 != 2]


def _dense_value(rng: random.Random, n: int, bits: int, den: int) -> CycloNum:
    # coordinates of at most `bits` bits, the first exactly that size and a
    # power of two, through the kernel-free constructor; for an odd den no
    # content divides out, so the value keeps those coordinates when it
    # keeps conductor n
    coords = [rng.choice((-1, 1)) * rng.randrange(1 << bits) for _ in range(cyclo._phi(n))]
    coords[0] = 1 << (bits - 1)
    return cyclo._canonical(n, coords, den)


def test_packed_dot_against_schoolbook_oracle():
    rng = random.Random(264)
    for n in KERNEL_CONDUCTORS:
        divisors = [m for m in KERNEL_CONDUCTORS if n % m == 0]
        a = _dense_value(rng, n, rng.randint(1, 12), rng.choice((1, 2, 9, 35)))
        b = _dense_value(rng, rng.choice(divisors), rng.randint(1, 12), rng.choice((1, 4, 7)))
        c = _dense_value(rng, rng.choice(divisors), rng.randint(1, 4), rng.choice((1, 3, 10)))
        pairs = [(a, b), (c, a), (b, ONE), (rational(-3, 5), c)]
        assert cyclo_as_power_poly(dot(pairs), n) == schoolbook_dot(pairs, n), n
        assert cyclo_as_power_poly(a * b, n) == schoolbook_dot([(a, b)], n), n


@pytest.mark.parametrize("n", [3, 8, 24, 60, 105, 264])
def test_packed_dot_at_the_width_boundary(n, monkeypatch):
    # a product's raw coefficients are proven below 2^(bits(a) + bits(b) +
    # bits(scale) + bits(terms * phi)), and a balanced digit needs one more
    # bit for its sign: at the memoized width that leaves `fit` bits for
    # the two coordinate sizes, and one bit more packs wider, at the next
    # multiple of the width
    widths = []
    unpack = cyclo._unpack
    monkeypatch.setattr(cyclo, "_unpack", lambda acc, m, w: widths.append(w) or unpack(acc, m, w))
    rng = random.Random(n)
    w = cyclo._WIDTH
    fit = w - 2 - cyclo._phi(n).bit_length()
    for total, width in ((fit, w), (fit + 1, 2 * w), (fit + w, 2 * w), (fit + w + 1, 3 * w)):
        for den in (1, 9):
            a = _dense_value(rng, n, total // 2, den)
            b = _dense_value(rng, n, total - total // 2, 1)
            assert a.conductor == b.conductor == n
            assert cyclo._bit_bound(a.num) + cyclo._bit_bound(b.num) == total
            widths.clear()
            got = dot([(a, b)])
            assert widths == [width], (total, widths)
            assert cyclo_as_power_poly(got, n) == schoolbook_dot([(a, b)], n)


def test_descent_early_out_against_full_split():
    # the functionals of _split_tests vanish exactly when the full split
    # has A_1 = ... = A_(p-1), for values inside and outside each subfield
    rng = random.Random(5)
    for n, p in ((n, p) for n in KERNEL_CONDUCTORS for p in cyclo._prime_factors(n)):
        m = n // p
        if m % p == 0:
            continue
        tests = cyclo._split_tests(n, p)
        inside = []
        for _ in range(2):
            x = _dense_value(rng, m, 4, 1)
            inside.append([int(c) for c in cyclo_as_power_poly(x, n)])
        outside = [vec[:i] + [vec[i] + 1] + vec[i + 1:]
                   for vec in inside for i in rng.sample(range(len(vec)), 2)]
        outside.append([rng.randint(-3, 3) for _ in range(cyclo._phi(n))])
        for vec in inside + outside:
            early = not any(sum(vec[i] * c for i, c in test) for test in tests)
            assert early == split_parts_equal(n, p, vec), (p, vec)
        assert all(split_parts_equal(n, p, vec) for vec in inside)
