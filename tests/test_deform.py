import random
from fractions import Fraction

import pytest

from fanoterm.deform import (
    KnownClassCatalog,
    ObstructionEntry,
    is_square_rational,
    load_deformation_catalog,
    load_fixtures,
    obstruction_report,
)
from fanoterm.groups import GroupId


def test_is_square_rational_examples():
    assert is_square_rational(81)
    assert is_square_rational(1)
    assert not is_square_rational(Fraction(55, 12))
    assert is_square_rational(Fraction(4, 9))
    assert not is_square_rational(2)


def test_is_square_rational_rejects_nonpositive():
    with pytest.raises(ValueError):
        is_square_rational(0)
    with pytest.raises(ValueError):
        is_square_rational(-4)


def test_reciprocal_property():
    rng = random.Random(11)
    for _ in range(500):
        q = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        assert is_square_rational(q) == is_square_rational(1 / q)


def test_new_candidates_exactly_two():
    report = obstruction_report(load_fixtures(), load_deformation_catalog())
    got = [(e.group_id, e.b2) for e in report.new_candidates]
    assert got == [(GroupId(660, 13), 4), (GroupId(2520, 0), 4)]


def test_known_matches():
    catalog = load_deformation_catalog()
    e360 = ObstructionEntry(GroupId(360, 118), 5, 720)
    e29160 = ObstructionEntry(GroupId(29160, 0), 5, 29160)
    e660 = ObstructionEntry(GroupId(660, 13), 4, 660)
    report = obstruction_report([e360, e29160, e660], catalog)
    # 360/360 = 1 and 29160/360 = 81 are both square
    assert e360 not in report.hilbert_square_unmatched
    assert e29160 not in report.hilbert_square_unmatched
    assert e660 in report.new_candidates


def test_empty_fixture_list():
    report = obstruction_report([], load_deformation_catalog())
    assert report.new_candidates == ()
    assert report.fujiki_unmatched == ()


def test_kummer_factor_three():
    catalog = load_deformation_catalog()
    # 1944/(3*648) = 1 would match, but 648 is not in the b2=7 Kummer row;
    # 1944/(3*216) = 3 is not square; 5832/(3*1944) = 1 matches
    entry = ObstructionEntry(GroupId(5832, 0), 7, 29160)
    report = obstruction_report([entry], catalog)
    assert entry not in report.kummer_unmatched


def test_absent_b2_goes_unmatched():
    catalog = load_deformation_catalog()
    entry = ObstructionEntry(GroupId(360, 118), 99, 720)
    report = obstruction_report([entry], catalog)
    assert entry in report.fujiki_unmatched
    assert entry in report.hilbert_square_unmatched
    assert entry in report.kummer_unmatched
    assert entry in report.new_candidates


def test_matching_monotone_in_catalog_growth():
    base = load_deformation_catalog()
    entries = load_fixtures()
    before = obstruction_report(entries, base)
    grown = KnownClassCatalog(
        fujiki={**base.fujiki, 4: tuple(base.fujiki.get(4, ())) + (660,)},
        hilbert_square=base.hilbert_square,
        kummer=base.kummer,
    )
    after = obstruction_report(entries, grown)
    assert set(after.new_candidates) <= set(before.new_candidates)
    assert len(after.new_candidates) == 1  # the 660 entry is now matched
