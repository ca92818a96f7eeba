import pytest

from fanoterm.catalog import (
    CatalogValidationError,
    build_group,
    group_keys,
    load_fixtures,
    load_group,
    load_overlay,
    load_rank_rows,
)
from fanoterm.cyclo import parse_cyclo
from fanoterm.groups import GroupId, identify
from fanoterm.linalg import identity

EXPECTED_ORDERS = {
    "C3_4_A6": 29160,
    "A7_perm": 2520,
    "A7_second": 2520,
    "G1944": 1944,
    "M10_first": 720,
    "M10_second": 720,
    "L2_11": 660,
    "A3_5": 360,
    "Q8_S3": 48,
}


def test_group_keys():
    assert set(group_keys()) == set(EXPECTED_ORDERS)


def test_unknown_key_rejected():
    with pytest.raises(KeyError):
        load_group("nope")


def test_definitions_parse_and_round_trip():
    for key in group_keys():
        definition = load_group(key)
        assert definition.order == EXPECTED_ORDERS[key]
        for mat in definition.generators:
            assert not mat.det().is_zero
            for row in mat.to_strings():
                for cell in row:
                    assert parse_cyclo(cell) is parse_cyclo(parse_cyclo(cell).to_string())


def test_l2_11_sanity_relation():
    h1, h2 = load_group("L2_11").generators
    assert (h1 * h2).pow(11) == identity(6)


@pytest.mark.parametrize("key", sorted(EXPECTED_ORDERS))
def test_enumerated_orders(built, key):
    group = built(key)
    assert group.n == EXPECTED_ORDERS[key]


@pytest.mark.parametrize(
    "key,expected",
    [
        ("L2_11", GroupId(660, 13)),
        ("Q8_S3", GroupId(48, 29)),
        ("A3_5", GroupId(360, 120)),
        ("M10_first", GroupId(720, 765)),
        ("M10_second", GroupId(720, 765)),
        ("G1944", GroupId(1944, 3559)),
        ("A7_perm", GroupId(2520, 0)),
        ("A7_second", GroupId(2520, 0)),
        ("C3_4_A6", GroupId(29160, 0)),
    ],
)
def test_identification_matches_declared(built, key, expected):
    group = built(key)
    assert identify(group.view) == expected
    assert load_group(key).group_id == expected


def test_rank_rows_cover_all_labels():
    rows = load_rank_rows()
    labels = [x for row in rows for x in row[0].split("/")]
    assert sorted(int(x) for x in labels) == list(range(1, 199))
    assert all(0 <= rank <= 23 for _, _, rank in rows)


def test_overlay_rows():
    rules = {(r.ambient_key, r.group_id): r.rank for r in load_overlay()}
    assert rules[("G1944", GroupId(3, 1))] == 18
    assert rules[("G1944", GroupId(9, 2))] == 18


def test_fixture_list_shape():
    fixtures = load_fixtures()
    assert len(fixtures) == 104
    by_ambient = {}
    for f in fixtures:
        by_ambient[f.ambient_order] = by_ambient.get(f.ambient_order, 0) + 1
    assert by_ambient == {360: 14, 660: 7, 720: 9, 1944: 10, 2520: 15, 29160: 43, 48: 6}
