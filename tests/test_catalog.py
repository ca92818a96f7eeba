import operator
from functools import reduce

import pytest

from fanoterm import catalog, cli
from fanoterm.catalog import (
    CatalogValidationError,
    build_group,
    group_keys,
    load_group,
    load_rank_rows,
)
from fanoterm.cli import EXIT_VALIDATION, main as cli_main
from fanoterm.cyclo import parse_cyclo
from fanoterm.deform import load_fixtures
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
    assert reduce(operator.mul, [h1 * h2] * 11) == identity(6)


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


@pytest.fixture
def corrupted(monkeypatch):
    """Serve a group's definition file with one text substitution applied."""

    def apply(key, old, new):
        path = f"groups/{key}.txt"
        text = catalog._read(path)
        assert old in text
        bad = text.replace(old, new, 1)
        real_read = catalog._read
        monkeypatch.setattr(catalog, "_read",
                            lambda name: bad if name == path else real_read(name))
        # the uncached builder, so the session's cached groups are left as they are
        monkeypatch.setattr(cli, "build_group", build_group.__wrapped__)
        load_group.cache_clear()

    yield apply
    load_group.cache_clear()


def _q8_s3_from(marker):
    """Q8_S3's definition text from marker to its end."""
    text = catalog._read("groups/Q8_S3.txt")
    return text[text.index(marker):]


# the number of distinct cyclotomic literals in each definition file
DISTINCT_LITERALS = {"Q8_S3": 16, "A3_5": 7, "L2_11": 37, "M10_first": 12, "M10_second": 49,
                     "G1944": 10, "A7_perm": 6, "A7_second": 22, "C3_4_A6": 6}


def test_load_group_parses_each_distinct_literal_once(monkeypatch):
    parsed = []
    parse = catalog.parse_cyclo
    monkeypatch.setattr(catalog, "parse_cyclo", lambda text: parsed.append(text) or parse(text))
    for key in group_keys():
        parsed.clear()
        definition = load_group.__wrapped__(key)
        assert len(parsed) == len(set(parsed)) == DISTINCT_LITERALS[key]
        assert definition == load_group(key)


@pytest.mark.parametrize("key,old,new,message", [
    # the coefficient of x1*x4*x5, the first ", 2, " of the file, from 2 to 3
    pytest.param("Q8_S3", ", 2, ", ", 3, ", "does not preserve the cubic", id="cubic-coefficient"),
    pytest.param("Q8_S3", "cubic: 1,", "cubic: 1, 0,", "needs 56 coefficients", id="cubic-length"),
    pytest.param("Q8_S3", "cubic: 1,", "cubic: foo,", "bad entry", id="cubic-entry"),
    pytest.param("Q8_S3", "E(8)^5", "E(8)^+", "bad entry", id="generator-entry"),
    pytest.param("Q8_S3", "cubic:", "# cubic:", "missing header 'cubic'", id="missing-cubic"),
    pytest.param("Q8_S3", "id:", "# id:", "missing header 'id'", id="missing-id"),
    pytest.param("Q8_S3", "id: 48,29", "id: 48", "bad entry", id="id-entry"),
    # enumeration stops once it passes the declared order
    pytest.param("Q8_S3", "order: 48", "order: 24", "enumeration exceeds the declared order 24",
                 id="order-too-small"),
    pytest.param("Q8_S3", "order: 48", "order: 96", "enumerated order 48 != declared order 96",
                 id="order-too-large"),
    # one sign flipped in generator 3
    pytest.param("Q8_S3", "generator 3:\n1,", "generator 3:\n-1,", "generator 3 has determinant -1",
                 id="generator-determinant"),
    # two signs flipped in generator 1: determinant still 1, but x0 -> -x0
    pytest.param("Q8_S3", "generator 1:\n1, 0, 0, 0, 0, 0\n0, 0, 1,",
                 "generator 1:\n-1, 0, 0, 0, 0, 0\n0, 0, -1,",
                 "generator 1 does not preserve the cubic", id="generator-cubic"),
    pytest.param("Q8_S3", _q8_s3_from("generator 1:"), "", "no generator block",
                 id="no-generators"),
    # the last generator replaced by the 5x5 identity
    pytest.param("Q8_S3", _q8_s3_from("generator 4:"),
                 "generator 4:\n" + "\n".join(", ".join("1" if i == j else "0" for j in range(5))
                                               for i in range(5)),
                 "generator 4 is 5x5, not 6x6", id="generator-5x5"),
    # L2_11's h1 with the sign of its fifth row's final entry dropped, the
    # matrix of infinite order that its variant note describes
    pytest.param("L2_11", ", 1, -(E(11)+E(11)^3+E(11)^4+E(11)^5+E(11)^9)",
                 ", 1, E(11)+E(11)^3+E(11)^4+E(11)^5+E(11)^9",
                 "generator 1 does not preserve the cubic", id="L2_11-h1-sign"),
])
def test_corrupted_definition_fails_build(corrupted, capsys, key, old, new, message):
    corrupted(key, old, new)
    with pytest.raises(CatalogValidationError, match=message):
        build_group.__wrapped__(key)
    assert cli_main(["validate-catalog", "--group", key]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL {key}: ") and message in out and out.count(key) == 1


def test_shipped_generators_have_determinant_one_and_preserve_the_cubic():
    from fanoterm.cyclo import ONE
    from fanoterm.linalg import cubic_compose

    for key in group_keys():
        definition = load_group(key)
        assert any(not c.is_zero for c in definition.cubic)
        for m in definition.generators:
            assert m.det() == ONE
            assert cubic_compose(definition.cubic, m) == definition.cubic


def test_id_catalog_regenerates_byte_for_byte():
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "build_id_catalog.py"
    spec = importlib.util.spec_from_file_location("build_id_catalog", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    text = script.catalog_text()
    assert text == catalog._read("idcatalog.data")
    tier1_keys = [line.split("|")[1] for line in text.splitlines() if not line.startswith("#")]
    assert len(tier1_keys) == len(set(tier1_keys)) == 90


def test_fixture_list_shape():
    fixtures = load_fixtures()
    assert len(fixtures) == 103
    by_ambient = {}
    for f in fixtures:
        by_ambient[f.ambient_order] = by_ambient.get(f.ambient_order, 0) + 1
    assert by_ambient == {360: 14, 660: 7, 720: 9, 1944: 10, 2520: 15, 29160: 42, 48: 6}


def test_fixture_rows_do_not_repeat():
    # a repeated row would be reported twice by check-deformation
    rows = [line.split() for line in catalog._read("fixtures.list").splitlines()
            if line.strip() and not line.startswith("#")]
    assert len(rows) == len(load_fixtures())
    assert len({tuple(row) for row in rows}) == len(rows)
