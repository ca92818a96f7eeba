import ast
import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import fanoterm
from fanoterm.cli import EXIT_BROKEN_PIPE, EXIT_OK, EXIT_VALIDATION, main
from fanoterm.linalg import identity
from oracles import cayley_hamilton_inverse


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_text(capsys):
    code, out, err = run_cli(capsys, "table", "--group", "Q8_S3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].split() == ["class", "(order,id)", "rank", "n2", "N3", "n3", "n31", "n32", "b2", "pi1"]
    assert any("(48,29)" in line for line in lines)


def test_table_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "table", "--group", "Q8_S3", "--format", "structured")
    _, out2, _ = run_cli(capsys, "table", "--group", "Q8_S3", "--format", "structured")
    assert out1 == out2


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "Q8_S3", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["class", "(order,id)", "rank", "n2", "N3", "n3", "n31", "n32", "b2", "pi1"]
    assert ["16", "(48,29)", "19", "2", "0", "0", "0", "0", "6", "(1,1)"] in rows


def test_table_structured(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "L2_11", "--format", "structured")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ambient"] == "L2_11"
    full = [r for r in payload["rows"] if r["group_id"] == [660, 13]]
    assert full and full[0]["b2"] == 4 and full[0]["pi1_trivial"]


def test_table_all_subgroups_superset(capsys):
    _, out_all, _ = run_cli(capsys, "table", "--group", "Q8_S3", "--all-subgroups",
                            "--format", "structured")
    _, out_nt, _ = run_cli(capsys, "table", "--group", "Q8_S3", "--format", "structured")
    rows_all = json.loads(out_all)["rows"]
    rows_nt = json.loads(out_nt)["rows"]
    assert len(rows_all) > len(rows_nt)
    keys = {r["class_index"] for r in rows_all}
    assert {r["class_index"] for r in rows_nt} <= keys


def test_budget_exit_code(capsys):
    # no sweep has a budget, so argparse refuses --budget as an input
    # failure, with no output
    with pytest.raises(SystemExit) as exc:
        main(["table", "--group", "L2_11", "--budget", "100"])
    assert exc.value.code == EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments: --budget 100" in out.err


@pytest.mark.parametrize("budget", ["0", "-5", "x"])
def test_budget_below_one_is_an_input_failure(capsys, budget):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--group", "L2_11", "--all-subgroups", "--budget", budget])
    assert exc.value.code == EXIT_VALIDATION
    assert f"unrecognized arguments: --budget {budget}" in capsys.readouterr().err


def test_full_group_only(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "C3_4_A6", "--mode", "full-group-only",
                           "--format", "structured")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert len(rows) == 1
    assert rows[0]["b2"] == 5 and rows[0]["group_id"] == [29160, 0]


def test_targeted_word(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "C3_4_A6", "--mode", "targeted",
                           "--subgroup", "g3*g4", "--format", "structured")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["group_id"] == [3, 1]
    assert row["b2"] == 7 and row["pi1_trivial"]


def test_targeted_word_involution(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "A3_5", "--mode", "targeted",
                           "--subgroup", "g2", "--format", "structured")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["group_id"] == [2, 1] and row["b2"] == 16


def test_targeted_inline_matrix(capsys):
    # the double-transposition generator of A3_5 given as a raw matrix
    rows = [
        "0,1,0,0,0,0",
        "1,0,0,0,0,0",
        "0,0,0,1,0,0",
        "0,0,1,0,0,0",
        "0,0,0,0,1,0",
        "0,0,0,0,0,1",
    ]
    code, out, _ = run_cli(capsys, "table", "--group", "A3_5", "--mode", "targeted",
                           "--subgroup", "mat:" + ";".join(rows), "--format", "structured")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["group_id"] == [2, 1] and row["b2"] == 16


def test_targeted_matrix_outside_group(capsys):
    rows = ["0,1", "1,0"]
    code, _, err = run_cli(capsys, "table", "--group", "A3_5", "--mode", "targeted",
                           "--subgroup", "mat:" + ";".join(rows))
    assert code == EXIT_VALIDATION


def _identity_with(entry):
    """A 6x6 identity spec whose top-left entry is replaced."""
    return "mat:" + ";".join(
        ",".join(entry if i == j == 0 else "1" if i == j else "0" for j in range(6))
        for i in range(6)
    )


@pytest.mark.parametrize("spec", [
    *(pytest.param(_identity_with(e), id=e) for e in ("E(1000)", "foo", "1/0")),
    # zero matrices parse but have no projective class
    pytest.param("mat:0,0;0,0", id="zero-2x2"),
    pytest.param("mat:" + ";".join([",".join(["0"] * 6)] * 6), id="zero-6x6"),
    # too deep for the parsers' recursion, or past the interpreter's limit
    # on the digits of an int
    pytest.param(_identity_with("(" * 3000 + "1" + ")" * 3000), id="entry-nested-3000"),
    pytest.param("(" * 3000 + "g1" + ")" * 3000, id="word-nested-3000"),
    pytest.param("g1^" + "7" * 5000, id="word-exponent-5000-digits"),
    # an exponent past cyclo.MAX_EXPONENT, whose exact power would need GBs
    pytest.param(_identity_with("2^10000000000"), id="entry-exponent-10^10"),
    # a square root past the conductor limit, and nested powers past the
    # size bound of cyclo.MAX_EXPONENT squared bits
    pytest.param("mat:ER(269),0;0,1", id="entry-ER(269)"),
    pytest.param(_identity_with("((2^100)^100)^100"), id="entry-nested-power"),
    # a product of allowed powers past the same bound
    pytest.param(_identity_with("*".join(["(2^999)^1000"] * 40)), id="entry-product-chain"),
])
def test_targeted_bad_matrix_entry(capsys, spec):
    code, _, err = run_cli(capsys, "table", "--group", "Q8_S3", "--mode", "targeted",
                           "--subgroup", spec)
    assert code == EXIT_VALIDATION
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert len(err) < 200  # the specification's echo is cut short


@pytest.mark.parametrize("key", ["L2_11", "M10_second"])
def test_targeted_negative_exponent(capsys, key):
    # the row must be the one of the subgroup generated by the product of
    # the element indices
    from fanoterm.catalog import build_group, load_group
    from fanoterm.cli import render_records
    from fanoterm.invariants import classification_table

    code, out, _ = run_cli(capsys, "table", "--group", key, "--mode", "targeted",
                           "--subgroup", "g1^-1*g2", "--all-subgroups", "--format", "structured")
    assert code == EXIT_OK
    group = build_group(key)
    a, b = (group.index_of(g) for g in load_group(key).generators[:2])
    sub = group.subgroup(gens=[group.mult(group.inv(a), b)])
    records = classification_table(key, mode="targeted", targeted=[sub], all_subgroups=True)
    assert out == render_records(records, "structured", key, "targeted")
    assert [row["order"] for row in json.loads(out)["rows"]] == [sub.order]


def _power(m, k):
    """m^k by exact products, through the Cayley-Hamilton inverse when k < 0."""
    if k < 0:
        m, k = cayley_hamilton_inverse(m), -k
    out = identity(m.dim)
    while k:
        if k & 1:
            out = out * m
        m, k = m * m, k >> 1
    return out


# each word beside its value on the generators' matrices
WORDS = [
    ("C3_4_A6", "g3*g4", lambda g: g[2] * g[3]),
    ("C3_4_A6", "(g1*g2)^-3*g3^0", lambda g: _power(g[0] * g[1], -3)),
    ("C3_4_A6", "(g1^2*(g4*g6)^-1)^123456789012",
     lambda g: _power(_power(g[0], 2) * _power(g[3] * g[5], -1), 123456789012)),
    ("M10_second", "g1^-1*g2", lambda g: _power(g[0], -1) * g[1]),
    ("M10_second", "g2^0", lambda g: identity(6)),
    ("M10_second", "(g1^3*(g2*g1)^-2)^99999999999",
     lambda g: _power(_power(g[0], 3) * _power(g[1] * g[0], -2), 99999999999)),
    ("L2_11", "(g1*g2)^5", lambda g: _power(g[0] * g[1], 5)),
    ("L2_11", "g2^-7", lambda g: _power(g[1], -7)),
    ("L2_11", "((g1*g2)^-5*g1)^-1", lambda g: _power(_power(g[0] * g[1], -5) * g[0], -1)),
]


@pytest.mark.parametrize("key,word,value", WORDS, ids=[f"{k}:{w}" for k, w, _ in WORDS])
def test_word_is_the_index_of_its_matrix_product(key, word, value):
    from fanoterm.catalog import build_group, load_group
    from fanoterm.targeted import parse_subgroup_spec

    group, mats = build_group(key), load_group(key).generators
    gens = [group.index_of(g) for g in mats]
    assert parse_subgroup_spec(word, group, gens) == [group.index_of(value(mats))]


def test_word_resolution_makes_no_matrix_product(monkeypatch):
    from fanoterm.catalog import build_group, load_group
    from fanoterm.targeted import _resolve_subgroups
    from fanoterm.linalg import MatC

    group = build_group("M10_second")
    products = []
    mul = MatC.__mul__
    monkeypatch.setattr(MatC, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    subs = _resolve_subgroups(group, load_group("M10_second"),
                              ["g1^-1*g2", "(g1^3*(g2*g1)^-2)^99999999999", "g2^-7"])
    assert len(subs) == 3 and products == []


def test_rank_table_disagreement_is_a_validation_error(capsys, monkeypatch):
    # the computed rank of GL(2,3) is 19; a table listing only 20 for it
    # means the shipped data disagree
    from fanoterm import ranks
    from fanoterm.groups import GroupId

    monkeypatch.setattr(ranks, "_rank_by_id", lambda: {GroupId(48, 29): frozenset({20})})
    code, out, err = run_cli(capsys, "table", "--group", "Q8_S3", "--mode", "full-group-only")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error:") and "not among table candidates [20]" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_no_rank_resolution_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--group", "Q8_S3", "--no-rank-resolution"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-rank-resolution" in capsys.readouterr().err


def test_structured_rows_carry_one_exact_rank(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "Q8_S3", "--all-subgroups",
                           "--format", "structured")
    assert code == EXIT_OK
    for row in json.loads(out)["rows"]:
        assert list(row) == ["class_index", "order", "group_id", "rank", "n2", "N3", "n3",
                             "n31", "n32", "b2", "pi1", "pi1_trivial"]
        assert isinstance(row["rank"], int) and isinstance(row["b2"], int)


def test_targeted_requires_subgroup(capsys):
    code, _, err = run_cli(capsys, "table", "--group", "Q8_S3", "--mode", "targeted")
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("mode", ["full-sweep", "full-group-only"])
def test_subgroup_requires_targeted_mode(capsys, mode):
    code, out, err = run_cli(capsys, "table", "--group", "Q8_S3", "--mode", mode,
                             "--subgroup", "g1", "--format", "csv")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == "error: --subgroup requires --mode targeted\n"


def test_targeted_bad_word(capsys):
    code, _, err = run_cli(capsys, "table", "--group", "Q8_S3", "--mode", "targeted",
                           "--subgroup", "g9")
    assert code == EXIT_VALIDATION
    assert "out of range" in err


BAD_SUBGROUPS = [
    ("(g1", "unbalanced parentheses in word '(g1'"),
    ("mat:1,0;0,1", "subgroup specification 'mat:1,0;0,1' leaves the ambient group"),
    # a zero denominator is named as one
    ("mat:ER(1/0)", "bad matrix in subgroup specification 'mat:ER(1/0)': zero denominator in 1/0"),
]


@pytest.mark.parametrize("spec, message", BAD_SUBGROUPS)
def test_main_reports_a_bad_subgroup_on_one_line(capsys, spec, message):
    got = run_cli(capsys, "table", "--group", "Q8_S3", "--mode", "targeted", "--subgroup", spec)
    assert got == (EXIT_VALIDATION, "", f"error: {message}\n")


@pytest.mark.parametrize("spec, message", BAD_SUBGROUPS)
def test_module_entry_reports_a_bad_subgroup_on_one_line(spec, message):
    # under python -m the command line runs as __main__, so the --subgroup
    # grammar, imported when targeted mode runs, must raise an error that
    # __main__'s own handler catches
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fanoterm.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "fanoterm.cli", "table", "--group", "Q8_S3",
                           "--mode", "targeted", "--subgroup", spec],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_VALIDATION, "", f"error: {message}\n")


def test_detect_l3_counts(capsys):
    code, out, _ = run_cli(capsys, "detect-l3", "--group", "G1944")
    assert code == EXIT_OK
    assert "1 codimension-2 order-3 subgroup" in out
    code, out, _ = run_cli(capsys, "detect-l3", "--group", "A7_perm")
    assert "0 codimension-2 order-3 subgroup" in out


def test_check_deformation(capsys):
    code, out, _ = run_cli(capsys, "check-deformation")
    assert code == EXIT_OK
    assert "new deformation-class candidates (2):" in out
    assert "(660,13)  b2=4" in out
    assert "(2520,0)  b2=4" in out


def test_check_deformation_structured(capsys):
    code, out, _ = run_cli(capsys, "check-deformation", "--format", "structured")
    payload = json.loads(out)
    assert [e["group_id"] for e in payload["new_candidates"]] == [[660, 13], [2520, 0]]


def test_check_deformation_nonpositive_order(capsys, monkeypatch):
    from fanoterm import deform

    monkeypatch.setattr(deform, "_read", lambda name: "0 1 4 48\n")
    deform.load_fixtures.cache_clear()
    try:
        code, out, err = run_cli(capsys, "check-deformation")
    finally:
        monkeypatch.undo()
        deform.load_fixtures.cache_clear()
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error:") and "'0 1 4 48'" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


# a malformed line appended to each shipped table, and a command that reads it
MALFORMED_TABLES = [
    ("rkl.table", "X 60 5 oops", ("table", "--group", "A3_5")),
    ("vfuj.table", "4 x", ("check-deformation",)),
    ("vk3.table", "4 x", ("check-deformation",)),
    ("vkum.table", "4 x", ("check-deformation",)),
    ("idcatalog.data", "12 3 | (12, oops)", ("fingerprint", "--group", "Q8_S3")),
]


@pytest.mark.parametrize("name, line, command", MALFORMED_TABLES)
def test_malformed_table_line_exits_2(capsys, monkeypatch, name, line, command):
    # a table's malformed line is one error line naming the file and
    # quoting the line, with exit 2 and nothing on stdout
    from fanoterm import catalog, data, deform, groups, ranks

    read = data.read_data
    patched = lambda n: read(n) + "\n" + line + "\n" if n == name else read(n)
    loaders = (catalog.load_rank_rows, ranks._rank_by_id, deform.load_deformation_catalog,
               groups._load_id_catalog)
    for module, attr in ((catalog, "_read"), (deform, "_read"), (data, "read_data")):
        monkeypatch.setattr(module, attr, patched)
    for loader in loaders:
        loader.cache_clear()
    try:
        code, out, err = run_cli(capsys, *command)
    finally:
        monkeypatch.undo()
        for loader in loaders:
            loader.cache_clear()
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith(f"error: {name}: ") and repr(line) in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_fingerprint_command(capsys):
    code, out, _ = run_cli(capsys, "fingerprint", "--group", "Q8_S3")
    assert code == EXIT_OK
    assert "identification: (48,29)" in out


# sha256 of `fanoterm fingerprint --group KEY`, pinned for every ambient
# file: its derived series runs through nested quotients
FINGERPRINT_DIGESTS = {
    "A3_5": "bcaa5c45b7ce9e444853f1bda86aa73e07c259f7d0d862f203a2108dc73cf3b9",
    "A7_perm": "988ff1ccabdbb3e92ecdbc67776e59bf025054e02e4386ad57b912e26f958592",
    "A7_second": "ca866ac45af5963e4b610c1f27e6b59fc026899118758b6db14dbd3cef7373a6",
    "C3_4_A6": "eb60b4b7e2d20e9fe3d014bb86263ade0bfed24f1a89de04ea001d0703e1e868",
    "G1944": "9dbbe584147991f7c4c31148e861396fc32789f041546e21f778ee0f9a6dea13",
    "L2_11": "3ed3fd54948cd771434bc0cd8418399e48c6d03643fbb6ffcf6f836c34551075",
    "M10_first": "19f5e4ed135933623ee2282b11db6e05e2e4537784958ed35be1749f4255e9ed",
    "M10_second": "d281979adc808526ea56b5c462e2a99172ba62d422615b45022b8107db0454cf",
    "Q8_S3": "2b5655c0ff1324427ac34b26545295c5e1186e763e90f803f0063d6114647b83",
}


@pytest.mark.parametrize("key", sorted(FINGERPRINT_DIGESTS))
def test_fingerprint_output_is_pinned(capsys, key):
    code, out, _ = run_cli(capsys, "fingerprint", "--group", key)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == FINGERPRINT_DIGESTS[key]


def test_validate_catalog_single(capsys):
    code, out, _ = run_cli(capsys, "validate-catalog", "--group", "Q8_S3")
    assert code == EXIT_OK
    assert "Q8_S3: order 48, id (48,29) ok" in out


def test_unknown_group_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--group", "UNKNOWN"])
    assert exc.value.code == 2


def test_run_writes_nothing_to_disk(tmp_path):
    # fresh processes, so no in-process memo can hide a write
    env = {k: v for k, v in os.environ.items() if k != "FANOTERM_CACHE"}
    env["HOME"] = str(tmp_path)
    env["PYTHONPATH"] = str(pathlib.Path(fanoterm.__file__).resolve().parents[1])
    for args in (["table", "--group", "Q8_S3", "--mode", "full-group-only"],
                 ["validate-catalog", "--group", "Q8_S3"]):
        proc = subprocess.run([sys.executable, "-m", "fanoterm.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_output_does_not_depend_on_the_hash_seed():
    # cyclotomic values hash by identity, so only fresh processes with
    # different hash seeds can show output that follows hash order
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(fanoterm.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        runs = []
        for args in (["table", "--group", "Q8_S3", "--all-subgroups", "--format", "structured"],
                     ["detect-l3", "--group", "A3_5"]):
            proc = subprocess.run([sys.executable, "-m", "fanoterm.cli", *args],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == EXIT_OK, proc.stderr
            runs.append(proc.stdout)
        outputs.append(runs)
    assert outputs[0] == outputs[1]


def module_entry(args, **kwargs):
    """python -m fanoterm.cli: main through run, which flushes stdout and
    stderr and ends the process with os._exit."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fanoterm.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # buffered streams, whose writes a missing flush loses
    return subprocess.run([sys.executable, "-m", "fanoterm.cli", *args], env=env, **kwargs)


def in_process(capsys, args):
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out.encode(), out.err.encode()


@pytest.mark.parametrize("key, size", [("G1944", 65536), ("Q8_S3", 0)])
def test_module_entry_writes_what_main_writes(capsys, tmp_path, key, size):
    # G1944's 71 KB table passes a pipe's buffer; Q8_S3's stays in the
    # stream's buffer, so only run's flush before os._exit writes it
    args = ["table", "--group", key, "--all-subgroups", "--format", "structured"]
    want = in_process(capsys, args)
    assert want[0] == EXIT_OK and len(want[1]) > size
    proc = module_entry(args, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == want
    with open(tmp_path / "out", "wb") as out:
        proc = module_entry(args, stdout=out, stderr=subprocess.PIPE)
    assert (proc.returncode, (tmp_path / "out").read_bytes(), proc.stderr) == want


@pytest.mark.parametrize("args, code", [
    (["--help"], EXIT_OK),
    (["table", "--group", "G1944", "--format", "yaml"], EXIT_VALIDATION),
])
def test_module_entry_exits_as_argparse_does(capsys, monkeypatch, args, code):
    monkeypatch.setenv("COLUMNS", "80")  # the help text's width, in both processes
    want = in_process(capsys, args)
    assert want[0] == code
    proc = module_entry(args, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == want


@pytest.mark.parametrize("args", [
    ["table", "--group", "Q8_S3", "--all-subgroups"],  # raised by run's flush
    ["table", "--group", "G1944", "--all-subgroups", "--format", "structured"],  # by main's write
])
def test_module_entry_on_a_closed_stdout_exits_1_silently(args):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = module_entry(args, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, b"")


def test_console_script_and_module_entry_call_one_function():
    # pyproject.toml read as text: Python 3.10 has no tomllib
    pyproject = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip().startswith('fanoterm = "fanoterm.cli:')
    name = scripts.strip()[len('fanoterm = "fanoterm.cli:'):-1]
    tree = ast.parse(pathlib.Path(fanoterm.cli.__file__).read_text())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{name}()"]
    assert callable(getattr(fanoterm.cli, name))
