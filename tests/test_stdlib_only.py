import ast
import os
import pathlib
import subprocess
import sys

import fanoterm

SRC = pathlib.Path(fanoterm.__file__).resolve().parent


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "fanoterm" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.relative_to(SRC)}: {name}")
    assert outside == []


def _modules_after(code: str, *flags: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, *flags, "-c", code + "; import sys; print(*sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_import_loads_no_costly_module():
    # dataclasses pulls in inspect, ast, dis and tokenize; csv is loaded by
    # the csv renderers only
    bare = _modules_after("pass")
    cli = _modules_after("import fanoterm.cli")
    assert "fanoterm.cli" in cli
    assert {"dataclasses", "inspect", "ast", "csv"} & (cli - bare) == set()


def test_cli_import_loads_no_module_only_some_commands_run():
    # -S: no site hook preloads a module, so the set is what fanoterm imports;
    # fractions (and through it decimal) is imported by check-deformation
    # only, and package data are read as plain files
    lazy = {"fractions", "decimal", "importlib.resources",
            "fanoterm.deform", "fanoterm.cosets", "fanoterm.targeted"}
    cli = _modules_after("import fanoterm.cli", "-S")
    assert "fanoterm.cli" in cli and lazy & cli == set()


def _modules_after_main(*argv: str) -> set[str]:
    # the command's own output goes to stdout too: no line of it names a module
    return _modules_after(f"import fanoterm.cli; fanoterm.cli.main({list(argv)!r})", "-S")


def test_each_command_imports_what_it_runs():
    # A3_5 is read off its residues and Q8_S3 closed as exact cosets
    read_off = _modules_after_main("table", "--group", "A3_5", "--mode", "full-group-only")
    assert "fanoterm.invariants" in read_off
    assert {"fanoterm.cosets", "fanoterm.targeted", "fanoterm.deform", "fractions"} & read_off == set()
    assert "fanoterm.cosets" in _modules_after_main("table", "--group", "Q8_S3",
                                                    "--mode", "full-group-only")
    assert "fanoterm.targeted" in _modules_after_main("table", "--group", "A3_5",
                                                      "--mode", "targeted", "--subgroup", "g1")
    assert "fanoterm.deform" in _modules_after_main("check-deformation")
