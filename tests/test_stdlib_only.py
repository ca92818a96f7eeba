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


def _modules_after(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code + "; import sys; print(*sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_import_loads_no_costly_module():
    # dataclasses pulls in inspect, ast, dis and tokenize; csv is loaded by
    # the csv renderers only
    bare = _modules_after("pass")
    cli = _modules_after("import fanoterm.cli")
    assert "fanoterm.cli" in cli
    assert {"dataclasses", "inspect", "ast", "csv"} & (cli - bare) == set()
