import ast
import pathlib
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
