"""`python -O` strips assert statements, so no correctness check in the
package may be one: the package must hold no `assert`."""

import ast
import pathlib

from loosegeo import cli


def test_package_holds_no_assert_statement():
    package = pathlib.Path(cli.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
