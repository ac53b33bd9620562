import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_package_path_has_one_entry_with_src_listed_twice():
    # a namespace package would list its directory once per sys.path entry
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[1]]; import loosegeo; "
        "print(list(loosegeo.__path__))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, cwd=SRC.parent).stdout
    assert out.strip() == repr([str(SRC / "loosegeo")])


def test_package_imports_only_the_standard_library():
    # loosegeo has no runtime dependencies: every import names a module of
    # the standard library or the package itself (relative imports included)
    for path in sorted((SRC / "loosegeo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["loosegeo" if node.level else node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "loosegeo", (path.name, name)
