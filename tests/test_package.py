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
