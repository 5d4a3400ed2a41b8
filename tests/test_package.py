import ast
import sys
from pathlib import Path

import haarshift

# namedtuple's own API, documented with a leading underscore
NAMEDTUPLE_API = {"_asdict", "_replace", "_make", "_fields", "_field_defaults"}


def test_exports_listed_once_and_resolve():
    assert len(haarshift.__all__) == len(set(haarshift.__all__))
    assert all(hasattr(haarshift, name) for name in haarshift.__all__)


def private(name: str) -> bool:
    """Whether `name` has a leading underscore and is no dunder."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[str]:
    """Each read of an underscore attribute through an object other than
    self or cls, and each underscore name imported from a module of the
    package (from .solver import _cubic), as 'line: expression', in one
    module's source; dunders, the standard library's modules (os._exit)
    and namedtuple's API (`NAMEDTUPLE_API`) are allowed."""
    tree = ast.parse(source)
    stdlib = {"self", "cls"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            stdlib |= {
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if alias.name.split(".")[0] in sys.stdlib_module_names
            }
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and private(node.attr)
        and node.attr not in NAMEDTUPLE_API
        and not (isinstance(node.value, ast.Name) and node.value.id in stdlib)
    ] + [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level > 0
        and any(private(alias.name) for alias in node.names)
    ]


def test_private_names_stay_inside_their_class_or_module():
    """No module of the package reads another object's private attribute:
    a table's private cubic, say, is read only by the table itself."""
    package = Path(haarshift.__file__).parent
    found = {
        path.name: reads
        for path in sorted(package.glob("*.py"))
        if (reads := private_reads(path.read_text()))
    }
    assert found == {}


def test_private_read_check_flags_what_it_should():
    source = (
        "import os\nimport numpy as np\n"
        "def f(table, level, self):\n"
        "    os._exit(0)\n    level._asdict()\n    self._cells\n    np.__version__\n"
        "    table._cubic(1)\n    level.record._cells = 0\n"
        "from .solver import CoefficientTable, _cubic\nfrom . import __version__\n"
        "from os import _exit\n"
    )
    assert private_reads(source) == [
        "8: table._cubic", "10: from .solver import CoefficientTable, _cubic"
    ]


def test_readme_names_the_current_stream():
    """README's list of draw streams names `dyadic.STREAM_VERSION`, so a
    bump of the draw order cannot skip the docs."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert f"Stream {haarshift.STREAM_VERSION} " in readme
