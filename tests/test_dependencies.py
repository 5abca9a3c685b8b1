"""pyproject.toml's runtime dependencies are exactly what ``src/fdsim`` imports."""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports(source: str) -> set[str]:
    """Top-level modules that absolute imports anywhere in source name, the
    standard library's and fdsim's own left out."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"fdsim"}


def test_the_walk_finds_imports_inside_functions():
    source = "import math\nfrom . import stats\ndef f():\n    from scipy import special\n"
    assert _third_party_imports(source) == {"scipy"}


def test_runtime_dependencies_are_what_the_package_imports():
    # a call-time import missing here, or a dependency nothing imports, fails
    with open(ROOT / "pyproject.toml", "rb") as f:
        listed = tomllib.load(f)["project"]["dependencies"]
    names = (re.match(r"[A-Za-z0-9_.-]+", req).group() for req in listed)
    declared = {name.lower().replace("-", "_") for name in names}
    imported = set()
    for path in sorted((ROOT / "src" / "fdsim").rglob("*.py")):
        imported |= _third_party_imports(path.read_text())
    assert imported == declared
