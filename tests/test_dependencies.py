"""pyproject.toml's runtime dependencies are exactly what ``src/fdsim`` imports, and
its ``test`` extra exactly what ``tests/`` imports beyond them."""
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


def _declared(requirements: list) -> set[str]:
    """The normalised distribution names of pyproject.toml requirements."""
    names = (re.match(r"[A-Za-z0-9_.-]+", req).group() for req in requirements)
    return {name.lower().replace("-", "_") for name in names}


def _imported(directory: Path) -> set[str]:
    imported = set()
    for path in sorted(directory.rglob("*.py")):
        imported |= _third_party_imports(path.read_text())
    return imported


def _project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]


def test_runtime_dependencies_are_what_the_package_imports():
    # a call-time import missing here, or a dependency nothing imports, fails
    assert _imported(ROOT / "src" / "fdsim") == _declared(_project()["dependencies"])


def test_the_test_extra_is_what_the_tests_import_beyond_the_runtime():
    # a new test import missing from the extra, or an extra nothing imports,
    # fails; the suite's own helper modules, such as beamforming, are no dependency
    project = _project()
    own = {path.stem for path in (ROOT / "tests").glob("*.py")}
    imported = _imported(ROOT / "tests") - own - _declared(project["dependencies"])
    assert imported == _declared(project["optional-dependencies"]["test"])
