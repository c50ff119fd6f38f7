"""Rules on the package source itself.

``src/su11`` runs on numpy alone: the test-only packages (scipy, mpmath,
hypothesis, pytest, pytest-benchmark) and the test helpers stay out of it, so
an installed su11 never needs them and no cross-check leaks into production.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "su11").glob("*.py"))
# top-level names; the test helpers import as ``references`` from tests/
FORBIDDEN = {"scipy", "mpmath", "hypothesis", "pytest", "pytest_benchmark", "tests", "references"}


def imported_modules(tree: ast.AST):
    """(line, top-level module name) of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module.split(".")[0]


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"model.py", "sensitivity.py", "qfi.py", "limits.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_imports_no_test_only_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{line} imports {name}" for line, name in imported_modules(tree)
           if name in FORBIDDEN]
    assert not bad, "; ".join(bad)


def test_the_rule_sees_nested_and_from_imports():
    tree = ast.parse("def f():\n    import scipy.special\nfrom mpmath import mp\nfrom .series import CDual\n")
    assert sorted(name for _, name in imported_modules(tree)) == ["mpmath", "scipy"]


def test_test_only_packages_are_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.split(r"[\s<>=!~;\[]", dep)[0].replace("-", "_") for dep in project["dependencies"]}
    assert not names & FORBIDDEN
