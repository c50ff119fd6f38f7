"""Rules on the package source itself.

``src/su11`` runs on numpy alone: the test-only packages (scipy, mpmath,
hypothesis, pytest, pytest-benchmark) and the test helpers stay out of it, so
an installed su11 never needs them and no cross-check leaks into production.
Importing the package and its CLI loads no numpy, and neither does any
closed form but `qfi_lossy`: numpy, the series engine, the oracle and
`verify` load on first use.  The records are NamedTuples, so no module
imports `dataclasses` (and with it `inspect`), and only `su11 sweep` loads
`configparser`.
The power-series engine `su11.series` holds only the QFI's X-family
polynomials in production: only `model` imports it, so replacing it touches
no other module.  No module imports an underscore name of another: what one
module needs of another is its public surface.  The Fock oracle imports from
`su11` only `errors` and `model`, so it can never reach the closed-form
algebra it cross-checks.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "su11").glob("*.py"))
# top-level names; the test helpers import as ``references`` from tests/
FORBIDDEN = {"scipy", "mpmath", "hypothesis", "pytest", "pytest_benchmark", "tests", "references"}
SERIES_IMPORTERS = {"model.py"}
FOCK_IMPORTS = {"errors", "model"}
# numpy and the modules that need it, loaded on first use only
LAZY_MODULES = ("numpy", "su11.series", "su11.fock", "su11.verify")
# standard-library modules that no analytic path loads
UNLOADED_STDLIB = ("dataclasses", "inspect", "configparser")
# in a fresh interpreter: every numpy-free calculator once and two analytic
# figure jobs, then qfi_lossy; prints which of argv's modules each left loaded
COLD_START = """
import sys
import su11, su11.cli, su11.sweeps
from su11 import (Params, cq_alpha, internal_photon_number, optimal_phase, qfi_ideal, qfi_lossy,
                  sensitivity_ideal, sensitivity_lossy)
from su11.limits import limits
from su11.sweeps import FigureJob, run_figure

def loaded():
    print(" ".join(name for name in sys.argv[1:] if name in sys.modules))

p = Params(g=1.0, beta=1.0, phi=0.4, m=2, T1=0.8, T2=0.9, eta=0.7)
sensitivity_ideal(p)
sensitivity_lossy(p)
optimal_phase(p, (0.0, 3.1))
qfi_ideal(p)
cq_alpha(p, -0.5)
limits(p)
internal_photon_number(p)
for fid in ("fig5", "fig12"):
    run_figure(FigureJob(fid))
loaded()
qfi_lossy(p)
loaded()
"""


def imported_modules(tree: ast.AST):
    """(line, top-level module name) of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module.split(".")[0]


def imports_series(tree: ast.AST) -> bool:
    """Whether ``tree`` imports `su11.series` in any form, absolute or package-relative."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("su11." if node.level else "") + (node.module or "")
            names = [base.rstrip(".")] + [f"{base.rstrip('.')}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == "su11.series" or n.startswith("su11.series.") for n in names):
            return True
    return False

def su11_modules(tree: ast.AST):
    """(line, module) of every `su11` module that ``tree`` imports from, absolute or package-relative.

    ``from su11 import x`` and ``from . import x`` name the module x; the
    package itself counts as "su11".
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "su11":
                    yield node.lineno, ".".join(alias.name.split(".")[1:2]) or "su11"
        elif isinstance(node, ast.ImportFrom):
            module = (("su11." if node.level else "") + (node.module or "")).rstrip(".")
            if module == "su11":
                for alias in node.names:
                    yield node.lineno, alias.name
            elif module.startswith("su11."):
                yield node.lineno, module.split(".")[1]


def private_imports(tree: ast.AST):
    """(line, module, name) of every underscore name imported from `su11` or one of its modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (("su11." if node.level else "") + (node.module or "")).rstrip(".")
            if module == "su11" or module.startswith("su11."):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        yield node.lineno, module, alias.name


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


def test_only_model_imports_the_series_engine():
    importers = {p.name for p in SOURCES if imports_series(ast.parse(p.read_text()))}
    assert importers == SERIES_IMPORTERS


@pytest.mark.parametrize("source", [
    "import su11.series", "from su11 import series", "from su11.series import CDual",
    "from .series import CDual", "from . import series", "def f():\n    import su11.series",
])
def test_the_fan_in_rule_sees_every_import_form(source):
    assert imports_series(ast.parse(source))


def test_the_fan_in_rule_ignores_other_modules():
    assert not imports_series(ast.parse("import su11\nfrom su11.errors import finite\n"
                                        "from su11.model import Params\nimport series"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{line} imports {name} from {module}" for line, module, name in private_imports(tree)]
    assert not bad, "; ".join(bad)


@pytest.mark.parametrize("source", [
    "from su11.qfi import _cq_from", "from su11.qfi import qcrb, _minimum", "from .model import _fringe",
    "from . import _x", "def f():\n    from su11.model import _log_power",
])
def test_the_private_import_rule_sees_every_form(source):
    assert len(list(private_imports(ast.parse(source)))) == 1


def test_the_private_import_rule_ignores_public_and_foreign_names():
    assert not list(private_imports(ast.parse("from __future__ import annotations\nimport su11._x\n"
                                              "from su11.qfi import cq_alpha\nfrom os import _exit\n")))


def test_the_oracle_imports_only_errors_and_model():
    path = ROOT / "src" / "su11" / "fock.py"
    imported = {name for _, name in su11_modules(ast.parse(path.read_text()))}
    assert imported and imported <= FOCK_IMPORTS, sorted(imported - FOCK_IMPORTS)


@pytest.mark.parametrize("source, module", [
    ("import su11.qfi", "qfi"), ("from su11 import sensitivity", "sensitivity"),
    ("from su11.limits import limits", "limits"), ("from .series import CDual", "series"),
    ("from . import sweeps", "sweeps"), ("import su11", "su11"),
    ("def f():\n    from su11.qfi import qfi_ideal", "qfi"),
])
def test_the_oracle_import_rule_sees_every_form(source, module):
    assert [name for _, name in su11_modules(ast.parse(source))] == [module]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{line}" for line, name in imported_modules(tree) if name == "dataclasses"]
    assert not bad, "; ".join(bad)


@pytest.mark.parametrize("source", [
    "import dataclasses", "import dataclasses as dc", "import os, dataclasses",
    "from dataclasses import dataclass", "from dataclasses import dataclass as record, replace",
    "def f():\n    from dataclasses import replace", "class A:\n    import dataclasses",
])
def test_the_dataclasses_rule_sees_every_import_form(source):
    assert "dataclasses" in [name for _, name in imported_modules(ast.parse(source))]


def test_the_closed_forms_load_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", COLD_START, *LAZY_MODULES, *UNLOADED_STDLIB],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    closed_forms, lossy_qfi = run.stdout.split("\n")[:2]
    assert closed_forms == ""
    # the series engine of qfi_lossy still loads numpy, so the probe sees an import;
    # what numpy itself loads of the standard library is numpy's affair
    assert [name for name in lossy_qfi.split() if name in LAZY_MODULES] == ["numpy", "su11.series"]
