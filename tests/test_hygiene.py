"""Source hygiene: no module of the package or of its tests imports a name
it never uses."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "dppd"
# __init__.py imports names only to re-export them; the acceptance gate is
# frozen as released
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(
    p for p in TESTS.glob("*.py") if p.name != "test_acceptance.py"
)


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    src = "import os\nfrom math import sqrt, pi\nprint(pi)\n"
    assert unused_imports(src) == [(1, "os"), (2, "sqrt")]


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}"
)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == [], module.name
