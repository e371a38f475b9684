"""Source hygiene: no module of the package or of its tests imports a name
it never uses, no module of the package keeps a private helper that the
package never uses, every public name of a package module is read by the
package or by the acceptance gate, every name the benchmark harness
reads or hooks on a package module exists, the package, its tests and
demos parse as Python 3.10, the oldest version the package supports, and
the CI workflow checks the acceptance gate against the gate's own sha256."""

import ast
import hashlib
import importlib
import pathlib
import re
from collections import Counter

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "dppd"
PERFBENCH = TESTS.parent / "perfbench"
DEMOS = TESTS.parent / "demos"
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


def _names(tree):
    """Every name a tree reads: bare names, attributes and imported names."""
    kinds = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return Counter(
        getattr(n, kinds[type(n)]) for n in ast.walk(tree) if type(n) in kinds
    )


def dead_private_helpers(sources):
    """(module, name) of each module-level private function or class that no
    module reads outside the helper's own definition."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = sum((_names(t) for t in trees.values()), Counter())
    return sorted(
        (mod, node.name)
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and used[node.name] == _names(node)[node.name]
    )


def test_scan_finds_a_dead_private_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    return _dead()\n\n"
        "class _Lone:\n    pass\n\ndef __dunder__():\n    pass\n",
        "b.py": "from a import _used\n_used()\n",
    }
    assert dead_private_helpers(sources) == [("a.py", "_Lone"), ("a.py", "_dead")]


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert dead_private_helpers(sources) == []


def _public(tree):
    """The names listed in a module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _defines(node, name):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in node.targets
    )


def unread_public_names(sources, readers=()):
    """(module, name) of each name in a module's __all__ that neither a
    module of sources (outside the name's own definition) nor a reader
    source reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = sum((_names(ast.parse(src)) for src in readers), Counter())
    used += sum((_names(t) for t in trees.values()), Counter())
    return sorted(
        (mod, name)
        for mod, tree in trees.items()
        for name in _public(tree)
        if used[name]
        == sum((_names(node)[name] for node in tree.body if _defines(node, name)), 0)
    )


def test_scan_finds_an_unread_public_name():
    sources = {
        "a.py": "__all__ = ['read', 'unread', 'LONE', 'gated']\n"
        "def read():\n    pass\n\ndef unread():\n    return unread()\n\n"
        "LONE = 1\n\ndef gated():\n    pass\n",
        "b.py": "from a import read\n",
    }
    readers = ("from a import gated\n",)
    assert unread_public_names(sources, readers) == [("a.py", "LONE"), ("a.py", "unread")]


def test_every_public_name_is_read():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    readers = ((TESTS / "test_acceptance.py").read_text(),)
    assert unread_public_names(sources, readers) == []


def module_reads(source):
    """(module, attr) of each `<module>.<attr>` read in source on a module
    that it imports from dppd by name."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "dppd"
        for alias in node.names
    }
    return sorted({
        (n.value.id, n.attr)
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules
    })


def test_scan_finds_the_module_reads():
    src = "from dppd import solver, graphs as g\nimport os\nsolver.run(g.mix(os.sep).x)\n"
    assert module_reads(src) == [("g", "mix"), ("solver", "run")]


def _hooks(source):
    """(module, attr) of each name that the tracing hooks swap: every module
    listed for a "<module>.<attr>" key of HOOKS or COUNTED."""
    tables = {
        t.id: ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name) and t.id in ("HOOKS", "COUNTED")
    }
    assert set(tables) == {"HOOKS", "COUNTED"}
    return sorted({
        (mod, key.split(".")[1]) for table in tables.values() for key, mods in table.items() for mod in mods
    })


def test_every_name_the_benchmark_reads_exists():
    # the benchmark calls the package through its module objects and hooks
    # its functions by name in each module that calls them; a name that is
    # gone fails only in the benchmark's own runs
    reads = module_reads((PERFBENCH / "workloads.py").read_text())
    assert ("baseline", "csp_sg_round") in reads and ("proxops", "prox_solve") in reads
    reads += _hooks((PERFBENCH / "tracing.py").read_text())
    missing = [
        (mod, attr) for mod, attr in reads if not hasattr(importlib.import_module(f"dppd.{mod}"), attr)
    ]
    assert missing == []


def syntax_newer_than_3_10(source):
    """The SyntaxError that the 3.10 grammar raises on source, or None."""
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError as exc:
        return exc
    return None


def test_scan_finds_syntax_newer_than_3_10():
    assert syntax_newer_than_3_10("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert syntax_newer_than_3_10("def first[T](xs: list[T]) -> T:\n    return xs[0]\n")
    assert syntax_newer_than_3_10("match x:\n    case 1:\n        pass\n") is None


def test_every_module_parses_as_python_3_10():
    # CI runs Python 3.10 as well as a newer interpreter, which would accept
    # syntax that 3.10 refuses
    paths = sorted(p for d in (SRC, TESTS, DEMOS) for p in d.rglob("*.py"))
    assert {p.parent for p in paths} >= {SRC, TESTS, DEMOS}
    newer = [(p.name, str(exc)) for p in paths if (exc := syntax_newer_than_3_10(p.read_text()))]
    assert newer == []


def test_the_workflow_checks_the_gate_against_its_sha256():
    # the workflow holds the frozen gate's checksum; a checksum that no
    # longer matches the file would fail only in CI.  The workflow is read
    # as text, since CI does not install a YAML parser
    workflow = (TESTS.parent / ".github" / "workflows" / "tests.yml").read_text()
    sums = re.findall(r"\b([0-9a-f]{64})  tests/test_acceptance\.py\b", workflow)
    assert sums == [hashlib.sha256((TESTS / "test_acceptance.py").read_bytes()).hexdigest()]
