"""Module boundaries of the package, read from its source.

No function imports anything, so the import graph is what the module
headers say.  No module uses another's underscore names: a name that
two modules share is public in its owner.  formats, which owns every
on-disk format, imports no other module of the package.
"""
import ast
import pathlib

import crossimpact

import mutants

SRC = pathlib.Path(crossimpact.__file__).parent


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _imports_package(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").startswith("crossimpact")
    return isinstance(node, ast.Import) and any(
        a.name.startswith("crossimpact") for a in node.names)


def boundary_faults(src):
    """One line per fault found in the package's modules under src."""
    faults = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:
                    siblings.update(a.asname or a.name for a in node.names)
                faults.update(f"{path.name}: from .{node.module} import "
                              f"{a.name}" for a in node.names
                              if node.module and _private(a.name))
            if path.name == "formats.py" and _imports_package(node):
                faults.add(f"formats.py: imports the package at line "
                           f"{node.lineno}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                faults.update(f"{path.name}: {node.name} imports at line "
                              f"{inner.lineno}" for inner in ast.walk(node)
                              if isinstance(inner, (ast.Import,
                                                    ast.ImportFrom)))
        faults.update(f"{path.name}: {node.value.id}.{node.attr}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in siblings and _private(node.attr))
    return sorted(faults)


def test_module_boundaries():
    assert boundary_faults(SRC) == []


def test_guard_finds_each_fault(tmp_path):
    (tmp_path / "formats.py").write_text("from . import hawkes\n")
    (tmp_path / "cli.py").write_text(
        "from . import observables\nfrom .hawkes import _read_csv\n\n"
        "def f():\n    import json\n    return observables._dumps\n")
    assert boundary_faults(tmp_path) == [
        "cli.py: f imports at line 5", "cli.py: from .hawkes import _read_csv",
        "cli.py: observables._dumps",
        "formats.py: imports the package at line 1"]


def test_mutant_anchors():
    # each mutant of the ledger still names a line of the package
    assert mutants.anchor_faults() == []
