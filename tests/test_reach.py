"""Reach gate: every function and class of the package is used by the package
or imported by the acceptance gate.

Scans ``src/chowla`` with ``ast``.  A def counts as reached when its name
appears as a name or an attribute somewhere in the package outside the def
itself, ``__init__.py`` (the re-exports) excluded, or when
``tests/test_acceptance.py`` imports it.  Dunder methods are skipped: the
language calls them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chowla"
GATE = ROOT / "tests" / "test_acceptance.py"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> Counter:
    """How often each name is read or written, as a name or an attribute."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


def imported_names(path: Path) -> set[str]:
    """The names a module imports from other modules."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {
        alias.name
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom)
        for alias in n.names
    }


def unreached(package: Path, gate_imports: set[str]) -> list[str]:
    """``module:name`` of each def named nowhere outside itself, sorted."""
    trees = {
        p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in sorted(package.rglob("*.py"))
        if p.name != "__init__.py"
    }
    used = sum((_names(t) for t in trees.values()), Counter())
    out = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, _DEFS) or node.name in gate_imports:
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if used[node.name] - _names(node)[node.name] <= 0:
                out.append(f"{path.stem}:{node.name}")
    return sorted(out)


def test_every_def_is_reached():
    assert (PACKAGE / "vaughan.py").is_file()
    assert unreached(PACKAGE, imported_names(GATE)) == []


def test_reach_scan_on_a_probe(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import planted, used, gated\n")
    (tmp_path / "a.py").write_text(
        "def used():\n"
        "    return 1\n"
        "def gated():\n"
        "    return gated()\n"
        "def planted(n):\n"
        "    return planted(n - 1) if n else 0\n"
        "class Box:\n"
        "    def __repr__(self):\n"
        "        return 'box'\n"
        "    def size(self):\n"
        "        return 0\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\nx = used() + Box().size()\n")
    assert unreached(tmp_path, {"gated"}) == ["a:planted"]
    assert unreached(tmp_path, set()) == ["a:gated", "a:planted"]
