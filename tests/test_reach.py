"""Reach gate: every function and class of the package is used by the package
or imported by the acceptance gate.

Scans ``src/chowla`` with ``ast``.  A def counts as reached when its name
appears as a name or an attribute somewhere in the package outside the def
itself, ``__init__.py`` (the re-exports) excluded, or when
``tests/test_acceptance.py`` imports it.  Dunder methods are skipped: the
language calls them.

The package root re-exports only names that ``src/chowla/cli.py`` imports,
or that the acceptance gate, ``perfbench/*.py`` or ``scripts/*.py`` import
from ``chowla`` or read off it; everything else is imported from its module.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chowla"
GATE = ROOT / "tests" / "test_acceptance.py"
ROOT_USERS = [GATE, *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]

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


def names_from_root(path: Path) -> set[str]:
    """The names a file imports from ``chowla`` or reads off it as
    ``chowla.name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module == "chowla" and not n.level:
            out |= {alias.name for alias in n.names}
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "chowla":
            out.add(n.attr)
    return out


def unused_exports(package: Path, cli: Path, users: list[Path]) -> list[str]:
    """The package root's re-exports that the CLI does not import and no
    user file takes from the root, sorted."""
    used = imported_names(cli).union(*(names_from_root(p) for p in users))
    return sorted(imported_names(package / "__init__.py") - used)


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


def test_every_root_export_is_used():
    assert (ROOT / "perfbench" / "child.py").is_file()
    assert unused_exports(PACKAGE, PACKAGE / "cli.py", ROOT_USERS) == []


def test_root_export_scan_on_a_probe(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import by_cli, gated, read, planted\n")
    (tmp_path / "cli.py").write_text("from .a import by_cli\n")
    (tmp_path / "gate.py").write_text("from chowla import gated\nfrom chowla.a import planted\n")
    (tmp_path / "bench.py").write_text("import chowla\nchowla.read()\nchowla.a.planted()\n")
    users = [tmp_path / "gate.py", tmp_path / "bench.py"]
    assert unused_exports(tmp_path, tmp_path / "cli.py", users) == ["planted"]
    assert unused_exports(tmp_path, tmp_path / "cli.py", users[:1]) == ["planted", "read"]
