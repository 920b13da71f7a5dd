"""Lint gate: every name a module imports is used in that module.

Scans the package, the tests and the benchmark harness with ``ast``.
Skipped: ``from __future__`` imports, the relative re-exports of a
package ``__init__.py``, names listed in ``__all__``, and import lines
marked ``# noqa`` (an import kept for its side effect).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "perfbench")


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name imported in the module and never used."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa" in lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.ImportFrom) and (
                node.module == "__future__" or (node.level and path.name == "__init__.py")
            ):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    modules = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    assert ROOT / "src" / "chowla" / "vaughan.py" in modules
    assert ROOT / "perfbench" / "run.py" in modules
    offenders = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in modules
        for line, name in unused_imports(path)
    ]
    assert offenders == []


def test_unused_import_scan_on_a_probe(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "import xml.dom\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "print(pi, xml.dom)\n"
    )
    assert unused_imports(probe) == [(2, "os")]
