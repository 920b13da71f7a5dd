"""The benchmark traces the package by name: every span it lists must exist.

Reads ``SPANS`` from ``perfbench/spans.py`` with ``ast``, without importing
the harness, so a renamed or deleted traced function fails here.
"""

import ast
import importlib
from pathlib import Path

from chowla.ideal_arith import CubicField

SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans() -> tuple:
    tree = ast.parse(SPANS_FILE.read_text(encoding="utf-8"), filename=str(SPANS_FILE))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no SPANS")


def test_every_traced_span_resolves():
    spans = _spans()
    assert ("polymod", "roots_mod_p") in spans
    for mod_name, fn_name in spans:
        module = importlib.import_module(f"chowla.{mod_name}")
        # install() wraps row_extent on the class, the rest on the module
        owner = module.ConvexRegion if fn_name == "row_extent" else module
        assert callable(getattr(owner, fn_name, None)), (mod_name, fn_name)
    # install()'s two counters read these
    assert callable(importlib.import_module("chowla.factor_sieve")._make_spec)
    assert "_factor_cache" in CubicField.__slots__
