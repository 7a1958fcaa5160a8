"""The runtime code imports nothing outside the standard library.

Every absolute import in ``src/geohom/*.py``, at any depth (inside a
function too), must name a top-level module in ``sys.stdlib_module_names``;
relative imports stay inside the package.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geohom"


def third_party_imports(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offending = {
        path.name: names
        for path in modules
        if (names := third_party_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offending == {}


def test_a_third_party_import_is_found():
    tree = ast.parse("import json\nfrom . import atlas\ndef f():\n    from hypothesis import given\n")
    assert third_party_imports(tree) == ["hypothesis"]
