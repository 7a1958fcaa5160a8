"""Every public name of the package is used by the package itself.

A public top-level def, class or constant of ``src/geohom/*.py`` must be
read by some module of the package other than ``__init__.py`` (its own
module counts, but not its own body), or be on the allow-list below.
Uses are found with ``ast``: name loads, ``from`` imports, and attribute
reads on a module imported as ``from . import x as y``.  A name that only
tests call is dead code to the program.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geohom"

# references that tests compare the program against, or documented API
ALLOWED = {
    "graph_core.graph_isomorphism": "the reference canonical_label is tested against",
    "graph_core.two_colored_isomorphism": "the reference canonical_two_colored_label is tested against",
    "morphisms.is_geo_homomorphism": "the definition the brute-force oracle is tested against",
    "morphisms.injective_geo_homomorphisms": "package API: witness_images as VertexMaps",
    "realization.realization_from_json": "reads the documented realization text format",
}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Public top-level defs, classes and assigned constants, by name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out.update((name, node) for name in names if not name.startswith("_"))
    return out


def _uses(module: str, tree: ast.Module, defined: dict[str, ast.AST]) -> set[str]:
    """Qualified names (module.name) that this module reads, outside the
    body of the definition that binds them."""
    aliases = {}  # local name -> package module, for `from . import x as y`
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in defined and node.id != own:
                    found.add(f"{module}.{node.id}")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                found.add(f"{aliases[node.value.id]}.{node.attr}")
    return found


def unused_public_names() -> list[str]:
    modules = _modules()
    defined = {name: _definitions(tree) for name, tree in modules.items()}
    used = set()
    for name, tree in modules.items():
        used |= _uses(name, tree, defined[name])
    return sorted(
        f"{module}.{name}"
        for module, names in defined.items()
        for name in names
        if f"{module}.{name}" not in used and f"{module}.{name}" not in ALLOWED
    )


def test_every_public_name_is_used_by_the_package():
    assert unused_public_names() == []


def test_allow_list_names_exist():
    # an entry for a deleted name would hide nothing, but it would rot
    modules = _modules()
    for qualified in ALLOWED:
        module, name = qualified.split(".")
        assert name in _definitions(modules[module]), qualified
