"""The package exports only what resolves and what the package itself uses.

A name in ``curvemax.__all__`` must be read, by name, attribute or import,
somewhere in the package's modules beyond the export list in ``__init__``;
its own definition does not count.  An export that only its own tests call
is dead weight; library-only API is listed below with the reason it stays.
"""

import ast
from pathlib import Path

import curvemax

LIBRARY_ONLY = (
    # maps a general diagonal curve onto the moment curve the operators use
    "gamma_reduce",
    # the Poisson maximal function itself; split_check uses its averages
    "poisson_max",
)

PACKAGE = Path(curvemax.__file__).parent


def _referenced(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _package_references() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            names |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    return names


def test_every_export_resolves():
    missing = [name for name in curvemax.__all__
               if not hasattr(curvemax, name)]
    assert not missing


def test_every_export_is_used_by_another_module():
    used = _package_references()
    unused = [name for name in curvemax.__all__
              if name not in used and name not in LIBRARY_ONLY]
    assert not unused, f"exported but used by no other module: {unused}"


def test_library_only_names_are_exported_and_unused():
    # an exemption the package has come to use, or no longer exports, is stale
    assert set(LIBRARY_ONLY) <= set(curvemax.__all__)
    assert not set(LIBRARY_ONLY) & _package_references()
