#!/usr/bin/env python
"""Unused-import lint for the ``repro`` package (stdlib ``ast`` only).

Walks every module under ``src/repro`` and reports each name an import
binds that the module never uses.  A name counts as used when it is
read anywhere in the module's code, appears in a string annotation
(``"Simulator"``, ``Optional["Process"]``), or is listed in
``__all__``.  Imports inside an ``if TYPE_CHECKING:`` block count as
used, and package ``__init__.py`` files are exempt: their imports are
re-exports.  Names that appear only in docstrings or comments do not
count.

Run from the repo root::

    python tools/check_imports.py
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _imports(tree):
    """Yield (name bound, line) for every import outside a
    ``TYPE_CHECKING`` block."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for sub in node.body:
                skip.update(id(n) for n in ast.walk(sub))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotation_names(node):
    """Names read by an annotation, string annotations included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                inner = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(inner)


def _used(tree):
    """Every name the module reads, annotates with, or exports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    used.update(_annotation_names(arg.annotation))
            if node.returns is not None:
                used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used.update(e.value for e in node.value.elts
                            if isinstance(e, ast.Constant))
    return used


def check(package=PACKAGE):
    """Return ``'path:line: name'`` for every unused import, sorted."""
    unused = []
    for dirpath, _dirs, files in sorted(os.walk(package)):
        for name in sorted(files):
            if not name.endswith(".py") or name == "__init__.py":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "r", encoding="utf-8") as fp:
                tree = ast.parse(fp.read(), filename=path)
            used = _used(tree)
            rel = os.path.relpath(path, ROOT)
            unused.extend(f"{rel}:{line}: {bound}"
                          for bound, line in _imports(tree)
                          if bound not in used)
    return unused


def main():
    """CLI entry point: print findings, exit non-zero on any."""
    unused = check()
    for ref in unused:
        print(f"unused import: {ref}")
    if unused:
        print(f"\n{len(unused)} unused imports")
        return 1
    print("imports: every import under src/repro is used")
    return 0


if __name__ == "__main__":
    sys.exit(main())
