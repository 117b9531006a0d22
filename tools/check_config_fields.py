#!/usr/bin/env python
"""Unset-setting lint for the Dodo configuration (stdlib ``ast`` only).

Every field of :class:`repro.core.config.DodoConfig` and
:class:`repro.core.config.CacheConfig` must be passed as a keyword
argument somewhere under ``src/``, ``tests/``, ``benchmarks/`` or
``examples/``, outside ``core/config.py`` itself (``DodoConfig(shards=2)``,
``replace(cfg, placement="most-free")``, ``dict(rpc_backoff_s=0.02)``).
A field nobody sets is a constant dressed as a setting: make it a named
constant in ``core/config.py`` instead.

Run from the repo root::

    python tools/check_config_fields.py
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "src", "repro", "core", "config.py")
CLASSES = ("DodoConfig", "CacheConfig")
SEARCHED = ("src", "tests", "benchmarks", "examples")


def _parse(path):
    with open(path, "r", encoding="utf-8") as fp:
        return ast.parse(fp.read(), filename=path)


def fields():
    """``(class, field)`` for every annotated field of the checked
    classes, in declaration order."""
    found = []
    for node in _parse(CONFIG).body:
        if isinstance(node, ast.ClassDef) and node.name in CLASSES:
            found.extend((node.name, stmt.target.id) for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign)
                         and isinstance(stmt.target, ast.Name))
    return found


def keywords():
    """Every keyword-argument name passed in a call under the searched
    directories, the config module excepted."""
    names = set()
    for top in SEARCHED:
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                if name.endswith(".py") and path != CONFIG:
                    names.update(kw.arg for node in ast.walk(_parse(path))
                                 if isinstance(node, ast.Call)
                                 for kw in node.keywords if kw.arg)
    return names


def check():
    """Return ``'Class.field'`` for every field nothing sets, in
    declaration order."""
    passed = keywords()
    return [f"{cls}.{name}" for cls, name in fields() if name not in passed]


def main():
    """CLI entry point: print findings, exit non-zero on any."""
    unset = check()
    for ref in unset:
        print(f"never set: {ref}")
    if unset:
        print(f"\n{len(unset)} config fields no caller sets; make each "
              "a constant in core/config.py")
        return 1
    print("config fields: every DodoConfig and CacheConfig field is set "
          "somewhere")
    return 0


if __name__ == "__main__":
    sys.exit(main())
