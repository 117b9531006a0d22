"""Source hygiene: docstring coverage, unused imports, markdown links,
config fields nobody sets.

These mirror the CI ``docs`` job so a regression fails locally first.
The linters live in ``tools/`` and are plain scripts; the tests import
them by path so no packaging is needed.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    path = os.path.join(ROOT, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_api_has_a_docstring():
    missing, stale = _load("check_docstrings").check()
    assert missing == [], f"undocumented public APIs: {missing}"
    assert stale == [], f"stale allowlist entries: {stale}"


def test_no_unused_imports():
    unused = _load("check_imports").check()
    assert unused == [], "unused imports:\n" + "\n".join(unused)


def test_markdown_links_resolve():
    broken = _load("check_links").check()
    assert broken == [], "\n".join(broken)


def test_every_config_field_is_set_somewhere():
    unset = _load("check_config_fields").check()
    assert unset == [], f"config fields no caller sets: {unset}"


def test_api_doc_covers_new_subsystems():
    api = open(os.path.join(ROOT, "docs", "API.md")).read()
    for needle in ("repro.faults", "repro.sweep", "obs.timeseries",
                   "net.bulk"):
        assert needle in api, f"docs/API.md missing section for {needle}"


def test_experiments_doc_mentions_sweep_commands():
    text = open(os.path.join(ROOT, "EXPERIMENTS.md")).read()
    assert "repro sweep" in text

