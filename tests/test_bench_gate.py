"""Gate-mutation tests for the checked-in benchmark baselines.

No simulation runs here.  Each case copies one ``benchmarks/BENCH_*.json``
baseline, applies one mutation, and asks the bench gate for its verdict:
every baseline passes against itself, and each mutation fails with a
line that names what broke.  Three families:

* regressions — a fresh document against the untouched baseline: one
  exact field changed, or one tolerance or kernel-normalized wall field
  pushed 31% past its baseline (the tolerance is 30%);
* absolute checks — the same mutation in both documents, so only a
  floor, a budget or a claim can trip;
* schema — one document on its own: a field deleted or mistyped, a
  reversed series, an inconsistent claim block.

The lists below spell out every exact field, tolerance, direction,
floor, budget and claim the gate enforces, so a gate that silently
drops one fails here.
"""

import copy
import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAMES = ("primitives", "scaling", "serving", "cache")


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", os.path.join(ROOT, "benchmarks", "gate.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it by name
    spec.loader.exec_module(module)
    return module


_gate = _load_gate()


def gate_failures(name, doc, baseline):
    """What ``--check`` reports for a fresh ``doc`` against ``baseline``."""
    return _gate.gate(name, doc, baseline)


def schema_problems(name, doc):
    """What the stdlib-only ``--schema`` check reports for one document."""
    return _gate.standalone(name, doc, f"BENCH_{name}.json")


#: the stdlib-only schema check as CI runs it, on the default baselines
SCHEMA_COMMAND = [sys.executable, "-I", "-S",
                  os.path.join(ROOT, "benchmarks", "gate.py"), "--schema"]


def baseline(name):
    with open(os.path.join(ROOT, "benchmarks", f"BENCH_{name}.json")) as f:
        return json.load(f)


# -- mutations ----------------------------------------------------------------

def _parent(doc, path):
    for step in path[:-1]:
        doc = doc[step]
    return doc, path[-1]


def scale(*path, by):
    """Multiply one number (an integer rounds up, away from baseline)."""
    def mutate(doc):
        obj, key = _parent(doc, path)
        value = obj[key] * by
        obj[key] = math.ceil(value) if isinstance(obj[key], int) else value
    return mutate


def nudge(*path):
    """Change one field by the smallest step that keeps its type."""
    def mutate(doc):
        obj, key = _parent(doc, path)
        value = obj[key]
        obj[key] = value + 1 if isinstance(value, int) else value * 0.999
    return mutate


def put(*path, value):
    def mutate(doc):
        obj, key = _parent(doc, path)
        obj[key] = value(doc) if callable(value) else value
    return mutate


def delete(*path):
    def mutate(doc):
        obj, key = _parent(doc, path)
        del obj[key]
    return mutate


def reverse(key):
    def mutate(doc):
        doc[key].reverse()
    return mutate


def _case(name, mutate, *tokens):
    return pytest.param(name, mutate, tokens,
                        id=f"{name}-{'-'.join(tokens)}")


def _assert_named(failures, tokens):
    assert failures, "the mutation passed the gate"
    assert any(all(t in line for t in tokens) for line in failures), \
        f"no failure line names {tokens}: {failures}"


# -- every baseline passes ----------------------------------------------------

def test_bench_baselines_pass_schema_check():
    """The checked-in BENCH files must carry every field the gates read."""
    problems = []
    for name in NAMES:
        problems.extend(schema_problems(name, baseline(name)))
    assert problems == [], "\n".join(problems)


@pytest.mark.parametrize("name", NAMES)
def test_baseline_passes_against_itself(name):
    assert gate_failures(name, baseline(name), baseline(name)) == []


# -- regressions against the untouched baseline -------------------------------

_SERVING_EXACT = ("seed", "offered", "completed", "rejected", "failed",
                  "writes", "disk_fallbacks", "p50_ms", "p99_ms",
                  "p999_ms", "good_fraction", "audit_findings")
_CACHE_EXACT = ("seed", "requests", "local_hits", "remote_hits",
                "migrated_hits", "disk_reads", "remote_lost", "evictions",
                "evicted_bytes", "entries_evicted", "elapsed_s")

REGRESSIONS = [
    # tolerance fields, each in its direction
    _case("primitives", scale("bulk_fast_events", by=1.31),
          "bulk_fast_events"),
    _case("primitives", scale("bulk_fast_speedup_x", by=0.69),
          "bulk_fast_speedup_x"),
    _case("primitives", scale("events_per_sec", by=0.69), "events_per_sec"),
    # wall fields, normalized by the kernel anchor
    _case("primitives", scale("bulk_fast_wall_s", by=1.31),
          "bulk_fast_wall_s"),
    _case("primitives", scale("fig7_lu_runtime_s", by=1.31),
          "fig7_lu_runtime_s"),
    _case("scaling", scale("points", 0, "wall_s", by=1.31),
          "500-host", "wall"),
    _case("scaling", scale("points", 2, "wall_s", by=1.31),
          "2000-host", "wall"),
    # exact fields
    _case("scaling", nudge("points", 1, "events"), "1000-host", "events"),
    _case("scaling", nudge("points", 2, "requests"),
          "2000-host", "requests"),
    *[_case("serving", nudge("points", 1, key), "2-shard", key)
      for key in _SERVING_EXACT],
    *[_case("cache", nudge("rows", 7, key), "fig7/lfu", key)
      for key in _CACHE_EXACT],
    _case("cache", nudge("rows", -1, "migrations", "ok"),
          "nondedicated/cost-aware+migrate", "migrations"),
]


@pytest.mark.parametrize("name,mutate,tokens", REGRESSIONS)
def test_regression_fails(name, mutate, tokens):
    base = baseline(name)
    doc = copy.deepcopy(base)
    mutate(doc)
    _assert_named(gate_failures(name, doc, base), tokens)


# -- floors, budgets and claims: no baseline can excuse them ------------------

ABSOLUTE = [
    _case("primitives", put("bulk_fast_speedup_x", value=4.9),
          "bulk_fast_speedup_x"),
    _case("primitives", put("events_per_sec", value=399_000.0),
          "events_per_sec"),
    _case("scaling", put("points", 1, "wall_s", value=121.0),
          "1000-host", "wall"),
    _case("serving", put("points", -1, "throughput_rps",
                         value=lambda d: d["points"][0]["throughput_rps"]
                         * 0.99), "throughput"),
    _case("serving", put("points", -1, "p99_ms",
                         value=lambda d: d["points"][0]["p99_ms"] * 1.01),
          "p99"),
    _case("serving", put("points", 0, "audit_findings", value=1), "audit"),
    _case("serving", put("points", value=lambda d: d["points"][:1]),
          "1-shard"),
    _case("cache", put("claim", "migration_reduces_refetches", value=False),
          "did not reduce"),
    _case("cache", put("claim", "refetches_saved", value=0),
          "refetches_saved"),
    _case("cache", put("claim", "migrated_hits", value=0), "migrated hits"),
    _case("cache", put("claim", "migrations_ok", value=0), "no migrations"),
]


@pytest.mark.parametrize("name,mutate,tokens", ABSOLUTE)
def test_absolute_check_fails(name, mutate, tokens):
    doc = baseline(name)
    mutate(doc)
    _assert_named(gate_failures(name, doc, copy.deepcopy(doc)), tokens)


# -- schema: one document on its own ------------------------------------------

SCHEMA = [
    _case("primitives", delete("events_per_sec"), "events_per_sec"),
    _case("primitives", put("kernel_events", value=1.5), "kernel_events"),
    _case("primitives", put("full", value="no"), "full"),
    _case("primitives", put("python", value=3), "python"),
    _case("scaling", delete("kernel_events_per_sec"),
          "kernel_events_per_sec"),
    _case("scaling", delete("points", 0, "wall_s"), "wall_s"),
    _case("scaling", put("points", 1, "hosts", value=0), "hosts"),
    _case("scaling", put("points", 0, "fastpath", "dgrams", value="x"),
          "dgrams"),
    _case("scaling", reverse("points"), "increasing"),
    _case("serving", delete("points", 0, "p99_ms"), "p99_ms"),
    _case("serving", put("points", 0, "good_fraction", value=1.5),
          "good_fraction"),
    _case("serving", put("points", 0, "replication", value="yes"),
          "replication"),
    _case("serving", put("points", 0, "rejected", value=-1), "rejected"),
    _case("serving", reverse("points"), "increasing"),
    _case("cache", delete("rows", 0, "disk_reads"), "disk_reads"),
    _case("cache", put("rows", 0, "migration", value="no"), "migration"),
    _case("cache", put("rows", 0, "migrations", "bytes", value=-1), "bytes"),
    _case("cache", delete("claim"), "claim"),
    _case("cache", nudge("claim", "refetches_saved"), "refetches_saved"),
]


@pytest.mark.parametrize("name,mutate,tokens", SCHEMA)
def test_schema_fails(name, mutate, tokens):
    doc = baseline(name)
    mutate(doc)
    _assert_named(schema_problems(name, doc), tokens)


def test_bench_schema_check_catches_corruption():
    prims = baseline("primitives")
    del prims["events_per_sec"]
    assert any("events_per_sec" in p
               for p in schema_problems("primitives", prims))

    scaling = baseline("scaling")
    scaling["points"][0]["wall_s"] = -1.0
    scaling["points"].reverse()
    problems = schema_problems("scaling", scaling)
    assert any("wall_s" in p for p in problems)
    assert any("increasing" in p for p in problems)


def test_schema_command_needs_only_the_standard_library(tmp_path):
    """``--schema`` runs with no site-packages and no ``repro`` on the
    path (CI runs it before installing anything), and exits 1 with a
    line naming the field on a broken copy of a baseline."""
    cmd = SCHEMA_COMMAND
    ok = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert ok.returncode == 0, ok.stderr
    broken = baseline("cache")
    del broken["rows"][0]["disk_reads"]
    path = tmp_path / "BENCH_cache.json"
    path.write_text(json.dumps(broken))
    bad = subprocess.run(cmd + [str(path)], capture_output=True, text=True,
                         timeout=60)
    assert bad.returncode == 1
    _assert_named(bad.stderr.splitlines(), ("rows[0]", "disk_reads"))
