"""Chaos x elastic caching: migration under reclaim storms replays.

The differential bar for the caching subsystem (docs/CACHING.md): a
non-dedicated chaos run with cost-aware eviction *and* hotspot
migration on, driven by a storm-only nemesis plan, must

* replay byte-identically per seed (event log JSONL compared), with
  the invariant auditor in ``raise`` mode — migration RPCs land inside
  the same conservation envelope as everything else;
* actually exercise the machinery (the storms force reclaims, so the
  runs record evictions and/or migrations — a vacuous pass would hide
  a silently-disabled subsystem);
* leave default runs untouched: the same plan with ``cache=None``
  produces a *different* event stream than the caching run (the
  subsystem is really on), while two ``cache=None`` runs still agree.
"""

import io

import pytest

from repro.core.config import CacheConfig
from repro.faults.chaos import run_chaos
from repro.faults.generate import random_plan

#: the nondedicated chaos scenario's topology (see chaos.play_scenario)
HOSTS = ["app", "mgr"] + [f"w{i}" for i in range(6)]
WARMUP = 10.0  # idle_window_s + 5.0, when the desktops are recruited


def storm_plan(seed: int):
    """A reclaim-storm-only schedule over the desktop donors."""
    return random_plan(seed, HOSTS, horizon_s=WARMUP + 20.0,
                       start_s=WARMUP, protected=("app", "mgr"),
                       kinds=("reclaim_storm",),
                       experiment="nondedicated")


def jsonl_bytes(eventlog) -> str:
    buf = io.StringIO()
    eventlog.dump_jsonl(buf)
    return buf.getvalue()


def run_storm(seed: int, cache):
    return run_chaos("nondedicated", plan=storm_plan(seed),
                     audit="raise", cache=cache)


@pytest.mark.parametrize("seed", [2, 5])
def test_migration_replays_byte_identically(seed):
    cache = CacheConfig(policy="cost-aware", migration=True)
    a = run_storm(seed, cache)
    b = run_storm(seed, cache)
    text = jsonl_bytes(a["eventlog"])
    assert text == jsonl_bytes(b["eventlog"])
    assert text.count("\n") == len(a["eventlog"].events) > 0
    assert a["result"].elapsed_s == b["result"].elapsed_s
    # the storms hit recruited donors: the cache subsystem did real work
    events = {e.event for e in a["eventlog"].events}
    assert events & {"cache.evict", "cache.migrate"}, sorted(events)[:30]
    assert a["injected"] > 0


def test_caching_run_diverges_from_default():
    """Same plan, cache on vs off: different streams (the knob bites),
    but each mode agrees with itself."""
    cache = CacheConfig(policy="cost-aware", migration=True)
    on = run_storm(3, cache)
    off_a = run_storm(3, None)
    off_b = run_storm(3, None)
    assert jsonl_bytes(off_a["eventlog"]) == jsonl_bytes(off_b["eventlog"])
    assert jsonl_bytes(on["eventlog"]) != jsonl_bytes(off_a["eventlog"])
