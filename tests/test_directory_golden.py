"""Directory identity: the region-directory runs that must never drift.

The paper's single manager is the one-shard, unreplicated ring, and the
serving and failover scenarios run multi-shard replicated rings.  This
golden pins, for each run below, the sha256 of its event-log JSONL, the
sha256 of its canonical workload result and the simulator's
``events_processed``:

* ``fig7`` chaos seeds 2 and 4 crash and restart the single manager;
* ``nondedicated`` seed 5 crashes it under rmd recruitment churn;
* ``failover`` seed 1 crashes two shard primaries: backups promote,
  and the healer resyncs fresh backups off them;
* a hand-written ``failover`` plan storms a donor back inside each
  shard's failover window, while that shard has no live primary;
* a short two-shard replicated ``run_serving`` point.

Regenerate after an intentional behavior change with::

    REPRO_REGOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_directory_golden.py
"""

import hashlib
import io
import json
import os

import pytest

from repro.sweep.spec import canonical_text

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "directory_golden.json")

CHAOS_RUNS = {
    "chaos-fig7-seed2": ("fig7", 2),
    "chaos-fig7-seed4": ("fig7", 4),
    "chaos-nondedicated-seed5": ("nondedicated", 5),
    "chaos-failover-seed1": ("failover", 1),
}

SERVING = dict(n_shards=2, duration_s=2.0, arrival_rate=300.0, n_keys=64,
               n_memory_hosts=4)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _jsonl(eventlog) -> str:
    buf = io.StringIO()
    eventlog.dump_jsonl(buf)
    return buf.getvalue()


def _storm_plan():
    from repro.faults.plan import FaultPlan, FaultSpec
    return FaultPlan(seed=100, experiment="failover", events=(
        FaultSpec(time=5.0, kind="manager_crash", duration_s=3.0,
                  shard=0),
        FaultSpec(time=5.3, kind="reclaim_storm", target="mem01",
                  duration_s=2.0),
        FaultSpec(time=11.0, kind="manager_crash", duration_s=2.5,
                  shard=1),
        FaultSpec(time=11.1, kind="reclaim_storm", target="mem00",
                  duration_s=1.5)))


def _run_digest(run) -> dict:
    return {"eventlog": _sha(_jsonl(run["eventlog"])),
            "result": _sha(canonical_text(run["result"])),
            "events": run["platform"].sim.events_processed}


def _chaos_digest(experiment: str, seed: int) -> dict:
    from repro.faults.chaos import run_chaos
    return _run_digest(run_chaos(experiment, seed=seed, audit="raise"))


def _serving_digest(monkeypatch) -> dict:
    from repro.exp import serving
    from repro.obs.session import ObsSession
    from repro.sim import Simulator

    sims = []

    def recording_simulator(*args, **kwargs):
        sims.append(Simulator(*args, **kwargs))
        return sims[-1]

    monkeypatch.setattr(serving, "Simulator", recording_simulator)
    with ObsSession(events="debug") as obs:
        out = serving.run_serving(**SERVING)
    return {"eventlog": _sha(_jsonl(obs.eventlog)),
            "result": _sha(canonical_text(out)),
            "events": sims[0].events_processed}


def _load() -> dict:
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as fp:
        return json.load(fp)


def _check(name: str, got: dict) -> None:
    if os.environ.get("REPRO_REGOLDEN"):
        doc = _load()
        doc[name] = got
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w") as fp:
            json.dump(doc, fp, indent=1, sort_keys=True)
            fp.write("\n")
    assert _load()[name] == got, \
        f"{name} drifted from the directory golden; if intentional, " \
        "regenerate with REPRO_REGOLDEN=1"


@pytest.mark.parametrize("name", sorted(CHAOS_RUNS))
def test_chaos_run_matches_directory_golden(name):
    _check(name, _chaos_digest(*CHAOS_RUNS[name]))


def test_failover_storm_matches_directory_golden():
    """The busy notification skips a shard that has no live primary
    (no retry budget spent on the crashed one)."""
    from repro.faults.chaos import run_chaos
    run = run_chaos("failover", plan=_storm_plan(), audit="raise")
    assert run["platform"].nemesis.stats.count("cmd_unreachable") == 0
    _check("chaos-failover-storm", _run_digest(run))


def test_serving_run_matches_directory_golden(monkeypatch):
    _check("serving-2shard", _serving_digest(monkeypatch))
