"""What-if replay: identity reproduction, policy deltas, placement knob."""

import pytest

from repro.obs.fleet.whatif import (WhatIfPolicy, format_whatif,
                                    record_run, run_scenario, run_whatif)
from repro.sweep.spec import canonical_text


def test_same_seed_metrics_are_identical():
    a = run_scenario("fig7", seed=3)["metrics"]
    b = run_scenario("fig7", seed=3)["metrics"]
    assert canonical_text(a) == canonical_text(b)
    assert a["requests"] > 0 and a["fetches"] > 0
    assert a["local_reads"] + a["remote_reads"] + a["disk_reads"] \
        == a["requests"] - a["degraded"]


def test_identity_replay_reproduces_recorded_metrics(tmp_path):
    out = str(tmp_path / "run")
    meta = record_run(out, "fig7", seed=3)
    doc = run_whatif(out)
    assert doc["changed"] is False
    assert doc["replay"]["metrics"] == meta["metrics"]
    assert all(v == 0 for v in doc["delta"].values()), doc["delta"]
    assert "identity replay reproduced the baseline" in format_whatif(doc)


def test_changed_replacement_policy_reports_nonzero_delta(tmp_path):
    out = str(tmp_path / "run")
    record_run(out, "fig7", seed=3)
    doc = run_whatif(out, replacement="mru")
    assert doc["changed"] is True
    assert doc["replay"]["policy"]["replacement"] == "mru"
    assert doc["baseline"]["policy"]["replacement"] == "lru"
    # hotcold under MRU thrashes the hot set: refetches must move
    assert doc["delta"]["refetches"] != 0
    assert "lru" in format_whatif(doc) and "mru" in format_whatif(doc)


def test_placement_policies_run_and_validate():
    for placement in ("most-free", "round-robin"):
        m = run_scenario("fig7", seed=3,
                         policy=WhatIfPolicy(placement=placement))["metrics"]
        assert m["requests"] > 0 and m["degraded"] == 0
    with pytest.raises(ValueError, match="placement"):
        run_scenario("fig7", seed=3,
                     policy=WhatIfPolicy(placement="bogus"))


def test_measuring_runner_does_not_perturb_the_workload():
    """The degrade-to-disk runner's measurements read virtual time and
    counter deltas only — workload results stay bit-identical to the
    plain runner's."""
    from repro.exp.platform import MB, Platform, PlatformParams
    from repro.faults.chaos import ChaosRunner
    from repro.sim import Simulator
    from repro.workloads import SyntheticParams, SyntheticRunner

    def run(cls):
        sim = Simulator(seed=7)
        platform = Platform(sim, PlatformParams().scaled(1 / 256),
                            dodo=True)
        sp = SyntheticParams(pattern="hotcold", dataset_bytes=2 * MB,
                             req_size=8192, num_iter=2, compute_s=0.002)
        runner = cls(platform, sp, use_dodo=True)
        res = sim.run(until=runner.run())
        return (res.elapsed_s, tuple(res.iteration_s), sim.now), runner

    plain, _ = run(SyntheticRunner)
    measured, mr = run(ChaosRunner)
    assert measured == plain
    assert mr.latencies_s and mr.fetches > 0


def test_recruits_count_each_desktop_recruitment_once():
    """A desktop recruitment logs the rmd's ``node.recruited`` and the
    forked imd's ``imd.start``; the metrics and the insights count it
    once."""
    out = run_scenario("nondedicated", seed=5)
    log = out["eventlog"]
    starts = len(log.query(component="imd", event="imd.start"))
    assert starts == len(log.query(component="rmd", event="node.recruited"))
    assert starts > 0
    assert out["metrics"]["recruits"] == starts
    assert sum(d["recruits"] for d in out["insights"]["donors"]) == starts


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("fig9", seed=1)


def test_chaos_scenario_with_insights_passes_audit_raise():
    """The acceptance bar: a chaos run in audit raise mode completes —
    including the insight emission at the end — with zero findings."""
    out = run_scenario("nondedicated", seed=5, chaos=True, audit="raise")
    auditor = out["auditor"]
    assert auditor.passes > 0 and not auditor.findings
    assert out["insights"]["donors"]
    recs = out["eventlog"].query(component="insights",
                                 event="recommendation")
    assert recs


def test_policy_meta_round_trip_and_override():
    p = WhatIfPolicy(replacement="mru", placement="round-robin",
                     idle_window_s=2.5)
    assert WhatIfPolicy.from_meta(p.to_meta()) == p
    q = p.override(replacement="lru", placement=None)
    assert q.replacement == "lru"
    assert q.placement == "round-robin"  # None means "keep"
    assert q.idle_window_s == 2.5


def test_recorded_run_dir_carries_insights_events(tmp_path):
    from repro.obs.fleet.store import load_run_dir
    out = str(tmp_path / "run")
    record_run(out, "fig7", seed=3)
    loaded = load_run_dir(out)
    recs = loaded.eventlog.query(component="insights",
                                 event="recommendation")
    assert recs and all(e.fields["kind"] in
                        ("recruit", "placement", "migrate", "avoid")
                        for e in recs)
    assert loaded.meta["metrics"]["requests"] > 0
    assert loaded.meta["policy"]["replacement"] == "lru"
