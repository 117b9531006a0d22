"""Unit tests for the elastic-caching ablation driver."""

import json

import pytest

from repro.exp import cache as cache_exp
from repro.exp.cache import (ABLATION_POLICIES, CACHE_WORKLOADS,
                             run_cache)


def test_rejects_unknown_workload():
    with pytest.raises(ValueError, match="unknown cache workload"):
        run_cache(workload="bogus")


def test_rejects_unknown_policy():
    with pytest.raises(ValueError, match="unknown cache policy"):
        run_cache(policy="bogus", workload="fig7")


def test_migration_requires_an_active_policy():
    with pytest.raises(ValueError,
                       match="migration needs an eviction policy"):
        run_cache(policy="none", migration=True)


def test_constants_cover_the_ablation_axes():
    assert set(CACHE_WORKLOADS) == {"nondedicated", "fig7"}
    assert "none" in ABLATION_POLICIES
    assert "cost-aware" in ABLATION_POLICIES


def test_fig7_cell_deterministic_and_complete():
    a = run_cache(policy="clock", workload="fig7", num_iter=2)
    b = run_cache(policy="clock", workload="fig7", num_iter=2)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["requests"] > 0
    assert (a["local_hits"] + a["remote_hits"] + a["migrated_hits"]
            + a["disk_reads"] == a["requests"])
    assert a["evictions"] > 0  # the constrained fig7 pool forces them
    assert a["reclaims"] == 0  # dedicated donors: nobody comes back


def test_policy_none_never_evicts():
    r = run_cache(policy="none", workload="fig7", num_iter=1)
    assert r["evictions"] == 0
    assert r["migrations"]["attempted"] == 0


def _fig7_cell_with_manager(monkeypatch, policy):
    """One fig7 cell, plus the manager counters of the testbed it built."""
    seen = {}
    collect = cache_exp._collect

    def spy(cache_cfg, workload, seed, res, runner, testbed):
        seen["manager"] = testbed.cmd.stats
        return collect(cache_cfg, workload, seed, res, runner, testbed)

    monkeypatch.setattr(cache_exp, "_collect", spy)
    row = run_cache(policy=policy, workload="fig7", seed=9, num_iter=2)
    return row, seen["manager"]


def test_first_in_donors_are_offered_only_what_fits(monkeypatch):
    """First-in never evicts, so a donor whose hint says full can never
    make room: the manager must not offer it the allocation anyway."""
    plain, plain_mgr = _fig7_cell_with_manager(monkeypatch, "none")
    first_in, first_in_mgr = _fig7_cell_with_manager(monkeypatch,
                                                     "first-in")
    assert first_in_mgr.count("alloc.host_full") == 0
    assert (first_in_mgr.count("alloc.placed")
            == plain_mgr.count("alloc.placed"))
    for key in ("local_hits", "remote_hits", "disk_reads"):
        assert first_in[key] == plain[key], key
