"""Unit tests for the elastic-caching ablation driver."""

import json

import pytest

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
