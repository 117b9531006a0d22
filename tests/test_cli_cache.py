"""CLI + config validation for the elastic-caching subsystem.

The user-facing contract of docs/CACHING.md: a typo'd policy name —
in ``repro cache`` arguments, a ``DodoConfig.cache`` block or the
``placement`` knob — surfaces as a one-line ``repro: ...`` message
with exit code 2 (or a plain :class:`ValueError` at config
construction), never a traceback from inside a daemon.
"""

import json

import pytest

from repro.cli import main
from repro.core.config import CacheConfig, DodoConfig


# -- config-layer validation --------------------------------------------------

def test_unknown_cache_policy_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown cache policy 'bogus'"):
        CacheConfig(policy="bogus")


def test_unknown_placement_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown placement 'bogus'"):
        DodoConfig(placement="bogus")


def test_error_messages_list_accepted_values():
    with pytest.raises(ValueError) as exc:
        CacheConfig(policy="fifo")
    for name in ("none", "lru", "mru", "first-in", "lfu", "clock",
                 "cost-aware"):
        assert name in str(exc.value)
    with pytest.raises(ValueError) as exc:
        DodoConfig(placement="first-fit")
    for name in ("random", "most-free", "round-robin"):
        assert name in str(exc.value)


def test_default_cache_block_is_inert():
    cfg = DodoConfig()
    assert cfg.cache.policy == "none"
    assert not cfg.cache.enabled
    assert not cfg.cache.migration


# -- CLI surface --------------------------------------------------------------

def test_cache_rejects_unknown_policy_one_line(capsys):
    assert main(["cache", "--policies", "bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: unknown cache policy 'bogus'")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_cache_rejects_unknown_workload_one_line(capsys):
    assert main(["cache", "--workloads", "bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: unknown cache workload 'bogus'")
    assert len(err.strip().splitlines()) == 1


def test_whatif_rejects_unknown_placement(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["whatif", "/nonexistent", "--placement", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_cache_command_runs_and_writes_json(tmp_path, capsys):
    out = tmp_path / "cache.json"
    assert main(["cache", "--policies", "lru", "--workloads", "fig7",
                 "--iters", "1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "Elastic-caching ablation" in text
    assert "claim (migration saves refetches" in text
    doc = json.loads(out.read_text())
    variants = {(r["workload"], r["policy"], r["migration"])
                for r in doc["rows"]}
    # the requested grid cell plus the always-run claim rows
    assert ("fig7", "lru", False) in variants
    assert ("nondedicated", "cost-aware", True) in variants
    assert doc["claim"]["disk_reads_migration"] >= 0
