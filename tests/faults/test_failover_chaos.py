"""Chaos coverage for sharded-directory failover (the PR 9 scenario).

The broad 10-seed raise-mode sweep over every scenario — ``failover``
included — lives in ``test_chaos.py``.  This file pins the properties
specific to shard failover:

* a crafted plan that crashes *every* shard primary mid-workload ends
  with zero lost or duplicated regions (raise-mode audit + replication
  divergence checks) and the run still completes its requests;
* a recorded failover plan replays byte-identically, shard targets and
  all;
* retry storms stay bounded: a serving workload riding through a
  primary crash issues a bounded number of shard retries and never
  reports an unreachable shard;
* plan-format compatibility: ``shard`` round-trips through JSON when
  present, is omitted when absent, and pre-sharding generation
  (``shards=None``) emits byte-identical plans with no shard field.
"""

import io
import json

from repro.faults.chaos import run_chaos
from repro.faults.generate import random_plan
from repro.faults.plan import FaultPlan, FaultSpec

FAILOVER_HOSTS = ["app", "mgr00", "bak00", "mgr01", "bak01",
                  "mem00", "mem01", "mem02", "mem03"]


def jsonl_bytes(eventlog) -> str:
    buf = io.StringIO()
    eventlog.dump_jsonl(buf)
    return buf.getvalue()


# -- every primary dies -------------------------------------------------------

def test_crashing_every_shard_primary_loses_nothing():
    plan = FaultPlan(events=(
        FaultSpec(4.0, "manager_crash", shard=0, duration_s=3.0),
        FaultSpec(8.0, "manager_crash", shard=1, duration_s=3.0),
    ), seed=12, experiment="failover", description="kill both primaries")
    run = run_chaos("failover", plan=plan, audit="raise")
    assert run["injected"] == 2
    assert run["healed"] == 2
    assert run["result"].requests > 0
    assert run["auditor"].passes > 0
    assert not run["auditor"].findings
    # both backups were promoted and kept their shard's directory
    platform = run["platform"]
    for sid in (0, 1):
        primary = platform.live_primary(sid)
        assert primary is not None and primary.role == "primary"


def test_failover_plan_replays_byte_identically(tmp_path):
    first = run_chaos("failover", seed=5, audit="raise")
    assert any(ev.kind == "manager_crash" and ev.shard is not None
               for ev in first["plan"])
    path = tmp_path / "failover-plan.json"
    first["plan"].write(str(path))
    replay = run_chaos("failover", plan=FaultPlan.read(str(path)),
                       audit="raise")
    assert jsonl_bytes(replay["eventlog"]) == jsonl_bytes(first["eventlog"])


def test_random_failover_plans_cover_both_shards():
    """Across the sweep's seeds the generator must target each shard —
    otherwise the 10-seed sweep silently stops testing one of them."""
    shards_hit = set()
    for seed in range(10):
        plan = random_plan(seed, FAILOVER_HOSTS, horizon_s=20.0,
                           protected=("app", "mgr00", "bak00", "mgr01",
                                      "bak01"),
                           kinds=("host_crash", "nic_flap", "loss_burst",
                                  "manager_crash"),
                           shards=2, experiment="failover")
        shards_hit |= {ev.shard for ev in plan
                       if ev.kind == "manager_crash"}
    assert shards_hit == {0, 1}


# -- bounded retry storms -----------------------------------------------------

def test_serving_rides_through_failover_with_bounded_retries():
    from repro.core.config import DodoConfig
    from repro.exp.platform import MB, Platform, PlatformParams
    from repro.sim import Simulator
    from repro.workloads.serving import ServingParams, ServingTier

    sim = Simulator(seed=17)
    params = PlatformParams(
        n_memory_hosts=4, imd_pool_bytes=2 * MB,
        local_cache_bytes=256 * 1024, app_fs_cache_dodo=1 * MB,
        disk_capacity_bytes=256 * MB)
    cfg = DodoConfig(store_payload=False, shards=2, replication=True,
                     rpc_backoff_s=0.02)
    platform = Platform(sim, params, dodo=True, config=cfg)
    tier = ServingTier(platform, ServingParams(
        n_keys=64, value_bytes=16 * 1024, arrival_rate=300.0,
        duration_s=4.0, n_workers=8, desc_cache=8))

    def crash():
        yield sim.timeout(1.5)  # mid-stream, after the load phase
        platform.live_primary(0).stop()

    sim.process(crash())
    sim.run(until=sim.process(tier.run()))
    sim.run(until=sim.now + 12.0)

    assert tier.completed + tier.rejected == tier.offered
    assert tier.completed > 0
    routing = tier.shard_routing()
    # the storm is bounded: a handful of timeouts against the dead
    # primary while its backup promotes, never an exhausted shard, and
    # far fewer retries than requests
    assert routing.get("shard.unreachable", 0) == 0
    assert routing.get("shard.retry", 0) <= tier.offered
    assert not platform.audit(teardown=True)


# -- plan-format compatibility ------------------------------------------------

def test_shard_field_round_trips_when_present():
    spec = FaultSpec(3.0, "manager_crash", shard=1)
    d = spec.to_dict()
    assert d["shard"] == 1
    assert FaultSpec.from_dict(d) == spec
    plan = FaultPlan(events=(spec,), seed=1, experiment="failover")
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_shard_field_is_omitted_when_absent():
    d = FaultSpec(3.0, "manager_crash").to_dict()
    assert "shard" not in d  # pre-sharding plan JSON stays byte-stable
    assert FaultSpec.from_dict(d).shard is None


def test_unsharded_generation_emits_no_shard_fields():
    plan = random_plan(3, ["app", "mgr", "mem00", "mem01"],
                       horizon_s=20.0, experiment="fig7")
    assert all(ev.shard is None for ev in plan)
    assert "shard" not in json.dumps(plan.to_dict())
    # regeneration is byte-identical: the shards=None path must not
    # perturb the rng draw sequence old plans were generated with
    again = random_plan(3, ["app", "mgr", "mem00", "mem01"],
                        horizon_s=20.0, experiment="fig7")
    assert plan.to_json() == again.to_json()
