"""Testbed identity: the runs that pin how both testbeds are built.

The paper evaluates Dodo on the dedicated Section 5.1 cluster and on
the Section 5.3.1 desktop cluster, whose owners come and go.  This
golden stores the canonical result of each run below, field by field,
so a change to either builder shows up as the exact values it moved:

* ``run_nondedicated()`` with default parameters, without its
  ``result`` objects (the sweep adapter drops them too);
* the what-if ``nondedicated`` scenario at seed 5, under the default
  policy and under MRU replacement, round-robin placement and a 0.05
  load threshold;
* the what-if ``fig7`` scenario at seed 3 with chaos, under MRU
  replacement and most-free placement;
* the refraction ablation at 1/256 scale;
* the replacement-policy ablation (LRU, MRU and first-in on a cyclic
  multi-scan) at 1/256 scale;
* the cache ablation's non-dedicated cell with hotspot migration under
  LRU, LFU and CLOCK: migration moves a busy donor's regions hottest
  first, so these pin each policy's heat counts.

Regenerate after an intentional behavior change with::

    REPRO_REGOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_testbed_golden.py
"""

import json
import os

import pytest

from repro.sweep.spec import jsonify

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "testbed_golden.json")


def _nondedicated() -> dict:
    from repro.exp.nondedicated import run_nondedicated
    results = run_nondedicated()
    out = {"speedup": results["speedup"]}
    for mode in ("baseline", "dodo"):
        out[mode] = {k: v for k, v in results[mode].items()
                     if k != "result"}
    return out


def _whatif(scenario: str, seed: int, chaos: bool = False,
            **policy) -> dict:
    from repro.obs.fleet.whatif import WhatIfPolicy, run_scenario
    return run_scenario(scenario, seed=seed, chaos=chaos,
                        policy=WhatIfPolicy(**policy))["metrics"]


def _refraction() -> dict:
    from repro.exp.ablations import run_refraction_ablation
    return run_refraction_ablation(scale=1 / 256)


def _policy_ablation() -> dict:
    from repro.exp.ablations import run_policy_ablation
    return run_policy_ablation(scale=1 / 256)


def _cache_migrate(policy: str) -> dict:
    from repro.exp.cache import run_cache
    return run_cache(policy=policy, migration=True, workload="nondedicated")


RUNS = {
    "nondedicated-default": _nondedicated,
    "whatif-nondedicated-seed5": lambda: _whatif("nondedicated", 5),
    "whatif-nondedicated-seed5-mru-rr": lambda: _whatif(
        "nondedicated", 5, replacement="mru", placement="round-robin",
        load_threshold=0.05),
    "whatif-fig7-chaos-seed3-mru-mostfree": lambda: _whatif(
        "fig7", 3, chaos=True, replacement="mru", placement="most-free"),
    "refraction-ablation-1/256": _refraction,
    "policy-ablation-1/256": _policy_ablation,
    "cache-migrate-lru": lambda: _cache_migrate("lru"),
    "cache-migrate-lfu": lambda: _cache_migrate("lfu"),
    "cache-migrate-clock": lambda: _cache_migrate("clock"),
}


def _load() -> dict:
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as fp:
        return json.load(fp)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_testbed_golden(name):
    got = jsonify(RUNS[name]())
    if os.environ.get("REPRO_REGOLDEN"):
        doc = _load()
        doc[name] = got
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w") as fp:
            json.dump(doc, fp, indent=1, sort_keys=True)
            fp.write("\n")
    assert got == _load()[name], \
        f"{name} drifted from the testbed golden; if intentional, " \
        "regenerate with REPRO_REGOLDEN=1"
