"""Property tests: the replacement policies under randomized streams.

Hypothesis drives every :mod:`repro.core.policy` policy through
arbitrary insert/access/remove/evict interleavings and checks the
invariants the imd and the local region cache rely on:

* a victim is always a currently-held, never-pinned key (in-flight
  migration sources stay put no matter the policy), and None only when
  no key is eligible; first-in's victim is always None;
* LRU and MRU evict exactly what an ``OrderedDict`` recency model
  predicts, pinned keys skipped;
* CLOCK honours second chance — while any eligible region's reference
  bit is clear, a referenced region is never the victim;
* ``heat()`` counts the accesses since a key's last insert, for every
  policy (the manager migrates hottest first by it);
* :class:`~repro.core.config.CacheConfig` and ``RegionCache.csetPolicy``
  accept every name of the one registry.

test_policy_properties.py models the same LRU/MRU/first-in policies
as the local cache drives them (no pinned set).
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CacheConfig
from repro.core.policy import POLICIES, make_policy

REGION = 64 * 1024  # one logical region; sizes vary around it below

POLICY_NAMES = sorted(POLICIES)


@st.composite
def policy_ops(draw):
    """(kind, key, size) ops over a small key space; ``evict`` asks for
    a victim with a randomly drawn pinned set and removes it."""
    n = draw(st.integers(1, 80))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["insert", "access", "access", "remove", "evict"]))
        key = draw(st.integers(0, 9))
        size = draw(st.sampled_from([REGION // 4, REGION, 4 * REGION]))
        ops.append((kind, key, size))
    return ops


def drive(policy, ops, on_evict=None):
    """Run ops against a policy, tracking the live-key ground truth."""
    live: dict[int, int] = {}
    for kind, key, size in ops:
        if kind == "insert":
            if key not in live:
                policy.on_insert(key, size)
                live[key] = size
        elif kind == "access":
            policy.on_access(key)
        elif kind == "remove":
            policy.on_remove(key)
            live.pop(key, None)
        else:  # evict
            pinned = {k for k in live if k % 3 == key % 3}
            victim = policy.victim(pinned)
            eligible = set(live) - pinned
            if eligible and policy.name != "first-in":
                assert victim in eligible, \
                    f"victim {victim} not a live unpinned key {eligible}"
            else:
                assert victim is None
            if on_evict is not None:
                on_evict(victim, pinned)
            if victim is not None:
                policy.on_remove(victim)
                live.pop(victim)
    return live


@pytest.mark.parametrize("name", POLICY_NAMES)
@given(ops=policy_ops())
@settings(max_examples=60, deadline=None)
def test_victim_is_live_and_never_pinned(name, ops):
    """Every policy: victims are held keys, pinned keys are immune,
    and the size books track the live set exactly."""
    policy = make_policy(name)
    live = drive(policy, ops)
    assert sorted(policy.keys()) == sorted(live)
    for key, size in live.items():
        assert policy.size_of(key) == size


def check_recency_model(name, ops, pick):
    """Drive a recency policy beside an ``OrderedDict`` model; ``pick``
    orders the model (oldest first for LRU, newest first for MRU) and
    the victim must be its first eligible key."""
    policy = make_policy(name)
    model: OrderedDict[int, None] = OrderedDict()
    for kind, key, size in ops:
        if kind == "insert":
            if key not in model:
                policy.on_insert(key, size)
                model[key] = None
        elif kind == "access":
            policy.on_access(key)
            if key in model:
                model.move_to_end(key)
        elif kind == "remove":
            policy.on_remove(key)
            model.pop(key, None)
        else:
            pinned = {k for k in model if k % 3 == key % 3}
            victim = policy.victim(pinned)
            assert victim == next(
                (k for k in pick(model) if k not in pinned), None)
            if victim is not None:
                model.pop(victim)
                policy.on_remove(victim)
    assert sorted(policy.keys()) == sorted(model)


@given(ops=policy_ops())
@settings(max_examples=60, deadline=None)
def test_lru_matches_recency_model(ops):
    """LRU's victim is the recency model's least-recent eligible key."""
    check_recency_model("lru", ops, iter)


@given(ops=policy_ops())
@settings(max_examples=60, deadline=None)
def test_mru_matches_recency_model(ops):
    """MRU's victim is the recency model's most-recent eligible key."""
    check_recency_model("mru", ops, reversed)


@given(ops=policy_ops())
@settings(max_examples=60, deadline=None)
def test_clock_second_chance(ops):
    """CLOCK: while some eligible bit is clear, a referenced region is
    never evicted — an access really does buy one more lap."""
    policy = make_policy("clock")

    def check(victim, pinned):
        if victim is not None and any(not bits[k] for k in eligible):
            assert not bits[victim], \
                f"evicted referenced {victim} over unreferenced regions"

    for kind, key, size in ops:
        if kind == "evict":
            bits = dict(policy._ref)  # pre-sweep snapshot
            pinned = {k for k in bits if k % 3 == key % 3}
            eligible = set(bits) - pinned
            victim = policy.victim(pinned)
            check(victim, pinned)
            if victim is not None:
                policy.on_remove(victim)
        elif kind == "insert":
            if key not in policy:
                policy.on_insert(key, size)
        elif kind == "access":
            policy.on_access(key)
        else:
            policy.on_remove(key)


@pytest.mark.parametrize("name", POLICY_NAMES)
@given(ops=policy_ops())
@settings(max_examples=60, deadline=None)
def test_heat_counts_accesses_since_insert(name, ops):
    """Every policy: ``heat()`` is the number of accesses since the
    key's last insert (re-inserting a held key resets it), and 0 for a
    key not held."""
    policy = make_policy(name)
    ref: dict[int, int] = {}
    for kind, key, size in ops:
        if kind == "insert":  # held keys are re-inserted too
            policy.on_insert(key, size)
            ref[key] = 0
        elif kind == "access":
            policy.on_access(key)
            if key in ref:
                ref[key] += 1
        elif kind == "remove":
            policy.on_remove(key)
            ref.pop(key, None)
        else:
            victim = policy.victim({k for k in ref if k % 3 == key % 3})
            if victim is not None:
                policy.on_remove(victim)
                ref.pop(victim)
        for k in range(10):
            assert policy.heat(k) == ref.get(k, 0)


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_every_policy_accepted_by_config_and_csetpolicy(name, platform):
    """One registry: a donor ``CacheConfig`` and the local cache's
    ``csetPolicy`` both accept every registered name."""
    assert CacheConfig(policy=name).policy == name
    cache = platform.region_cache(policy="lru")
    assert cache.csetPolicy(name) == 0
    assert cache.policy.name == name


def test_cost_aware_keeps_pinned_under_pressure():
    """The in-flight migration source is pinned: repeated evictions
    drain everything else but never touch it."""
    policy = make_policy("cost-aware")
    for key in range(6):
        policy.on_insert(key, REGION)
    policy.on_access(3)  # hot, but pinned matters more
    pinned = {3}
    evicted = []
    while True:
        victim = policy.victim(pinned)
        if victim is None:
            break
        assert victim != 3
        evicted.append(victim)
        policy.on_remove(victim)
    assert sorted(evicted) == [0, 1, 2, 4, 5]
    assert 3 in policy
