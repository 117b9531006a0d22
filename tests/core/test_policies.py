"""Unit tests for the replacement policies of the local region cache."""

import pytest

from repro.core.policy import (FirstInPolicy, LruCachePolicy,
                               MruCachePolicy, make_policy)

REGION = 8192


def test_lru_evicts_least_recent():
    p = LruCachePolicy()
    for crd in (1, 2, 3):
        p.on_insert(crd, REGION)
    p.on_access(1)  # 2 is now the oldest
    assert p.victim() == 2


def test_lru_write_also_refreshes():
    p = LruCachePolicy()
    for crd in (1, 2):
        p.on_insert(crd, REGION)
    p.on_access(1)  # cread and cwrite feed the same hook
    assert p.victim() == 2


def test_lru_remove_clears_entry():
    p = LruCachePolicy()
    p.on_insert(1, REGION)
    p.on_remove(1)
    assert p.victim() is None
    p.on_remove(1)  # idempotent


def test_mru_evicts_most_recent():
    p = MruCachePolicy()
    for crd in (1, 2, 3):
        p.on_insert(crd, REGION)
    p.on_access(1)
    assert p.victim() == 1


def test_first_in_never_evicts():
    p = FirstInPolicy()
    for crd in (1, 2, 3):
        p.on_insert(crd, REGION)
    p.on_access(3)
    p.on_access(2)
    assert p.victim() is None


def test_first_in_reinsert_keeps_original_order():
    p = FirstInPolicy()
    p.on_insert(1, REGION)
    p.on_insert(2, REGION)
    p.on_insert(1, REGION)  # keeps its place
    assert list(p.keys()) == [1, 2]


def test_touch_of_unknown_crd_is_noop():
    p = LruCachePolicy()
    p.on_access(99)  # never inserted: must not appear in the order
    assert p.victim() is None
    assert p.heat(99) == 0


def test_make_policy_factory():
    assert isinstance(make_policy("lru"), LruCachePolicy)
    assert isinstance(make_policy("mru"), MruCachePolicy)
    assert isinstance(make_policy("first-in"), FirstInPolicy)
    with pytest.raises(ValueError) as exc:
        make_policy("bogus")
    # one registry: the error names the client's and the donors' policies
    for name in ("lru", "mru", "first-in", "lfu", "clock", "cost-aware"):
        assert name in str(exc.value)
