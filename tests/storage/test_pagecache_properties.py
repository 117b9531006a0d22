"""Unit + property tests for the page cache (LRU + dirty tracking)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import PageCache

PAGE = 4096


def test_touch_miss_then_hit():
    c = PageCache(4 * PAGE, PAGE)
    assert not c.touch((1, 0))
    c.insert((1, 0))
    assert c.touch((1, 0))
    assert c.hit_ratio() == 0.5


def test_capacity_enforced_lru_order():
    c = PageCache(2 * PAGE, PAGE)
    c.insert((1, 0))
    c.insert((1, 1))
    c.touch((1, 0))        # 1 is now LRU
    c.insert((1, 2))       # evicts (1,1)
    assert (1, 0) in c and (1, 2) in c and (1, 1) not in c


def test_dirty_eviction_reported():
    c = PageCache(1 * PAGE, PAGE)
    c.insert((1, 0), dirty=True)
    writeback = c.insert((1, 1))
    assert writeback == [(1, 0)]


def test_clean_eviction_silent():
    c = PageCache(1 * PAGE, PAGE)
    c.insert((1, 0), dirty=False)
    assert c.insert((1, 1)) == []


def test_dirty_bit_sticky_on_reinsert():
    c = PageCache(4 * PAGE, PAGE)
    c.insert((1, 0), dirty=True)
    c.insert((1, 0), dirty=False)  # re-insert must not lose dirtiness
    assert c.dirty_pages() == [(1, 0)]
    c.clean((1, 0))
    assert c.dirty_pages() == []


def test_mark_dirty_requires_resident():
    c = PageCache(4 * PAGE, PAGE)
    with pytest.raises(KeyError):
        c.mark_dirty((1, 0))
    c.insert((1, 0))
    c.mark_dirty((1, 0))
    assert c.dirty_pages(1) == [(1, 0)]
    assert c.dirty_pages(2) == []


def test_drop_discards_inode_pages():
    c = PageCache(8 * PAGE, PAGE)
    for pg in range(3):
        c.insert((1, pg), dirty=True)
    c.insert((2, 0))
    assert c.drop(1) == 3
    assert len(c) == 1
    assert c.dirty_pages() == []


def test_resize_shrink_returns_dirty():
    c = PageCache(4 * PAGE, PAGE)
    c.insert((1, 0), dirty=True)
    c.insert((1, 1))
    c.insert((1, 2))
    writeback = c.resize(1 * PAGE)
    assert (1, 0) in writeback
    assert len(c) == 1
    # a shrink counts its dirty evictions, as an insert does
    assert c.summary()["evictions"] == 2
    assert c.summary()["dirty_evictions"] == len(writeback)


def test_validation():
    with pytest.raises(ValueError):
        PageCache(100, page_size=0)
    with pytest.raises(ValueError):
        PageCache(-1, PAGE)


# -- property: cache behaves exactly like a model LRU dict ----------------------

@st.composite
def cache_ops(draw):
    n = draw(st.integers(1, 120))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["touch", "insert", "insert_dirty",
                                     "clean", "drop"]))
        key = (draw(st.integers(1, 3)), draw(st.integers(0, 9)))
        ops.append((kind, key))
    return ops


@given(cache_ops(), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_pagecache_matches_model_lru(ops, capacity_pages):
    cache = PageCache(capacity_pages * PAGE, PAGE)
    model: dict = {}  # insertion/recency-ordered: key -> dirty

    def model_touch(key):
        if key in model:
            model[key] = model.pop(key)
            return True
        return False

    for kind, key in ops:
        if kind == "touch":
            assert cache.touch(key) == model_touch(key)
        elif kind in ("insert", "insert_dirty"):
            dirty = kind == "insert_dirty"
            wb = cache.insert(key, dirty=dirty)
            if key in model:
                model[key] = model[key] or dirty
                model[key] = model.pop(key)  # move to MRU
                assert wb == []
            else:
                model[key] = dirty
                expect_wb = []
                while len(model) > capacity_pages:
                    old_key = next(iter(model))
                    if model.pop(old_key):
                        expect_wb.append(old_key)
                assert wb == expect_wb
        elif kind == "clean":
            cache.clean(key)
            if key in model:
                model[key] = False
        elif kind == "drop":
            inode = key[0]
            dropped = cache.drop(inode)
            doomed = [k for k in model if k[0] == inode]
            assert dropped == len(doomed)
            for k in doomed:
                del model[k]

        # invariants after every step
        assert len(cache) == len(model) <= capacity_pages
        assert set(cache.dirty_pages()) == {k for k, d in model.items() if d}
        for k in model:
            assert k in cache
