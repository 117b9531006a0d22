"""Differential test: the page cache's batch methods vs page by page.

``touch_range`` and ``insert_range`` add each counter once per call,
while ``touch`` and ``insert`` add one per page.  The two routes must leave
the cache indistinguishable: same return values, same LRU order and
dirty bits, same counter values, and the same counter *key order* (the
observability snapshot exports keys in first-increment order).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import PageCache

PAGE = 4096
INODES = (1, 2)
SPAN = 8  # page numbers drawn from 0..SPAN-1: batches often hit


def touch_pages(cache: PageCache, inode: int, first: int, last: int):
    return [pg for pg in range(first, last) if not cache.touch((inode, pg))]


def insert_pages(cache: PageCache, inode: int, first: int, last: int,
                 dirty: bool):
    writeback = []
    for pg in range(first, last):
        writeback.extend(cache.insert((inode, pg), dirty=dirty))
    return writeback


keys_st = st.tuples(st.sampled_from(INODES), st.integers(0, SPAN - 1))

op_st = st.one_of(
    # ranges may be empty or reversed, and may run off either end of
    # what is resident (partly resident ranges are the common case)
    st.tuples(st.just("touch_range"), st.sampled_from(INODES),
              st.integers(0, SPAN - 1), st.integers(-2, 12)),
    # the same for insertions, which may also outgrow the cache
    st.tuples(st.just("insert_range"), st.sampled_from(INODES),
              st.integers(0, SPAN - 1), st.integers(-2, 12),
              st.booleans()),
    st.tuples(st.just("clean"), keys_st),
    st.tuples(st.just("drop"), st.sampled_from(INODES)),
)


@given(capacity_pages=st.integers(0, 8), ops=st.lists(op_st, max_size=40))
@settings(max_examples=200, deadline=None)
def test_batch_methods_equal_page_by_page(capacity_pages, ops):
    batch = PageCache(capacity_pages * PAGE, PAGE)
    ref = PageCache(capacity_pages * PAGE, PAGE)
    for op in ops:
        kind = op[0]
        if kind == "touch_range":
            _, inode, first, span = op
            got = batch.touch_range(inode, first, first + span)
            want = touch_pages(ref, inode, first, first + span)
        elif kind == "insert_range":
            _, inode, first, span, dirty = op
            got = batch.insert_range(inode, first, first + span, dirty)
            want = insert_pages(ref, inode, first, first + span, dirty)
        elif kind == "clean":
            got = batch.clean(op[1])
            want = ref.clean(op[1])
        else:
            got = batch.drop(op[1])
            want = ref.drop(op[1])
        assert got == want
        assert batch.entries() == ref.entries()
        assert batch.stats.counters == ref.stats.counters
        assert batch.stats.counter_names() == ref.stats.counter_names()


def test_touch_range_counts_misses_first_when_first_page_misses():
    c = PageCache(8 * PAGE, PAGE)
    c.insert((1, 1))
    c.stats.clear()
    assert c.touch_range(1, 0, 3) == [0, 2]
    assert c.stats.counter_names() == ["misses", "hits"]
    assert c.stats.counters == {"misses": 2.0, "hits": 1.0}


def test_insert_range_keeps_resident_dirty_bits():
    c = PageCache(8 * PAGE, PAGE)
    c.insert_range(1, 1, 3, dirty=True)
    c.insert_range(1, 0, 2)  # (1, 1) is resident: stays dirty
    assert c.entries() == [((1, 2), True), ((1, 0), False), ((1, 1), True)]
    assert c.stats.count("insertions") == 3


def test_insert_range_evicts_after_each_insertion():
    # [B, C, D] full; inserting A evicts B, then B's re-insertion
    # evicts C: one eviction at the end of the range would spare B
    a, b, c, d = ((1, pg) for pg in range(4))
    cache = PageCache(3 * PAGE, PAGE)
    for key in (b, c, d):
        cache.insert(key, dirty=True)
    assert cache.insert_range(1, 0, 2) == [b, c]
    assert [k for k, _ in cache.entries()] == [d, a, b]
    assert cache.stats.count("evictions.dirty") == 2
