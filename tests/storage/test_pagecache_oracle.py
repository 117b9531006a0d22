"""Oracle differential test: ``PageCache`` vs a page-by-page LRU model.

The reference below is the page cache's specification written out one
4 KB page at a time: an ``OrderedDict`` from ``(inode, page)`` to the
dirty bit, least recently used first.  A touch moves a resident page to
the MRU end; an insertion of a resident page ORs its dirty bit and moves
it there too, while a missing page goes in at the MRU end and the LRU
head is evicted until the count fits, after *each* page.

``PageCache`` adds every counter once per call, in the order the
page-by-page loop would first increment it, and never with zero.  The
reference increments per page; the counter values and the key order
(which the metrics snapshot exports) must come out the same.

Hypothesis drives sequences of every public operation over three inodes
with page numbers clustered around 64-page block boundaries, so ranges
and resident stretches often cross them, and capacities from zero to a
few hundred pages.  After every step the return values, the resident
entries in LRU order, ``len``, ``resident_bytes``, ``summary()`` and the
counters must match.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import PageCache

PAGE = 4096
INODES = (1, 2, 3)


class PageByPage:
    """The reference: one ``OrderedDict`` entry per resident page."""

    def __init__(self, capacity_bytes: int):
        self.capacity_pages = capacity_bytes // PAGE
        self.pages: OrderedDict = OrderedDict()  # (inode, page) -> dirty
        self.counters: dict = {}  # first-increment order

    def add(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def __contains__(self, key) -> bool:
        return key in self.pages

    def touch(self, key) -> bool:
        if key in self.pages:
            self.pages.move_to_end(key)
            self.add("hits")
            return True
        self.add("misses")
        return False

    def touch_range(self, inode, first, last):
        return [pg for pg in range(first, last)
                if not self.touch((inode, pg))]

    def evict(self):
        writeback = []
        while len(self.pages) > self.capacity_pages:
            key, dirty = self.pages.popitem(last=False)
            self.add("evictions")
            if dirty:
                self.add("evictions.dirty")
                writeback.append(key)
        return writeback

    def insert(self, key, dirty=False):
        if key in self.pages:
            self.pages[key] = self.pages[key] or dirty
            self.pages.move_to_end(key)
            return []
        self.pages[key] = dirty
        self.add("insertions")
        return self.evict()

    def insert_range(self, inode, first, last, dirty=False):
        writeback = []
        for pg in range(first, last):
            writeback += self.insert((inode, pg), dirty)
        return writeback

    def mark_dirty(self, key):
        if key not in self.pages:
            raise KeyError(key)
        self.pages[key] = True

    def clean(self, key):
        if key in self.pages:
            self.pages[key] = False

    def dirty_pages(self, inode=None):
        return [k for k, d in self.pages.items()
                if d and (inode is None or k[0] == inode)]

    def drop(self, inode):
        doomed = [k for k in self.pages if k[0] == inode]
        for k in doomed:
            del self.pages[k]
        return len(doomed)

    def resize(self, capacity_bytes):
        self.capacity_pages = capacity_bytes // PAGE
        return self.evict()

    def summary(self):
        hits = self.counters.get("hits", 0)
        total = hits + self.counters.get("misses", 0)
        return {
            "resident_pages": len(self.pages),
            "resident_bytes": len(self.pages) * PAGE,
            "capacity_pages": self.capacity_pages,
            "hits": hits,
            "misses": self.counters.get("misses", 0),
            "insertions": self.counters.get("insertions", 0),
            "evictions": self.counters.get("evictions", 0),
            "dirty_evictions": self.counters.get("evictions.dirty", 0),
            "hit_ratio": hits / total if total else 0.0,
        }


def call(obj, op):
    """Apply ``op`` to a cache or the reference; an exception's type is
    part of the outcome."""
    name, *args = op
    try:
        if name == "contains":
            return args[0] in obj
        return getattr(obj, name)(*args)
    except KeyError:
        return KeyError


# page numbers: anywhere in four 64-page blocks, or within a few pages
# of a block boundary, so stretches and ranges cross blocks often
page_st = st.one_of(
    st.integers(0, 255),
    st.builds(lambda b, d: 64 * b + d, st.integers(1, 3),
              st.integers(-6, 5)))
inode_st = st.sampled_from(INODES)
key_st = st.tuples(inode_st, page_st)
# ranges up to 80 pages long; empty and reversed ones too
range_st = st.tuples(inode_st, page_st, st.integers(-3, 80)).map(
    lambda t: (t[0], t[1], t[1] + t[2]))
capacity_st = st.one_of(st.integers(0, 8), st.integers(0, 300)).map(
    lambda pages: pages * PAGE)

op_st = st.one_of(
    st.tuples(st.just("touch"), key_st),
    range_st.map(lambda r: ("touch_range", *r)),
    st.tuples(st.just("insert"), key_st, st.booleans()),
    st.tuples(range_st, st.booleans()).map(
        lambda t: ("insert_range", *t[0], t[1])),
    st.tuples(st.just("mark_dirty"), key_st),
    st.tuples(st.just("clean"), key_st),
    st.tuples(st.just("dirty_pages"), st.one_of(st.none(), inode_st)),
    st.tuples(st.just("drop"), inode_st),
    st.tuples(st.just("resize"), capacity_st),
    st.tuples(st.just("contains"), key_st),
)


def assert_same(cache: PageCache, ref: PageByPage) -> None:
    assert cache.entries() == list(ref.pages.items())
    assert len(cache) == len(ref.pages)
    assert cache.resident_bytes == len(ref.pages) * PAGE
    assert cache.summary() == ref.summary()
    assert cache.stats.counters == ref.counters
    assert cache.stats.counter_names() == list(ref.counters)


@given(capacity=capacity_st, ops=st.lists(op_st, max_size=60))
@settings(max_examples=300, deadline=None)
def test_pagecache_equals_page_by_page_reference(capacity, ops):
    cache, ref = PageCache(capacity, PAGE), PageByPage(capacity)
    for op in ops:
        assert call(cache, op) == call(ref, op), op
        assert_same(cache, ref)


def test_fill_and_fsync_a_file_across_blocks():
    # a file written dirty across three blocks, then cleaned page by
    # page in LRU order as _fsync does, then re-read: no step may
    # differ from the reference
    cache, ref = PageCache(200 * PAGE, PAGE), PageByPage(200 * PAGE)
    ops = [("insert_range", 1, 10, 150, True),
           ("insert_range", 2, 60, 70, False),
           ("touch_range", 1, 60, 70),
           ("dirty_pages", 1)]
    for op in ops:
        assert call(cache, op) == call(ref, op), op
    ops = [("clean", key) for key in cache.dirty_pages(1)]
    ops += [("dirty_pages", None), ("touch_range", 1, 0, 200),
            ("insert_range", 3, 0, 100, True), ("resize", 64 * PAGE),
            ("drop", 1), ("resize", 0)]
    for op in ops:
        assert call(cache, op) == call(ref, op), op
        assert_same(cache, ref)
