"""Tests for the file system: namespace, data path, readahead, write-back."""

import pytest

from repro.sim import Simulator
from repro.storage import Disk, FileSystem, FsError, FsParams


@pytest.fixture
def sim():
    return Simulator(seed=2)


def make_fs(sim, cache_kb=512, store_data=True, params=None):
    return FileSystem(sim, Disk(sim), cache_bytes=cache_kb * 1024,
                      params=params, store_data=store_data)


def run(sim, gen):
    p = sim.process(gen)
    return sim.run(until=p)


def test_create_open_close(sim):
    fs = make_fs(sim)
    fs.create("f", size=1000)
    assert fs.exists("f")
    fh = fs.open("f")
    assert fh.fd >= 3 and not fh.writable
    fs.close(fh)
    assert fs.handle(fh.fd) is None


def test_create_duplicate_rejected(sim):
    fs = make_fs(sim)
    fs.create("f")
    with pytest.raises(FsError, match="exists"):
        fs.create("f")


def test_open_missing_readonly_fails(sim):
    fs = make_fs(sim)
    with pytest.raises(FsError, match="no such file"):
        fs.open("ghost")


def test_open_missing_rw_creates(sim):
    fs = make_fs(sim)
    fh = fs.open("newfile", "r+")
    assert fs.exists("newfile")
    assert fh.writable


def test_bad_mode_rejected(sim):
    fs = make_fs(sim)
    fs.create("f")
    with pytest.raises(FsError, match="bad mode"):
        fs.open("f", "w")


def test_write_then_read_roundtrip(sim):
    fs = make_fs(sim)
    fh = fs.open("f", "r+")
    blob = bytes(range(256)) * 40  # 10 240 B

    def proc():
        n = yield fs.write(fh, 0, len(blob), blob)
        assert n == len(blob)
        count, data = yield fs.read(fh, 0, len(blob))
        return count, data

    count, data = run(sim, proc())
    assert count == len(blob)
    assert data == blob


def test_write_at_offset_extends_file(sim):
    fs = make_fs(sim)
    fh = fs.open("f", "r+")

    def proc():
        yield fs.write(fh, 5000, 100, b"y" * 100)
        count, data = yield fs.read(fh, 4990, 120)
        return count, data

    count, data = run(sim, proc())
    assert fh.file.size == 5100
    assert count == 110  # only 110 bytes exist past 4990
    assert data[:10] == b"\x00" * 10
    assert data[10:] == b"y" * 100


def test_read_past_eof_returns_zero(sim):
    fs = make_fs(sim)
    fs.create("f", size=100)
    fh = fs.open("f")

    def proc():
        count, _ = yield fs.read(fh, 200, 50)
        return count

    assert run(sim, proc()) == 0


def test_short_read_at_eof(sim):
    fs = make_fs(sim)
    fs.create("f", size=100)
    fh = fs.open("f")

    def proc():
        count, _ = yield fs.read(fh, 80, 50)
        return count

    assert run(sim, proc()) == 20


def test_write_to_readonly_fd_fails(sim):
    fs = make_fs(sim)
    fs.create("f", size=10)
    fh = fs.open("f")

    def proc():
        yield fs.write(fh, 0, 5, b"xxxxx")

    with pytest.raises(FsError, match="not open for writing"):
        run(sim, proc())


def test_io_on_closed_fd_fails(sim):
    fs = make_fs(sim)
    fs.create("f", size=10)
    fh = fs.open("f")
    fs.close(fh)

    def proc():
        yield fs.read(fh, 0, 5)

    with pytest.raises(FsError, match="not open"):
        run(sim, proc())


def test_data_length_mismatch_rejected(sim):
    fs = make_fs(sim)
    fh = fs.open("f", "r+")

    def proc():
        yield fs.write(fh, 0, 10, b"short")

    with pytest.raises(FsError, match="len"):
        run(sim, proc())


def test_partial_page_overwrite_preserves_neighbors(sim):
    """Read-modify-write: bytes around an unaligned write must survive."""
    fs = make_fs(sim)
    fh = fs.open("f", "r+")

    def proc():
        yield fs.write(fh, 0, 8192, b"a" * 8192)
        yield fs.write(fh, 100, 50, b"b" * 50)
        _, data = yield fs.read(fh, 0, 8192)
        return data

    data = run(sim, proc())
    assert data[:100] == b"a" * 100
    assert data[100:150] == b"b" * 50
    assert data[150:] == b"a" * (8192 - 150)


def test_cached_reread_is_fast(sim):
    fs = make_fs(sim, cache_kb=1024)
    fs.create("f", size=64 * 1024)
    fh = fs.open("f")

    def proc():
        t0 = sim.now
        yield fs.read(fh, 0, 64 * 1024)
        cold = sim.now - t0
        t0 = sim.now
        yield fs.read(fh, 0, 64 * 1024)
        warm = sim.now - t0
        return cold, warm

    cold, warm = run(sim, proc())
    assert warm < cold / 5


def test_sequential_scan_triggers_readahead(sim):
    fs = make_fs(sim, cache_kb=2048, store_data=False)
    fs.create("f", size=1 << 20)
    fh = fs.open("f")

    def proc():
        for off in range(0, 1 << 20, 8192):
            yield fs.read(fh, off, 8192)

    run(sim, proc())
    # With batched readahead the disk sees far fewer ops than requests.
    assert fs.disk.stats.count("read.ops") < 40
    assert fh.file.ra_window > 0


def test_random_access_resets_readahead(sim):
    fs = make_fs(sim, store_data=False)
    fs.create("f", size=1 << 20)
    fh = fs.open("f")

    def proc():
        yield fs.read(fh, 0, 8192)
        yield fs.read(fh, 8192, 8192)          # sequential: window grows
        assert fh.file.ra_window > 0
        yield fs.read(fh, 500 * 1024, 8192)    # jump: window reset
        return fh.file.ra_window

    assert run(sim, proc()) == 0


def test_read_fetches_each_missing_run_once(sim):
    fs = make_fs(sim, store_data=False)
    fs.create("f", size=64 * 1024)
    fh = fs.open("f")

    def proc():
        # two random single-page reads (no readahead), then a read over
        # pages 0-7 that misses three runs: 0-1, 3-4 and 6-7
        yield fs.read(fh, 2 * 4096, 4096)
        yield fs.read(fh, 5 * 4096, 4096)
        yield fs.read(fh, 0, 8 * 4096)

    run(sim, proc())
    assert fs.disk.stats.count("read.ops") == 5
    assert fs.disk.stats.count("read.bytes") == 8 * 4096
    assert len(fs.cache) == 8


def test_eviction_writes_back_dirty_pages(sim):
    fs = make_fs(sim, cache_kb=64, store_data=False)  # tiny cache
    fh = fs.open("f", "r+")

    def proc():
        for off in range(0, 256 * 1024, 4096):
            yield fs.write(fh, off, 4096, None)

    run(sim, proc())
    assert fs.disk.stats.count("write.ops") > 0
    assert fs.stats.count("writeback.bytes") > 0


def test_fsync_flushes_all_dirty(sim):
    fs = make_fs(sim, cache_kb=1024, store_data=False)
    fh = fs.open("f", "r+")

    def proc():
        yield fs.write(fh, 0, 32 * 1024, None)
        before = fs.disk.stats.count("write.bytes")
        yield fs.fsync(fh)
        return before, fs.disk.stats.count("write.bytes")

    before, after = run(sim, proc())
    assert before == 0          # write-back: nothing hit the disk yet
    assert after >= 32 * 1024   # fsync pushed it all
    assert fs.cache.dirty_pages(fh.inode) == []


def test_fsync_idempotent(sim):
    fs = make_fs(sim, store_data=False)
    fh = fs.open("f", "r+")

    def proc():
        yield fs.write(fh, 0, 8192, None)
        yield fs.fsync(fh)
        mid = fs.disk.stats.count("write.bytes")
        yield fs.fsync(fh)
        return mid, fs.disk.stats.count("write.bytes")

    mid, after = run(sim, proc())
    assert mid == after  # second fsync had nothing to write


def test_write_during_fsync_writeback_stays_dirty(sim):
    """A page rewritten while fsync's write-back of it is on the disk
    keeps its dirty bit, so its new contents reach the disk later."""
    fs = make_fs(sim, cache_kb=1024, store_data=False)
    fh = fs.open("f", "r+")
    page = fs.params.page_size
    seen = {}

    def syncer():
        yield fs.write(fh, 0, page, None)
        yield fs.fsync(fh)
        seen["after_fsync"] = fs.cache.dirty_pages()
        seen["written"] = fs.disk.stats.count("write.bytes")
        yield fs.fsync(fh)
        seen["resynced"] = fs.disk.stats.count("write.bytes")

    def rewriter():
        yield sim.timeout(1e-3)
        yield fs.write(fh, 0, page, None)
        seen["after_rewrite"] = fs.cache.dirty_pages()

    sim.process(rewriter())
    run(sim, syncer())
    assert seen["after_rewrite"] == [(fh.inode, 0)]
    assert seen["after_fsync"] == [(fh.inode, 0)]
    assert seen["resynced"] == 2 * seen["written"] > 0
    assert fs.cache.dirty_pages() == []


def test_unlink_drops_cache_pages(sim):
    fs = make_fs(sim, store_data=False)
    fs.create("f", size=16 * 1024)
    fh = fs.open("f")

    def proc():
        yield fs.read(fh, 0, 16 * 1024)

    run(sim, proc())
    assert len(fs.cache) > 0
    fs.unlink("f")
    assert len(fs.cache) == 0
    with pytest.raises(FsError):
        fs.unlink("f")


def test_fragmented_layout_has_many_extents(sim):
    params = FsParams(extent_bytes=64 * 1024, extent_gap=1 << 20)
    fs = make_fs(sim, store_data=False, params=params)
    f = fs.create("frag", size=1 << 20)
    assert len(f.extents) == 16
    # extents are separated by gaps (not contiguous on disk)
    gaps = [f.extents[i + 1].disk_off - (f.extents[i].disk_off +
                                         f.extents[i].length)
            for i in range(len(f.extents) - 1)]
    assert any(g > 0 for g in gaps)


def test_fragmented_sequential_slower_than_contiguous(sim):
    """Fragmentation must cost seeks — the dmine baseline effect."""
    def scan_time(params):
        s = Simulator(seed=3)
        fs = FileSystem(s, Disk(s), cache_bytes=256 * 1024, params=params,
                        store_data=False)
        fs.create("f", size=2 << 20)
        fh = fs.open("f")

        def proc():
            for off in range(0, 2 << 20, 128 * 1024):
                yield fs.read(fh, off, 128 * 1024)

        p = s.process(proc())
        s.run(until=p)
        return s.now

    t_contig = scan_time(None)
    t_gap = scan_time(FsParams(extent_bytes=128 * 1024, extent_gap=8 << 20))
    t_scatter = scan_time(FsParams(extent_bytes=128 * 1024, scatter=True))
    assert t_gap > t_contig * 1.2
    assert t_scatter > t_contig * 1.8


def test_scatter_requires_extent_bytes(sim):
    fs = make_fs(sim, store_data=False, params=FsParams(scatter=True))
    with pytest.raises(FsError, match="extent_bytes"):
        fs.create("f", size=1000)


def test_scattered_data_roundtrip(sim):
    """Data integrity must hold regardless of on-disk layout."""
    fs = make_fs(sim, params=FsParams(extent_bytes=8 * 1024, scatter=True))
    fh = fs.open("f", "r+")
    blob = bytes(i * 7 % 256 for i in range(40_000))

    def proc():
        yield fs.write(fh, 0, len(blob), blob)
        _, data = yield fs.read(fh, 0, len(blob))
        return data

    assert run(sim, proc()) == blob


def test_inodes_are_unique(sim):
    fs = make_fs(sim)
    a = fs.create("a")
    b = fs.create("b")
    assert a.inode != b.inode


def test_zero_byte_ops(sim):
    fs = make_fs(sim)
    fh = fs.open("f", "r+")

    def proc():
        n = yield fs.write(fh, 0, 0, b"")
        count, _ = yield fs.read(fh, 0, 0)
        return n, count

    assert run(sim, proc()) == (0, 0)


def test_negative_offset_rejected(sim):
    fs = make_fs(sim)
    fs.create("f", size=10)
    fh = fs.open("f")

    def proc():
        yield fs.read(fh, -1, 5)

    with pytest.raises(FsError, match="bad read range"):
        run(sim, proc())
