"""Additional runtime-library edge cases."""

import pytest

from repro.core import EINVAL, EIO, ENOMEM, DodoConfig
from repro.sim import Simulator

from repro.testing import make_backing_file, make_platform, run


@pytest.fixture
def sim():
    return Simulator(seed=151)


@pytest.fixture
def platform(sim):
    return make_platform(sim)


@pytest.fixture
def lib(platform):
    return platform.runtime()


def test_mwrite_backing_fd_closed_is_eio(sim, platform, lib):
    fd = make_backing_file(platform)

    def proc():
        desc, err = yield from lib.mopen(64 * 1024, fd, 0)
        assert err == 0
        fh = platform.app.fs.handle(fd)
        platform.app.fs.close(fh)  # app closed the backing file
        return (yield from lib.mwrite(desc, 0, 10, b"x" * 10))

    assert run(sim, proc()) == (-1, EIO)


def test_msync_backing_fd_closed_is_einval(sim, platform, lib):
    fd = make_backing_file(platform)

    def proc():
        desc, err = yield from lib.mopen(64 * 1024, fd, 0)
        platform.app.fs.close(platform.app.fs.handle(fd))
        return (yield from lib.msync(desc))

    assert run(sim, proc()) == (-1, EINVAL)


def test_mread_data_none_in_metadata_mode(sim):
    platform = make_platform(sim, config=DodoConfig(store_payload=False))
    lib = platform.runtime()
    fd = make_backing_file(platform)

    def proc():
        desc, err = yield from lib.mopen(64 * 1024, fd, 0)
        assert err == 0
        n, err, data = yield from lib.mread(desc, 0, 8192)
        return n, err, data

    n, err, data = run(sim, proc())
    assert (n, err) == (8192, 0)
    assert data is None  # sizes only, no payload


def test_mwrite_negative_length_einval(sim, platform, lib):
    fd = make_backing_file(platform)

    def proc():
        desc, _ = yield from lib.mopen(4096, fd, 0)
        return (yield from lib.mwrite(desc, 0, -5, None))

    assert run(sim, proc()) == (-1, EINVAL)


def test_fresh_region_reads_zeros(sim, platform, lib):
    """An mopen'd region never written reads as zero fill (the imd pool
    is zero-initialized)."""
    fd = make_backing_file(platform)

    def proc():
        desc, _ = yield from lib.mopen(4096, fd, 0)
        n, err, data = yield from lib.mread(desc, 0, 100)
        return n, err, data

    n, err, data = run(sim, proc())
    assert (n, err) == (100, 0)
    assert data == b"\x00" * 100


def test_two_regions_same_file_different_offsets(sim, platform, lib):
    fd = make_backing_file(platform, size=1024 * 1024)

    def proc():
        d1, _ = yield from lib.mopen(64 * 1024, fd, 0)
        d2, _ = yield from lib.mopen(64 * 1024, fd, 64 * 1024)
        assert d1 != d2
        yield from lib.mwrite(d1, 0, 3, b"one")
        yield from lib.mwrite(d2, 0, 3, b"two")
        _, _, a = yield from lib.mread(d1, 0, 3)
        _, _, b = yield from lib.mread(d2, 0, 3)
        return a, b

    a, b = run(sim, proc())
    assert (a, b) == (b"one", b"two")


def test_regions_spread_across_hosts(sim):
    """Random placement: enough regions land on more than one imd."""
    platform = make_platform(sim, n_hosts=3, pool_mb=4)
    lib = platform.runtime()
    fd = make_backing_file(platform, size=16 * 1024 * 1024)

    def proc():
        hosts = set()
        for i in range(10):
            desc, err = yield from lib.mopen(256 * 1024, fd,
                                             i * 256 * 1024)
            assert err == 0
            hosts.add(lib._regions[desc].remote.host)
        return hosts

    assert len(run(sim, proc())) >= 2


def test_mlookup_does_not_allocate(sim, platform, lib):
    fd = make_backing_file(platform)

    def proc():
        d, err = yield from lib.mlookup(4096, fd, 0)
        return d, err, platform.cmd.stats.count("alloc.placed")

    d, err, placed = run(sim, proc())
    assert (d, err) == (-1, ENOMEM)
    assert placed == 0


def test_mlookup_validations(sim, platform, lib):
    fd = make_backing_file(platform)

    def proc():
        bad_fd = yield from lib.mlookup(10, 9999, 0)
        bad_len = yield from lib.mlookup(0, fd, 0)
        return bad_fd, bad_len

    bad_fd, bad_len = run(sim, proc())
    assert bad_fd == (-1, EINVAL)
    assert bad_len == (-1, EINVAL)


def test_detach_is_idempotent_and_final(sim, platform):
    lib = platform.runtime()
    fd = make_backing_file(platform)

    def proc():
        yield from lib.mopen(4096, fd, 0)
        yield from lib.detach(persist=False)
        yield from lib.detach(persist=False)  # harmless second call
        return lib.detached, lib.open_regions

    detached, open_regions = run(sim, proc())
    assert detached and open_regions == 0
