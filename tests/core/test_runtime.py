"""End-to-end tests of libdodo: the mopen/mread/mwrite/mclose/msync API."""

import pytest

from repro.core import EINVAL, ENOMEM, DodoConfig
from repro.core.config import KEEPALIVE_INTERVAL_S, KEEPALIVE_THRESHOLD_S
from repro.sim import Simulator

from repro.testing import make_backing_file, make_platform, run


@pytest.fixture
def sim():
    return Simulator(seed=21)


@pytest.fixture
def platform(sim):
    return make_platform(sim)


@pytest.fixture
def lib(platform):
    return platform.runtime()


def test_mopen_returns_descriptor(sim, platform, lib):
    fd = make_backing_file(platform)

    def proc():
        return (yield from lib.mopen(64 * 1024, fd, 0))

    desc, err = run(sim, proc())
    assert err == 0 and desc >= 0
    assert lib.open_regions == 1


def test_mopen_invalid_args(sim, platform, lib):
    fd = make_backing_file(platform)
    ro_fd = platform.app.fs.open("data", "r").fd

    def proc():
        results = []
        results.append((yield from lib.mopen(0, fd, 0)))        # len < 1
        results.append((yield from lib.mopen(1024, fd, -4)))    # offset < 0
        results.append((yield from lib.mopen(1024, 999, 0)))    # bad fd
        results.append((yield from lib.mopen(1024, ro_fd, 0)))  # read-only
        return results

    for ret, err in run(sim, proc()):
        assert ret == -1 and err == EINVAL


def test_mwrite_then_mread_roundtrip(sim, platform, lib):
    fd = make_backing_file(platform)
    blob = bytes(range(256)) * 256  # 64 KB

    def proc():
        desc, err = yield from lib.mopen(len(blob), fd, 0)
        assert err == 0
        n, err = yield from lib.mwrite(desc, 0, len(blob), blob)
        assert (n, err) == (len(blob), 0)
        n, err, data = yield from lib.mread(desc, 0, len(blob))
        return n, err, data

    n, err, data = run(sim, proc())
    assert (n, err) == (len(blob), 0)
    assert data == blob


def test_mwrite_also_updates_backing_file(sim, platform, lib):
    """Writes propagate to disk in parallel with the remote copy."""
    fd = make_backing_file(platform)
    blob = b"dodo-was-here" * 100

    def proc():
        desc, _ = yield from lib.mopen(len(blob), fd, 4096)
        yield from lib.mwrite(desc, 0, len(blob), blob)
        fh = platform.app.fs.handle(fd)
        _, data = yield platform.app.fs.read(fh, 4096, len(blob))
        return data

    assert run(sim, proc()) == blob


def test_mread_at_offset_and_short_read(sim, platform, lib):
    fd = make_backing_file(platform)
    blob = bytes(i % 251 for i in range(10_000))

    def proc():
        desc, _ = yield from lib.mopen(len(blob), fd, 0)
        yield from lib.mwrite(desc, 0, len(blob), blob)
        n1, _, d1 = yield from lib.mread(desc, 5000, 1000)
        # short read: only 2,000 bytes exist past offset 8,000
        n2, _, d2 = yield from lib.mread(desc, 8000, 99_999)
        return n1, d1, n2, d2

    n1, d1, n2, d2 = run(sim, proc())
    assert n1 == 1000 and d1 == blob[5000:6000]
    assert n2 == 2000 and d2 == blob[8000:]


def test_mread_invalid_args(sim, platform, lib):
    fd = make_backing_file(platform)

    def proc():
        desc, _ = yield from lib.mopen(4096, fd, 0)
        bad_offset = yield from lib.mread(desc, 5000, 10)
        neg_offset = yield from lib.mread(desc, -1, 10)
        bad_desc = yield from lib.mread(12345, 0, 10)
        return bad_offset, neg_offset, bad_desc

    bad_offset, neg_offset, bad_desc = run(sim, proc())
    assert bad_offset[:2] == (-1, EINVAL)
    assert neg_offset[:2] == (-1, EINVAL)
    assert bad_desc[:2] == (-1, ENOMEM)  # paper: invalid desc -> ENOMEM


def test_mclose_frees_region(sim, platform, lib):
    fd = make_backing_file(platform)

    def proc():
        desc, _ = yield from lib.mopen(32 * 1024, fd, 0)
        ret, err = yield from lib.mclose(desc)
        again = yield from lib.mclose(desc)
        return (ret, err), again

    first, again = run(sim, proc())
    assert first == (0, 0)
    assert again == (-1, EINVAL)
    assert lib.open_regions == 0
    # the imd got its memory back
    assert sum(i.allocator.used_bytes for i in platform.imds) == 0


def test_msync_flushes_backing_file(sim, platform, lib):
    fd = make_backing_file(platform)
    disk = platform.app.disk

    def proc():
        desc, _ = yield from lib.mopen(64 * 1024, fd, 0)
        yield from lib.mwrite(desc, 0, 64 * 1024, b"z" * 64 * 1024)
        before = disk.stats.count("write.bytes")
        ret, err = yield from lib.msync(desc)
        return ret, err, before, disk.stats.count("write.bytes")

    ret, err, before, after = run(sim, proc())
    assert (ret, err) == (0, 0)
    assert after > before  # dirty cache pages hit the disk


def test_alloc_failure_sets_refraction(sim, platform, lib):
    """Exhausting remote memory -> ENOMEM, then allocation attempts are
    suppressed for the refraction period without contacting the cmd."""
    fd = make_backing_file(platform, size=32 * 1024 * 1024)
    pool_total = platform.remote_pool_total

    def proc():
        descs = []
        off = 0
        # fill all of remote memory with 1 MB regions
        while True:
            desc, err = yield from lib.mopen(1024 * 1024, fd, off)
            if err != 0:
                break
            descs.append(desc)
            off += 1024 * 1024
        assert len(descs) == pool_total // (1024 * 1024)
        assert lib.in_refraction()
        calls_before = platform.cmd.stats.count("alloc.enomem")
        desc, err = yield from lib.mopen(1024 * 1024, fd, off + 2 ** 24)
        assert (desc, err) == (-1, ENOMEM)
        # the refraction skip never reached the manager
        assert platform.cmd.stats.count("alloc.enomem") == calls_before
        yield sim.timeout(lib.config.refraction_period_s + 0.1)
        assert not lib.in_refraction()
        return True

    assert run(sim, proc()) is True


def test_region_reuse_across_runtime_instances(sim, platform):
    """The dmine pattern: a second 'run' re-finds regions left behind by
    a first run that detached with persist=True."""
    fd = make_backing_file(platform)
    blob = b"persistent!" * 1000

    def run1():
        lib1 = platform.runtime()
        desc, err = yield from lib1.mopen(len(blob), fd, 0)
        assert err == 0
        yield from lib1.mwrite(desc, 0, len(blob), blob)
        yield from lib1.detach(persist=True)

    def run2():
        lib2 = platform.runtime()
        desc, err = yield from lib2.mopen(len(blob), fd, 0)
        assert err == 0
        n, err, data = yield from lib2.mread(desc, 0, len(blob))
        return n, err, data

    run(sim, run1())
    n, err, data = run(sim, run2())
    assert (n, err) == (len(blob), 0)
    assert data == blob
    # no new allocation happened on the second run: the region was reused
    assert platform.cmd.stats.count("alloc.reused") \
        + platform.cmd.stats.count("check.hit") >= 1


def test_nonpersistent_detach_frees_regions(sim, platform):
    fd = make_backing_file(platform)

    def proc():
        lib1 = platform.runtime()
        yield from lib1.mopen(64 * 1024, fd, 0)
        yield from lib1.detach(persist=False)

    run(sim, proc())
    assert sum(i.allocator.used_bytes for i in platform.imds) == 0


def test_host_crash_drops_all_descriptors_on_that_node(sim, platform, lib):
    """Section 3.1: one failed access drops every descriptor on the node."""
    fd = make_backing_file(platform, size=32 * 1024 * 1024)

    def proc():
        descs = []
        off = 0
        while len(descs) < 6:  # spread over the 3 imd hosts
            desc, err = yield from lib.mopen(512 * 1024, fd, off)
            assert err == 0
            descs.append(desc)
            off += 512 * 1024
        # find which host each region landed on, crash one of them
        by_host = {}
        for d in descs:
            by_host.setdefault(lib._regions[d].remote.host, []).append(d)
        victim_host, victims = max(by_host.items(), key=lambda kv: len(kv[1]))
        platform.cluster[victim_host].crash()
        n, err, _ = yield from lib.mread(victims[0], 0, 1024)
        assert (n, err) == (-1, ENOMEM)
        # every descriptor on the crashed host is gone, others survive
        for d in victims:
            assert d not in lib._regions
        survivors = [d for d in descs if d not in victims]
        for d in survivors:
            assert d in lib._regions
        if survivors:
            n, err, _ = yield from lib.mread(survivors[0], 0, 1024)
            assert err == 0
        return True

    assert run(sim, proc()) is True


def test_mread_after_imd_shutdown_returns_enomem(sim, platform, lib):
    fd = make_backing_file(platform)

    def proc():
        desc, _ = yield from lib.mopen(64 * 1024, fd, 0)
        host = lib._regions[desc].remote.host
        imd = next(i for i in platform.imds if i.ws.name == host)
        yield imd.shutdown()
        n, err, _ = yield from lib.mread(desc, 0, 1024)
        return n, err

    n, err = run(sim, proc())
    assert (n, err) == (-1, ENOMEM)


def test_keepalive_reclaims_crashed_client(sim, platform):
    """A client that stops echoing keep-alives loses its regions."""
    fd = make_backing_file(platform)

    def proc():
        lib1 = platform.runtime()
        desc, err = yield from lib1.mopen(256 * 1024, fd, 0)
        assert err == 0
        # simulate a client crash: the echo server goes away, no detach
        lib1._echo.stop()
        return desc

    run(sim, proc())
    assert sum(i.allocator.used_bytes for i in platform.imds) > 0
    sim.run(until=sim.now + KEEPALIVE_THRESHOLD_S
            + 4 * KEEPALIVE_INTERVAL_S)
    assert sum(i.allocator.used_bytes for i in platform.imds) == 0
    assert platform.cmd.stats.count("clients_expired") == 1


def test_mwrite_invalid_descriptor(sim, platform, lib):
    def proc():
        return (yield from lib.mwrite(777, 0, 10, b"x" * 10))

    assert run(sim, proc()) == (-1, ENOMEM)


def test_zero_length_ops(sim, platform, lib):
    fd = make_backing_file(platform)

    def proc():
        desc, _ = yield from lib.mopen(4096, fd, 0)
        w = yield from lib.mwrite(desc, 0, 0, b"")
        r = yield from lib.mread(desc, 4096, 100)  # at end: short read of 0
        return w, r

    w, r = run(sim, proc())
    assert w == (0, 0)
    assert r[0] == 0 and r[1] == 0


def test_unet_transport_roundtrip(sim):
    platform = make_platform(sim, config=DodoConfig(transport="unet"))
    lib = platform.runtime()
    fd = make_backing_file(platform)
    blob = bytes(i % 256 for i in range(100_000))

    def proc():
        desc, err = yield from lib.mopen(len(blob), fd, 0)
        assert err == 0
        yield from lib.mwrite(desc, 0, len(blob), blob)
        n, err, data = yield from lib.mread(desc, 0, len(blob))
        return n, err, data

    n, err, data = run(sim, proc())
    assert (n, err) == (len(blob), 0)
    assert data == blob


def test_roundtrip_under_packet_loss(sim):
    platform = make_platform(sim, loss=0.01)
    lib = platform.runtime()
    fd = make_backing_file(platform)
    blob = bytes((i * 13) % 256 for i in range(200_000))

    def proc():
        desc, err = yield from lib.mopen(len(blob), fd, 0)
        assert err == 0
        n, err = yield from lib.mwrite(desc, 0, len(blob), blob)
        assert err == 0
        n, err, data = yield from lib.mread(desc, 0, len(blob))
        return n, err, data

    n, err, data = run(sim, proc())
    assert (n, err) == (len(blob), 0)
    assert data == blob
