"""Failure-injection tests: crashes, partitions and mid-transfer deaths."""

import pytest

from repro.core import ENOMEM, EINVAL, DodoConfig
from repro.sim import Simulator

from repro.testing import make_backing_file, make_platform, run


@pytest.fixture
def sim():
    return Simulator(seed=91)


def test_manager_crash_makes_mopen_fail_gracefully(sim):
    platform = make_platform(sim)
    lib = platform.runtime()
    fd = make_backing_file(platform)

    def proc():
        platform.mgr.crash()
        desc, err = yield from lib.mopen(64 * 1024, fd, 0)
        return desc, err

    desc, err = run(sim, proc())
    assert (desc, err) == (-1, ENOMEM)


def test_mclose_with_manager_down_returns_einval(sim):
    platform = make_platform(sim)
    lib = platform.runtime()
    fd = make_backing_file(platform)

    def proc():
        desc, err = yield from lib.mopen(64 * 1024, fd, 0)
        assert err == 0
        platform.mgr.crash()
        ret, err = yield from lib.mclose(desc)
        return ret, err

    ret, err = run(sim, proc())
    assert (ret, err) == (-1, EINVAL)  # paper: cannot contact the cmd


def test_manager_recovery_allows_new_allocations(sim):
    platform = make_platform(sim)
    lib = platform.runtime()
    fd = make_backing_file(platform)

    def proc():
        platform.mgr.crash()
        desc, err = yield from lib.mopen(64 * 1024, fd, 0)
        assert err == ENOMEM
        platform.mgr.recover()
        yield sim.timeout(lib.config.refraction_period_s + 0.1)
        desc, err = yield from lib.mopen(64 * 1024, fd, 0)
        return err

    assert run(sim, proc()) == 0


def test_host_crash_mid_transfer_times_out_to_enomem(sim):
    """Crash the hosting workstation *while* an mread is in flight."""
    platform = make_platform(sim, pool_mb=2)
    lib = platform.runtime()
    fd = make_backing_file(platform, size=4 * 1024 * 1024)

    def proc():
        desc, err = yield from lib.mopen(1024 * 1024, fd, 0)
        assert err == 0
        yield from lib.mwrite(desc, 0, 1024 * 1024, b"x" * (1024 * 1024))
        host = lib._regions[desc].remote.host

        def killer():
            yield sim.timeout(0.02)  # mid-transfer (1 MB takes ~100 ms)
            platform.cluster[host].crash()

        sim.process(killer())
        n, err, _ = yield from lib.mread(desc, 0, 1024 * 1024)
        return n, err

    n, err = run(sim, proc())
    assert (n, err) == (-1, ENOMEM)
    assert lib.open_regions == 0  # all descriptors on that host dropped


def test_write_during_host_crash_still_reaches_disk(sim):
    """mwrite's disk leg must survive the remote leg's failure."""
    platform = make_platform(sim)
    lib = platform.runtime()
    fd = make_backing_file(platform)

    def proc():
        desc, err = yield from lib.mopen(256 * 1024, fd, 0)
        assert err == 0
        host = lib._regions[desc].remote.host
        platform.cluster[host].crash()
        n, err = yield from lib.mwrite(desc, 0, 1000, b"d" * 1000)
        assert (n, err) == (-1, ENOMEM)  # remote leg failed
        fh = platform.app.fs.handle(fd)
        _, data = yield platform.app.fs.read(fh, 0, 1000)
        return data

    assert run(sim, proc()) == b"d" * 1000


def test_imd_drain_completes_inflight_read(sim):
    """Graceful shutdown: a transfer racing the reclaim still completes
    (the imd 'completes the ongoing transfers and exits')."""
    platform = make_platform(sim, pool_mb=4)
    lib = platform.runtime()
    fd = make_backing_file(platform, size=4 * 1024 * 1024)
    blob = bytes(i % 256 for i in range(2 * 1024 * 1024))

    def proc():
        desc, err = yield from lib.mopen(len(blob), fd, 0)
        assert err == 0
        yield from lib.mwrite(desc, 0, len(blob), blob)
        host = lib._regions[desc].remote.host
        imd = next(i for i in platform.imds if i.ws.name == host)

        def reclaimer():
            yield sim.timeout(0.01)  # transfer started, not finished
            yield imd.shutdown()

        rp = sim.process(reclaimer())
        n, err, data = yield from lib.mread(desc, 0, len(blob))
        yield rp
        return n, err, data, imd

    n, err, data, imd = run(sim, proc())
    assert (n, err) == (len(blob), 0)
    assert data == blob
    assert imd.exited
    # the drain waited for the in-flight transfer
    assert imd.stats.samples("drain_s")[0] > 0.0


def test_read_after_drain_rejected(sim):
    platform = make_platform(sim)
    lib = platform.runtime()
    fd = make_backing_file(platform)

    def proc():
        desc, err = yield from lib.mopen(64 * 1024, fd, 0)
        host = lib._regions[desc].remote.host
        imd = next(i for i in platform.imds if i.ws.name == host)
        yield imd.shutdown()
        n, err, _ = yield from lib.mread(desc, 0, 1024)
        return n, err

    assert run(sim, proc()) == (-1, ENOMEM)


def test_allocation_skips_crashed_host(sim):
    """The cmd tries another host when its random pick is dead."""
    platform = make_platform(sim, n_hosts=3)
    lib = platform.runtime()
    fd = make_backing_file(platform, size=16 * 1024 * 1024)
    platform.cluster["mem01"].crash()

    def proc():
        descs = []
        for i in range(4):
            desc, err = yield from lib.mopen(256 * 1024, fd,
                                             i * 256 * 1024)
            assert err == 0
            descs.append(desc)
        hosts = {lib._regions[d].remote.host for d in descs}
        return hosts

    hosts = run(sim, proc())
    assert "mem01" not in hosts
    assert hosts <= {"mem00", "mem02"}
    # the dead host was dropped from the IWD after the first timeout
    assert "mem01" not in platform.cmd.iwd


def test_lossy_network_end_to_end(sim):
    """5% frame loss: everything still works, just slower.

    Uses U-Net: its messages are single frames, so 5% loss means 5% of
    chunks retransmitted.  (Over UDP the same loss rate is amplified by
    IP fragmentation — one lost fragment kills a 45-frame datagram — and
    genuinely defeats the blast protocol's retry budget.)
    """
    platform = make_platform(sim, config=DodoConfig(transport="unet"),
                             loss=0.05)
    lib = platform.runtime()
    fd = make_backing_file(platform)
    blob = bytes((7 * i) % 256 for i in range(300_000))

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
