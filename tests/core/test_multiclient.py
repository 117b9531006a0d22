"""Tests for the multi-client extension (paper Section 4.3 footnote).

With ``multi_client_keys=True`` region keys include the client identity,
so two applications using the same backing file get *separate* regions;
with the paper's default single-client keys they share one.
"""

import pytest

from repro.core import DodoConfig, DodoRuntime
from repro.exp.platform import MB, Platform, PlatformParams
from repro.sim import Simulator

from repro.testing import make_backing_file, run


def build(sim, multi_client):
    params = PlatformParams(
        n_memory_hosts=3, imd_pool_bytes=2 * MB,
        local_cache_bytes=256 * 1024, app_fs_cache_dodo=1 * MB,
        disk_capacity_bytes=256 * MB)
    return Platform(sim, params, dodo=True,
                    config=DodoConfig(multi_client_keys=multi_client))


def test_single_client_keys_share_regions():
    sim = Simulator(seed=81)
    platform = build(sim, multi_client=False)
    fd = make_backing_file(platform)
    lib1, lib2 = platform.runtime(), platform.runtime()

    def proc():
        d1, err = yield from lib1.mopen(64 * 1024, fd, 0)
        assert err == 0
        yield from lib1.mwrite(d1, 0, 11, b"from-client")
        d2, err = yield from lib2.mopen(64 * 1024, fd, 0)
        assert err == 0
        n, err, data = yield from lib2.mread(d2, 0, 11)
        return data

    # same (inode, offset) key: client 2 sees client 1's bytes
    assert run(sim, proc()) == b"from-client"
    assert platform.cmd.stats.count("alloc.placed") == 1


def test_multi_client_keys_isolate_regions():
    sim = Simulator(seed=82)
    platform = build(sim, multi_client=True)
    fd = make_backing_file(platform)
    lib1, lib2 = platform.runtime(), platform.runtime()

    def proc():
        d1, err = yield from lib1.mopen(64 * 1024, fd, 0)
        assert err == 0
        yield from lib1.mwrite(d1, 0, 7, b"private")
        d2, err = yield from lib2.mopen(64 * 1024, fd, 0)
        assert err == 0
        n, err, data = yield from lib2.mread(d2, 0, 7)
        return data

    data = run(sim, proc())
    # client 2's region is fresh (zero-filled), not client 1's bytes
    assert data == b"\x00" * 7
    assert platform.cmd.stats.count("alloc.placed") == 2


def test_multi_client_detach_only_reclaims_own_regions():
    sim = Simulator(seed=83)
    platform = build(sim, multi_client=True)
    fd = make_backing_file(platform)
    lib1, lib2 = platform.runtime(), platform.runtime()

    def proc():
        d1, _ = yield from lib1.mopen(64 * 1024, fd, 0)
        d2, _ = yield from lib2.mopen(64 * 1024, fd, 0)
        yield from lib2.mwrite(d2, 0, 4, b"keep")
        yield from lib1.detach(persist=False)  # frees only lib1's region
        n, err, data = yield from lib2.mread(d2, 0, 4)
        return n, err, data

    n, err, data = run(sim, proc())
    assert (n, err) == (4, 0)
    assert data == b"keep"
    used = sum(i.allocator.used_bytes for i in platform.imds)
    assert used == 64 * 1024  # lib2's region survives alone


def test_multi_client_persistence_is_per_client():
    sim = Simulator(seed=84)
    platform = build(sim, multi_client=True)
    fd = make_backing_file(platform)

    def writer():
        lib = platform.runtime()
        client_id = lib.client_id
        d, _ = yield from lib.mopen(32 * 1024, fd, 0)
        yield from lib.mwrite(d, 0, 9, b"persisted")
        yield from lib.detach(persist=True)
        return client_id

    run(sim, writer())
    # a *different* client cannot see the persisted region under
    # multi-client keys (its key includes the original client id)
    def reader():
        lib = platform.runtime()
        d, err = yield from lib.mlookup(32 * 1024, fd, 0)
        return d, err

    d, err = run(sim, reader())
    assert d == -1  # not found under the new client's key
