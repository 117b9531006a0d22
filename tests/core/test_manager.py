"""Direct unit tests for the central manager's directories and handlers."""

import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CentralManager, DodoConfig
from repro.core import manager as manager_module
from repro.core.config import CacheConfig
from repro.core.manager import (ClientState, IdleDirectory, IwdEntry,
                                RdEntry, _unwire_key, _wire_key)
from repro.core.descriptors import RegionKey, RegionStruct
from repro.core.shard import ShardInfo, ShardMap
from repro.cluster.workstation import MB, Workstation
from repro.net import Network
from repro.net.rpc import RpcTimeout
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=111)


@pytest.fixture
def cmd(sim):
    net = Network(sim)
    ws = Workstation(sim, "mgr", net)
    return CentralManager(sim, ws, DodoConfig(store_payload=False))


SRC = ("app", 12345)


def test_key_wire_roundtrip():
    for key in (RegionKey(7, 0), RegionKey(9, 4096, client="a#1")):
        assert _unwire_key(_wire_key(key)) == key


def test_imd_register_updates_iwd(cmd):
    r = cmd._h_imd_register({"host": "w0", "pool_bytes": 4 * MB,
                             "epoch": 3, "largest_free": 4 * MB,
                             "port": 6001}, SRC)
    assert r["ok"]
    assert cmd.iwd["w0"].epoch == 3
    assert cmd.iwd["w0"].largest_free == 4 * MB


def test_notify_busy_removes_from_iwd(cmd):
    cmd._h_imd_register({"host": "w0", "pool_bytes": 1, "epoch": 1,
                         "largest_free": 1, "port": 6001}, SRC)
    cmd._h_notify_busy({"host": "w0"}, SRC)
    assert "w0" not in cmd.iwd
    # unknown host: harmless
    cmd._h_notify_busy({"host": "nope"}, SRC)


def test_check_alloc_miss(cmd):
    r = cmd._h_check_alloc({"key": [1, 0, None]}, SRC)
    assert not r["ok"]
    assert cmd.stats.count("check.miss") == 1


def seed_region(cmd, host="w0", epoch=1, inode=5, offset=0, length=4096,
                owner="app#1"):
    cmd.iwd[host] = IwdEntry(host=host, epoch=epoch, largest_free=1 * MB,
                             port=6001)
    key = RegionKey(inode, offset)
    cmd.rd[key] = RdEntry(struct=RegionStruct(
        host=host, pool_offset=0, length=length, epoch=epoch), owner=owner)
    return key


def test_check_alloc_hit(cmd):
    key = seed_region(cmd)
    r = cmd._h_check_alloc({"key": [key.inode, key.offset, None]}, SRC)
    assert r["ok"]
    assert r["region"]["host"] == "w0"
    assert cmd.stats.count("check.hit") == 1


def test_check_alloc_stale_epoch_deletes(cmd):
    key = seed_region(cmd, epoch=1)
    cmd.iwd["w0"].epoch = 2  # imd restarted since the allocation
    r = cmd._h_check_alloc({"key": [key.inode, key.offset, None]}, SRC)
    assert not r["ok"]
    assert key not in cmd.rd
    assert cmd.stats.count("check.stale") == 1


def test_check_alloc_host_gone_deletes(cmd):
    key = seed_region(cmd)
    del cmd.iwd["w0"]
    r = cmd._h_check_alloc({"key": [key.inode, key.offset, None]}, SRC)
    assert not r["ok"]
    assert key not in cmd.rd


def test_client_tracking_on_calls(cmd):
    cmd._h_check_alloc({"key": [1, 0, None], "client": "app#9",
                        "echo_port": 9}, SRC)
    assert "app#9" in cmd.clients
    assert cmd.clients["app#9"].addr == "app"
    assert cmd.clients["app#9"].echo_port == 9


def test_alloc_with_no_candidates_is_enomem(sim, cmd):
    def proc():
        reply = yield sim.process(
            cmd._h_alloc({"key": [1, 0, None], "length": 4096}, SRC))
        return reply

    p = sim.process(proc())
    reply = sim.run(until=p)
    assert not reply["ok"]
    assert cmd.stats.count("alloc.enomem") == 1


def test_alloc_skips_hosts_with_small_blocks(sim, cmd):
    cmd.iwd["tiny"] = IwdEntry(host="tiny", epoch=1, largest_free=100,
                               port=6001)

    def proc():
        return (yield sim.process(
            cmd._h_alloc({"key": [1, 0, None], "length": 4096}, SRC)))

    reply = sim.run(until=sim.process(proc()))
    assert not reply["ok"]  # only candidate cannot fit the request


def test_alloc_reuses_existing_valid_region(sim, cmd):
    key = seed_region(cmd, length=8192)

    def proc():
        return (yield sim.process(cmd._h_alloc(
            {"key": [key.inode, key.offset, None], "length": 4096,
             "client": "app#2", "echo_port": 2}, SRC)))

    reply = sim.run(until=sim.process(proc()))
    assert reply["ok"]
    assert reply["region"]["length"] == 8192  # the existing region
    assert cmd.stats.count("alloc.reused") == 1
    assert cmd.rd[key].owner == "app#2"  # ownership follows the caller


def test_free_missing_region(sim, cmd):
    def proc():
        return (yield sim.process(
            cmd._h_free({"key": [1, 0, None]}, SRC)))

    reply = sim.run(until=sim.process(proc()))
    assert not reply["ok"]
    assert cmd.stats.count("free.miss") == 1


def test_detach_persist_orphans_regions(sim, cmd):
    key = seed_region(cmd, owner="app#1")

    def proc():
        return (yield sim.process(cmd._h_client_detach(
            {"client": "app#1", "persist": True}, SRC)))

    reply = sim.run(until=sim.process(proc()))
    assert reply["ok"] and reply["freed"] == 0
    assert cmd.rd[key].owner is None  # orphaned, exempt from keep-alive
    assert "app#1" not in cmd.clients


def test_stop_halts_keepalive_and_server(sim, cmd):
    cmd.stop()
    sim.run(until=sim.now + 1.0)
    assert not cmd._keepalive.is_alive


def test_migration_drops_entries_a_refused_destination_evicted(sim):
    """A destination imd may evict regions trying to make room and still
    refuse the migration's alloc: the directory must forget the evicted
    regions, as ``_h_alloc`` does, or it vouches for unbacked memory."""
    ws = Workstation(sim, "mgr", Network(sim))
    cmd = CentralManager(sim, ws, DodoConfig(
        store_payload=False,
        cache=CacheConfig(policy="lru", migration=True)))
    hot = seed_region(cmd, host="w0", inode=1)
    cold = seed_region(cmd, host="w1", inode=2)
    calls = []

    def fake_imd_call(iwd, method, args):
        calls.append((iwd.host, method))
        yield from ()
        return {"ok": False, "reason": "no space", "evicted": [0],
                "largest_free": 0}

    cmd._imd_call = fake_imd_call
    moved = sim.run(until=sim.process(cmd._migrate_one(
        cmd.iwd["w0"], hot, 0, 4096, heat=3)))
    assert moved is False
    assert calls == [("w1", "alloc")]
    assert cold not in cmd.rd
    assert hot in cmd.rd
    assert cmd.stats.count("cache.entries_evicted") == 1


def test_snapshot_round_trip_rebuilds_the_directory(sim):
    """A backup that installs the primary's snapshot holds the primary's
    rd, clients and IWD, in the same order and with the same index, and
    so does a backup that replayed the shipped log from empty."""
    smap = ShardMap([ShardInfo(0, "mgr", "bak")])
    net = Network(sim)
    cfg = DodoConfig(store_payload=False)
    primary = CentralManager(sim, Workstation(sim, "mgr", net), cfg,
                             shard_map=smap, peer="bak")
    backups = [CentralManager(sim, Workstation(sim, name, net), cfg,
                              shard_map=smap, role="backup")
               for name in ("bak", "bak2")]
    # every table in sorted order, so the primary's own order is the
    # snapshot's; deletes and a re-registration exercise the log
    for host, epoch, free in (("w0", 1, 4096), ("w1", 2, 1 * MB),
                              ("w2", 1, 0), ("w3", 1, 8192)):
        primary._iwd_set(IwdEntry(host, epoch, free, 6001))
    primary._iwd_set(IwdEntry("w1", 3, 100, 6001))
    primary._iwd_del("w3")
    for cid, port in (("app#1", 11), ("app#2", 12), ("app#3", 13)):
        primary._client_set(cid, ClientState(addr="app", echo_port=port,
                                             last_echo=sim.now))
    primary._client_del("app#3")
    for key, host, owner in ((RegionKey(1, 0), "w0", "app#1"),
                             (RegionKey(1, 4096), "w1", None),
                             (RegionKey(1, 4096, client="app#2"), "w1",
                              "app#2"),
                             (RegionKey(2, 0), "w2", "app#1"),
                             (RegionKey(3, 0), "w0", None)):
        primary._rd_set(key, RdEntry(struct=RegionStruct(
            host=host, pool_offset=key.offset, length=4096, epoch=1,
            gen=key.inode), owner=owner))
    primary._rd_del(RegionKey(3, 0))

    backups[0]._install_snapshot(primary._snapshot())
    log = list(primary._repl_pending)
    assert backups[1]._h_repl_apply(
        {"seq_from": 0, "records": log}, SRC) == {"ok": True}

    def tables(mgr):
        return (list(mgr.rd.items()), list(mgr.clients.items()),
                list(mgr.iwd.items()), list(mgr.iwd.index))

    assert tables(backups[0]) == tables(primary)
    assert tables(backups[1]) == tables(primary)
    assert [e.owner for e in primary.rd.values()] \
        == ["app#1", None, "app#2", "app#1"]


# -- the IWD free-space index ---------------------------------------------------

HOSTS = st.sampled_from([f"w{i}" for i in range(6)])
FREES = st.sampled_from([0, 100, 4096, 8192, 1 * MB])
#: alloc lengths: every host fits some, only some hosts or none fit others
LENGTHS = st.sampled_from([1, 100, 4096, 8192, 64 * 1024, 2 * MB])
IWD_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["register", "hint", "write",
                               "record_set"]), HOSTS, FREES),
    st.tuples(st.sampled_from(["busy", "delete", "record_del"]), HOSTS),
    st.tuples(st.just("snapshot"),
              st.lists(st.tuples(HOSTS, FREES), unique_by=lambda t: t[0],
                       max_size=6)),
    st.tuples(st.just("alloc"), LENGTHS)), max_size=40)


class ScanDirectory(IdleDirectory):
    """The reference: every allocation scans every entry."""

    __slots__ = ()

    def fitting(self, length):
        return [h for h, e in self.items() if e.largest_free >= length]


class FakeImds:
    """Stands in for ``rpc.call``, the manager's one way to call an imd,
    so imd calls answer at once.  Hosts in ``dead`` never answer; the
    others piggyback a free-space hint, and refuse some allocations, as
    a pure function of the call."""

    def __init__(self, dead):
        self.dead = dead
        self.allocs = []

    def __call__(self, endpoint, dst, method, args, **_):
        host = dst[0]
        if method == "alloc":
            self.allocs.append(host)
        if host in self.dead:
            raise RpcTimeout(host)
        if method == "inventory":
            return {"ok": True, "largest_free": args["largest_free"]}
        mix = zlib.crc32(f"{host}/{args['size']}".encode())
        yield from ()
        return {"ok": mix % 3 != 0, "region_id": 0, "epoch": 1,
                "largest_free": mix % 5 * 4096}


def _iwd_step(cmd, op, step, imds):
    kind, arg = op[0], op[1]
    if kind == "register":
        cmd._h_imd_register({"host": arg, "pool_bytes": MB, "epoch": step,
                             "largest_free": op[2], "port": 6001}, SRC)
    elif kind == "hint":  # piggybacked on an imd reply (unknown: ignored)
        entry = cmd.iwd.get(arg) or IwdEntry(arg, step, 0, 6001)
        cmd.sim.run(until=cmd.sim.process(cmd._imd_call(
            entry, "inventory", {"largest_free": op[2]})))
    elif kind == "write":
        cmd.iwd[arg] = IwdEntry(host=arg, epoch=step, largest_free=op[2],
                                port=6001)
    elif kind == "record_set":
        cmd._apply_record(["iwd_set", [arg, step, op[2], 6001]])
    elif kind == "busy":
        cmd._h_notify_busy({"host": arg}, SRC)
    elif kind == "delete":
        if arg in cmd.iwd:
            del cmd.iwd[arg]
        else:
            with pytest.raises(KeyError):
                del cmd.iwd[arg]
    elif kind == "record_del":
        cmd._apply_record(["iwd_del", arg])
    elif kind == "snapshot":
        snap = cmd._snapshot()
        snap["records"] = [r for r in snap["records"] if r[0] != "iwd_set"]
        snap["records"] += [["iwd_set", [h, step, free, 6001]]
                            for h, free in arg]
        cmd._install_snapshot(snap)
    else:
        imds.allocs.clear()
        reply = cmd.sim.run(until=cmd.sim.process(cmd._h_alloc(
            {"key": [step, 0, None], "length": arg}, SRC)))
        return reply, list(imds.allocs)


def _make_cmd():
    sim = Simulator(seed=111)
    ws = Workstation(sim, "mgr", Network(sim))
    return CentralManager(sim, ws, DodoConfig(store_payload=False))


@settings(max_examples=60, deadline=None)
@given(IWD_OPS, st.sets(HOSTS, max_size=2))
def test_iwd_index_matches_rebuild_and_scan_placement(ops, dead):
    """Through every way the IWD is written, its index equals a rebuild,
    and random placement tries the same hosts, in the same order, as a
    manager that scans every entry."""
    imds = FakeImds(dead)
    cmd, ref = _make_cmd(), _make_cmd()
    with mock.patch.object(manager_module.rpc, "call", imds):
        for step, op in enumerate(ops, 1):
            if type(ref.iwd) is not ScanDirectory:  # built or re-installed
                ref.iwd = ScanDirectory(ref.iwd.items())
            got = _iwd_step(cmd, op, step, imds)
            want = _iwd_step(ref, op, step, imds)
            assert cmd.iwd.index == sorted(
                (e.largest_free, h) for h, e in cmd.iwd.items())
            assert list(cmd.iwd.items()) == list(ref.iwd.items())
            assert got == want


def test_iwd_property_fake_imds_answer():
    """The property test above only tests placement if its fake imds
    answer: an alloc reaches the fake and places on the host it answers
    for, with the fake's piggybacked hint, and a dead host's timeout
    drops that host from the IWD."""
    alive = FakeImds(dead=set())
    cmd = _make_cmd()
    with mock.patch.object(manager_module.rpc, "call", alive):
        _iwd_step(cmd, ("register", "w0", 1 * MB), 1, alive)
        reply, tried = _iwd_step(cmd, ("alloc", 100), 2, alive)
    assert tried == ["w0"]
    assert reply["ok"] and reply["region"]["host"] == "w0"
    assert cmd.iwd["w0"].largest_free == zlib.crc32(b"w0/100") % 5 * 4096

    dead = FakeImds(dead={"w1"})
    cmd = _make_cmd()
    with mock.patch.object(manager_module.rpc, "call", dead):
        _iwd_step(cmd, ("register", "w1", 1 * MB), 1, dead)
        reply, tried = _iwd_step(cmd, ("alloc", 4096), 2, dead)
    assert tried == ["w1"]
    assert not reply["ok"] and "w1" not in cmd.iwd
    assert cmd.stats.count("imd.dead") == 1


def test_iwd_rejects_writes_that_bypass_the_index():
    iwd = IdleDirectory([("w0", IwdEntry("w0", 1, 4096, 6001))])
    for write in (lambda: iwd.update(w1=None), iwd.clear, iwd.popitem,
                  lambda: iwd.setdefault("w1", None)):
        with pytest.raises(TypeError):
            write()
    assert iwd.index == [(4096, "w0")]
