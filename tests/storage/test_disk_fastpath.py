"""Differential tests: the disk flow-level fast path vs the per-request path.

The fast path (``Disk._fast_access``) must be *byte-identical* in virtual
time to the per-request process path for every workload: same completion
instants, same service values, same stats (modulo its own ``fastpath.*``
counters), including under mid-batch contention, nemesis slowdown changes
and page-cache eviction storms.  These tests run the same seeded workload
with the simulator's ``fastpath`` switch on and off and compare everything
observable.
"""

import gc
import random

import pytest

from repro.sim import Simulator
from repro.storage import Disk, FileSystem
from repro.storage.pagecache import PageCache
from repro.testing import collector_off

KB = 1024
MB = 1024 * KB


def _strip_fastpath(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if not k.startswith("fastpath.")}


def make_ops(seed: int, n_ops: int, capacity: int) -> list:
    """A reproducible mixed workload: (gap_s, kind, offset, nbytes)."""
    rng = random.Random(seed * 7919 + 13)
    ops = []
    last_end = 0
    for _ in range(n_ops):
        gap = rng.choice([0.0, 0.0, 0.001, 0.02])
        kind = rng.choice(["r", "r", "w"])
        if rng.random() < 0.4:
            offset = last_end  # streaming: exercise the sequential branch
        else:
            offset = rng.randrange(0, capacity - 64 * KB)
        nbytes = rng.choice([4 * KB, 8 * KB, 32 * KB, 64 * KB])
        ops.append((gap, kind, offset, nbytes))
        last_end = offset + nbytes
    return ops


def run_disk_ops(fastpath: bool, ops, seed: int = 0, n_procs: int = 1,
                 slowdown_at=None):
    """Drive ``ops`` (round-robin over ``n_procs`` serial issuers) and
    return everything the two worlds must agree on."""
    sim = Simulator(seed=seed)
    disk = Disk(sim, "d0")
    sim.fastpath = fastpath
    completions = []

    def issuer(pid, my_ops):
        for i, (gap, kind, offset, nbytes) in my_ops:
            if gap:
                yield sim.timeout(gap)
            op = disk.read(offset, nbytes) if kind == "r" \
                else disk.write(offset, nbytes)
            service = yield op
            completions.append((i, pid, sim.now, service))

    for pid in range(n_procs):
        sim.process(issuer(pid, list(enumerate(ops))[pid::n_procs]))
    if slowdown_at is not None:
        when, factor = slowdown_at

        def degrade():
            yield sim.timeout(when)
            disk.slowdown = factor
        sim.process(degrade())
    sim.run()
    completions.sort()
    return {
        "completions": completions,
        "stats": dict(disk.stats.counters),
        "head": (disk._head, disk._last_end),
        "events": sim.events_processed,
        "fast": disk.stats.count("fastpath.batches"),
        "fallbacks": disk.stats.count("fastpath.fallbacks"),
    }


def assert_equivalent(fast, slow):
    assert fast["completions"] == slow["completions"]
    assert fast["head"] == slow["head"]
    assert _strip_fastpath(fast["stats"]) == _strip_fastpath(slow["stats"])


# -- single-request differential ---------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_mixed_workload_identical(seed):
    """One serial issuer: every request should take the fast path, with
    completion instants and service values bit-identical."""
    ops = make_ops(seed, 40, Disk(Simulator(seed=0)).params.capacity_bytes)
    fast = run_disk_ops(True, ops, seed=seed)
    slow = run_disk_ops(False, ops, seed=seed)
    assert_equivalent(fast, slow)
    assert fast["fast"] == len(ops)  # serial issuer: arm always idle
    assert slow["fast"] == 0


@pytest.mark.parametrize("seed", range(10))
def test_contended_workload_identical(seed):
    """Three concurrent issuers: the fast path engages only on an idle
    arm and queued requests serialize exactly as before."""
    ops = make_ops(seed + 100, 45, 3_000_000_000)
    fast = run_disk_ops(True, ops, seed=seed, n_procs=3)
    slow = run_disk_ops(False, ops, seed=seed, n_procs=3)
    assert_equivalent(fast, slow)


def test_slowdown_change_identical():
    """A nemesis-style slowdown change mid-run lands on the same requests
    in both worlds (service is computed at each request's start instant)."""
    ops = make_ops(3, 30, 3_000_000_000)
    for factor in (4.0, 0.5):
        fast = run_disk_ops(True, ops, slowdown_at=(0.05, factor))
        slow = run_disk_ops(False, ops, slowdown_at=(0.05, factor))
        assert_equivalent(fast, slow)


def test_fast_path_event_count_shrinks():
    """The point of the fast path: far fewer simulator events."""
    ops = make_ops(1, 50, 3_000_000_000)
    fast = run_disk_ops(True, ops)
    slow = run_disk_ops(False, ops)
    # a process-path request costs at least one extra event (bootstrap /
    # acquire / timeout vs one boundary event) — in practice about two
    assert fast["events"] < slow["events"] - 50


# -- batch API ----------------------------------------------------------------

def _run_batch(mode: str, runs, write=False, interloper_at=None):
    """mode: 'fast' (read_batch, fastpath on), 'slow-batch' (read_batch,
    fastpath off) or 'sequential' (per-run requests, fastpath off)."""
    sim = Simulator(seed=0)
    disk = Disk(sim, "d0")
    sim.fastpath = mode == "fast"
    out = {}

    def batched():
        op = disk.write_batch(runs) if write else disk.read_batch(runs)
        out["total"] = yield op
        out["t_done"] = sim.now

    def sequential():
        total = 0.0
        for off, n in runs:
            total += yield (disk.write(off, n) if write
                            else disk.read(off, n))
        out["total"] = total
        out["t_done"] = sim.now

    sim.process(sequential() if mode == "sequential" else batched())
    if interloper_at is not None:
        def interlope():
            yield sim.timeout(interloper_at)
            service = yield disk.read(1_000_000_000, 8 * KB)
            out["interloper"] = (sim.now, service)
        sim.process(interlope())
    sim.run()
    out["stats"] = _strip_fastpath(dict(disk.stats.counters))
    out["fallbacks"] = disk.stats.count("fastpath.fallbacks")
    return out


def test_batch_matches_sequential_requests():
    """read_batch == the same runs issued one by one, to the bit."""
    rng = random.Random(42)
    runs = [(rng.randrange(0, 3_000_000_000 - MB), rng.choice([8 * KB, 64 * KB]))
            for _ in range(12)]
    # make a couple of members stream from their predecessor
    runs[3] = (runs[2][0] + runs[2][1], 8 * KB)
    runs[4] = (runs[3][0] + runs[3][1], 64 * KB)
    for write in (False, True):
        fast = _run_batch("fast", runs, write=write)
        slow = _run_batch("slow-batch", runs, write=write)
        seq = _run_batch("sequential", runs, write=write)
        assert fast["t_done"] == seq["t_done"] == slow["t_done"]
        assert fast["total"] == seq["total"] == slow["total"]
        assert fast["stats"] == seq["stats"] == slow["stats"]


def test_batch_hands_arm_to_mid_batch_waiter():
    """A request queuing mid-batch is granted the arm between members,
    exactly as on the per-request path — and the batch falls back."""
    runs = [(i * 10 * MB, 64 * KB) for i in range(10)]
    t = 0.05  # inside the batch's span
    fast = _run_batch("fast", runs, interloper_at=t)
    seq = _run_batch("sequential", runs, interloper_at=t)
    assert fast["interloper"] == seq["interloper"]
    assert fast["t_done"] == seq["t_done"]
    assert fast["stats"] == seq["stats"]
    assert fast["fallbacks"] >= 1


def test_batch_on_busy_arm_runs_as_process():
    """A batch issued while the arm is held must queue FIFO, not engage."""
    sim = Simulator(seed=0)
    disk = Disk(sim, "d0")
    order = []

    def holder():
        yield disk.read(2_000_000_000, 64 * KB)
        order.append("holder")

    def batcher():
        yield sim.timeout(0.001)  # arm already busy
        yield disk.read_batch([(0, 8 * KB), (8 * KB, 8 * KB)])
        order.append("batch")

    sim.process(holder())
    sim.process(batcher())
    sim.run()
    assert order == ["holder", "batch"]
    assert disk.stats.count("fastpath.batches") == 1  # only the holder's


def test_finished_batches_leave_no_cyclic_garbage():
    """Fast batches, finished whole or after a mid-batch fallback, die by
    reference counting."""
    with collector_off():
        sim = Simulator(seed=0)
        disk = Disk(sim, "d0")
        runs = [(i * 10 * MB, 64 * KB) for i in range(10)]

        def batches():
            for _ in range(20):
                yield disk.read_batch(runs)
                yield disk.write_batch(runs)

        def interlope():
            yield sim.timeout(0.05)  # inside the first batch's span
            yield disk.read(1_000_000_000, 8 * KB)

        sim.process(batches())
        sim.process(interlope())
        sim.run()
        assert disk.stats.count("fastpath.batches") >= 40
        assert disk.stats.count("fastpath.fallbacks") >= 1
        assert gc.collect() == 0


def test_empty_batch_is_a_noop():
    sim = Simulator(seed=0)
    disk = Disk(sim, "d0")

    def proc():
        total = yield disk.read_batch([])
        assert total == 0.0
    p = sim.process(proc())
    sim.run(until=p)
    assert disk.stats.count("read.ops") == 0


# -- clearance ----------------------------------------------------------------

def test_tracer_disables_fast_path():
    """The process path emits per-request spans; with tracing on the fast
    path must stand down so traces stay complete."""
    from repro.obs.tracer import Tracer
    sim = Simulator(seed=0)
    sim.tracer = Tracer()
    disk = Disk(sim, "d0")

    def proc():
        yield disk.read(0, 8 * KB)
    p = sim.process(proc())
    sim.run(until=p)
    assert disk.stats.count("fastpath.batches") == 0
    assert disk.stats.count("read.ops") == 1


def test_invalid_requests_still_raise_through_process():
    sim = Simulator(seed=0)
    disk = Disk(sim, "d0")

    def proc():
        yield disk.read(disk.params.capacity_bytes - 100, 8 * KB)
    p = sim.process(proc())
    with pytest.raises(ValueError):
        sim.run(until=p)
    assert disk.stats.count("fastpath.batches") == 0


def test_fastpath_flag_disables_engagement():
    sim = Simulator(seed=0)
    disk = Disk(sim, "d0")
    sim.fastpath = False

    def proc():
        yield disk.read(0, 8 * KB)
    p = sim.process(proc())
    sim.run(until=p)
    assert disk.stats.count("fastpath.batches") == 0


# -- page cache batch insert ---------------------------------------------------

def test_insert_range_equals_sequential_inserts():
    rng = random.Random(7)
    ranges = [(first, first + rng.randrange(0, 10))
              for first in (rng.randrange(0, 40) for _ in range(40))]
    a = PageCache(capacity_bytes=16 * 4096)
    b = PageCache(capacity_bytes=16 * 4096)
    wb_a = []
    for first, last in ranges:
        wb_a.extend(a.insert_range(1, first, last, dirty=True))
    wb_b = []
    for first, last in ranges:
        for pg in range(first, last):
            wb_b.extend(b.insert((1, pg), dirty=True))
    assert wb_a == wb_b
    assert a.entries() == b.entries()
    # key order too: snapshots export counters in first-increment order
    assert list(a.stats.counters.items()) == \
        list(b.stats.counters.items())


# -- file-system level differential -------------------------------------------

def run_fs_workload(fastpath: bool, seed: int):
    """A paging workload with readahead, RMW writes, eviction storms
    (tiny cache) and fsyncs — every disk access route in one run."""
    sim = Simulator(seed=seed)
    disk = Disk(sim, "d0")
    sim.fastpath = fastpath
    fs = FileSystem(sim, disk, cache_bytes=96 * KB, store_data=False)
    fs.create("data", size=2 * MB)
    rng = random.Random(seed * 31 + 5)
    marks = []

    def app():
        fh = fs.open("data", "r+")
        # sequential scan primes readahead, then random mixed I/O forces
        # eviction write-back storms through the 96 KB cache
        pos = 0
        for _ in range(20):
            n, _data = yield fs.read(fh, pos, 16 * KB)
            pos += n
            marks.append(("scan", sim.now))
        for _ in range(40):
            off = rng.randrange(0, 2 * MB - 64 * KB)
            if rng.random() < 0.5:
                yield fs.read(fh, off, rng.choice([4 * KB, 48 * KB]))
                marks.append(("read", sim.now))
            else:
                yield fs.write(fh, off + 100, rng.choice([3 * KB, 20 * KB]))
                marks.append(("write", sim.now))
            if rng.random() < 0.15:
                yield fs.fsync(fh)
                marks.append(("fsync", sim.now))
        fs.close(fh)

    p = sim.process(app())
    sim.run(until=p)
    return {
        "marks": marks,
        "t_end": sim.now,
        "fs_stats": dict(fs.stats.counters),
        "disk_stats": _strip_fastpath(dict(disk.stats.counters)),
        "cache_stats": dict(fs.cache.stats.counters),
        "events": sim.events_processed,
        "fast": disk.stats.count("fastpath.batches"),
    }


@pytest.mark.parametrize("seed", range(5))
def test_filesystem_differential(seed):
    fast = run_fs_workload(True, seed)
    slow = run_fs_workload(False, seed)
    assert fast["marks"] == slow["marks"]
    assert fast["t_end"] == slow["t_end"]
    assert fast["fs_stats"] == slow["fs_stats"]
    assert fast["disk_stats"] == slow["disk_stats"]
    assert fast["cache_stats"] == slow["cache_stats"]
    assert fast["fast"] > 0  # the fast path actually carried the run
    assert fast["events"] < slow["events"]
