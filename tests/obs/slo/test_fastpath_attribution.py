"""Fast paths must not change request-stage attribution.

PR 7's flow-level fast paths (bulk transfers, single datagrams / RPCs,
disk batches) are timing-identical optimizations.  The SLI layer reads
only spans, so each fast path must yield the *same* per-request stage
blame, outcomes and latency sketches as its packet/process equivalent:

* bulk + dgram fast paths emit the same spans at the same virtual
  times whether engaged or not — attribution must match exactly;
* the disk fast path *disengages while tracing is on* (the process
  path emits per-request ``disk.*`` spans the closed form cannot), so
  under the SLI layer both settings run the identical span-emitting
  path — also byte-identical, and the engagement counter must stay 0.
"""

from repro.net import BulkParams, RpcClient, RpcServer, recv_bulk, send_bulk
from repro.obs.session import ObsSession
from repro.obs.slo import SliCollector, attach_sli
from repro.sim import Simulator
from repro.storage.disk import Disk
from repro.testing import make_net


def sli_fingerprint(sli):
    """Everything the SLO layer derives, in comparable form."""
    out = {}
    for kind, stats in sli.merged_kinds().items():
        out[kind] = {
            "count": stats.count,
            "outcomes": dict(stats.outcomes),
            "dominant": dict(stats.dominant),
            "stage_s": {k: v for k, v in sorted(stats.stage_s.items())},
            "sketch": stats.sketch.to_json(),
        }
    return out


def traced(run_fn, *args, **kwargs):
    """Run ``run_fn`` under a fresh tracer + SLI collector."""
    sli = SliCollector()
    with ObsSession(trace=True) as obs:
        attach_sli(obs.tracer, sli)
        extra = run_fn(*args, **kwargs)
    return sli_fingerprint(sli), extra


# ---------------------------------------------------------------------------
# Bulk transfers
# ---------------------------------------------------------------------------

def run_bulk(fastpath, size=300_000, seed=7):
    sim = Simulator(seed=seed, fastpath=fastpath)
    net = make_net(sim)
    tx = net.udp["alpha"].socket()
    rx = net.udp["beta"].socket(port=77, recvbuf=256 * 1024)
    params = BulkParams()

    def sender():
        yield sim.process(send_bulk(tx, ("beta", 77), size,
                                    params=params))

    def receiver():
        yield sim.process(recv_bulk(rx, first_timeout=5.0,
                                    params=params))

    sim.process(sender())
    sim.process(receiver())
    sim.run(until=30.0)
    return net.network.stats.count("fastpath.transfers")


def test_bulk_fastpath_attribution_identical():
    fast, engaged = traced(run_bulk, True)
    pkt, not_engaged = traced(run_bulk, False)
    assert engaged == 1 and not_engaged == 0
    assert set(fast) == {"bulk.send", "bulk.recv"}
    assert fast == pkt
    # and the whole window is net time, as the stage map promises
    assert list(fast["bulk.send"]["stage_s"]) == ["net"]


def test_bulk_fastpath_attribution_identical_across_sizes():
    for size in (1, 1472, 100_000, 1_000_000):
        fast, _ = traced(run_bulk, True, size=size)
        pkt, _ = traced(run_bulk, False, size=size)
        assert fast == pkt, f"bulk attribution diverged at size {size}"


# ---------------------------------------------------------------------------
# Datagram (RPC) fast path
# ---------------------------------------------------------------------------

def run_rpc(fastpath, n_calls=5, seed=7):
    sim = Simulator(seed=seed)
    net = make_net(sim)
    sim.fastpath = fastpath
    server_sock = net.udp["beta"].socket(port=90)
    RpcServer(server_sock, {
        "echo": lambda args, src: {"echo": args.get("x")},
    }, name="test").start()
    client = RpcClient(net.udp["alpha"].socket())

    def caller():
        for i in range(n_calls):
            yield from client.call(("beta", 90), "echo", {"x": i},
                                   size=256, timeout=0.05, retries=5)
            yield sim.timeout(0.002)

    sim.process(caller())
    sim.run(until=10.0)
    return net.network.stats.count("fastpath.dgrams")


def test_dgram_fastpath_attribution_identical():
    fast, engaged = traced(run_rpc, True)
    pkt, not_engaged = traced(run_rpc, False)
    assert engaged >= 2 and not_engaged == 0
    assert "rpc.echo" in fast
    assert fast == pkt
    assert fast["rpc.echo"]["count"] == 5
    assert fast["rpc.echo"]["outcomes"] == {"remote-imd": 5}


def test_dgram_fastpath_attribution_identical_across_seeds():
    for seed in (0, 3, 11):
        fast, _ = traced(run_rpc, True, seed=seed)
        pkt, _ = traced(run_rpc, False, seed=seed)
        assert fast == pkt, f"rpc attribution diverged at seed {seed}"


# ---------------------------------------------------------------------------
# Disk batch fast path
# ---------------------------------------------------------------------------

def run_disk(fastpath, seed=5):
    sim = Simulator(seed=seed)
    disk = Disk(sim, "d0")
    sim.fastpath = fastpath
    tracer = sim.tracer

    def workload():
        # a request-rooted span so disk spans join a request tree
        # (read/write already return a process or fast-path event)
        root = tracer.begin(sim, "cread", "regionlib")
        yield disk.read(0, 65536)
        yield disk.read_batch(((65536, 8192), (131072, 8192)))
        yield disk.write(262144, 32768)
        tracer.end(sim, root)

    sim.run(until=sim.process(workload()))
    return disk.stats.count("fastpath.batches")


def test_disk_fastpath_disengages_under_tracing_and_attributes_identically():
    """With the tracer on, PR 7's rule forces the process path either
    way — the flag must change neither engagement nor attribution."""
    fast, batches_fast = traced(run_disk, True)
    pkt, batches_pkt = traced(run_disk, False)
    assert batches_fast == batches_pkt == 0   # disengaged while traced
    assert fast == pkt
    assert fast["cread"]["count"] == 1
    (record_stage_s,) = (fast["cread"]["stage_s"],)
    assert record_stage_s.get("disk", 0.0) > 0.0
    assert fast["cread"]["outcomes"] == {"disk-fallback": 1}


def test_disk_fastpath_still_engages_untraced():
    """Sanity check on the disengage rule itself: without a tracer the
    same workload does engage the batch fast path (so the test above
    is exercising a real rule, not a dead flag)."""
    sim = Simulator(seed=5)
    disk = Disk(sim, "d0")

    def workload():
        yield disk.read(0, 65536)
        yield disk.read_batch(((65536, 8192), (131072, 8192)))

    sim.run(until=sim.process(workload()))
    assert disk.stats.count("fastpath.batches") >= 1
