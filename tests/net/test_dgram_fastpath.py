"""Differential tests for the flow-level datagram (RPC) fast path.

Same contract as the bulk fast path (``test_bulk_fastpath.py``): the fast
path is an *optimization*, never a model change.  Every single uncontended
datagram carried by ``Network.fast_transmit`` must deliver at virtual
times bit-identical to the packet-by-packet path, with identical socket
and network statistics; whenever the world is not analytically tractable
(loss, contention, bursts, partitions, downed NICs, competing bulk
traffic) it must disengage or fall back mid-flight and leave the packet
path's behavior untouched.
"""

import pytest

from repro.net import RpcClient, RpcServer
from repro.sim import Simulator

from repro.testing import make_net

SIZES = [1, 100, 1472, 8_000, 60_000]


def _strip_fastpath(stats: dict) -> dict:
    """Drop the fast path's own engagement counters before comparing."""
    return {k: v for k, v in stats.items() if not k.startswith("fastpath.")}


def run_dgrams(fastpath, sizes, transport="udp", loss=0.0, seed=1234,
               gap=0.0, burst=None, nic_down_at=None, down_host="beta",
               partition_at=None, hosts=("alpha", "beta")):
    """Send a sequence of datagrams alpha->beta; return all observables.

    ``gap`` spaces the sends apart in virtual time (0 = back-to-back,
    which contends the engines).  ``burst=(t_on, t_off, p)`` injects an
    extra frame-loss window; ``nic_down_at`` / ``partition_at`` inject
    mid-flight failures.
    """
    sim = Simulator(seed=seed)
    net = make_net(sim, hosts=hosts, loss=loss)
    sim.fastpath = fastpath
    eps = net.udp if transport == "udp" else net.unet
    tx = eps["alpha"].socket()
    rx = eps["beta"].socket(port=77)
    out = {"sent_at": [], "recv": []}

    def sender():
        for size in sizes:
            got = yield tx.send(size, dst=("beta", 77))
            out["sent_at"].append((got, sim.now))
            if gap:
                yield sim.timeout(gap)

    def receiver():
        while len(out["recv"]) < len(sizes):
            dgram = yield rx.recv(timeout=5.0)
            if dgram is None:
                return
            out["recv"].append((dgram.size, sim.now))

    if burst is not None:
        t_on, t_off, p = burst
        if t_on <= 0.0:
            net.network.extra_loss_prob = p
        else:
            def bursting():
                yield sim.timeout(t_on)
                net.network.extra_loss_prob = p
                if t_off is not None:
                    yield sim.timeout(t_off - t_on)
                    net.network.extra_loss_prob = 0.0
            sim.process(bursting())

    if nic_down_at is not None:
        if nic_down_at <= 0.0:
            net.nics[down_host].down = True
        else:
            def killer():
                yield sim.timeout(nic_down_at)
                net.nics[down_host].down = True
            sim.process(killer())

    if partition_at is not None:
        if partition_at <= 0.0:
            net.network.set_partition([["alpha"], ["beta"]])
        else:
            def cutter():
                yield sim.timeout(partition_at)
                net.network.set_partition([["alpha"], ["beta"]])
            sim.process(cutter())

    sim.process(sender())
    sim.process(receiver())
    sim.run(until=30.0)
    out["events"] = sim.events_processed
    out["net_stats"] = _strip_fastpath(dict(net.network.stats.counters))
    out["tx_stats"] = dict(tx.stats.counters)
    out["rx_stats"] = dict(rx.stats.counters)
    out["fast"] = net.network.stats.count("fastpath.dgrams")
    out["fallbacks"] = net.network.stats.count("fastpath.dgram_fallbacks")
    out["inflight"] = dict(net.network._inflight)
    return out


def assert_equivalent(fast, pkt):
    """Virtual times and every statistic must match the packet path."""
    assert fast["sent_at"] == pkt["sent_at"], \
        f"send completions differ:\n{fast['sent_at']}\n{pkt['sent_at']}"
    assert fast["recv"] == pkt["recv"], \
        f"deliveries differ:\n{fast['recv']}\n{pkt['recv']}"
    assert fast["net_stats"] == pkt["net_stats"]
    assert fast["tx_stats"] == pkt["tx_stats"]
    assert fast["rx_stats"] == pkt["rx_stats"]


# ---------------------------------------------------------------------------
# Identity on eligible configurations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("transport", ["udp", "unet"])
@pytest.mark.parametrize("size", SIZES)
def test_single_datagram_times_identical(transport, size):
    if transport == "unet" and size > 1472:
        pytest.skip("beyond unet max payload")
    fast = run_dgrams(True, [size], transport=transport, gap=0.01)
    pkt = run_dgrams(False, [size], transport=transport, gap=0.01)
    assert_equivalent(fast, pkt)
    assert fast["fast"] == 1 and fast["fallbacks"] == 0
    assert pkt["fast"] == 0


@pytest.mark.parametrize("seed", range(10))
def test_spaced_sequences_identical_across_seeds(seed):
    import random
    rng = random.Random(seed)
    sizes = [rng.randrange(1, 60_000) for _ in range(8)]
    fast = run_dgrams(True, sizes, seed=seed, gap=0.02)
    pkt = run_dgrams(False, sizes, seed=seed, gap=0.02)
    assert_equivalent(fast, pkt)
    assert fast["fast"] == len(sizes)


def test_back_to_back_sends_fall_back_identically():
    """Zero-gap sends overlap on the engines: later datagrams must refuse
    or fall back, and the timeline must still match the packet path."""
    sizes = [30_000, 30_000, 30_000, 30_000]
    fast = run_dgrams(True, sizes, gap=0.0)
    pkt = run_dgrams(False, sizes, gap=0.0)
    assert_equivalent(fast, pkt)
    assert fast["inflight"] == {} or \
        all(v == 0 for v in fast["inflight"].values())


def test_fast_path_event_count_shrinks():
    """The point of the fast path: far fewer simulator events."""
    sizes = [10_000] * 20
    fast = run_dgrams(True, sizes, gap=0.01)
    pkt = run_dgrams(False, sizes, gap=0.01)
    assert fast["fast"] == 20
    assert fast["events"] < pkt["events"] - 5 * 20  # >=5 events saved each


# ---------------------------------------------------------------------------
# RPC request/reply: the consumer the fast path exists for
# ---------------------------------------------------------------------------

def run_rpc(fastpath, n_calls=5, seed=7, arg_size=256):
    """An RPC client/server pair; returns per-call completion times."""
    sim = Simulator(seed=seed)
    net = make_net(sim)
    sim.fastpath = fastpath
    server_sock = net.udp["beta"].socket(port=90)
    RpcServer(server_sock, {
        "echo": lambda args, src: {"echo": args.get("x")},
    }, name="test").start()
    client = RpcClient(net.udp["alpha"].socket())
    out = {"calls": []}

    def caller():
        for i in range(n_calls):
            result = yield from client.call(
                ("beta", 90), "echo", {"x": i}, size=arg_size,
                timeout=0.05, retries=5)
            out["calls"].append((result["echo"], sim.now))
            yield sim.timeout(0.002)

    sim.process(caller())
    sim.run(until=10.0)
    out["events"] = sim.events_processed
    out["fast"] = net.network.stats.count("fastpath.dgrams")
    return out


@pytest.mark.parametrize("seed", range(10))
def test_rpc_latencies_identical_across_seeds(seed):
    fast = run_rpc(True, seed=seed)
    pkt = run_rpc(False, seed=seed)
    assert fast["calls"] == pkt["calls"]
    assert fast["fast"] >= 2  # both directions engage at least some calls
    assert fast["events"] < pkt["events"]


# ---------------------------------------------------------------------------
# Disengagement and mid-flight fallback
# ---------------------------------------------------------------------------

def test_lossy_transport_never_engages():
    fast = run_dgrams(True, [10_000, 10_000], loss=0.05, seed=3, gap=0.01)
    pkt = run_dgrams(False, [10_000, 10_000], loss=0.05, seed=3, gap=0.01)
    assert fast["fast"] == 0
    assert_equivalent(fast, pkt)


def test_active_loss_burst_prevents_engagement():
    burst = (0.0, None, 0.5)
    fast = run_dgrams(True, [10_000] * 4, burst=burst, seed=11, gap=0.01)
    pkt = run_dgrams(False, [10_000] * 4, burst=burst, seed=11, gap=0.01)
    assert fast["fast"] == 0
    assert_equivalent(fast, pkt)


@pytest.mark.parametrize("seed", range(10))
def test_burst_starting_mid_flight_draws_identical_loss(seed):
    """A loss burst that begins *after* engagement: the in-flight fast
    datagram re-applies the loss model at the exact instant the packet
    path would, consuming identical RNG draws — so later lossy traffic
    sees the same stream state and the whole run stays byte-identical."""
    # the burst lands inside the first datagram's flight window
    burst = (0.0004, 0.5, 0.9)
    sizes = [60_000] * 6
    fast = run_dgrams(True, sizes, burst=burst, seed=seed, gap=0.01)
    pkt = run_dgrams(False, sizes, burst=burst, seed=seed, gap=0.01)
    assert fast["fast"] >= 1  # the first send engaged before the burst
    assert_equivalent(fast, pkt)


def test_receiver_nic_down_mid_flight():
    """Receiver dies while the datagram is on the wire: both paths drop
    it with the same statistic at the same virtual time."""
    fast = run_dgrams(True, [60_000], nic_down_at=0.0004, gap=0.01)
    pkt = run_dgrams(False, [60_000], nic_down_at=0.0004, gap=0.01)
    assert fast["fast"] == 1
    assert fast["recv"] == pkt["recv"] == []
    assert fast["net_stats"] == pkt["net_stats"]
    assert all(v == 0 for v in fast["inflight"].values())


def test_partition_mid_flight():
    """A cut while the datagram is in the switch: dropped identically."""
    fast = run_dgrams(True, [60_000], partition_at=0.0004, gap=0.01)
    pkt = run_dgrams(False, [60_000], partition_at=0.0004, gap=0.01)
    assert fast["fast"] == 1
    assert fast["recv"] == pkt["recv"] == []
    assert fast["net_stats"]["rx.dropped.partitioned"] == \
        pkt["net_stats"]["rx.dropped.partitioned"] == 1
    assert all(v == 0 for v in fast["inflight"].values())


def test_downed_nic_prevents_engagement():
    fast = run_dgrams(True, [1000], nic_down_at=0.0, gap=0.01)
    assert fast["fast"] == 0
    assert fast["recv"] == []


def test_partition_prevents_engagement():
    fast = run_dgrams(True, [1000], partition_at=0.0, gap=0.01)
    assert fast["fast"] == 0
    assert fast["recv"] == []


def test_burst_datagrams_never_engage():
    """Blast (multi-chunk) datagrams always take the packet path."""
    from repro.net.packet import Chunk
    sim = Simulator(seed=2)
    net = make_net(sim)
    tx = net.udp["alpha"].socket()
    net.udp["beta"].socket(port=77)
    chunks = [Chunk(seq=i, size=1000) for i in range(4)]

    def sender():
        yield tx.send(4000, dst=("beta", 77), chunks=chunks)

    sim.process(sender())
    sim.run(until=1.0)
    assert net.network.stats.count("fastpath.dgrams") == 0
    assert net.network.stats.count("tx.datagrams") == 4


# ---------------------------------------------------------------------------
# Mutual exclusion with the bulk fast path
# ---------------------------------------------------------------------------

def test_registered_bulk_transfer_blocks_dgram_engagement():
    """While a bulk transfer is registered on a host, no fast datagram
    may engage there — its analytic window would hide contention the
    packet world imposes."""
    from repro.net import BulkParams, recv_bulk, send_bulk

    sim = Simulator(seed=17)
    net = make_net(sim, hosts=("alpha", "beta", "gamma"))
    params = BulkParams()
    btx = net.udp["alpha"].socket()
    brx = net.udp["beta"].socket(port=71, recvbuf=256 * 1024)
    dtx = net.udp["gamma"].socket()
    drx = net.udp["beta"].socket(port=72)
    out = {}

    def bulk_sender():
        out["sent"] = yield sim.process(send_bulk(
            btx, ("beta", 71), 400_000, params=params))

    def bulk_receiver():
        out["recv"] = yield sim.process(recv_bulk(
            brx, first_timeout=5.0, params=params))

    def dgram_sender():
        # fire mid-transfer, while beta is registered to the bulk flow
        yield sim.timeout(0.003)
        yield dtx.send(20_000, dst=("beta", 72))

    def dgram_receiver():
        dgram = yield drx.recv(timeout=5.0)
        out["dgram_size"] = dgram.size if dgram else None

    sim.process(bulk_sender())
    sim.process(bulk_receiver())
    sim.process(dgram_sender())
    sim.process(dgram_receiver())
    sim.run(until=30.0)
    assert out["sent"] == 400_000
    assert out["dgram_size"] == 20_000  # delivered, via the packet path
    assert net.network.stats.count("fastpath.dgrams") == 0
    assert net.network.stats.count("fastpath.transfers") == 1


def test_inflight_dgram_blocks_bulk_engagement():
    """A fast datagram in flight occupies an RX engine at a future
    instant the bulk planner cannot see: the bulk fast path must refuse
    and carry the transfer packet by packet."""
    from repro.net import BulkParams, recv_bulk, send_bulk

    sim = Simulator(seed=23)
    net = make_net(sim, hosts=("alpha", "beta", "gamma"))
    params = BulkParams()
    dtx = net.udp["gamma"].socket()
    drx = net.udp["beta"].socket(port=72)
    btx = net.udp["alpha"].socket()
    brx = net.udp["beta"].socket(port=71, recvbuf=256 * 1024)
    out = {}

    def dgram_sender():
        yield dtx.send(60_000, dst=("beta", 72))  # ~5 ms in flight

    def dgram_receiver():
        dgram = yield drx.recv(timeout=5.0)
        out["dgram_size"] = dgram.size if dgram else None

    def bulk_sender():
        # engage pregranted (no handshake) while the datagram is in flight
        yield sim.timeout(0.001)
        out["sent"] = yield sim.process(send_bulk(
            btx, ("beta", 71), 200_000, params=params,
            window=brx.recvbuf))

    def bulk_receiver():
        yield sim.timeout(0.001)
        out["recv"] = yield sim.process(recv_bulk(
            brx, first_timeout=5.0, params=params, pregranted=True))

    sim.process(dgram_sender())
    sim.process(dgram_receiver())
    sim.process(bulk_sender())
    sim.process(bulk_receiver())
    sim.run(until=30.0)
    assert net.network.stats.count("fastpath.dgrams") == 1
    assert net.network.stats.count("fastpath.transfers") == 0
    assert net.network.stats.count("fastpath.fallbacks") >= 1
    assert out["sent"] == 200_000
    assert out["dgram_size"] == 60_000


def test_inflight_registry_reaches_zero_after_traffic():
    out = run_dgrams(True, [5_000] * 10, gap=0.002)
    assert out["fast"] > 0
    assert all(v == 0 for v in out["inflight"].values())


# ---------------------------------------------------------------------------
# The recv fast path
# ---------------------------------------------------------------------------

def test_recv_fast_path_returns_queued_datagram():
    """recv() on a non-empty queue resolves without spawning a process,
    with identical value, bookkeeping and resume time."""
    sim = Simulator(seed=1)
    net = make_net(sim)
    tx = net.udp["alpha"].socket()
    rx = net.udp["beta"].socket(port=77)
    out = {}

    def sender():
        yield tx.send(5000, dst=("beta", 77))

    def receiver():
        yield sim.timeout(1.0)  # datagram queued long before
        dgram = yield rx.recv(timeout=2.0)
        out["got"] = (dgram.size, sim.now)

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert out["got"] == (5000, 1.0)
    assert rx.stats.count("rx.datagrams") == 1
    assert rx.stats.count("rx.bytes") == 5000
    assert rx._queued_bytes == 0


def test_recv_fast_path_preserves_close_semantics():
    """close() still resolves every *pending* recv with None; the fast
    branch never leaves a stale pending counter behind."""
    sim = Simulator(seed=1)
    net = make_net(sim)
    tx = net.udp["alpha"].socket()
    rx = net.udp["beta"].socket(port=77)
    out = {"drained": [], "pending": None}

    def sender():
        yield tx.send(100, dst=("beta", 77))

    def drainer():
        yield sim.timeout(0.5)
        dgram = yield rx.recv()          # fast: data already queued
        out["drained"].append(dgram.size)
        out["pending"] = yield rx.recv(timeout=5.0)  # blocks, then close

    def closer():
        yield sim.timeout(1.0)
        rx.close()

    sim.process(sender())
    sim.process(drainer())
    sim.process(closer())
    sim.run()
    assert out["drained"] == [100]
    assert out["pending"] is None
    assert rx._pending_recvs == 0
