"""Differential tests for the flow-level bulk fast path.

The fast path is an *optimization*, not a model change: on every
configuration where it engages, the transfer must deliver byte-identical
payloads at virtual times bit-identical to the packet-by-packet path, and
on every configuration it cannot handle it must disengage and leave the
packet path's behavior untouched.  These tests run the same transfer with
``fastpath=True`` and ``fastpath=False`` and compare everything.
"""

import pytest

from repro.net import BulkError, BulkParams, recv_bulk, send_bulk
from repro.sim import Simulator
from repro.sim.errors import SimulationError

from repro.testing import make_net

MB = 1024 * 1024

SIZES = [0, 1, 1471, 1472, 100_000, 1_000_000]


def run_transfer(fastpath, size, transport="udp", data=None, loss=0.0,
                 seed=1234, recvbuf=256 * 1024, pregranted=False,
                 window=None, nic_down_at=None, down_host="beta",
                 nic_up_at=None, burst=None, start_at=0.0,
                 bulk_params=None):
    """One bulk transfer; returns everything observable about it.

    Fault knobs: ``nic_down_at`` / ``nic_up_at`` flap ``down_host``'s
    NIC; ``burst=(t_on, t_off, p)`` injects an extra frame-loss burst on
    the fabric (nemesis-style); ``start_at`` delays the transfer itself
    so it can begin before, during, or after a fault window.
    """
    sim = Simulator(seed=seed, fastpath=fastpath)
    net = make_net(sim, loss=loss)
    eps = net.udp if transport == "udp" else net.unet
    tx = eps["alpha"].socket()
    rx = eps["beta"].socket(port=77, recvbuf=recvbuf)
    params = bulk_params or BulkParams()
    out = {}

    if pregranted and window is None:
        window = recvbuf

    def sender():
        yield sim.timeout(start_at)
        try:
            sent = yield sim.process(send_bulk(
                tx, ("beta", 77), size, data=data, params=params,
                window=window))
        except BulkError as exc:
            out["sender_error"] = str(exc)
            sent = None
        out["sent"] = sent
        out["t_tx"] = sim.now

    def receiver():
        yield sim.timeout(start_at)
        result = yield sim.process(recv_bulk(
            rx, first_timeout=5.0, params=params, pregranted=pregranted))
        out["received"] = result
        out["t_rx"] = sim.now

    if nic_down_at is not None:
        def killer():
            yield sim.timeout(nic_down_at)
            net.nics[down_host].down = True
            if nic_up_at is not None:
                yield sim.timeout(nic_up_at - nic_down_at)
                net.nics[down_host].down = False
        sim.process(killer())

    if burst is not None:
        t_on, t_off, p = burst

        def bursting():
            yield sim.timeout(t_on)
            net.network.extra_loss_prob = p
            if t_off is not None:
                yield sim.timeout(t_off - t_on)
                net.network.extra_loss_prob = 0.0
        sim.process(bursting())

    sim.process(sender())
    sim.process(receiver())
    sim.run(until=30.0)
    out["events"] = sim.events_processed
    out["fast_transfers"] = net.network.stats.count("fastpath.transfers")
    out["fast_fallbacks"] = net.network.stats.count("fastpath.fallbacks")
    out["fast_aborts"] = net.network.stats.count("fastpath.aborts")
    return out


def assert_equivalent(fast, pkt):
    """The observable outcome must match the packet path exactly."""
    assert fast["sent"] == pkt["sent"]
    assert fast["t_tx"] == pkt["t_tx"], \
        f"sender completion differs: {fast['t_tx']!r} != {pkt['t_tx']!r}"
    assert fast["t_rx"] == pkt["t_rx"], \
        f"receiver completion differs: {fast['t_rx']!r} != {pkt['t_rx']!r}"
    assert fast["received"] == pkt["received"]


# ---------------------------------------------------------------------------
# Identity on eligible configurations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("transport", ["udp", "unet"])
@pytest.mark.parametrize("size", SIZES)
def test_times_and_bytes_identical_handshake(transport, size):
    data = bytes(i % 251 for i in range(size))
    fast = run_transfer(True, size, transport=transport, data=data)
    pkt = run_transfer(False, size, transport=transport, data=data)
    assert_equivalent(fast, pkt)
    assert fast["received"][0] == data
    assert fast["fast_transfers"] == 1 and fast["fast_fallbacks"] == 0
    assert pkt["fast_transfers"] == 0


@pytest.mark.parametrize("transport", ["udp", "unet"])
@pytest.mark.parametrize("size", SIZES)
def test_times_and_bytes_identical_pregranted(transport, size):
    data = bytes(i % 253 for i in range(size))
    fast = run_transfer(True, size, transport=transport, data=data,
                        pregranted=True)
    pkt = run_transfer(False, size, transport=transport, data=data,
                       pregranted=True)
    assert_equivalent(fast, pkt)
    assert fast["fast_transfers"] == 1


@pytest.mark.parametrize("transport,recvbuf", [
    ("unet", 8 * 1024),     # many small blasts
    ("udp", 64 * 1024),     # window of exactly one chunk
    ("udp", 256 * 1024),
    ("unet", 256 * 1024),
    ("udp", 1 * MB),        # whole transfer in one blast
])
def test_identical_across_window_sizes(transport, recvbuf):
    size = 300_000
    data = bytes(i % 256 for i in range(size))
    for pregranted in (False, True):
        fast = run_transfer(True, size, transport=transport, data=data,
                            recvbuf=recvbuf, pregranted=pregranted)
        pkt = run_transfer(False, size, transport=transport, data=data,
                           recvbuf=recvbuf, pregranted=pregranted)
        assert_equivalent(fast, pkt)
        assert fast["fast_transfers"] == 1


@pytest.mark.parametrize("seed", [0, 7, 20260806])
def test_identical_across_seeds_metadata_mode(seed):
    fast = run_transfer(True, 500_000, seed=seed)
    pkt = run_transfer(False, 500_000, seed=seed)
    assert_equivalent(fast, pkt)
    assert fast["received"][0] is None  # metadata mode carries no bytes


def test_fast_path_event_count_is_constant_in_size():
    """O(1) events per transfer: the whole point of the fast path."""
    small = run_transfer(True, 10_000)
    large = run_transfer(True, 5 * MB)
    assert large["fast_transfers"] == 1
    assert large["events"] == small["events"]
    pkt = run_transfer(False, 5 * MB)
    assert pkt["events"] > 20 * large["events"]


# ---------------------------------------------------------------------------
# Disengagement: the fast path must refuse what it cannot model
# ---------------------------------------------------------------------------

def test_fallback_under_frame_loss():
    data = bytes(i % 251 for i in range(300_000))
    fast = run_transfer(True, len(data), data=data, loss=0.02, seed=7)
    pkt = run_transfer(False, len(data), data=data, loss=0.02, seed=7)
    assert fast["fast_transfers"] == 0 and fast["fast_fallbacks"] >= 1
    assert_equivalent(fast, pkt)  # identical because the same path ran
    assert fast["received"][0] == data


def test_fallback_on_window_mismatch():
    """A pre-granted window that is not the receiver's recvbuf is a stale
    grant; the fast path must not trust it."""
    size = 200_000
    data = bytes(i % 256 for i in range(size))
    fast = run_transfer(True, size, data=data, pregranted=True,
                        recvbuf=256 * 1024, window=64 * 1024)
    pkt = run_transfer(False, size, data=data, pregranted=True,
                       recvbuf=256 * 1024, window=64 * 1024)
    assert fast["fast_transfers"] == 0 and fast["fast_fallbacks"] >= 1
    assert_equivalent(fast, pkt)


def test_fallback_when_receiver_absent():
    sim = Simulator()
    net = make_net(sim)
    tx = net.udp["alpha"].socket()
    params = BulkParams(ack_timeout_s=0.01, max_attempts=3)

    def sender():
        yield sim.process(send_bulk(tx, ("beta", 99), 1000, params=params))

    p = sim.process(sender())
    with pytest.raises(BulkError, match="no window"):
        sim.run(until=p)
    assert net.network.stats.count("fastpath.fallbacks") >= 1


def test_fallback_under_receiver_contention():
    """Two simultaneous transfers into one host: neither may engage (the
    closed form cannot model their interleaving on the RX engine)."""
    def run(fastpath):
        sim = Simulator(seed=5, fastpath=fastpath)
        net = make_net(sim, hosts=("alpha", "beta", "gamma"))
        params = BulkParams()
        size = 400_000
        socks = {
            "alpha": net.udp["alpha"].socket(),
            "gamma": net.udp["gamma"].socket(),
        }
        rx1 = net.udp["beta"].socket(port=71, recvbuf=256 * 1024)
        rx2 = net.udp["beta"].socket(port=72, recvbuf=256 * 1024)
        out = {}

        def send_from(host, port):
            yield sim.process(send_bulk(socks[host], ("beta", port), size,
                                        params=params))
            out[f"t_{host}"] = sim.now

        def recv_on(rx, key):
            result = yield sim.process(recv_bulk(rx, first_timeout=5.0,
                                                 params=params))
            out[key] = (result, sim.now)

        sim.process(send_from("alpha", 71))
        sim.process(send_from("gamma", 72))
        sim.process(recv_on(rx1, "r1"))
        sim.process(recv_on(rx2, "r2"))
        sim.run(until=30.0)
        out["fast"] = net.network.stats.count("fastpath.transfers")
        return out

    fast = run(True)
    pkt = run(False)
    assert fast["fast"] == 0  # both transfers must have fallen back
    assert fast == pkt or {k: v for k, v in fast.items() if k != "fast"} \
        == {k: v for k, v in pkt.items() if k != "fast"}


def test_abort_when_receiver_nic_goes_down_mid_transfer():
    """A mid-flight NIC failure must fire the transfer's abort: the sender
    dies with BulkError and the receiver gives up, like the packet path."""
    fast = run_transfer(True, 5 * MB, nic_down_at=0.05)
    assert fast["fast_transfers"] == 1
    assert fast["fast_aborts"] >= 1
    assert "aborted" in fast.get("sender_error", "")
    assert fast["received"] is None
    pkt = run_transfer(False, 5 * MB, nic_down_at=0.05)
    assert "sender_error" in pkt and pkt["received"] is None


def test_abort_when_sender_nic_goes_down_mid_transfer():
    fast = run_transfer(True, 5 * MB, nic_down_at=0.05, down_host="alpha")
    assert fast["fast_transfers"] == 1
    assert fast["fast_aborts"] >= 1
    assert fast["received"] is None


def test_nic_down_before_start_prevents_engagement():
    fast = run_transfer(True, 100_000, nic_down_at=0.0)
    assert fast["fast_transfers"] == 0
    assert fast["received"] is None


# ---------------------------------------------------------------------------
# Injected faults (nemesis-style): loss bursts and mid-transfer NIC flaps
# ---------------------------------------------------------------------------

def test_fastpath_disengages_under_injected_loss_burst():
    """An active loss burst means the wire is not lossless: the fast path
    must fall back, and then behave exactly like the packet path (same
    seed, same loss draws) down to the byte and the tick."""
    data = bytes(i % 251 for i in range(300_000))
    burst = (0.0, None, 0.02)
    fast = run_transfer(True, len(data), data=data, burst=burst, seed=9)
    pkt = run_transfer(False, len(data), data=data, burst=burst, seed=9)
    assert fast["fast_transfers"] == 0 and fast["fast_fallbacks"] >= 1
    assert_equivalent(fast, pkt)
    assert fast["received"][0] == data  # survived the burst, byte-identical


def test_fastpath_reengages_after_burst_heals():
    """The heal must fully restore the fast path: a transfer starting
    after the burst window engages and still matches the packet path."""
    data = bytes(i % 253 for i in range(200_000))
    burst = (0.0, 0.02, 0.3)
    fast = run_transfer(True, len(data), data=data, burst=burst,
                        start_at=0.05)
    pkt = run_transfer(False, len(data), data=data, burst=burst,
                       start_at=0.05)
    assert fast["fast_transfers"] == 1 and fast["fast_fallbacks"] == 0
    assert_equivalent(fast, pkt)
    assert fast["received"][0] == data


def test_burst_arriving_mid_transfer_never_corrupts_payload():
    """A burst that begins while the transfer is in flight: whatever path
    ran, a completed transfer must deliver exactly the payload (loss may
    slow it down or kill it, never truncate it silently)."""
    data = bytes(i % 256 for i in range(1_000_000))
    for fastpath in (True, False):
        out = run_transfer(fastpath, len(data), data=data,
                           burst=(0.01, 0.2, 0.2), seed=3)
        if out["received"] is not None and out["received"][0] is not None:
            assert out["received"][0] == data
        else:
            assert "sender_error" in out or out["sent"] is None


def test_midtransfer_nic_flap_differential():
    """A short flap mid-transfer: the fast path aborts loudly (its plan
    cannot survive a downed NIC), the packet path rides it out via NACK
    retries — and whichever completes must deliver identical bytes."""
    data = bytes(i % 249 for i in range(2_000_000))
    recover = BulkParams(ack_timeout_s=0.05, max_attempts=20)
    pkt = run_transfer(False, len(data), data=data, nic_down_at=0.05,
                       nic_up_at=0.12, bulk_params=recover)
    assert pkt["received"][0] == data, "packet path should ride out a flap"

    fast = run_transfer(True, len(data), data=data, nic_down_at=0.05,
                        nic_up_at=0.12,
                        bulk_params=recover)
    assert fast["fast_transfers"] == 1
    assert fast["fast_aborts"] >= 1
    # loud failure, never silent corruption
    assert "aborted" in fast.get("sender_error", "")
    assert fast["received"] is None


def test_flap_before_transfer_forces_packet_path_then_recovers():
    """NIC down at engagement time: no fast path; once the flap heals a
    new transfer engages again."""
    during = run_transfer(True, 100_000, nic_down_at=0.0, nic_up_at=10.0)
    assert during["fast_transfers"] == 0
    after = run_transfer(True, 100_000, nic_down_at=0.0, nic_up_at=0.01,
                         start_at=0.02)
    assert after["fast_transfers"] == 1


def test_partition_prevents_fastpath_and_heal_restores_it():
    """A network cut between the endpoints: clearance must refuse (the
    closed form would teleport bytes across the cut); healing restores
    engagement."""
    def run_with_cut(fastpath, heal_at=None, start_at=0.0):
        sim = Simulator(seed=21, fastpath=fastpath)
        net = make_net(sim)
        net.network.set_partition([["alpha"], ["beta"]])
        tx = net.udp["alpha"].socket()
        rx = net.udp["beta"].socket(port=77, recvbuf=256 * 1024)
        params = BulkParams(ack_timeout_s=0.02, max_attempts=3)
        out = {}

        if heal_at is not None:
            def healer():
                yield sim.timeout(heal_at)
                net.network.clear_partition()
            sim.process(healer())

        def sender():
            yield sim.timeout(start_at)
            try:
                out["sent"] = yield sim.process(send_bulk(
                    tx, ("beta", 77), 100_000,
                    data=bytes(100_000), params=params))
            except BulkError as exc:
                out["sender_error"] = str(exc)

        def receiver():
            yield sim.timeout(start_at)
            out["received"] = yield sim.process(recv_bulk(
                rx, first_timeout=0.5, params=params))

        sim.process(sender())
        sim.process(receiver())
        sim.run(until=10.0)
        out["fast"] = net.network.stats.count("fastpath.transfers")
        out["fallbacks"] = net.network.stats.count("fastpath.fallbacks")
        out["dropped"] = net.network.stats.count("rx.dropped.partitioned")
        return out

    cut = run_with_cut(True)
    assert cut["fast"] == 0 and cut["fallbacks"] >= 1
    assert cut["received"] is None and "sender_error" in cut
    assert cut["dropped"] > 0
    pkt = run_with_cut(False)
    assert pkt["received"] is None and "sender_error" in pkt

    healed = run_with_cut(True, heal_at=0.01, start_at=0.02)
    assert healed["fast"] == 1
    assert healed["sent"] == 100_000


# ---------------------------------------------------------------------------
# Supporting machinery
# ---------------------------------------------------------------------------

def test_simulator_at_fires_at_exact_absolute_time():
    sim = Simulator()
    seen = {}

    def proc():
        yield sim.timeout(0.1)
        # absolute scheduling must not drift: now + (when - now) is not
        # always when in float arithmetic, which is why at() exists
        yield sim.at(0.3)
        seen["t"] = sim.now

    sim.process(proc())
    sim.run()
    assert seen["t"] == 0.3


def test_simulator_at_rejects_past_times():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        with pytest.raises(SimulationError):
            sim.at(0.5)

    sim.run(until=sim.process(proc()))


def test_partition_is_zero_copy():
    from repro.net.bulk import _partition
    blob = bytearray(b"z" * 10_000)
    chunks = _partition(len(blob), blob, 1472)
    assert all(isinstance(c.data, memoryview) for c in chunks)
    assert b"".join(c.data for c in chunks) == bytes(blob)
