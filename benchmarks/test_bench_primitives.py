"""Microbenchmarks of the substrate primitives (not a paper figure).

These quantify the simulated data path itself — remote-read latency and
bulk bandwidth per transport — and the simulator's event throughput,
which bounds how large an experiment is practical.
"""

import pytest

from repro.net import recv_bulk, send_bulk
from repro.sim import Simulator

from repro.core.config import DodoConfig
from repro.exp.platform import Platform, PlatformParams

MB = 1024 * 1024


def remote_read_latency(transport: str, size: int) -> float:
    """Virtual-time latency of one warm mread of ``size`` bytes."""
    sim = Simulator(seed=2)
    params = PlatformParams(n_memory_hosts=1, imd_pool_bytes=4 * MB)
    platform = Platform(sim, params, dodo=True, config=DodoConfig(
        transport=transport, store_payload=False))
    lib = platform.runtime()
    fs = platform.app.fs
    fs.create("f", size=2 * MB)
    fd = fs.open("f", "r+").fd
    out = {}

    def proc():
        desc, err = yield from lib.mopen(1 * MB, fd, 0)
        assert err == 0
        yield from lib.mread(desc, 0, size)  # warm
        t0 = sim.now
        for _ in range(10):
            yield from lib.mread(desc, 0, size)
        out["latency"] = (sim.now - t0) / 10

    sim.run(until=sim.process(proc()))
    return out["latency"]


@pytest.mark.parametrize("transport", ["udp", "unet"])
@pytest.mark.parametrize("size", [8192, 32768, 131072])
def test_bench_mread_latency(benchmark, transport, size):
    latency = benchmark.pedantic(remote_read_latency,
                                 args=(transport, size),
                                 rounds=1, iterations=1)
    print(f"\nmread {size >> 10}K over {transport}: "
          f"{latency * 1e3:.2f} ms ({size / latency / 1e6:.1f} MB/s)")
    # remote memory must beat the 0.57 MB/s random disk by a wide margin
    assert size / latency > 3e6


@pytest.mark.parametrize("transport", ["udp", "unet"])
def test_bench_bulk_bandwidth(benchmark, transport):
    """1 MB blast-protocol transfer bandwidth per transport."""
    def run():
        sim = Simulator(seed=3)
        from repro.net import NIC, Network, TransportEndpoint, \
            transport_params
        network = Network(sim)
        eps = {}
        for host in ("a", "b"):
            nic = NIC(sim, host)
            network.attach(nic)
            eps[host] = TransportEndpoint(sim, nic, network,
                                          transport_params(transport))
        tx = eps["a"].socket()
        rx = eps["b"].socket(port=7, recvbuf=256 * 1024)

        def sender():
            yield sim.process(send_bulk(tx, ("b", 7), 1 * MB))
            return sim.now

        sim.process(recv_bulk(rx))
        t_done = sim.run(until=sim.process(sender()))
        return 1 * MB / t_done

    bw = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nbulk 1 MB over {transport}: {bw / 1e6:.2f} MB/s")
    assert 6e6 < bw < 12.5e6  # below raw wire, above disk


def test_bench_simulator_event_rate(benchmark):
    """Raw DES throughput: timeout events processed per wall second."""
    def run():
        sim = Simulator()

        def ticker():
            for _ in range(200_000):
                yield sim.timeout(1.0)

        sim.run(until=sim.process(ticker()))
        return sim.events_processed

    events = benchmark(run)
    assert events >= 200_000


def test_bench_primitives_artifact(once, tmp_path):
    """The primitives gate: fast path >= 5x on a large lossless
    transfer (the gate's floor), simulated time untouched, and the JSON
    artifact emitted."""
    import json

    import gate

    out = tmp_path / "BENCH_primitives.json"
    rc = once(gate.main, ["primitives", "--out", str(out)])
    assert rc == 0
    metrics = json.loads(out.read_text())
    print(f"\nfast path: {metrics['bulk_fast_speedup_x']:.0f}x over the "
          f"packet path ({metrics['bulk_mb_per_wall_s']:,.0f} MB per wall "
          f"second, {metrics['bulk_fast_events']} events)")
    assert metrics["bulk_fast_events"] < 100  # O(1), not O(chunks)
