"""Differential tests for the per-transport datagram cost table.

Every send, fast datagram and bulk plan reads a datagram's ``(frames,
leg)`` from its transport's :class:`~repro.net.network.CostTable`
instead of recomputing it.  An entry must be exactly (``==`` on the
floats) what a fresh :meth:`Network.leg` call returns for the same
shape, tables must be shared only by equal parameter sets on one
network, and the shapes the bulk planner reads must be the very shapes
the packet path sends.
"""

from dataclasses import replace

import pytest

from repro.net import BulkParams, Network, recv_bulk, send_bulk
from repro.net.bulk import CTRL_SIZE
from repro.net.params import LinkParams, UDP_PARAMS, transport_params
from repro.sim import Simulator
from repro.testing import make_net

#: single-datagram sizes around every frame boundary (1472 payload bytes
#: fit one frame) and both ends of the UDP range
SIZES = [0, 1, 1471, 1472, 1473, 1500, 8192, 65535, 65536]


def fresh(net: Network, params, shape) -> tuple:
    """The cost of ``shape`` computed from scratch, as the table's miss
    does: frames first, then :meth:`Network.leg`."""
    if isinstance(shape, tuple):
        return shape[1], net.leg(params, *shape)
    frames = net.frames_for(shape)
    return frames, net.leg(params, shape, frames)


@pytest.mark.parametrize("transport", ["udp", "unet"])
def test_single_datagram_entries_equal_a_fresh_leg(transport):
    sim = Simulator(seed=1)
    net = make_net(sim)
    params = transport_params(transport)
    table = net.network.cost_table(params)
    for size in SIZES:
        if size > params.max_payload:
            continue
        entry = table[size]
        assert entry == fresh(net.network, params, size)
        assert table[size] is entry  # filled once, then only read


def _bulk_transfer(transport, fastpath, size=1_000_000):
    """One alpha -> beta bulk transfer; returns the network."""
    sim = Simulator(seed=1, fastpath=fastpath)
    net = make_net(sim)
    eps = net.udp if transport == "udp" else net.unet
    tx = eps["alpha"].socket()
    rx = eps["beta"].socket(port=77)
    params = BulkParams()
    sim.process(send_bulk(tx, ("beta", 77), size, params=params))
    receiver = sim.process(recv_bulk(rx, first_timeout=5.0, params=params))
    sim.run(until=30.0)
    assert receiver.value[1] == size
    assert net.network.stats.count("fastpath.transfers") == int(fastpath)
    return net


@pytest.mark.parametrize("transport", ["udp", "unet"])
def test_bulk_shapes_equal_a_fresh_leg_and_match_the_packet_path(transport):
    """The planner's blast and control shapes are the packet path's."""
    shapes = {}
    for fastpath in (True, False):
        net = _bulk_transfer(transport, fastpath)
        eps = net.udp if transport == "udp" else net.unet
        params, table = eps["alpha"].params, eps["alpha"].costs
        for shape, entry in table.items():
            assert entry == fresh(net.network, params, shape), shape
        shapes[fastpath] = set(table)
        assert CTRL_SIZE in table
        assert any(isinstance(s, tuple) and s[2] > 1 for s in table)
    blasts = {s for s in shapes[True] if isinstance(s, tuple)}
    assert blasts <= shapes[False]


def test_equal_parameter_sets_share_one_table():
    sim = Simulator(seed=1)
    net = make_net(sim, hosts=("alpha", "beta", "gamma"), loss=0.01)
    udp = [net.udp[h] for h in ("alpha", "beta", "gamma")]
    # each host got its own replace()d copy, equal by value
    assert udp[0].params is not udp[1].params
    assert udp[0].params == udp[1].params
    assert udp[0].costs is udp[1].costs is udp[2].costs
    assert net.unet["alpha"].costs is not udp[0].costs
    assert net.network.cost_table(transport_params("udp", 0.01)) \
        is udp[0].costs


def test_a_different_overhead_gets_its_own_table():
    network = Network(Simulator(seed=1))
    slower = replace(UDP_PARAMS,
                     send_overhead_s=2 * UDP_PARAMS.send_overhead_s)
    base, other = network.cost_table(UDP_PARAMS), network.cost_table(slower)
    assert other is not base
    assert other[100] != base[100]
    assert other[100] == fresh(network, slower, 100)


def test_two_networks_never_share_a_table():
    sim = Simulator(seed=1)
    a, b = Network(sim), Network(sim)
    assert a.cost_table(UDP_PARAMS) is not b.cost_table(UDP_PARAMS)
    slow = Network(sim, LinkParams(bandwidth_bps=10e6))
    assert slow.cost_table(UDP_PARAMS)[1500] \
        == fresh(slow, UDP_PARAMS, 1500) \
        != a.cost_table(UDP_PARAMS)[1500]
