"""The network fast paths' clearance, one refusal condition per case.

A closed form may own a host pair only while nothing the packet path
would observe can interfere: no loss on the wire, both NICs up and
reachable, all four serialization engines idle with empty queues, and no
other bulk registration or fast datagram on either host.  Each case
below breaks exactly one of those conditions before a probe starts, and
asserts that the probe -- a ``send_bulk`` or a single datagram from
alpha to beta -- stays on the packet path, with times and statistics
equal to those of a run with every fast path off.  ``test_clear_pair``
shows that the same probes do engage when no condition is broken.
"""

import pytest

from repro.net import BulkError, BulkParams, recv_bulk, send_bulk, \
    transport_params
from repro.sim import Simulator
from repro.testing import make_net

HOSTS = ("alpha", "beta", "gamma")
#: every probe starts here; each condition is in place by then
START = 1e-4
#: how long an engine holder keeps its engine
HOLD_S = 2e-3
#: a per-frame loss probability that makes a transport lossy without
#: (at these sizes and this seed) losing a frame
LOSS = 1e-6
BULK_BYTES = 100_000
DGRAM_BYTES = 20_000


def world(fastpath):
    """Three hosts on one switch, with every fast path on or off."""
    sim = Simulator(seed=5)
    net = make_net(sim, hosts=HOSTS)
    sim.fastpath, params = fastpath, BulkParams()
    return sim, net, params


# -- the conditions ---------------------------------------------------------

def lossy(host):
    def apply(sim, net):
        net.udp[host].params = transport_params("udp", frame_loss_prob=LOSS)
    return apply


def burst(sim, net):
    net.network.extra_loss_prob = LOSS


def nic_down(host):
    def apply(sim, net):
        net.nics[host].down = True
    return apply


def partition(sim, net):
    net.network.set_partition([{"alpha"}, {"beta", "gamma"}])


def held(host, engine, queued=False):
    """``host``'s ``engine`` held from t=0, with a second holder queued
    behind the first when ``queued``."""
    def apply(sim, net):
        resource = getattr(net.nics[host], engine)

        def holder():
            yield resource.acquire()
            yield sim.timeout(HOLD_S)
            resource.release()
        sim.process(holder())
        if queued:
            sim.process(holder())
    return apply


def bulk_registered(host):
    def apply(sim, net):
        net.network.bulk_begin(host, "gamma")
    return apply


def dgram_in_flight(host):
    """A fast datagram from gamma to ``host`` (to an unbound port), sent
    at t=0 and still in gamma's send CPU when the probe starts."""
    def apply(sim, net):
        net.udp["gamma"].socket().send(DGRAM_BYTES, dst=(host, 99))
    return apply


#: name -> (condition, probes it must refuse, fast datagrams it sends)
CASES = {
    "sender-loss": (lossy("alpha"), ("bulk", "dgram"), 0),
    "receiver-loss": (lossy("beta"), ("bulk",), 0),
    "loss-burst": (burst, ("bulk", "dgram"), 0),
    "src-nic-down": (nic_down("alpha"), ("bulk", "dgram"), 0),
    "dst-nic-down": (nic_down("beta"), ("bulk", "dgram"), 0),
    "partition": (partition, ("bulk", "dgram"), 0),
    **{f"{host}-{engine}-{how}": (held(host, engine, how == "queued"),
                                  ("bulk", "dgram"), 0)
       for host in ("alpha", "beta") for engine in ("tx", "rx")
       for how in ("held", "queued")},
    "bulk-on-src": (bulk_registered("alpha"), ("bulk", "dgram"), 0),
    "bulk-on-dst": (bulk_registered("beta"), ("bulk", "dgram"), 0),
    "dgram-on-src": (dgram_in_flight("alpha"), ("bulk", "dgram"), 1),
    "dgram-on-dst": (dgram_in_flight("beta"), ("bulk", "dgram"), 1),
}


# -- the probes --------------------------------------------------------------

def probe_bulk(sim, net, params, out):
    tx = net.udp["alpha"].socket()
    rx = net.udp["beta"].socket(port=77, recvbuf=256 * 1024)

    def sender():
        yield sim.timeout(START)
        try:
            out["sent"] = yield sim.process(send_bulk(
                tx, ("beta", 77), BULK_BYTES, params=params))
        except BulkError:
            out["sent"] = "failed"
        out["t_tx"] = sim.now

    def receiver():
        yield sim.timeout(START)
        out["received"] = yield sim.process(recv_bulk(
            rx, first_timeout=1.0, params=params))
        out["t_rx"] = sim.now

    sim.process(sender())
    sim.process(receiver())
    return tx, rx


def probe_dgram(sim, net, params, out):
    tx = net.udp["alpha"].socket()
    rx = net.udp["beta"].socket(port=77)

    def sender():
        yield sim.timeout(START)
        out["sent"] = yield tx.send(DGRAM_BYTES, dst=("beta", 77))
        out["t_tx"] = sim.now

    def receiver():
        dgram = yield rx.recv(timeout=1.0)
        out["received"] = None if dgram is None else dgram.size
        out["t_rx"] = sim.now

    sim.process(sender())
    sim.process(receiver())
    return tx, rx


PROBES = {"bulk": probe_bulk, "dgram": probe_dgram}


def _strip_fastpath(counters):
    return {k: v for k, v in counters.items()
            if not k.startswith("fastpath.")}


def run_probe(probe, condition, fastpath):
    """Apply ``condition`` at t=0, run ``probe`` from START; return
    everything observable plus the fast-path counters."""
    sim, net, params = world(fastpath)
    if condition is not None:
        condition(sim, net)
    out = {}
    stats = net.network.stats
    out["condition_fast_dgrams"] = stats.count("fastpath.dgrams")
    socks = PROBES[probe](sim, net, params, out)
    sim.run(until=5.0)
    out["network"] = _strip_fastpath(stats.counters)
    out["nics"] = {h: dict(nic.stats.counters)
                   for h, nic in net.nics.items()}
    out["sockets"] = [dict(s.stats.counters) for s in socks]
    fast = {"transfers": stats.count("fastpath.transfers"),
            "dgrams": stats.count("fastpath.dgrams")}
    return out, fast


@pytest.mark.parametrize("name,probe", [
    (name, probe) for name, (_, probes, _) in CASES.items()
    for probe in probes])
def test_condition_keeps_probe_on_packet_path(name, probe):
    condition, _, condition_dgrams = CASES[name]
    on, fast = run_probe(probe, condition, True)
    off, none = run_probe(probe, condition, False)
    assert on["condition_fast_dgrams"] == condition_dgrams
    # the probe engaged nothing: no transfer, no datagram of its own
    assert fast == {"transfers": 0, "dgrams": condition_dgrams}
    assert none == {"transfers": 0, "dgrams": 0}
    assert on == {**off, "condition_fast_dgrams": condition_dgrams}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_clear_pair(probe):
    """With no condition broken the same probes engage, at the same
    times as the packet path: each case above refuses for its cause."""
    on, fast = run_probe(probe, None, True)
    off, _ = run_probe(probe, None, False)
    if probe == "bulk":
        assert fast["transfers"] == 1
        assert on["received"][1] == BULK_BYTES
    else:
        assert fast["dgrams"] == 1
        assert on["received"] == DGRAM_BYTES
    for key in ("sent", "received", "t_tx", "t_rx"):
        assert on[key] == off[key]
