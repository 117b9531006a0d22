"""What one datagram costs the simulator's host: a call budget.

A two-host round trip of ``N`` small UDP datagrams, sent 1 ms apart and
each received with ``recv(timeout=1.0)``, dispatches a fixed number of
events per datagram (12 on the datagram fast path, 20 on the packet
path) and makes a fixed number of Python-level calls around them.  This
test pins the events and bounds the calls, so a change that brings back
per-datagram recomputation (a cost recomputed instead of read from the
transport's cost table, a counter bumped by a call each, a repeated
state check) fails here instead of needing a noisy pair of wall-clock
runs: raw wall seconds spread by 20-25% between runs on a shared VM,
while call counts repeat exactly.

Calls per datagram on CPython 3.11, counted with ``sys.setprofile``:
102 on the fast path and 114 on the packet path before the cost table
and the lean send -> deliver -> recv path, 70 and 88 after.  Then 64
and 87: ``Simulator.at`` schedules inline (five calls fewer on the fast
path), and a fired receive withdraws from its losing timeout, which
then fires with no callback (one fewer on each).  The budgets leave
about 4% for interpreter differences.
"""

import sys

import pytest

from repro.sim import Simulator
from repro.testing import collector_off, make_net

#: datagrams in the round trip
N = 200
#: events outside the per-datagram loop: the sender's and the
#: receiver's bootstrap and exit
FIXED_EVENTS = 4

#: fastpath -> (events per datagram, call budget per datagram)
COST = {True: (12, 67), False: (20, 91)}


def round_trip(fastpath: bool) -> tuple[int, int]:
    """Events dispatched and Python calls made by the round trip."""
    sim = Simulator(seed=1)
    net = make_net(sim)
    sim.fastpath = fastpath
    tx = net.udp["alpha"].socket()
    rx = net.udp["beta"].socket(port=77)
    got = []

    def sender():
        for _ in range(N):
            yield tx.send(100, dst=("beta", 77))
            yield sim.timeout(0.001)

    def receiver():
        for _ in range(N):
            got.append((yield rx.recv(timeout=1.0)))

    sim.process(sender())
    sim.process(receiver())
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # with the collector off, no finalizer of earlier tests' garbage
    # runs (and counts) inside the measured run
    with collector_off():
        sys.setprofile(profile)
        try:
            sim.run()
        finally:
            sys.setprofile(None)
    assert [d.size for d in got] == [100] * N
    fast = net.network.stats.count("fastpath.dgrams")
    assert fast == (N if fastpath else 0)
    return sim.events_processed, calls


@pytest.mark.parametrize("fastpath", [True, False],
                         ids=["fastpath", "packet"])
def test_datagram_events_and_call_budget(fastpath):
    events_per, budget = COST[fastpath]
    events, calls = round_trip(fastpath)
    assert events == events_per * N + FIXED_EVENTS
    assert calls / N <= budget, (
        f"{calls / N:.2f} Python calls per datagram, budget {budget}")
