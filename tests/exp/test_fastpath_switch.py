"""One switch, ``Simulator(fastpath=)``, owns the bulk, datagram and disk
fast paths, and turning it off moves no simulated result.

lu over UDP exercises all three on one full-stack run: region transfers
(bulk), the RPCs around them (datagrams) and the paging disk (batches).
"""

from repro.exp.fig7 import run_lu
from repro.metrics.recorder import start_collection, stop_collection


def run(fastpath):
    """lu at 1/256 scale; returns its result and, summed over the
    network and disk recorders, every ``fastpath.*`` counter."""
    recorders = start_collection()
    try:
        result = run_lu("udp", scale=1 / 256, fastpath=fastpath)
    finally:
        stop_collection(recorders)
    watched = [r for r in recorders
               if r.name == "network" or r.name.endswith(".disk")]
    assert {r.name for r in watched} >= {"network", "app.disk"}
    counts = {}
    for rec in watched:
        for key, value in rec.counters.items():
            if key.startswith("fastpath."):
                counts[key] = counts.get(key, 0.0) + value
    return result, counts


def test_switch_off_turns_every_fast_path_off_and_changes_no_result():
    on, fast_on = run(True)
    off, fast_off = run(False)
    assert on == off
    for key in ("fastpath.transfers", "fastpath.dgrams",
                "fastpath.batches"):
        assert fast_on.get(key, 0.0) > 0, key
    assert all(value == 0 for value in fast_off.values()), fast_off
