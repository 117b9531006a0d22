"""Shared test scaffolding: tiny platforms and networks, importable.

These helpers used to live (duplicated) in ``tests/core/conftest.py``
and ``tests/net/conftest.py``.  They are part of the package so tests
and benchmarks can build the same scaled-down clusters without reaching
into test packages:

* :func:`make_platform` — a 3-host functional Dodo platform;
* :func:`run` — drive one generator process to completion;
* :func:`make_backing_file` — create + open a backing file on the app
  node;
* :class:`TinyNet` / :func:`make_net` — a bare named-host network with
  both transports, no cluster layer on top;
* :func:`collector_off` — run a block with the cyclic garbage collector
  off, so the block can count the cyclic garbage it made.

Everything here is deterministic given the caller's ``Simulator`` seed;
no helper draws randomness of its own.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

from repro.core.config import DodoConfig
from repro.exp.platform import MB, Platform, PlatformParams
from repro.net import NIC, Network, TransportEndpoint, transport_params

__all__ = ["MB", "TinyNet", "collector_off", "make_backing_file",
           "make_net", "make_platform", "run"]


def make_platform(sim, *, n_hosts=3, pool_mb=2, local_cache_kb=256,
                  loss=0.0, dodo=True, allocator="first-fit", config=None,
                  faults=None, nemesis_auditor=None):
    """A tiny functional platform: ``n_hosts`` memory hosts x 2 MB pools.

    ``config`` holds the Dodo settings; the default ``DodoConfig()``
    carries real payload bytes over UDP.  ``faults`` (a
    :class:`~repro.faults.plan.FaultPlan`) attaches a nemesis.
    """
    params = PlatformParams(
        n_memory_hosts=n_hosts, imd_pool_bytes=pool_mb * MB,
        local_cache_bytes=local_cache_kb * 1024,
        app_fs_cache_dodo=1 * MB, app_fs_cache_baseline=4 * MB,
        disk_capacity_bytes=256 * MB, frame_loss_prob=loss,
        allocator_kind=allocator)
    return Platform(sim, params, dodo=dodo, config=config or DodoConfig(),
                    faults=faults, nemesis_auditor=nemesis_auditor)


def run(sim, gen):
    """Run a generator as a process to completion and return its value."""
    p = sim.process(gen)
    return sim.run(until=p)


def make_backing_file(platform, name="data", size=1 * MB):
    """Create + open a backing file on the app node; returns its fd."""
    fs = platform.app.fs
    if not fs.exists(name):
        fs.create(name, size=size)
    return fs.open(name, "r+").fd


class TinyNet:
    """A bare network of named hosts with both transports on each."""

    def __init__(self, sim, hosts, loss=0.0):
        self.sim = sim
        self.network = Network(sim)
        self.nics = {}
        self.udp = {}
        self.unet = {}
        for name in hosts:
            nic = NIC(sim, name)
            self.network.attach(nic)
            self.nics[name] = nic
            self.udp[name] = TransportEndpoint(
                sim, nic, self.network, transport_params("udp", loss))
            self.unet[name] = TransportEndpoint(
                sim, nic, self.network, transport_params("unet", loss))


def make_net(sim, hosts=("alpha", "beta"), loss=0.0):
    """Build a small TinyNet fixture with both transports per host."""
    return TinyNet(sim, list(hosts), loss=loss)


@contextmanager
def collector_off():
    """Disable the cyclic garbage collector for the ``with`` body, after
    collecting everything earlier code left (finalizing a suspended
    generator can keep its cycle for one more collection).  A
    ``gc.collect()`` inside the body then returns the number of
    unreachable objects the body itself left in reference cycles."""
    while gc.collect():
        pass
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
