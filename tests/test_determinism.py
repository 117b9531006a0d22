"""Determinism: identical seeds must reproduce identical simulations.

The evaluation methodology rests on exact A/B comparisons (baseline vs
Dodo, UDP vs U-Net, policy vs policy) where only the factor under test
differs.  That only holds if a seeded run is bit-for-bit repeatable in
virtual time and event order.
"""

import pytest

from repro.exp.platform import MB, Platform, PlatformParams
from repro.sim import Simulator
from repro.workloads import SyntheticParams, SyntheticRunner


def run_workload(seed):
    sim = Simulator(seed=seed)
    params = PlatformParams().scaled(1 / 256)
    platform = Platform(sim, params, dodo=True)
    sp = SyntheticParams(pattern="random", dataset_bytes=2 * MB,
                         req_size=8192, num_iter=2, compute_s=0.002)
    runner = SyntheticRunner(platform, sp, use_dodo=True)
    res = sim.run(until=runner.run())
    return res.elapsed_s, res.iteration_s, sim.events_processed, sim.now


def test_same_seed_bitwise_identical():
    a = run_workload(seed=7)
    b = run_workload(seed=7)
    assert a == b  # elapsed, per-iteration times, event count, clock


def test_different_seed_differs():
    a = run_workload(seed=7)
    b = run_workload(seed=8)
    # random offsets differ, so the timing cannot coincide exactly
    assert a[0] != b[0]


def test_component_rng_isolation():
    """Consuming one component's stream must not shift another's."""
    sim1 = Simulator(seed=3)
    sim1.rng("owner.w0").random(1000)  # burn a foreign stream
    seq1 = sim1.rng("net.loss").random(5)

    sim2 = Simulator(seed=3)
    seq2 = sim2.rng("net.loss").random(5)
    assert (seq1 == seq2).all()


def test_run_result_steady_state_single_iteration():
    from repro.workloads import RunResult
    r = RunResult(elapsed_s=5.0, iteration_s=[5.0])
    assert r.steady_state_s == 5.0
    r2 = RunResult(elapsed_s=9.0, iteration_s=[5.0, 2.0, 2.0])
    assert r2.steady_state_s == pytest.approx(2.0)
