"""Tests for the synthetic workload generators and the app harness."""

import numpy as np
import pytest

from repro.exp.platform import MB, Platform, PlatformParams
from repro.sim import Simulator
from repro.workloads import (SyntheticParams, SyntheticRunner, TraceRequest,
                             TraceRunner, iteration_offsets)


def offsets_for(pattern, ds=1 << 20, req=8192, **kw):
    params = SyntheticParams(pattern=pattern, dataset_bytes=ds,
                             req_size=req, **kw)
    rng = np.random.default_rng(3)
    return params, list(iteration_offsets(params, rng))


def test_params_validation():
    with pytest.raises(ValueError):
        SyntheticParams(pattern="zigzag")
    with pytest.raises(ValueError):
        SyntheticParams(dataset_bytes=10_000, req_size=8192)


def test_sequential_covers_dataset_in_order():
    params, iters = offsets_for("sequential", num_iter=2)
    for it in iters:
        assert len(it) == params.requests_per_iter
        assert (np.diff(it) == params.req_size).all()
        assert it[0] == 0
        assert it[-1] == params.dataset_bytes - params.req_size


def test_random_offsets_aligned_and_in_range():
    params, iters = offsets_for("random")
    for it in iters:
        assert (it % params.req_size == 0).all()
        assert (it >= 0).all()
        assert (it < params.dataset_bytes).all()


def test_random_iterations_differ():
    _, iters = offsets_for("random", num_iter=2)
    assert not np.array_equal(iters[0], iters[1])


def test_hotcold_concentration():
    params, iters = offsets_for("hotcold")
    hot_boundary = params.dataset_bytes * params.hot_fraction
    frac_hot = np.mean([np.mean(it < hot_boundary) for it in iters])
    assert 0.75 < frac_hot < 0.86  # ~80% of refs to the hot 20%


def test_each_iteration_reads_whole_dataset_volume():
    params, iters = offsets_for("hotcold", num_iter=3)
    assert all(len(it) == params.requests_per_iter for it in iters)


def make_platform(sim, dodo):
    params = PlatformParams().scaled(1 / 256)
    return Platform(sim, params, dodo=dodo)


def test_synthetic_runner_baseline_counts():
    sim = Simulator(seed=51)
    plat = make_platform(sim, dodo=False)
    sp = SyntheticParams(pattern="sequential", dataset_bytes=1 * MB,
                         req_size=8192, num_iter=2, compute_s=0.001)
    runner = SyntheticRunner(plat, sp, use_dodo=False)
    res = sim.run(until=runner.run())
    assert res.requests == 2 * (1 * MB // 8192)
    assert res.bytes_read == 2 * MB
    assert len(res.iteration_s) == 2
    assert res.elapsed_s == pytest.approx(sum(res.iteration_s), rel=1e-6)


def test_synthetic_runner_dodo_later_iterations_faster():
    sim = Simulator(seed=52)
    plat = make_platform(sim, dodo=True)
    sp = SyntheticParams(pattern="random", dataset_bytes=1 * MB,
                         req_size=8192, num_iter=3, compute_s=0.001)
    runner = SyntheticRunner(plat, sp, use_dodo=True)
    res = sim.run(until=runner.run())
    assert res.iteration_s[1] < res.iteration_s[0]
    assert res.steady_state_s < res.iteration_s[0]


def test_compute_time_floor():
    """With compute_s=c, an iteration can never beat c * requests."""
    sim = Simulator(seed=53)
    plat = make_platform(sim, dodo=False)
    sp = SyntheticParams(pattern="sequential", dataset_bytes=512 * 1024,
                         req_size=8192, num_iter=1, compute_s=0.01)
    runner = SyntheticRunner(plat, sp, use_dodo=False)
    res = sim.run(until=runner.run())
    assert res.elapsed_s >= 0.01 * res.requests


def test_trace_runner_replays_reads_and_writes():
    sim = Simulator(seed=54)
    plat = make_platform(sim, dodo=True)
    trace = [
        TraceRequest("read", 0, 64 * 1024, 0.001),
        TraceRequest("write", 64 * 1024, 64 * 1024, 0.002),
        TraceRequest("read", 0, 64 * 1024, 0.001),
    ]
    runner = TraceRunner(plat, trace, dataset_bytes=1 * MB, use_dodo=True,
                         region_bytes=64 * 1024)
    res = sim.run(until=runner.run())
    assert res.requests == 3
    assert res.elapsed_s >= 0.004  # at least the compute time


def test_trace_runner_request_spanning_regions():
    sim = Simulator(seed=55)
    plat = make_platform(sim, dodo=True)
    # one 96 KB read over 64 KB regions must split into two region reads
    trace = [TraceRequest("read", 32 * 1024, 96 * 1024, 0.0)]
    runner = TraceRunner(plat, trace, dataset_bytes=1 * MB, use_dodo=True,
                         region_bytes=64 * 1024)
    res = sim.run(until=runner.run())
    assert res.bytes_read == 96 * 1024
    assert len(runner._crds) == 2
