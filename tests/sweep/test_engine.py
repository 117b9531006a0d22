"""The sweep driver: pooling, memoization, resume, determinism.

The acceptance bar (mirrored by the CI sweep-smoke step):

* ``jobs=1`` and ``jobs=N`` produce byte-identical per-point cache
  entries for the same spec;
* a resumed invocation reports previously-completed points as cache
  hits and reruns nothing;
* a failed point neither aborts the sweep nor poisons the cache, and a
  resume retries exactly the failures — the crash-recovery story.
"""

import io
import json
import os

import pytest

from repro.sweep import (SweepPoint, SweepSpec, load_spec,
                         parallel_map, point_key, run_sweep,
                         run_sweep_point)
from repro.sweep.runner import UnknownExperimentError, _selftest


def _selftest_spec(seeds=(0, 1, 2), x=1, **over):
    return SweepSpec("t", [
        SweepPoint("selftest", seed=s, overrides={"x": x, **over})
        for s in seeds])


def _tree(root):
    """{relative path: bytes} for a cache directory."""
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fp:
                out[os.path.relpath(path, root)] = fp.read()
    return out


# -- run_sweep_point ----------------------------------------------------------

def test_run_sweep_point_executes_and_jsonifies():
    result = run_sweep_point(SweepPoint("selftest", seed=2,
                                        overrides={"x": 5}))
    assert result["value"] == 2005
    assert json.dumps(result)  # JSON-safe


def test_run_sweep_point_rejects_unknown_experiment():
    with pytest.raises(UnknownExperimentError, match="unknown experiment"):
        run_sweep_point(SweepPoint("fig99"))


# -- inline execution ---------------------------------------------------------

def test_inline_sweep_runs_every_point():
    result = run_sweep(_selftest_spec())
    assert (result.ran, result.cached, result.failed) == (3, 0, 0)
    assert result.ok
    assert [r.result["seed"] for r in result.runs] == [0, 1, 2]
    assert all(r.key == point_key(r.point) for r in result.runs)


def test_unknown_experiment_becomes_failed_point_not_crash():
    spec = SweepSpec("t", [SweepPoint("selftest", seed=0),
                           SweepPoint("fig99", seed=0)])
    result = run_sweep(spec)
    assert not result.ok
    assert [r.status for r in result.runs] == ["ok", "failed"]
    assert "unknown experiment" in result.runs[1].error


def test_progress_stream_gets_one_line_per_point():
    buf = io.StringIO()
    run_sweep(_selftest_spec(), progress=buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("[1/3] selftest seed=0")
    assert "ran in" in lines[0]


def test_out_file_is_written_and_complete(tmp_path):
    out = tmp_path / "results.json"
    result = run_sweep(_selftest_spec(), out=str(out))
    record = json.loads(out.read_text())
    assert record["summary"] == {"points": 3, "ran": 3, "cached": 0,
                                 "failed": 0}
    assert record["fingerprint"] == result.fingerprint
    assert [p["result"]["seed"] for p in record["points"]] == [0, 1, 2]


# -- caching and resume -------------------------------------------------------

def test_resume_hits_cache_and_runs_nothing(tmp_path):
    spec = _selftest_spec()
    first = run_sweep(spec, cache_dir=str(tmp_path))
    assert first.ran == 3
    again = run_sweep(spec, cache_dir=str(tmp_path), resume=True)
    assert (again.ran, again.cached, again.failed) == (0, 3, 0)
    assert [r.result for r in again.runs] \
        == [r.result for r in first.runs]


def test_without_resume_points_recompute(tmp_path):
    spec = _selftest_spec()
    run_sweep(spec, cache_dir=str(tmp_path))
    again = run_sweep(spec, cache_dir=str(tmp_path))  # no resume
    assert again.cached == 0 and again.ran == 3


def test_cache_key_ignores_override_ordering(tmp_path):
    a = SweepSpec("t", [SweepPoint("selftest", seed=0,
                                   overrides={"x": 1, "fail": False})])
    b = SweepSpec("t", [SweepPoint("selftest", seed=0,
                                   overrides={"fail": False, "x": 1})])
    run_sweep(a, cache_dir=str(tmp_path))
    resumed = run_sweep(b, cache_dir=str(tmp_path), resume=True)
    assert resumed.cached == 1


def test_interrupted_sweep_resumes_where_it_left_off(tmp_path):
    # simulate an interrupt: only a prefix of the grid completed
    full = _selftest_spec(seeds=(0, 1, 2, 3, 4))
    prefix = SweepSpec("t", full.points[:2])
    run_sweep(prefix, cache_dir=str(tmp_path))
    resumed = run_sweep(full, cache_dir=str(tmp_path), resume=True)
    assert (resumed.cached, resumed.ran) == (2, 3)
    statuses = [r.status for r in resumed.runs]
    assert statuses == ["cached", "cached", "ok", "ok", "ok"]


def test_failed_points_are_not_cached_and_are_retried(tmp_path):
    # a worker "crash" mid-sweep: seed 1 raises, the others complete
    crashing = _selftest_spec(seeds=(0, 1, 2), fail_seeds=[1])
    first = run_sweep(crashing, cache_dir=str(tmp_path))
    assert not first.ok
    assert [r.status for r in first.runs] == ["ok", "failed", "ok"]
    assert "injected failure" in first.runs[1].error
    # the fixed code path (same identity, no fail marker this time)
    # must rerun only the failed point... but identity includes the
    # overrides, so model the retry as the same failing spec with the
    # fault gone: clear the in-cache misses by resuming the original
    # spec — the two ok points hit, the failed one reruns (and fails
    # again, proving it was never cached).
    second = run_sweep(crashing, cache_dir=str(tmp_path), resume=True)
    assert [r.status for r in second.runs] == ["cached", "failed",
                                               "cached"]


# -- parallel execution -------------------------------------------------------

def test_jobs_n_matches_jobs_1_byte_for_byte(tmp_path):
    spec = _selftest_spec(seeds=range(8))
    serial = run_sweep(spec, jobs=1, cache_dir=str(tmp_path / "j1"))
    pooled = run_sweep(spec, jobs=4, cache_dir=str(tmp_path / "j4"))
    assert serial.ok and pooled.ok
    assert _tree(tmp_path / "j1") == _tree(tmp_path / "j4")


@pytest.mark.slow
def test_real_experiment_grid_jobs_identity_and_resume(tmp_path):
    """The acceptance criterion on a real >=8-point simulation grid:
    fig8 points at scale 1/256 through jobs=1 and jobs=4 must produce
    byte-identical cache entries, and a resumed run is all hits."""
    spec = load_spec("ci-grid")
    assert len(spec) >= 8
    pooled = run_sweep(spec, jobs=4, cache_dir=str(tmp_path / "j4"))
    serial = run_sweep(spec, jobs=1, cache_dir=str(tmp_path / "j1"))
    assert pooled.ok and serial.ok
    assert _tree(tmp_path / "j1") == _tree(tmp_path / "j4")
    resumed = run_sweep(spec, jobs=4, cache_dir=str(tmp_path / "j4"),
                        resume=True)
    assert resumed.cached == len(spec) and resumed.ran == 0


def test_pool_failures_are_contained(tmp_path):
    spec = _selftest_spec(seeds=range(6), fail_seeds=[2, 4])
    result = run_sweep(spec, jobs=3, cache_dir=str(tmp_path))
    assert result.failed == 2 and result.ran == 4
    # completed points were cached even though the sweep had failures
    resumed = run_sweep(spec, jobs=3, cache_dir=str(tmp_path),
                        resume=True)
    assert resumed.cached == 4


# -- parallel_map (the uncached fan-out used by run_fig8) ---------------------

def test_parallel_map_preserves_input_order():
    kwargs = [dict(seed=s, x=7) for s in range(5)]
    inline = parallel_map(_selftest, kwargs, jobs=1)
    pooled = parallel_map(_selftest, kwargs, jobs=3)
    assert inline == pooled
    assert [r["seed"] for r in pooled] == list(range(5))


def test_parallel_map_refuses_to_fan_out_under_observation():
    """Workers would trace, sample and collect into their own copies of
    the engines: refuse, but still run inline with one job."""
    from repro.metrics.recorder import start_collection, stop_collection
    from repro.obs.session import ObsSession
    kwargs = [dict(seed=s, x=7) for s in range(2)]
    for session in (dict(trace=True), dict(interval_s=1.0),
                    dict(events="info")):
        with ObsSession(**session):
            with pytest.raises(ValueError, match="cannot fan out"):
                parallel_map(_selftest, kwargs, jobs=2)
            assert parallel_map(_selftest, kwargs, jobs=1) == \
                [_selftest(**k) for k in kwargs]
    collected = start_collection()
    try:
        with pytest.raises(ValueError, match="cannot fan out"):
            parallel_map(_selftest, kwargs, jobs=2)
    finally:
        stop_collection(collected)
    assert [r["seed"] for r in parallel_map(_selftest, kwargs, jobs=2)] \
        == [0, 1]


def test_run_sweep_refuses_to_fan_out_under_observation():
    from repro.obs.session import ObsSession
    with ObsSession(trace=True):
        with pytest.raises(ValueError, match="cannot fan out"):
            run_sweep(_selftest_spec(), jobs=2)
        assert run_sweep(_selftest_spec(), jobs=1).ran == 3


def test_run_fig8_refuses_jobs_under_an_installed_tracer():
    from repro.exp.fig8 import run_fig8
    from repro.obs.session import ObsSession
    with ObsSession(trace=True):
        with pytest.raises(ValueError, match="cannot fan out"):
            run_fig8(scale=1 / 1024, num_iter=1, jobs=2)


def test_run_fig8_panel_routes_through_engine_identically():
    from repro.exp.fig8 import run_panel
    kwargs = dict(req_size=8192, dataset_gb=1, scale=1 / 256,
                  transports=("udp",),
                  patterns=("sequential", "random"), num_iter=2)
    serial = run_panel(**kwargs, jobs=1)
    pooled = run_panel(**kwargs, jobs=2)
    assert serial == pooled
    assert [r["point"].pattern for r in pooled] \
        == ["sequential", "random"]
