"""The SLI/SLO layer must never perturb the simulation.

The collector only *reads* spans and the engine only reads records and
the clock, so a run with the full SLI + SLO stack enabled must produce
bit-identical virtual times and workload results to a run with all
observability disabled — the acceptance criterion "a run with SLI
collection disabled matches pre-PR virtual times exactly" read in both
directions.  Mirrors ``tests/obs/test_telemetry_determinism.py``.
"""

from repro.exp.platform import MB, Platform, PlatformParams
from repro.obs.session import ObsSession
from repro.sim import Simulator
from repro.workloads import SyntheticParams, SyntheticRunner


def run_workload(seed, slo):
    """One small Dodo workload; returns (fingerprint, sli, engine)."""
    session = ObsSession(interval_s=0.25, events="debug", slo=True) \
        if slo else ObsSession()
    with session:
        sim = Simulator(seed=seed)
        params = PlatformParams().scaled(1 / 256)
        platform = Platform(sim, params, dodo=True)
        sp = SyntheticParams(pattern="random", dataset_bytes=2 * MB,
                             req_size=8192, num_iter=2, compute_s=0.002)
        runner = SyntheticRunner(platform, sp, use_dodo=True)
        res = sim.run(until=runner.run())
    fingerprint = (res.elapsed_s, tuple(res.iteration_s), sim.now)
    return fingerprint, session.sli, session.slo


def test_sli_slo_collection_does_not_perturb_virtual_time():
    plain, _, _ = run_workload(seed=11, slo=False)
    sampled, sli, engine = run_workload(seed=11, slo=True)
    assert sampled == plain      # elapsed, iteration times, clock
    # and the layer actually collected something while staying inert
    assert sli.total_requests() > 0
    kinds = sli.merged_kinds()
    assert "mread" in kinds or "cread" in kinds
    assert any(s["total"] for s in engine.spec_summaries())


def test_two_enabled_runs_agree_exactly():
    """Byte-level determinism of the collected SLIs themselves."""
    def fingerprint():
        _, sli, engine = run_workload(seed=11, slo=True)
        kinds = {k: (v.count, v.outcomes, v.dominant,
                     sorted(v.stage_s.items()), v.sketch.to_json())
                 for k, v in sli.merged_kinds().items()}
        return kinds, engine.spec_summaries()

    assert fingerprint() == fingerprint()
