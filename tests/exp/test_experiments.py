"""Shape tests for the experiment drivers (small scales; the full
parameter grids live in benchmarks/)."""

import gc

import pytest

from repro.exp.ablations import (run_allocator_ablation,
                                 run_policy_ablation,
                                 run_pregrant_ablation,
                                 run_refraction_ablation)
from repro.exp.disk_cal import PAPER, measure, run_disk_calibration
from repro.exp.fig7 import lu_params_for_scale, run_dmine, run_lu
from repro.exp.fig8 import Fig8Point, run_point
from repro.exp.nondedicated import NonDedicatedParams, run_nondedicated
from repro.exp.scale import run_scale
from repro.exp.sec2 import run_fig1, run_fig2, run_table1
from repro.sim import Simulator

SCALE = 1 / 256  # tiny but ratio-preserving


# -- Section 2 ----------------------------------------------------------------

def test_fig1_clusters_match_paper_band():
    results = run_fig1(days=1.0)
    a = results["clusterA"]["summary"]
    assert a["avg_available_all_mb"] == pytest.approx(3549, rel=0.25)
    assert a["avg_available_idle_mb"] < a["avg_available_all_mb"]
    b = results["clusterB"]["summary"]
    assert b["avg_available_all_mb"] == pytest.approx(852, rel=0.25)


def test_table1_within_tolerance():
    results = run_table1(days=1.0, hosts_per_class=3)
    for mb, row in results["measured"].items():
        paper = results["paper"][mb]
        assert row["available"][0] == pytest.approx(paper.available_mean,
                                                    rel=0.4)


def test_fig2_dips_but_mostly_available():
    results = run_fig2(days=2.0)
    for mb, res in results.items():
        assert res["median_avail_frac"] > 0.35
        assert res["min_avail_frac"] < res["median_avail_frac"]


# -- disk calibration ----------------------------------------------------------

def test_disk_calibration_all_points_within_20pct():
    results = run_disk_calibration()
    for key, res in results.items():
        assert res["measured"] == pytest.approx(res["paper"], rel=0.2), key


def test_disk_calibration_ordering():
    r8 = measure("rand", 8192, total_mb=2)
    s8 = measure("seq", 8192, total_mb=8)
    assert r8 < s8 / 5  # random is many times slower than sequential


# -- Figure 8 (single representative points at tiny scale) ---------------------

@pytest.mark.slow
def test_fig8_random_beats_sequential():
    seq = run_point(Fig8Point("sequential", 8192, 1, "udp"), scale=SCALE,
                    num_iter=3)
    rand = run_point(Fig8Point("random", 8192, 1, "udp"), scale=SCALE,
                     num_iter=3)
    assert rand["speedup"] > seq["speedup"] + 0.2
    assert 0.7 < seq["speedup"] < 1.25  # "virtually no speedup"
    assert rand["speedup"] > 1.2


@pytest.mark.slow
def test_fig8_unet_beats_udp():
    udp = run_point(Fig8Point("random", 8192, 1, "udp"), scale=SCALE,
                    num_iter=3)
    unet = run_point(Fig8Point("random", 8192, 1, "unet"), scale=SCALE,
                     num_iter=3)
    assert unet["speedup"] > udp["speedup"]


@pytest.mark.slow
def test_fig8_hotcold_gains_from_bigger_dataset():
    small = run_point(Fig8Point("hotcold", 8192, 1, "udp"), scale=SCALE,
                      num_iter=3)
    big = run_point(Fig8Point("hotcold", 8192, 2, "udp"), scale=SCALE,
                    num_iter=3)
    assert big["speedup"] > small["speedup"]


# -- Figure 7 ------------------------------------------------------------------

def test_lu_params_scaling_preserves_slab_count():
    for scale in (1 / 16, 1 / 64, 1 / 256):
        p = lu_params_for_scale(scale)
        assert p.n_slabs == 128


@pytest.mark.slow
def test_fig7_lu_modest_speedup():
    res = run_lu("unet", scale=1 / 256)
    assert 1.02 < res["speedup"] < 1.5  # paper: 1.2
    # lu is compute-bound: I/O fraction under Dodo is small
    assert res["dodo_io_fraction"] < 0.2


@pytest.mark.slow
def test_fig7_dmine_second_run_much_faster():
    res = run_dmine("unet", scale=1 / 64)
    assert res["speedup_run2"] > res["speedup_run1"] + 0.5
    assert res["speedup_run2"] > 1.8  # paper: 3.2


# -- non-dedicated -----------------------------------------------------------------

@pytest.mark.slow
def test_nondedicated_speedup_and_tiny_reclaim_delay():
    res = run_nondedicated(NonDedicatedParams(
        num_iter=3, owner_active_mean_s=40.0, owner_away_mean_s=150.0))
    assert res["speedup"] > 1.0
    assert res["dodo"]["reclaims"] >= 1
    # "virtually no delays": well under a second
    assert res["dodo"]["max_reclaim_delay_s"] < 0.5


# -- ablations -----------------------------------------------------------------------

def test_allocator_ablation_buddy_wastes_memory():
    res = run_allocator_ablation(pool_mb=16, n_ops=1500)
    assert res["buddy"]["internal_waste_bytes"] > 0
    assert res["first-fit"]["internal_waste_bytes"] == 0


@pytest.mark.slow
def test_refraction_suppresses_manager_load():
    res = run_refraction_ablation(scale=1 / 256)
    with_r, without = res[2.0], res[0.0]
    assert with_r["cmd_enomem_rpcs"] < without["cmd_enomem_rpcs"] / 5
    assert with_r["refraction_skips"] > 0
    # and it does not slow the application down
    assert with_r["elapsed_s"] < without["elapsed_s"] * 1.1


@pytest.mark.slow
def test_policy_ablation_first_in_beats_lru_on_cyclic_scan():
    res = run_policy_ablation(scale=1 / 256)
    assert res["lru"]["local_hits"] == 0
    assert res["first-in"]["local_hits"] > 0
    assert res["first-in"]["elapsed_s"] < res["lru"]["elapsed_s"]


def test_pregrant_cuts_latency():
    res = run_pregrant_ablation(n=20)
    assert res[True]["mean_latency_s"] < res[False]["mean_latency_s"]


# -- scale-out -------------------------------------------------------------------------

def test_scale_run_frees_nothing_by_cyclic_collection(monkeypatch):
    """End-to-end guard: the objects a run makes die by reference
    counting, so no collection during ``Simulator.run`` finds garbage."""
    collected, inside = [], [False]
    real_run = Simulator.run

    def run(sim, until=None):
        inside[0] = True
        try:
            return real_run(sim, until)
        finally:
            inside[0] = False

    def on_gc(phase, info):
        if phase == "stop" and inside[0]:
            collected.append(info["collected"])

    monkeypatch.setattr(Simulator, "run", run)
    while gc.collect():  # what earlier tests left
        pass
    gc.callbacks.append(on_gc)
    try:
        out = run_scale(n_hosts=64, seed=3)
    finally:
        gc.callbacks.remove(on_gc)
    assert out["requests"] > 0
    assert collected, "no collection ran; the guard checked nothing"
    assert sum(collected) == 0
