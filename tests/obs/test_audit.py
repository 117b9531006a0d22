"""Invariant-audit tests: clean runs stay clean, corruption is caught.

The auditor's value rests on two promises: shipped experiments produce
zero findings, and a deliberately corrupted cross-component state (a
region-directory entry pointing at the wrong pool offset, an allocator
whose books stopped balancing, a workstation mis-counting donated
memory) is detected at the next pass.
"""

import dataclasses

import pytest

from repro.core.allocator import BuddyAllocator, FirstFitAllocator
from repro.obs.audit import AuditError, Auditor
from repro.obs.eventlog import EventLog
from repro.obs.session import ObsSession
from repro.sim import Simulator

from repro.testing import make_backing_file, make_platform, run


@pytest.fixture
def sim():
    return Simulator(seed=23)


def open_region(sim, platform, length=64 * 1024):
    lib = platform.runtime()
    fd = make_backing_file(platform)

    def proc():
        desc, err = yield from lib.mopen(length, fd, 0)
        assert err == 0
        return desc

    run(sim, proc())
    return lib


# -- clean runs --------------------------------------------------------------

def test_clean_platform_audits_clean(sim):
    platform = make_platform(sim)
    open_region(sim, platform)
    auditor = Auditor(mode="raise")
    assert platform.audit(auditor, teardown=False) == []
    assert platform.audit(auditor, teardown=True) == []
    assert auditor.passes == 2
    assert "no inconsistencies" in auditor.format_report()


def test_clean_fig7_smoke_audits_clean():
    from repro.exp.fig7 import run_lu
    with ObsSession(interval_s=0.5, audit="raise", sample_audit=True) as obs:
        results = run_lu("udp", scale=1 / 256)
    assert results["speedup"] > 1.0
    assert obs.auditor.passes > 0 and obs.auditor.findings == []


# -- corruption detection ----------------------------------------------------

def corrupt_rd_entry(platform, **changes):
    key, entry = next(iter(platform.cmd.rd.items()))
    entry.struct = dataclasses.replace(entry.struct, **changes)
    return key


def test_corrupted_directory_offset_is_detected(sim):
    platform = make_platform(sim)
    open_region(sim, platform)
    corrupt_rd_entry(platform, pool_offset=7_777_216)
    findings = platform.audit(Auditor(mode="warn"), teardown=False)
    assert [f.check for f in findings] == ["directory.missing_region"]


def test_corrupted_directory_length_is_detected(sim):
    platform = make_platform(sim)
    open_region(sim, platform, length=64 * 1024)
    corrupt_rd_entry(platform, length=128 * 1024)
    findings = platform.audit(Auditor(mode="warn"), teardown=False)
    assert "directory.length_mismatch" in [f.check for f in findings]


def test_raise_mode_raises_and_logs(sim):
    platform = make_platform(sim)
    open_region(sim, platform)
    corrupt_rd_entry(platform, pool_offset=7_777_216)
    log = EventLog(level="info")
    auditor = Auditor(mode="raise", eventlog=log)
    with pytest.raises(AuditError, match="directory.missing_region"):
        platform.audit(auditor, teardown=False)
    assert auditor.findings  # recorded even though the pass raised
    assert log.select(component="audit", min_level="error")


def test_donation_miscount_is_detected(sim):
    platform = make_platform(sim)
    open_region(sim, platform)
    platform.imds[0].ws.guest_memory += 4096
    findings = platform.audit(Auditor(mode="warn"), teardown=False)
    assert "donation.accounting" in [f.check for f in findings]


def test_orphan_region_is_detected_at_teardown_only(sim):
    platform = make_platform(sim)
    open_region(sim, platform)
    imd = next(i for i in platform.imds if i._regions)
    offset = imd.allocator.alloc(4096)
    imd._regions[offset] = 4096  # hosted but never entered in the RD
    assert platform.audit(Auditor(mode="warn"), teardown=False) == []
    findings = platform.audit(Auditor(mode="warn"), teardown=True)
    assert "directory.orphan_region" in [f.check for f in findings]


# -- allocator self-audit ----------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: FirstFitAllocator(1 << 20),
    lambda: BuddyAllocator(1 << 20),
])
def test_allocator_check_passes_through_a_workout(make):
    alloc = make()
    offs = [alloc.alloc(12_000) for _ in range(20)]
    for off in offs[::2]:
        alloc.free(off)
    alloc.coalesce()
    assert alloc.check() == []


def test_firstfit_check_detects_overlap_and_leak():
    alloc = FirstFitAllocator(1 << 20)
    off = alloc.alloc(8192)
    alloc._allocated[off + 4096] = 8192  # overlaps the first block
    problems = alloc.check()
    assert any("overlap" in p for p in problems)
    assert any("sum to" in p for p in problems)


def test_buddy_check_detects_misalignment():
    alloc = BuddyAllocator(1 << 20)
    off = alloc.alloc(8192)
    alloc._allocated[off + 1] = alloc._allocated.pop(off)
    assert any("aligned" in p for p in alloc.check())


def test_audit_mode_off_builds_no_auditor():
    from repro.obs.session import ObsSession
    assert ObsSession(events="info").auditor is None
    assert ObsSession(events="info", audit="warn").auditor.mode == "warn"
    with pytest.raises(ValueError):
        ObsSession(events="info", audit="loud")
    with pytest.raises(ValueError):
        Auditor(mode="loud")
