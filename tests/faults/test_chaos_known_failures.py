"""Chaos runs outside the swept seeds that fail their raise-mode audit.

``tests/faults/test_chaos.py`` sweeps seeds 0-9 of every scenario, and
all of them pass.  The runs below do not; each is pinned as a strict
xfail on :class:`AuditError`.  When a fix makes one pass, the suite
reports a strict XPASS and fails, so delete that case with the fix.
"""

import pytest

from repro.core.config import CacheConfig
from repro.faults.chaos import run_chaos
from repro.obs.audit import AuditError


def _known(experiment, seed, cache=None, finding=""):
    return pytest.param(
        experiment, seed, cache, id=f"{experiment}-seed{seed}",
        marks=pytest.mark.xfail(strict=True, raises=AuditError,
                                reason=finding))


KNOWN_FAILURES = [
    *(_known("failover", seed,
             finding="directory.missing_region: a directory entry whose "
                     "imd no longer hosts the region")
      for seed in (11, 13, 15, 16, 18)),
    _known("fig7", 6, CacheConfig(policy="cost-aware", migration=True),
           finding="directory.orphan_region: a hosted region no "
                   "directory entry names"),
    _known("nondedicated", 12,
           finding="directory.orphan_region on w1 at t=95.2 s"),
]


@pytest.mark.parametrize("experiment,seed,cache", KNOWN_FAILURES)
def test_known_chaos_audit_failure(experiment, seed, cache):
    run_chaos(experiment, seed=seed, cache=cache, audit="raise")
