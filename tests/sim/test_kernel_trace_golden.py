"""Kernel-event golden: the dispatch and wakeup order of a small run.

A short two-shard ``run_serving`` point runs under
``ObsSession(trace=True, kernel_events=True)``.  The golden pins the
count and the sha256 of its ``dispatch`` and ``wakeup`` instants in
order: name, event class (dispatch) or process id (wakeup), virtual time
and track.  A kernel change that reorders events due at one instant, or
changes the class an event is dispatched as, fails it.
"""

import hashlib

from repro.exp.serving import run_serving
from repro.obs.session import ObsSession

COUNT = 21403
DIGEST = ("10f53e2f38065f1f8267ba9d6b3005f5"
          "536ff8808481411f36f4e3413bf092b4")


def _kernel_instants():
    with ObsSession(trace=True, kernel_events=True) as obs:
        run_serving(n_shards=2, duration_s=0.3, n_keys=64,
                    arrival_rate=200.0)
    return [(s.name, s.tags["event"] if s.name == "dispatch"
             else s.tags["pid"], repr(s.start), s.track)
            for s in obs.tracer.spans if s.component == "kernel"]


def test_kernel_event_trace_is_pinned():
    instants = _kernel_instants()
    text = "\n".join(",".join(map(str, i)) for i in instants)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert (len(instants), digest) == (COUNT, DIGEST)
