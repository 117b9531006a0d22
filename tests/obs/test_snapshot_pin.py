"""A networked run's metrics snapshot, pinned except ``instances``.

Which recorders the components of a run share changes how many
recorders merge into each snapshot group, the group's ``instances``
field, but must move no counter and no sample of the run.  This test
pins everything else: the group names, every counter and every sample
summary.  The run is the CLI golden's ``fig8 --scale 1/1024 --iters 1``
(24 points, each opening sockets and RPC clients on every host), in
process with its recorders collected and without a trace.
"""

import hashlib
import importlib
import json

from repro.exp.fig8 import run_fig8
from repro.obs import ObsSession

#: sha256 of the snapshot's groups, ``instances`` dropped, as sorted JSON
DIGEST = "61ca5434e7d3df34f67d0add415782b3b11ceafbe35719311b62063dde996a5a"


def test_fig8_snapshot_pinned_except_instances(monkeypatch):
    with ObsSession(collect=True) as obs:
        run_fig8(scale=1 / 1024, num_iter=1)
    # snapshot only this run's recorders, not ones other tests left alive
    module = importlib.import_module("repro.obs.snapshot")
    monkeypatch.setattr(module, "iter_recorders",
                        lambda: iter(obs.recorders))
    groups = module.snapshot()["recorders"]
    for group in groups.values():
        del group["instances"]
    text = json.dumps(groups, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
