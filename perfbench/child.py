"""One run of one benchmark workload in a fresh process.

    python3 perfbench/child.py --workload serve --seed 3 [--trace] [--hosts N]

Prints one JSON line.  Set-up is the import of the driver module (and with
it ``repro``) plus every ``Platform`` constructor, timed around the
constructor; the run is the rest of the driver call.  The exact per-layer
counts are read from the ``Recorder`` objects the run created.

An untraced child also samples the host's speed (:class:`SpeedProbe`)
through set-up and run.  With ``--trace`` every layer is wrapped by
:mod:`layertrace` after the import instead, and the spans are written
under ``.perfbench/`` in the checkout.  ``--hosts`` overrides the host
count of ``scale-2k`` (diagnostics only).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import random
import re
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from layertrace import LayerTracer, install  # noqa: E402
from workloads import COUNTS, WORKLOADS  # noqa: E402


class SpeedProbe:
    """Samples how fast the host runs this process right now.

    Every ``INTERVAL_S`` a timer signal runs a fixed loop of random
    lookups into a table of a few MB -- work that owes nothing to the
    repository and, like the simulator, is bound by the interpreter and
    the caches -- and records its duration under the current phase
    (``setup`` or ``run``).  On a shared host the same code runs up to
    twice as slow while other tenants load the core or its caches; the
    probe slows with it (if less than the simulator does), so a phase's
    time divided by its probe factor is steadier than the phase's time.  The probe's own time is kept
    per phase so the phase clocks can leave it out.
    """

    INTERVAL_S = 0.025
    LOOKUPS = 300
    #: the loop's duration on an uncontended 2-vCPU x86 VM, the unit
    #: speed factors are measured against
    NOMINAL_S = 350e-6

    def __init__(self):
        rng = random.Random(5)
        self._keys = [rng.randrange(1 << 40) for _ in range(1 << 16)]
        self._table = {k: i for i, k in enumerate(self._keys)}
        self._turn = 0
        self.phase = "setup"
        self.samples: dict[str, list[float]] = {"setup": [], "run": []}

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        keys, table, turn, acc = self._keys, self._table, self._turn, 0
        for i in range(self.LOOKUPS):
            acc += table[keys[(i * 7919 + turn) & 0xFFFF]]
        self._turn = turn + 1
        self.samples[self.phase].append(perf_counter() - t0)

    def spent(self, phase: str) -> float:
        """Seconds the probe itself took during ``phase``."""
        return sum(self.samples[phase])

    def factor(self, phase: str) -> float:
        """How many times slower than nominal the host ran ``phase``."""
        vals = self.samples[phase] or self.samples["setup"] + \
            self.samples["run"]
        return sum(vals) / len(vals) / self.NOMINAL_S


class Probe:
    """Times the ``Platform`` constructors, counts dispatched events and
    keeps the :class:`~repro.workloads.app.RunResult` values that
    ``Simulator.run`` returns."""

    def __init__(self, speed: SpeedProbe | None):
        from repro.exp.platform import Platform
        from repro.metrics.recorder import start_collection
        from repro.sim import Simulator
        from repro.workloads.app import RunResult

        self.recorders = start_collection()
        self.build_s = 0.0
        self.build_cpu_s = 0.0
        self.events = 0
        self.run_events = 0
        self.results: list = []
        self._building = False
        probe = self
        build, run = Platform.__init__, Simulator.run

        @functools.wraps(build)
        def timed_build(platform, *args, **kwargs):
            wall, cpu = perf_counter(), process_time()
            probe._building = True
            if speed is not None:
                speed.phase = "setup"
            try:
                build(platform, *args, **kwargs)
            finally:
                if speed is not None:
                    speed.phase = "run"
                probe._building = False
                probe.build_s += perf_counter() - wall
                probe.build_cpu_s += process_time() - cpu

        @functools.wraps(run)
        def counted_run(sim, until=None):
            before = sim.events_processed
            try:
                value = run(sim, until)
            finally:
                n = sim.events_processed - before
                probe.events += n
                if not probe._building:
                    probe.run_events += n
            if isinstance(value, RunResult):
                probe.results.append(value)
            return value

        Platform.__init__ = timed_build
        Simulator.run = counted_run

    def counts(self) -> dict:
        """The exact per-layer counts, summed over every recorder."""
        out = {"sim.events": self.events}
        for metric, (pattern, keys) in COUNTS.items():
            match = re.compile(pattern).fullmatch
            total = sum(rec.count(k) for rec in self.recorders
                        if match(rec.name) for k in keys)
            out[metric] = int(total) if float(total).is_integer() else total
        return out


def trace_summary(tracer: LayerTracer, wall_s: float, build_s: float,
                  count: int) -> tuple[dict, list[str]]:
    """Per-layer self time of the traced driver call, and the problems
    the span accounting shows."""
    self_s, calls = tracer.layer_totals(wall_s)
    covered = sum(tracer.self_s)
    problems = []
    if tracer.stack:
        problems.append(f"{len(tracer.stack)} spans still open at the end")
    if covered > wall_s:
        problems.append(f"spans cover {covered} s of a {wall_s} s run")
    if not tracer.dropped and \
            abs(covered - tracer.top_level_s(count)) > 1e-6 * wall_s:
        problems.append("span self times do not sum to the time the "
                        "top-level spans cover")
    if abs(sum(self_s.values()) - wall_s) > 1e-6 * wall_s:
        problems.append("per-layer self times do not sum to the run wall")
    return {"wall_s": wall_s, "run_s": wall_s - build_s,
            "build_s": tracer.inclusive_s("exp.Platform.__init__"),
            "self_s": self_s, "calls": calls,
            "spans": count + tracer.dropped}, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--hosts", type=int, default=None)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    params = wl.params(args.seed)
    if args.hosts is not None:
        params["n_hosts"] = args.hosts
    # the probe's signals stay out of the traced run, whose spans would
    # count the handler
    speed = None if args.trace else SpeedProbe()
    if speed is not None:
        speed.start()

    t0 = perf_counter()
    driver = importlib.import_module(wl.module)
    import_s = perf_counter() - t0
    probe = Probe(speed)
    tracer = None
    if args.trace:
        tracer = LayerTracer()
        install(tracer)

    if speed is not None:
        speed.phase = "run"
    wall, cpu = perf_counter(), process_time()
    output = wl.run(driver, params)
    wall_s = perf_counter() - wall
    cpu_s = process_time() - cpu
    if speed is not None:
        speed.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    violations = []
    if tracer is not None:
        # summarise before anything else calls into the wrapped layers
        count = len(tracer.span_name)
        trace, violations = trace_summary(tracer, wall_s, probe.build_s,
                                          count)

    for field in wl.host_fields:
        output.pop(field, None)
    attempted, failed = wl.ops(output, probe.results)
    run_probe = speed.spent("run") if speed else 0.0
    setup_probe = speed.spent("setup") if speed else 0.0
    record = {
        "workload": wl.name, "seed": args.seed, "params": params,
        "import_s": import_s, "build_s": probe.build_s,
        "setup_s": import_s + probe.build_s - setup_probe,
        "run_s": wall_s - probe.build_s - run_probe,
        "run_cpu_s": cpu_s - probe.build_cpu_s - run_probe,
        "speed_setup": speed.factor("setup") if speed else 1.0,
        "speed_run": speed.factor("run") if speed else 1.0,
        "peak_rss_mb": peak_rss_mb,
        "run_events": probe.run_events,
        "counts": probe.counts(),
        "output": json.dumps(output, sort_keys=True, separators=(",", ":")),
        "attempted": attempted, "failed": failed,
        "violations": violations + wl.check(output),
    }
    if tracer is not None:
        record["trace"] = trace
        suffix = "" if args.hosts is None else f"-hosts{args.hosts}"
        tracer.write(ROOT / ".perfbench" /
                     f"trace-{wl.name}-seed{args.seed}{suffix}", count)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
