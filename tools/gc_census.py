#!/usr/bin/env python
"""Where the cyclic garbage collector's time goes in one benchmark workload.

    python tools/gc_census.py fig7|serve|scale-2k [--seed N]

Runs the perfbench workload's ``repro.exp`` experiment with the inputs
``perfbench/run.py`` gives it for ``--seed`` and prints, for the build
phase (inside every ``Platform`` constructor) and the run phase (the rest
of the experiment call), the collections and seconds spent in each
generation, the objects they freed and the GC share of the phase's wall.
It then runs the experiment a second time under ``gc.DEBUG_SAVEALL`` and
prints a census, by type, of every object the collector found
unreachable: the cyclic garbage that reference counting could not free.
(The census needs its own pass because saved garbage stays tracked and
slows every later collection.)

Last it prints what the finished run keeps alive, from the first pass:
the live objects the call added, by type, with their counts and
``sys.getsizeof`` bytes in total and per simulated host (per live
``Workstation``), and the RSS the call added per host.  Right after the
call nothing has collected the finished platforms yet (their object
graphs are cyclic by design), so this is the state each host costs.
Only objects the collector tracks are counted (containers and class
instances, not strings or numbers), ``getsizeof`` counts a container's
own block and not what it holds, and an instance's attribute values are
not counted at all unless it has slots, which is why the RSS figure is
the one to compare.

Last of all it prints the events still queued on each simulator when its
last ``Simulator.run`` call returned, by class: how many there are, how
many still carry callbacks, and what each callback is bound to (the
class and method of a bound method, the same inside a ``partial``).  A
queued event's callbacks keep their objects alive until it fires, so a
wait that outlives its purpose (a losing timeout still holding its
condition) shows up here by name, without tracemalloc.  The second pass
records these, so the timed pass stays as it was.

cProfile and ``perfbench/layertrace.py`` cannot see this cost: a
collection runs inside whichever call happened to allocate, and is
charged to that frame.  The script times the build phase as perfbench's
child does, by wrapping ``Platform.__init__`` in its own process, and
changes nothing under ``src/``.  Unlike perfbench it does not keep every
``Recorder`` alive, so the experiment's short-lived objects die as they
do in any other run.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import os
import sys
import weakref
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

PHASES = ("build", "run")
#: census rows printed, largest first
TOP_TYPES = 15
PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Current resident set size (Linux ``/proc/self/statm``)."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * PAGE


def live_census() -> dict[str, list[int]]:
    """Every object the collector tracks, by type name:
    ``[count, sys.getsizeof bytes]``."""
    table: dict[str, list[int]] = {}
    for obj in gc.get_objects():
        row = table.setdefault(type(obj).__qualname__, [0, 0])
        row[0] += 1
        row[1] += sys.getsizeof(obj)
    return table


def settle() -> None:
    """Collect until nothing is left.  Finalizing a suspended generator
    can keep its cycle alive until the next collection, so one
    ``gc.collect()`` may leave a finished platform behind."""
    while gc.collect():
        pass


class GcClock:
    """A ``gc.callbacks`` hook: per phase and generation, the number of
    collections, their seconds and the objects they freed."""

    def __init__(self):
        self.table = {p: [[0, 0.0, 0] for _ in range(3)] for p in PHASES}
        self.building = False
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = perf_counter()
            return
        row = self.table["build" if self.building else "run"]
        cell = row[info["generation"]]
        cell[0] += 1
        cell[1] += perf_counter() - self._t0
        cell[2] += info["collected"]


def timed_pass(wl, module, params) -> tuple[GcClock, float, float, dict,
                                            int]:
    """Run the experiment once with the GC clock installed and every
    ``Platform`` constructor timed; return the clock, the experiment
    call's wall, the constructors' part of it, and what the call left
    alive: the net live objects it added by type (as
    :func:`live_census`) and the bytes of RSS it added."""
    from repro.exp.platform import Platform

    clock = GcClock()
    build_s = 0.0
    build = Platform.__init__

    @functools.wraps(build)
    def timed_build(platform, *args, **kwargs):
        nonlocal build_s
        wall = perf_counter()
        clock.building = True
        try:
            build(platform, *args, **kwargs)
        finally:
            clock.building = False
            build_s += perf_counter() - wall

    settle()
    before = live_census()
    Platform.__init__ = timed_build
    gc.callbacks.append(clock)
    try:
        rss = rss_bytes()
        wall = perf_counter()
        wl.run(module, params)
        wall_s = perf_counter() - wall
        rss = rss_bytes() - rss
    finally:
        gc.callbacks.remove(clock)
        Platform.__init__ = build
    kept = {}
    for type_name, (n, size) in live_census().items():
        n0, size0 = before.get(type_name, (0, 0))
        if n > n0:
            kept[type_name] = [n - n0, size - size0]
    return clock, wall_s, build_s, kept, rss


def callback_label(cb) -> str:
    """What a queued event's callback is bound to: ``Class.method`` for a
    bound method, ``partial(...)`` around that for a partial, else the
    callable's own name."""
    if isinstance(cb, functools.partial):
        return f"partial({callback_label(cb.func)})"
    owner = getattr(cb, "__self__", None)
    if owner is not None:
        return f"{type(owner).__qualname__}.{cb.__name__}"
    return getattr(cb, "__qualname__", type(cb).__qualname__)


def queue_census(sim) -> dict[str, list]:
    """The events queued on ``sim``, by class name: ``[count, how many
    carry callbacks, Counter of their callback labels]``."""
    table: dict[str, list] = {}
    for evt in sim.queued():
        row = table.setdefault(type(evt).__qualname__, [0, 0, Counter()])
        row[0] += 1
        if evt.callbacks:
            row[1] += 1
            row[2].update(callback_label(cb) for cb in evt.callbacks)
    return table


def census_pass(wl, module, params) -> tuple[Counter, int, list]:
    """Run the experiment again under ``DEBUG_SAVEALL``.  Return the
    garbage the collector found during the call, counted by type name,
    the number of objects a final collection finds after it (the
    finished platforms, whose object graphs are cyclic by design), and
    each simulator's :func:`queue_census` as its last ``run`` call
    returned, in the order the simulators first ran."""
    from repro.sim import Simulator

    queues: dict[int, dict] = {}
    serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    run = Simulator.run

    @functools.wraps(run)
    def recorded_run(sim, *args, **kwargs):
        try:
            return run(sim, *args, **kwargs)
        finally:
            serial = serials.setdefault(sim, len(queues))
            queues[serial] = queue_census(sim)

    settle()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    Simulator.run = recorded_run
    try:
        wl.run(module, params)
        during = len(gc.garbage)
        settle()
    finally:
        Simulator.run = run
        gc.set_debug(0)
    found = Counter(type(obj).__qualname__ for obj in gc.garbage[:during])
    after = len(gc.garbage) - during
    gc.garbage.clear()
    return found, after, [queues[k] for k in sorted(queues)]


def report_kept(kept: dict, rss: int) -> None:
    """Print what the finished run keeps alive, in total and per host."""
    hosts = kept.get("Workstation", [0])[0]
    count = sum(n for n, _ in kept.values())
    size = sum(b for _, b in kept.values())
    print(f"  what the finished run keeps alive: {count} objects, "
          f"{size / 1e6:.2f} MB by getsizeof, RSS {rss / 1e6:.2f} MB, "
          f"{hosts} simulated hosts")
    if not hosts:
        return
    print(f"  RSS per host: {rss / hosts / 1e3:.1f} KB")
    print(f"  {'count':>10s}{'bytes':>12s}{'per host':>10s}"
          f"{'B/host':>9s}  type")
    rows = sorted(kept.items(), key=lambda kv: (-kv[1][1], kv[0]))
    for type_name, (n, b) in rows[:TOP_TYPES]:
        print(f"  {n:>10d}{b:>12d}{n / hosts:>10.2f}{b / hosts:>9.0f}"
              f"  {type_name}")
    print(f"  {count:>10d}{size:>12d}{count / hosts:>10.2f}"
          f"{size / hosts:>9.0f}  all types")


def report_queued(queues: list) -> None:
    """Print the events still queued when each simulator's run ended,
    summed over the simulators, by class."""
    total: dict[str, list] = {}
    for table in queues:
        for cls, (n, with_cbs, labels) in table.items():
            row = total.setdefault(cls, [0, 0, Counter()])
            row[0] += n
            row[1] += with_cbs
            row[2].update(labels)
    count = sum(n for n, _, _ in total.values())
    print(f"  events still queued when the run ends: {count} in "
          f"{len(queues)} simulators")
    print(f"  {'queued':>10s}{'callbacks':>11s}  class: callbacks bound to")
    for cls, (n, with_cbs, labels) in sorted(
            total.items(), key=lambda kv: (-kv[1][0], kv[0])):
        bound = ", ".join(f"{label} x{k}"
                          for label, k in labels.most_common())
        print(f"  {n:>10d}{with_cbs:>11d}  {cls}" +
              (f": {bound}" if bound else ""))


def report(name: str, seed: int, clock: GcClock, wall_s: float,
           build_s: float, garbage: Counter, after: int) -> None:
    walls = {"build": build_s, "run": wall_s - build_s}
    print(f"{name} seed {seed}: experiment call {wall_s:.2f} s "
          f"(build {walls['build']:.2f} s, run {walls['run']:.2f} s)")
    print(f"  {'phase':6s}{'gen':>4s}{'collections':>13s}{'gc_s':>9s}"
          f"{'freed':>11s}")
    for phase in PHASES:
        rows = clock.table[phase]
        for gen, (n, secs, freed) in enumerate(rows):
            print(f"  {phase:6s}{gen:>4d}{n:>13d}{secs:>9.3f}{freed:>11d}")
        n = sum(r[0] for r in rows)
        secs = sum(r[1] for r in rows)
        freed = sum(r[2] for r in rows)
        share = secs / walls[phase] if walls[phase] else 0.0
        print(f"  {phase:6s}{'all':>4s}{n:>13d}{secs:>9.3f}{freed:>11d}"
              f"   {share:.1%} of the {phase} phase")
    print(f"  cyclic garbage found during the call "
          f"(DEBUG_SAVEALL pass): {sum(garbage.values())} objects")
    for type_name, n in garbage.most_common(TOP_TYPES):
        print(f"  {n:>10d}  {type_name}")
    print(f"  found by a collection after the call: {after} objects")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    params = wl.params(args.seed)
    module = importlib.import_module(wl.module)
    clock, wall_s, build_s, kept, rss = timed_pass(wl, module, params)
    garbage, after, queues = census_pass(wl, module, params)
    report(wl.name, args.seed, clock, wall_s, build_s, garbage, after)
    report_kept(kept, rss)
    report_queued(queues)
    return 0


if __name__ == "__main__":
    sys.exit(main())
