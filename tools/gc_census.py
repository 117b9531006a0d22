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


def census_pass(wl, module, params) -> tuple[Counter, int]:
    """Run the experiment again under ``DEBUG_SAVEALL``.  Return the
    garbage the collector found during the call, counted by type name,
    and the number of objects a final collection finds after it (the
    finished platforms, whose object graphs are cyclic by design)."""
    settle()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        wl.run(module, params)
        during = len(gc.garbage)
        settle()
    finally:
        gc.set_debug(0)
    found = Counter(type(obj).__qualname__ for obj in gc.garbage[:during])
    after = len(gc.garbage) - during
    gc.garbage.clear()
    return found, after


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
    garbage, after = census_pass(wl, module, params)
    report(wl.name, args.seed, clock, wall_s, build_s, garbage, after)
    report_kept(kept, rss)
    return 0


if __name__ == "__main__":
    sys.exit(main())
