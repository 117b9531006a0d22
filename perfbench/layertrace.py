"""Host-time spans per ``repro`` layer, recorded from outside the simulator.

The simulator's own tracer works in *virtual* time; this one measures what
the simulator costs to run.  Nothing under ``src/`` is edited: after the
driver module is imported, :func:`install` rebinds, in place,

* ``Process.__init__``, so every process generator is wrapped in a proxy
  generator that times each resume and credits it to the layer owning the
  generator's code object;
* the public functions and public methods (plus ``__init__``) of every name
  a layer package exports in ``__all__`` -- generator methods reached via
  ``yield from`` return the same timing proxy;
* ``Simulator.call_at``, so fast-path completion callbacks are credited to
  the layer owning the callback.

A layer is the package under ``repro`` that owns the code (``sim``, ``net``,
``storage``, ...).  Each span keeps its name, start, end and parent in
memory; :meth:`LayerTracer.write` stores them when the run ends.  A span's
self time is its duration minus the time its child spans cover, and host
time not covered by any span -- the dispatch loop's own work, callbacks the
kernel invokes directly, driver glue -- is credited to ``sim``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

#: the layers reported as metrics, in report order (``exp`` is the
#: driver package, whose ``Platform`` constructor is the build step)
LAYERS = ("sim", "net", "storage", "core", "cluster", "workloads",
          "metrics", "obs", "exp")

#: raw spans kept in memory at most (24 bytes each); beyond this only
#: the per-name aggregates are updated, and they stay exact
MAX_SPANS = 1_000_000


def layer_of_module(module: str) -> str:
    """The ``repro`` package a dotted module name belongs to."""
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 2 else "other"


def layer_of_file(filename: str) -> str:
    """The ``repro`` package owning a source file (``other`` outside)."""
    _, sep, tail = filename.replace("\\", "/").rpartition("/repro/")
    if not sep or "/" not in tail:
        return "other"
    return tail.split("/", 1)[0]


class LayerTracer:
    """Span recorder with per-name self-time aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._ids: dict[str, int] = {}
        self._code_ids: dict = {}
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.calls: list[int] = []
        # raw spans in entry order: name id, parent span id, start, end
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.stack: list[list] = []
        self.enter, self.exit = self._hooks()
        self.proxy = self._make_proxy()

    # -- names -------------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        """Id of span name ``name``, registering it under ``layer``."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self.calls.append(0)
        return nid

    def code_id(self, code) -> int:
        """Span name id for the resumes of a generator's code object."""
        nid = self._code_ids.get(code)
        if nid is None:
            layer = layer_of_file(code.co_filename)
            nid = self._code_ids[code] = self.name_id(
                f"{layer}.{code.co_qualname}", layer)
        return nid

    # -- hot path ----------------------------------------------------------
    def _hooks(self):
        stack = self.stack
        push, pop = stack.append, stack.pop
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        clock = perf_counter
        tracer = self

        def enter(nid: int) -> None:
            sid = len(names)
            if sid < MAX_SPANS:
                names.append(nid)
                parents.append(stack[-1][0] if stack else -1)
                starts.append(0.0)
                ends.append(0.0)
            else:
                sid = -1
                tracer.dropped += 1
            push([sid, nid, 0.0, clock()])

        def exit() -> None:
            t = clock()
            sid, nid, covered, t0 = pop()
            d = t - t0
            self_s[nid] += d - covered
            incl_s[nid] += d
            calls[nid] += 1
            if sid >= 0:
                starts[sid] = t0
                ends[sid] = t
            if stack:
                stack[-1][2] += d

        return enter, exit

    def _make_proxy(self):
        enter, exit = self.enter, self.exit

        def proxy(gen, nid):
            """Drive ``gen``, timing every resume as one span."""
            value = None
            exc = None
            while True:
                enter(nid)
                try:
                    if exc is None:
                        item = gen.send(value)
                    else:
                        item = gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    exit()
                exc = None
                try:
                    value = yield item
                except GeneratorExit:
                    enter(nid)
                    try:
                        gen.close()
                    finally:
                        exit()
                    raise
                except BaseException as e:  # Interrupt, failed events
                    exc = e
                    value = None

        return proxy

    # -- wrapping ----------------------------------------------------------
    def wrap(self, fn, name: str, layer: str):
        """``fn`` timed as span ``name``; generator functions return a
        proxy whose resumes are the spans."""
        nid = self.name_id(name, layer)
        if inspect.isgeneratorfunction(fn):
            proxy = self.proxy

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return proxy(fn(*args, **kwargs), nid)
            return gen_wrapper
        enter, exit = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit()
        return wrapper

    def timed_callable(self, func):
        """``func`` timed as a span named after its code object (a
        wrapped public method already is one)."""
        fn = getattr(func, "__func__", func)
        code = getattr(fn, "__code__", None)
        if code is None or hasattr(fn, "__wrapped__"):
            return func
        nid = self.code_id(code)
        enter, exit = self.enter, self.exit

        def timed(*args):
            enter(nid)
            try:
                return func(*args)
            finally:
                exit()
        return timed

    # -- results -----------------------------------------------------------
    def layer_totals(self, wall_s: float) -> tuple[dict, dict]:
        """Per-layer self seconds and calls; uncovered wall goes to sim."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for nid, layer in enumerate(self.name_layer):
            self_s[layer] = self_s.get(layer, 0.0) + self.self_s[nid]
            calls[layer] = calls.get(layer, 0) + self.calls[nid]
        self_s["sim"] += wall_s - sum(self.self_s)
        return self_s, calls

    def top_level_s(self, count: int) -> float:
        """Summed duration of the first ``count`` spans with no parent."""
        starts, ends, parents = \
            self.span_start, self.span_end, self.span_parent
        return sum(ends[i] - starts[i] for i in range(count)
                   if parents[i] < 0)

    def inclusive_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.incl_s[nid]

    def functions(self) -> list[dict]:
        """Every span name with its aggregates, most self time first."""
        order = sorted(range(len(self.names)), key=lambda i: -self.self_s[i])
        return [{"name": self.names[i], "layer": self.name_layer[i],
                 "self_s": self.self_s[i], "incl_s": self.incl_s[i],
                 "calls": self.calls[i]} for i in order]

    def write(self, stem: Path, count: int) -> None:
        """Store the first ``count`` spans: ``<stem>.spans`` holds four
        arrays back to back (name id int32, parent span id int32, start
        float64, end float64, ``count`` items each); ``<stem>.json`` holds
        the count, the name table and the per-name aggregates."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as f:
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr[:count].tofile(f)
        meta = {"count": count, "dropped": self.dropped,
                "functions": self.functions(), "names": self.names}
        stem.with_suffix(".json").write_text(json.dumps(meta, indent=1))


def _exports():
    """Every object a layer package exports in ``__all__``."""
    import importlib
    for layer in LAYERS:
        pkg = importlib.import_module(f"repro.{layer}")
        for name in getattr(pkg, "__all__", ()):
            yield getattr(pkg, name)


def _is_plain_class(obj) -> bool:
    import enum
    return (inspect.isclass(obj) and obj.__module__.startswith("repro.")
            and not issubclass(obj, (BaseException, enum.Enum)))


def install(tracer: LayerTracer) -> None:
    """Rebind every traced entry point of the imported ``repro`` layers."""
    from repro.sim import Process, Simulator

    seen: set[int] = set()
    replaced: dict[int, tuple] = {}
    for obj in _exports():
        if _is_plain_class(obj):
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            layer = layer_of_module(obj.__module__)
            for attr, value in list(vars(obj).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                kind = type(value)
                fn = value.__func__ if kind in (staticmethod, classmethod) \
                    else value
                if not inspect.isfunction(fn):
                    continue
                wrapped = tracer.wrap(
                    fn, f"{layer}.{obj.__qualname__}.{attr}", layer)
                if kind in (staticmethod, classmethod):
                    wrapped = kind(wrapped)
                setattr(obj, attr, wrapped)
        elif inspect.isfunction(obj) and obj.__module__.startswith("repro."):
            if id(obj) not in replaced:
                layer = layer_of_module(obj.__module__)
                replaced[id(obj)] = (obj, tracer.wrap(
                    obj, f"{layer}.{obj.__qualname__}", layer))
    # rebind exported functions wherever a module imported them by name
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])

    proxy, proxy_code = tracer.proxy, tracer.proxy.__code__
    code_id = tracer.code_id
    process_init = Process.__init__

    def traced_process_init(self, sim, generator):
        code = getattr(generator, "gi_code", None)
        if code is not None and code is not proxy_code:
            generator = proxy(generator, code_id(code))
        process_init(self, sim, generator)

    Process.__init__ = traced_process_init

    call_at = Simulator.call_at
    timed = tracer.timed_callable

    def traced_call_at(self, when, func, value=None):
        return call_at(self, when, timed(func), value)

    Simulator.call_at = traced_call_at
