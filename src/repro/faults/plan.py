"""Declarative fault schedules: what breaks, when, for how long.

A :class:`FaultPlan` is a list of :class:`FaultSpec` events on the
virtual-time axis, executed by :class:`~repro.faults.nemesis.Nemesis`.
Plans are plain data: they serialize to JSON (``to_json`` / ``from_json``)
with stable key ordering, so a failing chaos run's schedule can be saved
as an artifact and replayed bit-for-bit later (``repro chaos --plan-in``).

Supported fault kinds and their operands:

==================  =======================  ==================================
kind                target                   value / group
==================  =======================  ==================================
``host_crash``      host name                —  (recovers after ``duration_s``)
``nic_flap``        host name                —  (NIC back up after duration)
``loss_burst``      —                        ``value`` = injected frame-loss p
``partition``       —                        ``group`` = hosts on the cut side
``reclaim_storm``   host name                —  (owner activity for duration)
``disk_slowdown``   host name (with disk)    ``value`` = service-time factor
``manager_crash``   —                        ``shard`` = directory shard whose
                                             primary is crashed (None = shard
                                             0, the paper's single manager;
                                             restarted or failed over after
                                             ``duration_s``)
==================  =======================  ==================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

#: every fault kind the nemesis knows how to execute
KINDS = ("host_crash", "nic_flap", "loss_burst", "partition",
         "reclaim_storm", "disk_slowdown", "manager_crash")

#: kinds that require a target host
_NEEDS_TARGET = {"host_crash", "nic_flap", "reclaim_storm", "disk_slowdown"}

#: kinds whose ``value`` operand is required (and its valid range)
_NEEDS_VALUE = {"loss_burst": (0.0, 1.0), "disk_slowdown": (1.0, 1000.0)}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled injection."""

    #: virtual time of the onset
    time: float
    kind: str
    #: host the fault applies to (kind-dependent; see module docstring)
    target: Optional[str] = None
    #: how long until the natural inverse (recover/heal/restore) fires;
    #: None leaves the fault in place for the rest of the run
    duration_s: Optional[float] = None
    #: scalar operand: loss probability or disk slowdown factor
    value: Optional[float] = None
    #: partition only: the hosts on one side of the cut (everything else
    #: forms the other side)
    group: tuple = ()
    #: manager_crash only: which directory shard's primary to crash.
    #: None targets shard 0 (the paper's single manager) — and is
    #: *omitted* from the wire form, so pre-sharding plans replay
    #: byte-identically.
    shard: Optional[int] = None

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {KINDS})")
        if self.time < 0.0:
            raise ValueError(f"{self.kind}: negative trigger time "
                             f"{self.time}")
        if self.duration_s is not None and self.duration_s <= 0.0:
            raise ValueError(f"{self.kind}: non-positive duration "
                             f"{self.duration_s}")
        if self.kind in _NEEDS_TARGET and not self.target:
            raise ValueError(f"{self.kind}: needs a target host")
        if self.kind in _NEEDS_VALUE:
            lo, hi = _NEEDS_VALUE[self.kind]
            if self.value is None or not lo <= self.value <= hi:
                raise ValueError(
                    f"{self.kind}: value {self.value!r} outside "
                    f"[{lo}, {hi}]")
        if self.kind == "partition" and not self.group:
            raise ValueError("partition: needs a non-empty group")
        if self.shard is not None:
            if self.kind != "manager_crash":
                raise ValueError(f"{self.kind}: shard operand is only "
                                 f"valid for manager_crash")
            if not isinstance(self.shard, int) or self.shard < 0:
                raise ValueError(f"manager_crash: bad shard {self.shard!r}")

    def to_dict(self) -> dict:
        d = {"time": self.time, "kind": self.kind}
        if self.target is not None:
            d["target"] = self.target
        if self.duration_s is not None:
            d["duration_s"] = self.duration_s
        if self.value is not None:
            d["value"] = self.value
        if self.group:
            d["group"] = list(self.group)
        if self.shard is not None:
            d["shard"] = self.shard
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        spec = cls(time=float(d["time"]), kind=str(d["kind"]),
                   target=d.get("target"),
                   duration_s=(None if d.get("duration_s") is None
                               else float(d["duration_s"])),
                   value=(None if d.get("value") is None
                          else float(d["value"])),
                   group=tuple(d.get("group", ())),
                   shard=(None if d.get("shard") is None
                          else int(d["shard"])))
        spec.validate()
        return spec


@dataclass(frozen=True)
class FaultPlan:
    """An ordered fault schedule plus the metadata needed to replay it."""

    events: tuple = ()
    #: the seed the schedule was generated from (and which the chaos
    #: harness feeds to the Simulator, making runs fully replayable)
    seed: Optional[int] = None
    #: the experiment the plan was generated for (informational)
    experiment: str = ""
    description: str = ""
    _extra: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "events",
            tuple(sorted(self.events, key=lambda e: (e.time, e.kind,
                                                     e.target or ""))))

    def validate(self, hosts=None) -> None:
        """Check every event; with ``hosts`` also check target existence."""
        for ev in self.events:
            ev.validate()
            if hosts is not None and ev.target is not None \
                    and ev.target not in hosts:
                raise ValueError(
                    f"{ev.kind} at t={ev.time}: unknown target "
                    f"{ev.target!r} (hosts: {sorted(hosts)})")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {"version": 1, "seed": self.seed,
                "experiment": self.experiment,
                "description": self.description,
                "events": [e.to_dict() for e in self.events]}

    def to_json(self) -> str:
        """Stable, diff-friendly JSON (sorted keys, one event per line)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        version = d.get("version", 1)
        if version != 1:
            raise ValueError(f"unsupported fault-plan version {version}")
        return cls(events=tuple(FaultSpec.from_dict(e)
                                for e in d.get("events", ())),
                   seed=d.get("seed"), experiment=d.get("experiment", ""),
                   description=d.get("description", ""))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.to_json() + "\n")

    @classmethod
    def read(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fp:
            return cls.from_json(fp.read())
