"""Sweep specifications: what to run, declared as data.

A :class:`SweepSpec` is an ordered list of :class:`SweepPoint`\\ s, each
naming one experiment (a key of :data:`repro.sweep.runner.EXPERIMENTS`),
a seed, and a dict of keyword overrides for that experiment's driver.
Specs are plain JSON on disk::

    {
      "name": "fig8-seeds",
      "experiment": "fig8_point",
      "overrides": {"scale": 0.00390625, "num_iter": 2},
      "grid": {
        "pattern": ["sequential", "random"],
        "transport": ["udp", "unet"],
        "seed": [5, 6]
      }
    }

``grid`` is expanded as a full cross product (keys in sorted order, so
expansion order — and therefore point numbering — is deterministic);
the special grid key ``seed`` populates :attr:`SweepPoint.seed`, every
other key lands in the point's overrides on top of the spec-level
``overrides``.  An explicit ``points`` list can be given instead of (or
in addition to) a grid; each entry may override ``experiment``, ``seed``
and ``overrides`` individually.

Canonical JSON (:func:`canonical_text`) is the substrate of the result
cache: two points that differ only in dict-key ordering canonicalize to
the same bytes and therefore share one cache entry.  See
docs/SWEEPS.md.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, is_dataclass
from typing import Any, Iterable, Optional


class SpecError(ValueError):
    """A sweep spec that cannot be parsed or validated."""


def jsonify(obj: Any) -> Any:
    """Recursively convert ``obj`` into plain JSON-serializable data.

    Handles the shapes experiment drivers actually return: dataclasses
    (as dicts), tuples (as lists), numpy scalars (via ``.item()``), and
    dict keys that are not strings (tuples join with ``/``, everything
    else goes through ``str``).  Raises :class:`TypeError` for objects
    with no JSON story, so non-serializable results fail loudly at the
    point of conversion rather than deep inside ``json.dumps``.
    """
    if obj is None or type(obj) in (bool, int, float, str):
        return obj
    if isinstance(obj, bool):
        return bool(obj)
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, str):
        return str(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonify({f: getattr(obj, f)
                        for f in obj.__dataclass_fields__})
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if isinstance(key, tuple):
                key = "/".join(str(k) for k in key)
            elif not isinstance(key, str):
                key = str(key)
            if key in out:
                raise TypeError(f"duplicate key {key!r} after "
                                "canonicalization")
            out[key] = jsonify(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, type):  # numpy scalar
        return jsonify(obj.item())
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} "
                    "for a sweep result")


def canonical_text(obj: Any) -> str:
    """Stable JSON text: sorted keys, no whitespace, jsonified values.

    Equal data structures produce byte-identical text regardless of
    insertion order — the property the content-addressed cache and the
    ``--jobs 1`` vs ``--jobs N`` identity guarantee rest on.
    """
    return json.dumps(jsonify(obj), sort_keys=True,
                      separators=(",", ":"))


@dataclass(frozen=True)
class SweepPoint:
    """One unit of sweep work: experiment name + seed + overrides."""

    experiment: str
    seed: Optional[int] = None
    overrides: dict = field(default_factory=dict)

    def canonical(self) -> dict:
        """The point's identity as plain data (feeds the cache key)."""
        return {"experiment": self.experiment, "seed": self.seed,
                "overrides": jsonify(self.overrides)}

    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        bits = [self.experiment]
        if self.seed is not None:
            bits.append(f"seed={self.seed}")
        bits += [f"{k}={v}" for k, v in sorted(self.overrides.items())]
        return " ".join(bits)


@dataclass
class SweepSpec:
    """A named, ordered list of sweep points."""

    name: str
    points: list[SweepPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterable[SweepPoint]:
        return iter(self.points)

    def to_dict(self) -> dict:
        """Plain-data form (inverse of :meth:`from_dict`)."""
        return {"name": self.name,
                "points": [p.canonical() for p in self.points]}

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        """Build a spec from parsed JSON; see the module docstring for
        the accepted shape.  Raises :class:`SpecError` on bad input."""
        if not isinstance(d, dict):
            raise SpecError("sweep spec must be a JSON object, got "
                            f"{type(d).__name__}")
        unknown = set(d) - {"name", "experiment", "overrides", "grid",
                            "points"}
        if unknown:
            raise SpecError(f"unknown spec keys: {sorted(unknown)}")
        name = d.get("name", "sweep")
        base_exp = d.get("experiment")
        base_over = d.get("overrides", {})
        if not isinstance(base_over, dict):
            raise SpecError("'overrides' must be an object")
        points: list[SweepPoint] = []
        grid = d.get("grid")
        if grid is not None:
            if not isinstance(grid, dict) or not grid:
                raise SpecError("'grid' must be a non-empty object of "
                                "lists")
            if base_exp is None:
                raise SpecError("a grid needs a spec-level 'experiment'")
            for key, values in grid.items():
                if not isinstance(values, list) or not values:
                    raise SpecError(f"grid axis {key!r} must be a "
                                    "non-empty list")
            axes = sorted(grid)
            for combo in itertools.product(*(grid[a] for a in axes)):
                assignment = dict(zip(axes, combo))
                seed = assignment.pop("seed", None)
                points.append(SweepPoint(
                    base_exp, seed=seed,
                    overrides={**base_over, **assignment}))
        for entry in d.get("points", []):
            if not isinstance(entry, dict):
                raise SpecError("'points' entries must be objects")
            exp = entry.get("experiment", base_exp)
            if exp is None:
                raise SpecError("point without an 'experiment' (and no "
                                "spec-level default)")
            points.append(SweepPoint(
                exp, seed=entry.get("seed"),
                overrides={**base_over, **entry.get("overrides", {})}))
        if not points:
            raise SpecError("spec declares no points (need 'grid' "
                            "and/or 'points')")
        return cls(name=name, points=points)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse a spec from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def read(cls, path: str) -> "SweepSpec":
        """Load a spec from a JSON file; :class:`SpecError` if the file
        is unreadable or malformed."""
        try:
            with open(path) as fp:
                text = fp.read()
        except OSError as exc:
            raise SpecError(f"cannot read sweep spec {path!r}: "
                            f"{exc.strerror or exc}") from exc
        return cls.from_json(text)


#: Ready-made specs runnable as ``repro sweep <name>``.  ``ci-grid`` is
#: the one CI exercises: 8 cheap Figure-8 points at scale 1/256, enough
#: to prove jobs=1/jobs=N identity and cache-resume behaviour.
BUILTIN_SPECS: dict[str, dict] = {
    "ci-grid": {
        "name": "ci-grid",
        "experiment": "fig8_point",
        "overrides": {"scale": 1 / 256, "num_iter": 2,
                      "req_size": 8192, "dataset_gb": 1},
        "grid": {
            "pattern": ["sequential", "random"],
            "transport": ["udp", "unet"],
            "seed": [5, 6],
        },
    },
    "chaos-seeds": {
        "name": "chaos-seeds",
        "experiment": "chaos",
        "grid": {
            "scenario": ["fig7", "nondedicated"],
            "seed": list(range(10)),
        },
    },
    "fig8-panels": {
        "name": "fig8-panels",
        "experiment": "fig8_point",
        "overrides": {"scale": 1 / 64, "num_iter": 4},
        "grid": {
            "pattern": ["sequential", "hotcold", "random"],
            "transport": ["udp", "unet"],
            "req_size": [8192, 32768],
            "dataset_gb": [1, 2],
        },
    },
    "fig7-seeds": {
        "name": "fig7-seeds",
        "experiment": "fig7_lu",
        "overrides": {"scale": 1 / 256},
        "grid": {"transport": ["udp", "unet"], "seed": [7, 17, 27]},
    },
    "cache-ablation": {
        "name": "cache-ablation",
        "experiment": "cache",
        "overrides": {"num_iter": 6},
        "grid": {
            "policy": ["none", "lru", "lfu", "clock", "cost-aware"],
            "workload": ["nondedicated", "fig7"],
            "seed": [9],
        },
        "points": [
            {"overrides": {"policy": "cost-aware", "migration": True,
                           "workload": "nondedicated"}, "seed": 9},
            {"overrides": {"policy": "lru", "migration": True,
                           "workload": "nondedicated"}, "seed": 9},
        ],
    },
}


def load_spec(ref: str) -> SweepSpec:
    """Resolve a CLI spec reference: a builtin name or a JSON file path."""
    if ref in BUILTIN_SPECS:
        return SweepSpec.from_dict(BUILTIN_SPECS[ref])
    if ref.endswith(".json"):
        return SweepSpec.read(ref)
    raise SpecError(
        f"unknown sweep spec {ref!r}: not a builtin "
        f"({', '.join(sorted(BUILTIN_SPECS))}) and not a .json file")
