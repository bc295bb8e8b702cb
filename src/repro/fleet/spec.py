"""Declarative experiment-fleet specifications.

A fleet spec is a JSON-friendly dict declaring a *grid* of experiment
points — the cross product of topology × fidelity mode × workload ×
arrival process × offered load × fault plan — plus the scalar knobs
every point shares (seed, op count, client count, op mix, loop mode).
:meth:`FleetSpec.points` expands the grid in a fixed, documented order
(the declared order of each axis, axes nested topology-outermost), so
point indexes are stable and the results table row order is a pure
function of the spec.

Example::

    {
      "name": "quickstart",
      "seed": 1,
      "n_ops": 160,
      "n_clients": 4,
      "mix": "read4k",
      "grid": {
        "topology": [{"kind": "star", "n": 8},
                     {"kind": "fat_tree", "k": 4}],
        "mode": ["train", "flow"],
        "workload": [{"kind": "orfa", "api": "mx"}],
        "arrivals": [{"process": "poisson"}],
        "offered_load": [4000, 16000, 64000],
        "faults": [null]
      }
    }

Axis entries are validated up front — a bad spec fails before any
simulation runs, with the axis and entry named.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional

from ..errors import ReproError
from ..load.arrivals import LoadSpecError, make_arrivals
from ..load.mix import make_mix
from ..sim.engine import FIDELITIES


class FleetSpecError(ReproError):
    """A malformed fleet specification."""


#: Grid axes in expansion order (outermost first) with their defaults.
GRID_AXES = (
    ("topology", [{"kind": "star", "n": 8}]),
    ("mode", ["train"]),
    ("workload", [{"kind": "orfa", "api": "mx"}]),
    ("arrivals", [{"process": "poisson"}]),
    ("offered_load", [8000]),
    ("faults", [None]),
)

#: topology kind -> (required int params, host-count function)
_TOPOLOGIES = {
    "star": (("n",), lambda t: t["n"]),
    "fat_tree": (("k",), lambda t: t["k"] ** 3 // 4),
    "dragonfly": (("groups", "routers", "hosts"),
                  lambda t: t["groups"] * t["routers"] * t["hosts"]),
}

_FAULT_KINDS = ("link_flap", "nic_reset", "node_crash")


def topology_label(topo: dict) -> str:
    """Compact, unique axis label: ``star8``, ``ft4``, ``df4x4x2``."""
    kind = topo["kind"]
    if kind == "star":
        return f"star{topo['n']}"
    if kind == "fat_tree":
        return f"ft{topo['k']}"
    return f"df{topo['groups']}x{topo['routers']}x{topo['hosts']}"


def topology_hosts(topo: dict) -> int:
    return _TOPOLOGIES[topo["kind"]][1](topo)


def fault_label(fault: Optional[dict]) -> str:
    if fault is None:
        return "none"
    target = fault.get("link", fault.get("node", "?"))
    return f"{fault['kind']}@{target}"


@dataclass(frozen=True)
class RunPoint:
    """One expanded grid point (picklable; crosses to forked workers)."""

    index: int
    topology: dict
    mode: str
    workload: dict
    arrivals: dict
    offered_load: float
    fault: Optional[dict]
    seed: int

    def config(self) -> dict:
        """The deterministic config block of this point's results row."""
        return {
            "index": self.index,
            "topology": topology_label(self.topology),
            "mode": self.mode,
            "workload": "-".join(
                str(self.workload[k]) for k in ("kind", "api")
                if k in self.workload),
            "arrivals": self.arrivals.get("process", "poisson"),
            "offered_load": self.offered_load,
            "fault": fault_label(self.fault),
            "seed": self.seed,
        }


def _validate_topology(topo, axis="topology"):
    if not isinstance(topo, dict) or "kind" not in topo:
        raise FleetSpecError(f"{axis} entries need a 'kind', got {topo!r}")
    spec = _TOPOLOGIES.get(topo["kind"])
    if spec is None:
        raise FleetSpecError(
            f"unknown topology kind {topo['kind']!r}; known: "
            f"{', '.join(sorted(_TOPOLOGIES))}")
    for param in spec[0]:
        if not isinstance(topo.get(param), int) or topo[param] <= 0:
            raise FleetSpecError(
                f"topology {topo!r} needs positive int {param!r}")


def _validate_fault(fault):
    if fault is None:
        return
    if not isinstance(fault, dict) or fault.get("kind") not in _FAULT_KINDS:
        raise FleetSpecError(
            f"fault entries need kind in {_FAULT_KINDS}, got {fault!r}")
    if fault["kind"] == "link_flap" and "link" not in fault:
        raise FleetSpecError(f"link_flap fault needs 'link': {fault!r}")
    if fault["kind"] in ("nic_reset", "node_crash") and "node" not in fault:
        raise FleetSpecError(f"{fault['kind']} fault needs 'node': {fault!r}")


class FleetSpec:
    """A validated fleet specification."""

    def __init__(self, name: str, seed: int, n_ops: int, n_clients: int,
                 mix, grid: dict, loop: str = "open", think_us: int = 0):
        if n_ops <= 0 or n_clients <= 0:
            raise FleetSpecError(
                f"need n_ops > 0 and n_clients > 0, got {n_ops}/{n_clients}")
        if loop not in ("open", "closed"):
            raise FleetSpecError(f"loop must be open or closed, got {loop!r}")
        self.name = name
        self.seed = seed
        self.n_ops = n_ops
        self.n_clients = n_clients
        self.mix = mix
        self.loop = loop
        self.think_us = think_us
        known = {axis for axis, _default in GRID_AXES}
        unknown = set(grid) - known
        if unknown:
            raise FleetSpecError(
                f"unknown grid axes {sorted(unknown)}; known: "
                f"{sorted(known)}")
        self.grid = {}
        for axis, default in GRID_AXES:
            values = grid.get(axis, default)
            if not isinstance(values, list) or not values:
                raise FleetSpecError(
                    f"grid axis {axis!r} must be a non-empty list, "
                    f"got {values!r}")
            self.grid[axis] = values
        self._validate()

    def _validate(self) -> None:
        try:
            make_mix(self.mix)
        except LoadSpecError as exc:
            raise FleetSpecError(str(exc)) from exc
        for topo in self.grid["topology"]:
            _validate_topology(topo)
            if topology_hosts(topo) - 1 < self.n_clients:
                raise FleetSpecError(
                    f"topology {topology_label(topo)} has "
                    f"{topology_hosts(topo)} hosts; needs at least "
                    f"{self.n_clients + 1} (server + n_clients)")
        for mode in self.grid["mode"]:
            if mode not in FIDELITIES:
                raise FleetSpecError(
                    f"unknown fidelity mode {mode!r}; known: {FIDELITIES}")
        for arr in self.grid["arrivals"]:
            try:
                make_arrivals(arr, self.seed, 1000.0)
            except LoadSpecError as exc:
                raise FleetSpecError(str(exc)) from exc
        for load in self.grid["offered_load"]:
            if not isinstance(load, (int, float)) or load <= 0:
                raise FleetSpecError(
                    f"offered_load entries must be positive numbers, "
                    f"got {load!r}")
        for fault in self.grid["faults"]:
            _validate_fault(fault)

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSpec":
        if not isinstance(data, dict):
            raise FleetSpecError(f"spec must be an object, got {type(data)}")
        known = {"name", "seed", "n_ops", "n_clients", "mix", "grid",
                 "loop", "think_us"}
        unknown = set(data) - known
        if unknown:
            raise FleetSpecError(
                f"unknown spec keys {sorted(unknown)}; known: "
                f"{sorted(known)}")
        return cls(
            name=data.get("name", "fleet"),
            seed=int(data.get("seed", 1)),
            n_ops=int(data.get("n_ops", 160)),
            n_clients=int(data.get("n_clients", 4)),
            mix=data.get("mix", "read4k"),
            grid=data.get("grid", {}),
            loop=data.get("loop", "open"),
            think_us=int(data.get("think_us", 0)),
        )

    @classmethod
    def from_file(cls, path: str) -> "FleetSpec":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise FleetSpecError(f"cannot load spec {path!r}: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "n_ops": self.n_ops,
            "n_clients": self.n_clients,
            "mix": self.mix,
            "loop": self.loop,
            "think_us": self.think_us,
            "grid": self.grid,
        }

    def points(self) -> list[RunPoint]:
        """Expand the grid, topology-outermost, in declared entry order."""
        axes = [self.grid[axis] for axis, _default in GRID_AXES]
        return [
            RunPoint(index=i, topology=topo, mode=mode, workload=wl,
                     arrivals=arr, offered_load=float(load), fault=fault,
                     seed=self.seed)
            for i, (topo, mode, wl, arr, load, fault)
            in enumerate(itertools.product(*axes))
        ]
