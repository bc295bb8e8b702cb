"""The sweep runner: expand a fleet spec, run every point, tabulate.

Each grid point runs in its own :class:`~repro.sim.Environment`, built
at the point's fidelity with its own id allocator, under its own
metrics registry (:func:`repro.obs.scoped_registry`).  That makes a
point hermetic, which buys the fleet contract for free:

* *same spec + seed => byte-identical results files*, and
* *in-process == forked*: the points run through the world runner
  (:func:`repro.sim.worlds.run_worlds`), which hands the rows back in
  point order, so the rendered JSON/CSV bytes never depend on how many
  workers ran them.

No wall-clock value ever enters a results file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

from .. import obs
from ..cluster.node import star
from ..cluster.topo import dragonfly, fat_tree
from ..faults.plan import FaultPlan
from ..hw.params import host_params
from ..load import LoadGen, make_arrivals, make_mix, make_workload, run_load
from ..sim import Environment, one_world
from ..sim.worlds import run_worlds
from ..units import us
from .spec import FleetSpec, FleetSpecError, RunPoint

#: Spec-file field reference (``python -m repro.bench fleet --schema``).
FLEET_SCHEMA = {
    "name": "str: label stamped into the results files",
    "seed": "int: master seed for arrivals, op mixes and fault plans",
    "n_ops": "int: requests drawn per grid point",
    "n_clients": "int: issuing clients (one in-flight op each)",
    "mix": "str stock mix name, or {name, choices:[{op,size,weight}]}",
    "loop": "'open' (replay drawn arrival times) or 'closed'",
    "think_us": "int: closed-loop think time between ops",
    "grid": {
        "topology": "[{kind: star, n} | {kind: fat_tree, k} | "
                    "{kind: dragonfly, groups, routers, hosts}]",
        "mode": "[packet | train | flow] (flow needs a fabric topology)",
        "workload": "[{kind: orfa|nbd|rr, api: mx|gm|tcp, ...}]",
        "arrivals": "[{process: poisson | pareto_on_off, ...}]",
        "offered_load": "[ops per second, > 0]",
        "faults": "[null | {kind: link_flap, link, ...} | "
                  "{kind: nic_reset|node_crash, node, at_us}]",
    },
    "fault_link": "link_flap 'link' names a link of the built topology: "
                  "switch.l<i> on a star, ft.p<pod>e<edge>.l<i> on a "
                  "fat-tree (<i> is the host's node id); unknown names "
                  "are an error",
}

_CONFIG_COLS = ("index", "topology", "mode", "workload", "arrivals",
                "offered_load", "fault", "seed")
_METRIC_COLS = ("n_clients", "offered_ops", "achieved_ops", "failed_ops",
                "elapsed_ns", "offered_rate_ops_s", "achieved_rate_ops_s",
                "fairness", "mean_ns", "p50_ns", "p95_ns", "p99_ns")
_EXTRA_COLS = ("sim_ns", "events")


def _build_topology(env: Environment, topo: dict):
    """Instantiate one grid topology; returns (nodes, switches)."""
    kind = topo["kind"]
    if kind == "star":
        nodes, switch = star(env, topo["n"])
        return nodes, [switch]
    # Fabric hosts get a reduced frame pool — big enough for server
    # rings, load buffers and page caches, small enough that fabric
    # builds with dozens of hosts stay cheap.
    host = host_params(memory_frames=16384)
    if kind == "fat_tree":
        fabric = fat_tree(env, topo["k"], host=host)
    else:
        fabric = dragonfly(env, topo["groups"], topo["routers"],
                           topo["hosts"], host=host)
    return fabric.nodes, list(fabric.switches.values())


def _pick_clients(nodes, n_clients: int):
    """Evenly spread client hosts over ids 1..n-1 (0 is the server), so
    fabric clients land in different pods/groups."""
    n = len(nodes)
    return [nodes[1 + (i * (n - 1)) // n_clients] for i in range(n_clients)]


def _install_fault(env, fault: dict, seed: int, nodes, switches) -> None:
    """Arm one grid fault.  Unlike :meth:`FaultPlan.install`, which
    ignores names it cannot find, a fault naming no link or node of the
    built topology is a spec error: its row would claim a fault that
    never happened."""
    plan = FaultPlan(seed=seed)
    at = us(int(fault.get("at_us", 600)))
    if fault["kind"] == "link_flap":
        links = {link.name for sw in switches for link in sw.all_links()}
        if fault["link"] not in links:
            raise FleetSpecError(
                f"link_flap names no link of this topology: "
                f"{fault['link']!r}")
        plan.link_flap(fault["link"], at,
                       down_ns=us(int(fault.get("down_us", 400))),
                       up_ns=us(int(fault.get("up_us", 250))),
                       count=int(fault.get("count", 2)))
    else:
        node_id = int(fault["node"])
        if node_id not in {node.node_id for node in nodes}:
            raise FleetSpecError(
                f"{fault['kind']} names no node of this topology: "
                f"{fault['node']!r}")
        if fault["kind"] == "nic_reset":
            plan.nic_reset(node_id, at)
        else:
            plan.node_crash(node_id, at)
    plan.install(env, nodes=nodes, switches=switches)


@one_world
def run_point(spec: FleetSpec, point: RunPoint) -> dict:
    """Run one grid point hermetically; returns its results row."""
    with obs.scoped_registry():
        # On a star there is no FlowNetwork, so "flow" runs as "train".
        env = Environment(point.mode)
        nodes, switches = _build_topology(env, point.topology)
        if point.fault is not None:
            _install_fault(env, point.fault, point.seed, nodes, switches)
        workload = make_workload(point.workload, env, nodes[0],
                                 _pick_clients(nodes, spec.n_clients))
        arrivals = make_arrivals(point.arrivals, point.seed,
                                 point.offered_load)
        gen = LoadGen(arrivals, make_mix(spec.mix), point.seed,
                      spec.n_ops, spec.n_clients)
        ev0 = env.events_processed
        res = run_load(env, workload, gen, mode=spec.loop,
                       think_ns=us(spec.think_us))
        metrics = res.row()
        metrics["per_client_ops"] = list(res.per_client_ops)
        return {
            "config": point.config(),
            "metrics": metrics,
            "sim_ns": env.now,
            "events": env.events_processed - ev0,
        }


@dataclass
class FleetResult:
    """An expanded, executed fleet: the spec, one row per point and its
    unrendered cost (seconds, events, peak RSS MiB)."""

    spec: dict
    rows: list
    costs: list = field(default_factory=list, compare=False)

    def row_cells(self, row: dict) -> dict:
        cells = {c: row["config"][c] for c in _CONFIG_COLS}
        cells.update({c: row["metrics"][c] for c in _METRIC_COLS})
        cells.update({c: row[c] for c in _EXTRA_COLS})
        return cells


def run_fleet(spec: FleetSpec, parallel: int = 0) -> FleetResult:
    """Run every grid point over at most ``parallel`` processes (0: one
    per usable CPU, 1: this process); rows come back in point (spec)
    order."""
    rows, costs = run_worlds(partial(run_point, spec), spec.points(),
                             parallel)
    return FleetResult(spec=spec.to_dict(), rows=rows, costs=costs)


def render_json(result: FleetResult) -> str:
    """The canonical results document: sorted keys, trailing newline,
    nothing wall-clock-derived — byte-identical across reruns."""
    return json.dumps({"spec": result.spec, "points": result.rows},
                      indent=2, sort_keys=True) + "\n"


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(result: FleetResult) -> str:
    """One tidy row per grid point (config columns, then metrics)."""
    columns = (*_CONFIG_COLS, *_METRIC_COLS, *_EXTRA_COLS)
    lines = [",".join(columns)]
    for row in result.rows:
        cells = result.row_cells(row)
        lines.append(",".join(_cell(cells[c]) for c in columns))
    return "\n".join(lines) + "\n"
