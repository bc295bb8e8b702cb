"""Chaos scenarios for the replicated NBD volume.

One harness builds the same five-node star every time — a controller,
a three-replica chain, and a client running two concurrent workload
processes — then arms one named fault scenario from a seeded
:class:`repro.faults.FaultPlan` and lets the run play out on simulated
time.  Each scenario returns a :class:`ScenarioResult` carrying:

* the client-observed operation history and its linearizability
  verdict (:mod:`repro.nbd.linearize`);
* the controller's failover and resync records (also exported as
  ``nbd.replica.failover_ns`` / ``resync_ns`` metrics);
* the rendered fault/replica trace and the metrics snapshot JSON, both
  byte-identical across reruns of the same ``(scenario, seed)`` — the
  determinism contract CI's chaos-replica job diffs.

Scenario matrix: a clean baseline, a crash at each chain position, a
NIC reset at each chain position (sequence-state loss without process
death), an uplink flap train (partition without death), and a crash
followed by reboot and rejoin (dirty-extent resync).  After the
workload the client reads back every block it touched, so stale-resync
corruption surfaces as a linearizability violation, not just a missing
ack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..cluster.node import star
from ..errors import Eio
from ..faults.plan import FaultPlan
from ..hw.params import ReliabilityParams
from ..sim import Environment, one_world
from ..sim.trace import render_trace
from ..units import ms, us
from .client import History, ReplicatedNbdDevice
from .control import ChainController
from .linearize import CheckResult, check_history
from .replica import ReplicaParams, ReplicaServer

# -- cluster layout -----------------------------------------------------------

CONTROL_NODE = 0
REPLICAS = (1, 2, 3)  # initial chain order: head, middle, tail
CLIENT_NODE = 4
CONTROL_PORT = 5
REPLICA_PORT = 6
CLIENT_PORT = 7
NBLOCKS = 16

#: When the scenario's fault fires (mid-workload by construction).
FAULT_AT = us(600)
#: When the crash-rejoin scenario's node comes back (NIC reset clears
#: the crashed flag and bumps the incarnation).
REJOIN_AT = FAULT_AT + ms(2)

#: Aggressive firmware retry budget so a dead peer is declared in
#: ~140 us instead of seconds, and a flap-induced false verdict heals
#: after the TTL — chaos runs compress real-world timescales.
CHAOS_RELIABILITY = ReliabilityParams(
    rto_ns=us(20), rto_max_ns=us(160), max_retries=3,
    ack_delay_ns=2000, dead_peer_ttl_ns=us(400),
)

CHAOS_PARAMS = ReplicaParams()


def uplink(node_id: int) -> str:
    """Name of a node's star uplink (for link-level faults)."""
    return f"switch.l{node_id}"


# -- scenarios ----------------------------------------------------------------


def _none(plan: FaultPlan) -> None:
    pass


def _crash(node_id: int):
    def arm(plan: FaultPlan) -> None:
        plan.node_crash(node_id, FAULT_AT)
    return arm


def _reset(node_id: int):
    def arm(plan: FaultPlan) -> None:
        plan.nic_reset(node_id, FAULT_AT)
    return arm


def _flap(node_id: int):
    def arm(plan: FaultPlan) -> None:
        plan.link_flap(uplink(node_id), FAULT_AT,
                       down_ns=us(400), up_ns=us(250), count=2)
    return arm


def _crash_rejoin(node_id: int):
    def arm(plan: FaultPlan) -> None:
        plan.node_crash(node_id, FAULT_AT)
        plan.nic_reset(node_id, REJOIN_AT)  # the reboot
    return arm


#: name -> (description, plan builder).  Order is the CI matrix order.
SCENARIOS: dict = {
    "none": ("clean run, no faults", _none),
    "crash-head": ("head crashes mid-write", _crash(REPLICAS[0])),
    "crash-middle": ("middle crashes mid-write", _crash(REPLICAS[1])),
    "crash-tail": ("tail crashes mid-write", _crash(REPLICAS[2])),
    "reset-head": ("head NIC firmware reset", _reset(REPLICAS[0])),
    "reset-middle": ("middle NIC firmware reset", _reset(REPLICAS[1])),
    "reset-tail": ("tail NIC firmware reset", _reset(REPLICAS[2])),
    "flap-middle": ("middle uplink flap train", _flap(REPLICAS[1])),
    "crash-rejoin-middle": ("middle crashes, reboots, resyncs, rejoins",
                            _crash_rejoin(REPLICAS[1])),
}


# -- results ------------------------------------------------------------------


@dataclass
class ScenarioResult:
    name: str
    seed: int
    lin: CheckResult
    history: History
    failovers: list
    resyncs: list
    #: Operation indexes whose retry budget exhausted (op left pending).
    failed_ops: list = field(default_factory=list)
    trace: str = ""
    metrics_json: str = ""
    duration_ns: int = 0

    @property
    def ok(self) -> bool:
        return self.lin.ok

    def failovers_within(self, bound_ns: int) -> bool:
        """Did every reconfiguration (failovers and rejoins) complete —
        death detected to new configuration acknowledged everywhere —
        within ``bound_ns``?"""
        spans = [f["done_ns"] - f["detect_ns"] for f in self.failovers]
        spans += [r["done_ns"] - r["start_ns"] for r in self.resyncs]
        return all(s <= bound_ns for s in spans)


# -- the harness --------------------------------------------------------------


def _workload(env, dev: ReplicatedNbdDevice, ops: list, think_ns: int,
              failed: list):
    """Generator: run ``ops`` (list of ("w", block, token) / ("r", block))
    sequentially, recording Eio give-ups instead of dying."""
    for i, op in enumerate(ops):
        try:
            if op[0] == "w":
                yield from dev.write_block(op[1], op[2])
            else:
                yield from dev.read_block(op[1])
        except Eio:
            failed.append(op)
        yield env.timeout(think_ns)


def _make_ops(seed: int, n_ops: int, lane: int) -> list:
    """Deterministic op list for one workload lane: mostly writes with
    interspersed reads, unique tokens ``(seed, lane, index)``-derived."""
    ops = []
    for i in range(n_ops):
        block = (i * 5 + lane * 3) % NBLOCKS
        if i % 3 == 2:
            ops.append(("r", (i * 7 + lane) % NBLOCKS))
        else:
            ops.append(("w", block, (seed << 24) | (lane << 20) | (i + 1)))
    return ops


@one_world
def run_scenario(name: str, seed: int = 1, n_ops: int = 120,
                 settle_ns: int = ms(6)) -> ScenarioResult:
    """Run one chaos scenario; fully deterministic per (name, seed).

    The seed changes only the workload's write tokens, which no trace
    record carries: a scenario renders the same trace at every seed
    (``tests/test_replica.py`` pins its digest).
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"known: {', '.join(SCENARIOS)}")
    _desc, arm = SCENARIOS[name]
    # One hermetic run: its own Environment (ids included) and its own
    # metrics registry.
    with obs.scoped_registry() as registry:
        env = Environment()
        records = env.trace = []
        nodes, switch = star(env, 5)
        plan = FaultPlan(seed=seed)
        arm(plan)
        plan.install(env, nodes=nodes, switches=[switch],
                     reliability_params=CHAOS_RELIABILITY)

        controller = ChainController(
            nodes[CONTROL_NODE], CONTROL_PORT, list(REPLICAS),
            REPLICA_PORT, params=CHAOS_PARAMS,
        )
        replicas = [
            ReplicaServer(nodes[n], REPLICA_PORT,
                          (CONTROL_NODE, CONTROL_PORT),
                          params=CHAOS_PARAMS, device_blocks=NBLOCKS)
            for n in REPLICAS
        ]
        history = History()
        dev = ReplicatedNbdDevice(
            nodes[CLIENT_NODE], CLIENT_PORT, (CONTROL_NODE, CONTROL_PORT),
            REPLICA_PORT, params=CHAOS_PARAMS, history=history,
        )
        for server in replicas:
            env.run(until=server.start())
        env.run(until=controller.start())
        env.run(until=dev.start())

        failed: list = []
        half = n_ops // 2
        lanes = [
            env.process(_workload(env, dev, _make_ops(seed, half, 0),
                                  us(10), failed), name="chaos.lane0"),
            env.process(_workload(env, dev, _make_ops(seed, n_ops - half, 1),
                                  us(12), failed), name="chaos.lane1"),
        ]
        env.run(until=env.all_of(lanes))

        # Read back every block once: post-failover state must still
        # linearize (this is what catches a corrupt or stale resync).
        def read_back():
            for block in range(NBLOCKS):
                try:
                    yield from dev.read_block(block)
                except Eio:
                    failed.append(("r", block))
        env.run(until=env.process(read_back(), name="chaos.readback"))
        env.run(until=env.now + settle_ns)

        lin = check_history(history.ops)
        return ScenarioResult(
            name=name, seed=seed, lin=lin, history=history,
            failovers=list(controller.failovers),
            resyncs=list(controller.resyncs),
            failed_ops=failed,
            trace=render_trace(records),
            metrics_json=obs.snapshot_to_json(registry.snapshot()),
            duration_ns=env.now,
        )


def failover_bound_ns(params: ReplicaParams = CHAOS_PARAMS) -> int:
    """The acceptance bound: detection lease plus the resync allowance."""
    return params.lease_ns + params.resync_bound_ns
