"""Sharded parallel simulation: one Environment per worker process.

A *scenario* object describes how to build a partitioned cluster and
what to run on it; :class:`ShardedSimulation` forks one worker per
shard, wires the cut links with ``multiprocessing`` pipes, and runs the
conservative null-token protocol of :mod:`repro.sim.border` until every
phase completes.  :func:`run_sequential` executes the *same* scenario
in a single Environment, which is both the reference for byte-identity
tests and the baseline for the perf comparison.

Scenario protocol (duck-typed; instances must survive ``fork``):

``nshards`` / ``nphases`` / ``observe``
    Worker count, phase count, and whether each worker installs a
    metrics registry (snapshots come back in the results).
``borders() -> [(link_name, shard_a, shard_b)]``
    The cut links.  Each named border becomes one duplex pipe.
``build(shard_id, env, hub) -> ctx``
    Construct this shard's slice of the topology.  Cut links are
    obtained from ``hub.border_link(name, params, local_end)``; the hub
    is a :class:`BorderHub` in workers and a :class:`_LocalHub` (which
    hands both "halves" the same :class:`_SequentialCutLink`) under
    :func:`run_sequential` — scenario code cannot tell the difference.
``phase(shard_id, phase_idx, env, ctx) -> [generator, ...]``
    Programs to run in this phase.  A phase ends when every program of
    every shard has finished and all shards are quiescent.
``result(shard_id, env, ctx) -> picklable``
    Collected once after the last phase.

Synchronization
---------------

Within a phase each worker loops: commit staged cross-border arrivals
strictly below ``limit = min(inbound horizons)`` — with explicit
negative heap ranks (:meth:`Environment.schedule_ranked`), so a
same-instant arbitration between a border arrival and a local event
resolves identically no matter which sync window the wall-clock grant
batching landed the item in.  The sequential reference delivers over
its cut links with the *same* rank rule (:class:`_SequentialCutLink`),
because the plain insertion-sequence order is information a parallel
run cannot reconstruct; with one deterministic tie rule on both sides
the two executions realize the same linearization of the same causal
partial order, and the identity gate demands byte-equality at every
scale.  After committing, the worker runs the local event window up to
``limit`` (:meth:`Environment.run_window`), flushes newly
emitted wire items, then grants each neighbour
``min(next local event, limit) + propagation_ns`` and blocks until a
neighbour's pipe has news.  Grants are monotone and positive-lookahead,
so the classic Chandy–Misra–Bryant liveness argument applies: the
minimum granted horizon rises by at least one propagation delay per
exchange round.

Lookahead is per-border (the cut link's ``propagation_ns``), so the
topology chooses the sync cadence.  Multi-switch fabrics exploit this
deliberately: :meth:`repro.cluster.topo.Fabric.propose_pods` confines
cuts to inter-pod trunks carrying ``FabricParams.inter_propagation_ns``
(a cable-length delay several times the intra-pod trunks'), so a
pod-per-shard fat-tree synchronizes in windows that fat lookahead wide
— the token exchange amortizes over whole packet pipelines.  Partial
:class:`~repro.cluster.topo.Fabric` builds install no analytic
FlowNetwork (a reservation needs a global path view; ``Link.is_border``
refuses the cut hops), so sharded fabric runs stay byte-identical to
sequential ones.

Between phases the coordinator runs a drain barrier: when every shard
reports idle with matched per-border sent/received counts (which proves
no wire item is in flight — a shard can only send after receiving,
so a stale matched report is impossible), it broadcasts ``quiesce``;
workers exchange drain markers to flush stale null tokens, then jump
their clocks to the global resume time ``T0 = max(shard completion
times)`` and re-base horizons at ``T0 + lookahead``.  The sequential
reference reproduces exactly this semantics by draining the event queue
between phases.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as mpc
import sys
import time
import traceback
from typing import Any, Optional

from .. import obs
from ..errors import NetworkError, ShardError
from ..hw.link import Link
from ..hw.params import LinkParams
from .engine import Environment
from .border import AsyncSender, BorderEnd, BorderLink

_INF = float("inf")

#: Base heap rank for cross-border arrivals: negative (sorts before all
#: insertion-sequenced local events at the same timestamp) with room
#: for ``border_index << 32 | per_border_seq`` to stay below zero.
_BORDER_RANK = -(1 << 62)

#: Default wall-clock budget for a sharded run; generous because CI
#: containers can be slow, but finite so a protocol bug fails loudly
#: instead of hanging the suite.
DEFAULT_TIMEOUT_S = 300.0


class BorderHub:
    """Worker-side factory for this shard's cut links."""

    def __init__(self, env: Environment, conns: dict,
                 sender: Optional[AsyncSender] = None):
        self.env = env
        self._conns = conns
        self._sender = sender
        self._indices = {name: i for i, name in enumerate(sorted(conns))}
        self.borders: dict[str, BorderEnd] = {}

    def border_link(self, name: str, params: LinkParams,
                    local_end: str = "a") -> BorderLink:
        conn = self._conns.get(name)
        if conn is None:
            raise ShardError(f"scenario built undeclared border {name!r}")
        if name in self.borders:
            raise ShardError(f"border {name!r} built twice")
        post = (None if self._sender is None
                else lambda msg, _c=conn: self._sender.post(_c, msg))
        end = BorderEnd(conn, name, self._indices[name],
                        params.propagation_ns, post=post)
        self.borders[name] = end
        return BorderLink(self.env, params, end, local_end=local_end, name=name)

    def missing(self) -> list[str]:
        return sorted(set(self._conns) - set(self.borders))


class _SequentialCutLink(Link):
    """Sequential-reference cut link with border-ranked deliveries.

    The sharded engine commits a border arrival onto the receiving
    shard's heap with an explicit negative rank — (border index within
    the shard, per-direction FIFO order) — so a same-timestamp arrival
    sorts before every local event at that instant regardless of which
    sync window committed it.  The sequential reference must apply the
    *same* tie rule: a plain ``call_at`` would order the arrival by
    its global insertion sequence, information a parallel run cannot
    reconstruct (an analytic train hold, for example, is scheduled a
    full wire occupancy before its completion instant and would
    out-sequence an arrival emitted only one propagation earlier).
    With ranked deliveries on both sides, the two executions realize
    the same linearization of the same causal partial order, so the
    identity gate can demand byte-equality.

    The rank folds in the *receiving* shard id above the border index.
    That keeps ranks unique across the one shared heap (two shards each
    have a border index 0; their ``_Call`` payloads are not orderable)
    without disturbing within-shard order — the sid is constant for
    every arrival a given shard receives, and cross-shard order at one
    instant cannot affect state (shards only interact through these
    very cut links, one propagation later).
    """

    is_border = True  # mirror BorderLink: flow reservations refuse cut hops

    def __init__(self, env: Environment, params: LinkParams, name: str,
                 hub: "_LocalHub"):
        if params.propagation_ns <= 0:
            raise NetworkError(
                f"border link {name!r} needs propagation > 0 for lookahead"
            )
        super().__init__(env, params, name)
        self._hub = hub
        self._rank_base = {"a": None, "b": None}
        self._next_seq = {"a": 1, "b": 1}  # BorderEnd._rx_seq starts at 1

    def _deliver_at(self, to_end: str, when: int, item: Any) -> None:
        base = self._rank_base[to_end]
        if base is None:
            base = self._hub.rank_base(self.name, to_end)
            self._rank_base[to_end] = base
        seq = self._next_seq[to_end]
        self._next_seq[to_end] = seq + 1
        self.env.schedule_ranked(
            ((when, base + seq, self._ends[to_end], (item,)),))


class _LocalHub:
    """Sequential-reference stand-in: both shards get the same link.

    Cut links are :class:`_SequentialCutLink`; the hub records which
    shard build attached each end so delivery ranks use the receiving
    shard's sorted-border index — the exact key :class:`BorderHub`
    assigns to its :class:`~repro.sim.border.BorderEnd` objects.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._links: dict[str, Link] = {}
        #: Set by run_sequential before each scenario.build(sid, ...).
        self.current_sid = 0
        #: (border name, link end) -> sid whose build attached that end.
        self._end_sid: dict[tuple[str, str], int] = {}
        self._order: Optional[dict[int, dict[str, int]]] = None

    def border_link(self, name: str, params: LinkParams,
                    local_end: str = "a") -> Link:
        link = self._links.get(name)
        if link is None:
            link = _SequentialCutLink(self.env, params, name, hub=self)
            self._links[name] = link
        self._end_sid[(name, local_end)] = self.current_sid
        return link

    def rank_base(self, name: str, to_end: str) -> int:
        """Delivery rank base for arrivals at ``to_end`` of border ``name``.

        Resolved lazily on first delivery, after every shard has built
        (workers enforce that each declared border is built, so the
        per-sid sorted name sets match ``BorderHub._indices`` exactly).
        """
        if self._order is None:
            by_sid: dict[int, set] = {}
            for (nm, _end), sid in self._end_sid.items():
                by_sid.setdefault(sid, set()).add(nm)
            self._order = {
                sid: {nm: i for i, nm in enumerate(sorted(names))}
                for sid, names in by_sid.items()}
        sid = self._end_sid[(name, to_end)]
        return _BORDER_RANK + (((sid << 16) | self._order[sid][name]) << 32)


class _ShardRunner:
    """The conservative event loop of one worker process."""

    def __init__(self, env: Environment, borders: list[BorderEnd], ctrl):
        self.env = env
        self.borders = borders
        self.ctrl = ctrl
        self._wait_list = [b.conn for b in borders] + [ctrl]

    def run_phase(self, programs: list, last_phase: bool) -> None:
        env = self.env
        borders = self.borders
        if not borders:
            # Degenerate single-shard partition: plain sequential run to
            # quiescence, then the normal idle/barrier handshake.
            if programs:
                env.run(until=env.all_of(programs))
            env.run()
        last_report: Optional[tuple] = None
        while True:
            if borders:
                limit = min(b.horizon for b in borders)
                due = []
                for b in borders:
                    for when, seq, item in b.take_due(limit):
                        due.append((when, b.index, seq, b.deliver, item))
                if due:
                    # Deterministic ordering: explicit negative heap
                    # ranks (border index, per-border FIFO order) make
                    # a same-timestamp arrival sort before every local
                    # event at that instant, no matter which sync
                    # window committed it.  Insertion-order ties would
                    # let wall-clock grant batching decide who wins a
                    # same-instant arbitration (a local event at t
                    # scheduled between two candidate commit windows
                    # lands on either side of the arrival's sequence
                    # number).  The sequential reference delivers over
                    # its cut links with the same rank rule
                    # (_SequentialCutLink), so both executions pick
                    # the same linearization.
                    env.schedule_ranked(
                        (when, _BORDER_RANK + (bi << 32) + seq,
                         deliver, (item,))
                        for when, bi, seq, deliver, item in due)
                env.run_window(limit)
                nxt = env.peek()
                t_next = limit if nxt is None else min(nxt, limit)
                # Items first, then the token vouching for them: the
                # pipe is FIFO, so when the peer reads a grant it has
                # already staged every item below it.
                for b in borders:
                    b.flush()
                    b.grant(t_next + b.lookahead_ns)
            done = (all(p.triggered for p in programs)
                    and env.peek() is None
                    and not any(b.has_staged() for b in borders))
            if done:
                report = (env.now, {b.name: b.counts() for b in borders})
                if report != last_report:
                    last_report = report
                    self.ctrl.send(("idle", env.now, report[1]))
            ready = mpc.wait(self._wait_list)
            directive = None
            for conn in ready:
                if conn is self.ctrl:
                    directive = self.ctrl.recv()
            for b in self.borders:
                b.pump()
            if directive is not None:
                tag = directive[0]
                if tag == "stop":
                    if not last_phase:
                        raise ShardError("stop received before the last phase")
                    return
                if tag == "quiesce":
                    if last_phase:
                        raise ShardError("quiesce received in the last phase")
                    self._barrier()
                    return
                raise ShardError(f"unknown control directive {directive!r}")

    def _barrier(self) -> None:
        for b in self.borders:
            b.send_mark()
        for b in self.borders:
            b.drain_to_mark()
        self.ctrl.send(("quiesced",))
        msg = self.ctrl.recv()
        if msg[0] != "barrier":
            raise ShardError(f"expected barrier directive, got {msg!r}")
        t0 = msg[1]
        self.env.advance_to(t0)
        for b in self.borders:
            b.reset_horizons(t0 + b.lookahead_ns)


def _worker_main(shard_id: int, scenario, conns: dict, ctrl) -> None:
    try:
        # Drop the obs state inherited across fork: this worker
        # observes only its own shard.
        obs.uninstall_registry()
        obs.uninstall_timeline()
        registry = (obs.install_registry()
                    if getattr(scenario, "observe", False) else None)
        env = Environment()
        sender = AsyncSender()
        hub = BorderHub(env, conns, sender=sender)
        ctx = scenario.build(shard_id, env, hub)
        if hub.missing():
            raise ShardError(
                f"shard {shard_id} never built declared borders "
                f"{hub.missing()}")
        borders = [hub.borders[name] for name in sorted(hub.borders)]
        runner = _ShardRunner(env, borders, ctrl)
        nphases = scenario.nphases
        for k in range(nphases):
            programs = [env.process(gen, name=f"shard{shard_id}.p{k}")
                        for gen in scenario.phase(shard_id, k, env, ctx)]
            runner.run_phase(programs, last_phase=(k == nphases - 1))
        # Matched sent/received counts at the final idle mean the
        # queue is already drained; close() just joins the writer.
        sender.close()
        ctrl.send(("result", {
            "shard": shard_id,
            "now": env.now,
            "events_processed": env.events_processed,
            "metrics": registry.snapshot() if registry is not None else None,
            "payload": scenario.result(shard_id, env, ctx),
        }))
        ctrl.close()
    except BaseException:
        try:
            ctrl.send(("error", shard_id, traceback.format_exc()))
        except Exception:
            pass
        sys.exit(1)


class ShardedSimulation:
    """Coordinator: forks workers, drives barriers, collects results."""

    def __init__(self, scenario, timeout_s: float = DEFAULT_TIMEOUT_S):
        self.scenario = scenario
        self.timeout_s = timeout_s

    def run(self) -> "ShardResult":
        scenario = self.scenario
        nshards = scenario.nshards
        nphases = scenario.nphases
        if nshards < 1:
            raise ShardError(f"need at least one shard, got {nshards}")
        pairs = list(scenario.borders())
        for name, s0, s1 in pairs:
            if s0 == s1 or not (0 <= s0 < nshards and 0 <= s1 < nshards):
                raise ShardError(f"border {name!r} joins invalid shards {s0},{s1}")
        ctx = multiprocessing.get_context("fork")
        conns_for: list[dict] = [{} for _ in range(nshards)]
        parent_border_conns = []
        for name, s0, s1 in pairs:
            if name in conns_for[s0] or name in conns_for[s1]:
                raise ShardError(f"duplicate border name {name!r}")
            c0, c1 = ctx.Pipe()
            conns_for[s0][name] = c0
            conns_for[s1][name] = c1
            parent_border_conns += [c0, c1]
        ctrls = []
        procs = []
        try:
            for sid in range(nshards):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(sid, scenario, conns_for[sid], child),
                    daemon=True, name=f"shard-{sid}")
                proc.start()
                child.close()
                ctrls.append(parent)
                procs.append(proc)
            # The parent holds no border pipe ends: close them so worker
            # exit is visible as EOF rather than a silent hang.
            for conn in parent_border_conns:
                conn.close()
            results = self._coordinate(pairs, ctrls, nshards, nphases)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join(timeout=10)
        result = ShardResult([results[sid] for sid in range(nshards)])
        # Credit worker event counts to the coordinator process so
        # ``Environment.lifetime_events_processed`` deltas (bench
        # --timings) account for sharded work too.
        Environment.lifetime_events_processed += result.events_processed
        return result

    def _coordinate(self, pairs, ctrls, nshards, nphases) -> dict:
        sid_of = {conn: sid for sid, conn in enumerate(ctrls)}
        idle: dict[int, Optional[tuple]] = {sid: None for sid in range(nshards)}
        quiesced: set[int] = set()
        results: dict[int, dict] = {}
        phase = 0
        awaiting_barrier = False
        stopped = False
        deadline = time.monotonic() + self.timeout_s
        while len(results) < nshards:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardError(f"sharded run timed out after {self.timeout_s}s")
            ready = mpc.wait(ctrls, timeout=remaining)
            if not ready:
                raise ShardError(f"sharded run timed out after {self.timeout_s}s")
            for conn in ready:
                sid = sid_of[conn]
                try:
                    msg = conn.recv()
                except EOFError:
                    if sid in results:
                        continue
                    raise ShardError(f"shard {sid} exited without a result")
                tag = msg[0]
                if tag == "idle":
                    idle[sid] = (msg[1], msg[2])
                elif tag == "quiesced":
                    quiesced.add(sid)
                elif tag == "result":
                    results[msg[1]["shard"]] = msg[1]
                elif tag == "error":
                    raise ShardError(
                        f"shard {msg[1]} failed:\n{msg[2]}")
                else:
                    raise ShardError(f"unknown worker message {msg!r}")
            if awaiting_barrier:
                if len(quiesced) == nshards:
                    t0 = max(now for now, _counts in idle.values())
                    for conn in ctrls:
                        conn.send(("barrier", t0))
                    phase += 1
                    awaiting_barrier = False
                    quiesced = set()
                    idle = {sid: None for sid in range(nshards)}
                continue
            if stopped or not self._all_idle_matched(pairs, idle):
                continue
            if phase < nphases - 1:
                for conn in ctrls:
                    conn.send(("quiesce",))
                awaiting_barrier = True
            else:
                for conn in ctrls:
                    conn.send(("stop",))
                stopped = True
        return results

    @staticmethod
    def _all_idle_matched(pairs, idle) -> bool:
        if any(report is None for report in idle.values()):
            return False
        for name, s0, s1 in pairs:
            sent0, recv0 = idle[s0][1][name]
            sent1, recv1 = idle[s1][1][name]
            if sent0 != recv1 or sent1 != recv0:
                return False
        return True


class ShardResult:
    """Per-shard result dicts plus cross-shard merge helpers."""

    def __init__(self, shards: list[dict]):
        self.shards = shards

    @property
    def payloads(self) -> list[Any]:
        return [s["payload"] for s in self.shards]

    @property
    def now(self) -> int:
        """Global completion time: the latest shard clock."""
        return max(s["now"] for s in self.shards)

    @property
    def events_processed(self) -> int:
        return sum(s["events_processed"] for s in self.shards)

    @property
    def events_per_shard(self) -> list[int]:
        return [s["events_processed"] for s in self.shards]

    def merged_metrics(self) -> dict:
        snaps = [s["metrics"] for s in self.shards]
        if any(s is None for s in snaps):
            raise ShardError("scenario did not run with observe=True")
        return obs.merge_snapshots(snaps)


def run_sharded(scenario, timeout_s: float = DEFAULT_TIMEOUT_S) -> ShardResult:
    """Run ``scenario`` across worker processes."""
    return ShardedSimulation(scenario, timeout_s=timeout_s).run()


def run_sequential(scenario) -> ShardResult:
    """Run the same scenario in one Environment (reference/baseline).

    Phase barriers are reproduced by draining the event queue between
    phases — identical to "every shard idle, resume at the global last
    event time".  Returns a :class:`ShardResult` with a single
    pseudo-shard so callers compare the two modes uniformly.
    """
    def body(registry) -> ShardResult:
        env = Environment()
        hub = _LocalHub(env)
        ctxs = []
        for sid in range(scenario.nshards):
            hub.current_sid = sid
            ctxs.append(scenario.build(sid, env, hub))
        for k in range(scenario.nphases):
            programs = [env.process(gen, name=f"seq{sid}.p{k}")
                        for sid in range(scenario.nshards)
                        for gen in scenario.phase(sid, k, env, ctxs[sid])]
            # Full drain IS the phase barrier (and, unlike an all_of
            # join, adds no events the sharded workers wouldn't have).
            env.run()
            for program in programs:
                if not program.triggered:
                    raise ShardError(
                        f"phase {k} drained with program {program!r} "
                        "still pending (deadlock in scenario)")
        payloads = {sid: scenario.result(sid, env, ctxs[sid])
                    for sid in range(scenario.nshards)}
        return ShardResult([{
            "shard": 0,
            "now": env.now,
            "events_processed": env.events_processed,
            "metrics": registry.snapshot() if registry is not None else None,
            "payload": payloads,
        }])

    if not getattr(scenario, "observe", False):
        return body(None)
    with obs.scoped_registry() as registry:
        return body(registry)


def merge_trace_records(per_shard: list) -> list:
    """Deterministically interleave per-shard TraceRecord lists.

    Sort key is (simulated time, shard index, per-shard emit order) —
    independent of wall-clock scheduling across workers.
    """
    tagged = []
    for si, records in enumerate(per_shard):
        tagged.extend(((rec.time, si, i), rec) for i, rec in enumerate(records))
    tagged.sort(key=lambda e: e[0])
    return [rec for _key, rec in tagged]
