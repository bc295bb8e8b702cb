"""Deterministic cluster controller for the replicated NBD volume.

The controller is the configuration service of :mod:`repro.nbd.replica`:
it owns the numbered chain configuration, detects replica death, and
orchestrates rejoin.  Two detection paths feed it:

* **lease timeouts** — every replica heartbeats; a member whose lease
  expires is declared dead (covers silent crashes and partitions);
* **dead-peer reports** — when a replica's forward hits the NIC
  reliability layer's retransmission give-up (:class:`repro.errors.
  MessageDropped`), it reports the successor immediately, so the common
  crash failover completes in transmission-error time rather than a
  full lease period (the fabric's dead-peer signal doing the job the
  paper assigns to hardware-level error reporting).

Reconfiguration protocol: bump the epoch, push ``Configure`` to every
member, and collect ``ConfigAck``.  Only once *all* members acked is
the configuration *published* — pushed to registered clients and
returned from ``GetConfig`` — which keeps the invariant that a client's
epoch never runs ahead of any replica's, so the tail-read epoch check
in the replica stays sound.  A joining replica withholds its ack until
its catch-up delta is applied, so publication also implies the new tail
is readable.

Failover and resync times are first-class :mod:`repro.obs` metrics
(``nbd.replica.failover_ns``, ``nbd.replica.resync_ns``) and are kept
as plain records on the controller for the bench driver's tables.
Everything is driven by simulated time; a seeded run reproduces the
same reconfiguration history byte-for-byte.
"""

from __future__ import annotations

from .. import obs
from ..cluster.node import Node
from ..errors import NetworkError, NodeCrashed
from ..sim.trace import emit
from .replica import (
    ChainConfig,
    ConfigAck,
    Configure,
    ConfigReply,
    GetConfig,
    Heartbeat,
    Inbox,
    JoinReady,
    JoinReq,
    PeerDead,
    ReplicaParams,
    SyncFrom,
)

CONTROL_OP_NS = 400


class ChainController:
    """Configuration master for one replicated volume."""

    def __init__(self, node: Node, endpoint_id: int, replicas: list[int],
                 replica_port: int, params: ReplicaParams = ReplicaParams()):
        self.node = node
        self.env = node.env
        self.me = node.node_id
        self.params = params
        self.replica_port = replica_port
        self.inbox = Inbox(node, endpoint_id)
        self.chain: list[int] = list(replicas)
        self.cfg_epoch = 0
        self.current = ChainConfig(0, ())
        #: Last fully-acknowledged configuration — the only one clients
        #: ever see.
        self.published = ChainConfig(0, ())
        self.clients: list[tuple[int, int]] = []
        self.lease: dict[int, int] = {}
        self.acked: dict[int, int] = {}
        self.joining: dict[int, int] = {}  # node -> join start time
        self._last_push = 0
        self._last_told: dict[int, int] = {}  # non-member -> epoch last sent
        #: Plain records for the bench driver's failover table.
        self.failovers: list[dict] = []
        self.resyncs: list[dict] = []
        self._open_failover: dict[int, tuple[int, str, int]] = {}
        self._ready = self.env.event(f"control{self.me}.ready")
        self._m_deaths = {}
        self._m_reconfigs = obs.counter("nbd.replica.reconfigs")

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        self.env.process(self._serve(), name=f"control{self.me}.serve")
        self.env.process(self._tick(), name=f"control{self.me}.tick")
        return self._ready

    def _serve(self):
        yield from self.inbox.setup()
        # Grace: leases start counting from the initial push.
        for n in self.chain:
            self.lease[n] = self.env.now
        yield from self._push_config(joined=-1)
        self._ready.succeed(None)
        while True:
            meta, _payload, src = yield from self.inbox.recv()
            yield from self.node.cpu.work(CONTROL_OP_NS)
            try:
                yield from self._dispatch(meta, src)
            except NodeCrashed:
                continue
            except NetworkError:
                continue

    def _dispatch(self, meta, src: int):
        if isinstance(meta, Heartbeat):
            yield from self._h_heartbeat(meta)
        elif isinstance(meta, ConfigAck):
            yield from self._h_config_ack(meta)
        elif isinstance(meta, PeerDead):
            yield from self._h_peer_dead(meta)
        elif isinstance(meta, JoinReq):
            yield from self._h_join_req(meta)
        elif isinstance(meta, JoinReady):
            yield from self._h_join_ready(meta)
        elif isinstance(meta, GetConfig):
            yield from self._h_get_config(meta)

    def _send_quiet(self, dst: tuple[int, int], meta):
        try:
            yield from self.inbox.send(dst, meta)
        except NodeCrashed:
            raise
        except NetworkError:
            pass

    # -- configuration push --------------------------------------------------

    def _push_config(self, joined: int):
        self.cfg_epoch += 1
        self.current = ChainConfig(self.cfg_epoch, tuple(self.chain), joined)
        self.acked = {}
        self._last_push = self.env.now
        self._m_reconfigs.inc()
        emit(self.env, "control", "configure", {
            "epoch": self.cfg_epoch,
            "chain": list(self.chain),
            "joined": joined,
        })
        for n in self.chain:
            yield from self._send_quiet((n, self.replica_port),
                                        Configure(self.current))

    def _repush_unacked(self):
        for n in self.chain:
            if self.acked.get(n, 0) < self.cfg_epoch:
                yield from self._send_quiet((n, self.replica_port),
                                            Configure(self.current))
        self._last_push = self.env.now

    def _h_config_ack(self, m: ConfigAck):
        if m.epoch != self.cfg_epoch:
            return
        self.acked[m.node] = max(self.acked.get(m.node, 0), m.epoch)
        if any(self.acked.get(n, 0) < self.cfg_epoch for n in self.chain):
            return
        if self.published.epoch == self.cfg_epoch:
            return  # duplicate final ack
        self.published = self.current
        emit(self.env, "control", "published",
             {"epoch": self.cfg_epoch, "chain": list(self.chain)})
        open_ = self._open_failover.pop(self.cfg_epoch, None)
        if open_ is not None:
            t0, cause, peer = open_
            span_ns = self.env.now - t0
            if cause == "rejoin":
                obs.histogram("nbd.replica.resync_ns").observe(span_ns)
                self.resyncs.append({
                    "node": peer, "start_ns": t0, "done_ns": self.env.now,
                    "epoch": self.cfg_epoch,
                })
            else:
                obs.histogram("nbd.replica.failover_ns",
                              cause=cause).observe(span_ns)
                self.failovers.append({
                    "peer": peer, "cause": cause, "detect_ns": t0,
                    "done_ns": self.env.now, "epoch": self.cfg_epoch,
                })
            emit(self.env, "control", "reconfig_done", {
                "epoch": self.cfg_epoch,
                "cause": cause,
                "peer": peer,
                "span_ns": span_ns,
            })
        for client in self.clients:
            yield from self._send_quiet(client, Configure(self.published))

    # -- failure detection ---------------------------------------------------

    def _tick(self):
        params = self.params
        while True:
            yield self.env.timeout(params.lease_check_ns)
            now = self.env.now
            for n in list(self.chain):
                if now - self.lease.get(n, now) > params.lease_ns:
                    yield from self._declare_dead(n, "lease")
            if (self.published.epoch < self.cfg_epoch
                    and now - self._last_push > params.lease_ns):
                # A Configure or ack got lost (e.g. crash window):
                # re-push to whoever has not acknowledged.
                yield from self._repush_unacked()

    def _count_death(self, cause: str):
        ctr = self._m_deaths.get(cause)
        if ctr is None:
            ctr = self._m_deaths[cause] = obs.counter(
                "nbd.replica.deaths", cause=cause)
        ctr.inc()

    def _declare_dead(self, peer: int, cause: str):
        if peer not in self.chain or len(self.chain) == 1:
            # Never shrink to an empty chain: a lone replica is kept
            # even with an expired lease (it may be partitioned, and
            # there is no data anywhere else).
            return
        self.chain.remove(peer)
        self._count_death(cause)
        emit(self.env, "control", "death", {"peer": peer, "cause": cause})
        self._open_failover[self.cfg_epoch + 1] = (self.env.now, cause, peer)
        yield from self._push_config(joined=-1)

    def _h_heartbeat(self, m: Heartbeat):
        self.lease[m.node] = self.env.now
        if m.node in self.chain or m.node in self.joining:
            return
        # A live non-member (evicted by a false positive, or rebooted):
        # tell it the published configuration once per epoch — seeing a
        # chain without itself makes it send JoinReq.
        if self._last_told.get(m.node, 0) < self.published.epoch:
            self._last_told[m.node] = self.published.epoch
            yield from self._send_quiet((m.node, self.replica_port),
                                        Configure(self.published))

    def _h_peer_dead(self, m: PeerDead):
        if m.reporter not in self.chain:
            return
        yield from self._declare_dead(m.peer, "peer")

    # -- rejoin --------------------------------------------------------------

    def _h_join_req(self, m: JoinReq):
        n = m.node
        self.lease[n] = self.env.now
        if n in self.chain:
            yield from self._send_quiet((n, self.replica_port),
                                        Configure(self.current))
            return
        started = self.joining.get(n)
        window = self.params.join_retry_leases * self.params.lease_ns
        if started is not None and self.env.now - started < window:
            return  # a resync pass is already under way
        self.joining[n] = self.env.now
        tail = self.chain[-1]
        emit(self.env, "control", "join_start",
             {"node": n, "tail": tail, "suspect": len(m.suspect)})
        yield from self._send_quiet((n, self.replica_port),
                                    SyncFrom(tail, self.cfg_epoch))

    def _h_join_ready(self, m: JoinReady):
        n = m.node
        if n in self.chain:
            return
        started = self.joining.pop(n, self.env.now)
        self.chain.append(n)
        self._open_failover[self.cfg_epoch + 1] = (started, "rejoin", n)
        emit(self.env, "control", "join_ready", {"node": n})
        self.lease[n] = self.env.now
        self._last_told.pop(n, None)
        yield from self._push_config(joined=n)

    # -- clients -------------------------------------------------------------

    def _h_get_config(self, m: GetConfig):
        if m.client not in self.clients:
            self.clients.append(m.client)
        yield from self._send_quiet(m.client, ConfigReply(self.published))
