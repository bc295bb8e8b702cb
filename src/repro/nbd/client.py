"""Client of the replicated NBD volume, with an operation history.

:class:`ReplicatedNbdDevice` is the failover-aware sibling of
:class:`repro.nbd.device.NbdDevice`: writes go to the chain head, reads
to the tail, and the device re-resolves the chain configuration from
the controller whenever a request times out, the fabric fails fast with
a dead-peer signal, or a replica answers ``wrong_config``.

Every logical operation keeps **one request id across all of its
retries**, so replicas deduplicate retried writes (at-most-once
application per id) and late replies of earlier attempts complete the
same logical operation — both facts the linearizability checker relies
on.

The device records the client-observed history — invocation time,
completion time, and value for each operation — in the exact form
:mod:`repro.nbd.linearize` consumes.  Operations that exhaust their
retry budget stay *pending* in the history (``complete is None``): the
write may or may not have taken effect, and the checker treats either
as legal.
"""

from __future__ import annotations


from dataclasses import dataclass, field
from typing import Optional

from .. import obs
from ..cluster.node import Node
from ..errors import Eio, MessageDropped, NetworkError, NodeCrashed
from ..sim.trace import emit
from .replica import (
    ChainConfig,
    ConfigReply,
    Configure,
    GetConfig,
    Inbox,
    ReadReply,
    ReadReq,
    ReplicaParams,
    WriteReply,
    WriteReq,
    decode_value,
    encode_value,
)


@dataclass
class Op:
    """One client-observed operation (the linearizability checker's
    input).  ``complete is None`` means the op never completed — its
    effect (for writes) is unknown."""

    kind: str  # "w" | "r"
    block: int
    token: int  # written value, or value observed by the read
    invoke_ns: int
    complete_ns: Optional[int] = None
    ok: bool = False
    req_id: int = 0


@dataclass
class History:
    """The per-run operation history, in invocation order."""

    ops: list[Op] = field(default_factory=list)

    def append(self, op: Op) -> Op:
        self.ops.append(op)
        return op


class ReplicatedNbdDevice:
    """Block client for a chain-replicated volume."""

    def __init__(self, node: Node, endpoint_id: int,
                 controller: tuple[int, int], replica_port: int,
                 params: ReplicaParams = ReplicaParams(),
                 history: Optional[History] = None):
        self.node = node
        self.env = node.env
        self.me = node.node_id
        self.port = endpoint_id
        self.controller = controller
        self.replica_port = replica_port
        self.params = params
        self.history = history if history is not None else History()
        self.inbox = Inbox(node, endpoint_id)
        self.config = ChainConfig(0, ())
        self._waiting: dict[int, object] = {}  # req_id -> Event
        self._cfg_waiters: list = []
        self._ready = self.env.event(f"rnbd{self.me}.ready")
        self._m_writes = obs.counter("nbd.replica.client_writes", node=self.me)
        self._m_reads = obs.counter("nbd.replica.client_reads", node=self.me)
        self._m_retry = {}
        self._m_failed = obs.counter("nbd.replica.client_failures",
                                     node=self.me)

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        self.env.process(self._pump(), name=f"rnbd{self.me}.pump")
        return self._ready

    def _retry_counter(self, why: str):
        ctr = self._m_retry.get(why)
        if ctr is None:
            ctr = self._m_retry[why] = obs.counter(
                "nbd.replica.client_retries", node=self.me, why=why)
        return ctr

    def _pump(self):
        yield from self.inbox.setup()
        self._ready.succeed(None)
        while True:
            meta, payload, _src = yield from self.inbox.recv()
            if isinstance(meta, (WriteReply, ReadReply)):
                ev = self._waiting.pop(meta.req_id, None)
                if ev is not None:
                    ev.succeed((meta, payload))
            elif isinstance(meta, (Configure, ConfigReply)):
                self._adopt(meta.config)

    def _adopt(self, config: Optional[ChainConfig]):
        if config is None:
            return
        if config.epoch > self.config.epoch:
            self.config = config
            if self.env.trace is not None:
                emit(self.env, "client", "adopt_config", {
                    "node": self.me, "epoch": config.epoch,
                    "chain": list(config.chain),
                })
        waiters, self._cfg_waiters = self._cfg_waiters, []
        for ev in waiters:
            ev.succeed(None)

    def _refresh_config(self):
        """Generator: ask the controller for the published configuration
        (bounded wait; any config arrival releases us)."""
        ev = self.env.event(f"rnbd{self.me}.cfgwait")
        self._cfg_waiters.append(ev)
        try:
            yield from self.inbox.send(self.controller,
                                       GetConfig((self.me, self.port)))
        except NodeCrashed:
            raise
        except NetworkError:
            pass
        timer = self.env.timeout(self.params.client_timeout_ns)
        yield self.env.any_of([ev, timer])
        if ev in self._cfg_waiters:
            self._cfg_waiters.remove(ev)

    # -- one attempt ---------------------------------------------------------

    def _attempt(self, dst_node: int, meta, req_id: int,
                 payload: bytes = b""):
        """Generator: send one request and wait for its reply or the
        timeout.  Returns ``(reply_meta, reply_payload)`` or ``None`` on
        timeout, and the failure kind for retry accounting."""
        ev = self.env.event(f"rnbd{self.me}.req{req_id}")
        self._waiting[req_id] = ev
        try:
            yield from self.inbox.send((dst_node, self.replica_port),
                                       meta, payload)
        except NodeCrashed:
            self._waiting.pop(req_id, None)
            raise
        except MessageDropped:
            self._waiting.pop(req_id, None)
            return None, "dead_peer"
        except NetworkError:
            self._waiting.pop(req_id, None)
            return None, "network"
        timer = self.env.timeout(self.params.client_timeout_ns)
        yield self.env.any_of([ev, timer])
        if ev.triggered:
            return ev.value, None
        self._waiting.pop(req_id, None)
        return None, "timeout"

    # -- operations ----------------------------------------------------------

    def write_block(self, block: int, token: int) -> "bool":
        """Generator: write ``token``'s block; True once committed.

        Retry policy mirrors :class:`repro.nbd.device.NbdDevice`: a
        timeout retries (the head may just be slow), a dead-peer signal
        refreshes the configuration immediately (the head is gone), and
        budget exhaustion raises :class:`Eio` with the op left pending
        in the history.
        """
        req_id = self.env.next_id("nbd.client")
        op = self.history.append(Op("w", block, token, self.env.now,
                                    req_id=req_id))
        payload = encode_value(token)
        for _attempt in range(1 + self.params.client_retries):
            cfg = self.config
            if not cfg.chain:
                yield from self._refresh_config()
                continue
            reply, why = yield from self._attempt(
                cfg.head,
                WriteReq(req_id, (self.me, self.port), block),
                req_id, payload,
            )
            if reply is None:
                self._retry_counter(why).inc()
                if why == "dead_peer":
                    yield from self._refresh_config()
                continue
            meta, _ = reply
            if meta.status == "ok":
                op.complete_ns = self.env.now
                op.ok = True
                self._m_writes.inc()
                return True
            # wrong_config: adopt whatever the replica knows, else ask.
            self._retry_counter("wrong_config").inc()
            if meta.config is not None and meta.config.epoch > cfg.epoch:
                self._adopt(meta.config)
            else:
                yield from self._refresh_config()
        self._m_failed.inc()
        raise Eio(f"replicated write block {block}: retry budget exhausted",
                  reason="timeout")

    def read_block(self, block: int) -> "int":
        """Generator: linearizable read; returns the observed token.

        Only successful reads are recorded in the history (a failed
        read observed nothing).  Budget exhaustion raises :class:`Eio`.
        """
        req_id = self.env.next_id("nbd.client")
        invoke_ns = self.env.now
        for _attempt in range(1 + self.params.client_retries):
            cfg = self.config
            if not cfg.chain:
                yield from self._refresh_config()
                continue
            reply, why = yield from self._attempt(
                cfg.tail,
                ReadReq(req_id, (self.me, self.port), block, cfg.epoch),
                req_id,
            )
            if reply is None:
                self._retry_counter(why).inc()
                if why == "dead_peer":
                    yield from self._refresh_config()
                continue
            meta, payload = reply
            if meta.status == "ok":
                token = decode_value(payload)
                self.history.append(Op("r", block, token, invoke_ns,
                                       complete_ns=self.env.now, ok=True,
                                       req_id=req_id))
                self._m_reads.inc()
                return token
            if meta.status == "retry":
                self._retry_counter("tail_catchup").inc()
                yield self.env.timeout(self.params.client_timeout_ns // 4)
                continue
            self._retry_counter("wrong_config").inc()
            if meta.config is not None and meta.config.epoch > cfg.epoch:
                self._adopt(meta.config)
            else:
                yield from self._refresh_config()
        self._m_failed.inc()
        raise Eio(f"replicated read block {block}: retry budget exhausted",
                  reason="timeout")
