"""Chain-replicated NBD block volume over MX kernel channels.

The replicated block store keeps one flat volume on a *chain* of
replicas (van Renesse & Schneider's chain replication, composed here
from the paper's in-kernel MX primitives):

* the **head** orders client writes, applies them, and forwards them
  down the chain;
* each **middle** applies and forwards;
* the **tail** is the commit point: applying a write there commits it,
  a cumulative acknowledgement flows back up, and the head answers the
  client once the write is committed;
* **reads are served by the tail only**, so a read always observes the
  committed prefix — the protocol is linearizable by construction, and
  :mod:`repro.nbd.linearize` checks the client-observed history of
  every chaos run against that claim.

Versions and watermarks
-----------------------

Every write gets a version ``(config_epoch, seq)`` at the head; versions
are totally ordered lexicographically (a new head restarts ``seq`` at 1
under its strictly larger epoch).  Each replica tracks two watermarks —
``applied`` (highest version written to its store, in order) and
``committed`` (highest version the tail has acknowledged) — plus the
ordered ``pending`` window between them.  The chain invariant is that
every replica's applied prefix contains its successor's, which is what
makes failover safe: any suffix of the chain holds every committed
write.

Reconfiguration and chain-link establishment
--------------------------------------------

The controller (:mod:`repro.nbd.control`) pushes numbered
``Configure`` messages.  On adoption a replica greets its predecessor
with ``Hello``; a predecessor forwards down a chain link only after the
successor's ``Hello`` for the current epoch arrived.  The greeting
doubles as transport-session establishment — it is the first message a
rebooted successor sends upstream, which lets the NIC reliability layer
re-establish its per-peer session (see the incarnation notes in
:mod:`repro.hw.nic`) before data flows.

A rejoining replica pulls a dirty-extent resync from the tail (blocks
whose version is newer than the joiner's durable ``committed``
watermark, plus the joiner's *suspect* blocks — blocks with writes in
flight when it crashed, whose on-disk content may be torn).  After the
pass it reports ready; the controller appends it as the new tail; the
old tail sends the delta committed since the pass (``CatchupDone``
closes it) and only then does the joiner serve reads or acknowledge the
configuration.

Everything runs on simulated time with no global randomness, so a
seeded chaos run — including every failover — replays byte-for-byte.
"""

from __future__ import annotations


from dataclasses import dataclass, field
from typing import Optional

from .. import obs
from ..cluster.node import Node
from ..core.channel import MxKernelChannel
from ..errors import MessageDropped, NetworkError, NodeCrashed
from ..mx.memtypes import MxSegment
from ..sim.trace import emit
from ..units import ms, us
from .device import BLOCK_SIZE

#: Version of the never-written block / empty history.
V0 = (0, 0)
ZERO_BLOCK = bytes(BLOCK_SIZE)

#: Wire size of a control message (headers ride as out-of-band meta,
#: like ORFA's request/reply structs).
CTRL_BYTES = 64
#: Per-message server-side handling cost (dispatch + state update).
REPLICA_OP_NS = 600


def encode_value(token: int) -> bytes:
    """One device block carrying ``token`` (repeated, so any 8-byte
    aligned slice identifies the write that produced the block)."""
    return token.to_bytes(8, "little") * (BLOCK_SIZE // 8)


def decode_value(payload: bytes) -> int:
    """Token of the write that produced ``payload`` (0 = never written)."""
    if not payload:
        return 0
    return int.from_bytes(payload[:8], "little")


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainConfig:
    """One numbered chain configuration (head first, tail last)."""

    epoch: int
    chain: tuple[int, ...]
    joined: int = -1  # node this config appended (still catching up), -1 none

    @property
    def head(self) -> int:
        return self.chain[0]

    @property
    def tail(self) -> int:
        return self.chain[-1]

    def successor(self, node: int) -> Optional[int]:
        idx = self.chain.index(node)
        return self.chain[idx + 1] if idx + 1 < len(self.chain) else None

    def predecessor(self, node: int) -> Optional[int]:
        idx = self.chain.index(node)
        return self.chain[idx - 1] if idx > 0 else None


# -- client <-> chain ---------------------------------------------------------


@dataclass
class WriteReq:
    """Client write; the block payload rides on the wire."""

    req_id: int
    client: tuple[int, int]  # (node, port) to answer
    block: int


@dataclass
class WriteReply:
    req_id: int
    status: str  # "ok" | "wrong_config"
    config: Optional[ChainConfig] = None


@dataclass
class ReadReq:
    req_id: int
    client: tuple[int, int]
    block: int
    cfg_epoch: int  # client's view; the tail rejects mismatches


@dataclass
class ReadReply:
    """Status reply; on "ok" the block payload rides on the wire."""

    req_id: int
    status: str  # "ok" | "wrong_config" | "retry"
    config: Optional[ChainConfig] = None


@dataclass
class GetConfig:
    client: tuple[int, int]


@dataclass
class ConfigReply:
    config: ChainConfig


# -- intra-chain --------------------------------------------------------------


@dataclass
class Hello:
    """Chain-link establishment: successor -> predecessor on adoption."""

    cfg_epoch: int
    node: int


@dataclass
class WriteFwd:
    """Down-chain forward; the block payload rides on the wire."""

    version: tuple[int, int]
    req_id: int
    client: tuple[int, int]
    block: int


@dataclass
class WriteAck:
    """Cumulative up-chain acknowledgement: everything <= version is
    committed at the sender."""

    version: tuple[int, int]


# -- controller traffic -------------------------------------------------------


@dataclass
class Heartbeat:
    node: int


@dataclass
class PeerDead:
    """Fast-path death report: the fabric declared ``peer`` unreachable."""

    reporter: int
    peer: int


@dataclass
class Configure:
    config: ChainConfig


@dataclass
class ConfigAck:
    node: int
    epoch: int


@dataclass
class JoinReq:
    """A rebooted replica asks to rejoin, naming its durable committed
    watermark and the blocks whose content it cannot trust."""

    node: int
    committed: tuple[int, int]
    suspect: tuple[int, ...]


@dataclass
class SyncFrom:
    """Controller -> joiner: pull your resync from this tail."""

    tail: int
    cfg_epoch: int


@dataclass
class SyncPull:
    """Joiner -> tail: stream me every block newer than ``since`` plus
    my suspect blocks."""

    node: int
    since: tuple[int, int]
    suspect: tuple[int, ...]


@dataclass
class SyncBlock:
    """One resynced block; the payload rides on the wire."""

    block: int
    version: tuple[int, int]


@dataclass
class SyncDone:
    """End of a resync pass; ``mark`` is the tail's committed watermark
    the pass covered up to."""

    mark: tuple[int, int]


@dataclass
class JoinReady:
    """Joiner -> controller: resync pass done, append me."""

    node: int
    mark: tuple[int, int]


@dataclass
class CatchupDone:
    """Old tail -> new tail: the post-resync delta is fully sent;
    everything <= ``upto`` is committed."""

    upto: tuple[int, int]


#: Message types whose block payload travels as real wire bytes.
PAYLOAD_TYPES = (WriteReq, WriteFwd, ReadReply, SyncBlock)


# ---------------------------------------------------------------------------
# Tuning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicaParams:
    """Failure-detection and retry tuning for the replicated volume."""

    heartbeat_ns: int = us(200)
    lease_ns: int = ms(1)
    lease_check_ns: int = us(250)
    #: Replica watchdog: re-forward the pending window (and probe the
    #: successor) when commits stall for two ticks.
    watchdog_ns: int = us(250)
    client_timeout_ns: int = us(800)
    client_retries: int = 12
    #: Allowance on top of the lease for reconfiguration + resync; the
    #: chaos suite asserts every failover fits lease_ns + resync_bound_ns.
    resync_bound_ns: int = ms(2)
    #: Joining is restarted if no progress for this many lease periods.
    join_retry_leases: int = 4


# ---------------------------------------------------------------------------
# Transport: a posted-receive ring over one MX kernel channel
# ---------------------------------------------------------------------------


class Inbox:
    """Actor-style endpoint: a ring of wildcard kernel receives plus a
    rotating transmit pool.

    Protocol headers ride as out-of-band ``meta`` (the ORFA convention);
    block payloads are real wire bytes read back from the ring slot, so
    a 4 KiB replica write pays the genuine medium-message cost on every
    hop.  Transmit buffers rotate without waiting: medium sends are
    buffered at the NIC and in-flight payloads survive reuse via the
    copy-on-write frame machinery.
    """

    SLOT_BYTES = BLOCK_SIZE + 256

    def __init__(self, node: Node, endpoint_id: int,
                 ring_slots: int = 16, tx_slots: int = 8):
        self.node = node
        self.endpoint_id = endpoint_id
        self.channel = MxKernelChannel(node, endpoint_id)
        self._slots = [node.kspace.kmalloc(self.SLOT_BYTES)
                       for _ in range(ring_slots)]
        self._recvs: list = [None] * ring_slots
        self._tx = [node.kspace.kmalloc(self.SLOT_BYTES)
                    for _ in range(tx_slots)]
        self._tx_next = 0

    def setup(self):
        """Generator: post the receive ring."""
        for i, slot in enumerate(self._slots):
            self._recvs[i] = yield from self.channel.post_recv(
                [MxSegment.kernel(slot.vaddr, self.SLOT_BYTES)], match=0
            )

    def recv(self):
        """Generator: next message as ``(meta, payload, src_node)``."""
        handle, comp = yield from self.channel.wait_any_recv(self._recvs)
        idx = self._recvs.index(handle)
        payload = b""
        if isinstance(comp.meta, PAYLOAD_TYPES) and comp.size:
            payload = self.node.kspace.read_bytes(
                self._slots[idx].vaddr, min(comp.size, BLOCK_SIZE)
            )
        self._recvs[idx] = yield from self.channel.post_recv(
            [MxSegment.kernel(self._slots[idx].vaddr, self.SLOT_BYTES)],
            match=0,
        )
        return comp.meta, payload, comp.src_node

    def send(self, dst: tuple[int, int], meta, payload: bytes = b""):
        """Generator: one message to ``(node, port)``; payload bytes (if
        any) travel on the wire, the header rides as meta."""
        buf = self._tx[self._tx_next]
        self._tx_next = (self._tx_next + 1) % len(self._tx)
        if payload:
            self.node.kspace.write_bytes(buf.vaddr, payload)
            size = len(payload)
        else:
            size = CTRL_BYTES
        yield from self.channel.send(
            dst[0], dst[1], [MxSegment.kernel(buf.vaddr, size)],
            match=0, meta=meta,
        )


# ---------------------------------------------------------------------------
# The replica
# ---------------------------------------------------------------------------


@dataclass
class PendingWrite:
    """One applied-but-uncommitted write in the chain window."""

    req_id: int
    client: tuple[int, int]
    block: int
    payload: bytes
    reply_to: Optional[tuple[int, int]] = None


class ReplicaServer:
    """One chain replica: head, middle, or tail — the role is whatever
    the current configuration says.

    The block store and per-block version metadata model the on-disk
    state (they survive a node crash); ``pending``, the dedup map and
    the adopted configuration model RAM and are lost.  The set of
    blocks with in-flight writes at crash time survives as ``suspect``
    — the journal every real block store keeps so a rejoin knows which
    extents may hold torn writes.
    """

    def __init__(self, node: Node, endpoint_id: int,
                 controller: tuple[int, int],
                 params: ReplicaParams = ReplicaParams(),
                 device_blocks: int = 64):
        self.node = node
        self.env = node.env
        self.me = node.node_id
        self.peer_port = endpoint_id
        self.controller = controller
        self.params = params
        self.device_blocks = device_blocks
        self.inbox = Inbox(node, endpoint_id)
        # -- durable state (survives crashes) --
        self.store: dict[int, bytes] = {}
        self.versions: dict[int, tuple[int, int]] = {}
        self.committed: tuple[int, int] = V0
        self.suspect: set[int] = set()
        # -- volatile state (lost on crash) --
        self.applied: tuple[int, int] = V0
        self.pending: dict[tuple[int, int], PendingWrite] = {}
        self.completed: dict[int, tuple[int, int]] = {}
        self.config = ChainConfig(0, ())
        self.caught_up = True
        self.detached = False
        self.greeted: dict[int, int] = {}  # node -> last Hello cfg epoch
        self.next_seq = 1
        self.sync_mark: dict[int, tuple[int, int]] = {}
        self._future: list[tuple[WriteFwd, bytes, int]] = []
        self._defer_ack_epoch = 0
        self._crashed_seen = False
        self._ready = self.env.event(f"replica{self.me}.ready")
        self._m_writes = obs.counter("nbd.replica.writes", node=self.me)
        self._m_reads = obs.counter("nbd.replica.reads", node=self.me)
        self._m_fwds = obs.counter("nbd.replica.forwards", node=self.me)
        self._m_reforwards = obs.counter("nbd.replica.reforwards", node=self.me)

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Start the replica; the returned event fires once the receive
        ring is posted."""
        self.env.process(self._serve(), name=f"replica{self.me}.serve")
        self.env.process(self._heartbeat_loop(), name=f"replica{self.me}.hb")
        self.env.process(self._watchdog(), name=f"replica{self.me}.dog")
        return self._ready

    # -- main loop -----------------------------------------------------------

    def _serve(self):
        yield from self.inbox.setup()
        self._ready.succeed(None)
        while True:
            meta, payload, src = yield from self.inbox.recv()
            yield from self.node.cpu.work(REPLICA_OP_NS)
            try:
                yield from self._dispatch(meta, payload, src)
            except NodeCrashed:
                continue  # we crashed mid-handler; reboot logic takes over
            except NetworkError:
                continue  # a send inside the handler failed; watchdog recovers

    def _dispatch(self, meta, payload: bytes, src: int):
        if isinstance(meta, WriteReq):
            yield from self._h_write_req(meta, payload)
        elif isinstance(meta, WriteFwd):
            yield from self._h_write_fwd(meta, payload, src)
        elif isinstance(meta, WriteAck):
            yield from self._h_write_ack(meta, src)
        elif isinstance(meta, ReadReq):
            yield from self._h_read_req(meta)
        elif isinstance(meta, Hello):
            yield from self._h_hello(meta)
        elif isinstance(meta, Configure):
            yield from self._h_configure(meta)
        elif isinstance(meta, SyncFrom):
            yield from self._h_sync_from(meta)
        elif isinstance(meta, SyncPull):
            yield from self._h_sync_pull(meta)
        elif isinstance(meta, SyncBlock):
            self._h_sync_block(meta, payload)
        elif isinstance(meta, SyncDone):
            yield from self._h_sync_done(meta)
        elif isinstance(meta, CatchupDone):
            yield from self._h_catchup_done(meta)
        # anything else (e.g. stray client traffic) is dropped

    # -- role helpers --------------------------------------------------------

    def _in_chain(self) -> bool:
        return bool(self.config.chain) and self.me in self.config.chain

    def _apply(self, block: int, payload: bytes, version: tuple[int, int]):
        self.store[block] = payload
        self.versions[block] = version
        if version > self.applied:
            self.applied = version

    def _commit_up_to(self, version: tuple[int, int]):
        """Pop the pending window up to ``version``; the head answers
        clients for every write that just committed."""
        if version > self.committed:
            self.committed = version
        replies = []
        for v in sorted(self.pending):
            if v > version:
                break
            pw = self.pending.pop(v)
            if pw.reply_to is not None:
                replies.append(pw)
        return replies

    def _send_quiet(self, dst: tuple[int, int], meta, payload: bytes = b""):
        """Generator: send, swallowing fabric errors (callers that need
        the failure signal use inbox.send directly)."""
        try:
            yield from self.inbox.send(dst, meta, payload)
        except NodeCrashed:
            raise
        except NetworkError:
            pass

    def _report_peer_dead(self, peer: int):
        obs.counter("nbd.replica.peer_reports", node=self.me).inc()
        emit(self.env, "replica", "peer_dead",
             {"reporter": self.me, "peer": peer})
        yield from self._send_quiet(self.controller,
                                    PeerDead(self.me, peer))

    def _forward(self, version: tuple[int, int]):
        """Generator: forward one pending write to the successor (if the
        chain link is established)."""
        cfg = self.config
        succ = cfg.successor(self.me)
        if succ is None or self.greeted.get(succ, -1) < cfg.epoch:
            return  # link not established yet; Hello will re-forward
        pw = self.pending.get(version)
        if pw is None:
            return
        self._m_fwds.inc()
        try:
            yield from self.inbox.send(
                (succ, self.peer_port),
                WriteFwd(version, pw.req_id, pw.client, pw.block),
                pw.payload,
            )
        except NodeCrashed:
            raise
        except MessageDropped:
            yield from self._report_peer_dead(succ)
        except NetworkError:
            pass

    def _reforward_all(self):
        """Generator: (re)send the whole pending window, in version
        order — on link establishment and on watchdog stalls."""
        for version in sorted(self.pending):
            yield from self._forward(version)

    def _ack_upstream(self):
        cfg = self.config
        pred = cfg.predecessor(self.me)
        if pred is None:
            return
        yield from self._send_quiet((pred, self.peer_port),
                                    WriteAck(self.committed))

    def _reply_commits(self, replies):
        for pw in replies:
            yield from self._send_quiet(pw.reply_to,
                                        WriteReply(pw.req_id, "ok"))

    # -- write path ----------------------------------------------------------

    def _h_write_req(self, m: WriteReq, payload: bytes):
        cfg = self.config
        if (not self._in_chain() or cfg.head != self.me
                or not self.caught_up or self.detached):
            yield from self._send_quiet(
                m.client, WriteReply(m.req_id, "wrong_config", self.config))
            return
        known = self.completed.get(m.req_id)
        if known is not None:
            # Client retry of a write we already ordered.
            if known <= self.committed:
                yield from self._send_quiet(m.client,
                                            WriteReply(m.req_id, "ok"))
            elif known in self.pending:
                self.pending[known].reply_to = m.client
            return
        version = (cfg.epoch, self.next_seq)
        self.next_seq += 1
        self._m_writes.inc()
        self._apply(m.block, payload, version)
        self.completed[m.req_id] = version
        self.pending[version] = PendingWrite(
            req_id=m.req_id, client=m.client, block=m.block,
            payload=payload, reply_to=m.client,
        )
        if len(cfg.chain) == 1:
            replies = self._commit_up_to(version)
            yield from self._reply_commits(replies)
        else:
            yield from self._forward(version)

    def _h_write_fwd(self, m: WriteFwd, payload: bytes, src: int):
        cfg = self.config
        if m.version[0] > cfg.epoch:
            # A configuration newer than ours ordered this; hold it
            # until the Configure arrives.
            self._future.append((m, payload, src))
            return
        if not self._in_chain() or cfg.predecessor(self.me) != src:
            return  # stale sender (pre-reconfiguration leftover)
        if m.version <= self.applied:
            # Duplicate (watchdog re-forward): remind upstream what we
            # have committed so its window drains.
            yield from self._ack_upstream()
            return
        self._apply(m.block, payload, m.version)
        self.completed[m.req_id] = m.version
        self.pending[m.version] = PendingWrite(
            req_id=m.req_id, client=m.client, block=m.block, payload=payload,
        )
        if cfg.tail == self.me:
            # Tail: the commit point.
            self._commit_up_to(m.version)
            yield from self._ack_upstream()
        else:
            yield from self._forward(m.version)

    def _h_write_ack(self, m: WriteAck, src: int):
        cfg = self.config
        if not self._in_chain() or cfg.successor(self.me) != src:
            return
        if m.version <= self.committed:
            return
        replies = self._commit_up_to(m.version)
        yield from self._reply_commits(replies)
        if cfg.head != self.me:
            yield from self._ack_upstream()

    # -- read path -----------------------------------------------------------

    def _h_read_req(self, m: ReadReq):
        cfg = self.config
        if (not self._in_chain() or cfg.tail != self.me
                or m.cfg_epoch != cfg.epoch or self.detached):
            yield from self._send_quiet(
                m.client, ReadReply(m.req_id, "wrong_config", self.config))
            return
        if not self.caught_up:
            yield from self._send_quiet(m.client,
                                        ReadReply(m.req_id, "retry"))
            return
        self._m_reads.inc()
        payload = self.store.get(m.block, ZERO_BLOCK)
        yield from self._send_quiet(m.client, ReadReply(m.req_id, "ok"),
                                    payload)

    # -- configuration -------------------------------------------------------

    def _h_configure(self, m: Configure):
        cfg = m.config
        if cfg.epoch <= self.config.epoch:
            if self._in_chain() and self._defer_ack_epoch != self.config.epoch:
                yield from self._send_quiet(self.controller,
                                            ConfigAck(self.me, cfg.epoch))
            return
        self.config = cfg
        emit(self.env, "replica", "configure",
             {"node": self.me, "epoch": cfg.epoch, "chain": list(cfg.chain)})
        if self.me not in cfg.chain:
            # Evicted (a false-positive death, or we were already
            # detached): stop serving; the heartbeat loop rejoins.
            self.detached = True
            self.caught_up = False
            return
        self.detached = False
        if self.me == cfg.head:
            self.next_seq = 1
            # Writes stranded mid-chain by the old head's death are now
            # ours to answer once they commit.
            for pw in self.pending.values():
                if pw.reply_to is None:
                    pw.reply_to = pw.client
        pred = cfg.predecessor(self.me)
        if pred is not None:
            # Greet upstream: establishes the chain link (and, after a
            # reboot, the transport session) before data flows.
            yield from self._send_quiet((pred, self.peer_port),
                                        Hello(cfg.epoch, self.me))
        if cfg.tail == self.me and self.caught_up:
            # Tail promotion: the whole applied window commits.
            replies = self._commit_up_to(self.applied)
            yield from self._reply_commits(replies)
            yield from self._ack_upstream()
        succ = cfg.successor(self.me)
        if succ is not None and self.greeted.get(succ, -1) >= cfg.epoch:
            yield from self._reforward_all()
        if self._future:
            ready = [f for f in self._future if f[0].version[0] <= cfg.epoch]
            self._future = [f for f in self._future
                            if f[0].version[0] > cfg.epoch]
            for fwd, payload, src in ready:
                yield from self._h_write_fwd(fwd, payload, src)
        if self.me == cfg.joined and not self.caught_up:
            self._defer_ack_epoch = cfg.epoch  # ack after CatchupDone
        else:
            self.caught_up = True
            yield from self._send_quiet(self.controller,
                                        ConfigAck(self.me, cfg.epoch))

    def _h_hello(self, m: Hello):
        prev = self.greeted.get(m.node, -1)
        self.greeted[m.node] = max(prev, m.cfg_epoch)
        cfg = self.config
        if not self._in_chain() or cfg.successor(self.me) != m.node:
            return
        if self.greeted[m.node] < cfg.epoch:
            return
        if cfg.joined == m.node and m.node in self.sync_mark:
            yield from self._send_catchup(m.node)
        yield from self._reforward_all()

    # -- resync --------------------------------------------------------------

    def _h_sync_from(self, m: SyncFrom):
        # We are the joiner: pull our delta from the tail.
        yield from self._send_quiet(
            (m.tail, self.peer_port),
            SyncPull(self.me, self.committed, tuple(sorted(self.suspect))),
        )

    def _h_sync_pull(self, m: SyncPull):
        # We are the tail: stream the dirty extents.  At a tail,
        # applied == committed, so every version we hold is committed.
        suspect = set(m.suspect)
        sent = 0
        for block in sorted(set(self.versions) | suspect):
            version = self.versions.get(block, V0)
            if version > m.since or block in suspect:
                yield from self._send_quiet(
                    (m.node, self.peer_port),
                    SyncBlock(block, version),
                    self.store.get(block, ZERO_BLOCK),
                )
                sent += 1
        obs.counter("nbd.replica.resync_blocks", node=self.me).inc(sent)
        emit(self.env, "replica", "resync_pass",
             {"tail": self.me, "to": m.node, "blocks": sent})
        self.sync_mark[m.node] = self.committed
        yield from self._send_quiet((m.node, self.peer_port),
                                    SyncDone(self.committed))

    def _h_sync_block(self, m: SyncBlock, payload: bytes):
        if m.version >= self.versions.get(m.block, V0):
            self.store[m.block] = payload
            self.versions[m.block] = m.version
            self.suspect.discard(m.block)

    def _h_sync_done(self, m: SyncDone):
        if m.mark > self.applied:
            self.applied = m.mark
        if m.mark > self.committed:
            self.committed = m.mark
        self.suspect.clear()
        yield from self._send_quiet(self.controller,
                                    JoinReady(self.me, m.mark))

    def _send_catchup(self, joiner: int):
        """Generator: old tail -> new tail, the delta committed since
        the resync pass; pending writes follow as ordinary forwards."""
        mark = self.sync_mark.pop(joiner)
        sent = 0
        for block in sorted(self.versions):
            version = self.versions[block]
            if mark < version <= self.committed:
                yield from self._send_quiet(
                    (joiner, self.peer_port), SyncBlock(block, version),
                    self.store.get(block, ZERO_BLOCK),
                )
                sent += 1
        obs.counter("nbd.replica.catchup_blocks", node=self.me).inc(sent)
        yield from self._send_quiet((joiner, self.peer_port),
                                    CatchupDone(self.committed))

    def _h_catchup_done(self, m: CatchupDone):
        if m.upto > self.applied:
            self.applied = m.upto
        if m.upto > self.committed:
            self.committed = m.upto
        self.caught_up = True
        emit(self.env, "replica", "caught_up",
             {"node": self.me, "epoch": self.config.epoch})
        if self._defer_ack_epoch:
            epoch, self._defer_ack_epoch = self._defer_ack_epoch, 0
            yield from self._send_quiet(self.controller,
                                        ConfigAck(self.me, epoch))
        # A tail that caught up commits anything the delta left pending.
        if self._in_chain() and self.config.tail == self.me:
            self._commit_up_to(self.applied)
            yield from self._ack_upstream()

    # -- failure handling ----------------------------------------------------

    def _on_crash(self):
        """RAM is gone; the journal keeps the suspect-extent set."""
        self._crashed_seen = True
        self.suspect |= {pw.block for pw in self.pending.values()}
        self.pending.clear()
        self.completed.clear()
        self.greeted.clear()
        self._future.clear()
        self.sync_mark.clear()
        self._defer_ack_epoch = 0
        self.config = ChainConfig(0, ())
        self.caught_up = False
        self.detached = True
        self.applied = self.committed
        emit(self.env, "replica", "crash_detected",
             {"node": self.me, "suspect": sorted(self.suspect)})

    def _on_reboot(self):
        """Back up: distrust every suspect extent before resyncing."""
        for block in self.suspect:
            self.store.pop(block, None)
            self.versions.pop(block, None)
        obs.counter("nbd.replica.reboots", node=self.me).inc()
        emit(self.env, "replica", "reboot", {"node": self.me})

    def _heartbeat_loop(self):
        params = self.params
        while True:
            yield self.env.timeout(params.heartbeat_ns)
            if self.node.nic.crashed:
                self._on_crash()
                while self.node.nic.crashed:
                    yield self.env.timeout(params.heartbeat_ns)
                self._on_reboot()
                continue
            if self.detached and self._in_chain() is False:
                # Not a member: ask to rejoin instead of heartbeating.
                try:
                    yield from self.inbox.send(
                        self.controller,
                        JoinReq(self.me, self.committed,
                                tuple(sorted(self.suspect))),
                    )
                except NodeCrashed:
                    continue
                except NetworkError:
                    pass
                yield self.env.timeout(params.lease_ns - params.heartbeat_ns)
                continue
            try:
                yield from self.inbox.send(self.controller,
                                           Heartbeat(self.me))
            except NodeCrashed:
                continue
            except NetworkError:
                continue

    def _watchdog(self):
        """Re-forward the pending window when commits stall — heals
        forwards lost to NIC resets — and report a successor the fabric
        declared dead."""
        last_committed = self.committed
        stalled = 0
        while True:
            yield self.env.timeout(self.params.watchdog_ns)
            if (self.node.nic.crashed or self.detached
                    or not self._in_chain() or not self.pending):
                stalled = 0
                continue
            if self.committed > last_committed:
                last_committed = self.committed
                stalled = 0
                continue
            stalled += 1
            if stalled < 2:
                continue
            stalled = 0
            self._m_reforwards.inc()
            try:
                if len(self.config.chain) == 1:
                    replies = self._commit_up_to(self.applied)
                    yield from self._reply_commits(replies)
                else:
                    yield from self._reforward_all()
            except NodeCrashed:
                continue
