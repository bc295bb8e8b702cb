"""The ORFA/ORFS server: a user-space process over GM or MX.

Figure 2 of the paper: the server answers protocol requests against its
local filesystem (Ext2 under the VFS there; :class:`repro.kernel.MemFs`
here — the evaluation runs warm-cache, so an in-memory store with CPU
costs preserves the measured, network-bound behaviour).

The server is written once against a small transport seam with a GM and
an MX implementation, so ORFS/GM talks to a GM server and ORFS/MX to an
MX server, as on a real Myrinet where one driver owns the NIC.

Design notes, with provenance:

* **Read replies are served zero-copy from the warm file cache.**  The
  authors' earlier ORFA server work ([GP04a], cited in section 3.1)
  already transferred file data at near-raw network throughput, which is
  only possible sending straight from the (pre-registered, on GM) page
  cache.  We model that: a reply send charges a scatter/gather setup
  cost, not a data copy.  Transmit buffers are recycled only after their
  send completes, so in-flight reply data is never overwritten.
* **Requests are bounded to one medium message** (header + at most
  :data:`MAX_WRITE_CHUNK` of write payload); clients chunk larger writes
  — the rsize/wsize convention of every remote file protocol, and what
  keeps the server's receive ring at fixed 32 kB slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..cluster.node import Node
from ..errors import FsError, ProtocolError
from ..gm.api import GmEventKind, GmPort
from ..kernel.memfs import MemFs
from ..mx.api import MxEndpoint
from ..mx.memtypes import MxSegment
from ..sim import Store
from ..units import MiB, page_align_up
from .protocol import OrfaOp, OrfaReply, OrfaRequest

#: Server-side handler overhead per request (dispatch + fs bookkeeping).
SERVER_OP_NS = 2000
#: Building the reply's scatter/gather from the warm file cache.
SERVER_SG_NS = 500
#: Receive-ring slots and transmit buffers.
RING_SLOTS = 16
TX_SLOTS = 8
#: One request message must fit a ring slot (and MX's medium class).
RING_SLOT_BYTES = 32 * 1024
#: Largest write payload per request; clients chunk beyond this.
MAX_WRITE_CHUNK = 28 * 1024
#: Largest read reply (one client request never asks for more).
MAX_READ_REPLY = MiB


@dataclass
class _Incoming:
    request: OrfaRequest
    data: object  # PayloadRef (zero-copy views of the ring slot) or b""
    src_node: int
    src_port: int


class _GmServerTransport:
    """GM user-space side: registered ring + tx pool, unified event queue."""

    def __init__(self, node: Node, port_id: int):
        self.node = node
        self.space = node.new_process_space()
        self.port = GmPort(node, port_id, self.space)
        self.cpu = node.cpu
        self._ring: list[int] = []
        self._tx: list[int] = []
        self._tx_busy: list[bool] = [False] * TX_SLOTS
        self._tx_next = 0
        self._incoming: Store = Store(node.env, "orfasrv.in")

    def setup(self):
        for i in range(RING_SLOTS):
            vaddr = self.space.mmap(RING_SLOT_BYTES, populate=True)
            yield from self.port.register(vaddr, RING_SLOT_BYTES)
            self._ring.append(vaddr)
            yield from self.port.provide_receive_buffer(
                vaddr, RING_SLOT_BYTES, match=0, tag=("ring", i)
            )
        tx_size = page_align_up(MAX_READ_REPLY + 4096)
        for _ in range(TX_SLOTS):
            vaddr = self.space.mmap(tx_size, populate=True)
            yield from self.port.register(vaddr, tx_size)
            self._tx.append(vaddr)

    def recv_request(self):
        """Generator: next incoming request (draining the event queue)."""
        while len(self._incoming) == 0:
            event = yield from self.port.receive_event(blocking=True)
            yield from self._handle_event(event)
        item = yield self._incoming.get()
        return item

    def _handle_event(self, event):
        if event.kind is GmEventKind.SENT:
            kind, idx = event.tag
            if kind != "tx":
                raise ProtocolError(f"unexpected SENT tag {event.tag!r}")
            self._tx_busy[idx] = False
            return
        if not isinstance(event.meta, OrfaRequest):
            raise ProtocolError(f"non-ORFA message: {event.meta!r}")
        kind, idx = event.tag
        # GM deposited the message into the registered ring slot; take
        # zero-copy views of it — recycling the slot below is safe
        # because the frames detach copy-on-write when rewritten.
        data = self.space.read_payload(self._ring[idx], event.size) if event.size else b""
        self._incoming.put(
            _Incoming(
                request=event.meta,
                data=data,
                src_node=event.src_node,
                src_port=event.src_port,
            )
        )
        # Recycle the ring slot.
        yield from self.port.provide_receive_buffer(
            self._ring[idx], RING_SLOT_BYTES, match=0, tag=("ring", idx)
        )

    def _take_tx(self):
        """Generator: index of a free tx buffer, draining events if all
        are in flight."""
        while True:
            for _ in range(TX_SLOTS):
                idx = self._tx_next
                self._tx_next = (self._tx_next + 1) % TX_SLOTS
                if not self._tx_busy[idx]:
                    return idx
            event = yield from self.port.receive_event(blocking=True)
            yield from self._handle_event(event)

    def send_reply(self, dst: _Incoming, reply: OrfaReply, data: bytes):
        idx = yield from self._take_tx()
        vaddr = self._tx[idx]
        yield from self.cpu.work(SERVER_SG_NS)
        if data:
            # Zero-copy from the warm file cache: the bytes appear in the
            # (pre-registered) transmit region without a CPU copy charge
            # — see the module docstring.
            self.space.write_bytes(vaddr, data)
        size = reply.data_wire_size(len(data))
        self._tx_busy[idx] = True
        yield from self.port.send(
            dst.src_node, dst.src_port, vaddr, size,
            match=reply.request_id, tag=("tx", idx), meta=reply,
        )


class _MxServerTransport:
    """MX user-space side: endpoint ring + tx pool, wait_any completion."""

    def __init__(self, node: Node, port_id: int):
        self.node = node
        self.space = node.new_process_space()
        self.endpoint = MxEndpoint(node, port_id, context="user")
        self.cpu = node.cpu
        self._ring: list[tuple[int, object]] = []  # (vaddr, posted request)
        self._tx: list[int] = []
        self._tx_reqs: list[Optional[object]] = [None] * TX_SLOTS
        self._tx_next = 0

    def setup(self):
        for i in range(RING_SLOTS):
            vaddr = self.space.mmap(RING_SLOT_BYTES, populate=True)
            req = yield from self.endpoint.irecv(
                [MxSegment.user(self.space, vaddr, RING_SLOT_BYTES)],
                match=0, tag=i,
            )
            self._ring.append((vaddr, req))
        tx_size = page_align_up(MAX_READ_REPLY + 4096)
        for _ in range(TX_SLOTS):
            vaddr = self.space.mmap(tx_size, populate=True)
            self._tx.append(vaddr)

    def recv_request(self):
        req = yield from self.endpoint.wait_any(
            [r for _, r in self._ring], blocking=True
        )
        idx = req.tag
        vaddr, _ = self._ring[idx]
        completion = req.result
        if not isinstance(completion.meta, OrfaRequest):
            raise ProtocolError(f"non-ORFA message: {completion.meta!r}")
        if completion.data is not None:
            data = completion.data
        elif completion.size:
            data = self.space.read_payload(vaddr, completion.size)
        else:
            data = b""
        incoming = _Incoming(
            request=completion.meta,
            data=data,
            src_node=completion.src_nic,
            src_port=completion.src_port,
        )
        new_req = yield from self.endpoint.irecv(
            [MxSegment.user(self.space, vaddr, RING_SLOT_BYTES)],
            match=0, tag=idx,
        )
        self._ring[idx] = (vaddr, new_req)
        return incoming

    def send_reply(self, dst: _Incoming, reply: OrfaReply, data: bytes):
        idx = self._tx_next
        self._tx_next = (self._tx_next + 1) % TX_SLOTS
        pending = self._tx_reqs[idx]
        if pending is not None and not pending.completed:
            yield from self.endpoint.wait(pending)
        vaddr = self._tx[idx]
        yield from self.cpu.work(SERVER_SG_NS)
        if data:
            # Zero-copy from the warm file cache (module docstring).
            self.space.write_bytes(vaddr, data)
        size = reply.data_wire_size(len(data))
        req = yield from self.endpoint.isend(
            dst.src_node, dst.src_port,
            [MxSegment.user(self.space, vaddr, size)],
            match=reply.request_id, meta=reply,
        )
        self._tx_reqs[idx] = req


class OrfaServer:
    """The file server process: protocol dispatch over MemFs."""

    def __init__(self, node: Node, port_id: int, api: str = "mx",
                 fs: Optional[MemFs] = None, tolerant: bool = False):
        if api not in ("gm", "mx"):
            raise ProtocolError(f"api must be 'gm' or 'mx', got {api!r}")
        self.node = node
        self.api = api
        self.fs = fs or MemFs(node.env, node.cpu)
        self.cpu = node.cpu
        #: Tolerant servers answer EIO to protocol-violating requests
        #: instead of dying — the posture for fault-injection runs.  The
        #: strict default makes protocol bugs loud in tests.
        self.tolerant = tolerant
        if api == "gm":
            self.transport = _GmServerTransport(node, port_id)
        else:
            self.transport = _MxServerTransport(node, port_id)
        # Served-request accounting on the metrics registry.
        self._m_served = obs.counter(
            "orfa.server.requests", node=node.node_id, api=api
        )

    def start(self):
        """Start the server; the returned event fires once the receive
        ring is posted (clients must wait for it)."""
        setup = self.node.env.process(self.transport.setup(), name="orfasrv.setup")
        self.node.env.process(self._serve_after(setup), name="orfasrv.loop")
        return setup

    def _serve_after(self, setup):
        if not setup.processed:
            yield setup
        while True:
            incoming = yield from self.transport.recv_request()
            yield from self._handle(incoming)

    def _handle(self, incoming: _Incoming):
        req = incoming.request
        reply = OrfaReply(request_id=req.request_id)
        data = b""
        yield from self.cpu.work(SERVER_OP_NS)
        try:
            if req.op is OrfaOp.LOOKUP:
                reply.attrs = yield from self.fs.lookup(req.inode, req.name)
            elif req.op is OrfaOp.GETATTR:
                reply.attrs = yield from self.fs.getattr(req.inode)
            elif req.op is OrfaOp.CREATE:
                reply.attrs = yield from self.fs.create(req.inode, req.name)
            elif req.op is OrfaOp.MKDIR:
                reply.attrs = yield from self.fs.mkdir(req.inode, req.name)
            elif req.op is OrfaOp.READDIR:
                reply.names = yield from self.fs.readdir(req.inode)
            elif req.op is OrfaOp.TRUNCATE:
                yield from self.fs.truncate(req.inode, req.length)
            elif req.op is OrfaOp.READ:
                if req.length > MAX_READ_REPLY:
                    raise ProtocolError(
                        f"read of {req.length} exceeds {MAX_READ_REPLY}"
                    )
                data = self.fs.read_raw(req.inode, req.offset, req.length)
                reply.count = len(data)
            elif req.op is OrfaOp.WRITE:
                payload = (incoming.data or b"")[: req.length]
                # Writes do cost a server copy: payload moves from the
                # receive ring into the file store.
                yield from self.cpu.copy(len(payload))
                reply.count = self.fs.write_raw(req.inode, req.offset, payload)
            else:  # pragma: no cover - enum is exhaustive
                raise ProtocolError(f"unknown op {req.op}")
        except FsError as exc:
            reply.status = exc.errno_name
        except ProtocolError:
            # A garbled request (e.g. truncated by an injected fault that
            # slipped past the CRC model) must not kill a tolerant server
            # loop: answer EIO and keep serving.
            if not self.tolerant:
                raise
            reply.status = "EIO"
            data = b""
        self._m_served.inc()
        if obs.metrics_enabled():
            obs.counter("orfa.server.ops", op=req.op.name.lower()).inc()
        yield from self.transport.send_reply(incoming, reply, data)
