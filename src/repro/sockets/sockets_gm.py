"""SOCKETS-GM: the socket protocol over GM, with its two handicaps.

Section 5.3: SOCKETS-GM "offers the same capabilities [as SOCKETS-MX]
but lacked two major skills.  Firstly, limited completion notification
mechanisms in GM require the use of an extra (dispatching) kernel
thread which increases the latency.  Secondly, memory registration
problems are similar to ORFS direct file access troubles."

Model, mechanism by mechanism:

* **Dispatch thread** — GM's unified event queue cannot wake the right
  socket sleeper, so one kernel thread per module drains the queue and
  routes completions.  Every received message therefore pays the
  thread's context switch (~4 us) plus waking the actual waiter.
  *Sends* run in the caller's context under a port lock (posting a
  descriptor needs no notification).
* **Bounce buffers** — application buffers are not registered; data is
  staged through pre-registered kernel bounce buffers.  The send-side
  copy fully precedes the DMA (GM cannot transmit from a buffer still
  being written).  The receive-side copy is packet-pipelined with the
  arriving wire data, so only the final chunk (<= 32 kB) remains on the
  critical path for large messages.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.node import Node
from ..errors import SocketError
from ..gm.api import GmEventKind
from ..gm.kernel import GmKernelPort
from ..sim import Store
from ..units import MiB
from .base import KSocket

#: match id reserved for connection requests (SYN messages)
LISTEN_MATCH = 1
_CTRL_BYTES = 16

#: dispatch-thread context switch per delivered completion
_KTHREAD_WAKE_NS = 4000
#: waking the socket sleeper once its data is ready
_WAITER_WAKE_NS = 1500
#: port spinlock around a caller-context send
_PORT_LOCK_NS = 300
#: receive copy is pipelined with packet arrival beyond this chunk
_RECV_COPY_PIPELINE_CHUNK = 32 * 1024

#: bounce pool geometry
_TX_SLOTS = 4
_RX_SLOTS = 4
MAX_SOCK_MSG = MiB


class SocketsGmModule:
    """The sockets-GM protocol module of one node."""

    def __init__(self, node: Node, port_id: int):
        self.node = node
        self.port_id = port_id
        self.port = GmKernelPort(node, port_id)
        self.cpu = node.cpu
        self.env = node.env
        self._tx = []  # (alloc, busy)
        self._rx = []  # allocs; free-list indexes
        self._rx_free: list[int] = []
        self._rx_waiters: Store = Store(node.env, "sockgm.rxfree")
        self._pending: dict[int, object] = {}  # match -> waiter event
        self._accept_queue: Store = Store(node.env, "sockgm.accept")
        self._listening = False
        self._ready = node.env.process(self._setup(), name="sockgm.setup")
        node.env.process(self._dispatch_thread(), name="sockgm.dispatch")

    @property
    def ready(self):
        """Event firing once the bounce pools are registered."""
        return self._ready

    def _setup(self):
        for _ in range(_TX_SLOTS):
            alloc = self.node.kspace.vmalloc(MAX_SOCK_MSG + 4096)
            yield from self.port.register_kernel(alloc.vaddr, MAX_SOCK_MSG + 4096)
            self._tx.append([alloc, False])
        for i in range(_RX_SLOTS):
            alloc = self.node.kspace.vmalloc(MAX_SOCK_MSG + 4096)
            yield from self.port.register_kernel(alloc.vaddr, MAX_SOCK_MSG + 4096)
            self._rx.append(alloc)
            self._rx_free.append(i)

    # -- the dispatch kernel thread ----------------------------------------------

    def _dispatch_thread(self):
        """Drain GM's unified event queue; every completion costs the
        thread's context switch before it reaches anyone."""
        if not self._ready.processed:
            yield self._ready
        while True:
            event = yield from self.port.receive_event()
            yield from self.cpu.work(_KTHREAD_WAKE_NS)
            if event.kind is GmEventKind.SENT:
                kind, idx = event.tag
                if kind != "tx":
                    raise SocketError(f"unexpected SENT tag {event.tag!r}")
                self._tx[idx][1] = False
                continue
            waiter = self._pending.pop(event.match, None)
            if waiter is None:
                raise SocketError(f"message for unknown match {event.match}")
            yield from self.cpu.work(_WAITER_WAKE_NS)
            waiter.succeed(event)

    def _await_match(self, match: int):
        """Register interest in the next message with ``match``; returns
        the event the dispatch thread will fire."""
        if match in self._pending:
            raise SocketError(f"match {match} already awaited")
        ev = self.env.event(f"sockgm.m{match}")
        self._pending[match] = ev
        return ev

    # -- bounce pools -------------------------------------------------------------

    def _take_tx(self):
        """Generator: a free tx slot (they recycle on SENT events)."""
        while True:
            for idx, slot in enumerate(self._tx):
                if not slot[1]:
                    slot[1] = True
                    return idx
            # All four in flight: wait a beat for SENT processing.
            yield self.env.timeout(1000)

    def _take_rx(self):
        if self._rx_free:
            return self._rx_free.pop()
        return None

    # -- connection management -------------------------------------------------------

    def listen(self):
        """Generator: start accepting connections."""
        if self._listening:
            raise SocketError("already listening")
        self._listening = True
        if not self._ready.processed:
            yield self._ready
        self.env.process(self._listener(), name="sockgm.listen")

    def _listener(self):
        while True:
            rx = yield from self._post_ctrl_recv(LISTEN_MATCH)
            event = yield rx
            syn = event.meta
            if not (isinstance(syn, tuple) and syn[0] == "syn"):
                raise SocketError(f"bad connection request: {syn!r}")
            _, conn_id, client_node, client_port = syn
            sock = KSocket(self, conn_id, client_node, client_port)
            yield from self._ctrl_send(client_node, client_port, conn_id,
                                       ("ack", conn_id))
            self._accept_queue.put(sock)

    def accept(self):
        """Generator: next accepted socket."""
        sock = yield self._accept_queue.get()
        return sock

    def connect(self, server_node: int, server_port: int):
        """Generator: open a connection to a listening peer module."""
        if not self._ready.processed:
            yield self._ready
        conn_id = self.env.next_id("sockets")
        ack = yield from self._post_ctrl_recv(conn_id)
        yield from self._ctrl_send(server_node, server_port, LISTEN_MATCH,
                                   ("syn", conn_id, self.node.node_id,
                                    self.port_id))
        event = yield ack
        if event.meta != ("ack", conn_id):
            raise SocketError(f"bad connection ack: {event.meta!r}")
        return KSocket(self, conn_id, server_node, server_port)

    def _post_ctrl_recv(self, match: int):
        idx = self._take_rx()
        if idx is None:
            raise SocketError("rx bounce pool exhausted")
        waiter = self._await_match(match)
        alloc = self._rx[idx]
        yield from self.port.provide_receive_buffer(
            alloc.vaddr, _CTRL_BYTES + 64, match=match, tag=("rx", idx)
        )
        waiter.add_callback(lambda ev: self._rx_free.append(idx))
        return waiter

    def _ctrl_send(self, dst_node: int, dst_port: int, match: int, meta):
        idx = yield from self._take_tx()
        alloc = self._tx[idx][0]
        yield from self.cpu.work(_PORT_LOCK_NS)
        yield from self.port.send(
            dst_node, dst_port, alloc.vaddr, _CTRL_BYTES, match=match,
            tag=("tx", idx), meta=meta,
        )

    # -- the data path ------------------------------------------------------------------

    def protocol_send(self, sock: KSocket, space, vaddr: int, length: int):
        """Copy into a registered bounce buffer, then gm_send from it —
        the registration handicap in action."""
        if length > MAX_SOCK_MSG:
            raise SocketError(f"message of {length} exceeds {MAX_SOCK_MSG}")
        idx = yield from self._take_tx()
        alloc = self._tx[idx][0]
        # The modeled bounce copy is charged as before; the host relays
        # page views user->kernel without an intermediate bytes object.
        yield from self.cpu.copy(length)
        self.node.kspace.write_payload(alloc.vaddr, space.read_payload(vaddr, length))
        yield from self.cpu.work(_PORT_LOCK_NS)
        yield from self.port.send(
            sock.peer_node, sock.peer_port, alloc.vaddr, length,
            match=sock.conn_id, tag=("tx", idx),
        )

    def protocol_recv(self, sock: KSocket, space, vaddr: int, length: int):
        """Post a registered bounce, sleep, and let the dispatch thread
        wake us; copy the (packet-pipelined) tail to the user buffer."""
        idx = self._take_rx()
        if idx is None:
            raise SocketError("rx bounce pool exhausted")
        alloc = self._rx[idx]
        waiter = self._await_match(sock.conn_id)
        yield from self.port.provide_receive_buffer(
            alloc.vaddr, min(max(length, 64), MAX_SOCK_MSG), match=sock.conn_id,
            tag=("rx", idx),
        )
        event = yield waiter
        if event.size > length:
            self._rx_free.append(idx)
            raise SocketError(
                f"message of {event.size} bytes arrived for a "
                f"{length}-byte recv"
            )
        # The copy out of the bounce overlaps packet arrival; only the
        # final chunk remains on the critical path.
        tail = min(event.size, _RECV_COPY_PIPELINE_CHUNK)
        yield from self.cpu.resource.acquire(self.cpu.copy_time_ns(tail))
        space.write_payload(vaddr, self.node.kspace.read_payload(alloc.vaddr, event.size))
        self._rx_free.append(idx)
        return event.size
