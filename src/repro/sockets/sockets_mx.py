"""SOCKETS-MX: the socket protocol over the MX kernel interface.

"With the fully asynchronous send functions in MX the overhead is
significantly lower than when the full TCP/IP stack needs to be
traversed" (section 5.3).  The measured result this module reproduces:
5 us one-way for 1-byte messages — "only a 1 us overhead over raw MX
latency ... very good since a system call is involved (about 400 ns)".

One MX kernel endpoint per node serves every socket; connections are
demultiplexed by match id.  Data moves as user-virtual segments — the
MX kernel API does the pinning/copying per its message classes, no
socket-level staging at all.
"""

from __future__ import annotations

from ..cluster.node import Node
from ..errors import SocketError
from ..mx.api import MxEndpoint
from ..mx.memtypes import MxSegment
from ..sim import Store
from .base import KSocket

#: match id reserved for connection requests (SYN messages)
LISTEN_MATCH = 1

#: SYN/ACK control payload size on the wire
_CTRL_BYTES = 16


class SocketsMxModule:
    """The sockets-MX protocol module of one node."""

    def __init__(self, node: Node, port_id: int):
        self.node = node
        self.port_id = port_id
        self.endpoint = MxEndpoint(node, port_id, context="kernel")
        self._ctrl = node.kspace.kmalloc(256)
        self._accept_queue: Store = Store(node.env, "sockmx.accept")
        self._listening = False

    # -- connection management ------------------------------------------------

    def listen(self):
        """Generator: start accepting connections."""
        if self._listening:
            raise SocketError("already listening")
        self._listening = True
        self.node.env.process(self._listener(), name="sockmx.listen")
        return
        yield  # pragma: no cover

    def _listener(self):
        while True:
            req = yield from self.endpoint.irecv(
                [MxSegment.kernel(self._ctrl.vaddr, 256)], match=LISTEN_MATCH
            )
            done = yield from self.endpoint.wait(req, blocking=True)
            syn = done.result.meta
            if not (isinstance(syn, tuple) and syn[0] == "syn"):
                raise SocketError(f"bad connection request: {syn!r}")
            _, conn_id, client_node, client_port = syn
            sock = KSocket(self, conn_id, client_node, client_port)
            ack = yield from self.endpoint.isend(
                client_node, client_port,
                [MxSegment.kernel(self._ctrl.vaddr, _CTRL_BYTES)],
                match=conn_id, meta=("ack", conn_id),
            )
            yield from self.endpoint.wait(ack)
            self._accept_queue.put(sock)

    def accept(self):
        """Generator: next accepted socket."""
        sock = yield self._accept_queue.get()
        return sock

    def connect(self, server_node: int, server_port: int):
        """Generator: open a connection to a listening peer module."""
        conn_id = self.node.env.next_id("sockets")
        ack_recv = yield from self.endpoint.irecv(
            [MxSegment.kernel(self._ctrl.vaddr, 256)], match=conn_id
        )
        syn = yield from self.endpoint.isend(
            server_node, server_port,
            [MxSegment.kernel(self._ctrl.vaddr, _CTRL_BYTES)],
            match=LISTEN_MATCH,
            meta=("syn", conn_id, self.node.node_id, self.port_id),
        )
        yield from self.endpoint.wait(syn)
        done = yield from self.endpoint.wait(ack_recv, blocking=True)
        if done.result.meta != ("ack", conn_id):
            raise SocketError(f"bad connection ack: {done.result.meta!r}")
        return KSocket(self, conn_id, server_node, server_port)

    # -- the data path ------------------------------------------------------------

    def protocol_send(self, sock: KSocket, space, vaddr: int, length: int):
        """The user buffer goes straight to MX as a user-virtual segment;
        MX's message classes do the rest (PIO / bounce copy / rendezvous)."""
        req = yield from self.endpoint.isend(
            sock.peer_node, sock.peer_port,
            [MxSegment.user(space, vaddr, length)],
            match=sock.conn_id,
        )
        yield from self.endpoint.wait(req)

    def protocol_recv(self, sock: KSocket, space, vaddr: int, length: int):
        req = yield from self.endpoint.irecv(
            [MxSegment.user(space, vaddr, length)], match=sock.conn_id
        )
        done = yield from self.endpoint.wait(req, blocking=True)
        completion = done.result
        if completion.truncated:
            raise SocketError(
                f"message of {completion.size}+ bytes arrived for a "
                f"{length}-byte recv (posted buffer too small)"
            )
        return completion.size
