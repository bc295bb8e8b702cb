"""The in-kernel socket abstraction shared by all three protocol stacks.

:class:`KSocket` is what an application sees after connect/accept:
``send``/``recv`` generators charging a syscall and the socket layer,
then delegating to the protocol module.  Semantics are
message-boundary-preserving (each ``send`` is one message and each
``recv`` must offer at least that much buffer) — the discipline NetPIPE
and all of this repository's workloads follow.  A ``recv`` posted with a
smaller buffer than the arriving message raises, loudly, instead of
silently truncating.
"""

from __future__ import annotations

from ..errors import SocketError
from ..mem.addrspace import AddressSpace

#: The socket-layer bookkeeping per call (lookup, locking), on top of
#: the syscall itself.
SOCK_LAYER_NS = 500


class KSocket:
    """A connected socket endpoint bound to one protocol module."""

    def __init__(self, module, conn_id: int, peer_node: int, peer_port: int):
        self.module = module
        self.conn_id = conn_id
        self.peer_node = peer_node
        self.peer_port = peer_port
        self.node = module.node
        self.cpu = module.node.cpu
        self._open = True

    # -- the application-facing calls ---------------------------------------

    def send(self, space: AddressSpace, vaddr: int, length: int):
        """Generator: send(2) from a user buffer; returns bytes sent."""
        self._check_open()
        if length <= 0:
            raise SocketError(f"send length must be positive, got {length}")
        yield from self.cpu.syscall()
        yield from self.cpu.work(SOCK_LAYER_NS)
        yield from self.module.protocol_send(self, space, vaddr, length)
        return length

    def recv(self, space: AddressSpace, vaddr: int, length: int):
        """Generator: recv(2) into a user buffer; returns bytes received."""
        self._check_open()
        if length <= 0:
            raise SocketError(f"recv length must be positive, got {length}")
        yield from self.cpu.syscall()
        yield from self.cpu.work(SOCK_LAYER_NS)
        n = yield from self.module.protocol_recv(self, space, vaddr, length)
        return n

    def close(self) -> None:
        self._open = False

    def _check_open(self) -> None:
        if not self._open:
            raise SocketError("socket is closed")
