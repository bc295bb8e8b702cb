"""Transport adapters: one uniform send/recv interface per protocol stack.

A :class:`Transport` owns one side of a connection and exposes two
generators — ``send(size, match)`` and ``recv(size, match)`` — plus a
``prepare(max_size)`` that allocates (and registers, where the API
demands it) the buffers.  The NetPIPE harness then runs identical
ping-pong logic over GM, MX, or any zero-copy socket.

Buffer reuse matters and is faithful: GM transports register once and
reuse ("GM benefits here from a 100 % reuse of the application buffers",
section 5.1), MX never registers.
"""

from __future__ import annotations

from typing import Optional, Protocol

from ..cluster.node import Node
from ..errors import ReproError
from ..gm.api import GmEventKind, GmPort
from ..gm.kernel import GmKernelPort
from ..mem.layout import sg_from_kernel
from ..mx.api import MxEndpoint
from ..mx.memtypes import MxSegment
from ..units import PAGE_SIZE, page_align_up


class Transport(Protocol):
    """What the ping-pong harness needs from a protocol stack."""

    node: Node

    def prepare(self, max_size: int): ...  # generator
    def send(self, size: int, match: int = 0): ...  # generator
    def recv(self, size: int, match: Optional[int] = None): ...  # generator


class GmUserTransport:
    """GM from user space: registered buffers, unified event queue."""

    def __init__(self, node: Node, port_id: int, peer_node: int, peer_port: int):
        self.node = node
        self.space = node.new_process_space()
        self.port = GmPort(node, port_id, self.space)
        self.peer_node = peer_node
        self.peer_port = peer_port
        self.send_vaddr = 0
        self.recv_vaddr = 0

    def prepare(self, max_size: int):
        size = page_align_up(max(max_size, PAGE_SIZE))
        self.send_vaddr = self.space.mmap(size, populate=True)
        self.recv_vaddr = self.space.mmap(size, populate=True)
        yield from self.port.register(self.send_vaddr, size)
        yield from self.port.register(self.recv_vaddr, size)

    def send(self, size: int, match: int = 0):
        yield from self.port.send(
            self.peer_node, self.peer_port, self.send_vaddr, size, match=match
        )

    def recv(self, size: int, match: Optional[int] = None):
        yield from self.port.provide_receive_buffer(self.recv_vaddr, size, match=match)
        while True:
            event = yield from self.port.receive_event()
            if event.kind is GmEventKind.RECV:
                return event
            # SENT events from our own previous sends drain here, as a
            # real GM event loop must.


class GmKernelTransport:
    """GM from kernel context.

    ``addressing='virtual'`` registers kernel vmalloc buffers and lets
    the NIC translate (stock behaviour); ``addressing='physical'`` uses
    the paper's physical-address primitives (section 3.3) and skips
    registration and translation entirely.
    """

    def __init__(self, node: Node, port_id: int, peer_node: int, peer_port: int,
                 addressing: str = "virtual"):
        if addressing not in ("virtual", "physical"):
            raise ReproError(f"unknown addressing {addressing!r}")
        self.node = node
        self.port = GmKernelPort(node, port_id)
        self.peer_node = peer_node
        self.peer_port = peer_port
        self.addressing = addressing
        self.send_alloc = None
        self.recv_alloc = None

    def prepare(self, max_size: int):
        size = page_align_up(max(max_size, PAGE_SIZE))
        self.send_alloc = self.node.kspace.vmalloc(size)
        self.recv_alloc = self.node.kspace.vmalloc(size)
        if self.addressing == "virtual":
            yield from self.port.register_kernel(self.send_alloc.vaddr, size)
            yield from self.port.register_kernel(self.recv_alloc.vaddr, size)
        else:
            return
            yield  # pragma: no cover

    def _sg(self, alloc, size: int):
        return sg_from_kernel(self.node.kspace, alloc.vaddr, size)

    def send(self, size: int, match: int = 0):
        if self.addressing == "virtual":
            yield from self.port.send(
                self.peer_node, self.peer_port, self.send_alloc.vaddr, size, match=match
            )
        else:
            yield from self.port.send_physical(
                self.peer_node, self.peer_port, self._sg(self.send_alloc, size),
                match=match,
            )

    def recv(self, size: int, match: Optional[int] = None):
        if self.addressing == "virtual":
            yield from self.port.provide_receive_buffer(
                self.recv_alloc.vaddr, size, match=match
            )
        else:
            yield from self.port.provide_receive_buffer_physical(
                self._sg(self.recv_alloc, size), match=match
            )
        while True:
            event = yield from self.port.receive_event()
            if event.kind is GmEventKind.RECV:
                return event


class MxTransport:
    """MX from user or kernel context, with optional copy removal.

    Kernel context uses kernel-virtual buffers by default;
    ``physical=True`` passes physical segments instead (the type an
    ORFS-like caller holding page-cache frames would pass).
    """

    def __init__(self, node: Node, endpoint_id: int, peer_node: int, peer_ep: int,
                 context: str = "user", physical: bool = False,
                 no_send_copy: bool = False, no_recv_copy: bool = False):
        self.node = node
        self.endpoint = MxEndpoint(
            node, endpoint_id, context=context,
            no_send_copy=no_send_copy, no_recv_copy=no_recv_copy,
        )
        self.peer_node = peer_node
        self.peer_ep = peer_ep
        self.context = context
        self.physical = physical
        self.space = node.new_process_space() if context == "user" else None
        self.send_ref = None
        self.recv_ref = None

    def prepare(self, max_size: int):
        size = page_align_up(max(max_size, PAGE_SIZE))
        if self.context == "user":
            send_vaddr = self.space.mmap(size, populate=True)
            recv_vaddr = self.space.mmap(size, populate=True)
            self.send_ref = (send_vaddr, size)
            self.recv_ref = (recv_vaddr, size)
        else:
            self.send_ref = self.node.kspace.kmalloc(size)
            self.recv_ref = self.node.kspace.kmalloc(size)
        return
        yield  # pragma: no cover

    def _segments(self, ref, size: int):
        if self.context == "user":
            vaddr, _ = ref
            return [MxSegment.user(self.space, vaddr, size)]
        if self.physical:
            return [MxSegment.physical(
                sg_from_kernel(self.node.kspace, ref.vaddr, size))]
        return [MxSegment.kernel(ref.vaddr, size)]

    def send(self, size: int, match: int = 0):
        req = yield from self.endpoint.isend(
            self.peer_node, self.peer_ep, self._segments(self.send_ref, size),
            match=match,
        )
        yield from self.endpoint.wait(req)

    def recv(self, size: int, match: Optional[int] = None):
        req = yield from self.endpoint.irecv(
            self._segments(self.recv_ref, size), match=match
        )
        result = yield from self.endpoint.wait(req)
        return result
