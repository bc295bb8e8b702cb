"""Kernel network channels: one API, a GM and an MX backend.

See the package docstring for the design rationale.  All methods that
consume simulated time are generators.  The result of a completed
receive is a :class:`ChannelCompletion` carrying the byte count, match
key and the sender's out-of-band protocol header.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..cluster.node import Node
from ..errors import ReproError, TimeoutError_
from ..gm.kernel import GmKernelPort
from ..gmkrc.cache import Gmkrc
from ..mem.layout import PhysSegment, sg_from_kernel
from ..mx.api import MxEndpoint
from ..mx.memtypes import MemType, MxSegment
from ..sim import Event


class UnsupportedOperation(ReproError):
    """The backend API cannot express this operation (e.g. vectorial
    user-memory sends on GM, section 4.1)."""


@dataclass
class ChannelCompletion:
    """Receiver-visible outcome of one message."""

    size: int
    match: int
    meta: Any = None
    src_node: int = -1


@dataclass
class ChannelSend:
    """Handle for an in-flight send."""

    event: Event
    length: int


@dataclass
class ChannelRecv:
    """Handle for a posted receive."""

    event: Event
    capacity: int
    match: Optional[int] = None

    @property
    def completed(self) -> bool:
        return self.event.processed


class KernelChannel:
    """Abstract base: the paper's in-kernel communication interface."""

    supports_vectorial: bool = True

    def send(self, dst_node: int, dst_port: int, segments: Sequence[MxSegment],
             match: int = 0, meta: Any = None):
        raise NotImplementedError

    def post_recv(self, segments: Sequence[MxSegment],
                  match: Optional[int] = None):
        raise NotImplementedError

    def wait_send(self, handle: ChannelSend):
        raise NotImplementedError

    def wait_recv(self, handle: ChannelRecv, timeout_ns: Optional[int] = None):
        raise NotImplementedError

    def wait_any_recv(self, handles: Sequence[ChannelRecv]):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# MX backend
# ---------------------------------------------------------------------------


class MxKernelChannel(KernelChannel):
    """The MX kernel interface — the contribution, essentially verbatim."""

    supports_vectorial = True

    def __init__(self, node: Node, endpoint_id: int, **endpoint_flags):
        self.node = node
        self.endpoint = MxEndpoint(node, endpoint_id, context="kernel",
                                   **endpoint_flags)

    def send(self, dst_node: int, dst_port: int, segments: Sequence[MxSegment],
             match: int = 0, meta: Any = None):
        req = yield from self.endpoint.isend(dst_node, dst_port, segments,
                                             match=match, meta=meta)
        return ChannelSend(event=req.event, length=req.length)

    def post_recv(self, segments: Sequence[MxSegment],
                  match: Optional[int] = None):
        req = yield from self.endpoint.irecv(segments, match=match)
        handle = ChannelRecv(event=req.event, capacity=req.length, match=match)
        handle._req = req  # backend hook for wait_recv
        return handle

    def wait_send(self, handle: ChannelSend):
        if not handle.event.processed:
            yield handle.event
        yield from self.endpoint.cpu.work(self.endpoint.costs.host_event_ns)

    def wait_recv(self, handle: ChannelRecv, timeout_ns: Optional[int] = None):
        req = yield from self.endpoint.wait(handle._req, blocking=True,
                                            timeout_ns=timeout_ns)
        if req is None:
            raise TimeoutError_(
                f"receive not completed within {timeout_ns} ns"
            )
        return _mx_completion(req)

    def wait_any_recv(self, handles: Sequence[ChannelRecv]):
        req = yield from self.endpoint.wait_any(
            [h._req for h in handles], blocking=True
        )
        for h in handles:
            if h._req is req:
                return h, _mx_completion(req)
        raise ReproError("wait_any returned an unknown request")


def _mx_completion(req) -> ChannelCompletion:
    result = req.result
    if result is None:
        return ChannelCompletion(size=req.length, match=req.match)
    return ChannelCompletion(
        size=result.size, match=result.match, meta=result.meta,
        src_node=result.src_nic,
    )


# ---------------------------------------------------------------------------
# GM backend
# ---------------------------------------------------------------------------


class GmKernelChannel(KernelChannel):
    """The best-effort equivalent over GM plus the paper's extensions.

    * kernel-virtual and physical segments use the physical-address
      primitives (section 3.3);
    * user-virtual segments go through GMKRC (registration cache with
      VMA SPY coherence, section 3.2);
    * completions are demultiplexed from GM's unified event queue by a
      dispatcher that pays ``host_event + blocking_wakeup`` per event —
      the notification inflexibility of sections 5.2-5.3.

    ``supports_vectorial`` is False: GM cannot send several user-memory
    segments in one operation; only lists of *physical* pieces work
    (the paper's page-cache extension).
    """

    supports_vectorial = False

    def __init__(self, node: Node, port_id: int, regcache_enabled: bool = True):
        self.node = node
        self.port = GmKernelPort(node, port_id)
        self.gmkrc = Gmkrc(self.port, node.vmaspy, enabled=regcache_enabled)
        self.env = node.env
        node.env.process(self._dispatcher(), name=f"gmch{port_id}.dispatch")

    # -- sending -------------------------------------------------------------

    def send(self, dst_node: int, dst_port: int, segments: Sequence[MxSegment],
             match: int = 0, meta: Any = None):
        handle = ChannelSend(event=self.env.event("gmch.send"),
                             length=sum(s.length for s in segments))
        # GM sends complete out of the same registered region; a GMKRC
        # entry stays referenced until the SENT event.
        key, sg, handle._entry = yield from self._gm_memory(segments)
        if sg is None:
            yield from self.port.send(
                dst_node, dst_port, key, handle.length, match=match,
                tag=("send", handle), meta=meta,
            )
        else:
            yield from self.port.send_physical(
                dst_node, dst_port, sg, match=match, tag=("send", handle),
                meta=meta,
            )
        return handle

    def post_recv(self, segments: Sequence[MxSegment],
                  match: Optional[int] = None):
        handle = ChannelRecv(event=self.env.event("gmch.recv"),
                             capacity=sum(s.length for s in segments),
                             match=match)
        key, sg, handle._entry = yield from self._gm_memory(segments)
        if sg is None:
            yield from self.port.provide_receive_buffer(
                key, handle.capacity, match=match, tag=("recv", handle),
            )
        else:
            yield from self.port.provide_receive_buffer_physical(
                sg, match=match, tag=("recv", handle),
            )
        return handle

    def _gm_memory(self, segments: Sequence[MxSegment]):
        """Generator: name ``segments`` the way GM can.

        One user segment is acquired through GMKRC and comes back as
        ``(key, None, entry)``; kernel-virtual and physical segments
        come back as ``(None, sg, None)`` for the physical primitives.
        GM has no vectorial primitives, so user memory in a list of
        several segments cannot be named at all.
        """
        user_segs = [s for s in segments if s.kind is MemType.USER_VIRTUAL]
        if not user_segs:
            return None, self._resolve_phys(segments), None
        if len(segments) > 1:
            raise UnsupportedOperation(
                "GM has no vectorial primitives: cannot name multiple "
                "segments involving user memory in one operation"
            )
        seg = user_segs[0]
        key, entry = yield from self.gmkrc.acquire(seg.space, seg.vaddr,
                                                   seg.length)
        return key, None, entry

    def _resolve_phys(self, segments: Sequence[MxSegment]) -> list[PhysSegment]:
        out: list[PhysSegment] = []
        for seg in segments:
            if seg.kind is MemType.KERNEL_VIRTUAL:
                out.extend(sg_from_kernel(self.node.kspace, seg.vaddr, seg.length))
            else:
                out.extend(seg.sg)
        return out

    # -- completion --------------------------------------------------------------

    def wait_send(self, handle: ChannelSend):
        if not handle.event.processed:
            yield handle.event
            # Second context switch: the dispatcher wakes this sleeper.
            yield from self.port.cpu.work(self.port.costs.blocking_wakeup_ns)
        return None

    def wait_recv(self, handle: ChannelRecv, timeout_ns: Optional[int] = None):
        if not handle.event.processed:
            if timeout_ns is None:
                yield handle.event
            else:
                timer = self.env.timeout(timeout_ns)
                yield self.env.any_of([handle.event, timer])
                if not handle.event.triggered:
                    raise TimeoutError_(
                        f"receive not completed within {timeout_ns} ns"
                    )
            yield from self.port.cpu.work(self.port.costs.blocking_wakeup_ns)
        return handle.event.value

    def wait_any_recv(self, handles: Sequence[ChannelRecv]):
        pending = [h for h in handles if not h.event.processed]
        if len(pending) == len(handles):
            yield self.env.any_of([h.event for h in handles])
            yield from self.port.cpu.work(self.port.costs.blocking_wakeup_ns)
        for h in handles:
            if h.event.processed:
                return h, h.event.value
        raise ReproError("wait_any_recv: no handle completed")

    # -- the event dispatcher -----------------------------------------------------

    def _dispatcher(self):
        """Drain GM's unified event queue forever, routing each event to
        its request handle.  Every delivery pays GM's blocking pickup
        (host_event + blocking_wakeup) — the structural cost the MX
        backend does not have."""
        while True:
            event = yield from self.port.receive_event(blocking=True)
            kind, handle = event.tag if isinstance(event.tag, tuple) else (None, None)
            if kind == "send":
                if handle._entry is not None:
                    self.gmkrc.release(handle._entry)
                handle.event.succeed(None)
            elif kind == "recv":
                if handle._entry is not None:
                    self.gmkrc.release(handle._entry)
                handle.event.succeed(
                    ChannelCompletion(
                        size=event.size, match=event.match, meta=event.meta,
                        src_node=event.src_node,
                    )
                )
            # Events with no routing tag are dropped (none are produced
            # by this channel).
