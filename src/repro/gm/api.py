"""The GM user-space API: ports, registered sends, the unified event queue.

Follows the GM 2.x programming model the paper describes (section
2.2.2): "The user posts send, receive or remote memory access requests
and gets their completion notifications in a unique event queue."  All
I/O buffers must be registered first; sends and receive buffers are
specified by a key in the port's namespace (the owning process's
virtual address, or a GMKRC-encoded key on a shared kernel port) and
the NIC translates through its table.

Every GM send, whatever names its memory, goes through one private
path (:meth:`GmPort._submit`) and every receive post through another
(:meth:`GmPort._post`); the kernel port's physical-address primitives
(:mod:`repro.gm.kernel`) are those same two paths with the NIC
translation turned off.

Deviations from the real API, documented:

* GM matches receive buffers by *size class and priority*; we use an
  integer match tag (None = wildcard) — equivalent expressive power for
  every protocol in the paper, far less bookkeeping.
* ``gm_send_with_callback``'s callback becomes a send-completion event
  in the queue (which is how protocols actually consumed it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from .. import obs
from ..cluster.node import Node
from ..errors import GMError, GMSendQueueFull
from ..hw.nic import NicPort, PostedReceive, SendDescriptor
from ..hw.params import ApiCosts, GM_USER_COSTS
from ..mem.addrspace import AddressSpace
from ..mem.layout import PhysSegment
from ..sim import Store
from ..units import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, pages_spanned
from .registration import GmRegion, RegistrationDomain

#: GM bounds the number of in-flight sends per port ("some interfaces
#: (especially GM) ask the user to limit the amount of pending
#: requests", section 4.1).
GM_SEND_QUEUE_DEPTH = 64


class GmEventKind(enum.Enum):
    RECV = "recv"
    SENT = "sent"


@dataclass
class GmEvent:
    """One entry of the port's unified event queue."""

    kind: GmEventKind
    size: int = 0
    match: int = 0
    src_node: int = -1
    src_port: int = -1
    tag: Any = None
    data: Any = None  # PayloadRef (zero-copy chunk views) when kept
    meta: Any = None  # sender's out-of-band protocol header


class GmPort:
    """A GM communication port owned by one user process."""

    def __init__(self, node: Node, port_id: int, space: AddressSpace,
                 costs: ApiCosts = GM_USER_COSTS):
        self.node = node
        self.port_id = port_id
        self.space = space
        self.costs = costs
        self.cpu = node.cpu
        self.env = node.env
        self.context = node.env.next_id("gm.context")
        self.nic_port: NicPort = node.nic.open_port(port_id, costs)
        self.domain = RegistrationDomain(node.cpu, node.nic.transtable, self.context)
        self.events: Store = Store(node.env, f"gm{port_id}.events")
        # API-level accounting on the metrics registry.
        self._m_sends = obs.counter("gm.sends", node=node.node_id, port=port_id)
        self._m_recv_posts = obs.counter(
            "gm.recv_posts", node=node.node_id, port=port_id
        )
        self._m_events = obs.counter(
            "gm.events", node=node.node_id, port=port_id
        )
        self._pending_sends = 0
        self.nic_port.completion_sink = self._on_recv_completion
        self._open = True

    # -- registration ------------------------------------------------------------

    def register(self, vaddr: int, length: int):
        """Generator: gm_register_memory on this port's address space."""
        self._check_open()
        region = yield from self.domain.register_user(self.space, vaddr, length)
        return region

    def deregister(self, region: GmRegion):
        """Generator: gm_deregister_memory."""
        self._check_open()
        yield from self.domain.deregister(region)

    # -- sending --------------------------------------------------------------------

    def send(self, dst_node: int, dst_port: int, vaddr: int, length: int,
             match: int = 0, tag: Any = None, meta: Any = None):
        """Generator: gm_send from a registered buffer.

        ``vaddr`` is a key in the port's namespace: a user port's own
        virtual address, or a GMKRC-encoded key on a shared kernel port.
        Returns once the descriptor is handed to the NIC; the completion
        arrives in the event queue as a SENT event.  Like the other send
        and post entry points it hands back the ``_submit`` generator
        itself, one frame less on every resumption under it.
        """
        self._check_open()
        return self._submit(dst_node, dst_port,
                            self._sg_through_table(vaddr, length), length,
                            translate=True, match=match, tag=tag, meta=meta)

    def _submit(self, dst_node: int, dst_port: int, sg: list[PhysSegment],
                length: int, translate: bool, match: int, tag: Any, meta: Any):
        """Generator: hand one send descriptor to the NIC — the only GM
        send path.  ``translate`` says whether the NIC resolves ``sg``
        through its table (registered memory) or takes it as physical
        (the paper's section 3.3 primitive)."""
        if self._pending_sends >= GM_SEND_QUEUE_DEPTH:
            raise GMSendQueueFull(f"port {self.port_id}: {self._pending_sends} pending")
        yield from self.cpu.work(self.costs.host_send_ns)
        yield from self.cpu.work(self.node.nic.doorbell_time_ns())
        self._pending_sends += 1
        self._m_sends.inc()
        completion = self.node.nic.submit(SendDescriptor(
            dst_nic=dst_node,
            dst_port=dst_port,
            match=match,
            size=length,
            src_port=self.port_id,
            sg=sg,
            translate_tx=translate,
            fw_send_ns=self.costs.fw_send_ns,
            tag=tag,
            meta=meta,
        ))
        completion.add_callback(lambda ev: self._on_send_completion(ev.value))

    def _sg_through_table(self, vaddr: int, length: int) -> list[PhysSegment]:
        """Resolve a registered range into physical segments through the
        NIC's translation table, one segment and one lookup per page —
        the table the registration filled is the only copy of the
        translations."""
        if self.domain.find(vaddr, length) is None:
            raise GMError(
                f"unregistered memory {vaddr:#x}+{length} "
                f"(GM requires gm_register_memory first)"
            )
        pfns = self.domain.table.lookup_pages(
            self.context, vaddr >> PAGE_SHIFT, pages_spanned(vaddr, length))
        segments: list[PhysSegment] = []
        addr = vaddr
        end = vaddr + length
        for pfn in pfns:
            offset = addr & PAGE_MASK
            stop = addr - offset + PAGE_SIZE
            if stop > end:
                stop = end
            segments.append(PhysSegment((pfn << PAGE_SHIFT) + offset, stop - addr))
            addr = stop
        return segments

    # -- receiving -------------------------------------------------------------------

    def provide_receive_buffer(self, vaddr: int, length: int,
                               match: Optional[int] = None, tag: Any = None):
        """Generator: gm_provide_receive_buffer from a registered buffer
        (``vaddr`` in the port's key namespace, as for :meth:`send`)."""
        self._check_open()
        return self._post(self._sg_through_table(vaddr, length), length,
                          translate=True, match=match, tag=tag)

    def _post(self, sg: list[PhysSegment], length: int, translate: bool,
              match: Optional[int], tag: Any):
        """Generator: post one receive to the NIC — the only GM post
        path (``translate`` as for :meth:`_submit`)."""
        yield from self.cpu.work(self.costs.host_recv_post_ns)
        self._m_recv_posts.inc()
        self.nic_port.post_receive(
            PostedReceive(
                match=match,
                capacity=length,
                dest_sg=sg,
                translate_rx=translate,
                tag=tag,
            )
        )

    # -- the unified event queue --------------------------------------------------------

    def receive_event(self, blocking: bool = False,
                      timeout_ns: Optional[int] = None):
        """Generator: gm_receive — next event from the unified queue.

        ``blocking=True`` models sleeping until the event (interrupt +
        wakeup) instead of spinning; it costs
        ``costs.blocking_wakeup_ns`` extra, the penalty the paper blames
        for GM's poor fit under ORFS and SOCKETS-GM.

        ``timeout_ns`` models gm_receive's expirable blocking variant:
        if no event arrives within the budget, returns None (the caller
        retries or surfaces an error).  The default None keeps the
        original wait-forever semantics and code path.
        """
        self._check_open()
        if timeout_ns is None:
            event = yield self.events.get()
        else:
            getter = self.events.get()
            timer = self.env.timeout(timeout_ns)
            yield self.env.any_of([getter, timer])
            if not getter.triggered:
                self.events.cancel(getter)
                return None
            event = getter.value
        yield from self.cpu.work(self.costs.host_event_ns)
        if blocking:
            yield from self.cpu.work(self.costs.blocking_wakeup_ns)
        self._m_events.inc()
        return event

    def _on_recv_completion(self, completion) -> None:
        self.events.put(
            GmEvent(
                kind=GmEventKind.RECV,
                size=completion.size,
                match=completion.match,
                src_node=completion.src_nic,
                src_port=completion.src_port,
                tag=completion.tag,
                data=completion.data,
                meta=completion.meta,
            )
        )

    def _on_send_completion(self, completion) -> None:
        self._pending_sends -= 1
        self.events.put(
            GmEvent(kind=GmEventKind.SENT, size=completion.size, tag=completion.tag)
        )

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """gm_close: drop registrations (translations die with the port)."""
        if not self._open:
            return
        self._open = False
        self.domain.teardown()
        self.nic_port.close()

    def _check_open(self) -> None:
        if not self._open:
            raise GMError(f"port {self.port_id} is closed")
