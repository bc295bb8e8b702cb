"""The GM kernel interface, with the paper's physical-address primitives.

Stock GM barely supported kernel callers; the paper (section 3.3) adds
"some communication primitives based on physical addresses and the
required infrastructure in the MCP": the caller passes physical
scatter/gather lists (e.g. page-cache frames) and the NIC skips its
translation table on that side — measured at "a 0.5 us gain on both the
sender and the receiver's side, that is 10 % improvement".

:class:`GmKernelPort` extends :class:`GmPort` with:

* ``send_physical`` / ``provide_receive_buffer_physical`` — the new
  primitives (no registration, no translation): the port's one send
  and one post path with the NIC translation turned off;
* ``register_kernel`` — registration of kernel-virtual ranges (already
  pinned; no get_user_pages);
* kernel-context costs (``GM_KERNEL_COSTS``): GM's kernel entry points
  cost ~2 us more per message than its user path (paper section 5.1).

A kernel port is *shared*: it has no single owning address space.  GM
sends from user memory through a shared port therefore need GMKRC's
encoded registration keys (:mod:`repro.gmkrc`), which the inherited
``send`` / ``provide_receive_buffer`` take like any registered key.
"""

from __future__ import annotations

from typing import Any, Optional

from ..cluster.node import Node
from ..errors import GMError
from ..hw.params import GM_KERNEL_COSTS
from ..mem.layout import PhysSegment
from .api import GmPort


class GmKernelPort(GmPort):
    """A GM port opened from kernel context."""

    def __init__(self, node: Node, port_id: int):
        # Kernel ports have no owning user address space; registration of
        # user memory must go through GMKRC with encoded keys.
        super().__init__(node, port_id, space=None, costs=GM_KERNEL_COSTS)

    # -- registration ---------------------------------------------------------

    def register(self, vaddr: int, length: int):
        raise GMError(
            "a kernel port has no owning address space; use "
            "register_kernel(), GMKRC, or the physical primitives"
        )

    def register_kernel(self, vaddr: int, length: int):
        """Generator: register a kernel-virtual range (vmalloc/kmalloc)."""
        self._check_open()
        region = yield from self.domain.register_kernel(
            self.node.kspace, vaddr, length
        )
        return region

    # -- the paper's physical-address primitives ----------------------------------

    def send_physical(self, dst_node: int, dst_port: int,
                      sg: list[PhysSegment], match: int = 0, tag: Any = None,
                      meta: Any = None):
        """Generator: send straight from physical segments.

        No registration, no NIC translation lookup on the send side.
        This is the primitive the page-cache (buffered file access) path
        uses: frames of the page cache are pinned and unmapped, and
        "their physical address is easy to obtain" (section 2.3.1).
        """
        self._check_open()
        if not sg:
            raise GMError("send_physical needs at least one segment")
        return self._submit(dst_node, dst_port, sg,
                            sum(seg.length for seg in sg), translate=False,
                            match=match, tag=tag, meta=meta)

    def provide_receive_buffer_physical(self, sg: list[PhysSegment],
                                        match: Optional[int] = None,
                                        tag: Any = None):
        """Generator: post a receive landing directly in physical segments
        (e.g. page-cache frames) — no translation on the receive side."""
        self._check_open()
        if not sg:
            raise GMError("physical receive needs at least one segment")
        return self._post(sg, sum(seg.length for seg in sg),
                          translate=False, match=match, tag=tag)
