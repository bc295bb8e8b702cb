"""Kernel virtual memory: kmalloc (contiguous) and vmalloc (scattered).

Kernel virtual addresses live above ``KERNEL_BASE`` (3 GB, the classic
32-bit Linux split), disjoint from user VAs.  The distinction the MX API
cares about (paper section 4.2) is:

* **kmalloc** memory is physically contiguous — a multi-page buffer is
  one DMA segment, which is what makes the send-copy-removal
  optimization pay off for up to 8 contiguous pages.
* **vmalloc** memory is only virtually contiguous — each page is a
  separate physical segment, requiring vectorial primitives.

Kernel pages are allocated resident (no demand paging) and are
effectively pinned from birth: every page holds a pin reference so DMA
from kernel buffers never needs get_user_pages, which is exactly why the
paper's *kernel virtual* address type is cheaper than *user virtual*.

An allocation records its backing PFNs in VA order.  kmalloc's are one
``range`` from :meth:`~repro.mem.phys.PhysicalMemory.alloc_contiguous`,
which pins the pages without building :class:`~repro.mem.phys.Frame`
objects: translation and scatter/gather compute addresses from the base
PFN, zero-copy reads of untouched pages share the zero page, and a
page's ``Frame`` appears only when something writes it or looks it up
(:attr:`KernelAllocation.frames`).  vmalloc allocates and pins each
page's ``Frame`` eagerly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from ..errors import BadAddress
from ..units import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, page_align_up
from .phys import Frame, PhysicalMemory
from .sglist import PayloadRef

KERNEL_BASE = 0xC000_0000  # 3 GB: start of kernel virtual addresses


@dataclass
class KernelAllocation:
    """One kernel allocation: VA range plus its backing PFNs in order."""

    vaddr: int
    length: int
    #: Backing PFNs in VA order: a ``range`` for kmalloc, a list for
    #: vmalloc.
    pfns: "range | list[int]"
    phys: PhysicalMemory = field(repr=False, compare=False)
    contiguous: bool = False

    @property
    def mapped_end(self) -> int:
        """End of the page-aligned VA range the frames back."""
        return self.vaddr + len(self.pfns) * PAGE_SIZE

    @property
    def frames(self) -> list[Frame]:
        """The backing frames in order (building any untouched kmalloc
        page's :class:`Frame`)."""
        return [self.phys.frame(pfn) for pfn in self.pfns]


class KernelSpace:
    """Kernel virtual address allocator over a :class:`PhysicalMemory`."""

    def __init__(self, phys: PhysicalMemory):
        self.phys = phys
        self._next_va = KERNEL_BASE
        self._allocs: dict[int, KernelAllocation] = {}  # base va -> alloc
        # Sorted base VAs (allocation hands out increasing VAs, so
        # ``_alloc`` appends) for bisecting lookups.
        self._starts: list[int] = []

    @staticmethod
    def is_kernel_address(vaddr: int) -> bool:
        """True for addresses in the kernel half of the address space."""
        return vaddr >= KERNEL_BASE

    def kmalloc(self, length: int) -> KernelAllocation:
        """Allocate physically contiguous, resident, pinned kernel memory."""
        return self._alloc(length, contiguous=True)

    def vmalloc(self, length: int) -> KernelAllocation:
        """Allocate virtually contiguous kernel memory (scattered frames)."""
        return self._alloc(length, contiguous=False)

    def kfree(self, alloc: KernelAllocation) -> None:
        """Free a kernel allocation and its frames."""
        if alloc.vaddr not in self._allocs:
            raise BadAddress(f"kfree of unknown allocation at {alloc.vaddr:#x}")
        del self._allocs[alloc.vaddr]
        del self._starts[bisect_right(self._starts, alloc.vaddr) - 1]
        self.phys.unpin_free(alloc.pfns)

    def _alloc(self, length: int, contiguous: bool) -> KernelAllocation:
        if length <= 0:
            raise ValueError(f"allocation length must be positive, got {length}")
        nbytes = page_align_up(length)
        npages = nbytes // PAGE_SIZE
        # Kernel memory is born pinned (alloc_contiguous pins its pages).
        if contiguous:
            base = self.phys.alloc_contiguous(npages)
            pfns: "range | list[int]" = range(base, base + npages)
        else:
            pfns = []
            for _ in range(npages):
                frame = self.phys.alloc()
                frame.pin()
                pfns.append(frame.pfn)
        vaddr = self._next_va
        self._next_va += nbytes
        alloc = KernelAllocation(vaddr, length, pfns, self.phys, contiguous)
        self._allocs[vaddr] = alloc
        self._starts.append(vaddr)
        return alloc

    # -- translation / access ----------------------------------------------

    def find_allocation(self, vaddr: int) -> KernelAllocation:
        """The allocation containing ``vaddr`` (bisect over base VAs)."""
        i = bisect_right(self._starts, vaddr) - 1
        if i >= 0:
            alloc = self._allocs[self._starts[i]]
            if vaddr < alloc.mapped_end:
                return alloc
        raise BadAddress(f"kernel address {vaddr:#x} not allocated")

    def translate(self, vaddr: int) -> int:
        """Kernel VA -> physical address."""
        alloc = self.find_allocation(vaddr)
        page_index = (vaddr - alloc.vaddr) >> PAGE_SHIFT
        return (alloc.pfns[page_index] << PAGE_SHIFT) | (vaddr & PAGE_MASK)

    def write_bytes(self, vaddr: int, data: "bytes | bytearray | memoryview") -> None:
        """Store ``data`` at a kernel virtual address."""
        view = memoryview(data)
        addr = vaddr
        while view:
            phys = self.translate(addr)
            chunk = min(len(view), PAGE_SIZE - (phys & PAGE_MASK))
            self.phys.write_phys(phys, view[:chunk])
            addr += chunk
            view = view[chunk:]

    def read_bytes(self, vaddr: int, length: int) -> bytes:
        """Load ``length`` bytes from a kernel virtual address."""
        chunks = []
        addr = vaddr
        remaining = length
        while remaining > 0:
            phys = self.translate(addr)
            chunk = min(remaining, PAGE_SIZE - (phys & PAGE_MASK))
            chunks.append(self.phys.read_phys(phys, chunk))
            addr += chunk
            remaining -= chunk
        return b"".join(chunks)

    def read_payload(self, vaddr: int, length: int) -> PayloadRef:
        """Zero-copy gather of a kernel virtual range into a
        :class:`PayloadRef` of page-span views."""
        chunks: list = []
        addr = vaddr
        remaining = length
        while remaining > 0:
            phys = self.translate(addr)
            chunk = min(remaining, PAGE_SIZE - (phys & PAGE_MASK))
            chunks.append(self.phys.view_phys(phys, chunk))
            addr += chunk
            remaining -= chunk
        return PayloadRef.from_chunks(chunks)

    def write_payload(self, vaddr: int, payload: PayloadRef) -> None:
        """Scatter a :class:`PayloadRef` at a kernel virtual address."""
        addr = vaddr
        for chunk in payload.chunks():
            self.write_bytes(addr, chunk)
            addr += len(chunk)
