"""User address spaces: VMAs, demand paging, fork/munmap notification.

This models just enough of the Linux mm to support the paper's
arguments:

* ``mmap`` creates a :class:`VMA`; pages are populated on first touch
  (demand paging), so pinning a fresh buffer is more expensive than
  pinning a warm one — exactly the effect GM registration cost depends
  on.
* ``munmap``/``mprotect``/``fork`` fire :class:`AddressSpaceChange`
  notifications to registered listeners.  The kernel's VMA SPY
  (:mod:`repro.kernel.vmaspy`) and through it the registration cache
  (:mod:`repro.gmkrc`) subscribe to these — the paper's central
  coherence mechanism.
* Each space has a small integer ``asid``, numbered per host from 1 by
  its :class:`~repro.mem.phys.PhysicalMemory`, so a host's asids do not
  depend on how many spaces other hosts (or earlier runs in the same
  Python process) built.  Every asid-keyed table — VMA SPY hooks, VFS
  mappings, GMKRC indexes, the NIC translation table — belongs to one
  host.  GM's shared-port trick
  (paper section 3.2: encode an address-space descriptor in the high
  bits of a 64-bit pointer, on a 32-bit host) is implemented over these
  asids in :mod:`repro.gmkrc.spaces`.

Virtual addresses are plain ints; user VAs start at ``USER_BASE`` so
they never collide with kernel VAs (see :mod:`repro.mem.kmem`), making
address-type confusion detectable in tests — the exact failure mode the
MX API's explicit memory types exist to prevent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..errors import BadAddress, ProtectionFault
from ..units import PAGE_MASK, PAGE_SIZE, page_align_up
from .phys import Frame, PhysicalMemory
from .sglist import PayloadRef

USER_BASE = 0x1000_0000  # first user-mappable virtual address
USER_TOP = 0x8000_0000  # 2 GB user space, mirroring 32-bit Linux


class Prot(enum.Flag):
    """VMA protection bits."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    RW = READ | WRITE


# Plain-int protection bits for the per-page checks: an ``enum.Flag``
# ``&`` costs a Python-level call per page.
_READ = Prot.READ.value
_WRITE = Prot.WRITE.value


class ChangeKind(enum.Enum):
    """Kinds of address-space modification the spy layer can observe."""

    UNMAP = "unmap"
    PROTECT = "protect"
    FORK = "fork"
    EXIT = "exit"


@dataclass(frozen=True)
class AddressSpaceChange:
    """One address-space modification event delivered to listeners."""

    kind: ChangeKind
    space: "AddressSpace"
    start: int
    length: int


@dataclass
class VMA:
    """A virtual memory area: [start, end) with uniform protection."""

    start: int
    end: int
    prot: Prot
    #: ``prot`` as plain int bits (VMAs are replaced, never re-protected
    #: in place).
    bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.bits = self.prot.value


class AddressSpace:
    """One process's virtual address space."""

    def __init__(self, phys: PhysicalMemory):
        self.phys = phys
        self.asid = phys.next_asid()
        self._vmas: list[VMA] = []
        self._pages: dict[int, Frame] = {}  # vpn -> frame
        self._next_mmap = USER_BASE
        self._listeners: list[Callable[[AddressSpaceChange], None]] = []
        self._alive = True

    # -- listeners (substrate for VMA SPY) --------------------------------

    def add_listener(self, fn: Callable[[AddressSpaceChange], None]) -> None:
        """Subscribe to address-space modification notifications."""
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[AddressSpaceChange], None]) -> None:
        self._listeners.remove(fn)

    def _notify(self, kind: ChangeKind, start: int, length: int) -> None:
        change = AddressSpaceChange(kind, self, start, length)
        for fn in list(self._listeners):
            fn(change)

    # -- mapping ----------------------------------------------------------

    def mmap(self, length: int, prot: Prot = Prot.RW, populate: bool = False) -> int:
        """Create an anonymous mapping; returns its base virtual address.

        ``populate=True`` faults every page in immediately (MAP_POPULATE);
        otherwise pages appear on first access, as under demand paging.
        """
        self._check_alive()
        if length <= 0:
            raise ValueError(f"mmap length must be positive, got {length}")
        length = page_align_up(length)
        start = self._find_region(length)
        vma = VMA(start, start + length, prot)
        self._vmas.append(vma)
        self._vmas.sort(key=lambda v: v.start)
        if populate:
            for vpn in range(start >> 12, (start + length) >> 12):
                self._populate(vpn)
        return start

    def munmap(self, start: int, length: int) -> None:
        """Remove mappings covering [start, start+length).

        Notification fires *before* teardown, as mmu-notifier style hooks
        do, so a registration cache can invalidate entries while the
        translation is still identifiable.
        """
        self._check_alive()
        if start & PAGE_MASK:
            raise BadAddress(f"munmap start not page aligned: {start:#x}")
        length = page_align_up(length)
        end = start + length
        self._notify(ChangeKind.UNMAP, start, length)
        new_vmas: list[VMA] = []
        for vma in self._vmas:
            if vma.end <= start or vma.start >= end:
                new_vmas.append(vma)
                continue
            # split around the unmapped hole
            if vma.start < start:
                new_vmas.append(VMA(vma.start, start, vma.prot))
            if vma.end > end:
                new_vmas.append(VMA(end, vma.end, vma.prot))
        self._vmas = sorted(new_vmas, key=lambda v: v.start)
        for vpn in range(start >> 12, end >> 12):
            frame = self._pages.pop(vpn, None)
            if frame is not None and not frame.pinned:
                self.phys.free(frame)
            # A pinned frame stays allocated (DMA may be in flight); it is
            # simply no longer reachable from this space — the dangerous
            # situation stale registration-cache entries create.

    def mprotect(self, start: int, length: int, prot: Prot) -> None:
        """Change protection on [start, start+length)."""
        self._check_alive()
        length = page_align_up(length)
        end = start + length
        self._notify(ChangeKind.PROTECT, start, length)
        updated: list[VMA] = []
        for vma in self._vmas:
            if vma.end <= start or vma.start >= end:
                updated.append(vma)
                continue
            if vma.start < start:
                updated.append(VMA(vma.start, start, vma.prot))
            updated.append(VMA(max(vma.start, start), min(vma.end, end), prot))
            if vma.end > end:
                updated.append(VMA(end, vma.end, vma.prot))
        self._vmas = sorted(updated, key=lambda v: v.start)

    def fork(self) -> "AddressSpace":
        """Duplicate the space (eager copy, not COW — simpler, and the
        paper's concern is only that fork changes translations).

        The child gets copies of all populated pages in fresh frames; the
        parent's listeners are notified so caches covering the parent can
        react (GM's pin-down caches must flush on fork).
        """
        self._check_alive()
        self._notify(ChangeKind.FORK, USER_BASE, USER_TOP - USER_BASE)
        child = AddressSpace(self.phys)
        child._vmas = [VMA(v.start, v.end, v.prot) for v in self._vmas]
        child._next_mmap = self._next_mmap
        for vpn, frame in self._pages.items():
            new_frame = self.phys.alloc()
            new_frame.write(0, frame.read(0, PAGE_SIZE))
            child._pages[vpn] = new_frame
        return child

    def destroy(self) -> None:
        """Tear down the space (process exit)."""
        if not self._alive:
            return
        self._notify(ChangeKind.EXIT, USER_BASE, USER_TOP - USER_BASE)
        for frame in self._pages.values():
            if not frame.pinned:
                self.phys.free(frame)
        self._pages.clear()
        self._vmas.clear()
        self._alive = False

    # -- translation / access ---------------------------------------------

    def vma_at(self, addr: int) -> Optional[VMA]:
        """The VMA containing ``addr``, or None."""
        for vma in self._vmas:
            if vma.start <= addr < vma.end:
                return vma
        return None

    def translate(self, vaddr: int, write: bool = False, fault_in: bool = True) -> int:
        """Translate a virtual address to a physical address.

        ``fault_in=False`` refuses to populate (returns what a hardware
        walk would see) and raises :class:`BadAddress` on a non-present
        page — used to model NIC-side translation, which cannot fault.
        """
        vma = self.vma_at(vaddr)
        if vma is None:
            raise BadAddress(f"unmapped address {vaddr:#x} in asid {self.asid}")
        frame = self._page_frame(vma, vaddr, write, fault_in)
        return (frame.pfn << 12) | (vaddr & PAGE_MASK)  # frame.phys_addr

    def _page_frame(self, vma: VMA, vaddr: int, write: bool,
                    fault_in: bool) -> Frame:
        """The frame behind ``vaddr`` in its ``vma``: protection check,
        then the page-table lookup (populating on demand)."""
        if not vma.bits & (_WRITE if write else _READ):
            raise ProtectionFault(
                f"{'write' if write else 'read'} to {vaddr:#x} violates {vma.prot}"
            )
        vpn = vaddr >> 12
        frame = self._pages.get(vpn)
        if frame is None:
            if not fault_in:
                raise BadAddress(f"page at {vaddr:#x} not present (no fault allowed)")
            frame = self._populate(vpn)
        return frame

    def frame_of(self, vaddr: int, fault_in: bool = True) -> Frame:
        """The frame backing the page containing ``vaddr``."""
        phys = self.translate(vaddr, fault_in=fault_in)
        return self.phys.frame_at_phys(phys)

    def page_present(self, vaddr: int) -> bool:
        """True if the page containing ``vaddr`` is populated."""
        return (vaddr >> 12) in self._pages

    def iter_pages(self, vaddr: int, length: int) -> Iterator[int]:
        """Yield the page-base virtual address of each page in a range."""
        if length <= 0:
            return
        addr = vaddr & ~PAGE_MASK
        end = vaddr + length
        while addr < end:
            yield addr
            addr += PAGE_SIZE

    # -- data movement (used by syscalls and CPU copies) --------------------

    def write_bytes(self, vaddr: int, data: bytes) -> None:
        """Store ``data`` at ``vaddr`` (faulting pages in, checking prot)."""
        view = memoryview(data)
        addr = vaddr
        while view:
            phys = self.translate(addr, write=True)
            offset = phys & PAGE_MASK
            chunk = min(len(view), PAGE_SIZE - offset)
            self.phys.write_phys(phys, view[:chunk])
            addr += chunk
            view = view[chunk:]

    def read_bytes(self, vaddr: int, length: int) -> bytes:
        """Load ``length`` bytes from ``vaddr``."""
        out = bytearray()
        addr = vaddr
        remaining = length
        while remaining > 0:
            phys = self.translate(addr, write=False)
            offset = phys & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            out += self.phys.read_phys(phys, chunk)
            addr += chunk
            remaining -= chunk
        return bytes(out)

    def read_payload(self, vaddr: int, length: int) -> PayloadRef:
        """Zero-copy gather of ``length`` bytes at ``vaddr`` into a
        :class:`PayloadRef` of page-span views (pages fault in)."""
        chunks: list = []
        addr = vaddr
        remaining = length
        while remaining > 0:
            phys = self.translate(addr, write=False)
            offset = phys & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            chunks.append(self.phys.frame_at_phys(phys).view(offset, chunk))
            addr += chunk
            remaining -= chunk
        return PayloadRef.from_chunks(chunks)

    def write_payload(self, vaddr: int, payload: PayloadRef) -> None:
        """Scatter a :class:`PayloadRef` into this address space at
        ``vaddr`` — the zero-copy counterpart of :meth:`write_bytes`."""
        addr = vaddr
        for chunk in payload.chunks():
            self.write_bytes(addr, chunk)
            addr += len(chunk)

    # -- pinning (get_user_pages model) -------------------------------------

    def pin_range(self, vaddr: int, length: int) -> list[Frame]:
        """Pin every page of [vaddr, vaddr+length), faulting them in.

        Returns the pinned frames in order.  Raises and pins nothing if
        any page is unmapped (all-or-nothing, like get_user_pages).
        """
        frames: list[Frame] = []
        for page_addr in self.iter_pages(vaddr, length):
            vma = self.vma_at(page_addr)
            if vma is None:
                for f in frames:
                    f.unpin()
                raise BadAddress(f"pin of unmapped address {page_addr:#x}")
            frame = self._page_frame(vma, page_addr, False, True)
            frame.pin()
            frames.append(frame)
        return frames

    @staticmethod
    def unpin_frames(frames: list[Frame]) -> None:
        """Release pins taken by :meth:`pin_range`."""
        for frame in frames:
            frame.unpin()

    # -- internals -----------------------------------------------------------

    def _populate(self, vpn: int) -> Frame:
        frame = self.phys.alloc()
        self._pages[vpn] = frame
        return frame

    def _find_region(self, length: int) -> int:
        """First-fit search over the VMA gaps (so freed regions are
        reused — the malloc/munmap address-recycling behaviour that
        makes stale registration-cache entries dangerous)."""
        candidate = USER_BASE
        for vma in self._vmas:  # sorted by start
            if candidate + length <= vma.start:
                return candidate
            candidate = max(candidate, vma.end)
        if candidate + length > USER_TOP:
            raise BadAddress("user address space exhausted")
        return candidate

    def _check_alive(self) -> None:
        if not self._alive:
            raise BadAddress(f"operation on destroyed address space {self.asid}")

    @property
    def populated_pages(self) -> int:
        """Number of currently populated pages (for tests)."""
        return len(self._pages)
