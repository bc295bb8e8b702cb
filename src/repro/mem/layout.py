"""Scatter/gather construction: turning buffers into DMA-able segments.

A :class:`PhysSegment` is what a DMA engine consumes: (physical address,
length).  The three builders correspond to the three memory-address
types of the MX kernel API (paper section 4.2):

* :func:`sg_from_user` — *user virtual*: walk the page table (pages must
  be present, i.e. pinned first), one segment per physically contiguous
  run.
* :func:`sg_from_kernel` — *kernel virtual*: translate through the
  kernel allocator; kmalloc buffers collapse to one segment.
* :func:`sg_from_frames` — *physical*: the caller already has frames
  (page-cache pages); no translation at all.

Adjacent physically contiguous pieces are merged, which is the property
the paper's send-copy-removal exploits ("up to 8 physically contiguous
pages" fit MX's medium-message path as one segment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..units import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from .addrspace import AddressSpace
from .kmem import KernelSpace
from .phys import Frame


@dataclass(frozen=True)
class PhysSegment:
    """One physically contiguous piece of a transfer."""

    phys_addr: int
    length: int

    @property
    def end(self) -> int:
        return self.phys_addr + self.length


def _merged(pieces: Iterable[tuple[int, int]]) -> list[PhysSegment]:
    """Coalesce ``(phys_addr, length)`` pieces into maximal contiguous
    segments, building each :class:`PhysSegment` once."""
    merged: list[PhysSegment] = []
    start = run = 0
    for phys, n in pieces:
        if run and start + run == phys:
            run += n
        else:
            if run:
                merged.append(PhysSegment(start, run))
            start, run = phys, n
    if run:
        merged.append(PhysSegment(start, run))
    return merged


def sg_from_user(space: AddressSpace, vaddr: int, length: int) -> list[PhysSegment]:
    """Scatter/gather list for a user-virtual range.

    Pages must be resident — callers pin first (``pin_range``), exactly
    as a driver must call get_user_pages before building an sg list.
    ``fault_in=False`` enforces this: hitting a non-present page here is
    a driver bug, not a recoverable fault.
    """
    if length <= 0:
        return []

    def pieces():
        addr = vaddr
        remaining = length
        while remaining > 0:
            phys = space.translate(addr, fault_in=False)
            chunk = min(remaining, PAGE_SIZE - (phys & PAGE_MASK))
            yield phys, chunk
            addr += chunk
            remaining -= chunk

    return _merged(pieces())


def sg_from_kernel(kspace: KernelSpace, vaddr: int, length: int) -> list[PhysSegment]:
    """Scatter/gather list for a kernel-virtual range.

    Walks each allocation's PFNs directly: one allocation lookup per
    allocation the range crosses, not one translation per page, and no
    :class:`~repro.mem.phys.Frame` built.  A kmalloc allocation's PFNs
    are a ``range`` from its base, so its part of the range is one
    piece, with no per-page work; a vmalloc allocation yields a piece
    per page.  Physically adjacent pieces merge into one segment.
    """
    if length <= 0:
        return []

    def pieces():
        addr = vaddr
        end = vaddr + length
        while addr < end:
            alloc = kspace.find_allocation(addr)
            pfns = alloc.pfns
            stop = min(end, alloc.mapped_end)
            page = (addr - alloc.vaddr) >> PAGE_SHIFT
            offset = addr & PAGE_MASK
            if alloc.contiguous:
                yield (pfns[page] << PAGE_SHIFT) + offset, stop - addr
                addr = stop
                continue
            while addr < stop:
                chunk = min(stop - addr, PAGE_SIZE - offset)
                yield (pfns[page] << PAGE_SHIFT) + offset, chunk
                addr += chunk
                page += 1
                offset = 0

    return _merged(pieces())


def sg_from_frames(
    frames: list[Frame], offset: int = 0, length: int | None = None
) -> list[PhysSegment]:
    """Scatter/gather list over a frame list (page-cache pages).

    ``offset`` skips into the first frame; ``length`` defaults to the
    rest of the frame run.  Frames that happen to be physically adjacent
    merge into one segment.
    """
    total = len(frames) * PAGE_SIZE - offset
    if length is None:
        length = total
    if length < 0 or offset < 0 or offset + length > len(frames) * PAGE_SIZE:
        raise ValueError(
            f"range offset={offset} length={length} exceeds {len(frames)} frames"
        )
    if length == 0:
        return []

    def pieces():
        remaining = length
        page, pos = divmod(offset, PAGE_SIZE)
        while remaining > 0:
            chunk = min(remaining, PAGE_SIZE - pos)
            yield frames[page].phys_addr + pos, chunk
            remaining -= chunk
            page += 1
            pos = 0

    return _merged(pieces())
