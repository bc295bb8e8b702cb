"""Physical memory: a frame allocator whose frames back real bytes.

Frames are identified by PFN (page frame number).  A frame's physical
base address is ``pfn * PAGE_SIZE``; helpers convert both ways.  Byte
storage is allocated lazily (a frame that is never written costs no
Python memory), which lets benchmarks simulate multi-gigabyte transfers
cheaply while correctness tests still see real data.

Every frame with no storage reads through one shared, immutable zero
page, as Linux backs every never-written page with its one zero page: a
view of a never-written frame is a slice of one module-level
``memoryview`` (a full-page view is that view itself), so the thousands
of unwritten frames a fabric DMA gathers share one buffer instead of
each building its own.  Copy-on-write is unaffected: the zero page
cannot be written, and a frame's first write gives it private storage.

A frame with no storage already reads as zeros, so writing all-zero
bytes into it is elided: no storage is allocated and no host copy is
counted.  Zeros are recognised by content, not by identity, so a
payload chunk that is plain ``bytes`` elides exactly like a view of a
never-written frame.  A DMA of a never-written buffer (most figure and
fabric transfers move such buffers) therefore costs the host no copy,
while its simulated cost is charged exactly as before.

Pin counts live here, on the frame, because pinning is a property of
physical pages: both ``get_user_pages`` (user buffers) and the page
cache (always-resident pages) end up bumping the same counter in Linux.

:class:`PhysicalMemory` keeps its frames in a list indexed by PFN (the
kernel's ``mem_map``) rather than a dict.  Allocation always takes the
lowest free PFN, so the list stays dense; a freed slot holds ``None``.

A contiguous (kmalloc) run is allocated pinned from birth and gets no
:class:`Frame` objects: its slots hold the ``_UNTOUCHED`` marker, which
records that the page is allocated and pinned once.
:meth:`PhysicalMemory.frame` builds a page's ``Frame`` (pin count 1) on
first lookup and returns that same object afterwards.  Zero-copy
gathers of an untouched page read the shared zero page, zero writes to
it are elided, and :meth:`PhysicalMemory.unpin_free` returns it to the
pool, all without building anything; a non-zero write, a copying read
(``read_phys``) or an explicit lookup gives the page its ``Frame``.  A
kmalloc buffer is one DMA segment whatever its size, so the simulator
should not pay per page for it either: a gather reads a run of
untouched pages as one view of a shared zero region, and a write of
such a view skips the untouched pages it lands on as one run, with no
compare at all (anything read from the region is zeros).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import Optional

from ..errors import OutOfMemory, PinningError
from ..units import PAGE_SHIFT, PAGE_SIZE
from .sglist import HOST_COPIES

_ZERO_PAGE = bytes(PAGE_SIZE)
#: The one view every never-written frame hands out (sliced for partial
#: pages), so unwritten views share a single buffer.
_ZERO_VIEW = memoryview(_ZERO_PAGE)
#: Bytes of the shared zero region: a gather reads a run of untouched
#: contiguous pages as one view of it, per at most this many bytes.
_ZERO_REGION_BYTES = 64 * PAGE_SIZE
#: The zero region, mapped by the first gather of an untouched run.  It
#: is an anonymous private mapping that is only ever read, so each of its
#: pages is the kernel's one zero page and it costs no resident memory (a
#: ``bytes`` of this size lands on the heap and adds 256 KiB to peak RSS).
#: Mapped on first use, a process that never gathers such a run does not
#: even load the ``mmap`` module.
_zero_region: Optional[memoryview] = None


def _zero_run(length: int) -> memoryview:
    """Read-only view of ``length`` bytes (at most ``_ZERO_REGION_BYTES``)
    of the shared zero region."""
    global _zero_region
    if _zero_region is None:
        import mmap

        region = mmap.mmap(-1, _ZERO_REGION_BYTES, flags=mmap.MAP_PRIVATE)
        _zero_region = memoryview(region).toreadonly()
    return _zero_region[:length]


#: Frame-table entry of a contiguous page no caller has touched yet:
#: allocated and pinned once, with no :class:`Frame` built.
_UNTOUCHED = object()


def _range_error(offset: int, length: int) -> ValueError:
    """The error for a frame access outside ``[0, PAGE_SIZE)``; callers
    test the bounds inline, since frame accesses are per page."""
    return ValueError(
        f"frame access out of range: offset={offset} length={length}"
    )


def _zero_view(offset: int, length: int) -> memoryview:
    """View of ``length`` bytes at ``offset`` of the shared zero page."""
    if offset < 0 or length < 0 or offset + length > PAGE_SIZE:
        raise _range_error(offset, length)
    if length == PAGE_SIZE:
        return _ZERO_VIEW
    return _ZERO_VIEW[offset : offset + length]


class Frame:
    """One physical page frame: PFN, pin count, lazy byte storage.

    Storage supports copy-on-write detach: :meth:`view` hands out
    zero-copy read-only views (the spans a :class:`repro.mem.sglist.
    PayloadRef` is made of) and marks the frame *shared*; the next
    :meth:`write` then re-allocates the backing store first, so views
    taken earlier — e.g. a payload still in flight on the simulated
    wire — keep seeing the bytes as they were at gather time.
    """

    __slots__ = ("pfn", "pin_count", "_data", "_shared")

    def __init__(self, pfn: int, pin_count: int = 0):
        self.pfn = pfn
        self.pin_count = pin_count
        self._data: Optional[bytearray] = None
        self._shared = False

    @property
    def phys_addr(self) -> int:
        """Physical base address of this frame."""
        return self.pfn << PAGE_SHIFT

    @property
    def pinned(self) -> bool:
        return self.pin_count > 0

    def pin(self) -> None:
        """Take a pin reference (page cannot be freed/migrated while held)."""
        self.pin_count += 1

    def unpin(self) -> None:
        """Drop a pin reference; unbalanced unpin is a caller bug."""
        if self.pin_count <= 0:
            raise PinningError(f"unpin of unpinned frame pfn={self.pfn}")
        self.pin_count -= 1

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` within the frame (a real,
        counted host copy; prefer :meth:`view` on the data path)."""
        if offset < 0 or length < 0 or offset + length > PAGE_SIZE:
            raise _range_error(offset, length)
        if length > 0:
            HOST_COPIES.copies += 1
            HOST_COPIES.nbytes += length
        if self._data is None:
            return _ZERO_PAGE[offset : offset + length]
        return bytes(self._data[offset : offset + length])

    def view(self, offset: int, length: int) -> memoryview:
        """Zero-copy read-only view of ``length`` bytes at ``offset``.

        The frame is marked shared; a later :meth:`write` detaches the
        storage (copy-on-write) so the view stays stable.  An unwritten
        frame returns a slice of the shared zero page (a snapshot of its
        current all-zero content, consistent with COW semantics); a
        full-page view is the shared view itself.
        """
        if self._data is None:
            return _zero_view(offset, length)
        if offset < 0 or length < 0 or offset + length > PAGE_SIZE:
            raise _range_error(offset, length)
        self._shared = True
        return memoryview(self._data).toreadonly()[offset : offset + length]

    def write(self, offset: int, data: "bytes | bytearray | memoryview") -> None:
        """Write ``data`` at ``offset`` within the frame.

        Zeros written into a frame with no storage are elided: the
        frame already reads as zeros (see the module docstring)."""
        nbytes = len(data)
        if offset < 0 or offset + nbytes > PAGE_SIZE:
            raise _range_error(offset, nbytes)
        if self._data is None:
            if _ZERO_PAGE.startswith(data):
                return
            self._data = bytearray(PAGE_SIZE)
        elif self._shared:
            # Copy-on-write detach: outstanding views keep the old
            # storage; this write (and later ones) get fresh storage.
            self._data = bytearray(self._data)
            self._shared = False
            HOST_COPIES.count(PAGE_SIZE)
        if nbytes > 0:
            HOST_COPIES.copies += 1
            HOST_COPIES.nbytes += nbytes
        self._data[offset : offset + nbytes] = data


class PhysicalMemory:
    """Fixed-size pool of frames with O(log n) alloc/free.

    The free pool is a sorted list of coalesced *free runs* — maximal
    intervals ``[start, end)`` of contiguous free PFNs, held as the
    parallel arrays ``_run_starts``/``_run_ends``.  Single-frame
    allocation takes the head of the lowest run (the deterministic
    lowest-PFN policy the old ``min()``-over-a-set implementation had,
    without the O(n) scan); ``free`` re-inserts by binary search and
    coalesces with both neighbours; ``alloc_contiguous`` serves
    kmalloc-style requests by walking the run list for the lowest run
    long enough — the run list is tiny compared to the frame count, so
    this replaces the old sort-everything-per-call scan.

    ``_frames[pfn]`` is the page's :class:`Frame`, ``_UNTOUCHED`` for a
    contiguous page with no ``Frame`` yet, or ``None`` when free.
    """

    def __init__(self, total_frames: int):
        if total_frames < 1:
            raise ValueError(f"need at least 1 frame, got {total_frames}")
        self.total_frames = total_frames
        self._frames: list = []
        self._run_starts: list[int] = [0]
        self._run_ends: list[int] = [total_frames]
        self._free_count = total_frames
        self._asids = itertools.count(1)

    @property
    def free_frames(self) -> int:
        return self._free_count

    @property
    def allocated_frames(self) -> int:
        return self.total_frames - self._free_count

    def next_asid(self) -> int:
        """Next address-space id on this host (asids count from 1 per
        :class:`PhysicalMemory`, i.e. per host)."""
        return next(self._asids)

    def free_runs(self) -> list[tuple[int, int]]:
        """Snapshot of the free pool as ``(start, end)`` half-open runs."""
        return list(zip(self._run_starts, self._run_ends))

    def alloc(self) -> Frame:
        """Allocate one frame (lowest free PFN, deterministic)."""
        starts = self._run_starts
        if not starts:
            raise OutOfMemory("no free physical frames")
        pfn = starts[0]
        if pfn + 1 == self._run_ends[0]:
            del starts[0]
            del self._run_ends[0]
        else:
            starts[0] = pfn + 1
        self._free_count -= 1
        frame = Frame(pfn)
        frames = self._frames
        # Every PFN below the lowest free one is allocated, so ``pfn``
        # is at most one past the end of the table.
        if pfn == len(frames):
            frames.append(frame)
        else:
            frames[pfn] = frame
        return frame

    def alloc_contiguous(self, count: int) -> int:
        """Allocate ``count`` physically adjacent pages (kmalloc model),
        pinned once from birth; returns the first PFN.

        No :class:`Frame` is built: :meth:`frame` builds each page's on
        first lookup (see the module docstring)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if count > self._free_count:
            raise OutOfMemory(f"need {count} frames, only {self._free_count} free")
        starts, ends = self._run_starts, self._run_ends
        for i, start in enumerate(starts):
            if ends[i] - start >= count:
                if start + count == ends[i]:
                    del starts[i]
                    del ends[i]
                else:
                    starts[i] = start + count
                self._free_count -= count
                table = self._frames
                if start + count > len(table):
                    table.extend([None] * (start + count - len(table)))
                table[start : start + count] = [_UNTOUCHED] * count
                return start
        raise OutOfMemory(f"no physically contiguous run of {count} frames")

    def free(self, frame: Frame) -> None:
        """Return a frame to the pool; pinned frames cannot be freed."""
        if frame.pinned:
            raise PinningError(f"freeing pinned frame pfn={frame.pfn}")
        pfn = frame.pfn
        table = self._frames
        if not 0 <= pfn < len(table) or table[pfn] is not frame:
            raise ValueError(f"double free of frame pfn={pfn}")
        self._release(pfn)

    def unpin_free(self, pfns) -> None:
        """Drop one pin from each page of ``pfns`` and free the pages it
        leaves unpinned (``kfree``).  An untouched page goes back to the
        pool without a :class:`Frame` being built."""
        for pfn in pfns:
            entry = self._entry(pfn)
            if entry is _UNTOUCHED:
                self._release(pfn)
            else:
                entry.unpin()
                if not entry.pinned:
                    self.free(entry)

    def _release(self, pfn: int) -> None:
        """Clear an allocated PFN's slot and coalesce it into the free
        runs."""
        self._frames[pfn] = None
        starts, ends = self._run_starts, self._run_ends
        i = bisect_right(starts, pfn)
        merge_left = i > 0 and ends[i - 1] == pfn
        merge_right = i < len(starts) and starts[i] == pfn + 1
        if merge_left and merge_right:
            ends[i - 1] = ends[i]
            del starts[i]
            del ends[i]
        elif merge_left:
            ends[i - 1] = pfn + 1
        elif merge_right:
            starts[i] = pfn
        else:
            starts.insert(i, pfn)
            ends.insert(i, pfn + 1)
        self._free_count += 1

    def _entry(self, pfn: int):
        """An allocated PFN's table entry: its :class:`Frame`, or
        ``_UNTOUCHED``."""
        table = self._frames
        if 0 <= pfn < len(table):
            entry = table[pfn]
            if entry is not None:
                return entry
        raise ValueError(f"pfn {pfn} is not an allocated frame")

    def frame(self, pfn: int) -> Frame:
        """Look up an allocated frame by PFN, building an untouched
        contiguous page's :class:`Frame` (pinned once) on first lookup."""
        table = self._frames
        if 0 <= pfn < len(table):
            frame = table[pfn]
            if frame is _UNTOUCHED:
                frame = table[pfn] = Frame(pfn, pin_count=1)
            if frame is not None:
                return frame
        raise ValueError(f"pfn {pfn} is not an allocated frame")

    def frame_at_phys(self, phys_addr: int) -> Frame:
        """Look up the allocated frame containing physical address."""
        return self.frame(phys_addr >> PAGE_SHIFT)

    # -- raw physical-address data access (what a DMA engine does) --------

    def read_phys(self, phys_addr: int, length: int) -> bytes:
        """Read bytes starting at a physical address, crossing frames."""
        if length <= 0:
            return b""
        offset = phys_addr & (PAGE_SIZE - 1)
        if offset + length <= PAGE_SIZE:
            # Fast path: the whole range lives in one frame — a single
            # slice, no chunk list, no join.
            return self.frame(phys_addr >> PAGE_SHIFT).read(offset, length)
        chunks = []
        addr = phys_addr
        remaining = length
        while remaining > 0:
            frame = self.frame(addr >> PAGE_SHIFT)
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(remaining, PAGE_SIZE - offset)
            chunks.append(frame.read(offset, chunk))
            addr += chunk
            remaining -= chunk
        HOST_COPIES.count(length)  # the join below is a second real copy
        return b"".join(chunks)

    def read_phys_view(self, phys_addr: int, length: int) -> list[memoryview]:
        """Zero-copy chunk views of a physical range — what a DMA gather
        engine reads: one per frame crossed, except that a run of
        untouched pages reads as one view of the shared zero region."""
        views: list[memoryview] = []
        table = self._frames
        addr = phys_addr
        end = phys_addr + length
        while addr < end:
            pfn = addr >> PAGE_SHIFT
            stop = min(end, (pfn + 1) << PAGE_SHIFT)
            if stop < end and 0 <= pfn < len(table) and table[pfn] is _UNTOUCHED:
                stop = self._untouched_run_end(addr, min(end, addr + _ZERO_REGION_BYTES))
                views.append(_zero_run(stop - addr))
            else:
                views.append(self.view_phys(addr, stop - addr))
            addr = stop
        return views

    def _untouched_run_end(self, addr: int, cap: int) -> int:
        """End of the run of untouched pages from ``addr``'s (itself
        untouched), at most ``cap``."""
        table = self._frames
        stop = (addr | (PAGE_SIZE - 1)) + 1
        while stop < cap:
            pfn = stop >> PAGE_SHIFT
            if pfn >= len(table) or table[pfn] is not _UNTOUCHED:
                return stop
            stop += PAGE_SIZE
        return cap

    def view_phys(self, phys_addr: int, length: int) -> memoryview:
        """Zero-copy view of ``length`` bytes at a physical address
        within one frame; an untouched page reads the shared zero page
        without building its :class:`Frame`."""
        pfn = phys_addr >> PAGE_SHIFT
        table = self._frames
        if 0 <= pfn < len(table):
            entry = table[pfn]
            if entry is _UNTOUCHED:
                return _zero_view(phys_addr & (PAGE_SIZE - 1), length)
            if entry is not None:
                return entry.view(phys_addr & (PAGE_SIZE - 1), length)
        raise ValueError(f"pfn {pfn} is not an allocated frame")

    def write_phys(self, phys_addr: int, data: "bytes | bytearray | memoryview") -> None:
        """Write bytes starting at a physical address, crossing frames.

        A view of the zero region (a gathered run of untouched pages)
        skips each run of untouched pages it lands on in one step: those
        pages already read as zeros.  Any other data is written page by
        page, and a page's zeros are still elided by content."""
        table = self._frames
        view = memoryview(data)
        zeros = _zero_region is not None and view.obj is _zero_region.obj
        end = phys_addr + len(view)
        addr = phys_addr
        while addr < end:
            pfn = addr >> PAGE_SHIFT
            frame = table[pfn] if 0 <= pfn < len(table) else None
            if frame is None:  # _entry's check, inlined: one per page
                raise ValueError(f"pfn {pfn} is not an allocated frame")
            if zeros and frame is _UNTOUCHED:
                addr = self._untouched_run_end(addr, end)
                continue
            offset = addr & (PAGE_SIZE - 1)
            stop = addr - offset + PAGE_SIZE
            if stop >= end:
                # The rest fits this frame: the common single-frame
                # write passes the caller's view through unsliced.
                piece = view if addr == phys_addr else view[addr - phys_addr:]
                stop = end
            else:
                piece = view[addr - phys_addr:stop - phys_addr]
            addr = stop
            if frame is _UNTOUCHED:
                if _ZERO_PAGE.startswith(piece):
                    continue  # an untouched page already reads as zeros
                frame = self.frame(pfn)
            frame.write(offset, piece)

    def write_phys_sg(self, sg, payload) -> int:
        """Scatter a :class:`repro.mem.sglist.PayloadRef` across a
        physical segment list — what a DMA scatter engine does.

        ``sg`` is any iterable of segments with ``phys_addr``/``length``
        (duck-typed to avoid a circular import with ``layout``).
        Writing stops when either the payload or the segments run out;
        returns the bytes written.
        """
        segs = iter(sg)
        seg = next(segs, None)
        seg_off = 0
        written = 0
        for chunk in payload.chunks():
            view = memoryview(chunk)
            size = len(view)
            pos = 0
            while pos < size and seg is not None:
                n = seg.length - seg_off
                if n > size - pos:
                    n = size - pos
                self.write_phys(seg.phys_addr + seg_off,
                                view if n == size else view[pos:pos + n])
                written += n
                seg_off += n
                pos += n
                if seg_off == seg.length:
                    seg = next(segs, None)
                    seg_off = 0
            if seg is None:
                break
        return written
