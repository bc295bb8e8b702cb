"""The page cache: per-inode radix tree of resident, pinned frames.

Models the property the paper's buffered-access argument rests on
(section 2.3.1): "Pages of the page-cache are already locked in physical
memory and generally not mapped in virtual memory.  But, their physical
address is easy to obtain since a distributed file system client runs in
a kernel context."  Accordingly, cache pages here are raw
:class:`repro.mem.Frame` objects with a pin reference and *no* virtual
mapping — the only sensible way to hand them to a NIC is by physical
address, which is exactly what the paper adds to GM and designs into MX.

Eviction is global LRU over clean pages, bounded by ``max_pages``.
Dirty pages must be written back (by the owning filesystem) before they
become evictable.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..errors import KernelError
from ..mem.phys import Frame, PhysicalMemory
from ..mem.sglist import PayloadRef
from ..units import PAGE_SIZE


@dataclass
class CachedPage:
    """One resident page of one file."""

    inode_id: int
    index: int  # page index within the file
    frame: Frame
    dirty: bool = False
    uptodate: bool = False  # filled from backing store / server
    # Page lock: while one context fills the page, concurrent readers
    # wait on this event instead of issuing duplicate backing reads
    # (lock_page/wait_on_page semantics).
    fill_event: object = None

    def payload(self, offset: int = 0, length: Optional[int] = None) -> PayloadRef:
        """Zero-copy view of part of this page as a :class:`PayloadRef`
        (copy-on-write: a later write to the page detaches first)."""
        if length is None:
            length = PAGE_SIZE - offset
        return PayloadRef.from_chunks([self.frame.view(offset, length)])

    def fill(self, offset: int, payload: PayloadRef) -> None:
        """Scatter a :class:`PayloadRef` into this page at ``offset``."""
        if obs.metrics_enabled():
            obs.counter("pagecache.fills").inc()
        pos = offset
        for chunk in payload.chunks():
            self.frame.write(pos, chunk)
            pos += len(chunk)


class PageCache:
    """Global page cache over all inodes of one node's kernel."""

    def __init__(self, phys: PhysicalMemory, max_pages: int = 65536,
                 name: str = "pagecache"):
        if max_pages < 1:
            raise ValueError(f"max_pages must be >= 1, got {max_pages}")
        self.phys = phys
        self.max_pages = max_pages
        self.name = name
        # (inode_id, index) -> CachedPage, in LRU order (oldest first)
        self._pages: OrderedDict[tuple[int, int], CachedPage] = OrderedDict()
        # Cache accounting on the metrics registry.
        self._m_hits = obs.counter("pagecache.hits", cache=name)
        self._m_misses = obs.counter("pagecache.misses", cache=name)
        self._m_evictions = obs.counter("pagecache.evictions", cache=name)

    def __len__(self) -> int:
        return len(self._pages)

    def find(self, inode_id: int, index: int) -> Optional[CachedPage]:
        """Look up a page; refreshes its LRU position on hit."""
        key = (inode_id, index)
        page = self._pages.get(key)
        if page is None:
            self._m_misses.inc()
            return None
        self._m_hits.inc()
        self._pages.move_to_end(key)
        return page

    def add(self, inode_id: int, index: int) -> CachedPage:
        """Allocate and insert a fresh (not-uptodate) page.

        The frame is pinned for its whole cache residency.  Raises if
        the page already exists — callers must ``find`` first.
        """
        key = (inode_id, index)
        if key in self._pages:
            raise KernelError(f"page {key} already in cache")
        if len(self._pages) >= self.max_pages:
            self._evict_one()
        frame = self.phys.alloc()
        frame.pin()
        page = CachedPage(inode_id, index, frame)
        self._pages[key] = page
        return page

    def remove(self, inode_id: int, index: int) -> None:
        """Drop one page (truncate); dirty pages are discarded too."""
        key = (inode_id, index)
        page = self._pages.pop(key, None)
        if page is None:
            return
        self._release(page)

    def invalidate_inode(self, inode_id: int) -> int:
        """Drop every page of one inode; returns how many were dropped.

        Dirty pages are discarded — callers flush first if they care.
        """
        victims = [k for k in self._pages if k[0] == inode_id]
        for key in victims:
            self._release(self._pages.pop(key))
        return len(victims)

    def dirty_pages(self, inode_id: Optional[int] = None) -> list[CachedPage]:
        """All dirty pages (optionally of one inode), in index order."""
        pages = [
            p
            for p in self._pages.values()
            if p.dirty and (inode_id is None or p.inode_id == inode_id)
        ]
        return sorted(pages, key=lambda p: (p.inode_id, p.index))

    def _evict_one(self) -> None:
        for key, page in self._pages.items():
            if not page.dirty:
                del self._pages[key]
                self._release(page)
                self._m_evictions.inc()
                return
        raise KernelError(
            "page cache full of dirty pages — writeback must run first"
        )

    def _release(self, page: CachedPage) -> None:
        page.frame.unpin()
        if not page.frame.pinned:
            self.phys.free(page.frame)
