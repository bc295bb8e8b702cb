"""Background writeback: the kupdate/bdflush daemon.

Without it, dirty page-cache pages persist until ``fsync``/``close`` —
fine for benchmarks, wrong for long-running workloads (a crashed client
would lose everything, and dirty pages are unevictable, so cache
pressure eventually stalls writers; see
:meth:`repro.kernel.pagecache.PageCache._evict_one`).

:class:`WritebackDaemon` is the 2.4-style kupdate: it wakes on an
interval and writes back every dirty page older than ``max_age`` (or
all of them under memory pressure), through the owning filesystem's
``writepage``.  Filesystems register per-inode so the daemon knows whom
to call.
"""

from __future__ import annotations

from ..hw.cpu import Cpu
from ..kernel.pagecache import PageCache
from ..sim import Environment
from ..units import PAGE_SIZE, ms


class WritebackDaemon:
    """The per-node dirty-page flusher."""

    def __init__(self, env: Environment, cpu: Cpu, pagecache: PageCache,
                 interval_ns: int = ms(500), name: str = "kupdated"):
        self.env = env
        self.cpu = cpu
        self.pagecache = pagecache
        self.interval_ns = interval_ns
        self.name = name
        self._owners: dict[int, tuple[object, int]] = {}  # inode -> (fs, size)
        self.pages_written = 0
        self.sweeps = 0
        self._running = True
        env.process(self._loop(), name=name)

    def register_inode(self, inode_id: int, fs, size: int) -> None:
        """Tell the daemon which filesystem writes back ``inode_id``
        (and the current file size, bounding the last partial page)."""
        self._owners[inode_id] = (fs, size)

    def stop(self) -> None:
        """Stop after the current sweep (daemon exits its loop)."""
        self._running = False

    def _loop(self):
        while self._running:
            yield self.env.timeout(self.interval_ns)
            yield from self.sweep()

    def sweep(self):
        """Generator: write back every dirty page with a known owner."""
        self.sweeps += 1
        for page in self.pagecache.dirty_pages():
            owner = self._owners.get(page.inode_id)
            if owner is None:
                continue  # not ours (e.g. a raw block cache with its own flusher)
            fs, size = owner
            length = min(PAGE_SIZE, size - page.index * PAGE_SIZE)
            if length <= 0:
                page.dirty = False
                continue
            yield from fs.writepage(page.inode_id, page.index, page.frame,
                                    length)
            page.dirty = False
            self.pages_written += 1
