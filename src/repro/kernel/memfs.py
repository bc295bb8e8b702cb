"""MemFs: an in-memory filesystem (the ext2 stand-in).

Plays two roles:

* the **server-side backing store** behind the ORFA/ORFS server (the
  paper's server runs Ext2 under the VFS, figure 2(b)); the evaluation
  runs with a warm server cache, so an in-memory store with CPU-copy
  costs preserves the measured behaviour (network-bound transfers);
* a **local filesystem** for exercising the VFS paths in tests without
  any network.

File data is stored sparsely, one ``bytearray`` per page that holds a
non-zero byte, keyed by page index; a page with no entry reads as the
shared zero page of :mod:`repro.mem.phys`, as Linux backs every hole in
a sparse file with its one zero page.  Writing all-zero bytes into a
page with no entry is elided (the content test ``Frame.write`` uses),
and a page that zeros overwrite or a truncation clears loses its entry,
so a page has storage exactly when it holds a non-zero byte.  A server
file or NBD device pre-sized with :meth:`MemFs.truncate_raw` therefore
costs the host nothing until something non-zero is written into it.
Only the host store is sparse: every ``cpu.copy``/``cpu.work`` charge
is computed from the file size and the request, as for a dense file.

Optionally a ``disk_latency_ns`` can be charged on first-touch of a
page, to model cold-cache physical reads (off by default, matching the
paper's warm-cache methodology).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..errors import Eexist, Einval, Eisdir, Enoent, Enotdir
from ..hw.cpu import Cpu
from ..mem.phys import _ZERO_PAGE
from ..mem.sglist import PayloadRef
from ..sim import Environment
from ..units import PAGE_SIZE
from .vfs import InodeAttrs, UserBuffer

_OP_COST_NS = 600  # hash/btree bookkeeping per metadata operation


@dataclass
class _MemInode:
    inode_id: int
    is_dir: bool
    size: int = 0
    #: page index -> storage; only pages holding a non-zero byte
    pages: dict[int, bytearray] = field(default_factory=dict)
    children: dict[str, int] = field(default_factory=dict)  # dirs only

    def attrs(self) -> InodeAttrs:
        return InodeAttrs(inode_id=self.inode_id, size=self.size, is_dir=self.is_dir)

    def read(self, offset: int, length: int) -> bytes:
        """The file's bytes in ``[offset, offset+length)``, clipped to
        its size; holes read as zeros."""
        end = min(offset + length, self.size)
        if offset >= end:
            return b""
        parts = []
        pos = offset
        while pos < end:
            index, lo = divmod(pos, PAGE_SIZE)
            hi = min(PAGE_SIZE, lo + end - pos)
            page = self.pages.get(index)
            parts.append(_ZERO_PAGE[lo:hi] if page is None
                         else memoryview(page)[lo:hi])
            pos += hi - lo
        if len(parts) == 1:
            return bytes(parts[0])
        return b"".join(parts)

    def write(self, offset: int, data) -> None:
        """Store ``data`` (bytes-like, or a :class:`PayloadRef` whose
        chunks are deposited one by one, never joined) at ``offset``,
        growing the file to its end."""
        end = offset + len(data)
        if end > self.size:
            self.size = end
        for chunk in data.chunks() if isinstance(data, PayloadRef) else (data,):
            self._write_chunk(offset, memoryview(chunk))
            offset += len(chunk)

    def _write_chunk(self, offset: int, view: memoryview) -> None:
        pos, end = offset, offset + len(view)
        while pos < end:
            index, lo = divmod(pos, PAGE_SIZE)
            hi = min(PAGE_SIZE, lo + end - pos)
            piece = view[pos - offset : pos - offset + hi - lo]
            pos += hi - lo
            zeros = _ZERO_PAGE.startswith(piece)
            page = self.pages.get(index)
            if page is None:
                if zeros:
                    continue  # a hole already reads as zeros
                page = self.pages[index] = bytearray(PAGE_SIZE)
            page[lo:hi] = piece
            if zeros and page == _ZERO_PAGE:
                del self.pages[index]  # zeros cleared it: a hole again

    def truncate(self, size: int) -> None:
        """Set the size; a shrink drops the pages past the new end and
        zeroes the tail of the last partial page, so a later grow reads
        zeros."""
        if size < self.size:
            last, tail = divmod(size, PAGE_SIZE)
            for index in [i for i in self.pages if i >= last]:
                page = self.pages[index]
                if index == last and tail:
                    page[tail:] = _ZERO_PAGE[tail:]
                    if page != _ZERO_PAGE:
                        continue
                del self.pages[index]
        self.size = size


class MemFs:
    """In-memory tree of directories and regular files."""

    fs_name = "memfs"

    def __init__(self, env: Environment, cpu: Cpu, disk_latency_ns: int = 0):
        self.env = env
        self.cpu = cpu
        self.disk_latency_ns = disk_latency_ns
        self._ids = itertools.count(1)
        root_id = next(self._ids)
        self._inodes: dict[int, _MemInode] = {root_id: _MemInode(root_id, is_dir=True)}
        self._root_id = root_id
        self._touched_pages: set[tuple[int, int]] = set()

    # -- namespace ----------------------------------------------------------

    def root_inode(self) -> int:
        return self._root_id

    def lookup(self, parent_id: int, name: str):
        yield from self.cpu.work(_OP_COST_NS)
        parent = self._dir(parent_id)
        child_id = parent.children.get(name)
        if child_id is None:
            raise Enoent(name)
        return self._inodes[child_id].attrs()

    def getattr(self, inode_id: int):
        yield from self.cpu.work(_OP_COST_NS)
        return self._inode(inode_id).attrs()

    def create(self, parent_id: int, name: str):
        yield from self.cpu.work(_OP_COST_NS)
        return self._new_child(parent_id, name, is_dir=False)

    def mkdir(self, parent_id: int, name: str):
        yield from self.cpu.work(_OP_COST_NS)
        return self._new_child(parent_id, name, is_dir=True)

    def readdir(self, inode_id: int):
        yield from self.cpu.work(_OP_COST_NS)
        return sorted(self._dir(inode_id).children)

    def truncate(self, inode_id: int, size: int):
        yield from self.cpu.work(_OP_COST_NS)
        self._file(inode_id).truncate(size)

    # -- data: page interface (buffered path) -----------------------------------

    def readpage(self, inode_id: int, index: int, frame):
        inode = self._file(inode_id)
        yield from self._maybe_disk(inode_id, index)
        n = min(PAGE_SIZE, max(0, inode.size - index * PAGE_SIZE))
        yield from self.cpu.copy(max(1, n))
        if n:
            page = inode.pages.get(index)
            frame.write(0, (_ZERO_PAGE if page is None else memoryview(page))[:n])
        if n < PAGE_SIZE:
            frame.write(n, _ZERO_PAGE[n:])
        return n

    def writepage(self, inode_id: int, index: int, frame, length: int):
        inode = self._file(inode_id)
        yield from self._maybe_disk(inode_id, index)
        yield from self.cpu.copy(length)
        inode.write(index * PAGE_SIZE, frame.read(0, length))
        return length

    # -- data: direct interface ---------------------------------------------------

    def direct_read(self, inode_id: int, offset: int, buf: UserBuffer):
        inode = self._file(inode_id)
        n = min(buf.length, max(0, inode.size - offset))
        yield from self.cpu.copy(n)
        buf.space.write_bytes(buf.vaddr, inode.read(offset, n))
        return n

    def direct_write(self, inode_id: int, offset: int, buf: UserBuffer):
        inode = self._file(inode_id)
        yield from self.cpu.copy(buf.length)
        data = buf.space.read_bytes(buf.vaddr, buf.length)
        inode.write(offset, data)
        return len(data)

    # -- raw access for servers (no VFS in between) ---------------------------------

    def read_raw(self, inode_id: int, offset: int, length: int) -> bytes:
        """Zero-cost data peek used by protocol servers that charge their
        own copy/transfer costs explicitly."""
        return self._file(inode_id).read(offset, length)

    def write_raw(self, inode_id: int, offset: int, data) -> int:
        """Accepts ``bytes`` or a :class:`repro.mem.PayloadRef`; payload
        chunks are deposited one by one, never joined."""
        self._file(inode_id).write(offset, data)
        return len(data)

    def truncate_raw(self, inode_id: int, size: int) -> None:
        """Zero-cost :meth:`truncate`, for set-up code that pre-sizes a
        file (growing one stores nothing)."""
        self._file(inode_id).truncate(size)

    # -- internals --------------------------------------------------------------------

    def _maybe_disk(self, inode_id: int, index: int):
        if self.disk_latency_ns and (inode_id, index) not in self._touched_pages:
            self._touched_pages.add((inode_id, index))
            yield self.env.timeout(self.disk_latency_ns)
        else:
            return
            yield  # pragma: no cover - keeps this a generator

    def _inode(self, inode_id: int) -> _MemInode:
        inode = self._inodes.get(inode_id)
        if inode is None:
            raise Enoent(f"inode {inode_id}")
        return inode

    def _dir(self, inode_id: int) -> _MemInode:
        inode = self._inode(inode_id)
        if not inode.is_dir:
            raise Enotdir(f"inode {inode_id}")
        return inode

    def _file(self, inode_id: int) -> _MemInode:
        inode = self._inode(inode_id)
        if inode.is_dir:
            raise Eisdir(f"inode {inode_id}")
        return inode

    def _new_child(self, parent_id: int, name: str, is_dir: bool) -> InodeAttrs:
        if not name or "/" in name:
            raise Einval(f"bad name {name!r}")
        parent = self._dir(parent_id)
        if name in parent.children:
            raise Eexist(name)
        inode_id = next(self._ids)
        self._inodes[inode_id] = _MemInode(inode_id, is_dir=is_dir)
        parent.children[name] = inode_id
        return self._inodes[inode_id].attrs()
