"""MemFs: an in-memory filesystem (the ext2 stand-in).

Plays two roles:

* the **server-side backing store** behind the ORFA/ORFS server (the
  paper's server runs Ext2 under the VFS, figure 2(b)); the evaluation
  runs with a warm server cache, so an in-memory store with CPU-copy
  costs preserves the measured behaviour (network-bound transfers);
* a **local filesystem** for exercising the VFS paths in tests without
  any network.

Optionally a ``disk_latency_ns`` can be charged on first-touch of a
page, to model cold-cache physical reads (off by default, matching the
paper's warm-cache methodology).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..errors import Eexist, Einval, Eisdir, Enoent, Enotdir, Enotempty
from ..hw.cpu import Cpu
from ..mem.sglist import PayloadRef
from ..sim import Environment
from ..units import PAGE_SIZE
from .vfs import InodeAttrs, UserBuffer

_OP_COST_NS = 600  # hash/btree bookkeeping per metadata operation


@dataclass
class _MemInode:
    inode_id: int
    is_dir: bool
    data: bytearray = field(default_factory=bytearray)
    children: dict[str, int] = field(default_factory=dict)  # dirs only

    @property
    def size(self) -> int:
        return len(self.data)

    def attrs(self) -> InodeAttrs:
        return InodeAttrs(inode_id=self.inode_id, size=self.size, is_dir=self.is_dir)


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

    def unlink(self, parent_id: int, name: str):
        yield from self.cpu.work(_OP_COST_NS)
        parent = self._dir(parent_id)
        child_id = parent.children.get(name)
        if child_id is None:
            raise Enoent(name)
        child = self._inodes[child_id]
        if child.is_dir and child.children:
            raise Enotempty(name)
        del parent.children[name]
        del self._inodes[child_id]

    def readdir(self, inode_id: int):
        yield from self.cpu.work(_OP_COST_NS)
        return sorted(self._dir(inode_id).children)

    def truncate(self, inode_id: int, size: int):
        yield from self.cpu.work(_OP_COST_NS)
        inode = self._file(inode_id)
        if size < len(inode.data):
            del inode.data[size:]
        else:
            inode.data.extend(bytes(size - len(inode.data)))

    # -- data: page interface (buffered path) -----------------------------------

    def readpage(self, inode_id: int, index: int, frame):
        inode = self._file(inode_id)
        yield from self._maybe_disk(inode_id, index)
        start = index * PAGE_SIZE
        chunk = bytes(inode.data[start : start + PAGE_SIZE])
        yield from self.cpu.copy(max(1, len(chunk)))
        if chunk:
            frame.write(0, chunk)
        if len(chunk) < PAGE_SIZE:
            frame.write(len(chunk), bytes(PAGE_SIZE - len(chunk)))
        return len(chunk)

    def writepage(self, inode_id: int, index: int, frame, length: int):
        inode = self._file(inode_id)
        yield from self._maybe_disk(inode_id, index)
        yield from self.cpu.copy(length)
        start = index * PAGE_SIZE
        end = start + length
        if len(inode.data) < end:
            inode.data.extend(bytes(end - len(inode.data)))
        inode.data[start:end] = frame.read(0, length)
        return length

    # -- data: direct interface ---------------------------------------------------

    def direct_read(self, inode_id: int, offset: int, buf: UserBuffer):
        inode = self._file(inode_id)
        n = min(buf.length, max(0, inode.size - offset))
        yield from self.cpu.copy(n)
        buf.space.write_bytes(buf.vaddr, bytes(inode.data[offset : offset + n]))
        return n

    def direct_write(self, inode_id: int, offset: int, buf: UserBuffer):
        inode = self._file(inode_id)
        yield from self.cpu.copy(buf.length)
        data = buf.space.read_bytes(buf.vaddr, buf.length)
        end = offset + len(data)
        if len(inode.data) < end:
            inode.data.extend(bytes(end - len(inode.data)))
        inode.data[offset:end] = data
        return len(data)

    # -- raw access for servers (no VFS in between) ---------------------------------

    def read_raw(self, inode_id: int, offset: int, length: int) -> bytes:
        """Zero-cost data peek used by protocol servers that charge their
        own copy/transfer costs explicitly."""
        inode = self._file(inode_id)
        return bytes(inode.data[offset : offset + length])

    def write_raw(self, inode_id: int, offset: int, data) -> int:
        """Accepts ``bytes`` or a :class:`repro.mem.PayloadRef`; payload
        chunks are deposited one by one, never joined."""
        inode = self._file(inode_id)
        end = offset + len(data)
        if len(inode.data) < end:
            inode.data.extend(bytes(end - len(inode.data)))
        if isinstance(data, PayloadRef):
            pos = offset
            for chunk in data.chunks():
                inode.data[pos : pos + len(chunk)] = chunk
                pos += len(chunk)
        else:
            inode.data[offset:end] = data
        return len(data)

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
