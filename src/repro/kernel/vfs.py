"""The VFS: inodes, dentry cache, file descriptors, read/write paths.

This is the layer the paper's figure 2(b) shows between the application
and the ORFS client: system calls enter here, the dentry/inode caches
absorb metadata traffic (the reason ORFS beats user-space ORFA on
metadata, section 3.1), and the two data paths diverge:

* **buffered** (default): per-page traffic through the
  :class:`repro.kernel.pagecache.PageCache` — misses call the owning
  filesystem's ``readpage``; the user copy in/out is charged to the CPU.
  Writes dirty cache pages and are written back on ``fsync``/``close``.
* **direct** (``O_DIRECT``): bypasses the page cache entirely and hands
  the user buffer to the filesystem's ``direct_read``/``direct_write``
  (paper section 2.3.2) — for ORFS that becomes a zero-copy network
  transfer straight into user memory.

All operations that consume simulated time are generator processes;
cost constants come from :class:`repro.hw.params.CpuParams`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Protocol

from .. import obs
from ..errors import Ebadf, Einval, Eisdir, Enoent
from ..hw.cpu import Cpu
from ..mem.addrspace import AddressSpace
from ..sim import Environment
from ..units import PAGE_SIZE
from .pagecache import PageCache


class OpenFlags(enum.Flag):
    """open(2) flags the model distinguishes."""

    RDONLY = 0
    WRONLY = enum.auto()
    RDWR = enum.auto()
    CREAT = enum.auto()
    TRUNC = enum.auto()
    DIRECT = enum.auto()  # O_DIRECT: bypass the page cache


@dataclass
class InodeAttrs:
    """File metadata as the VFS caches it."""

    inode_id: int
    size: int
    is_dir: bool = False


@dataclass
class UserBuffer:
    """A user-space buffer handed through a syscall."""

    space: AddressSpace
    vaddr: int
    length: int


class FileSystemOps(Protocol):
    """What a mounted filesystem implements.

    Every method is a simulation generator (``yield from`` it); return
    values arrive via StopIteration.  ``fs_name`` labels the mount.
    """

    fs_name: str

    def lookup(self, parent_id: int, name: str): ...
    def getattr(self, inode_id: int): ...
    def create(self, parent_id: int, name: str): ...
    def mkdir(self, parent_id: int, name: str): ...
    def readdir(self, inode_id: int): ...
    def truncate(self, inode_id: int, size: int): ...
    def root_inode(self) -> int: ...
    def readpage(self, inode_id: int, index: int, frame): ...
    def writepage(self, inode_id: int, index: int, frame, length: int): ...
    def direct_read(self, inode_id: int, offset: int, buf: UserBuffer): ...
    def direct_write(self, inode_id: int, offset: int, buf: UserBuffer): ...


@dataclass
class _OpenFile:
    fs: FileSystemOps
    attrs: InodeAttrs
    flags: OpenFlags
    offset: int = 0
    path: str = ""


@dataclass
class AioRequest:
    """One in-flight asynchronous I/O operation (an iocb)."""

    event: object = None  # fires when the transfer completes
    nbytes: int = 0
    error: Optional[Exception] = None

    @property
    def completed(self) -> bool:
        return self.event.processed


_DENTRY_HIT_NS = 200  # hash lookup per component on a warm dcache


class Vfs:
    """One node's virtual filesystem switch."""

    def __init__(self, env: Environment, cpu: Cpu, pagecache: PageCache):
        self.env = env
        self.cpu = cpu
        self.pagecache = pagecache
        self._mounts: dict[str, FileSystemOps] = {}
        # dentry cache: absolute path -> (fs, InodeAttrs)
        self._dentries: dict[str, tuple[FileSystemOps, InodeAttrs]] = {}
        self._files: dict[int, _OpenFile] = {}
        self._next_fd = 3
        self._m_hits = obs.counter("vfs.dentry.hits", cpu=cpu.name)
        self._m_misses = obs.counter("vfs.dentry.misses", cpu=cpu.name)

    # -- mounting ------------------------------------------------------------

    def mount(self, mountpoint: str, fs: FileSystemOps) -> None:
        """Attach a filesystem under ``mountpoint`` (e.g. '/orfs')."""
        mountpoint = mountpoint.rstrip("/") or "/"
        if mountpoint in self._mounts:
            raise Einval(f"{mountpoint} already mounted")
        self._mounts[mountpoint] = fs

    def _resolve_mount(self, path: str) -> tuple[FileSystemOps, str]:
        """Longest-prefix mount match; returns (fs, fs-relative path)."""
        if not path.startswith("/"):
            raise Einval(f"path must be absolute: {path!r}")
        best = None
        for mp in self._mounts:
            if path == mp or path.startswith(mp + "/") or mp == "/":
                if best is None or len(mp) > len(best):
                    best = mp
        if best is None:
            raise Enoent(f"no filesystem mounted for {path!r}")
        rel = path[len(best):].strip("/") if best != "/" else path.strip("/")
        return self._mounts[best], rel

    # -- path resolution -------------------------------------------------------

    def _lookup_path(self, path: str):
        """Generator: resolve ``path`` to (fs, InodeAttrs) via the dcache."""
        fs, rel = self._resolve_mount(path)
        cached = self._dentries.get(path)
        if cached is not None:
            self._m_hits.inc()
            yield from self.cpu.work(_DENTRY_HIT_NS)
            return cached
        self._m_misses.inc()
        parent = fs.root_inode()
        attrs = yield from fs.getattr(parent)
        if rel:
            for component in rel.split("/"):
                attrs = yield from fs.lookup(attrs.inode_id, component)
        self._dentries[path] = (fs, attrs)
        return fs, attrs

    # -- namespace operations ---------------------------------------------------

    def stat(self, path: str):
        """Generator: stat(2)."""
        yield from self.cpu.syscall()
        yield from self.cpu.work(self.cpu.params.vfs_traversal_ns)
        fs, attrs = yield from self._lookup_path(path)
        # Refresh size from cache-coherent open files if any.
        return attrs

    def mkdir(self, path: str):
        """Generator: mkdir(2)."""
        yield from self.cpu.syscall()
        yield from self.cpu.work(self.cpu.params.vfs_traversal_ns)
        parent_path, name = self._split(path)
        fs, parent = yield from self._lookup_path(parent_path)
        attrs = yield from fs.mkdir(parent.inode_id, name)
        self._dentries[path] = (fs, attrs)
        return attrs

    def readdir(self, path: str):
        """Generator: full directory listing."""
        yield from self.cpu.syscall()
        yield from self.cpu.work(self.cpu.params.vfs_traversal_ns)
        fs, attrs = yield from self._lookup_path(path)
        if not attrs.is_dir:
            raise Einval(f"{path} is not a directory")
        names = yield from fs.readdir(attrs.inode_id)
        return names

    # -- open / close ----------------------------------------------------------

    def open(self, path: str, flags: OpenFlags = OpenFlags.RDONLY):
        """Generator: open(2); returns an fd."""
        yield from self.cpu.syscall()
        yield from self.cpu.work(self.cpu.params.vfs_traversal_ns)
        parent_path, name = self._split(path)
        try:
            fs, attrs = yield from self._lookup_path(path)
        except Enoent:
            if not flags & OpenFlags.CREAT:
                raise
            fs, parent = yield from self._lookup_path(parent_path)
            attrs = yield from fs.create(parent.inode_id, name)
            self._dentries[path] = (fs, attrs)
        if attrs.is_dir:
            raise Eisdir(path)
        if flags & OpenFlags.TRUNC:
            yield from fs.truncate(attrs.inode_id, 0)
            self.pagecache.invalidate_inode(attrs.inode_id)
            attrs.size = 0
        fd = self._next_fd
        self._next_fd += 1
        self._files[fd] = _OpenFile(fs=fs, attrs=attrs, flags=flags, path=path)
        return fd

    def close(self, fd: int):
        """Generator: close(2); flushes this file's dirty pages."""
        f = self._file(fd)
        yield from self.cpu.syscall()
        yield from self._writeback(f)
        del self._files[fd]

    def fsync(self, fd: int):
        """Generator: fsync(2)."""
        f = self._file(fd)
        yield from self.cpu.syscall()
        yield from self._writeback(f)

    # -- data paths --------------------------------------------------------------

    def read(self, fd: int, buf: UserBuffer):
        """Generator: read(2) at the file offset; returns bytes read."""
        f = self._file(fd)
        yield from self.cpu.syscall()
        yield from self.cpu.work(self.cpu.params.vfs_traversal_ns)
        if f.flags & OpenFlags.DIRECT:
            n = yield from self._direct_read(f, buf)
        else:
            n = yield from self._buffered_read(f, buf)
        f.offset += n
        return n

    def write(self, fd: int, buf: UserBuffer):
        """Generator: write(2) at the file offset; returns bytes written."""
        f = self._file(fd)
        yield from self.cpu.syscall()
        yield from self.cpu.work(self.cpu.params.vfs_traversal_ns)
        if f.flags & OpenFlags.DIRECT:
            n = yield from self._direct_write(f, buf)
        else:
            n = yield from self._buffered_write(f, buf)
        f.offset += n
        if f.offset > f.attrs.size:
            f.attrs.size = f.offset
        return n

    def seek(self, fd: int, offset: int) -> None:
        """lseek(2) — free of simulated cost (pure bookkeeping)."""
        self._file(fd).offset = offset

    # -- buffered path ------------------------------------------------------------

    #: Pages per backing-store read.  1 = the Linux 2.4 readpage model
    #: ("data transfers are processed per page", paper section 3.3).
    #: Larger values model Linux 2.6's request clustering, "which are
    #: able to combine multiple page-sized accesses in a single request"
    #: — and need the filesystem to implement vectorial ``readpages``.
    read_cluster_pages: int = 1

    def _buffered_read(self, f: _OpenFile, buf: UserBuffer):
        """Per-page walk through the page cache, with optional 2.6-style
        clustering of adjacent missing pages into one readpages call."""
        remaining = min(buf.length, max(0, f.attrs.size - f.offset))
        done = 0
        pos = f.offset
        inode = f.attrs.inode_id
        while remaining > 0:
            index = pos // PAGE_SIZE
            in_page = pos % PAGE_SIZE
            chunk = min(remaining, PAGE_SIZE - in_page)
            page = self.pagecache.find(inode, index)
            if page is not None and not page.uptodate and page.fill_event is not None:
                # Someone else is filling this page: wait on the page lock.
                yield page.fill_event
            elif page is None or not page.uptodate:
                if page is None:
                    page = self.pagecache.add(inode, index)
                cluster = self._missing_run(f, inode, index, page, remaining)
                locks = []
                for p in cluster:
                    p.fill_event = self.env.event("pagelock")
                    locks.append(p.fill_event)
                try:
                    if len(cluster) > 1 and hasattr(f.fs, "readpages"):
                        yield from f.fs.readpages(
                            inode, index, [p.frame for p in cluster])
                    else:
                        yield from f.fs.readpage(inode, index, page.frame)
                finally:
                    for p, lock in zip(cluster, locks):
                        p.uptodate = True
                        p.fill_event = None
                        lock.succeed()
            # copy page-cache -> user buffer ("an additional copy from the
            # page-cache to the application", section 3.3); the modeled
            # copy cost is charged, the host relays page views zero-copy
            yield from self.cpu.copy(chunk)
            buf.space.write_payload(buf.vaddr + done, page.payload(in_page, chunk))
            pos += chunk
            done += chunk
            remaining -= chunk
        return done

    def _missing_run(self, f: _OpenFile, inode: int, index: int, first,
                     remaining: int) -> list:
        """The run of consecutive not-uptodate pages starting at ``index``
        (bounded by the cluster window, the request and the file size)."""
        window = min(
            self.read_cluster_pages,
            -(-remaining // PAGE_SIZE),
            -(-max(0, f.attrs.size - index * PAGE_SIZE) // PAGE_SIZE),
        )
        run = [first]
        for i in range(index + 1, index + window):
            page = self.pagecache.find(inode, i)
            if page is not None and (page.uptodate or page.fill_event is not None):
                break  # resident, or already being filled by someone else
            if page is None:
                page = self.pagecache.add(inode, i)
            run.append(page)
        return run

    def _buffered_write(self, f: _OpenFile, buf: UserBuffer):
        remaining = buf.length
        done = 0
        pos = f.offset
        inode = f.attrs.inode_id
        while remaining > 0:
            index = pos // PAGE_SIZE
            in_page = pos % PAGE_SIZE
            chunk = min(remaining, PAGE_SIZE - in_page)
            page = self.pagecache.find(inode, index)
            if page is None:
                page = self.pagecache.add(inode, index)
                # Read-modify-write: if the page holds any existing file
                # content (its start lies below EOF) and this write does
                # not cover the whole page, fetch it first — otherwise
                # writeback would clobber the uncovered bytes with zeros.
                covers_existing = index * PAGE_SIZE < f.attrs.size
                overwrites_fully = in_page == 0 and chunk == PAGE_SIZE
                if covers_existing and not overwrites_fully:
                    yield from f.fs.readpage(inode, index, page.frame)
                page.uptodate = True
            yield from self.cpu.copy(chunk)
            page.fill(in_page, buf.space.read_payload(buf.vaddr + done, chunk))
            page.dirty = True
            pos += chunk
            done += chunk
            remaining -= chunk
        return done

    def _writeback(self, f: _OpenFile):
        """Flush this file's dirty pages via the filesystem's writepage."""
        size = f.attrs.size
        for page in self.pagecache.dirty_pages(f.attrs.inode_id):
            length = min(PAGE_SIZE, size - page.index * PAGE_SIZE)
            if length <= 0:
                page.dirty = False
                continue
            yield from f.fs.writepage(f.attrs.inode_id, page.index, page.frame, length)
            page.dirty = False

    # -- asynchronous I/O (the Linux 2.6 feature of paper section 2.1) ---------

    #: submitting one iocb into the kernel's AIO context
    _AIO_SUBMIT_NS = 900

    def aio_read(self, fd: int, buf: UserBuffer, offset: int):
        """Generator: io_submit one read at an explicit offset.

        Returns an :class:`AioRequest` immediately after submission; the
        actual transfer proceeds concurrently (several outstanding AIO
        requests against an O_DIRECT ORFS file pipeline on the wire —
        the "future asynchronous file requests" of paper section 5.2).
        """
        f = self._file(fd)
        yield from self.cpu.syscall()
        yield from self.cpu.work(self._AIO_SUBMIT_NS)
        req = AioRequest(event=self.env.event("aio"))
        self.env.process(self._aio_run(f, buf, offset, req), name="aio.read")
        return req

    def _aio_run(self, f: _OpenFile, buf: UserBuffer, offset: int,
                 req: "AioRequest"):
        # Positioned I/O: operate on a shadow of the open file so the
        # shared offset is untouched (pread semantics).
        shadow = _OpenFile(fs=f.fs, attrs=f.attrs, flags=f.flags,
                           offset=offset, path=f.path)
        yield from self.cpu.work(self.cpu.params.vfs_traversal_ns)
        try:
            if f.flags & OpenFlags.DIRECT:
                n = yield from self._direct_read(shadow, buf)
            else:
                n = yield from self._buffered_read(shadow, buf)
        except Exception as exc:  # surfaced through io_getevents
            req.error = exc
            req.event.succeed()
            return
        req.nbytes = n
        req.event.succeed()

    def aio_wait(self, requests):
        """Generator: io_getevents — wait for all of ``requests``."""
        pending = [r.event for r in requests if not r.event.processed]
        if pending:
            yield self.env.all_of(pending)
        yield from self.cpu.syscall()
        for r in requests:
            if r.error is not None:
                raise r.error
        return [r.nbytes for r in requests]

    # -- direct path ----------------------------------------------------------------

    _ODIRECT_SETUP_NS = 1500  # 2.4-era bio/alignment bookkeeping per request

    def _direct_read(self, f: _OpenFile, buf: UserBuffer):
        self._check_direct_alignment(f, buf)
        yield from self.cpu.work(self._ODIRECT_SETUP_NS)
        length = min(buf.length, max(0, f.attrs.size - f.offset))
        if length == 0:
            return 0
        n = yield from f.fs.direct_read(
            f.attrs.inode_id, f.offset, UserBuffer(buf.space, buf.vaddr, length)
        )
        return n

    def _direct_write(self, f: _OpenFile, buf: UserBuffer):
        self._check_direct_alignment(f, buf)
        yield from self.cpu.work(self._ODIRECT_SETUP_NS)
        n = yield from f.fs.direct_write(f.attrs.inode_id, f.offset, buf)
        return n

    def _check_direct_alignment(self, f: _OpenFile, buf: UserBuffer) -> None:
        # Linux 2.4 O_DIRECT demands sector alignment of offset and address.
        if f.offset % 512 or buf.vaddr % 512:
            raise Einval(
                f"O_DIRECT requires 512-byte alignment "
                f"(offset={f.offset}, vaddr={buf.vaddr:#x})"
            )

    # -- helpers ---------------------------------------------------------------------

    def _file(self, fd: int) -> _OpenFile:
        f = self._files.get(fd)
        if f is None:
            raise Ebadf(f"fd {fd}")
        return f

    @staticmethod
    def _split(path: str) -> tuple[str, str]:
        path = path.rstrip("/")
        i = path.rfind("/")
        parent = path[:i] or "/"
        return parent, path[i + 1:]
