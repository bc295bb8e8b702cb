"""The operating-system substrate: page cache, VFS, VMA SPY, MemFs.

This package models the Linux 2.4 machinery the paper's in-kernel
applications live in:

* :mod:`repro.kernel.pagecache` — per-inode page cache whose pages are
  *pinned physical frames not mapped in virtual memory*, the property
  that makes memory registration the wrong tool for buffered file access
  (paper section 2.3.1).
* :mod:`repro.kernel.vfs` — inodes, dentry cache, file descriptors, and
  the generic buffered/direct read-write paths that a filesystem client
  (ORFS, or the local :mod:`repro.kernel.memfs`) plugs into.
* :mod:`repro.kernel.vmaspy` — the paper's generic infrastructure for
  notifying kernel modules of address-space modifications (section 3.2),
  built over :class:`repro.mem.AddressSpace` listeners.
* :mod:`repro.kernel.memfs` — a local in-memory filesystem behind the
  same VFS paths.
"""

from .memfs import MemFs
from .pagecache import PageCache
from .vfs import FileSystemOps, OpenFlags, Vfs
from .vmaspy import VmaSpy

__all__ = [
    "FileSystemOps",
    "MemFs",
    "OpenFlags",
    "PageCache",
    "Vfs",
    "VmaSpy",
]
