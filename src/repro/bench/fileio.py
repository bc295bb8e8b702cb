"""File-access throughput harnesses for the ORFA/ORFS experiments.

The paper's methodology (section 3.3): "We measure the throughput at
the application level when accessing large files sequentially", varying
the application's request size.  These helpers build a client/server
pair, pre-populate a file on the server, and time sequential reads of a
given request size from the application's point of view.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import node_pair
from ..core import GmKernelChannel, MxKernelChannel
from ..hw.params import LinkParams, PCI_XD
from ..kernel import OpenFlags
from ..kernel.vfs import UserBuffer
from ..orfa.client import OrfaClient
from ..orfa.server import OrfaServer
from ..orfs import mount_orfs
from ..sim import Environment
from ..units import MiB, bandwidth_mb_s, page_align_up

SERVER_PORT = 3
CLIENT_PORT = 4

#: bytes transferred per measured point (enough requests to reach the
#: steady state at every request size)
DEFAULT_TOTAL = 2 * MiB


@dataclass
class FileAccessResult:
    """Throughput of one (access mode, request size) measurement."""

    request_size: int
    total_bytes: int
    elapsed_ns: int

    @property
    def throughput_mb_s(self) -> float:
        return bandwidth_mb_s(self.total_bytes, self.elapsed_ns)


@dataclass
class OrfsRig:
    """A built ORFS client/server pair ready for measurements."""

    env: Environment
    client_node: object
    server_node: object
    server: OrfaServer
    client: object
    channel: object


def build_orfs(api: str, link: LinkParams = PCI_XD,
               regcache_enabled: bool = True,
               file_size: int = DEFAULT_TOTAL,
               path: str = "bench") -> OrfsRig:
    """Client node + server node, ORFS mounted, one file pre-populated."""
    env = Environment()
    client_node, server_node = node_pair(env, link=link)
    server = OrfaServer(server_node, SERVER_PORT, api=api)
    env.run(until=server.start())
    if api == "mx":
        channel = MxKernelChannel(client_node, CLIENT_PORT)
    else:
        channel = GmKernelChannel(client_node, CLIENT_PORT,
                                  regcache_enabled=regcache_enabled)
    client = mount_orfs(client_node, channel, (server_node.node_id, SERVER_PORT))
    # Pre-populate server-side (free: the benchmark measures reads).
    attrs_gen = server.fs.create(1, path)
    attrs = env.run(until=env.process(attrs_gen))
    server.fs.truncate_raw(attrs.inode_id, file_size)
    return OrfsRig(env, client_node, server_node, server, client, channel)


def orfs_sequential_read(rig: OrfsRig, request_size: int,
                         total_bytes: int = DEFAULT_TOTAL,
                         direct: bool = False,
                         path: str = "/orfs/bench") -> FileAccessResult:
    """Time sequential reads of ``request_size`` over ``total_bytes``.

    The client page cache is dropped first so every point starts cold
    (the paper's buffered curves measure cache *fill*, not re-reads).
    """
    env = rig.env
    node = rig.client_node
    # Cold start: drop cached pages of every inode.
    for inode in range(1, 64):
        node.pagecache.invalidate_inode(inode)
    flags = OpenFlags.RDONLY | (OpenFlags.DIRECT if direct else OpenFlags.RDONLY)
    result = {}

    def app(env):
        fd = yield from node.vfs.open(path, flags)
        space = node.new_process_space()
        vaddr = space.mmap(page_align_up(max(request_size, 4096)))
        done = 0
        t0 = env.now
        while done < total_bytes:
            n = yield from node.vfs.read(
                fd, UserBuffer(space, vaddr, request_size))
            if n == 0:
                node.vfs.seek(fd, 0)  # wrap: keep reading sequentially
                continue
            done += n
        result["elapsed"] = env.now - t0
        yield from node.vfs.close(fd)

    env.run(until=env.process(app(env)))
    return FileAccessResult(request_size, total_bytes, result["elapsed"])


@dataclass
class OrfaRig:
    """A built user-space ORFA client/server pair."""

    env: Environment
    client_node: object
    server: OrfaServer
    client: OrfaClient
    space: object


def build_orfa(api: str, link: LinkParams = PCI_XD,
               file_size: int = DEFAULT_TOTAL, path: str = "bench") -> OrfaRig:
    """User-space ORFA client against the same server."""
    env = Environment()
    client_node, server_node = node_pair(env, link=link)
    server = OrfaServer(server_node, SERVER_PORT, api=api)
    env.run(until=server.start())
    space = client_node.new_process_space()
    client = OrfaClient(client_node, CLIENT_PORT, space,
                        (server_node.node_id, SERVER_PORT), api=api)
    env.run(until=env.process(client.setup()))
    attrs = env.run(until=env.process(server.fs.create(1, path)))
    server.fs.truncate_raw(attrs.inode_id, file_size)
    return OrfaRig(env, client_node, server, client, space)


def orfa_sequential_read(rig: OrfaRig, request_size: int,
                         total_bytes: int = DEFAULT_TOTAL,
                         path: str = "/bench") -> FileAccessResult:
    """Same measurement through the intercepting user-space library."""
    env = rig.env
    result = {}

    def app(env):
        fd = yield from rig.client.open(path)
        vaddr = rig.space.mmap(page_align_up(max(request_size, 4096)))
        done = 0
        t0 = env.now
        while done < total_bytes:
            n = yield from rig.client.read(fd, vaddr, request_size)
            if n == 0:
                rig.client.seek(fd, 0)
                continue
            done += n
        result["elapsed"] = env.now - t0
        yield from rig.client.close(fd)

    env.run(until=env.process(app(env)))
    return FileAccessResult(request_size, total_bytes, result["elapsed"])
