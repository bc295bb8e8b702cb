"""Integration tests: ORFS client + ORFA server end-to-end over GM and MX."""

import pytest

from repro.cluster import node_pair
from repro.core import GmKernelChannel, MxKernelChannel
from repro.errors import Enoent
from repro.kernel import MemFs, OpenFlags
from repro.kernel.vfs import UserBuffer
from repro.orfa.server import OrfaServer
from repro.orfs import mount_orfs
from repro.sim import Environment
from repro.units import PAGE_SIZE

SERVER_PORT = 3
CLIENT_PORT = 4

BACKENDS = ["mx", "gm"]


def build(api):
    """Client node + server node with ORFS mounted at /orfs."""
    env = Environment()
    client_node, server_node = node_pair(env)
    server = OrfaServer(server_node, SERVER_PORT, api=api)
    setup = server.start()
    env.run(until=setup)
    if api == "mx":
        channel = MxKernelChannel(client_node, CLIENT_PORT)
    else:
        channel = GmKernelChannel(client_node, CLIENT_PORT)
    client = mount_orfs(client_node, channel, (server_node.node_id, SERVER_PORT))
    return env, client_node, server, client


def run(env, gen):
    return env.run(until=env.process(gen))


def vfs_write(env, node, path, data, direct=False):
    flags = OpenFlags.RDWR | OpenFlags.CREAT
    if direct:
        flags |= OpenFlags.DIRECT

    def script(env):
        fd = yield from node.vfs.open(path, flags)
        space = node.new_process_space()
        vaddr = space.mmap(max(len(data), PAGE_SIZE))
        space.write_bytes(vaddr, data)
        n = yield from node.vfs.write(fd, UserBuffer(space, vaddr, len(data)))
        yield from node.vfs.close(fd)
        return n

    return run(env, script(env))


def vfs_read(env, node, path, length, direct=False, offset=0):
    flags = OpenFlags.RDONLY | (OpenFlags.DIRECT if direct else OpenFlags.RDONLY)

    def script(env):
        fd = yield from node.vfs.open(path, flags)
        node.vfs.seek(fd, offset)
        space = node.new_process_space()
        vaddr = space.mmap(max(length, PAGE_SIZE))
        n = yield from node.vfs.read(fd, UserBuffer(space, vaddr, length))
        data = space.read_bytes(vaddr, n)
        yield from node.vfs.close(fd)
        return data

    return run(env, script(env))


@pytest.mark.parametrize("api", BACKENDS)
def test_create_write_read_roundtrip(api):
    env, node, server, client = build(api)
    payload = bytes(range(256)) * 40  # 10240 B: crosses pages
    assert vfs_write(env, node, "/orfs/f", payload) == len(payload)
    assert vfs_read(env, node, "/orfs/f", len(payload)) == payload


@pytest.mark.parametrize("api", BACKENDS)
def test_buffered_read_populates_page_cache(api, count):
    env, node, server, client = build(api)
    payload = b"c" * (4 * PAGE_SIZE)
    vfs_write(env, node, "/orfs/f", payload)
    before = len(node.pagecache)
    vfs_read(env, node, "/orfs/f", len(payload))
    assert len(node.pagecache) >= 4
    # Second read is served locally: no new server requests.
    served = count("orfa.server.requests")
    vfs_read(env, node, "/orfs/f", len(payload))
    assert count("orfa.server.requests") == served


@pytest.mark.parametrize("api", BACKENDS)
def test_direct_read_bypasses_page_cache(api):
    env, node, server, client = build(api)
    payload = bytes((7 * i) % 256 for i in range(64 * 1024))
    vfs_write(env, node, "/orfs/f", payload)
    node.pagecache.invalidate_inode(client.root_inode())
    # Invalidate whatever the write populated, then read O_DIRECT.
    for key in list(range(10)):
        node.pagecache.invalidate_inode(key)
    cached_before = len(node.pagecache)
    got = vfs_read(env, node, "/orfs/f", len(payload), direct=True)
    assert got == payload
    assert len(node.pagecache) == cached_before  # nothing cached


@pytest.mark.parametrize("api", BACKENDS)
def test_metadata_operations(api):
    env, node, server, client = build(api)

    def script(env):
        yield from node.vfs.mkdir("/orfs/dir")
        fd = yield from node.vfs.open("/orfs/dir/a",
                                      OpenFlags.RDWR | OpenFlags.CREAT)
        yield from node.vfs.close(fd)
        fd = yield from node.vfs.open("/orfs/dir/b",
                                      OpenFlags.RDWR | OpenFlags.CREAT)
        yield from node.vfs.close(fd)
        names = yield from node.vfs.readdir("/orfs/dir")
        return names

    assert run(env, script(env)) == ["a", "b"]


@pytest.mark.parametrize("api", BACKENDS)
def test_stat_reports_size(api):
    env, node, server, client = build(api)
    vfs_write(env, node, "/orfs/f", b"x" * 1000)
    attrs = run(env, node.vfs.stat("/orfs/f"))
    assert attrs.size == 1000


@pytest.mark.parametrize("api", BACKENDS)
def test_open_missing_raises_enoent(api):
    env, node, server, client = build(api)
    with pytest.raises(Enoent):
        run(env, node.vfs.open("/orfs/ghost"))


@pytest.mark.slow
@pytest.mark.parametrize("api", BACKENDS)
def test_large_direct_read_is_chunked_but_complete(api):
    env, node, server, client = build(api)
    payload = bytes((i // 7) % 256 for i in range(3 * 1024 * 1024))
    vfs_write(env, node, "/orfs/big", payload)
    got = vfs_read(env, node, "/orfs/big", len(payload), direct=True)
    assert got == payload


@pytest.mark.parametrize("api", BACKENDS)
def test_dentry_cache_avoids_repeat_lookups(api, count):
    """The VFS dcache win of in-kernel clients (paper section 3.1)."""
    env, node, server, client = build(api)
    vfs_write(env, node, "/orfs/f", b"data")
    run(env, node.vfs.stat("/orfs/f"))
    served = count("orfa.server.requests")
    run(env, node.vfs.stat("/orfs/f"))
    # resolved from the dcache
    assert count("orfa.server.requests") == served


def test_orfs_mx_buffered_faster_than_gm():
    """The headline of figure 7(b): buffered access over MX beats GM."""

    def plateau(api):
        env, node, server, client = build(api)
        payload = b"z" * (64 * PAGE_SIZE)
        vfs_write(env, node, "/orfs/f", payload)
        node.pagecache.invalidate_inode(2)
        for k in range(10):
            node.pagecache.invalidate_inode(k)
        t0 = env.now
        vfs_read(env, node, "/orfs/f", len(payload))
        return len(payload) / (env.now - t0)  # bytes per ns

    mx = plateau("mx")
    gm = plateau("gm")
    assert mx > gm * 1.2  # fig7b's claims in repro.bench.claims bound it tighter
