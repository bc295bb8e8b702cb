"""Tests for asynchronous I/O (VFS aio_read over ORFS)."""

import pytest

from repro.cluster import node_pair
from repro.core import GmKernelChannel, MxKernelChannel
from repro.errors import Einval
from repro.kernel import OpenFlags
from repro.kernel.vfs import UserBuffer
from repro.orfa.server import OrfaServer
from repro.orfs import mount_orfs
from repro.sim import Environment
from repro.units import KiB, PAGE_SIZE

BACKENDS = ["mx", "gm"]


def build(api, file_pages=64):
    env = Environment()
    client_node, server_node = node_pair(env)
    server = OrfaServer(server_node, 3, api=api)
    env.run(until=server.start())
    channel = (MxKernelChannel if api == "mx" else GmKernelChannel)(client_node, 4)
    mount_orfs(client_node, channel, (server_node.node_id, 3))
    attrs = env.run(until=env.process(server.fs.create(1, "f")))
    payload = bytes((i * 13) % 256 for i in range(file_pages * PAGE_SIZE))
    server.fs.write_raw(attrs.inode_id, 0, payload)
    return env, client_node, server, payload


def run(env, gen):
    return env.run(until=env.process(gen))


@pytest.mark.parametrize("api", BACKENDS)
def test_aio_read_returns_correct_data(api):
    env, node, server, payload = build(api)
    space = node.new_process_space()

    def script(env):
        fd = yield from node.vfs.open("/orfs/f",
                                      OpenFlags.RDONLY | OpenFlags.DIRECT)
        bufs = [space.mmap(64 * KiB) for _ in range(4)]
        reqs = []
        for i, vaddr in enumerate(bufs):
            r = yield from node.vfs.aio_read(
                fd, UserBuffer(space, vaddr, 64 * KiB), offset=i * 64 * KiB)
            reqs.append(r)
        counts = yield from node.vfs.aio_wait(reqs)
        yield from node.vfs.close(fd)
        return [space.read_bytes(v, n) for v, n in zip(bufs, counts)]

    chunks = run(env, script(env))
    assert b"".join(chunks) == payload[: 4 * 64 * KiB]


@pytest.mark.parametrize("api", BACKENDS)
def test_aio_pipelines_outstanding_reads(api):
    """Several outstanding O_DIRECT reads overlap on the wire: total
    time is far below the sum of synchronous reads."""
    env, node, server, payload = build(api)
    space = node.new_process_space()
    # small requests are latency-dominated: overlapping them is where
    # asynchronous submission pays (large requests are already
    # wire-limited either way)
    chunk = 4 * KiB
    depth = 8

    def sync_reads(env):
        fd = yield from node.vfs.open("/orfs/f",
                                      OpenFlags.RDONLY | OpenFlags.DIRECT)
        vaddr = space.mmap(chunk)
        t0 = env.now
        for i in range(depth):
            node.vfs.seek(fd, i * chunk)
            yield from node.vfs.read(fd, UserBuffer(space, vaddr, chunk))
        dt = env.now - t0
        yield from node.vfs.close(fd)
        return dt

    def async_reads(env):
        fd = yield from node.vfs.open("/orfs/f",
                                      OpenFlags.RDONLY | OpenFlags.DIRECT)
        bufs = [space.mmap(chunk) for _ in range(depth)]
        t0 = env.now
        reqs = []
        for i, vaddr in enumerate(bufs):
            r = yield from node.vfs.aio_read(
                fd, UserBuffer(space, vaddr, chunk), offset=i * chunk)
            reqs.append(r)
        yield from node.vfs.aio_wait(reqs)
        dt = env.now - t0
        yield from node.vfs.close(fd)
        return dt

    sync_time = run(env, sync_reads(env))
    async_time = run(env, async_reads(env))
    assert async_time < 0.8 * sync_time


def test_aio_error_surfaces_at_wait():
    env, node, server, payload = build("mx")
    space = node.new_process_space()

    def script(env):
        fd = yield from node.vfs.open("/orfs/f",
                                      OpenFlags.RDONLY | OpenFlags.DIRECT)
        vaddr = space.mmap(PAGE_SIZE)
        # misaligned offset under O_DIRECT -> EINVAL, delivered at wait
        req = yield from node.vfs.aio_read(
            fd, UserBuffer(space, vaddr, 512), offset=7)
        yield from node.vfs.aio_wait([req])

    with pytest.raises(Einval):
        run(env, script(env))


def test_concurrent_buffered_readers_share_one_page_fill(count):
    """The page lock: two AIO reads of the same cold page trigger one
    backing read, not two."""
    env, node, server, payload = build("mx", file_pages=2)
    space = node.new_process_space()
    before = count("orfa.server.requests")

    def script(env):
        fd = yield from node.vfs.open("/orfs/f")
        b1, b2 = space.mmap(PAGE_SIZE), space.mmap(PAGE_SIZE)
        r1 = yield from node.vfs.aio_read(
            fd, UserBuffer(space, b1, PAGE_SIZE), offset=0)
        r2 = yield from node.vfs.aio_read(
            fd, UserBuffer(space, b2, PAGE_SIZE), offset=0)
        yield from node.vfs.aio_wait([r1, r2])
        yield from node.vfs.close(fd)
        return space.read_bytes(b1, PAGE_SIZE), space.read_bytes(b2, PAGE_SIZE)

    d1, d2 = run(env, script(env))
    assert d1 == d2 == payload[:PAGE_SIZE]
    # one READ rpc for the shared page (plus the metadata lookups)
    reads = count("orfa.server.requests") - before
    assert reads <= 3
