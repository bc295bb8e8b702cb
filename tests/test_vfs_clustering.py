"""Tests for the Linux 2.6-style readpages clustering (VFS + ORFS)."""

import pytest

from repro.cluster import node_pair
from repro.core import GmKernelChannel, MxKernelChannel
from repro.kernel import MemFs, OpenFlags
from repro.kernel.vfs import UserBuffer
from repro.orfa.server import OrfaServer
from repro.orfs import mount_orfs
from repro.sim import Environment
from repro.units import PAGE_SIZE


def build(api):
    env = Environment()
    client_node, server_node = node_pair(env)
    server = OrfaServer(server_node, 3, api=api)
    env.run(until=server.start())
    channel = (MxKernelChannel if api == "mx" else GmKernelChannel)(client_node, 4)
    client = mount_orfs(client_node, channel, (server_node.node_id, 3))
    return env, client_node, server, client


def seed_file(env, server, n_pages, name="f"):
    attrs = env.run(until=env.process(server.fs.create(1, name)))
    payload = bytes((i * 11) % 256 for i in range(n_pages * PAGE_SIZE))
    server.fs.write_raw(attrs.inode_id, 0, payload)
    return payload


def read_all(env, node, length, path="/orfs/f"):
    def script(env):
        fd = yield from node.vfs.open(path)
        space = node.new_process_space()
        vaddr = space.mmap(length)
        n = yield from node.vfs.read(fd, UserBuffer(space, vaddr, length))
        data = space.read_bytes(vaddr, n)
        yield from node.vfs.close(fd)
        return data

    return env.run(until=env.process(script(env)))


def test_clustered_read_is_correct_and_fewer_requests_mx(count):
    env, node, server, client = build("mx")
    payload = seed_file(env, server, 16)
    node.vfs.read_cluster_pages = 8
    data = read_all(env, node, len(payload))
    assert data == payload
    # 16 pages in 8-page vectorial requests: 2 data reads (+ metadata)
    data_reads = count("orfs.requests", node=node.node_id)
    assert 2 <= data_reads <= 6


def test_clustering_on_gm_degrades_to_per_page(count):
    env, node, server, client = build("gm")
    payload = seed_file(env, server, 8)
    node.vfs.read_cluster_pages = 8
    before = count("orfa.server.requests")
    data = read_all(env, node, len(payload))
    assert data == payload
    # GM has no vectorial primitives: still one request per page
    assert count("orfa.server.requests") - before >= 8


def test_clustering_speeds_up_mx_buffered_reads():
    env, node, server, client = build("mx")
    payload = seed_file(env, server, 64)
    t0 = env.now
    read_all(env, node, len(payload))
    per_page = env.now - t0
    node.pagecache.invalidate_inode(2)
    for k in range(8):
        node.pagecache.invalidate_inode(k)
    # a 16-page window makes each cluster a 64 kB request: the large
    # (rendezvous, zero-copy) path — the full benefit the paper expects
    # from 2.6-style clustering
    node.vfs.read_cluster_pages = 16
    t1 = env.now
    read_all(env, node, len(payload))
    clustered = env.now - t1
    assert clustered < 0.75 * per_page


def test_cluster_window_respects_file_size():
    """Clustering near EOF never reads past the file."""
    env, node, server, client = build("mx")
    # 2.5 pages of data
    attrs = env.run(until=env.process(server.fs.create(1, "f")))
    payload = bytes(range(256)) * (5 * PAGE_SIZE // 2 // 256)
    server.fs.write_raw(attrs.inode_id, 0, payload)
    node.vfs.read_cluster_pages = 8
    data = read_all(env, node, len(payload) + PAGE_SIZE)
    assert data == payload


def test_clustering_skips_already_cached_pages():
    env, node, server, client = build("mx")
    payload = seed_file(env, server, 8)
    node.vfs.read_cluster_pages = 8
    # warm pages 2..3 first
    def warm(env):
        fd = yield from node.vfs.open("/orfs/f")
        node.vfs.seek(fd, 2 * PAGE_SIZE)
        space = node.new_process_space()
        v = space.mmap(2 * PAGE_SIZE)
        yield from node.vfs.read(fd, UserBuffer(space, v, 2 * PAGE_SIZE))
        yield from node.vfs.close(fd)

    env.run(until=env.process(warm(env)))
    data = read_all(env, node, len(payload))
    assert data == payload


def test_local_memfs_unaffected_by_cluster_flag():
    """MemFs has no readpages; the VFS falls back to readpage."""
    env = Environment()
    from repro.cluster import Node
    from repro.hw.params import HostParams

    node = Node(env, 0, HostParams(memory_frames=2048))
    fs = MemFs(env, node.cpu)
    node.vfs.mount("/", fs)
    node.vfs.read_cluster_pages = 8

    def script(env):
        fd = yield from node.vfs.open("/f", OpenFlags.RDWR | OpenFlags.CREAT)
        space = node.new_process_space()
        payload = b"q" * (4 * PAGE_SIZE)
        v = space.mmap(len(payload))
        space.write_bytes(v, payload)
        yield from node.vfs.write(fd, UserBuffer(space, v, len(payload)))
        node.vfs.seek(fd, 0)
        out = space.mmap(len(payload))
        n = yield from node.vfs.read(fd, UserBuffer(space, out, len(payload)))
        yield from node.vfs.close(fd)
        return space.read_bytes(out, n)

    assert env.run(until=env.process(script(env))) == b"q" * (4 * PAGE_SIZE)
