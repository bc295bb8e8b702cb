"""Tests for the NBD extension (repro.nbd)."""

import pytest

from repro.cluster import node_pair
from repro.core import GmKernelChannel, MxKernelChannel
from repro.errors import Einval
from repro.nbd import NbdDevice, NbdServer
from repro.sim import Environment
from repro.units import PAGE_SIZE

BACKENDS = ["mx", "gm"]


def build(api, blocks=64):
    env = Environment()
    client_node, server_node = node_pair(env)
    server = NbdServer(server_node, 3, api=api, device_blocks=blocks)
    env.run(until=server.start())
    if api == "mx":
        channel = MxKernelChannel(client_node, 4)
    else:
        channel = GmKernelChannel(client_node, 4)
    dev = NbdDevice(client_node, channel, (server_node.node_id, 3),
                    server.device_inode, blocks)
    return env, client_node, server, dev


def run(env, gen):
    return env.run(until=env.process(gen))


@pytest.mark.parametrize("api", BACKENDS)
def test_write_flush_read_roundtrip(api):
    env, node, server, dev = build(api)
    space = node.new_process_space()
    payload = bytes((i * 3) % 256 for i in range(3 * PAGE_SIZE))
    va = space.mmap(len(payload))
    space.write_bytes(va, payload)

    def script(env):
        yield from dev.write(space, va, 2 * PAGE_SIZE, len(payload))
        yield from dev.flush()

    run(env, script(env))
    # Server-side device content reflects the write after flush.
    stored = server.fs.read_raw(server.device_inode, 2 * PAGE_SIZE, len(payload))
    assert stored == payload
    # Fresh client (cold cache) reads it back over the wire.
    env2, node2, _, dev2 = build(api)
    # reuse original: drop cache and reread
    node.pagecache.invalidate_inode(dev._cache_key)
    out = space.mmap(len(payload))

    def reread(env):
        yield from dev.read(space, out, 2 * PAGE_SIZE, len(payload))

    run(env, reread(env))
    assert space.read_bytes(out, len(payload)) == payload


@pytest.mark.parametrize("api", BACKENDS)
def test_block_cache_absorbs_rereads(api, count):
    env, node, server, dev = build(api)
    space = node.new_process_space()
    va = space.mmap(4 * PAGE_SIZE)

    def script(env):
        yield from dev.read(space, va, 0, 4 * PAGE_SIZE)

    run(env, script(env))
    assert count("nbd.blocks_read") == 4
    run(env, script(env))
    assert count("nbd.blocks_read") == 4  # second read fully cached


@pytest.mark.parametrize("api", BACKENDS)
def test_partial_block_write_preserves_rest(api):
    env, node, server, dev = build(api)
    space = node.new_process_space()
    base = bytes(range(256)) * 16
    va = space.mmap(PAGE_SIZE)
    space.write_bytes(va, base)

    def prime(env):
        yield from dev.write(space, va, 0, PAGE_SIZE)
        yield from dev.flush()

    run(env, prime(env))
    node.pagecache.invalidate_inode(dev._cache_key)
    patch = space.mmap(PAGE_SIZE)
    space.write_bytes(patch, b"PATCH")

    def patch_write(env):
        yield from dev.write(space, patch, 300, 5)  # forces read-modify-write
        yield from dev.flush()

    run(env, patch_write(env))
    stored = server.fs.read_raw(server.device_inode, 0, PAGE_SIZE)
    assert stored == base[:300] + b"PATCH" + base[305:]


def test_out_of_range_access_raises():
    env, node, server, dev = build("mx", blocks=4)
    space = node.new_process_space()
    va = space.mmap(PAGE_SIZE)
    with pytest.raises(Einval):
        run(env, dev.read(space, va, 3 * PAGE_SIZE, 2 * PAGE_SIZE))


def test_nbd_mirrors_buffered_orfs_ratio():
    """The paper's section-6 prediction: NBD should benefit from MX like
    buffered ORFS does (it 'manipulates the page-cache in a similar
    way')."""

    def throughput(api):
        env, node, server, dev = build(api, blocks=256)
        space = node.new_process_space()
        size = 128 * PAGE_SIZE
        va = space.mmap(size)
        t0 = env.now

        def script(env):
            yield from dev.read(space, va, 0, size)

        run(env, script(env))
        return size / (env.now - t0)

    mx = throughput("mx")
    gm = throughput("gm")
    assert 1.2 < mx / gm < 1.6  # same band as ORFS buffered (fig 7(b))
