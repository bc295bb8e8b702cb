"""Tests for the user-space ORFA client (repro.orfa.client)."""

import pytest

from repro.cluster import node_pair
from repro.errors import Enoent
from repro.orfa import OrfaClient, OrfaServer
from repro.sim import Environment
from repro.units import PAGE_SIZE

BACKENDS = ["mx", "gm"]


def build(api):
    env = Environment()
    client_node, server_node = node_pair(env)
    server = OrfaServer(server_node, 3, api=api)
    env.run(until=server.start())
    space = client_node.new_process_space()
    client = OrfaClient(client_node, 4, space, (server_node.node_id, 3), api=api)
    env.run(until=env.process(client.setup()))
    return env, client_node, server, client, space


def run(env, gen):
    return env.run(until=env.process(gen))


@pytest.mark.parametrize("api", BACKENDS)
def test_create_write_read_roundtrip(api):
    env, node, server, client, space = build(api)
    payload = bytes(range(256)) * 64  # 16 kB
    src = space.mmap(len(payload))
    dst = space.mmap(len(payload))
    space.write_bytes(src, payload)

    def script(env):
        fd = yield from client.open("/f", create=True)
        yield from client.write(fd, src, len(payload))
        client.seek(fd, 0)
        n = yield from client.read(fd, dst, len(payload))
        yield from client.close(fd)
        return n

    assert run(env, script(env)) == len(payload)
    assert space.read_bytes(dst, len(payload)) == payload


@pytest.mark.parametrize("api", BACKENDS)
def test_large_write_is_chunked(api, count):
    """Writes above the protocol wsize split into several requests."""
    env, node, server, client, space = build(api)
    payload = bytes((i * 5) % 256 for i in range(100_000))
    src = space.mmap(len(payload))
    space.write_bytes(src, payload)

    def script(env):
        fd = yield from client.open("/big", create=True)
        yield from client.write(fd, src, len(payload))
        yield from client.close(fd)

    before = count("orfa.server.requests")
    run(env, script(env))
    write_requests = count("orfa.server.requests") - before
    assert write_requests > 3  # lookup/create + >= 4 write chunks
    assert server.fs.read_raw(2, 0, len(payload)) == payload


@pytest.mark.parametrize("api", BACKENDS)
def test_stat_and_mkdir(api):
    env, node, server, client, space = build(api)

    def script(env):
        yield from client.mkdir("/d")
        fd = yield from client.open("/d/x", create=True)
        buf = space.mmap(PAGE_SIZE)
        yield from client.write(fd, buf, 100)
        yield from client.close(fd)
        attrs = yield from client.stat("/d/x")
        return attrs

    attrs = run(env, script(env))
    assert attrs.size == 100


@pytest.mark.parametrize("api", BACKENDS)
def test_open_missing_raises(api):
    env, node, server, client, space = build(api)
    with pytest.raises(Enoent):
        run(env, client.open("/nope"))


def test_every_metadata_op_hits_the_server(count):
    """ORFA has no client-side caches: repeating a stat repeats the
    LOOKUPs (the weakness that motivated in-kernel ORFS, section 3.1)."""
    env, node, server, client, space = build("mx")

    def script(env):
        fd = yield from client.open("/f", create=True)
        yield from client.close(fd)

    run(env, script(env))
    before = count("orfa.server.requests")
    run(env, client.stat("/f"))
    mid = count("orfa.server.requests")
    run(env, client.stat("/f"))
    assert mid > before
    # same cost again
    assert count("orfa.server.requests") - mid == mid - before


def test_gm_client_reuses_registration_cache_for_reads(count):
    env, node, server, client, space = build("gm")
    payload = b"r" * (64 * 1024)
    src = space.mmap(len(payload))
    space.write_bytes(src, payload)
    dst = space.mmap(len(payload))

    def script(env):
        fd = yield from client.open("/f", create=True)
        yield from client.write(fd, src, len(payload))
        client.seek(fd, 0)
        yield from client.read(fd, dst, len(payload))
        client.seek(fd, 0)
        yield from client.read(fd, dst, len(payload))
        yield from client.close(fd)

    run(env, script(env))
    # the second read reuses the registration
    assert count("gmkrc.hits", node=node.node_id) >= 1
