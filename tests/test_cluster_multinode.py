"""Multi-node integration: several ORFS clients sharing one server
through a switch (the topology a real cluster file system serves)."""

import pytest

from repro.cluster import star
from repro.core import MxKernelChannel
from repro.kernel import OpenFlags
from repro.kernel.vfs import UserBuffer
from repro.orfa.server import OrfaServer
from repro.orfs import mount_orfs
from repro.sim import Environment
from repro.units import PAGE_SIZE

SERVER_PORT = 3
N_CLIENTS = 3


def test_three_clients_share_one_server_through_a_switch(count):
    env = Environment()
    nodes, switch = star(env, N_CLIENTS + 1)
    server_node = nodes[0]
    server = OrfaServer(server_node, SERVER_PORT, api="mx")
    env.run(until=server.start())

    clients = []
    for i, node in enumerate(nodes[1:]):
        channel = MxKernelChannel(node, 10 + i)
        mount_orfs(node, channel, (server_node.node_id, SERVER_PORT))
        clients.append(node)

    payloads = {i: bytes([i + 1]) * (4 * PAGE_SIZE) for i in range(N_CLIENTS)}

    def writer(env, i, node):
        space = node.new_process_space()
        vaddr = space.mmap(4 * PAGE_SIZE)
        space.write_bytes(vaddr, payloads[i])
        fd = yield from node.vfs.open(f"/orfs/client{i}",
                                      OpenFlags.RDWR | OpenFlags.CREAT)
        yield from node.vfs.write(fd, UserBuffer(space, vaddr, 4 * PAGE_SIZE))
        yield from node.vfs.close(fd)

    procs = [env.process(writer(env, i, node))
             for i, node in enumerate(clients)]
    env.run(until=env.all_of(procs))

    def cross_reader(env, i, node):
        """Each client reads the file written by the *next* client."""
        j = (i + 1) % N_CLIENTS
        space = node.new_process_space()
        vaddr = space.mmap(4 * PAGE_SIZE)
        fd = yield from node.vfs.open(f"/orfs/client{j}")
        n = yield from node.vfs.read(fd, UserBuffer(space, vaddr, 4 * PAGE_SIZE))
        yield from node.vfs.close(fd)
        return space.read_bytes(vaddr, n)

    for i, node in enumerate(clients):
        got = env.run(until=env.process(cross_reader(env, i, node)))
        assert got == payloads[(i + 1) % N_CLIENTS]
    assert count("orfa.server.requests") >= N_CLIENTS * 6


def test_concurrent_clients_make_progress_without_interference():
    """Simultaneous reads from different clients all complete, and the
    shared server serializes them without deadlock."""
    env = Environment()
    nodes, switch = star(env, 4)
    server_node = nodes[0]
    server = OrfaServer(server_node, SERVER_PORT, api="mx")
    env.run(until=server.start())
    # seed one shared file
    attrs = env.run(until=env.process(server.fs.create(1, "shared")))
    payload = bytes(range(256)) * (32 * PAGE_SIZE // 256)
    server.fs.write_raw(attrs.inode_id, 0, payload)

    results = {}

    def reader(env, i, node):
        channel = MxKernelChannel(node, 20 + i)
        mount_orfs(node, channel, (server_node.node_id, SERVER_PORT),
                   mountpoint="/orfs")
        space = node.new_process_space()
        vaddr = space.mmap(len(payload))
        fd = yield from node.vfs.open("/orfs/shared")
        n = yield from node.vfs.read(fd, UserBuffer(space, vaddr, len(payload)))
        results[i] = space.read_bytes(vaddr, n)

    procs = [env.process(reader(env, i, node))
             for i, node in enumerate(nodes[1:])]
    env.run(until=env.all_of(procs))
    assert all(results[i] == payload for i in range(3))
