"""Ablation: metadata access, user-space ORFA vs in-kernel ORFS.

Paper section 3.1: "meta-data access (file attributes) does not benefit
from the low latency of the network.  We then decided to work on ORFS
... This implementation benefits from VFS caches (Virtual File Systems)
improving meta-data access."

A stat-heavy walk (the `ls -l` of a build tree) over both clients: ORFA
pays a full LOOKUP round trip per path component on *every* call; ORFS
pays it once and then serves from the dentry cache.
"""

from conftest import run_once

from repro import obs
from repro.bench.fileio import SERVER_PORT, CLIENT_PORT
from repro.cluster import node_pair
from repro.core import MxKernelChannel
from repro.orfa.client import OrfaClient
from repro.orfa.server import OrfaServer
from repro.orfs import mount_orfs
from repro.sim import Environment
from repro.units import to_us

FILES = 16
REPEAT = 4


def _setup(api="mx"):
    env = Environment()
    client_node, server_node = node_pair(env)
    server = OrfaServer(server_node, SERVER_PORT, api=api)
    env.run(until=server.start())
    # a directory of FILES entries
    d = env.run(until=env.process(server.fs.mkdir(1, "tree")))
    for i in range(FILES):
        env.run(until=env.process(server.fs.create(d.inode_id, f"f{i}")))
    return env, client_node, server_node, server


def _orfa_stat_walk():
    env, client_node, server_node, server = _setup()
    space = client_node.new_process_space()
    client = OrfaClient(client_node, CLIENT_PORT, space,
                        (server_node.node_id, SERVER_PORT), api="mx")
    env.run(until=env.process(client.setup()))

    def walk(env):
        t0 = env.now
        for _ in range(REPEAT):
            for i in range(FILES):
                yield from client.stat(f"/tree/f{i}")
        return env.now - t0

    elapsed = env.run(until=env.process(walk(env)))
    return (elapsed / (REPEAT * FILES),)


def _orfs_stat_walk():
    env, client_node, server_node, server = _setup()
    channel = MxKernelChannel(client_node, CLIENT_PORT)
    mount_orfs(client_node, channel, (server_node.node_id, SERVER_PORT))

    def cold_walk(env):
        t0 = env.now
        for i in range(FILES):
            yield from client_node.vfs.stat(f"/orfs/tree/f{i}")
        return env.now - t0

    def warm_walk(env):
        t0 = env.now
        for _ in range(REPEAT - 1):
            for i in range(FILES):
                yield from client_node.vfs.stat(f"/orfs/tree/f{i}")
        return env.now - t0

    cold = env.run(until=env.process(cold_walk(env)))
    warm = env.run(until=env.process(warm_walk(env)))
    return cold / FILES, warm / ((REPEAT - 1) * FILES)


def _with_requests(walk) -> tuple:
    """Run one walk under its own registry; its results, then the
    requests the server handled."""
    with obs.scoped_registry() as registry:
        result = walk()
    counters = registry.snapshot()["counters"]
    return (*result, obs.family(counters, "orfa.server.requests"))


def _both():
    orfa_us, orfa_reqs = _with_requests(_orfa_stat_walk)
    orfs_cold, orfs_warm, orfs_reqs = _with_requests(_orfs_stat_walk)
    return {"orfa_us": to_us(orfa_us), "orfa_reqs": orfa_reqs,
            "orfs_cold_us": to_us(orfs_cold),
            "orfs_warm_us": to_us(orfs_warm), "orfs_reqs": orfs_reqs}


def test_ablation_metadata_dcache(benchmark):
    r = run_once(benchmark, _both)
    print(f"\nstat() mean: ORFA {r['orfa_us']:.1f} us every time "
          f"({r['orfa_reqs']} server requests)")
    print(f"             ORFS {r['orfs_cold_us']:.1f} us cold, "
          f"{r['orfs_warm_us']:.1f} us warm "
          f"({r['orfs_reqs']} server requests)")
    benchmark.extra_info.update(r)
    # ORFS's dentry cache absorbs the repeats: far fewer server round
    # trips, and warm stats are an order of magnitude cheaper
    assert r["orfs_reqs"] < r["orfa_reqs"] / 2
    assert r["orfs_warm_us"] < r["orfa_us"] / 5
