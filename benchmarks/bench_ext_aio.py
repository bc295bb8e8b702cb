"""Extension: asynchronous file I/O depth sweep over ORFS.

The paper twice gestures at asynchronous I/O: Linux 2.6 had just gained
it (section 2.1), and MX's flexible completion "makes the implementation
of both synchronous and future asynchronous file requests easier"
(section 5.2).  This sweep issues O_DIRECT AIO reads at increasing queue
depth on both APIs and shows small-request throughput climbing toward
the wire as the depth hides the per-request latency.
"""

from conftest import run_once

from repro.cluster import node_pair
from repro.core import GmKernelChannel, MxKernelChannel
from repro.kernel import OpenFlags
from repro.kernel.vfs import UserBuffer
from repro.orfa.server import OrfaServer
from repro.orfs import mount_orfs
from repro.sim import Environment
from repro.units import KiB, PAGE_SIZE, bandwidth_mb_s

DEPTHS = (1, 2, 4, 8, 16)
CHUNK = 8 * KiB
TOTAL = 1024 * KiB


def _throughput(api: str, depth: int) -> float:
    env = Environment()
    client_node, server_node = node_pair(env)
    server = OrfaServer(server_node, 3, api=api)
    env.run(until=server.start())
    channel = (MxKernelChannel if api == "mx" else GmKernelChannel)(client_node, 4)
    mount_orfs(client_node, channel, (server_node.node_id, 3))
    attrs = env.run(until=env.process(server.fs.create(1, "f")))
    server.fs.truncate_raw(attrs.inode_id, TOTAL)
    space = client_node.new_process_space()
    bufs = [space.mmap(CHUNK) for _ in range(depth)]
    result = {}

    def app(env):
        fd = yield from client_node.vfs.open(
            "/orfs/f", OpenFlags.RDONLY | OpenFlags.DIRECT)
        t0 = env.now
        offset = 0
        inflight = []
        while offset < TOTAL or inflight:
            while offset < TOTAL and len(inflight) < depth:
                buf = bufs[len(inflight)]
                r = yield from client_node.vfs.aio_read(
                    fd, UserBuffer(space, buf, CHUNK), offset=offset)
                inflight.append(r)
                offset += CHUNK
            yield from client_node.vfs.aio_wait(inflight)
            inflight = []
        result["elapsed"] = env.now - t0
        yield from client_node.vfs.close(fd)

    env.run(until=env.process(app(env)))
    return bandwidth_mb_s(TOTAL, result["elapsed"])


def _sweep():
    return {api: [_throughput(api, d) for d in DEPTHS] for api in ("mx", "gm")}


def test_ext_aio_depth_sweep(benchmark):
    result = run_once(benchmark, _sweep)
    print("\nqueue depth      :", "  ".join(f"{d:>6}" for d in DEPTHS))
    for api, row in result.items():
        print(f"ORFS/{api} aio 8k  :", "  ".join(f"{v:6.1f}" for v in row))
    benchmark.extra_info["throughput"] = result
    for api in ("mx", "gm"):
        row = result[api]
        # depth hides latency: monotone-ish growth, big total gain
        assert row[-1] > 1.6 * row[0]
    # MX keeps its latency advantage at low depth...
    assert result["mx"][0] > result["gm"][0]
    # ...and both converge toward the wire once deep enough
    assert result["mx"][-1] > 170
