"""``python -m repro.bench faults`` — latency degradation under loss.

Runs an ORFA read/write workload and an NBD block workload against the
same two-node platform while a seeded :class:`repro.faults.FaultPlan`
drops a growing fraction of wire messages.  The NIC's reliable-delivery
sublayer recovers every loss, so the workloads always complete with
correct data — what degrades is *time*, and that degradation is the
figure of merit.

This driver is intentionally not part of ``bench all``: the fault runs
add nothing to the paper's tables, and keeping them out guarantees the
zero-fault figure output stays byte-identical to ``bench_figures.txt``.
Everything here is deterministic in ``--seed``.
"""

from __future__ import annotations

import argparse
from functools import partial

from .. import obs
from ..cluster.node import node_pair
from ..core.channel import MxKernelChannel
from ..faults import FaultPlan
from ..nbd.device import BLOCK_SIZE, NbdDevice, NbdServer
from ..orfa.client import OrfaClient
from ..orfa.server import OrfaServer
from ..sim import Environment, one_world
from ..sim.worlds import run_worlds
from ..units import ms

DROP_RATES = (0.0, 0.01, 0.02, 0.05, 0.10)

_ORFA_CHUNK = 4096
_ORFA_BYTES = 16 * _ORFA_CHUNK
_NBD_BLOCKS = 16

#: RPC budgets for the fault runs (generous relative to the NIC's RTO,
#: so NIC-level retransmission does almost all of the recovery work).
_RPC_TIMEOUT_NS = ms(2)
_RPC_RETRIES = 6


def _orfa(env, client_node, server_node):
    """Start an ORFA server and client; returns the write+read script."""
    server = OrfaServer(server_node, 3, api="mx", tolerant=True)
    env.run(until=server.start())
    space = client_node.new_process_space()
    client = OrfaClient(client_node, 4, space, (server_node.node_id, 3),
                        api="mx", timeout_ns=_RPC_TIMEOUT_NS,
                        max_retries=_RPC_RETRIES)
    env.run(until=env.process(client.setup()))
    payload = bytes((i * 37 + 11) & 0xFF for i in range(_ORFA_BYTES))
    buf = space.mmap(len(payload), populate=True)
    space.write_bytes(buf, payload)
    out = space.mmap(len(payload), populate=True)

    def script(env):
        fd = yield from client.open("/bench", create=True)
        for off in range(0, len(payload), _ORFA_CHUNK):
            client.seek(fd, off)
            yield from client.write(fd, buf + off, _ORFA_CHUNK)
        client.seek(fd, 0)
        n = yield from client.read(fd, out, len(payload))
        if n != len(payload) or space.read_bytes(out, n) != payload:
            raise AssertionError("fault run returned corrupt data")
        yield from client.close(fd)

    return script


def _nbd(env, client_node, server_node):
    """Start an NBD server and device; returns the write+flush+reread
    script."""
    server = NbdServer(server_node, 3, api="mx", device_blocks=_NBD_BLOCKS)
    env.run(until=server.start())
    channel = MxKernelChannel(client_node, 4)
    dev = NbdDevice(client_node, channel, (server_node.node_id, 3),
                    server.device_inode, _NBD_BLOCKS,
                    timeout_ns=_RPC_TIMEOUT_NS, max_retries=_RPC_RETRIES)
    space = client_node.new_process_space()
    payload = bytes((i * 13 + 5) & 0xFF for i in range(_NBD_BLOCKS * BLOCK_SIZE))
    va = space.mmap(len(payload))
    space.write_bytes(va, payload)
    out = space.mmap(len(payload))

    def script(env):
        yield from dev.write(space, va, 0, len(payload))
        yield from dev.flush()
        client_node.pagecache.invalidate_inode(dev._cache_key)
        n = yield from dev.read(space, out, 0, len(payload))
        if n != len(payload) or space.read_bytes(out, n) != payload:
            raise AssertionError("fault run returned corrupt data")

    return script


WORKLOADS = {"orfa": _orfa, "nbd": _nbd}


@one_world
def fault_run(seed: int, run: tuple) -> tuple[float, int, int]:
    """One pass of ``run = (workload, drop rate)`` on a fresh two-node
    platform; returns (sim ms, injected drops, NIC retransmissions)."""
    workload, drop = run
    with obs.scoped_registry() as registry:
        env = Environment()
        client_node, server_node = node_pair(env)
        plan = FaultPlan(seed=seed)
        if drop:
            plan.drop("*", drop)
        plan.install(env, nodes=[client_node, server_node])
        script = WORKLOADS[workload](env, client_node, server_node)
        start = env.now
        env.run(until=env.process(script(env)))
        counters = registry.snapshot()["counters"]
        return ((env.now - start) / 1e6,
                obs.family(counters, "faults.drops"),
                obs.family(counters, "nic.tx.retransmits"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench faults",
        description="Latency degradation of ORFA/NBD workloads under "
                    "injected message loss (reliable delivery recovers "
                    "every drop; only time degrades)",
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="fault-plan seed (default 1); the same seed "
                             "reproduces the table bit-for-bit")
    args = parser.parse_args(argv)

    print(f"Fault injection: completion time under message loss "
          f"(seed {args.seed})")
    print(f"  ORFA: {_ORFA_BYTES // 1024} KB write+read in "
          f"{_ORFA_CHUNK // 1024} KB RPCs over MX; "
          f"NBD: {_NBD_BLOCKS} blocks write+flush+reread")
    print()
    header = (f"{'drop':>6}  {'orfa ms':>9} {'drops':>6} {'rexmit':>6}  "
              f"{'nbd ms':>9} {'drops':>6} {'rexmit':>6}")
    print(header)
    print("-" * len(header))
    runs = [(workload, drop) for drop in DROP_RATES for workload in WORKLOADS]
    done = iter(run_worlds(partial(fault_run, args.seed), runs)[0])
    for drop in DROP_RATES:
        (o_ms, o_drop, o_rx), (n_ms, n_drop, n_rx) = next(done), next(done)
        print(f"{drop * 100:5.1f}%  {o_ms:9.3f} {o_drop:6d} {o_rx:6d}  "
              f"{n_ms:9.3f} {n_drop:6d} {n_rx:6d}")
    print()
    print("every run completed with byte-correct data; loss costs time, "
          "not correctness")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
