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

from .. import obs
from ..cluster.node import node_pair
from ..core.channel import MxKernelChannel
from ..faults import FaultPlan
from ..nbd.device import BLOCK_SIZE, NbdDevice, NbdServer
from ..orfa.client import OrfaClient
from ..orfa.server import OrfaServer
from ..sim import Environment, one_world
from ..units import ms

DROP_RATES = (0.0, 0.01, 0.02, 0.05, 0.10)

_ORFA_CHUNK = 4096
_ORFA_BYTES = 16 * _ORFA_CHUNK
_NBD_BLOCKS = 16

#: RPC budgets for the fault runs (generous relative to the NIC's RTO,
#: so NIC-level retransmission does almost all of the recovery work).
_RPC_TIMEOUT_NS = ms(2)
_RPC_RETRIES = 6


def _install(env, nodes, seed: float, drop: float) -> None:
    plan = FaultPlan(seed=seed)
    if drop:
        plan.drop("*", drop)
    plan.install(env, nodes=nodes)


def _fault_counters(registry: obs.MetricsRegistry) -> tuple[int, int]:
    """(injected drops, NIC retransmissions) of the run ``registry``
    observed."""
    counters = registry.snapshot()["counters"]
    return (obs.family(counters, "faults.drops"),
            obs.family(counters, "nic.tx.retransmits"))


@one_world
def _orfa_run(seed: int, drop: float) -> tuple[float, int, int]:
    """One ORFA write+read pass; returns (sim ms, drops, retransmissions)."""
    with obs.scoped_registry() as registry:
        env = Environment()
        client_node, server_node = node_pair(env)
        _install(env, [client_node, server_node], seed, drop)
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

        start = env.now
        env.run(until=env.process(script(env)))
        elapsed_ms = (env.now - start) / 1e6
        return (elapsed_ms, *_fault_counters(registry))


@one_world
def _nbd_run(seed: int, drop: float) -> tuple[float, int, int]:
    """One NBD write+flush+reread pass; returns (sim ms, drops, retrans)."""
    with obs.scoped_registry() as registry:
        env = Environment()
        client_node, server_node = node_pair(env)
        _install(env, [client_node, server_node], seed, drop)
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

        start = env.now
        env.run(until=env.process(script(env)))
        elapsed_ms = (env.now - start) / 1e6
        return (elapsed_ms, *_fault_counters(registry))


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
    for drop in DROP_RATES:
        o_ms, o_drop, o_rx = _orfa_run(args.seed, drop)
        n_ms, n_drop, n_rx = _nbd_run(args.seed, drop)
        print(f"{drop * 100:5.1f}%  {o_ms:9.3f} {o_drop:6d} {o_rx:6d}  "
              f"{n_ms:9.3f} {n_drop:6d} {n_rx:6d}")
    print()
    print("every run completed with byte-correct data; loss costs time, "
          "not correctness")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
