#!/usr/bin/env python3
"""Remote partition mounting: the NBD client (paper section 6).

The paper's third in-kernel application, implemented as the promised
extension.  This example exports a block device from one node, "mounts"
it on another, and runs a small database-ish workload on the raw
device: write a record heap, sync, random point reads (cold vs cached),
then an in-place update with read-modify-write of partial blocks.  The
block counts it prints are read from a metrics registry observing the
run.

Run:  python examples/network_block_device.py [gm|mx]
"""

import sys

from repro import obs
from repro.cluster import node_pair
from repro.core import GmKernelChannel, MxKernelChannel
from repro.nbd import NbdDevice, NbdServer
from repro.sim import Environment
from repro.units import PAGE_SIZE, to_ms, to_us

BLOCKS = 256
RECORD = 512  # "database" record size: sub-block, forces partial writes
RECORDS = 64


def main(api: str = "mx") -> None:
    with obs.scoped_registry() as registry:
        env = Environment()
        client_node, server_node = node_pair(env)
        server = NbdServer(server_node, 3, api=api, device_blocks=BLOCKS)
        env.run(until=server.start())
        channel = (MxKernelChannel if api == "mx" else GmKernelChannel)(client_node, 4)
        dev = NbdDevice(client_node, channel, (server_node.node_id, 3),
                        server.device_inode, BLOCKS)
        space = client_node.new_process_space()
        rec_buf = space.mmap(PAGE_SIZE)
        out_buf = space.mmap(PAGE_SIZE)
        timings = {}

        def phase(name, gen):
            t0 = env.now
            env.run(until=env.process(gen))
            timings[name] = env.now - t0

        def write_heap(env):
            for i in range(RECORDS):
                space.write_bytes(rec_buf, bytes([i % 256]) * RECORD)
                yield from dev.write(space, rec_buf, i * RECORD, RECORD)
            yield from dev.flush()

        def point_reads(env):
            # pseudo-random probe order, deterministic
            for i in range(RECORDS):
                j = (i * 37) % RECORDS
                n = yield from dev.read(space, out_buf, j * RECORD, RECORD)
                assert space.read_bytes(out_buf, n) == bytes([j % 256]) * RECORD

        def update_in_place(env):
            space.write_bytes(rec_buf, b"\xff" * RECORD)
            yield from dev.write(space, rec_buf, 5 * RECORD, RECORD)
            yield from dev.flush()
            n = yield from dev.read(space, out_buf, 5 * RECORD, RECORD)
            assert space.read_bytes(out_buf, n) == b"\xff" * RECORD
            # the neighbouring record must be untouched (read-modify-write)
            n = yield from dev.read(space, out_buf, 6 * RECORD, RECORD)
            assert space.read_bytes(out_buf, n) == bytes([6 % 256]) * RECORD

        print(f"NBD over {api.upper()} — {BLOCKS * PAGE_SIZE // 1024} kB remote device")
        print("=" * 60)
        phase("write heap + flush", write_heap(env))
        client_node.pagecache.invalidate_inode(dev._cache_key)
        phase("random point reads (cold)", point_reads(env))
        phase("random point reads (cached)", point_reads(env))
        phase("in-place update", update_in_place(env))

        for name, ns in timings.items():
            print(f"{name:<28} {to_ms(ns):8.3f} ms")
        print("-" * 60)
        node = client_node.node_id
        blocks_read = registry.counter("nbd.blocks_read", node=node).value
        blocks_written = registry.counter("nbd.blocks_written", node=node).value
        per_block = timings["random point reads (cold)"] / blocks_read
        print(f"blocks read over the wire: {blocks_read} "
              f"(~{to_us(per_block):.1f} us per cold block)")
        print(f"blocks written: {blocks_written}")
        print("cached probe round trip was "
              f"{timings['random point reads (cold)'] / max(1, timings['random point reads (cached)']):.0f}x "
              "faster than cold — the block cache at work")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "mx")
