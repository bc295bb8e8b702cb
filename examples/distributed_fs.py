#!/usr/bin/env python3
"""A distributed file system session over the simulated cluster.

The paper's motivating workload (section 2.1): a cluster application
that needs file access as fast as its MPI communication.  This example:

1. boots an ORFA file server on one node and mounts ORFS on another
   (over the MX kernel channel — swap one line for GM);
2. runs a realistic mixed workload: create a directory tree, write
   data files, stat and list them (metadata served by the VFS dentry
   cache after first touch), then read them back both buffered and
   O_DIRECT;
3. prints per-phase timings and the page-cache/dcache hit statistics
   that explain them (the counts are read from a metrics registry
   observing the session).

Run:  python examples/distributed_fs.py [gm|mx]
"""

import sys

from repro import obs
from repro.cluster import node_pair
from repro.core import GmKernelChannel, MxKernelChannel
from repro.kernel import OpenFlags
from repro.kernel.vfs import UserBuffer
from repro.orfa.server import OrfaServer
from repro.orfs import mount_orfs
from repro.sim import Environment
from repro.units import MiB, PAGE_SIZE, to_ms

SERVER_PORT = 3
CLIENT_PORT = 4
FILES = 8
FILE_SIZE = 256 * 1024


def main(api: str = "mx") -> None:
    with obs.scoped_registry() as registry:
        env = Environment()
        client_node, server_node = node_pair(env)
        server = OrfaServer(server_node, SERVER_PORT, api=api)
        env.run(until=server.start())
        if api == "mx":
            channel = MxKernelChannel(client_node, CLIENT_PORT)
        else:
            channel = GmKernelChannel(client_node, CLIENT_PORT)
        mount_orfs(client_node, channel, (server_node.node_id, SERVER_PORT))
        vfs = client_node.vfs
        space = client_node.new_process_space()
        payload = bytes(range(256)) * (FILE_SIZE // 256)
        buf = space.mmap(FILE_SIZE)
        space.write_bytes(buf, payload)
        timings: dict[str, float] = {}

        def phase(name, gen):
            t0 = env.now
            value = env.run(until=env.process(gen))
            timings[name] = to_ms(env.now - t0)
            return value

        def create_tree(env):
            yield from vfs.mkdir("/orfs/data")
            for i in range(FILES):
                fd = yield from vfs.open(f"/orfs/data/f{i}",
                                         OpenFlags.RDWR | OpenFlags.CREAT)
                yield from vfs.write(fd, UserBuffer(space, buf, FILE_SIZE))
                yield from vfs.close(fd)

        def metadata_walk(env):
            names = yield from vfs.readdir("/orfs/data")
            total = 0
            for name in names:
                attrs = yield from vfs.stat(f"/orfs/data/{name}")
                total += attrs.size
            return total

        def read_back(env, direct):
            flags = OpenFlags.RDONLY | (OpenFlags.DIRECT if direct else OpenFlags.RDONLY)
            out = space.mmap(FILE_SIZE)
            ok = 0
            for i in range(FILES):
                fd = yield from vfs.open(f"/orfs/data/f{i}", flags)
                n = yield from vfs.read(fd, UserBuffer(space, out, FILE_SIZE))
                if space.read_bytes(out, n) == payload:
                    ok += 1
                yield from vfs.close(fd)
            return ok

        print(f"ORFS over {api.upper()} — mixed file-system workload")
        print("=" * 60)
        phase("create+write", create_tree(env))
        total = phase("metadata walk (cold)", metadata_walk(env))
        phase("metadata walk (warm dcache)", metadata_walk(env))
        # Drop the page cache so the buffered read measures network transfer.
        for inode in range(1, 32):
            client_node.pagecache.invalidate_inode(inode)
        ok = phase("buffered read (cold cache)", read_back(env, direct=False))
        assert ok == FILES, "data corruption!"
        ok = phase("buffered read (warm cache)", read_back(env, direct=False))
        assert ok == FILES
        ok = phase("O_DIRECT read", read_back(env, direct=True))
        assert ok == FILES

        for name, ms in timings.items():
            print(f"{name:<28} {ms:8.2f} ms")
        print("-" * 60)
        print(f"total data verified: {FILES} files x {FILE_SIZE // 1024} kB "
              f"(sizes sum to {total // 1024} kB)")
        cpu = client_node.cpu.name
        dhits = registry.counter("vfs.dentry.hits", cpu=cpu).value
        dmisses = registry.counter("vfs.dentry.misses", cpu=cpu).value
        print(f"dentry cache: {dhits} hits / {dmisses} misses")
        cache = client_node.pagecache.name
        hits = registry.counter("pagecache.hits", cache=cache).value
        misses = registry.counter("pagecache.misses", cache=cache).value
        served = registry.counter("orfa.server.requests",
                                  node=server_node.node_id, api=api).value
        print(f"page cache:   {hits} hits / {misses} misses")
        print(f"server handled {served} protocol requests")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "mx")
