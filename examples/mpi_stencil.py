#!/usr/bin/env python3
"""The paper's opening scenario: an MPI computation that also does I/O.

Section 2.1: "Parallel applications running on clusters often want to
get as much performance for storage access as for communication between
computing nodes."  This example runs both on the same simulated cluster:

* a 1-D Jacobi heat stencil across 4 ranks — halo exchange with
  ``sendrecv``, global residual with ``allreduce`` (the communication
  the APIs were designed for);
* a periodic checkpoint of each rank's partition into ORFS (the storage
  access the paper argues deserves the same quality of interface).

The numbers the run prints: per-iteration halo-exchange time, residual
convergence, checkpoint time, and the fraction of wall time spent in
I/O vs communication; the server's request count is read from a metrics
registry observing the run.

Run:  python examples/mpi_stencil.py [gm|mx]
"""

import sys

from repro import obs
from repro.core import GmKernelChannel, MxKernelChannel
from repro.kernel import OpenFlags
from repro.kernel.vfs import UserBuffer
from repro.mpi import mpi_world
from repro.orfa.server import OrfaServer
from repro.orfs import mount_orfs
from repro.sim import Environment
from repro.units import PAGE_SIZE, to_ms, to_us

RANKS = 4
CELLS_PER_RANK = 512  # one int64 per cell -> one page per partition
ITERATIONS = 10
CHECKPOINT_EVERY = 5
SERVER_PORT = 3


def main(api: str = "mx") -> None:
    with obs.scoped_registry() as registry:
        env = Environment()
        comms, nodes = mpi_world(env, RANKS, api=api)
        # The file server rides on rank 0's node (a common deployment).
        server = OrfaServer(nodes[0], SERVER_PORT, api=api)
        env.run(until=server.start())
        for i, node in enumerate(nodes):
            channel = (MxKernelChannel if api == "mx" else GmKernelChannel)(node, 50 + i)
            mount_orfs(node, channel, (nodes[0].node_id, SERVER_PORT))

        stats = {"halo_ns": 0, "ckpt_ns": 0, "residuals": []}

        def rank_program(comm):
            node = nodes[comm.rank]
            space = comm.space
            # int64 cells, fixed-point arithmetic (scaled by 1000)
            cells = [1000_000 if comm.rank == 0 else 0] * CELLS_PER_RANK
            halo_tx = space.mmap(PAGE_SIZE)
            halo_rx_lo = space.mmap(PAGE_SIZE)
            halo_rx_hi = space.mmap(PAGE_SIZE)
            ckpt_buf = space.mmap(8 * CELLS_PER_RANK)

            def pack(v):
                return v.to_bytes(8, "big", signed=True)

            for it in range(ITERATIONS):
                # --- halo exchange (left and right neighbours) ----------------
                t0 = env.now
                lo, hi = 0, 0
                left, right = comm.rank - 1, comm.rank + 1
                if right < comm.size:
                    space.write_bytes(halo_tx, pack(cells[-1]))
                    yield from comm.sendrecv(right, halo_tx, 8,
                                             right, halo_rx_hi, 8, tag=it % 100)
                    hi = int.from_bytes(space.read_bytes(halo_rx_hi, 8), "big",
                                        signed=True)
                if left >= 0:
                    space.write_bytes(halo_tx, pack(cells[0]))
                    yield from comm.sendrecv(left, halo_tx, 8,
                                             left, halo_rx_lo, 8, tag=it % 100)
                    lo = int.from_bytes(space.read_bytes(halo_rx_lo, 8), "big",
                                        signed=True)
                if comm.rank == 0:
                    stats["halo_ns"] += env.now - t0

                # --- Jacobi update (fixed cost per cell on the CPU) -----------
                yield from node.cpu.work(CELLS_PER_RANK * 20)
                padded = [lo] + cells + [hi]
                new = [(padded[i - 1] + padded[i + 1]) // 2
                       for i in range(1, len(padded) - 1)]
                if comm.rank == 0:
                    new[0] = 1000_000  # boundary condition
                diff = sum(abs(a - b) for a, b in zip(new, cells))
                cells = new

                # --- global residual ------------------------------------------
                [total] = yield from comm.allreduce_ints([diff])
                if comm.rank == 0:
                    stats["residuals"].append(total)

                # --- periodic checkpoint into ORFS ----------------------------
                if (it + 1) % CHECKPOINT_EVERY == 0:
                    t1 = env.now
                    data = b"".join(pack(v) for v in cells)
                    space.write_bytes(ckpt_buf, data)
                    fd = yield from node.vfs.open(
                        f"/orfs/ckpt_r{comm.rank}_i{it}",
                        OpenFlags.RDWR | OpenFlags.CREAT)
                    yield from node.vfs.write(
                        fd, UserBuffer(space, ckpt_buf, len(data)))
                    yield from node.vfs.close(fd)
                    if comm.rank == 0:
                        stats["ckpt_ns"] += env.now - t1
            return cells

        t_start = env.now  # after server setup (GM registers its rings here)
        procs = [env.process(rank_program(c), name=f"rank{c.rank}") for c in comms]
        env.run(until=env.all_of(procs))
        wall = env.now - t_start

        print(f"1-D Jacobi on {RANKS} ranks over {api.upper()} "
              f"({CELLS_PER_RANK} cells/rank, {ITERATIONS} iterations)")
        print("=" * 64)
        res = stats["residuals"]
        print(f"residual: {res[0]} -> {res[-1]} "
              f"({'monotone decrease' if all(a >= b for a, b in zip(res, res[1:])) else 'NOT MONOTONE'})")
        print(f"halo exchange: {to_us(stats['halo_ns'] / ITERATIONS):6.1f} us/iteration")
        print(f"checkpoints:   {to_ms(stats['ckpt_ns']):6.2f} ms total "
              f"({ITERATIONS // CHECKPOINT_EVERY} x {RANKS} partitions)")
        print(f"wall time:     {to_ms(wall):6.2f} ms")
        served = registry.counter("orfa.server.requests",
                                  node=nodes[0].node_id, api=api).value
        print(f"server handled {served} file requests while "
              f"the stencil ran")
        # the checkpoints are on the server's FS: verify one
        names = env.run(until=env.process(server.fs.readdir(1)))
        print(f"checkpoint files on server: {len(names)}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "mx")
