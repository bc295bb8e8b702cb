"""Extension: the MPI layer — the baseline the paper's APIs target.

Section 2.2.2: MPI middleware "transparently registers buffers on the
flight and intercepts address space modifications", which is why GM is
fine for user-space MPI and painful in the kernel.  This benchmark
measures (a) MPI point-to-point latency over both stacks against the
raw API latencies (figure 5(a)'s 1 B points), and (b) the cost of a
4-rank allreduce.
"""

from conftest import run_once

from repro.bench.figures import measure, netpipe
from repro.mpi import mpi_world
from repro.sim import Environment
from repro.units import PAGE_SIZE, to_us


def _p2p_one_way(api: str, rounds: int = 10) -> float:
    env = Environment()
    comms, nodes = mpi_world(env, 2, api=api)
    times = {}

    def program(comm):
        buf = comm.space.mmap(PAGE_SIZE)
        warmup = 2
        for i in range(rounds + warmup):
            if comm.rank == 0:
                if i == warmup:
                    times["t0"] = comm.env.now
                yield from comm.send(1, buf, 1, tag=1)
                yield from comm.recv(1, buf, PAGE_SIZE, tag=2)
            else:
                yield from comm.recv(0, buf, PAGE_SIZE, tag=1)
                yield from comm.send(0, buf, 1, tag=2)
        if comm.rank == 0:
            times["t1"] = comm.env.now

    procs = [env.process(program(c)) for c in comms]
    env.run(until=env.all_of(procs))
    return to_us((times["t1"] - times["t0"]) / (2 * rounds))


def _allreduce_us(api: str, ranks: int = 4, rounds: int = 10) -> float:
    env = Environment()
    comms, nodes = mpi_world(env, ranks, api=api)
    times = {}

    def program(comm):
        t0 = comm.env.now
        for _ in range(rounds):
            yield from comm.allreduce_ints([comm.rank])
        if comm.rank == 0:
            times["dt"] = comm.env.now - t0

    procs = [env.process(program(c)) for c in comms]
    env.run(until=env.all_of(procs))
    return to_us(times["dt"] / rounds)


def _sweep():
    # The raw user-space 1 B latencies are figure 5(a)'s points.
    raw = measure(["fig5a"])
    return {
        "p2p_gm_us": _p2p_one_way("gm"),
        "p2p_mx_us": _p2p_one_way("mx"),
        "raw_gm_us": raw[netpipe("gm-user"), 1]["us"],
        "raw_mx_us": raw[netpipe("mx-user"), 1]["us"],
        "allreduce4_gm_us": _allreduce_us("gm"),
        "allreduce4_mx_us": _allreduce_us("mx"),
    }


def test_ext_mpi_overheads(benchmark):
    r = run_once(benchmark, _sweep)
    print(f"\nMPI 1-byte one-way: GM {r['p2p_gm_us']:.2f} us "
          f"(raw {r['raw_gm_us']:.2f}) | MX {r['p2p_mx_us']:.2f} us "
          f"(raw {r['raw_mx_us']:.2f})")
    print(f"4-rank allreduce  : GM {r['allreduce4_gm_us']:.1f} us | "
          f"MX {r['allreduce4_mx_us']:.1f} us")
    benchmark.extra_info.update(r)
    # the middleware adds only a small overhead over the raw API — the
    # paper's point that these interfaces serve user-space MPI well
    for api in ("gm", "mx"):
        overhead = r[f"p2p_{api}_us"] - r[f"raw_{api}_us"]
        assert 0 <= overhead < 1.0, (api, overhead)
    # the raw latency gap carries through to MPI and its collectives
    assert r["p2p_gm_us"] / r["p2p_mx_us"] > 1.3
    assert r["allreduce4_gm_us"] / r["allreduce4_mx_us"] > 1.2
