"""Tests for the MPI layer (repro.mpi) over both APIs."""

import pytest

from repro.mpi import mpi_world
from repro.mpi.comm import MpiError
from repro.sim import Environment
from repro.units import PAGE_SIZE

BACKENDS = ["mx", "gm"]


def run_spmd(env, comms, program):
    """Run ``program(comm)`` on every rank; returns rank-ordered results."""
    procs = [env.process(program(comm), name=f"rank{comm.rank}")
             for comm in comms]
    env.run(until=env.all_of(procs))
    return [p.value for p in procs]


@pytest.mark.parametrize("api", BACKENDS)
def test_blocking_send_recv(api):
    env = Environment()
    comms, nodes = mpi_world(env, 2, api=api)

    def program(comm):
        buf = comm.space.mmap(PAGE_SIZE)
        if comm.rank == 0:
            comm.space.write_bytes(buf, b"rank0->rank1")
            yield from comm.send(1, buf, 12, tag=7)
            return None
        n = yield from comm.recv(0, buf, PAGE_SIZE, tag=7)
        return comm.space.read_bytes(buf, n)

    results = run_spmd(env, comms, program)
    assert results[1] == b"rank0->rank1"


@pytest.mark.parametrize("api", BACKENDS)
def test_sendrecv_exchange_ring(api):
    env = Environment()
    comms, nodes = mpi_world(env, 4, api=api)

    def program(comm):
        n = comm.size
        out = comm.space.mmap(PAGE_SIZE)
        inb = comm.space.mmap(PAGE_SIZE)
        comm.space.write_bytes(out, bytes([comm.rank]) * 8)
        yield from comm.sendrecv((comm.rank + 1) % n, out, 8,
                                 (comm.rank - 1) % n, inb, 8, tag=3)
        return comm.space.read_bytes(inb, 8)

    results = run_spmd(env, comms, program)
    for rank, data in enumerate(results):
        assert data == bytes([(rank - 1) % 4]) * 8


@pytest.mark.parametrize("api", BACKENDS)
@pytest.mark.parametrize("n,root", [(2, 0), (4, 1), (5, 3)])
def test_bcast_delivers_to_all(api, n, root):
    env = Environment()
    comms, nodes = mpi_world(env, n, api=api)
    payload = bytes(range(256)) * 8  # 2 kB

    def program(comm):
        buf = comm.space.mmap(PAGE_SIZE)
        if comm.rank == root:
            comm.space.write_bytes(buf, payload)
        yield from comm.bcast(root, buf, len(payload))
        return comm.space.read_bytes(buf, len(payload))

    results = run_spmd(env, comms, program)
    assert all(r == payload for r in results)


@pytest.mark.parametrize("api", BACKENDS)
@pytest.mark.parametrize("n", [2, 4, 5])
def test_reduce_sum(api, n):
    env = Environment()
    comms, nodes = mpi_world(env, n, api=api)

    def program(comm):
        values = [comm.rank + 1, comm.rank * 10]
        result = yield from comm.reduce_ints(0, values, op="sum")
        return result

    results = run_spmd(env, comms, program)
    assert results[0] == [sum(range(1, n + 1)), sum(10 * r for r in range(n))]
    assert all(r is None for r in results[1:])


@pytest.mark.parametrize("api", BACKENDS)
def test_allreduce_max_and_min(api):
    env = Environment()
    comms, nodes = mpi_world(env, 4, api=api)

    def program(comm):
        hi = yield from comm.allreduce_ints([comm.rank, -comm.rank], op="max")
        lo = yield from comm.allreduce_ints([comm.rank], op="min")
        return hi, lo

    results = run_spmd(env, comms, program)
    assert all(r == ([3, 0], [0]) for r in results)


def test_gm_middleware_cache_reuses_registrations(count):
    """The section-2.2.2 middleware: repeated sends from the same buffer
    register once."""
    env = Environment()
    comms, nodes = mpi_world(env, 2, api="gm")

    def program(comm):
        buf = comm.space.mmap(PAGE_SIZE)
        for i in range(5):
            if comm.rank == 0:
                yield from comm.send(1, buf, 64, tag=i)
            else:
                yield from comm.recv(0, buf, 64, tag=i)

    run_spmd(env, comms, program)
    sender = nodes[0].node_id
    assert count("gmkrc.misses", node=sender) == 1
    assert count("gmkrc.hits", node=sender) == 4


def test_invalid_arguments_raise():
    env = Environment()
    comms, nodes = mpi_world(env, 2, api="mx")
    comm = comms[0]
    buf = comm.space.mmap(PAGE_SIZE)
    with pytest.raises(MpiError):
        env.run(until=env.process(comm.send(5, buf, 1)))
    with pytest.raises(MpiError):
        env.run(until=env.process(comm.send(0, buf, 1)))  # self-send
    with pytest.raises(MpiError):
        env.run(until=env.process(comm.send(1, buf, 1, tag=1 << 20)))


def test_mpi_latency_mx_beats_gm():
    """The user-space headline holds through the MPI layer too."""

    def one_way(api):
        env = Environment()
        comms, nodes = mpi_world(env, 2, api=api)
        times = {}

        def program(comm):
            buf = comm.space.mmap(PAGE_SIZE)
            rounds, warmup = 10, 2
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

        run_spmd(env, comms, program)
        return (times["t1"] - times["t0"]) / (2 * 10) / 1000

    gm = one_way("gm")
    mx = one_way("mx")
    assert mx < gm
    assert gm / mx > 1.3
