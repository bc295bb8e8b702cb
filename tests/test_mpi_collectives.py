"""Dedicated tests for the MPI collectives (repro.mpi.comm): bcast,
reduce, allreduce — plus the per-collective latency
histograms the observability layer records around each call."""

import pytest

from repro import obs
from repro.mpi import mpi_world
from repro.mpi.comm import MpiError
from repro.sim import Environment
from repro.units import PAGE_SIZE

BACKENDS = ["mx", "gm"]


@pytest.fixture(autouse=True)
def _no_ambient_leaks():
    yield
    obs.uninstall_registry()
    obs.uninstall_timeline()


def run_spmd(env, comms, program):
    procs = [env.process(program(comm), name=f"rank{comm.rank}")
             for comm in comms]
    env.run(until=env.all_of(procs))
    return [p.value for p in procs]


def test_single_rank_collectives_are_trivial():
    env = Environment()
    comms, nodes = mpi_world(env, 2, api="mx")
    comm = comms[0]
    comm.size = 1  # degenerate world of one

    def program(comm):
        buf = comm.space.mmap(PAGE_SIZE)
        yield from comm.bcast(0, buf, 16)
        return "done"

    assert env.run(until=env.process(program(comm))) == "done"


@pytest.mark.parametrize("api", BACKENDS)
def test_back_to_back_collectives_do_not_cross_match(api):
    """Collective tags are sequenced, so consecutive collectives of the
    same shape must not steal each other's messages."""
    env = Environment()
    comms, nodes = mpi_world(env, 3, api=api)

    def program(comm):
        buf = comm.space.mmap(PAGE_SIZE)
        out = []
        for round_no in range(4):
            payload = bytes([round_no]) * 32
            if comm.rank == 1:
                comm.space.write_bytes(buf, payload)
            yield from comm.bcast(1, buf, 32)
            out.append(comm.space.read_bytes(buf, 32))
            yield from comm.allreduce_ints([round_no])
        return out

    results = run_spmd(env, comms, program)
    for got in results:
        assert got == [bytes([r]) * 32 for r in range(4)]


# -- bcast -------------------------------------------------------------------


@pytest.mark.parametrize("api", BACKENDS)
@pytest.mark.parametrize("n,root", [(2, 1), (3, 2), (5, 4)])
def test_bcast_from_every_root(api, n, root):
    env = Environment()
    comms, nodes = mpi_world(env, n, api=api)
    payload = bytes(range(root, root + 64))

    def program(comm):
        buf = comm.space.mmap(PAGE_SIZE)
        if comm.rank == root:
            comm.space.write_bytes(buf, payload)
        yield from comm.bcast(root, buf, len(payload))
        return comm.space.read_bytes(buf, len(payload))

    assert all(r == payload for r in run_spmd(env, comms, program))


# -- reduce / allreduce ------------------------------------------------------


@pytest.mark.parametrize("api", BACKENDS)
@pytest.mark.parametrize("op,expect", [
    ("sum", lambda xs: sum(xs)),
    ("max", lambda xs: max(xs)),
    ("min", lambda xs: min(xs)),
])
def test_reduce_every_op(api, op, expect):
    env = Environment()
    comms, nodes = mpi_world(env, 4, api=api)

    def program(comm):
        contribution = [comm.rank * 3 - 1, -comm.rank]
        return (yield from comm.reduce_ints(2, contribution, op=op))

    results = run_spmd(env, comms, program)
    ranks = range(4)
    assert results[2] == [expect([r * 3 - 1 for r in ranks]),
                          expect([-r for r in ranks])]
    assert all(results[r] is None for r in ranks if r != 2)


@pytest.mark.parametrize("api", BACKENDS)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_allreduce_all_ranks_agree(api, n):
    env = Environment()
    comms, nodes = mpi_world(env, n, api=api)

    def program(comm):
        return (yield from comm.allreduce_ints([comm.rank + 1, 100], op="sum"))

    results = run_spmd(env, comms, program)
    expected = [sum(range(1, n + 1)), 100 * n]
    assert all(r == expected for r in results)


def test_reduce_negative_values_roundtrip():
    """int64 packing is signed: negative contributions must survive."""
    env = Environment()
    comms, nodes = mpi_world(env, 3, api="mx")

    def program(comm):
        return (yield from comm.reduce_ints(0, [-(10 ** 12) - comm.rank],
                                            op="sum"))

    results = run_spmd(env, comms, program)
    assert results[0] == [-3 * 10 ** 12 - 3]


def test_reduce_rejects_unknown_op_before_communicating():
    env = Environment()
    comms, nodes = mpi_world(env, 2, api="mx")
    with pytest.raises(MpiError, match="unknown op"):
        comms[0].reduce_ints(0, [1], op="mean").send(None)
    with pytest.raises(MpiError, match="unknown op"):
        comms[0].allreduce_ints([1], op="xor").send(None)


# -- per-collective latency histograms ---------------------------------------


def test_collectives_record_latency_histograms():
    with obs.installed_registry() as reg:
        env = Environment()
        comms, nodes = mpi_world(env, 3, api="mx")

        def program(comm):
            buf = comm.space.mmap(PAGE_SIZE)
            if comm.rank == 0:
                comm.space.write_bytes(buf, b"y" * 16)
            yield from comm.bcast(0, buf, 16)
            result = yield from comm.allreduce_ints([1], op="sum")
            return result

        results = run_spmd(env, comms, program)
        assert all(r == [3] for r in results)

        def hist(op):
            return reg.histogram("mpi.collective.latency_ns",
                                 op=op, api="mx")

        n = 3
        # allreduce nests a reduce and a bcast: each layer observes
        assert hist("allreduce").count == n
        assert hist("reduce").count == n
        assert hist("bcast").count == 2 * n  # explicit + nested
        assert hist("allreduce").sum > 0


def test_collectives_record_timeline_spans():
    tl = obs.install_timeline()
    try:
        env = Environment()
        comms, nodes = mpi_world(env, 2, api="gm")

        def program(comm):
            yield from comm.allreduce_ints([comm.rank])

        run_spmd(env, comms, program)
    finally:
        obs.uninstall_timeline()
    spans = [e for e in tl.to_chrome()["traceEvents"]
             if e["cat"] == "mpi" and e["name"] == "allreduce"]
    assert len(spans) == 2  # one per rank
    assert all(e["ph"] == "X" and e["dur"] > 0 for e in spans)
    assert {e["tid"] for e in spans} == {0, 1}


def test_collectives_without_registry_record_nothing():
    env = Environment()
    comms, nodes = mpi_world(env, 2, api="mx")

    def program(comm):
        yield from comm.allreduce_ints([comm.rank])

    run_spmd(env, comms, program)  # must simply not blow up
    assert not obs.metrics_enabled() and not obs.timeline_enabled()
