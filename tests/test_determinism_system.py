"""System-level determinism: identical runs are bit-for-bit identical.

The whole benchmark methodology rests on this: no wall-clock, no global
RNG, deterministic tie-breaking in the event heap.  These tests rerun
full multi-subsystem scenarios and require *exactly* equal clocks,
counters and data.
"""

from repro import obs
from repro.bench.fileio import build_orfs, orfs_sequential_read
from repro.bench.netpipe import ping_pong, prepare_pair
from repro.bench.transports import GmUserTransport, MxTransport
from repro.cluster import node_pair
from repro.sim import Environment
from repro.units import KiB, MiB


def test_netpipe_runs_identically():
    def once():
        env = Environment()
        a, b = node_pair(env)
        ta = MxTransport(a, 1, peer_node=1, peer_ep=1)
        tb = MxTransport(b, 1, peer_node=0, peer_ep=1)
        prepare_pair(env, ta, tb, 64 * KiB)
        results = [ping_pong(env, ta, tb, s, rounds=5).one_way_ns
                   for s in (1, 4096, 64 * KiB)]
        return results, env.now

    assert once() == once()


def test_orfs_full_stack_runs_identically():
    def once():
        with obs.scoped_registry() as registry:
            rig = build_orfs("gm", file_size=256 * KiB)
            r1 = orfs_sequential_read(rig, 16 * KiB, 256 * KiB)
            r2 = orfs_sequential_read(rig, 16 * KiB, 256 * KiB, direct=True)
        counters = registry.snapshot()["counters"]
        cache = rig.client_node.pagecache.name
        return (r1.elapsed_ns, r2.elapsed_ns, rig.env.now,
                obs.family(counters, "orfa.server.requests"),
                obs.family(counters, "pagecache.hits", cache=cache),
                obs.family(counters, "pagecache.misses", cache=cache))

    assert once() == once()


#: Figure 5(a) series as produced by the seed (pre-fast-path) engine.
#: The engine/allocator fast paths must not perturb a single value:
#: scheduling order, clocks and arithmetic are required to be
#: byte-identical to the original single-heap implementation.
_FIG5A_SEED_GOLDEN = {
    "xs": [1, 16, 256, 1024, 4096],
    "series": {
        "GM User": [6.704, 6.764, 7.724, 10.796, 23.084],
        "GM Kernel": [8.704, 8.764, 9.724, 12.796, 25.084],
        "MX User": [4.308, 4.419, 5.656, 9.426, 24.508],
        "MX Kernel": [4.308, 4.419, 5.656, 9.426, 24.508],
    },
}


def test_fig5a_series_byte_identical_to_seed():
    from repro.bench.figures import FIGURES, measure

    data = FIGURES["fig5a"].view(measure(["fig5a"]))
    assert data.xs == _FIG5A_SEED_GOLDEN["xs"]
    assert data.series == _FIG5A_SEED_GOLDEN["series"]


def test_gm_registration_costs_identical_across_runs():
    def once():
        env = Environment()
        a, b = node_pair(env)
        t = GmUserTransport(a, 1, peer_node=1, peer_port=1)
        env.run(until=env.process(t.prepare(MiB)))
        return env.now, len(a.nic.transtable)

    assert once() == once()
