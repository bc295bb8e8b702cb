"""Fabric topology layer: fat-tree/dragonfly construction, ECMP
determinism, adaptive routing under faults, pod partitioning, and
sharded-vs-sequential identity of a partitioned fat-tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import node_pair, star
from repro.cluster.partition import (PartitionError, TopoLink, cut_links,
                                     propose_partition, validate_partition)
from repro.cluster.topo import dragonfly, fat_tree
from repro.faults import FaultPlan
from repro.hw.params import FabricParams, HostParams, NicParams, PCI_XD, \
    host_params
from repro.sim import Environment
from repro.sim.shard import run_sequential, run_sharded
from repro.units import KiB, PAGE_SIZE

SMALL_HOST = host_params(memory_frames=2048)


# -- construction -----------------------------------------------------------


def test_fat_tree_shape():
    env = Environment()
    f = fat_tree(env, 4, host=SMALL_HOST)
    assert len(f.nodes) == 16  # k^3/4
    # (k/2)^2 cores + k pods x (k/2 edge + k/2 agg)
    assert len(f.switches) == 4 + 4 * 4
    # hosts 0..3 live in pod 0 (two per edge switch)
    assert f.locator[0] == f.locator[1] == "ft.p0e0"
    assert f.locator[2] == f.locator[3] == "ft.p0e1"


def test_fat_tree_rejects_odd_k():
    with pytest.raises(ValueError):
        fat_tree(Environment(), 3)


def test_fat_tree_cross_pod_path_shape():
    env = Environment()
    f = fat_tree(env, 4, host=SMALL_HOST)
    # Cross-pod: host uplink + edge + agg + core + agg + edge = 6 links,
    # 5 switch-egress hops; terminal hop is the destination's uplink.
    path = f.path(0, 4)
    assert path is not None and len(path) == 6
    assert path[0][2] is None  # source uplink has no forwarding switch
    assert all(sw is not None for _l, _e, sw in path[1:])
    # Same-edge: uplink + one edge egress.
    assert len(f.path(0, 1)) == 2


def test_dragonfly_paths():
    env = Environment()
    f = dragonfly(env, groups=3, routers=2, hosts=2, host=SMALL_HOST)
    assert len(f.nodes) == 12
    # Minimal routing: local, global, local => at most 3 switch hops
    # (4 links) beyond the source uplink.
    for src, dst in [(0, 5), (0, 11), (3, 8), (1, 2)]:
        path = f.path(src, dst)
        assert path is not None and len(path) <= 5


# -- ECMP determinism -------------------------------------------------------


@settings(max_examples=20, deadline=None, database=None)
@given(src=st.integers(0, 15), dst=st.integers(0, 15),
       src_port=st.integers(0, 7), dst_port=st.integers(0, 7),
       seed=st.integers(1, 4))
def test_ecmp_path_deterministic(src, dst, src_port, dst_port, seed):
    """The frozen path for one (src, dst, ports, seed) tuple is a pure
    function: identical on re-query and across independently built
    fabrics — every FRAG and the final packet of a transfer take it."""
    if src == dst:
        return
    fab = FabricParams(ecmp_seed=seed)
    f1 = fat_tree(Environment(), 4, host=SMALL_HOST, fabric=fab)
    f2 = fat_tree(Environment(), 4, host=SMALL_HOST, fabric=fab)
    p1 = f1.path(src, dst, src_port=src_port, dst_port=dst_port)
    p1_again = f1.path(src, dst, src_port=src_port, dst_port=dst_port)
    p2 = f2.path(src, dst, src_port=src_port, dst_port=dst_port)
    names1 = [link.name for link, _e, _s in p1]
    assert names1 == [link.name for link, _e, _s in p1_again]
    assert names1 == [link.name for link, _e, _s in p2]
    assert p1[-1][0] is f1.switches[f1.locator[dst]]._links[dst]


def test_ecmp_spreads_over_cores():
    """Per-switch seed mixing must avoid polarization: the cross-pod
    flows of pod 0 should use more than one core switch."""
    env = Environment()
    f = fat_tree(env, 4, host=SMALL_HOST)
    cores = set()
    for src in range(4):
        for dst in range(4, 16):
            for sp in (1, 2):
                path = f.path(src, dst, src_port=sp, dst_port=2)
                for _link, _end, sw in path:
                    if sw is not None and sw.name.startswith("ft.core"):
                        cores.add(sw.name)
    assert len(cores) > 1


# -- adaptive routing under faults ------------------------------------------


def test_adaptive_never_selects_down_link():
    """With a seeded FaultPlan holding one uplink down, the adaptive
    selector must route every flow over the surviving candidates for
    the whole window."""
    env = Environment()
    f = fat_tree(env, 4, host=SMALL_HOST,
                 fabric=FabricParams(routing="adaptive"))
    edge = f.switches["ft.p0e0"]
    trunks = [link for link in edge.trunk_links()]
    assert len(trunks) == 2  # k/2 aggregation uplinks
    down_name = trunks[0].name
    plan = FaultPlan(seed=11).link_down(down_name, 1_000, 2_000_000)
    plan.install(env, nodes=f.nodes, switches=list(f.switches.values()),
                 reliability=False)
    picks = []

    def probe():
        yield env.timeout(5_000)  # inside the down window
        for dst in range(4, 16):
            for sp in range(4):
                link, _end = edge._select_trunk(dst, 0, sp, 2)
                picks.append(link)

    env.process(probe())
    env.run()
    assert picks and all(not link.is_down for link in picks)
    assert any(link.name == down_name for link in trunks)  # sanity


def test_adaptive_paths_not_frozen():
    """Adaptive routing is queue-state dependent, so the flow engine
    must decline to freeze a multi-trunk path."""
    env = Environment()
    f = fat_tree(env, 4, host=SMALL_HOST,
                 fabric=FabricParams(routing="adaptive"))
    assert f.path(0, 4) is None
    assert len(f.path(0, 1)) == 2  # same-edge needs no trunk decision


# -- partitioning -----------------------------------------------------------


def test_propose_pods_cuts_only_inter_pod_trunks():
    env = Environment()
    f = fat_tree(env, 4, host=SMALL_HOST)
    assignment = f.propose_pods(2)
    links = f.topolinks()
    validate_partition(links, assignment)
    for link in cut_links(links, assignment):
        # Every proposed cut is an inter-group trunk with the fat
        # propagation (= the sharded lookahead window).
        assert link.propagation_ns >= f.params.inter_propagation_ns
    # Hosts stay glued to their edge switch; pods stay whole.
    for nid, sw_name in f.locator.items():
        assert assignment[f._node_name[nid]] == assignment[sw_name]
    for sw_name, group in f.group_of.items():
        if group >= 0:
            peer = next(s for s, g in f.group_of.items()
                        if g == group and s != sw_name)
            assert assignment[sw_name] == assignment[peer]


def test_min_cut_propagation_contracts_thin_links():
    entities = ["a", "b", "c", "d"]
    links = [
        TopoLink("t0", "a", "b", 500),
        TopoLink("t1", "b", "c", 2000),
        TopoLink("t2", "c", "d", 500),
    ]
    assignment = propose_partition(entities, links, 2,
                                   min_cut_propagation_ns=2000)
    assert assignment["a"] == assignment["b"]
    assert assignment["c"] == assignment["d"]
    assert assignment["a"] != assignment["c"]
    # Without the floor the thin links are legal cuts and 4 shards fit;
    # with it only the fat trunk separates the two components.
    propose_partition(entities, links, 4)
    with pytest.raises(PartitionError):
        propose_partition(entities, links, 3, min_cut_propagation_ns=2000)


# -- star name_prefix -------------------------------------------------------


def test_star_name_prefix_threads_through():
    env = Environment()
    nodes, switch = star(env, 3, name_prefix="rack0.n",
                         switch_name="rack0.sw")
    assert [n.name for n in nodes] == ["rack0.n0", "rack0.n1", "rack0.n2"]
    assert switch.name == "rack0.sw"


# -- sharded fat-tree -------------------------------------------------------


class FatTreeShardScenario:
    """A k=4 fat-tree split pod-wise over two shards, with cross-cut
    transfers in both directions.  Partial fabrics install no
    FlowNetwork (reservations cannot see across the cut), so sharded
    and sequential runs must agree exactly."""

    nshards = 2
    nphases = 2

    def __init__(self, size=32 * KiB):
        self.size = size
        probe = fat_tree(Environment(), 4, host=SMALL_HOST, flow=None)
        self.assignment = probe.propose_pods(2)
        self._borders = [
            (l.name, self.assignment[l.a], self.assignment[l.b])
            for l in cut_links(probe.topolinks(), self.assignment)
        ]
        by_shard = {0: [], 1: []}
        for nid in sorted(probe.locator):
            by_shard[self.assignment[probe._node_name[nid]]].append(nid)
        # Two transfers per direction across the cut.
        self.pairs = [
            (by_shard[0][0], by_shard[1][0]),
            (by_shard[0][1], by_shard[1][1]),
            (by_shard[1][2], by_shard[0][2]),
            (by_shard[1][3], by_shard[0][3]),
        ]

    def borders(self):
        return self._borders

    def build(self, shard_id, env, hub):
        from repro.bench.transports import MxTransport

        fabric = fat_tree(env, 4, host=SMALL_HOST, hub=hub,
                          shard_id=shard_id, assignment=self.assignment)
        local = {node.node_id: node for node in fabric.nodes}
        senders = {}
        receivers = {}
        for src, dst in self.pairs:
            if src in local:
                senders[(src, dst)] = MxTransport(
                    local[src], 1, peer_node=dst, peer_ep=2,
                    context="kernel")
            if dst in local:
                receivers[(src, dst)] = MxTransport(
                    local[dst], 2, peer_node=src, peer_ep=1,
                    context="kernel")
        return {"senders": senders, "receivers": receivers, "done": {}}

    def phase(self, shard_id, k, env, ctx):
        if k == 0:
            return [t.prepare(max(self.size, PAGE_SIZE))
                    for t in (list(ctx["senders"].values())
                              + list(ctx["receivers"].values()))]
        procs = [self._tx(t) for t in ctx["senders"].values()]
        procs += [self._rx(env, ctx, pair, t)
                  for pair, t in ctx["receivers"].items()]
        return procs

    def _tx(self, t):
        yield from t.send(self.size)

    def _rx(self, env, ctx, pair, t):
        yield from t.recv(self.size)
        ctx["done"][pair] = env.now

    def result(self, shard_id, env, ctx):
        return {"done": sorted(ctx["done"].items()), "now": env.now}


def test_sharded_fat_tree_matches_sequential():
    scenario = FatTreeShardScenario()
    assert scenario._borders  # the partition really cuts something
    seq = run_sequential(scenario)
    shard = run_sharded(scenario)
    assert shard.now == seq.now
    assert shard.events_processed == seq.events_processed
    for sid in range(scenario.nshards):
        assert shard.payloads[sid] == seq.payloads[0][sid]
    done = dict(kv for sid in range(2)
                for kv in shard.payloads[sid]["done"])
    assert sorted(done) == sorted(scenario.pairs)


def test_paper_topologies_install_no_flow_network():
    """Every paper figure runs on ``node_pair`` or ``star``.  Neither
    installs a FlowNetwork, so ``"flow"`` and ``"train"`` fidelity are
    the same program there and the figures cannot depend on the choice."""
    nodes = list(node_pair(Environment()))
    for n in (2, 3, 5):
        nodes += star(Environment(), n)[0]
    assert nodes
    assert all(node.nic.flownet is None for node in nodes)
