"""Fabric topology layer: fat-tree/dragonfly construction, ECMP
determinism and routing tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import node_pair, star
from repro.cluster.topo import Fabric, dragonfly, fat_tree
from repro.errors import NetworkError
from repro.hw.params import FabricParams, host_params
from repro.sim import Environment

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


# -- routing tables ---------------------------------------------------------


def _two_pass_routes(f):
    """The earlier route algorithm, kept here as the oracle: a BFS per
    target for distances, then a second scan over every switch's ports
    for those one hop closer."""
    routes = {sw: {} for sw in f.switches}
    for target in sorted(set(f.locator.values())):
        dist = {target: 0}
        frontier = [target]
        while frontier:
            nxt = []
            for sw in frontier:
                for _port, peer in f._adj[sw]:
                    if peer not in dist:
                        dist[peer] = dist[sw] + 1
                        nxt.append(peer)
            frontier = nxt
        for sw in f.switches:
            if sw != target:
                routes[sw][target] = tuple(sorted(
                    port for port, peer in f._adj[sw]
                    if dist.get(peer) == dist[sw] - 1))
    return routes


@pytest.mark.parametrize("build", [
    lambda env: fat_tree(env, 4, host=SMALL_HOST),
    lambda env: fat_tree(env, 8, host=SMALL_HOST),
    lambda env: fat_tree(env, 16, host=SMALL_HOST),
    lambda env: dragonfly(env, groups=5, routers=4, hosts=2, host=SMALL_HOST),
    lambda env: dragonfly(env, groups=9, routers=3, hosts=1, host=SMALL_HOST),
], ids=["ft4", "ft8", "ft16", "df5x4x2", "df9x3x1"])
def test_routes_equal_the_two_pass_algorithm(build):
    f = build(Environment())
    routes, oracle = f._routes(), _two_pass_routes(f)
    assert routes == oracle
    assert all(list(routes[sw]) == list(oracle[sw]) for sw in oracle)
    # Equal candidate tuples are one shared object.
    cands = [c for table in routes.values() for c in table.values()]
    assert len({id(c) for c in cands}) == len(set(cands))


def test_unreachable_switch_is_refused():
    f = Fabric(Environment(), host=SMALL_HOST)
    f.add_switch("a")
    f.add_switch("b")
    f.add_hosts("a", 1)
    with pytest.raises(NetworkError, match="cannot reach"):
        f.finalize()


# -- star name_prefix -------------------------------------------------------


def test_star_name_prefix_threads_through():
    env = Environment()
    nodes, switch = star(env, 3, name_prefix="rack0.n",
                         switch_name="rack0.sw")
    assert [n.name for n in nodes] == ["rack0.n0", "rack0.n1", "rack0.n2"]
    assert switch.name == "rack0.sw"


def test_paper_topologies_install_no_flow_network():
    """Every paper figure runs on ``node_pair`` or ``star``.  Neither
    installs a FlowNetwork, so ``"flow"`` and ``"train"`` fidelity are
    the same program there and the figures cannot depend on the choice."""
    nodes = list(node_pair(Environment()))
    for n in (2, 3, 5):
        nodes += star(Environment(), n)[0]
    assert nodes
    assert all(node.nic.flownet is None for node in nodes)
