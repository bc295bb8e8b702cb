"""Datacenter fabric topologies: k-ary fat-trees and dragonflies.

The paper's experiments are two-node, but the wire model underneath
(cut-through links, crossbar switches, packet pacing) composes into the
multi-stage fabrics its cluster-filesystem workloads would actually run
on.  This module builds them:

* :func:`fat_tree` — the k-ary Clos of Al-Fares et al.: ``k`` pods of
  ``k/2`` edge and ``k/2`` aggregation switches plus ``(k/2)²`` cores,
  ``k³/4`` hosts; every host pair has ``(k/2)²`` equal-cost paths
  through the core (``k=8`` → 128 hosts, ``k=16`` → 1024 hosts);
* :func:`dragonfly` — all-to-all-connected groups of routers with
  one global link per group pair, the low-diameter long-cable topology.

A :class:`Fabric` owns the shared node→switch locator, assigns each
switch a mixed per-switch ECMP seed (identical seeds on every stage
would polarize: all flows entering a pod would leave it through one
core), computes shortest-path routing tables by BFS over the switch
graph, and — the point of the exercise — installs one
:class:`repro.hw.flow.FlowNetwork` across the fabric so steady
transfers collapse into analytic flow reservations
(:mod:`repro.hw.flow`; they engage at the environment's default
``"flow"`` fidelity).
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..errors import NetworkError
from ..hw.flow import FlowNetwork
from ..hw.link import Link
from ..hw.params import (DEFAULT_FABRIC, DEFAULT_FLOW, FabricParams,
                         FlowParams, HostParams, LinkParams, NicParams,
                         PCI_XD, trunk_params)
from ..hw.switch import Switch
from ..hw.wire import ecmp_hash
from ..sim import Environment
from .node import Node, star

class Fabric:
    """A multi-switch topology under construction.

    Builders call :meth:`add_switch` / :meth:`add_hosts` /
    :meth:`add_trunk` in a fixed order, then :meth:`finalize`.  Node
    ids, ECMP seeds and port numbers come from deterministic counters
    in that order, so the same builder calls always build the same
    fabric.
    """

    def __init__(self, env: Environment, link: LinkParams = PCI_XD,
                 host: Optional[HostParams] = None,
                 fabric: FabricParams = DEFAULT_FABRIC,
                 flow: Optional[FlowParams] = DEFAULT_FLOW,
                 name: str = "fab"):
        self.env = env
        self.link_params = link
        self.host_params = host or HostParams(nic=NicParams(link=link))
        self.params = fabric
        self.flow_params = flow
        self.name = name
        #: Machines / switches in creation order.
        self.nodes: list[Node] = []
        self.switches: dict[str, Switch] = {}
        #: node id -> edge-switch name, shared by reference with every
        #: switch.
        self.locator: dict[int, str] = {}
        #: switch name -> group tag (pod number; cores use ``-1``).
        self.group_of: dict[str, int] = {}
        self._adj: dict[str, list[tuple[int, str]]] = {}  # name -> [(port, peer)]
        self._ports: dict[str, itertools.count] = {}
        self._peer_sw: dict[Link, tuple[str, str]] = {}
        self._next_id = 0
        self.flownet: Optional[FlowNetwork] = None
        self._finalized = False

    # -- construction ------------------------------------------------------

    def add_switch(self, sw_name: str, group: int = -1) -> Switch:
        """Declare and instantiate a switch.

        The ECMP seed mixes the fabric seed with the creation index, so
        parallel stages hash independently (no polarization).
        """
        if sw_name in self._adj:
            raise NetworkError(f"switch {sw_name!r} declared twice")
        idx = len(self.switches)
        self._adj[sw_name] = []
        self._ports[sw_name] = itertools.count()
        self.group_of[sw_name] = group
        sw = Switch(
            self.env, self.link_params,
            crossing_ns=self.params.crossing_ns,
            name=sw_name,
            ecmp_seed=ecmp_hash(idx, 0, 0, 0, self.params.ecmp_seed),
        )
        self.switches[sw_name] = sw
        return sw

    def add_hosts(self, sw_name: str, n: int,
                  name_prefix: Optional[str] = None) -> list[int]:
        """Hang ``n`` hosts off a declared switch; returns their ids."""
        prefix = name_prefix if name_prefix is not None else f"{self.name}.h"
        first = self._next_id
        self._next_id += n
        ids = list(range(first, first + n))
        for node_id in ids:
            self.locator[node_id] = sw_name
        nodes, _sw = star(self.env, n, link=self.link_params,
                          host=self.host_params, name_prefix=prefix,
                          base_id=first, switch=self.switches[sw_name])
        self.nodes.extend(nodes)
        return ids

    def add_trunk(self, a: str, b: str,
                  propagation_ns: Optional[int] = None) -> None:
        """Cable two declared switches together.

        Propagation defaults by locality: switches sharing a group tag
        get ``intra_propagation_ns``, others the long-cable
        ``inter_propagation_ns``.
        """
        for sw_name in (a, b):
            if sw_name not in self._adj:
                raise NetworkError(f"trunk references unknown switch {sw_name!r}")
        if propagation_ns is None:
            same = (self.group_of[a] == self.group_of[b]
                    and self.group_of[a] >= 0)
            propagation_ns = (self.params.intra_propagation_ns if same
                              else self.params.inter_propagation_ns)
        pa = next(self._ports[a])
        pb = next(self._ports[b])
        tname = f"{self.name}.t.{a}:{pa}-{b}:{pb}"
        self._adj[a].append((pa, b))
        self._adj[b].append((pb, a))
        link = Link(self.env, trunk_params(self.link_params, propagation_ns),
                    name=tname)
        self.switches[a].attach_trunk(pa, link, "a")
        self.switches[b].attach_trunk(pb, link, "b")
        self._peer_sw[link] = (a, b)

    def finalize(self) -> None:
        """Compute routing tables, install them, and (when ``flow`` is
        given) wire the analytic flow engine into every NIC."""
        if self._finalized:
            raise NetworkError(f"fabric {self.name!r} finalized twice")
        self._finalized = True
        routes = self._routes()
        for sw_name, sw in self.switches.items():
            sw.set_topology(self.locator, routes[sw_name])
        if self.flow_params is not None:
            self.flownet = FlowNetwork(self.env, self.flow_params,
                                       path_fn=self._flow_path,
                                       name=self.name)
            for node in self.nodes:
                node.nic.flownet = self.flownet

    def _routes(self) -> dict[str, dict[str, tuple[int, ...]]]:
        """Shortest-path tables for every switch.

        One BFS per target switch over the reverse adjacency: when a
        switch is first reached from the frontier at distance ``d - 1``,
        every port it has into that frontier is a shortest-path port, so
        the candidates are collected during the walk.  Equal candidate
        tuples share one object.
        """
        names = list(self.switches)
        index = {sw_name: i for i, sw_name in enumerate(names)}
        # switch -> [(peer, the peer's port to it)], switches by index
        into: list[list[tuple[int, int]]] = [[] for _ in names]
        for sw_name, ports in self._adj.items():
            i = index[sw_name]
            for port, peer in ports:
                into[index[peer]].append((i, port))
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        routes: dict[str, dict[str, tuple[int, ...]]] = {s: {} for s in names}
        tables = list(routes.values())
        for target in sorted(set(self.locator.values())):
            t = index[target]
            dist = [-1] * len(names)
            dist[t] = 0
            cands: list = [None] * len(names)
            frontier = [t]
            d = 0
            while frontier:
                d += 1
                level: list[int] = []
                for u in frontier:
                    for v, port in into[u]:
                        seen = dist[v]
                        if seen < 0:
                            dist[v] = d
                            cands[v] = [port]
                            level.append(v)
                        elif seen == d:
                            cands[v].append(port)
                frontier = level
            for i, ports in enumerate(cands):
                if i == t:
                    continue
                if ports is None:
                    raise NetworkError(
                        f"switch {names[i]!r} cannot reach {target!r}")
                ports.sort()
                key = tuple(ports)
                tables[i][target] = shared.setdefault(key, key)
        return routes

    # -- flow-engine integration -------------------------------------------

    def _flow_path(self, src_nic: int, src_port: int, dst_nic: int,
                   dst_port: int):
        """Freeze the ECMP path a (src, dst) addressing tuple will take:
        ``[(link, from_end, switch-or-None), ...]`` from the source host
        uplink to the destination host port, or ``None`` when no stable
        path exists (unknown source or destination)."""
        sw_name = self.locator.get(src_nic)
        if sw_name is None or dst_nic not in self.locator:
            return None
        sw = self.switches[sw_name]
        uplink = sw._links.get(src_nic)
        if uplink is None:
            return None
        hops = [(uplink, "b", None)]  # the NIC holds end "b" (star())
        for _ in range(len(self.switches)):
            link, end = sw.peek_route(src_nic, src_port, dst_nic, dst_port)
            hops.append((link, end, sw))
            if link is sw._links.get(dst_nic):
                return hops
            a, b = self._peer_sw.get(link, (None, None))
            peer = b if a == sw.name else a
            if peer is None:
                return None
            sw = self.switches[peer]
        return None  # pragma: no cover - routing loop

    def path(self, src_nic: int, dst_nic: int, src_port: int = 0,
             dst_port: int = 0):
        """Public probe of the frozen ECMP path (tests, debugging)."""
        return self._flow_path(src_nic, src_port, dst_nic, dst_port)


# -- builders --------------------------------------------------------------


def fat_tree(env: Environment, k: int, link: LinkParams = PCI_XD,
             host: Optional[HostParams] = None,
             fabric: FabricParams = DEFAULT_FABRIC,
             flow: Optional[FlowParams] = DEFAULT_FLOW,
             name: str = "ft") -> Fabric:
    """The k-ary fat-tree (Al-Fares et al.): ``k³/4`` hosts.

    ``k`` even: ``(k/2)²`` core switches, then per pod ``k/2``
    aggregation and ``k/2`` edge switches with ``k/2`` hosts per edge.
    Aggregation switch ``j`` of every pod uplinks to cores
    ``[j·k/2, (j+1)·k/2)``; every cross-pod host pair sees ``(k/2)²``
    equal-cost paths.  Host ids are dense from 0 in pod/edge order.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree arity must be even and >= 2, got {k}")
    half = k // 2
    f = Fabric(env, link=link, host=host, fabric=fabric, flow=flow,
               name=name)
    cores = [f"{name}.core{c}" for c in range(half * half)]
    for core in cores:
        f.add_switch(core, group=-1)
    for pod in range(k):
        edges = [f"{name}.p{pod}e{i}" for i in range(half)]
        aggs = [f"{name}.p{pod}a{j}" for j in range(half)]
        for sw_name in edges + aggs:
            f.add_switch(sw_name, group=pod)
        for edge in edges:
            f.add_hosts(edge, half)
        for edge in edges:
            for agg in aggs:
                f.add_trunk(edge, agg)
        for j, agg in enumerate(aggs):
            for c in range(j * half, (j + 1) * half):
                f.add_trunk(agg, cores[c])
    f.finalize()
    return f


def dragonfly(env: Environment, groups: int = 4, routers: int = 4,
              hosts: int = 2, link: LinkParams = PCI_XD,
              host: Optional[HostParams] = None,
              fabric: FabricParams = DEFAULT_FABRIC,
              flow: Optional[FlowParams] = DEFAULT_FLOW,
              name: str = "df") -> Fabric:
    """A dragonfly: ``groups`` all-to-all groups of ``routers`` routers
    (``hosts`` hosts each), one global link per group pair.

    Global link between groups ``a < b`` lands on router ``(b-1) mod R``
    in ``a`` and router ``a mod R`` in ``b`` (the palmtree layout), so
    the global links spread evenly over routers.  Minimal routing
    emerges from BFS: local→global→local, at most three switch-to-switch
    hops.
    """
    if groups < 2 or routers < 1 or hosts < 1:
        raise ValueError(
            f"dragonfly needs >=2 groups, >=1 routers and hosts, got "
            f"{groups}/{routers}/{hosts}")
    f = Fabric(env, link=link, host=host, fabric=fabric, flow=flow,
               name=name)
    names = [[f"{name}.g{g}r{r}" for r in range(routers)]
             for g in range(groups)]
    for g in range(groups):
        for r in range(routers):
            f.add_switch(names[g][r], group=g)
        for r in range(routers):
            f.add_hosts(names[g][r], hosts)
        for r1 in range(routers):
            for r2 in range(r1 + 1, routers):
                f.add_trunk(names[g][r1], names[g][r2])
    for a in range(groups):
        for b in range(a + 1, groups):
            f.add_trunk(names[a][(b - 1) % routers], names[b][a % routers])
    f.finalize()
    return f
