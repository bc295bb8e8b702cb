"""The incremental component-local water-fill against the from-scratch
global reference: exact rate equality under random arrival/departure
sequences, the settle-at-ETA overshoot corner, timer generation-guard
superseding, same-instant arrival batching, and the O(1) cost of
disjoint flows.

Every flush in this module is checked against the reference: the
autouse fixture wraps :meth:`FlowNetwork._flush`."""

import math
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench.netpipe import prepare_pair
from repro.bench.transports import MxTransport
from repro.cluster.topo import fat_tree
from repro.hw.flow import FlowNetwork
from repro.hw.link import Link
from repro.hw.params import MB, PCI_XD, LinkParams, host_params
from repro.sim import Environment
from repro.units import KiB

MTU = 4096


def waterfill_reference(flows: Iterable) -> dict[int, Fraction]:
    """From-scratch global max-min water-fill over ``flows``.

    This is the original O(flows × dirs × levels) algorithm, a pure
    function (no flow state is mutated) that the incremental
    component-local engine is checked against.  The max-min rate vector
    is unique — after one member of a bottleneck is fixed at
    ``avail/count`` the remaining members still sit at
    ``(avail - share)/(count - 1) == share`` — so any tie-break or
    component order must land on these rates.
    """
    flows = list(flows)
    rates: dict[int, Fraction] = {}
    if not flows:
        return rates
    dirs: dict = {}
    count: dict[int, int] = {}
    avail: dict[int, Fraction] = {}
    for f in flows:
        for dr in f.dirres:
            if dr.seq not in dirs:
                dirs[dr.seq] = dr
                count[dr.seq] = 0
                avail[dr.seq] = dr.cap
            count[dr.seq] += 1
    unfixed = {f.id for f in flows}
    order = sorted(dirs)
    while unfixed:
        bottleneck = None
        share = None
        for seq in order:
            if count[seq] <= 0:
                continue
            s = avail[seq] / count[seq]
            if share is None or s < share:
                share, bottleneck = s, seq
        assert bottleneck is not None
        for f in dirs[bottleneck].members:
            if f.id in unfixed:
                rates[f.id] = share
                unfixed.discard(f.id)
                for dr in f.dirres:
                    avail[dr.seq] -= share
                    count[dr.seq] -= 1
    return rates


def assert_reference_rates(net) -> None:
    """Every live flow's rate is a ``Fraction`` exactly equal to
    :func:`waterfill_reference`."""
    expect = waterfill_reference(net._flows.values())
    for f in net._flows.values():
        assert type(f.rate) is Fraction, type(f.rate)
        assert f.rate == expect[f.id], (f.id, f.rate, expect[f.id])


@pytest.fixture(autouse=True)
def _every_flush_checked(monkeypatch):
    flush = FlowNetwork._flush

    def checked(self):
        flush(self)
        assert_reference_rates(self)

    monkeypatch.setattr(FlowNetwork, "_flush", checked)


def make_link(env, bandwidth=250 * MB, name="l"):
    params = LinkParams(name=name, link_bandwidth=bandwidth,
                        pci_bandwidth=2 * bandwidth, propagation_ns=500,
                        cut_through_lag_ns=200)
    return Link(env, params, name=name)


def make_net(env):
    """A FlowNetwork driven directly through ``_admit`` — no fabric, no
    NICs: hops are real links with no switch (``sw=None``), so the
    down-window guard and the per-hop accounting still run while the
    tests control admission instants exactly."""
    return FlowNetwork(env, path_fn=None, name="wf")


def admit(net, hops, *, src=0, nfrags=10, mtu=MTU):
    desc = SimpleNamespace(src_port=1, dst_nic=src + 1000, dst_port=2,
                           match=0, size=(nfrags + 1) * mtu)
    nic = SimpleNamespace(node_id=src)
    path = [(link, end, None) for link, end in hops]
    return net._admit(nic, desc, nfrags, mtu, path)


def cap(link, mtu=MTU):
    return Fraction(mtu, link.serialization_ns(mtu))


def test_shared_direction_splits_capacity_exactly():
    env = Environment()
    net = make_net(env)
    link = make_link(env)
    f1 = admit(net, [(link, "a")], src=0)
    f2 = admit(net, [(link, "a")], src=1)
    f3 = admit(net, [(link, "b")], src=2)  # other direction: full rate
    env.run()
    assert net.active_flows == 0
    # Rates are committed at the flush; the flows completed, but their
    # last committed rate is still visible on the objects.
    assert f1.rate == f2.rate == cap(link) / 2
    assert f3.rate == cap(link)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_incremental_rates_equal_global_reference(data):
    """Every flush asserts (via the autouse fixture) that the rates
    the component-local engine committed equal the from-scratch global
    water-fill, exactly, as ``Fraction`` values — across random link
    speeds, random multi-hop paths, staggered arrivals and forced
    mid-life departures."""
    env = Environment()
    net = make_net(env)
    nlinks = data.draw(st.integers(2, 5), label="nlinks")
    speeds = data.draw(
        st.lists(st.sampled_from([66 * MB, 125 * MB, 160 * MB, 250 * MB]),
                 min_size=nlinks, max_size=nlinks),
        label="speeds")
    links = [make_link(env, bw, name=f"l{i}") for i, bw in enumerate(speeds)]
    nflows = data.draw(st.integers(1, 7), label="nflows")
    plan = []
    for fid in range(nflows):
        at = data.draw(st.integers(0, 300_000), label=f"at{fid}")
        hop_idx = data.draw(
            st.lists(st.integers(0, nlinks - 1), min_size=1, max_size=3,
                     unique=True),
            label=f"hops{fid}")
        ends = [data.draw(st.sampled_from(["a", "b"]), label=f"end{fid}.{i}")
                for i in range(len(hop_idx))]
        nfrags = data.draw(st.integers(2, 24), label=f"nfrags{fid}")
        plan.append((at, fid, hop_idx, ends, nfrags))
    admitted = {}

    def arrivals():
        for at, fid, hop_idx, ends, nfrags in sorted(plan):
            if at > env.now:
                yield env.timeout(at - env.now)
            admitted[fid] = admit(
                net, [(links[i], e) for i, e in zip(hop_idx, ends)],
                src=fid, nfrags=nfrags)

    env.process(arrivals())

    def kick(fid):
        f = admitted.get(fid)
        if f is not None and f.id in net._flows:
            net._decoalesce(f, "contention")

    for fid in range(nflows):
        if data.draw(st.booleans(), label=f"kick{fid}"):
            at = data.draw(st.integers(0, 600_000), label=f"kick_at{fid}")
            env.call_at(at, kick, fid)
    env.run()
    assert net.active_flows == 0
    # Forced de-coalescings hand the tail back to packet fidelity, so
    # done < total is legal there; done > total never is.
    assert all(f.done <= f.total for f in admitted.values())


def record_flushes(net, env):
    """Wrap ``net._flush`` (already checked against the reference by the
    autouse fixture); returns the list of flush instants."""
    checked = []
    orig_flush = net._flush

    def flush():
        orig_flush()
        checked.append(env.now)

    net._flush = flush
    return checked


def run_plan(data, speeds, nflows, max_hops, instants):
    """Admit ``nflows`` random multi-hop flows over links of ``speeds``
    at instants drawn from ``instants`` and run to completion, checking
    every flush against the reference."""
    env = Environment()
    net = make_net(env)
    links = [make_link(env, bw, name=f"l{i}") for i, bw in enumerate(speeds)]
    checked = record_flushes(net, env)
    by_instant: dict = {}
    for fid in range(nflows):
        hop_idx = data.draw(
            st.lists(st.integers(0, len(links) - 1), min_size=1,
                     max_size=min(max_hops, len(links)), unique=True),
            label=f"hops{fid}")
        ends = [data.draw(st.sampled_from(["a", "b"]), label=f"end{fid}.{i}")
                for i in range(len(hop_idx))]
        nfrags = data.draw(st.integers(2, 12), label=f"nfrags{fid}")
        at = data.draw(st.sampled_from(instants), label=f"at{fid}")
        by_instant.setdefault(at, []).append(
            ([(links[i], e) for i, e in zip(hop_idx, ends)], fid, nfrags))

    def admit_all(batch):
        for hops, fid, nfrags in batch:
            admit(net, hops, src=fid, nfrags=nfrags)

    for at, batch in by_instant.items():
        env.call_at(at, admit_all, batch)
    env.run()
    assert net.active_flows == 0
    assert checked, "no flush ran"


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_tie_heavy_levels_equal_reference(data):
    """Equal-speed links and same-instant arrivals: many directions
    saturate at the same level, so one batched level fixes several
    bottlenecks at once.  Rates must still equal the one-bottleneck-
    per-level reference exactly."""
    nlinks = data.draw(st.integers(2, 6), label="nlinks")
    nflows = data.draw(st.integers(2, 24), label="nflows")
    run_plan(data, [250 * MB] * nlinks, nflows, max_hops=3,
             instants=[0, 0, 0, 40_000])


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_large_mixed_speed_components_equal_reference(data):
    """Components of up to ~40 flows over links of mixed speeds, so the
    per-direction capacities (and every level's share) carry different
    denominators."""
    nlinks = data.draw(st.integers(3, 8), label="nlinks")
    speeds = data.draw(
        st.lists(st.sampled_from([66 * MB, 125 * MB, 160 * MB, 250 * MB]),
                 min_size=nlinks, max_size=nlinks),
        label="speeds")
    nflows = data.draw(st.integers(20, 40), label="nflows")
    run_plan(data, speeds, nflows, max_hops=4,
             instants=[0, 0, 30_000, 90_000])


def test_tied_bottlenecks_saturate_together():
    """Two directions tie as the first level's bottleneck (three flows
    each, one flow crossing both); a faster direction shared by two
    more flows is left for a later level.  Every rate equals the
    reference."""
    env = Environment()
    net = make_net(env)
    l1, l2 = make_link(env, name="l1"), make_link(env, name="l2")
    fast = make_link(env, 2 * 250 * MB, name="fast")
    flows = [admit(net, [(l1, "a")], src=0), admit(net, [(l1, "a")], src=1),
             admit(net, [(l2, "a")], src=2), admit(net, [(l2, "a")], src=3),
             admit(net, [(l1, "a"), (l2, "a")], src=4),
             admit(net, [(fast, "a")], src=5), admit(net, [(fast, "a")], src=6)]
    env.run(until=1)
    expect = waterfill_reference(net._flows.values())
    assert [f.rate for f in flows] == [expect[f.id] for f in flows]
    assert cap(l1) == cap(l2) and cap(fast) / 2 > cap(l1) / 3
    assert [f.rate for f in flows[:5]] == [cap(l1) / 3] * 5
    assert [f.rate for f in flows[5:]] == [cap(fast) / 2] * 2
    env.run()
    assert net.active_flows == 0


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_reference_equivalence_on_random_fabric_traffic(data):
    """Same exact-equality property, on a real fat-tree fabric: random
    disjoint pairs, sizes and start offsets; every flush in the run is
    checked against :func:`waterfill_reference`."""
    env = Environment()
    fabric = fat_tree(env, 4, host=host_params(memory_frames=2048))
    n = len(fabric.nodes)
    npairs = data.draw(st.integers(2, 5), label="npairs")
    perm = data.draw(st.permutations(list(range(n))), label="perm")
    jobs = []
    for i in range(npairs):
        src, dst = perm[2 * i], perm[2 * i + 1]
        size = data.draw(st.sampled_from([64 * KiB, 128 * KiB, 256 * KiB]),
                         label=f"size{i}")
        delay = data.draw(st.integers(0, 200_000), label=f"delay{i}")
        ta = MxTransport(fabric.nodes[src], 1, peer_node=dst, peer_ep=2,
                         context="kernel")
        tb = MxTransport(fabric.nodes[dst], 2, peer_node=src, peer_ep=1,
                         context="kernel")
        prepare_pair(env, ta, tb, size)
        jobs.append((ta, tb, size, delay))

    def tx(t, size, delay):
        yield env.timeout(delay)
        yield from t.send(size)

    def rx(t, size, delay):
        yield env.timeout(delay)
        yield from t.recv(size)

    for ta, tb, size, delay in jobs:
        env.process(tx(ta, size, delay))
        env.process(rx(tb, size, delay))
    env.run()
    assert fabric.flownet.active_flows == 0


def test_settle_exactly_on_recompute_boundary_commits_total():
    """A flow settled by a de-coalescing at exactly its (ceil'd) ETA:
    the rational finish instant lies strictly inside the previous
    nanosecond, so naive integration overshoots ``total``.  The commit
    must clamp to exactly ``total`` — never beyond, and never a loss
    mid-life (the in-engine assert enforces ``now >= eta`` whenever the
    clamp engages)."""
    env = Environment()
    net = make_net(env)
    link = make_link(env)
    per = link.serialization_ns(MTU)
    rate1 = cap(link)
    npackets = 10
    total = npackets * MTU
    # Two mid-life rate changes, the second an odd interval after the
    # first: a's progress picks up a half-packet-grain residue, so its
    # rational finish instant is non-integer and the ceil'd ETA lands
    # strictly past it.
    t1 = 3 * per + 1
    t2 = t1 + 2 * per + 1

    seen = {}

    def prog():
        a = admit(net, [(link, "a")], src=0, nfrags=npackets)
        yield env.timeout(t1)
        admit(net, [(link, "a")], src=1, nfrags=50)
        yield env.timeout(t2 - t1)
        # Predict a's ETA under third rate so the boundary callback is
        # inserted BEFORE the flush that arms the completion timer.
        done2 = rate1 * t1 + (rate1 / 2) * (t2 - t1)
        fin = t2 + (total - done2) / (rate1 / 3)
        eta = -int((-fin) // 1)
        assert fin != eta, "need a non-integer rational finish instant"

        def kick():
            assert a.id in net._flows, "timer must not have fired yet"
            assert a.done + a.rate * (env.now - a.last) > total, \
                "corner not reached: settling here must overshoot"
            net._decoalesce(a, "contention")
            seen["done"] = a.done
            seen["carried"] = a.carried
            seen["at"] = env.now

        env.call_at(eta, kick)
        admit(net, [(link, "a")], src=2, nfrags=50)

    env.process(prog())
    env.run()
    assert net.active_flows == 0
    assert seen["done"] == total  # exactly total, by construction
    assert seen["carried"] == npackets
    assert seen["at"] > t1


def test_rate_changes_mid_life_settle_to_plain_fraction_progress():
    """A flow re-rated four times mid-life (two arrivals, two forced
    departures, at odd instants): after every flush that re-rates it,
    its settled progress and its ETA equal a plain ``Fraction``
    recomputation from its rate history, and it completes at the last
    such ETA with exactly ``total`` bytes carried."""
    env = Environment()
    net = make_net(env)
    link = make_link(env)
    per = link.serialization_ns(MTU)
    npackets = 200
    total = npackets * MTU
    history = []  # (instant, rate) each time a's rate changed
    etas = []
    flush = net._flush

    def checked_flush():
        flush()
        if a.id not in net._flows or (history and history[-1][1] == a.rate):
            return
        history.append((env.now, a.rate))
        done = sum((r * (t1 - t0) for (t0, r), (t1, _) in
                    zip(history, history[1:])), Fraction(0))
        assert a.last == env.now
        assert a.done == done
        assert a.eta == env.now + math.ceil((total - done) / a.rate)
        etas.append(a.eta)

    net._flush = checked_flush
    a = admit(net, [(link, "a")], src=0, nfrags=npackets)
    others = {}
    t1 = 3 * per + 1
    t2 = t1 + 5 * per + 7
    t3 = t2 + 4 * per + 3
    t4 = t3 + 2 * per + 5
    env.call_at(t1, lambda: others.setdefault(
        "b", admit(net, [(link, "a")], src=1, nfrags=400)))
    env.call_at(t2, lambda: others.setdefault(
        "c", admit(net, [(link, "a")], src=2, nfrags=400)))
    env.call_at(t3, lambda: net._decoalesce(others["b"], "contention"))
    env.call_at(t4, lambda: net._decoalesce(others["c"], "contention"))
    env.run()
    rate = cap(link)
    assert history == [(0, rate), (t1, rate / 2), (t2, rate / 3),
                       (t3, rate / 2), (t4, rate)]
    assert net.active_flows == 0
    assert a.done == total and a.carried == npackets
    assert a.last == etas[-1]


def test_tick_generation_guard_supersedes_stale_timer():
    env = Environment()
    net = make_net(env)
    la, lb = make_link(env, name="a"), make_link(env, 125 * MB, name="b")
    stale = []
    orig_tick = net._tick

    def spy(gen):
        if gen != net._timer_gen:
            stale.append((env.now, gen, net._timer_gen))
        orig_tick(gen)

    net._tick = spy
    completed = []
    orig_complete = net._complete
    net._complete = lambda f: (completed.append((f.id, env.now)),
                               orig_complete(f))[1]
    f1 = admit(net, [(la, "a")], src=0, nfrags=10)
    env.call_at(7, lambda: admit(net, [(lb, "a")], src=1, nfrags=10))
    env.run()
    # The second arrival's flush re-armed the timer, so the timer armed
    # at t=0 fires with a stale generation and must do nothing.
    assert stale, "no superseded tick observed"
    assert net.active_flows == 0
    per_a, per_b = la.serialization_ns(MTU), lb.serialization_ns(MTU)
    assert completed == [(f1.id, 10 * per_a), (2, 7 + 10 * per_b)]


def test_same_instant_arrivals_share_one_flush():
    env = Environment()
    net = make_net(env)
    link = make_link(env)
    flushes = []
    orig_flush = net._flush
    net._flush = lambda: (flushes.append(env.now), orig_flush())[1]
    f1 = admit(net, [(link, "a")], src=0)
    f2 = admit(net, [(link, "a")], src=1)
    env.run()
    assert flushes.count(0) == 1  # both arrivals batched into one flush
    assert f1.rate == f2.rate == cap(link) / 2
    assert net.active_flows == 0


def test_disjoint_flows_cost_constant_waterfill_work():
    """A flow arriving or finishing on links nobody else uses must not
    re-divide other components: total touched-flow work for two
    disjoint flows is exactly one per arrival, and their completion
    flushes re-divide nobody."""
    registry = obs.MetricsRegistry()
    with obs.installed_registry(registry):
        env = Environment()
        net = make_net(env)
        la, lb = make_link(env, name="a"), make_link(env, name="b")
        f1 = admit(net, [(la, "a")], src=0, nfrags=10)
        env.call_at(7, lambda: admit(net, [(lb, "a")], src=1, nfrags=10))
        eta1 = None

        def snap_eta():
            nonlocal eta1
            eta1 = f1.eta

        env.call_at(5, snap_eta)  # after f1's flush, before f2 arrives
        env.run()
    assert net.active_flows == 0
    assert f1.eta == eta1, "disjoint arrival re-timed an untouched flow"
    counters = registry.snapshot()["counters"]

    def total(name, **labels):
        want = "".join(f",{k}={v}" for k, v in labels.items())
        return sum(v for key, v in counters.items()
                   if key.startswith(name + "{") and want in
                   "," + key.partition("{")[2].rstrip("}"))

    assert total("net.flow_waterfill_flows", scope="touched") == 2
    assert total("net.flow_waterfill_flows", scope="global") == 1 + 2 + 1
    assert total("net.flow_recompute") == 2  # one per arrival, none at exit
