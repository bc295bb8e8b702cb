"""Hybrid flow fidelity: equivalence with packet/train modes, admission
refusals, contention and fault de-coalescing, and the mode switch."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench.netpipe import prepare_pair
from repro.bench.topo import filtered_obs, run_topo
from repro.bench.transports import MxTransport
from repro.cluster.topo import fat_tree
from repro.errors import SimulationError
from repro.faults import FaultPlan
from repro.hw.params import host_params
from repro.sim import Environment
from repro.sim.engine import FIDELITIES
from repro.units import KiB

SMALL_HOST = host_params(memory_frames=2048)


def _counters(registry, prefix):
    return {k: v for k, v in registry.snapshot()["counters"].items()
            if k.startswith(prefix)}


def _run_pair(mode, size, *, src=0, dst=4, plan_fn=None, extra_fn=None):
    """One (src -> dst) transfer on a k=4 fat-tree in one fidelity mode.

    ``plan_fn(fabric)`` may return a FaultPlan to install; ``extra_fn``
    may return additional processes to run alongside.  Returns the
    fingerprint dict for cross-mode comparison.
    """
    registry = obs.MetricsRegistry()
    with obs.installed_registry(registry):
        env = Environment(mode)
        f = fat_tree(env, 4, host=SMALL_HOST)
        plan = plan_fn(env, f) if plan_fn is not None else None
        ta = MxTransport(f.nodes[src], 1, peer_node=dst, peer_ep=2,
                         context="kernel")
        tb = MxTransport(f.nodes[dst], 2, peer_node=src, peer_ep=1,
                         context="kernel")
        prepare_pair(env, ta, tb, size)
        done = {}

        def tx():
            yield from ta.send(size)

        def rx():
            yield from tb.recv(size)
            done["at"] = env.now

        env.process(tx())
        env.process(rx())
        if extra_fn is not None:
            for proc in extra_fn(env, f):
                env.process(proc)
        env.run()
        snap = registry.snapshot()
        return {
            "done": done.get("at"),
            "now": env.now,
            "obs": filtered_obs(snap),
            "counters": snap["counters"],
            "histograms": snap["histograms"],
            "plan": plan,
        }


# -- equivalence ------------------------------------------------------------


def test_three_mode_identity_same_edge():
    """Uncontended exchange: completion tables and mode-filtered metric
    snapshots are byte-identical across packet, train and flow."""
    results = {m: run_topo(4, "identity", m, 64 * KiB) for m in FIDELITIES}
    ref = results["packet"]
    for mode in ("train", "flow"):
        assert results[mode]["completions"] == ref["completions"]
        assert results[mode]["obs"] == ref["obs"]
    assert results["flow"]["events"] < ref["events"]


@settings(max_examples=6, deadline=None, database=None)
@given(size=st.integers(min_value=8 * 4096, max_value=256 * KiB))
def test_flow_completion_exact_uncontended(size):
    """Any flow-eligible size on an uncontended cross-pod path finishes
    at the identical instant in all three modes (the trailing-FRAG
    back-pressure makes the analytic model exact)."""
    res = {m: _run_pair(m, size) for m in FIDELITIES}
    assert res["flow"]["done"] == res["packet"]["done"] \
        == res["train"]["done"]
    assert res["flow"]["obs"] == res["packet"]["obs"]


def test_congested_flow_reduces_events():
    packet = run_topo(4, "congested", "packet", 64 * KiB)
    flow = run_topo(4, "congested", "flow", 64 * KiB)
    assert flow["events"] * 2 < packet["events"]
    # Bytes are conserved regardless of scheduling model: the filtered
    # snapshots carry every link/switch byte counter.
    pb = {k: v for k, v in packet["obs"]["counters"].items()
          if k.startswith("net.link.bytes")}
    fb = {k: v for k, v in flow["obs"]["counters"].items()
          if k.startswith("net.link.bytes")}
    assert pb == fb


# -- admission refusals and mode switch -------------------------------------


def _counters_from(result, prefix):
    return {k: v for k, v in result["counters"].items()
            if k.startswith(prefix)}


def test_small_messages_not_reserved():
    r = _run_pair("flow", 4 * 4096)  # below min_flow_frags
    assert r["done"] is not None
    assert sum(_counters_from(r, "net.flows{").values()) == 0


def test_train_fidelity_never_forms_flows():
    r = _run_pair("train", 64 * KiB)  # train mode: flows off, trains on
    assert r["done"] is not None
    assert sum(_counters_from(r, "net.flows{").values()) == 0


def test_environment_rejects_unknown_fidelity():
    assert Environment().fidelity == "flow"
    with pytest.raises(SimulationError):
        Environment("hybrid")


def test_flow_metrics_emitted():
    r = _run_pair("flow", 64 * KiB)
    flows = _counters_from(r, "net.flows{")
    assert sum(flows.values()) == 1
    hist = {k: v for k, v in r["histograms"].items()
            if k.startswith("net.flow_len")}
    assert hist  # histogram observed the carried packet count


# -- de-coalescing ----------------------------------------------------------


def test_contention_decoalesces_flow():
    """Interloper traffic past the threshold on a reserved direction
    collapses the flow; bytes still balance and both transfers land."""
    size = 256 * KiB
    extra_done = {}

    def extra(env, f):
        # Host 1's ECMP path to host 4 on ports (1, 1) shares the
        # edge->agg trunk direction with the reserved 0 -> 4 flow
        # (probed: both hash onto p0a0/p1a0).  Each 12 KiB message is
        # train-blocked on the reserved direction ("flow"), so its
        # packets transmit individually and accumulate as interlopers;
        # 7 x 12 KiB = 84 KiB > the 64 KiB epoch threshold.
        tc = MxTransport(f.nodes[1], 1, peer_node=4, peer_ep=1,
                         context="kernel")
        td = MxTransport(f.nodes[4], 1, peer_node=1, peer_ep=1,
                         context="kernel")
        prepare_pair(env, tc, td, 12 * KiB)

        def blast():
            yield env.timeout(200_000)  # after the flow is admitted
            for i in range(7):
                yield from tc.send(12 * KiB, match=i)

        def drain():
            for i in range(7):
                yield from td.recv(12 * KiB)
            extra_done["at"] = env.now

        return [blast(), drain()]

    r = _run_pair("flow", size, extra_fn=extra)
    assert r["done"] is not None and extra_done["at"] is not None
    dec = _counters_from(r, "net.flow_decoalesce")
    assert any("reason=contention" in k for k in dec)


def test_link_down_decoalesce_reproduces_packet_mode():
    """Regression: a down window opening mid-flow must reproduce packet
    fidelity from the onset — identical fault traces (drop instants and
    payloads), identical recovery, identical completion."""
    size = 256 * KiB
    window = (400_000, 520_000)

    def plan_fn(env, f):
        path = f.path(0, 4, src_port=1, dst_port=2)
        trunk = path[1][0]  # first switch-egress hop: an edge->agg trunk
        assert trunk.name.startswith("ft.t.")
        env.trace = []
        plan = FaultPlan(seed=5).link_down(trunk.name, *window)
        plan.install(env, nodes=f.nodes,
                     switches=list(f.switches.values()))
        plan.records = env.trace
        return plan

    def fault_records(mode):
        return [(r.time, r.label, r.payload)
                for r in res[mode]["plan"].records if r.category == "fault"]

    res = {m: _run_pair(m, size, plan_fn=plan_fn)
           for m in ("packet", "flow")}
    flow_recs = fault_records("flow")
    packet_recs = fault_records("packet")
    assert flow_recs == packet_recs
    assert any(r[1] == "switch_drop" for r in flow_recs)  # window hit
    dec = _counters_from(res["flow"], "net.flow_decoalesce")
    assert any("reason=fault" in k for k in dec)
    assert res["flow"]["done"] == res["packet"]["done"]
    assert res["flow"]["obs"] == res["packet"]["obs"]
