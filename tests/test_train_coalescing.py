"""Packet-train coalescing: equivalence, split/truncation, engine support.

The analytic wire fast path (:mod:`repro.hw.train`) is an *optimization*
of the per-packet FRAG loop, not a model change: with coalescing on or
off, every simulated timestamp, delivered byte, reliability sequence
number and observability counter (minus the new ``net.train*`` family)
must be identical.  The property test here drives randomized
size/contention/fault scenarios through both modes and diffs the
fingerprints; the unit tests pin the split/truncation mechanics and the
engine plumbing (``call_at``, ``schedule_bulk``, ``events_processed``)
the fast path rides on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.bench.netpipe import ping_pong, prepare_pair
from repro.bench.transports import MxTransport
from repro.cluster import node_pair, star
from repro.errors import SimulationError
from repro.faults import FaultPlan
from repro.hw import Link
from repro.hw.params import PCI_XD
from repro.hw.train import MIN_TRAIN_FRAGS, PacketTrain, TrainRun, TrainTruncation
from repro.sim import Environment
from repro.units import KiB, MiB

MTU = 4096


# -- fingerprint harness ------------------------------------------------------


def _filtered_obs(snapshot: dict) -> dict:
    """An obs snapshot minus the train-only metric family.

    ``net.trains`` / ``net.train_len`` / ``net.train_splits`` /
    ``net.train_decoalesce`` describe the *optimization*, not the model,
    so they are the only metrics allowed to differ between modes.
    """
    out = {}
    for section in ("counters", "gauges", "histograms"):
        out[section] = {
            k: v for k, v in snapshot[section].items()
            if not k.startswith("net.train")
        }
    return out


def _reliability_seqs(nics) -> list:
    """Sender/receiver sequence state of every NIC's reliability layer."""
    out = []
    for nic in nics:
        rel = nic._rel
        if rel is None:
            out.append(None)
            continue
        out.append({
            "tx": {peer: st.next_seq for peer, st in sorted(rel._tx.items())},
            "rx": dict(sorted(rel._rx_last.items())),
        })
    return out


def _run_pair_scenario(coalesce: bool, sizes, contention: bool,
                       drop_prob: float, seed: int) -> dict:
    """One deterministic run over a direct link pair; returns its
    observable fingerprint."""
    registry = obs.MetricsRegistry()
    with obs.installed_registry(registry):
        env = Environment("train" if coalesce else "packet")
        a, b = node_pair(env)
        if drop_prob:
            plan = FaultPlan(seed=seed).drop("wire", drop_prob)
            plan.install(env, nodes=[a, b])
        streams = [(1, sizes)]
        if contention:
            streams.append((2, list(reversed(sizes))))
        finishes: list[tuple[int, int]] = []
        procs = []
        for port, szs in streams:
            ta = MxTransport(a, port, peer_node=1, peer_ep=port, context="kernel")
            tb = MxTransport(b, port, peer_node=0, peer_ep=port, context="kernel")
            prepare_pair(env, ta, tb, max(szs))

            def tx(t=ta, szs=szs):
                for s in szs:
                    yield from t.send(s)

            def rx(t=tb, port=port, szs=szs):
                for s in szs:
                    yield from t.recv(s)
                    finishes.append((port, env.now))

            env.process(tx())
            procs.append(env.process(rx()))
        env.run(until=env.all_of(procs))
        env.run()  # drain trailing acks/timers so counters are final
        return {
            "now": env.now,
            "finishes": finishes,
            "rel": _reliability_seqs([a.nic, b.nic]),
            "obs": _filtered_obs(registry.snapshot()),
            "trains": registry.snapshot()["counters"].get(
                "net.trains{node=0}", 0),
        }


# -- the equivalence property -------------------------------------------------


@settings(max_examples=10, deadline=None, database=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=256 * KiB),
                   min_size=1, max_size=3),
    contention=st.booleans(),
    fault=st.sampled_from([(0.0, 0), (0.03, 1), (0.03, 4)]),
)
def test_off_vs_auto_fingerprints_identical(sizes, contention, fault):
    """Randomized sizes/contention/fault seeds: coalescing must be
    invisible to every observable except the net.train* family."""
    drop_prob, seed = fault
    off = _run_pair_scenario(False, sizes, contention, drop_prob, seed)
    auto = _run_pair_scenario(True, sizes, contention, drop_prob, seed)
    assert off["trains"] == 0  # off means off
    off.pop("trains"), auto.pop("trains")
    assert off == auto


def test_large_transfer_identical_and_trains_used():
    """The canonical case: a 1 MiB stream coalesces (trains > 0) and
    changes nothing observable."""
    off = _run_pair_scenario(False, [MiB], False, 0.0, 0)
    auto = _run_pair_scenario(True, [MiB], False, 0.0, 0)
    assert auto.pop("trains") > 0
    off.pop("trains")
    assert off == auto


def test_faulted_link_never_coalesces():
    """An armed injector forces per-packet simulation (the draw-sequence
    guarantee documented in repro.faults.plan)."""
    auto = _run_pair_scenario(True, [256 * KiB], False, 0.03, 1)
    assert auto["trains"] == 0


def test_event_reduction_at_least_3x():
    """The tentpole number: >= 3x fewer engine events per 1 MiB transfer,
    a budget on the train-mode events, and identical simulated time."""
    counts = {}
    ends = {}
    for mode in (False, True):
        env = Environment("train" if mode else "packet")
        a, b = node_pair(env)
        ta = MxTransport(a, 1, peer_node=1, peer_ep=1, context="kernel")
        tb = MxTransport(b, 1, peer_node=0, peer_ep=1, context="kernel")
        prepare_pair(env, ta, tb, MiB)
        base = env.events_processed

        def tx():
            yield from ta.send(MiB)

        def rx():
            yield from tb.recv(MiB)

        env.process(tx())
        done = env.process(rx())
        env.run(until=done)
        counts[mode] = env.events_processed - base
        ends[mode] = env.now
    assert counts[False] >= 3 * counts[True]
    # Per-packet work creeping back into the train path breaks this
    # budget (44 events when set).
    assert counts[True] <= 150
    # Trains are an optimization, not a model change.
    assert ends[False] == ends[True]


def test_small_messages_never_coalesce():
    """Below MIN_TRAIN_FRAGS fragments there is no train to form."""
    auto = _run_pair_scenario(True, [MTU, MTU * MIN_TRAIN_FRAGS], False, 0.0, 0)
    assert auto["trains"] == 0


# -- star topology: switch forwarding, contention splits ----------------------


def _run_star_scenario(coalesce: bool) -> dict:
    """Two senders stream to one receiver through the crossbar: the
    shared egress link contends, so trains must split or refuse."""
    registry = obs.MetricsRegistry()
    with obs.installed_registry(registry):
        env = Environment("train" if coalesce else "packet")
        nodes, switch = star(env, 3)
        finishes = []
        procs = []
        for sender, port in ((0, 5), (1, 6)):
            ts = MxTransport(nodes[sender], port, peer_node=2, peer_ep=port,
                             context="kernel")
            tr = MxTransport(nodes[2], port, peer_node=sender, peer_ep=port,
                             context="kernel")
            prepare_pair(env, ts, tr, 512 * KiB)

            def tx(t=ts):
                yield from t.send(512 * KiB)

            def rx(t=tr, port=port):
                yield from t.recv(512 * KiB)
                finishes.append((port, env.now))

            env.process(tx())
            procs.append(env.process(rx()))
        env.run(until=env.all_of(procs))
        env.run()
        snap = registry.snapshot()
        counters = snap["counters"]
        return {
            "now": env.now,
            "finishes": finishes,
            "obs": _filtered_obs(snap),
            "trains": sum(v for k, v in counters.items()
                          if k.startswith("net.trains{")),
            "degraded": sum(v for k, v in counters.items()
                            if k.startswith("net.train_splits{")
                            or k.startswith("net.train_decoalesce{")),
        }


def test_star_contention_identical_with_splits_exercised():
    off = _run_star_scenario(False)
    auto = _run_star_scenario(True)
    assert auto["trains"] > 0
    # The shared egress must have degraded at least one train (split or
    # refused) — otherwise this test stopped exercising the slow path.
    assert auto["degraded"] > 0
    for key in ("now", "finishes", "obs"):
        assert off[key] == auto[key]


# -- link-level split / truncation mechanics ----------------------------------


def _raw_link(env):
    link = Link(env, PCI_XD, name="L")
    got = []
    link.attach("b", got.append)
    link.attach("a", lambda m: None)
    return link, got


def _train(npackets: int) -> PacketTrain:
    return PacketTrain(src_nic=0, src_port=1, dst_nic=1, dst_port=1,
                       match=0, npackets=npackets, wire_size=MTU,
                       train_id=1)


def test_link_train_split_on_contention(count):
    """A competitor arriving mid-train cuts it at the next packet
    boundary; a truncation notice chases the descriptor downstream."""
    env = Environment()
    link, got = _raw_link(env)
    per = link.serialization_ns(MTU)
    tr, run = _train(10), TrainRun(10)
    result = {}

    def sender(env):
        result["done"] = yield from link.transmit_train("a", tr, run)

    def competitor(env):
        yield env.timeout(3 * per + per // 2)  # mid-4th-packet
        yield from link.transmit("a", tr, MTU)

    env.process(sender(env))
    env.process(competitor(env))
    env.run()
    assert result["done"] == 4  # the packet in flight completes
    trunc = [m for m in got if isinstance(m, TrainTruncation)]
    assert len(trunc) == 1 and trunc[0].npackets == 4
    assert trunc[0].train_id == tr.train_id
    # Wire accounting covers exactly the carried packets (4 analytic +
    # 1 from the competitor).
    assert count("link.bytes") == 5 * MTU


def test_link_train_truncation_rearms_analytic_end():
    """An upstream truncation shrinks the hold to the new boundary."""
    env = Environment()
    link, got = _raw_link(env)
    per = link.serialization_ns(MTU)
    tr, run = _train(10), TrainRun(10)
    result = {}

    def sender(env):
        result["done"] = yield from link.transmit_train("a", tr, run)

    env.process(sender(env))
    env.call_at(2 * per, run.truncate, 3)
    env.run()
    assert result["done"] == 3
    assert link.direction("ab").busy_time == 3 * per
    # The shortened train forwards its own truncation downstream.
    trunc = [m for m in got if isinstance(m, TrainTruncation)]
    assert len(trunc) == 1 and trunc[0].npackets == 3


def test_link_busy_direction_refuses_trains():
    env = Environment()
    link, _ = _raw_link(env)

    def holder(env):
        yield from link.transmit("a", "x", MTU)

    env.process(holder(env))
    assert link.train_block_reason("a") is None

    def check(env):
        yield env.timeout(1)
        assert link.train_block_reason("a") == "busy"

    env.process(check(env))
    env.run()
    assert link.train_block_reason("a") is None  # idle again


# -- engine plumbing ----------------------------------------------------------


def test_call_at_runs_in_order_with_args():
    env = Environment()
    seen = []
    env.call_at(10, seen.append, ("b", 10))
    env.call_at(0, seen.append, ("a", 0))
    env.call_at(10, seen.append, ("c", 10))
    env.run()
    assert seen == [("a", 0), ("b", 10), ("c", 10)]
    assert env.now == 10


def test_call_at_rejects_the_past():
    env = Environment()

    def proc(env):
        yield env.timeout(5)
        with pytest.raises(SimulationError):
            env.call_at(3, lambda: None)

    env.process(proc(env))
    env.run()


def test_schedule_bulk_matches_call_at_ordering():
    """Bulk entries fire exactly as per-entry call_at would: timestamp
    order, entry order within a timestamp, immediates honored."""
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(7)
        env.schedule_bulk([
            (7, seen.append, ("imm1",)),
            (9, seen.append, ("t9a",)),
            (9, seen.append, ("t9b",)),
            (8, seen.append, ("t8",)),
            (7, seen.append, ("imm2",)),
        ])

    env.process(proc(env))
    env.run()
    assert seen == ["imm1", "imm2", "t8", "t9a", "t9b"]


def test_schedule_bulk_large_batch_heapify_path():
    """A batch big enough to take the heapify branch keeps heap order."""
    env = Environment()
    seen = []
    env.schedule_bulk([(t, seen.append, (t,)) for t in range(200, 0, -1)])
    env.run()
    assert seen == list(range(1, 201))


def test_schedule_bulk_rejects_the_past():
    env = Environment()

    def proc(env):
        yield env.timeout(5)
        with pytest.raises(SimulationError):
            env.schedule_bulk([(4, lambda: None, ())])

    env.process(proc(env))
    env.run()


def test_events_processed_counts_all_dispatches():
    env = Environment()
    for t in (0, 5, 5, 9):
        env.call_at(t, lambda: None)
    env.run()
    assert env.events_processed == 4
    env.call_at(9, lambda: None)
    env.run()
    assert env.events_processed == 5
