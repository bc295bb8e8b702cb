"""Tests for the observability subsystem (repro.obs): the metrics
registry, the span timeline, the ambient helpers, and whole-run
determinism of snapshots."""

import gc
import json

import pytest

from repro import obs
from repro.bench.report import format_metrics
from repro.bench.runner import main as bench_main
from repro.cluster.topo import fat_tree
from repro.mem.sglist import HOST_COPIES
from repro.mpi import mpi_world
from repro.obs import (
    LATENCY_BUCKETS_NS,
    MetricsRegistry,
    NULL_INSTRUMENT,
    ObsError,
    Timeline,
    TimelineError,
    metric_key,
    validate_chrome_trace,
)
from repro.sim import Environment
from repro.units import PAGE_SIZE


@pytest.fixture(autouse=True)
def _no_ambient_leaks():
    """Whatever a test does, never leak an installed registry/timeline
    into the next test (they are process-wide)."""
    yield
    obs.uninstall_registry()
    obs.uninstall_timeline()


def run_spmd(env, comms, program):
    procs = [env.process(program(comm), name=f"rank{comm.rank}")
             for comm in comms]
    env.run(until=env.all_of(procs))
    return [p.value for p in procs]


# -- registry ----------------------------------------------------------------


def test_metric_key_sorts_labels():
    assert metric_key("nic.tx", {}) == "nic.tx"
    assert metric_key("nic.tx", {"peer": 1, "node": 0}) == \
        "nic.tx{node=0,peer=1}"


def test_registry_get_or_create_shares_instruments():
    reg = MetricsRegistry()
    a = reg.counter("nic.tx.retransmits", node=0, peer=1)
    b = reg.counter("nic.tx.retransmits", peer=1, node=0)
    assert a is b  # label order does not matter
    a.inc()
    a.inc(2)
    assert b.value == 3
    g = reg.gauge("gm.registered_pages", cpu="c0")
    g.set(5)
    g.inc()
    g.dec(2)
    assert reg.gauge("gm.registered_pages", cpu="c0").value == 4


def test_helpers_disabled_share_one_noop():
    """With no registry installed every helper hands back the one shared
    no-op: updates go nowhere and it has no state to read."""
    assert not obs.metrics_enabled()
    c = obs.counter("nic.tx.messages", node=0)
    assert c is obs.counter("nic.tx.messages", node=1)
    assert c is obs.gauge("gm.registered_pages", cpu="c0")
    assert c is obs.histogram("x.latency_ns") is NULL_INSTRUMENT
    c.inc()
    c.inc(3)
    c.dec()
    c.set(7)
    c.observe(123)
    assert not any(hasattr(c, a) for a in ("key", "value", "count", "sum"))


def test_only_a_registry_counts():
    """Updates made with no registry installed land nowhere; handles
    taken under one carry their ``name{labels}`` key and count there."""
    obs.counter("nic.tx.messages", node=0).inc(3)
    with obs.installed_registry() as reg:
        c = obs.counter("nic.tx.messages", node=0)
        g = obs.gauge("gm.registered_pages", cpu="c0")
        c.inc(2)
    assert c.key == "nic.tx.messages{node=0}"
    assert g.key == "gm.registered_pages{cpu=c0}"
    assert reg.snapshot()["counters"] == {"nic.tx.messages{node=0}": 2}


def test_fabric_build_makes_no_instruments_without_a_registry():
    """A k=4 fat-tree build with no registry allocates no Counter or
    Gauge: every handle is the shared no-op."""

    def instruments() -> int:
        return sum(isinstance(o, (obs.Counter, obs.Gauge))
                   for o in gc.get_objects())

    gc.collect()
    before = instruments()
    fabric = fat_tree(Environment(), 4)
    assert len(fabric.nodes) == 16
    assert instruments() == before


def test_family_sums_a_label_subset():
    counters = {
        "nic.tx.retransmits{node=0,peer=1}": 2,
        "nic.tx.retransmits{node=0,peer=2}": 3,
        "nic.tx.retransmits{node=1,peer=0}": 5,
        "nic.tx.messages{node=0}": 7,
        "net.flow_flush": 4,
    }
    assert obs.family(counters, "nic.tx.retransmits") == 10
    assert obs.family(counters, "nic.tx.retransmits", node=0) == 5
    assert obs.family(counters, "nic.tx.retransmits", node=0, peer=2) == 3
    assert obs.family(counters, "nic.tx.retransmits", node=2) == 0
    assert obs.family(counters, "net.flow_flush") == 4
    assert obs.family(counters, "nic.tx") == 0  # names match whole


def test_helpers_enabled_aggregate():
    with obs.installed_registry() as reg:
        assert obs.metrics_enabled()
        obs.counter("gmkrc.hits", node=0, port=2).inc()
        obs.counter("gmkrc.hits", port=2, node=0).inc()
        assert reg.counter("gmkrc.hits", node=0, port=2).value == 2
        h = obs.histogram("orfa.request.latency_ns", op="read")
        h.observe(1500)
        assert h is reg.histogram("orfa.request.latency_ns", op="read")
    assert not obs.metrics_enabled()


def test_double_install_raises():
    obs.install_registry()
    with pytest.raises(ObsError):
        obs.install_registry()
    obs.uninstall_registry()
    obs.install_timeline()
    with pytest.raises(TimelineError):
        obs.install_timeline()


def test_histogram_buckets_and_overflow():
    h = MetricsRegistry().histogram("lat", buckets=(10, 100, 1000))
    for v in (5, 10, 11, 1000, 5000):
        h.observe(v)
    snap = h.snapshot()
    assert snap["buckets"] == [[10, 2], [100, 1], [1000, 1]]
    assert snap["overflow"] == 1
    assert snap["count"] == 5
    assert snap["sum"] == 5 + 10 + 11 + 1000 + 5000
    assert h.mean() == snap["sum"] / 5


def test_histogram_quantile_upper_bound_semantics():
    # Known distribution: 1..1000 uniformly, one observation each, on a
    # decade ladder.  The q-quantile is the upper bound of the first
    # bucket whose cumulative count reaches ceil(q * 1000).
    h = MetricsRegistry().histogram("lat", buckets=(10, 100, 500, 1000))
    for v in range(1, 1001):
        h.observe(v)
    assert h.quantile(0.0) == 10       # rank 1 lands in the first bucket
    assert h.quantile(0.005) == 10     # rank 5, cum 10 >= 5
    assert h.quantile(0.01) == 10      # rank 10 == bucket boundary
    assert h.quantile(0.011) == 100    # rank 11 spills to the next bucket
    assert h.quantile(0.5) == 500
    assert h.quantile(0.99) == 1000
    assert h.quantile(1.0) == 1000
    # Monotone in q for a fixed ladder.
    qs = [h.quantile(q / 20) for q in range(21)]
    assert qs == sorted(qs)


def test_histogram_quantile_point_mass_and_overflow():
    h = MetricsRegistry().histogram("lat", buckets=(10, 100))
    assert h.quantile(0.5) is None  # empty
    for _ in range(7):
        h.observe(42)
    assert h.quantile(0.0) == 100
    assert h.quantile(0.5) == 100
    assert h.quantile(1.0) == 100
    h.observe(10_000)  # overflow bucket has no finite upper bound
    assert h.quantile(1.0) == float("inf")
    assert h.quantile(0.5) == 100
    with pytest.raises(ObsError):
        h.quantile(1.5)
    with pytest.raises(ObsError):
        h.quantile(-0.1)


def test_snapshot_quantile_matches_live_and_survives_merge():
    reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
    ha = reg_a.histogram("lat", buckets=(10, 100, 1000))
    hb = reg_b.histogram("lat", buckets=(10, 100, 1000))
    for v in (1, 5, 50, 200):
        ha.observe(v)
    for v in (3, 70, 800, 900):
        hb.observe(v)
    merged = obs.merge_snapshots([reg_a.snapshot(), reg_b.snapshot()])
    hist = merged["histograms"]["lat"]
    for q in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0):
        reference = MetricsRegistry().histogram("lat", buckets=(10, 100, 1000))
        for v in (1, 5, 50, 200, 3, 70, 800, 900):
            reference.observe(v)
        assert obs.snapshot_quantile(hist, q) == reference.quantile(q)
    assert obs.snapshot_quantile(ha.snapshot(), 0.5) == ha.quantile(0.5)


def test_histogram_bucket_mismatch_raises():
    reg = MetricsRegistry()
    reg.histogram("lat", buckets=(1, 2))
    with pytest.raises(ObsError):
        reg.histogram("lat", buckets=(1, 2, 3))
    with pytest.raises(ObsError):
        MetricsRegistry().histogram("bad", buckets=(5, 5))


def test_snapshot_stable_sorted_json():
    reg = MetricsRegistry()
    reg.counter("b.second").inc(2)
    reg.counter("a.first", z=1, a=2).inc()
    reg.gauge("g").set(7)
    reg.histogram("h", buckets=LATENCY_BUCKETS_NS).observe(1)
    one, two = reg.to_json(), reg.to_json()
    assert one == two
    snap = json.loads(one)
    assert snap["schema"] == "repro-obs/1"
    assert snap["counters"]["a.first{a=2,z=1}"] == 1
    assert one.endswith("\n")


def test_host_copies_collector_publishes_gauges():
    """Each registry publishes the copies made since it was created;
    the process-wide meter itself keeps counting."""
    HOST_COPIES.count(100)
    before = HOST_COPIES.snapshot()
    with obs.installed_registry() as reg:
        HOST_COPIES.count(7)
        snap = reg.snapshot()
    assert snap["gauges"]["mem.host_copies.ops"] == 1
    assert snap["gauges"]["mem.host_copies.bytes"] == 7
    assert HOST_COPIES.copies == before["copies"] + 1
    assert HOST_COPIES.nbytes == before["nbytes"] + 7


def test_format_metrics_renders_tables():
    reg = MetricsRegistry()
    reg.counter("nic.tx.messages", node=0).inc(3)
    reg.gauge("gm.registered_pages", cpu="c").set(8)
    h = reg.histogram("lat", buckets=(10, 100))
    h.observe(5)
    h.observe(500)
    text = format_metrics(reg.snapshot())
    assert "metrics: counters" in text
    assert "nic.tx.messages{node=0}" in text and "3" in text
    assert "metrics: gauges" in text
    assert "histogram: lat" in text
    assert "overflow" in text
    assert format_metrics({"counters": {}, "gauges": {}, "histograms": {}}) \
        == "== metrics: empty =="


# -- timeline ----------------------------------------------------------------


def test_timeline_span_and_instant():
    tl = Timeline()
    span = tl.begin(1000, "nic", "tx.data", pid=1, tid=2, size=64)
    tl.end(3000, span, outcome="ok")
    tl.instant(500, "bench", "mark")
    trace = tl.to_chrome()
    assert validate_chrome_trace(trace) == []
    x, i = trace["traceEvents"]
    assert x["ph"] == "X" and x["ts"] == 1.0 and x["dur"] == 2.0
    assert x["pid"] == 1 and x["tid"] == 2
    assert x["args"] == {"size": 64, "outcome": "ok"}
    assert i["ph"] == "i" and i["s"] == "t" and i["name"] == "mark"
    assert tl.to_json() == tl.to_json()


def test_timeline_end_before_start_raises():
    tl = Timeline()
    span = tl.begin(1000, "c", "n")
    with pytest.raises(TimelineError):
        tl.end(999, span)


def test_validate_chrome_trace_flags_problems():
    assert validate_chrome_trace(42) != []
    assert validate_chrome_trace({"nope": []}) != []
    bad = [
        "not-an-object",
        {"ph": "Z", "name": "x", "ts": 0},
        {"ph": "i", "ts": 0},                      # no name
        {"ph": "i", "name": "x"},                  # no ts
        {"ph": "X", "name": "x", "ts": 0},         # no dur
        {"ph": "X", "name": "x", "ts": 0, "dur": -1},
        {"ph": "i", "name": "x", "ts": 0, "s": "q"},
        {"ph": "i", "name": "x", "ts": 0, "pid": "zero"},
        {"ph": "i", "name": "x", "ts": 0, "args": []},
    ]
    problems = validate_chrome_trace(bad)
    assert len(problems) == len(bad)


def test_ambient_span_helpers():
    class FakeEnv:
        now = 5000

    env = FakeEnv()
    # disabled: all no-ops, span handle is None
    assert obs.span_begin(env, "c", "n") is None
    obs.span_end(env, None)
    obs.instant(env, "c", "n")
    assert not obs.timeline_enabled()
    tl = obs.install_timeline()
    try:
        span = obs.span_begin(env, "nic", "tx", pid=3)
        env.now = 7000
        obs.span_end(env, span, outcome="ok")
        obs.instant(env, "bench", "mark", detail=object())
        events = tl.to_chrome()["traceEvents"]
        assert events[0]["ts"] == 5.0 and events[0]["dur"] == 2.0
        assert isinstance(events[1]["args"]["detail"], str)  # coerced
    finally:
        obs.uninstall_timeline()


# -- instrumentation and determinism -----------------------------------------


def test_component_counts_land_in_the_registry():
    with obs.installed_registry() as reg:
        env = Environment()
        comms, _nodes = mpi_world(env, 2, api="gm")

        def program(comm):
            yield from comm.allreduce_ints([comm.rank])

        run_spmd(env, comms, program)
        sent = reg.counter("nic.tx.messages", node=0).value
        assert sent > 0
        snap = reg.snapshot()
        assert snap["counters"]["nic.tx.messages{node=0}"] == sent


def _run_observed_scenario():
    reg = obs.install_registry()
    tl = obs.install_timeline()
    try:
        env = Environment()
        comms, nodes = mpi_world(env, 3, api="mx")

        def program(comm):
            buf = comm.space.mmap(PAGE_SIZE)
            if comm.rank == 0:
                comm.space.write_bytes(buf, b"x" * 64)
            yield from comm.bcast(0, buf, 64)
            total = yield from comm.allreduce_ints([comm.rank], op="sum")
            return total

        results = run_spmd(env, comms, program)
        assert all(r == [3] for r in results)
        return reg.to_json(), tl.to_json()
    finally:
        obs.uninstall_registry()
        obs.uninstall_timeline()


def test_same_seed_snapshots_are_byte_identical():
    first = _run_observed_scenario()
    second = _run_observed_scenario()
    assert first[0] == second[0]  # metrics snapshot
    assert first[1] == second[1]  # timeline


def test_scoped_registry_restores_ambient_state():
    outer = obs.install_registry()
    outer_tl = obs.install_timeline()
    obs.counter("outer.marker").inc()
    before = HOST_COPIES.snapshot()
    with obs.scoped_registry() as inner:
        assert obs.active_registry() is inner is not outer
        assert obs.active_timeline() is None
        obs.counter("inner.marker").inc()
        HOST_COPIES.count(333)
        with obs.scoped_registry() as innermost:  # nestable
            HOST_COPIES.count(1)
        assert obs.active_registry() is inner
    assert obs.active_registry() is outer
    assert obs.active_timeline() is outer_tl
    # The meter is process-wide and never reset by a run; every
    # registry publishes the copies made since its own creation.
    assert HOST_COPIES.copies == before["copies"] + 2
    assert HOST_COPIES.nbytes == before["nbytes"] + 334
    gauges = inner.snapshot()["gauges"]
    assert gauges["mem.host_copies.bytes"] == 334
    assert innermost.snapshot()["gauges"]["mem.host_copies.bytes"] == 1
    assert outer.snapshot()["gauges"]["mem.host_copies.bytes"] == 334
    assert outer.snapshot()["counters"] == {"outer.marker": 1}
    assert inner.snapshot()["counters"] == {"inner.marker": 1}


# -- bench runner flags ------------------------------------------------------


def test_runner_metrics_and_timeline_flags(tmp_path, capsys):
    metrics = tmp_path / "m.json"
    trace_path = tmp_path / "t.trace.json"
    assert bench_main(["fig4a", "--metrics", str(metrics),
                       "--timeline", str(trace_path)]) == 0
    captured = capsys.readouterr()
    assert "Physical Address" in captured.out
    assert "metrics: counters" in captured.err  # table goes to stderr
    snap = json.loads(metrics.read_text())
    assert snap["schema"] == "repro-obs/1"
    assert any(k.startswith("nic.tx.messages") for k in snap["counters"])
    trace = json.loads(trace_path.read_text())
    assert validate_chrome_trace(trace) == []
    events = trace["traceEvents"]
    assert any(e["name"] == "figure:fig4a" for e in events)
    assert any(e["ph"] == "X" for e in events)  # real spans recorded
    assert obs.active_registry() is None  # runner uninstalled cleanly
    assert obs.active_timeline() is None


def test_runner_stdout_identical_with_observability(tmp_path, capsys):
    assert bench_main(["fig4a"]) == 0
    plain = capsys.readouterr().out
    assert bench_main(["fig4a", "--metrics", str(tmp_path / "m.json")]) == 0
    assert capsys.readouterr().out == plain


def test_runner_rejects_parallel_observability(tmp_path, capsys):
    code = bench_main(["fig4a", "--metrics", str(tmp_path / "m.json"),
                       "--parallel", "2"])
    assert code == 2
    assert "--parallel 1" in capsys.readouterr().err
