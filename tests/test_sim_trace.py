"""Unit tests for the tracer (repro.sim.trace)."""

from repro.sim.trace import Tracer


def test_emit_without_subscribers_is_noop():
    tracer = Tracer()
    tracer.emit(10, "cat", "label", {"x": 1})  # must not raise or store


def test_subscribe_receives_matching_category_only():
    tracer = Tracer()
    got = []
    tracer.subscribe("net", got.append)
    tracer.emit(1, "net", "send", 42)
    tracer.emit(2, "disk", "read")
    assert len(got) == 1
    assert got[0].time == 1 and got[0].label == "send" and got[0].payload == 42


def test_multiple_subscribers_same_category():
    tracer = Tracer()
    a, b = [], []
    tracer.subscribe("c", a.append)
    tracer.subscribe("c", b.append)
    tracer.emit(5, "c", "x")
    assert len(a) == len(b) == 1


def test_record_everything_captures_all_categories():
    tracer = Tracer()
    log = tracer.record_everything()
    tracer.emit(1, "a", "one")
    tracer.emit(2, "b", "two")
    assert [(r.category, r.label) for r in log] == [("a", "one"), ("b", "two")]
