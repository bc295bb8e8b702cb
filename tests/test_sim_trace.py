"""Unit tests for run tracing (repro.sim.trace)."""

from repro.sim import Environment
from repro.sim.trace import TraceRecord, emit, render_trace


def test_emit_without_subscribers_is_noop():
    env = Environment()
    emit(env, "cat", "label", {"x": 1})  # must not raise or store
    assert env.trace is None


def test_record_everything_captures_all_categories():
    env = Environment()
    records = env.trace = []
    emit(env, "a", "one")

    def later():
        yield env.timeout(1500)
        emit(env, "b", "two", {"z": 2, "y": "s"})

    env.run(until=env.process(later()))
    assert records == [TraceRecord(0, "a", "one"),
                       TraceRecord(1500, "b", "two", {"z": 2, "y": "s"})]
    assert render_trace(records) == (
        "           0 a.one -\n"
        "        1500 b.two {y=s z=2}\n"
    )
