"""Suite-wide test support: content equality for payload references,
one measurement per figure shared by the tests that read it, and the
metrics registry tests read counts from.

The program never compares payloads: it checks CRCs
(:meth:`~repro.mem.sglist.PayloadRef.checksum`) and materializes bytes
only at sinks.  Tests do compare them, so the comparison lives here and
is installed on :class:`~repro.mem.sglist.PayloadRef` for the test run:
a payload equals any bytes-like or payload with the same content, so
``completion.data == b"hello"`` works, and no side is joined to decide.
"""

from typing import Sequence

import pytest

from repro import obs
from repro.bench import claims
from repro.bench.figures import measure
from repro.mem.sglist import PayloadRef


def _as_chunks(obj) -> tuple:
    """Normalize any bytes-like or PayloadRef into a chunk tuple."""
    if isinstance(obj, PayloadRef):
        return obj.chunks()
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return (obj,) if len(obj) else ()
    raise TypeError(f"cannot compare PayloadRef with {type(obj).__name__}")


def _chunks_equal(a: Sequence, b: Sequence) -> bool:
    """Compare two chunk streams byte-wise without joining either."""
    ai, bi = iter(a), iter(b)
    av = memoryview(next(ai, b""))
    bv = memoryview(next(bi, b""))
    while True:
        if not len(av):
            nxt = next(ai, None)
            if nxt is None:
                break
            av = memoryview(nxt)
            continue
        if not len(bv):
            nxt = next(bi, None)
            if nxt is None:
                break
            bv = memoryview(nxt)
            continue
        n = min(len(av), len(bv))
        if av[:n] != bv[:n]:
            return False
        av = av[n:]
        bv = bv[n:]
    # equal iff both streams exhausted with no residue
    if len(av):
        return False
    if len(bv) or next(bi, None) is not None:
        return False
    return next(ai, None) is None


def _payload_eq(self, other) -> bool:
    try:
        other_chunks = _as_chunks(other)
    except TypeError:
        return NotImplemented
    if isinstance(other, PayloadRef) and other.length != self.length:
        return False
    return _chunks_equal(self.chunks(), other_chunks)


PayloadRef.__eq__ = _payload_eq
PayloadRef.__hash__ = None  # content-equal payloads must not hash apart


@pytest.fixture(scope="session")
def measured():
    """``measured(name)``: the results of measuring one runner name with
    its claims, made once per session.  The name's own points are planned
    first, so it renders as it does measured alone."""
    cache: dict = {}

    def get(name: str) -> dict:
        if name not in cache:
            cache[name] = measure([name, *claims.of(name)])
        return cache[name]

    return get


@pytest.fixture(scope="session")
def claim(measured):
    """``claim(figure, *rows)`` asserts that each named claim of
    ``figure`` holds on its shared measurement."""

    def check(figure: str, *rows: str) -> None:
        results = measured(figure)
        for row in rows:
            (found,) = [c for c in claims.of(figure) if c.row == row]
            assert found.holds(results), (figure, row,
                                           found.render(results))

    return check


@pytest.fixture
def count():
    """``count(name, **labels)``: the sum of one metric family (counters
    and gauges whose labels include ``labels``) over every world the test
    builds, read from a registry installed for the test alone.  List it
    before any fixture that builds a world, so the world's instruments
    register."""
    with obs.scoped_registry() as registry:

        def count(name: str, **labels) -> int:
            snap = registry.snapshot()
            return obs.family({**snap["counters"], **snap["gauges"]},
                              name, **labels)

        yield count
