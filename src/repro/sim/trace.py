"""Lightweight tracing.

Model components emit named trace records through a :class:`Tracer`;
benchmarks and tests subscribe to categories they care about.  Tracing
is off by default and costs one dict lookup per emit when disabled, so
it is safe to leave emit calls in hot paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, MutableSequence, Optional

#: Recommended ``record_everything(limit=...)`` for long bench runs: a
#: bounded buffer this size holds the newest ~64k records (a few tens of
#: MB at worst) instead of growing without bound for the whole run.
DEFAULT_RECORD_LIMIT = 1 << 16


@dataclass(frozen=True)
class TraceRecord:
    """One trace event: (simulated time, category, label, payload)."""

    time: int
    category: str
    label: str
    payload: Any = None


class Tracer:
    """Pub/sub trace hub keyed by category string."""

    def __init__(self):
        self._subs: dict[str, list[Callable[[TraceRecord], None]]] = {}
        self._record_all: Optional[MutableSequence[TraceRecord]] = None

    def subscribe(self, category: str, fn: Callable[[TraceRecord], None]) -> None:
        """Invoke ``fn`` for every record emitted in ``category``."""
        self._subs.setdefault(category, []).append(fn)

    def record_everything(self, limit: Optional[int] = None
                          ) -> MutableSequence[TraceRecord]:
        """Keep every record in a buffer; returns the live buffer.

        With ``limit=None`` (the default) the buffer is an unbounded
        list — fine for tests, unbounded growth on long runs.  With
        ``limit=N`` it is a ``deque(maxlen=N)``: once full, each new
        record evicts the oldest (O(1)).  Long bench runs should pass
        :data:`DEFAULT_RECORD_LIMIT`.

        Calling again with a different ``limit`` converts the existing
        buffer in place-of (keeping the newest records that fit) and
        returns the *new* buffer — previously returned references stop
        receiving records, so re-read the return value.
        """
        if limit is not None and limit < 1:
            raise ValueError(f"record limit must be >= 1, got {limit}")
        if self._record_all is None:
            self._record_all = [] if limit is None else deque(maxlen=limit)
        elif limit is None:
            if isinstance(self._record_all, deque):
                self._record_all = list(self._record_all)
        elif not isinstance(self._record_all, deque) \
                or self._record_all.maxlen != limit:
            self._record_all = deque(self._record_all, maxlen=limit)
        return self._record_all

    def wants(self, category: str) -> bool:
        """True if anything would observe an emit in ``category``.

        Hot paths check this before building expensive payload dicts, so
        disabled tracing costs one dict lookup with no argument
        construction.
        """
        return self._record_all is not None or category in self._subs

    def emit(self, time: int, category: str, label: str, payload: Any = None) -> None:
        """Publish a record; no-op unless someone subscribed."""
        subs = self._subs.get(category)
        if subs is None and self._record_all is None:
            return
        rec = TraceRecord(time, category, label, payload)
        if self._record_all is not None:
            self._record_all.append(rec)
        if subs:
            for fn in subs:
                fn(rec)


def render_record(rec: TraceRecord) -> str:
    """Serialize one record to a stable, diffable text line.

    Dict payloads are emitted with sorted keys so the line depends only
    on the record's content, never on construction order — fault tests
    compare whole rendered traces byte-for-byte across seeded runs.
    """
    return f"{rec.time:>12d} {rec.category}.{rec.label} {_fmt_payload(rec.payload)}"


def render_trace(records: Iterable[TraceRecord]) -> str:
    """Serialize records to one line per record (trailing newline)."""
    return "".join(render_record(r) + "\n" for r in records)


def _fmt_payload(payload: Any) -> str:
    if payload is None:
        return "-"
    if isinstance(payload, dict):
        inner = " ".join(f"{k}={_fmt_payload(v)}" for k, v in sorted(payload.items()))
        return "{" + inner + "}"
    if isinstance(payload, str):
        return payload
    return str(payload)
