"""Lightweight tracing.

A run's trace lives on its :class:`~repro.sim.engine.Environment`:
``env.trace`` is ``None`` (the default: nothing is recorded) or a list
that :func:`emit` appends one :class:`TraceRecord` to per call, stamped
with ``env.now``.  To record a run::

    records = env.trace = []
    ...                       # build and run the model
    text = render_trace(records)

With no trace, :func:`emit` costs one attribute test; hot paths that
build payload dicts test ``env.trace is not None`` first, so an
untraced run builds no payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable


@dataclass(frozen=True)
class TraceRecord:
    """One trace event: (simulated time, category, label, payload)."""

    time: int
    category: str
    label: str
    payload: Any = None


def emit(env, category: str, label: str, payload: Any = None) -> None:
    """Append a record at ``env.now`` to ``env.trace``; no-op while the
    run records nothing."""
    trace = env.trace
    if trace is not None:
        trace.append(TraceRecord(env.now, category, label, payload))


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
