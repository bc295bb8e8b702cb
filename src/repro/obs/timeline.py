"""Span/timeline tracing on simulated time, exported as Chrome trace
events (the JSON Perfetto / ``chrome://tracing`` loads directly).

A :class:`Timeline` collects two event shapes:

* **spans** (``begin``/``end``) — complete ``"X"`` events with a
  duration, e.g. one NIC transmit or one ORFA RPC;
* **instants** (``instant``) — point ``"i"`` events.

A timeline is process-wide: it collects across every
:class:`~repro.sim.engine.Environment` a bench run builds, which is why
it is installed here rather than carried by one run.  The fault,
reliability and replica records of a single run are that run's trace
(``env.trace``, see :mod:`repro.sim.trace`), not timeline events.

Times are simulated integer nanoseconds; the Chrome format's ``ts`` and
``dur`` are microseconds, so values are divided by 1000 (exact for the
common ns granularities, deterministic floats otherwise).  ``pid`` is
used as the node id and ``tid`` as the port/rank, which is how the
trace groups per-node lanes in the viewer.

Like the metrics registry, the timeline only *observes*: no simulation
events are created, so enabling it cannot change simulated time.  The
module-level helpers (:func:`span_begin` / :func:`span_end` /
:func:`instant`) are no-ops while no timeline is installed.
"""

from __future__ import annotations

import json
from typing import Optional

from ..errors import ReproError


class TimelineError(ReproError):
    """Timeline misuse."""


_SCALAR = (str, int, float, bool, type(None))


def _clean_args(args: dict) -> dict:
    """Chrome trace args must be JSON-serializable; coerce the rest."""
    return {k: (v if isinstance(v, _SCALAR) else str(v)) for k, v in args.items()}


class Span:
    """An open span: created by :meth:`Timeline.begin`, closed by
    :meth:`Timeline.end` (which emits the complete event)."""

    __slots__ = ("category", "name", "start_ns", "pid", "tid", "args")

    def __init__(self, category: str, name: str, start_ns: int,
                 pid: int, tid: int, args: dict):
        self.category = category
        self.name = name
        self.start_ns = start_ns
        self.pid = pid
        self.tid = tid
        self.args = args


class Timeline:
    """An append-only list of Chrome trace events on simulated time."""

    def __init__(self):
        self._events: list[dict] = []

    def __len__(self) -> int:
        return len(self._events)

    # -- recording ---------------------------------------------------------

    def begin(self, time_ns: int, category: str, name: str,
              pid: int = 0, tid: int = 0, **args) -> Span:
        """Open a span at ``time_ns``; nothing is recorded until
        :meth:`end` closes it."""
        return Span(category, name, time_ns, pid, tid, args)

    def end(self, time_ns: int, span: Span, **args) -> None:
        """Close ``span``, emitting one complete ('X') event."""
        if time_ns < span.start_ns:
            raise TimelineError(
                f"span {span.name!r} ends at {time_ns} before start {span.start_ns}"
            )
        event = {
            "ph": "X",
            "cat": span.category,
            "name": span.name,
            "pid": span.pid,
            "tid": span.tid,
            "ts": span.start_ns / 1000,
            "dur": (time_ns - span.start_ns) / 1000,
        }
        merged = {**span.args, **args}
        if merged:
            event["args"] = _clean_args(merged)
        self._events.append(event)

    def instant(self, time_ns: int, category: str, name: str,
                pid: int = 0, tid: int = 0, **args) -> None:
        """Record a point ('i') event."""
        event = {
            "ph": "i",
            "s": "t",
            "cat": category,
            "name": name,
            "pid": pid,
            "tid": tid,
            "ts": time_ns / 1000,
        }
        if args:
            event["args"] = _clean_args(args)
        self._events.append(event)

    # -- export ------------------------------------------------------------

    def to_chrome(self) -> dict:
        """The Chrome trace object (JSON Object Format)."""
        return {"traceEvents": list(self._events), "displayTimeUnit": "ms"}

    def to_json(self) -> str:
        """Stable (sorted-key, compact) JSON — byte-identical for
        identical event sequences."""
        return json.dumps(self.to_chrome(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())


_KNOWN_PHASES = frozenset("XBEibnesfMCP")


def validate_chrome_trace(trace) -> list[str]:
    """Validate a Chrome trace object; returns a list of problems
    (empty = valid).  Accepts the JSON Object Format (dict with
    ``traceEvents``) or the bare JSON Array Format."""
    errors: list[str] = []
    if isinstance(trace, dict):
        events = trace.get("traceEvents")
        if not isinstance(events, list):
            return ["traceEvents is missing or not a list"]
    elif isinstance(trace, list):
        events = trace
    else:
        return [f"trace must be a dict or list, got {type(trace).__name__}"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or ph not in _KNOWN_PHASES:
            errors.append(f"{where}: bad phase {ph!r}")
            continue
        if ph != "M" and not isinstance(ev.get("ts"), (int, float)):
            errors.append(f"{where}: ts missing or not a number")
        if not isinstance(ev.get("name"), str):
            errors.append(f"{where}: name missing or not a string")
        for field in ("pid", "tid"):
            if field in ev and not isinstance(ev[field], int):
                errors.append(f"{where}: {field} not an integer")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: complete event needs dur >= 0")
        if ph == "i" and ev.get("s", "t") not in ("t", "p", "g"):
            errors.append(f"{where}: bad instant scope {ev.get('s')!r}")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"{where}: args not an object")
    return errors


# -- the ambient active timeline -------------------------------------------

_active_tl: Optional[Timeline] = None


def install_timeline(timeline: Optional[Timeline] = None) -> Timeline:
    """Make ``timeline`` (or a fresh one) the process-wide active
    timeline used by the span helpers."""
    global _active_tl
    if _active_tl is not None:
        raise TimelineError("a timeline is already installed")
    _active_tl = timeline if timeline is not None else Timeline()
    return _active_tl


def uninstall_timeline() -> Optional[Timeline]:
    global _active_tl
    timeline, _active_tl = _active_tl, None
    return timeline


def active_timeline() -> Optional[Timeline]:
    return _active_tl


def timeline_enabled() -> bool:
    return _active_tl is not None


def span_begin(env, category: str, name: str, pid: int = 0, tid: int = 0,
               **args) -> Optional[Span]:
    """Open a span at ``env.now`` on the active timeline; returns None
    (and costs one attribute check) when no timeline is installed."""
    tl = _active_tl
    if tl is None:
        return None
    return tl.begin(env.now, category, name, pid=pid, tid=tid, **args)


def span_end(env, span: Optional[Span], **args) -> None:
    """Close a span from :func:`span_begin`; no-op on None."""
    if span is None:
        return
    tl = _active_tl
    if tl is not None:
        tl.end(env.now, span, **args)


def instant(env, category: str, name: str, pid: int = 0, tid: int = 0,
            **args) -> None:
    """Record an instant at ``env.now``; no-op when no timeline."""
    tl = _active_tl
    if tl is not None:
        tl.instant(env.now, category, name, pid=pid, tid=tid, **args)
