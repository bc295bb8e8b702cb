"""The metrics registry: counters, gauges, fixed-bucket histograms.

Design rules (see docs/DESIGN_OBS.md):

* **Deterministic.**  Metrics observe the simulation, they never touch
  it: no instrument creates events, acquires resources, or advances
  simulated time.  Snapshots serialize with sorted keys, so the same
  seed yields byte-identical JSON.
* **Zero-cost when disabled.**  Components create their instruments
  through the module-level helpers (:func:`counter`, :func:`gauge`,
  :func:`histogram`).  With no registry installed every helper hands
  back the one shared :data:`NULL_INSTRUMENT`: updates are no-ops, it
  holds no readable state, and no handle is allocated.  A number is
  read only from a registry, never from a component.
* **Aggregation when enabled.**  With a registry installed
  (:func:`install_registry`), instruments are get-or-create by
  ``name{label=value,...}`` key, so identically-labeled instruments —
  including ones from *different* :class:`~repro.sim.Environment`
  instances built during one run — share one accumulator (cluster-wide
  totals).  A caller that wants one run's numbers on their own observes
  it under :func:`scoped_registry` and sums families with
  :func:`family`.

Hierarchy is by dotted name (``nic.tx.retransmits``); label sets are
kwargs (``node=0, peer=1``) and render sorted, so a key is stable
regardless of construction order.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from contextlib import contextmanager
from typing import Callable, Mapping, Optional, Sequence

from ..errors import ReproError
from . import timeline as _timeline


class ObsError(ReproError):
    """Observability subsystem misuse."""


#: Shared latency bucket ladder (simulated nanoseconds): 1 us .. 10 ms.
#: Latency histograms observe integer sim-ns so sums stay integral and
#: snapshots byte-identical across runs.
LATENCY_BUCKETS_NS = (
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
)

#: Message/transfer size ladder (bytes): 64 B .. 4 MB.
SIZE_BUCKETS = (
    64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304,
)


def _quantile(bounds: Sequence[int], bucket_counts: Sequence[int],
              count: int, q: float) -> Optional[float]:
    """Shared quantile kernel (see :meth:`Histogram.quantile`)."""
    if not 0.0 <= q <= 1.0:
        raise ObsError(f"quantile must be in [0, 1], got {q}")
    if count == 0:
        return None
    rank = max(1, math.ceil(q * count))
    cum = 0
    for bound, c in zip(bounds, bucket_counts):
        cum += c
        if cum >= rank:
            return bound
    return math.inf


def snapshot_quantile(hist_snapshot: dict, q: float) -> Optional[float]:
    """:meth:`Histogram.quantile` over a *snapshot* dict (the
    ``histograms[key]`` entry of a registry snapshot, including merged
    snapshots) — same bucket-upper-bound semantics."""
    bounds = [b for b, _c in hist_snapshot["buckets"]]
    counts = [c for _b, c in hist_snapshot["buckets"]]
    return _quantile(bounds, counts, hist_snapshot["count"], q)


def metric_key(name: str, labels: dict) -> str:
    """Canonical instrument key: ``name{k1=v1,k2=v2}``, labels sorted."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def family(values: Mapping[str, float], name: str, **labels) -> float:
    """Sum over ``values`` (a snapshot's ``counters`` or ``gauges``) of
    every instrument named ``name`` whose labels include ``labels``:
    ``family(snap["counters"], "nic.tx.retransmits", node=0)`` is node
    0's retransmissions to every peer."""
    want = {(k, str(v)) for k, v in labels.items()}
    total = 0
    for key, value in values.items():
        base, _, rest = key.partition("{")
        if base != name:
            continue
        got = {part.partition("=")[::2] for part in rest[:-1].split(",")}
        if want <= got:
            total += value
    return total


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("key", "value")

    def __init__(self, key: str):
        self.key = key
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A settable level (also supports inc/dec for occupancy tracking)."""

    __slots__ = ("key", "value")

    def __init__(self, key: str):
        self.key = key
        self.value = 0

    def set(self, v) -> None:
        self.value = v

    def inc(self, n=1) -> None:
        self.value += n

    def dec(self, n=1) -> None:
        self.value -= n


class Histogram:
    """Fixed-bucket histogram: counts of observations <= each bound,
    plus an overflow bucket, total count and sum."""

    __slots__ = ("key", "bounds", "bucket_counts", "overflow", "count", "sum")

    def __init__(self, key: str, buckets: Sequence[int] = LATENCY_BUCKETS_NS):
        bounds = tuple(buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ObsError(f"histogram buckets must be strictly increasing, got {bounds}")
        self.key = key
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0

    def observe(self, value) -> None:
        i = bisect_left(self.bounds, value)
        if i < len(self.bounds):
            self.bucket_counts[i] += 1
        else:
            self.overflow += 1
        self.count += 1
        self.sum += value

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile with *bucket-upper-bound* semantics.

        Returns the upper bound of the first bucket whose cumulative
        count reaches rank ``ceil(q * count)`` (rank 1 for q == 0) — the
        smallest bound b such that at least a q-fraction of observations
        were <= b.  The true quantile lies at or below the returned
        bound, so bucketed quantiles are conservative (never understate
        a latency) and, for a fixed ladder, monotone in q and stable
        under merges.  Observations past the last bound land in the
        overflow bucket, for which no finite upper bound exists:
        ``math.inf`` is returned.  An empty histogram returns ``None``.
        """
        return _quantile(self.bounds, self.bucket_counts, self.count, q)

    def snapshot(self) -> dict:
        return {
            "buckets": [[b, c] for b, c in zip(self.bounds, self.bucket_counts)],
            "overflow": self.overflow,
            "count": self.count,
            "sum": self.sum,
        }


class _NullInstrument:
    """The one instrument handed out while no registry is installed:
    every update is a no-op and it holds no state, so a handle costs
    nothing to make and hot paths pay one empty call."""

    __slots__ = ()

    def inc(self, n=1) -> None:
        pass

    def dec(self, n=1) -> None:
        pass

    def set(self, v) -> None:
        pass

    def observe(self, value) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()

_Collect = Callable[["MetricsRegistry"], None]

#: Module-level pull collectors, started against *every* registry as it
#: is created (e.g. repro.mem publishes HOST_COPIES through one).
_collectors: list[Callable[["MetricsRegistry"], _Collect]] = []


def register_collector(start: Callable[["MetricsRegistry"], _Collect]) -> None:
    """Add a global pull collector.  ``start(registry)`` runs as each
    new registry is created — the place to note the baseline the
    registry counts from — and returns the ``fn(registry)`` every
    :meth:`MetricsRegistry.snapshot` of it runs.  Idempotent per
    function object."""
    if start not in _collectors:
        _collectors.append(start)


class MetricsRegistry:
    """Hierarchical instrument store, get-or-create by key."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._local_collectors: list[_Collect] = [
            start(self) for start in _collectors]

    # -- instrument access (get-or-create) --------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = metric_key(name, labels)
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter(key)
        return c

    def gauge(self, name: str, **labels) -> Gauge:
        key = metric_key(name, labels)
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge(key)
        return g

    def histogram(self, name: str, buckets: Optional[Sequence[int]] = None,
                  **labels) -> Histogram:
        key = metric_key(name, labels)
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(
                key, buckets if buckets is not None else LATENCY_BUCKETS_NS
            )
        elif buckets is not None and tuple(buckets) != h.bounds:
            raise ObsError(
                f"histogram {key!r} already exists with buckets {h.bounds}"
            )
        return h

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Run all collectors, then return a plain-dict snapshot."""
        for fn in self._local_collectors:
            fn(self)
        return {
            "schema": "repro-obs/1",
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()},
            "histograms": {k: h.snapshot() for k, h in self._histograms.items()},
        }

    def to_json(self) -> str:
        """Stable, sorted JSON — byte-identical for identical contents."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())


# -- the ambient active registry ------------------------------------------

_active: Optional[MetricsRegistry] = None


def install_registry(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Make ``registry`` (or a fresh one) the process-wide active
    registry; instruments created afterwards register into it."""
    global _active
    if _active is not None:
        raise ObsError("a metrics registry is already installed")
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def uninstall_registry() -> Optional[MetricsRegistry]:
    """Deactivate and return the active registry (None if none was)."""
    global _active
    registry, _active = _active, None
    return registry


def active_registry() -> Optional[MetricsRegistry]:
    return _active


def metrics_enabled() -> bool:
    return _active is not None


@contextmanager
def installed_registry(registry: Optional[MetricsRegistry] = None):
    """Context manager: install a registry for the block, then uninstall."""
    reg = install_registry(registry)
    try:
        yield reg
    finally:
        uninstall_registry()


@contextmanager
def scoped_registry():
    """Context manager: observe one run on its own.

    Parks the ambient registry and timeline, installs a fresh registry
    for the block and yields it; on exit the outer registry and
    timeline are back.  Nestable, unlike :func:`installed_registry`.
    """
    outer = uninstall_registry()
    outer_tl = _timeline.uninstall_timeline()
    reg = install_registry()
    try:
        yield reg
    finally:
        uninstall_registry()
        if outer is not None:
            install_registry(outer)
        if outer_tl is not None:
            _timeline.install_timeline(outer_tl)


def counter(name: str, **labels):
    """Get-or-create a counter in the active registry;
    :data:`NULL_INSTRUMENT` when none is installed."""
    if _active is None:
        return NULL_INSTRUMENT
    return _active.counter(name, **labels)


def gauge(name: str, **labels):
    """Like :func:`counter`, for gauges."""
    if _active is None:
        return NULL_INSTRUMENT
    return _active.gauge(name, **labels)


def histogram(name: str, buckets: Optional[Sequence[int]] = None, **labels):
    """Like :func:`counter`, for histograms."""
    if _active is None:
        return NULL_INSTRUMENT
    return _active.histogram(name, buckets=buckets, **labels)


# -- snapshot merging --------------------------------------------------------


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge several :meth:`MetricsRegistry.snapshot` dicts into one
    (e.g. the registries of every point of a fleet sweep).

    Counters and gauges sum per metric key; histograms sum bucket
    counts positionally (bounds must agree), plus overflow/count/sum.
    """
    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}
    for snap in snapshots:
        if snap.get("schema") != "repro-obs/1":
            raise ObsError(f"cannot merge snapshot with schema {snap.get('schema')!r}")
        for key, value in snap["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in snap["gauges"].items():
            gauges[key] = gauges.get(key, 0) + value
        for key, h in snap["histograms"].items():
            merged = histograms.get(key)
            if merged is None:
                histograms[key] = {
                    "buckets": [list(b) for b in h["buckets"]],
                    "overflow": h["overflow"],
                    "count": h["count"],
                    "sum": h["sum"],
                }
                continue
            if [b for b, _ in merged["buckets"]] != [b for b, _ in h["buckets"]]:
                raise ObsError(f"histogram {key!r} bucket bounds differ across snapshots")
            for slot, (_, c) in zip(merged["buckets"], h["buckets"]):
                slot[1] += c
            merged["overflow"] += h["overflow"]
            merged["count"] += h["count"]
            merged["sum"] += h["sum"]
    return {
        "schema": "repro-obs/1",
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def snapshot_to_json(snapshot: dict) -> str:
    """Render a snapshot dict exactly as :meth:`MetricsRegistry.to_json`
    would — byte-identical for identical contents."""
    return json.dumps(snapshot, sort_keys=True, indent=2) + "\n"
