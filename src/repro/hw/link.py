"""Network links: full-duplex, bandwidth-limited, with propagation delay.

A :class:`Link` joins two endpoints (NICs or a NIC and a switch port).
Each direction is an independent resource, so the paper's "full-duplex"
ratings hold: simultaneous opposite-direction transfers do not contend.
Transmission models cut-through: the sender occupies its direction for
the serialization time; delivery lands ``propagation`` after the last
byte leaves.

Fault injection
---------------

A link may carry a *fault injector* (see :mod:`repro.faults`): a filter
consulted once per transmitted item, after the wire has been occupied
(the sender's serialization cost is paid whether or not the bits arrive,
and ``link.bytes`` accounts the bytes the wire carried, not the bytes
delivered).  The filter may pass the item through, drop it, or substitute
a corrupted copy.  With no injector installed (the default) the path is
a single ``is None`` check and the link is the perfect wire it always
was.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .. import obs
from ..errors import NetworkError
from ..sim import Environment, Resource
from ..units import transfer_time_ns
from .params import LinkParams
from .train import PacketTrain, TrainRun, TrainTruncation


def _far(end: str) -> str:
    return "b" if end == "a" else "a"


class Link:
    """A point-to-point full-duplex link between endpoints ``a`` and ``b``.

    Per-direction state sits in slots named by direction (``ab`` runs
    from end ``a`` to end ``b``): a fabric builds thousands of links, and
    slots cost a fraction of per-direction dicts.
    """

    __slots__ = ("env", "params", "name", "_dir_ab", "_dir_ba", "_end_a",
                 "_end_b", "_bytes_ab", "_bytes_ba", "_busy_ab", "_busy_ba",
                 "_m_dropped", "faults", "flows")

    def __init__(self, env: Environment, params: LinkParams, name: str = "link"):
        self.env = env
        self.params = params
        self.name = name
        self._dir_ab = Resource(env, 1, f"{name}.ab")
        self._dir_ba = Resource(env, 1, f"{name}.ba")
        self._end_a: Optional[Callable[[Any], None]] = None
        self._end_b: Optional[Callable[[Any], None]] = None
        # Per-direction wire accounting on the metrics registry.
        # busy_ns accumulates serialization time, so a deterministic
        # utilization is derivable from any snapshot without wall-clock.
        self._bytes_ab = obs.counter("link.bytes", link=name, dir="ab")
        self._bytes_ba = obs.counter("link.bytes", link=name, dir="ba")
        self._busy_ab = obs.counter("link.busy_ns", link=name, dir="ab")
        self._busy_ba = obs.counter("link.busy_ns", link=name, dir="ba")
        self._m_dropped = obs.counter("link.drops", link=name)
        #: Optional fault injector (repro.faults.LinkFaultInjector).
        self.faults = None
        #: Optional per-link flow state (repro.hw.flow.LinkFlows),
        #: installed the first time a flow reservation crosses this
        #: link.  While a direction carries reservations, packet
        #: transmissions on it are "interlopers": counted against the
        #: contention threshold that de-coalesces the flows.
        self.flows = None

    @property
    def is_down(self) -> bool:
        """True while a fault plan holds this link in a down window."""
        return self.faults is not None and self.faults.down

    def attach(self, end: str, deliver: Callable[[Any], None]) -> None:
        """Connect an endpoint ('a' or 'b'); ``deliver(item)`` is called
        when a transmission arrives at that end."""
        if end not in ("a", "b"):
            raise NetworkError(f"link end must be 'a' or 'b', got {end!r}")
        slot = "_end_" + end
        if getattr(self, slot) is not None:
            raise NetworkError(f"link end {end!r} already attached")
        setattr(self, slot, deliver)

    def serialization_ns(self, nbytes: int) -> int:
        """Time the wire is occupied sending ``nbytes``."""
        return transfer_time_ns(nbytes, self.params.link_bandwidth)

    def account(self, dir_key: str, nbytes: int, busy_ns: int) -> None:
        """Charge ``nbytes`` carried and ``busy_ns`` of wire time to one
        direction's counters."""
        if dir_key == "ab":
            self._bytes_ab.inc(nbytes)
            self._busy_ab.inc(busy_ns)
        else:
            self._bytes_ba.inc(nbytes)
            self._busy_ba.inc(busy_ns)

    def _deliver_at(self, deliver: Callable[[Any], None], when: int,
                    item: Any) -> None:
        """Hand ``item`` to the far endpoint's ``deliver`` at absolute
        time ``when``.

        The single seam every arrival goes through.  One pre-triggered
        heap entry instead of a delivery process (start + timeout +
        completion): same arrival instant, a third of the events on the
        busiest path in the simulator.
        """
        self.env.call_at(when, deliver, item)

    def transmit(self, from_end: str, item: Any, nbytes: int):
        """Generator: send ``item`` of ``nbytes`` from one end to the other.

        Returns (via StopIteration) after the wire is released; delivery
        at the far end fires ``propagation_ns`` later without blocking
        the sender (cut-through exit).
        """
        if from_end == "a":
            dir_key, direction, deliver = "ab", self._dir_ab, self._end_b
            m_bytes, m_busy = self._bytes_ab, self._busy_ab
        elif from_end == "b":
            dir_key, direction, deliver = "ba", self._dir_ba, self._end_a
            m_bytes, m_busy = self._bytes_ba, self._busy_ba
        else:
            raise NetworkError(f"from_end must be 'a' or 'b', got {from_end!r}")
        if deliver is None:
            raise NetworkError(f"link end {_far(from_end)!r} has no endpoint attached")
        serialization = self.serialization_ns(nbytes)
        yield from direction.acquire(serialization)
        m_bytes.inc(nbytes)
        m_busy.inc(serialization)
        flows = self.flows
        if flows is not None:
            flows.note_interloper(dir_key, nbytes)
        if self.faults is not None:
            item = self.faults.filter(self, item, nbytes)
            if item is None:
                self._m_dropped.inc()
                return

        self._deliver_at(deliver, self.env.now + self.params.propagation_ns, item)

    # -- packet-train fast path -------------------------------------------

    def train_block_reason(self, from_end: str) -> Optional[str]:
        """Why a train may not start on this direction right now.

        ``None`` means eligible: the direction is idle with no waiters,
        and no fault injector sits on the link.  Any other answer names
        the de-coalescing reason (used as an obs counter label).
        """
        dir_key = "ab" if from_end == "a" else "ba"
        direction = self._dir_ab if from_end == "a" else self._dir_ba
        if direction.in_use or direction.queue_length:
            return "busy"
        flows = self.flows
        if flows is not None and flows.reserved(dir_key):
            # Analytic flow reservations share this direction; a train
            # hold would monopolize it.  The per-packet fallback packets
            # count as interlopers, which is exactly the contention the
            # flows' de-coalescing threshold is watching for.
            return "flow"
        if self.faults is not None:
            return "faults"
        return None

    def transmit_train(self, from_end: str, train: PacketTrain, run: TrainRun):
        """Generator: carry up to ``run.limit`` back-to-back MTU packets
        analytically, holding the direction exactly as the per-packet
        loop would.

        The caller must have checked :meth:`train_block_reason` at the
        current time, so the request below is granted synchronously and
        the hold starts *now*.  Packet ``j`` (1-based) occupies
        ``[start + (j-1)*per, start + j*per)``; the train descriptor is
        delivered cut-through at first-packet arrival so the next hop
        starts forwarding exactly when per-packet forwarding would.

        The hold re-plans when nudged awake:

        * a competitor queues on the direction → finish the packet slot
          in progress (``done = ceil(elapsed/per)``, at least the one
          in flight), wait to that packet boundary, release there —
          byte-for-byte where the per-packet loop would have yielded
          the wire — and report ``done`` so the caller re-emits the
          rest per-packet *behind* the competitor;
        * an upstream :class:`TrainTruncation` shrinks ``run.limit`` →
          re-arm the analytic end at the new boundary.

        Occupancy counters account exactly the packets carried, so
        ``link.bytes``/``utilization`` match per-packet runs at every
        timestamp.  Returns the number of packets carried; if short of
        ``train.npackets``, a truncation notice chases the descriptor
        downstream (one propagation delay after the release boundary).
        """
        deliver = self._end_b if from_end == "a" else self._end_a
        if deliver is None:
            raise NetworkError(f"link end {_far(from_end)!r} has no endpoint attached")
        dir_key = "ab" if from_end == "a" else "ba"
        direction = self._dir_ab if from_end == "a" else self._dir_ba
        env = self.env
        per = self.serialization_ns(train.wire_size)
        req = direction.request()
        if not req.triggered:  # pragma: no cover - caller contract violated
            raise NetworkError(f"train started on busy direction {direction.name}")
        start = env.now
        self._deliver_at(deliver, start + per + self.params.propagation_ns, train)
        done = run.limit
        direction.contention_cb = run.notify_contention
        try:
            while True:
                wake = env.event(name="train.wake")
                run.wake = wake
                end_ev = env.timeout(start + run.limit * per - env.now)
                yield env.any_of([end_ev, wake])
                run.wake = None
                if end_ev.processed:
                    done = run.limit
                    break
                if run.contended:
                    # At least the packet in flight is committed to the
                    # wire; the per-packet loop would also only yield at
                    # its end.
                    done = min(run.limit, max(1, -(-(env.now - start) // per)))
                    boundary = start + done * per
                    if boundary > env.now:
                        yield env.timeout(boundary - env.now)
                    break
                # Truncated upstream: loop to re-arm at the new boundary.
        finally:
            direction.contention_cb = None
            self.account(dir_key, done * train.wire_size, done * per)
            req.release()
        if done < train.npackets:
            self._deliver_at(deliver, env.now + self.params.propagation_ns,
                             TrainTruncation(train.train_id, done,
                                             train.src_nic, train.dst_nic))
        return done

    def utilization(self, direction: str = "ab") -> float:
        """Busy fraction of one direction ('ab' or 'ba')."""
        return self.direction(direction).utilization()

    def direction(self, dir_key: str) -> Resource:
        """The wire resource of one direction ('ab' or 'ba')."""
        if dir_key == "ab":
            return self._dir_ab
        if dir_key == "ba":
            return self._dir_ba
        raise NetworkError(f"link direction must be 'ab' or 'ba', got {dir_key!r}")
