"""Packet trains: analytic coalescing of FRAG wire traffic.

A fragmented message puts ``n-1`` FRAG packets on the wire before the
final (semantic) packet.  FRAGs exist purely to pace the fabric at MTU
granularity — they carry no payload, are never sequenced by reliable
delivery, are passed untouched by fault injectors, and are discarded at
the destination NIC.  On an idle, fault-free path their effect is
therefore *closed-form*: back-to-back serialization slots on every hop,
each ``serialization_ns(mtu)`` long.

A :class:`PacketTrain` is one wire item standing in for that whole FRAG
burst.  The emitting NIC puts it on the wire when the path segment is
eligible (see ``Link.train_block_reason``); each hop holds its output
for the analytic occupancy in a single timed event instead of one event
chain per packet, and the train *de-coalesces* back to per-packet
simulation the moment anything could make per-packet behaviour
observable:

* the link is busy or has waiters when the burst would start (the NIC
  falls back to the classic per-packet loop — exact by construction);
* a fault injector sits on the link (per-packet drop sampling and down
  windows must see the same item sequence as the seed's trace);
* a competing flow requests the held direction mid-train (the holder
  finishes the packet slot in progress, releases at that packet
  boundary — exactly where the per-packet loop would have yielded the
  wire — and the remaining packets are re-emitted per-packet behind the
  competitor);
* a switch output port paces differently than the input (never happens
  with uniform ``LinkParams``, but checked).

When an upstream hop splits mid-train, downstream hops are told with a
:class:`TrainTruncation` notice delivered at the moment the absence of
packet ``k+1`` becomes observable there (one propagation delay after
the split boundary); it consumes no wire resources, mirroring
information the per-packet simulation carries implicitly.

Both classes advertise ``kind = MsgKind.FRAG`` so every existing FRAG
rule applies unchanged: fault filters pass them through, reliability
never sequences them, and the destination NIC's receive loop discards
them.

Trains engage unless the run's :class:`~repro.sim.Environment` was
built at ``fidelity="packet"``, the reference mode for equivalence
tests and the perf benchmark.

One level further up sits the flow engine (:mod:`repro.hw.flow`): where
a train coalesces one message's FRAG burst *per hop*, a flow reservation
coalesces the whole burst *across the path*, and de-coalesces back to
trains/packets by the same playbook (its remainder re-enters this
module's machinery untouched).  Train ids come from the environment's
``"transit"`` id space, so every train of a run has a distinct id.
"""

from __future__ import annotations

from .wire import MsgKind

#: Below this many FRAGs the analytic path saves nothing worth the
#: bookkeeping; such messages always take the per-packet loop.
MIN_TRAIN_FRAGS = 2


class PacketTrain:
    """One wire item standing in for ``npackets`` back-to-back FRAGs.

    Carries exactly the addressing fields a FRAG would; ``wire_size``
    is the per-packet size (the MTU), not the train total.  Delivered
    to the next hop at *first*-packet arrival time (cut-through), so
    downstream forwarding starts exactly when per-packet forwarding
    would have.
    """

    __slots__ = ("src_nic", "src_port", "dst_nic", "dst_port", "match",
                 "npackets", "wire_size", "train_id")

    #: Class attribute, deliberately: every FRAG special case in the
    #: fault filter, reliability layer and NIC receive loop applies.
    kind = MsgKind.FRAG

    def __init__(self, src_nic: int, src_port: int, dst_nic: int,
                 dst_port: int, match: int, npackets: int, wire_size: int,
                 train_id: int):
        self.src_nic = src_nic
        self.src_port = src_port
        self.dst_nic = dst_nic
        self.dst_port = dst_port
        self.match = match
        self.npackets = npackets
        self.wire_size = wire_size
        self.train_id = train_id


class TrainTruncation:
    """Downstream notice that a train was cut to ``npackets`` upstream.

    Travels outside the bandwidth model (no serialization, no
    counters): it encodes the *absence* of packets, which costs nothing
    on a real wire.  Destination NICs ignore it like any FRAG; switches
    use it to cap the analytic hold / cancel scheduled per-packet
    forwards for packets that never entered the fabric.
    """

    __slots__ = ("train_id", "npackets", "src_nic", "dst_nic")

    kind = MsgKind.FRAG

    def __init__(self, train_id: int, npackets: int, src_nic: int, dst_nic: int):
        self.train_id = train_id
        self.npackets = npackets
        self.src_nic = src_nic
        self.dst_nic = dst_nic


class TrainRun:
    """Shared mutable state of one train's transit across one hop.

    The hop's ``Link.transmit_train`` generator sleeps on ``wake``;
    a competitor queueing on the held direction (:meth:`notify_contention`)
    or an upstream :class:`TrainTruncation` (:meth:`truncate`) nudges it
    awake to re-plan.  After a hop de-coalesces, ``limit`` caps which
    scheduled per-packet forwards still fire.
    """

    __slots__ = ("limit", "contended", "wake")

    def __init__(self, limit: int):
        self.limit = limit
        self.contended = False
        self.wake = None

    def notify_contention(self) -> None:
        self.contended = True
        wake = self.wake
        if wake is not None and not wake.triggered:
            wake.succeed()

    def truncate(self, npackets: int) -> None:
        if npackets < self.limit:
            self.limit = npackets
            wake = self.wake
            if wake is not None and not wake.triggered:
                wake.succeed()
