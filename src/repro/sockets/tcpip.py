"""The commodity baseline: TCP/IP sockets over gigabit Ethernet.

The paper's reference point for SOCKETS-MX latency: "A common
GIGA-ETHERNET network might get much more [than 15 us]" (section 5.3),
and its motivation cites [Sum00]: "TCP/IP is known to use 50 % of the
overall transaction cost" — fragmentation into MTU-sized packets and
software checksumming on both sides.

The stack model charges, per message:

* syscall + socket layer (shared with the Myrinet stacks);
* per-packet protocol processing (header build/parse, 1500-byte MTU);
* a software checksum pass over every byte on both sides;
* one copy on each side (user <-> kernel sk_buff);
* interrupt + wakeup on the receiver (with coalescing beyond one MTU).

The wire is a real :class:`repro.hw.Link` at 125 MB/s, so streaming
still pipelines and contends properly.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.node import Node
from ..errors import SocketError
from ..hw.link import Link
from ..hw.params import LinkParams
from ..sim import Environment, Store
from ..units import MB, S
from .base import KSocket

GIG_E = LinkParams(
    name="GigE",
    link_bandwidth=125 * MB,
    pci_bandwidth=264 * MB,  # 32-bit/66 PCI NIC
    propagation_ns=3000,  # store-and-forward commodity switch
    cut_through_lag_ns=12000,  # first-packet serialization at the NIC
)

MTU = 1500
#: per-packet TCP/IP processing on each side (header, routing, ack bookkeeping)
_PER_PACKET_NS = 2200
#: software checksum rate (bytes/s)
_CHECKSUM_BW = 1.6e9
#: receive interrupt + process wakeup
_IRQ_WAKEUP_NS = 12000
#: fixed per-message stack cost (connection lookup, cwnd bookkeeping)
_PER_MESSAGE_NS = 4000


class TcpStack:
    """One node's TCP/IP stack on a dedicated Ethernet link.

    Build two stacks and join them with :func:`ethernet_pair`.
    """

    def __init__(self, node: Node):
        self.node = node
        self.cpu = node.cpu
        self.env = node.env
        self._link: Optional[Link] = None
        self._end = "a"
        self._inbound: dict[int, Store] = {}  # conn id -> message store
        self._accept_queue: Store = Store(node.env, "tcp.accept")
        self._listening = False

    # -- wiring ---------------------------------------------------------------

    def attach(self, link: Link, end: str) -> None:
        self._link = link
        self._end = end
        link.attach(end, self._on_arrival)

    def _on_arrival(self, frame) -> None:
        kind = frame[0]
        if kind == "syn":
            _, conn_id, payload = frame
            if not self._listening:
                return
            self._accept_queue.put(conn_id)
            return
        _, conn_id, payload = frame
        self._inbound.setdefault(conn_id, Store(self.env, "tcp.in")).put(payload)

    # -- connections -------------------------------------------------------------

    def listen(self) -> None:
        self._listening = True

    def accept(self):
        """Generator: next accepted connection."""
        conn_id = yield self._accept_queue.get()
        return KSocket(self, conn_id, peer_node=-1, peer_port=-1)

    def connect(self):
        """Generator: open a connection to the stack on the other end."""
        if self._link is None:
            raise SocketError("stack not attached to a link")
        conn_id = self.env.next_id("sockets")
        yield from self.cpu.work(_PER_MESSAGE_NS)
        yield from self._link.transmit(self._end, ("syn", conn_id, b""), 64)
        # One RTT for the handshake to complete.
        yield self.env.timeout(2 * GIG_E.propagation_ns + 2 * _PER_PACKET_NS)
        return KSocket(self, conn_id, peer_node=-1, peer_port=-1)

    # -- the data path ----------------------------------------------------------------

    def _stack_cost(self, length: int):
        """Per-side protocol cost: per-packet work + checksum pass."""
        packets = max(1, -(-length // MTU))
        checksum = round(length * S / _CHECKSUM_BW)
        yield from self.cpu.resource.acquire(
            _PER_MESSAGE_NS + packets * _PER_PACKET_NS + checksum
        )

    def protocol_send(self, sock: KSocket, space, vaddr: int, length: int):
        if self._link is None:
            raise SocketError("stack not attached to a link")
        yield from self._stack_cost(length)
        yield from self.cpu.copy(length)  # user -> sk_buff
        data = space.read_payload(vaddr, length)
        yield from self._link.transmit(
            self._end, ("data", sock.conn_id, data), length
        )

    def protocol_recv(self, sock: KSocket, space, vaddr: int, length: int):
        store = self._inbound.setdefault(sock.conn_id, Store(self.env, "tcp.in"))
        data = yield store.get()
        yield from self.cpu.work(_IRQ_WAKEUP_NS)
        yield from self._stack_cost(len(data))
        yield from self.cpu.copy(len(data))  # sk_buff -> user
        if len(data) > length:
            raise SocketError(
                f"message of {len(data)} bytes arrived for a "
                f"{length}-byte recv"
            )
        space.write_payload(vaddr, data)
        return len(data)


def ethernet_pair(env: Environment, a: Node, b: Node) -> tuple[TcpStack, TcpStack]:
    """Two TCP stacks joined by a dedicated gigabit Ethernet link."""
    link = Link(env, GIG_E, name="eth")
    sa, sb = TcpStack(a), TcpStack(b)
    sa.attach(link, "a")
    sb.attach(link, "b")
    return sa, sb
