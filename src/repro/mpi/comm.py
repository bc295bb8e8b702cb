"""The MPI communicator: point-to-point and collectives over GM or MX.

Semantics subset (documented restrictions):

* explicit ``source`` and ``tag`` on receives (no wildcards) — the NIC
  matching is exact, as GM's and MX's was;
* collectives must be called in the same order by every rank (the MPI
  standard's own requirement), since collective tags are sequenced
  per communicator;
* messages are byte ranges of the rank's address space; ``*_ints``
  helpers pack ``int64`` vectors for the reduction collectives.

The GM side is the paper's section-2.2.2 middleware: a user-level
pin-down cache registers application buffers on the flight (kept
coherent through the intercepted address-space calls), and a polling
progress engine drains the unified event queue — no blocking wakeups,
which is exactly why GM performs well here and poorly in the kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from .. import obs
from ..cluster.node import Node
from ..cluster import star, node_pair
from ..errors import ReproError
from ..gm.api import GmPort
from ..gmkrc.cache import Gmkrc
from ..hw.params import LinkParams, PCI_XD
from ..mem.addrspace import AddressSpace
from ..mx.api import MxEndpoint
from ..mx.memtypes import MxSegment
from ..sim import Environment, Event
from ..units import page_align_up

#: tag space partition: user tags below, collective tags above
MAX_USER_TAG = 1 << 14
_COLLECTIVE_TAG_BASE = MAX_USER_TAG


class MpiError(ReproError):
    """MPI layer misuse."""


def _match_key(src_rank: int, tag: int) -> int:
    return (src_rank << 20) | tag


@dataclass
class MpiRequest:
    """Handle for a nonblocking MPI operation."""

    kind: str  # "send" | "recv"
    event: Event
    length: int = 0
    result: Any = None

    @property
    def completed(self) -> bool:
        return self.event.processed


class _GmRank:
    """GM user port + middleware registration cache + polling progress."""

    def __init__(self, node: Node, port_id: int, space: AddressSpace):
        self.node = node
        self.space = space
        self.port = GmPort(node, port_id, space)
        self.cache = Gmkrc(self.port, node.vmaspy, max_cached_pages=8192)
        node.env.process(self._progress(), name=f"mpi.gm{port_id}")

    def _progress(self):
        """The polling progress engine: drain the unified event queue and
        fire request events (and release cache references)."""
        while True:
            event = yield from self.port.receive_event()
            kind, req, entry = event.tag
            if entry is not None:
                self.cache.release(entry)
            if kind == "recv":
                req.result = event
            req.event.succeed()

    def isend(self, dst: tuple[int, int], vaddr: int, length: int, match: int):
        req = MpiRequest("send", self.node.env.event("mpi.send"), length)
        key, entry = yield from self.cache.acquire(self.space, vaddr, length)
        yield from self.port.send(
            dst[0], dst[1], key, length, match=match,
            tag=("send", req, entry),
        )
        return req

    def irecv(self, vaddr: int, length: int, match: int):
        req = MpiRequest("recv", self.node.env.event("mpi.recv"), length)
        key, entry = yield from self.cache.acquire(self.space, vaddr, length)
        yield from self.port.provide_receive_buffer(
            key, length, match=match, tag=("recv", req, entry),
        )
        return req

    def wait(self, req: MpiRequest):
        if not req.event.processed:
            yield req.event
        return req


class _MxRank:
    """The thin MX mapping (MPICH-MX style)."""

    def __init__(self, node: Node, port_id: int, space: AddressSpace):
        self.node = node
        self.space = space
        self.endpoint = MxEndpoint(node, port_id, context="user")

    def isend(self, dst: tuple[int, int], vaddr: int, length: int, match: int):
        mx_req = yield from self.endpoint.isend(
            dst[0], dst[1], [MxSegment.user(self.space, vaddr, length)],
            match=match,
        )
        req = MpiRequest("send", mx_req.event, length)
        return req

    def irecv(self, vaddr: int, length: int, match: int):
        mx_req = yield from self.endpoint.irecv(
            [MxSegment.user(self.space, vaddr, length)], match=match,
        )
        req = MpiRequest("recv", mx_req.event, length)
        req._mx = mx_req
        return req

    def wait(self, req: MpiRequest):
        if not req.event.processed:
            yield req.event
        yield from self.endpoint.cpu.work(self.endpoint.costs.host_event_ns)
        mx_req = getattr(req, "_mx", None)
        if mx_req is not None and mx_req.result is not None:
            req.result = mx_req.result
        return req


class Communicator:
    """One rank's handle on the world communicator."""

    def __init__(self, rank: int, size: int, node: Node, api: str,
                 base_port: int, peers: list[tuple[int, int]]):
        self.rank = rank
        self.size = size
        self.node = node
        self.env = node.env
        self.api = api
        self.space = node.new_process_space()
        port_id = base_port + rank
        if api == "gm":
            self._rank = _GmRank(node, port_id, self.space)
        else:
            self._rank = _MxRank(node, port_id, self.space)
        self._peers = peers  # rank -> (node_id, port_id)
        self._coll_seq = itertools.count(0)
        # scratch buffers for collectives
        self._scratch = self.space.mmap(page_align_up(64 * 1024), populate=True)
        self._scratch2 = self.space.mmap(page_align_up(64 * 1024), populate=True)

    # -- helpers ---------------------------------------------------------------

    def _check_peer(self, rank: int) -> tuple[int, int]:
        if not 0 <= rank < self.size:
            raise MpiError(f"rank {rank} out of range (size {self.size})")
        if rank == self.rank:
            raise MpiError("self-sends are not supported")
        return self._peers[rank]

    @staticmethod
    def _check_tag(tag: int) -> None:
        if not 0 <= tag < MAX_USER_TAG:
            raise MpiError(f"tag {tag} out of range [0, {MAX_USER_TAG})")

    # -- point-to-point -----------------------------------------------------------

    def _isend(self, dst: int, vaddr: int, length: int, tag: int):
        peer = self._check_peer(dst)
        req = yield from self._rank.isend(
            peer, vaddr, length, _match_key(self.rank, tag))
        return req

    def _irecv(self, src: int, vaddr: int, length: int, tag: int):
        self._check_peer(src)
        req = yield from self._rank.irecv(
            vaddr, length, _match_key(src, tag))
        return req

    def _wait(self, req: MpiRequest):
        result = yield from self._rank.wait(req)
        return result

    def send(self, dst: int, vaddr: int, length: int, tag: int = 0):
        """Generator: blocking send."""
        self._check_tag(tag)
        req = yield from self._isend(dst, vaddr, length, tag)
        yield from self._wait(req)

    def _send(self, dst: int, vaddr: int, length: int, tag: int):
        req = yield from self._isend(dst, vaddr, length, tag)
        yield from self._wait(req)

    def recv(self, src: int, vaddr: int, length: int, tag: int = 0):
        """Generator: blocking receive; returns bytes received."""
        self._check_tag(tag)
        n = yield from self._recv(src, vaddr, length, tag)
        return n

    def _recv(self, src: int, vaddr: int, length: int, tag: int):
        req = yield from self._irecv(src, vaddr, length, tag)
        yield from self._wait(req)
        # the actual message size (may undershoot the posted buffer)
        return req.result.size if req.result is not None else req.length

    def sendrecv(self, dst: int, send_vaddr: int, send_len: int,
                 src: int, recv_vaddr: int, recv_len: int, tag: int = 0):
        """Generator: simultaneous send+receive (deadlock-free exchange)."""
        self._check_tag(tag)
        yield from self._sendrecv(dst, send_vaddr, send_len,
                                  src, recv_vaddr, recv_len, tag)

    def _sendrecv(self, dst, send_vaddr, send_len, src, recv_vaddr,
                  recv_len, tag):
        rreq = yield from self._irecv(src, recv_vaddr, recv_len, tag)
        sreq = yield from self._isend(dst, send_vaddr, send_len, tag)
        yield from self._wait(rreq)
        yield from self._wait(sreq)

    # -- collectives ------------------------------------------------------------------

    def _coll_tag(self) -> int:
        return _COLLECTIVE_TAG_BASE + (next(self._coll_seq) % MAX_USER_TAG)

    def _observed(self, op: str, gen):
        """Generator wrapper: per-collective latency histogram and
        timeline span around one collective call.  Purely observational
        (no simulated-time cost); zero-cost with no registry/timeline
        installed beyond one enabled-check per collective."""
        t0 = self.env.now
        span = obs.span_begin(self.env, "mpi", op,
                              pid=self.node.node_id, tid=self.rank)
        result = yield from gen
        obs.span_end(self.env, span)
        if obs.metrics_enabled():
            obs.histogram("mpi.collective.latency_ns",
                          op=op, api=self.api).observe(self.env.now - t0)
        return result

    def bcast(self, root: int, vaddr: int, length: int):
        """Generator: binomial-tree broadcast of [vaddr, vaddr+length)."""
        return (yield from self._observed(
            "bcast", self._bcast(root, vaddr, length)))

    def _bcast(self, root: int, vaddr: int, length: int):
        tag = self._coll_tag()
        n = self.size
        if n == 1:
            return
        rel = (self.rank - root) % n
        # receive phase (non-root): the parent differs at my lowest set bit
        mask = 1
        while mask < n:
            if rel & mask:
                parent = (rel - mask + root) % n
                yield from self._recv(parent, vaddr, length, tag)
                break
            mask *= 2
        # send phase: forward to children at decreasing bit positions
        mask //= 2
        while mask >= 1:
            if rel + mask < n:
                child = (rel + mask + root) % n
                yield from self._send(child, vaddr, length, tag)
            mask //= 2

    # -- integer reductions ----------------------------------------------------------

    @staticmethod
    def _pack(values: Sequence[int]) -> bytes:
        return b"".join(v.to_bytes(8, "big", signed=True) for v in values)

    @staticmethod
    def _unpack(data: bytes) -> list[int]:
        return [int.from_bytes(data[i:i + 8], "big", signed=True)
                for i in range(0, len(data), 8)]

    _OPS = {
        "sum": lambda a, b: a + b,
        "max": max,
        "min": min,
    }

    def reduce_ints(self, root: int, values: Sequence[int], op: str = "sum"):
        """Generator: elementwise reduction to ``root`` (binomial tree).

        Returns the reduced list at the root, None elsewhere.
        """
        if op not in self._OPS:
            raise MpiError(f"unknown op {op!r}; choose from {sorted(self._OPS)}")
        return (yield from self._observed(
            "reduce", self._reduce_ints(root, values, op)))

    def _reduce_ints(self, root: int, values: Sequence[int], op: str):
        tag = self._coll_tag()
        fn = self._OPS[op]
        n = self.size
        acc = list(values)
        length = 8 * len(acc)
        if length > 32 * 1024:
            raise MpiError("reduction vectors are limited to 4096 elements")
        rel = (self.rank - root) % n
        mask = 1
        while mask < n:
            if rel & mask:
                parent_rel = rel & ~mask
                parent = (parent_rel + root) % n
                self.space.write_bytes(self._scratch, self._pack(acc))
                yield from self._send(parent, self._scratch, length, tag)
                return None if self.rank != root else acc
            child_rel = rel | mask
            if child_rel < n:
                child = (child_rel + root) % n
                got = yield from self._recv(child, self._scratch2, length, tag)
                other = self._unpack(self.space.read_bytes(self._scratch2, got))
                acc = [fn(a, b) for a, b in zip(acc, other)]
            mask *= 2
        return acc if self.rank == root else None

    def allreduce_ints(self, values: Sequence[int], op: str = "sum"):
        """Generator: reduce to rank 0, then broadcast the result.

        Observed as one ``allreduce`` on top of its constituent reduce
        and bcast observations (nested collectives each count)."""
        if op not in self._OPS:
            raise MpiError(f"unknown op {op!r}; choose from {sorted(self._OPS)}")
        return (yield from self._observed(
            "allreduce", self._allreduce_ints(values, op)))

    def _allreduce_ints(self, values: Sequence[int], op: str):
        reduced = yield from self.reduce_ints(0, values, op)
        length = 8 * len(values)
        if self.rank == 0:
            self.space.write_bytes(self._scratch, self._pack(reduced))
        yield from self.bcast(0, self._scratch, length)
        return self._unpack(self.space.read_bytes(self._scratch, length))


def mpi_world(env: Environment, n_ranks: int, api: str = "mx",
              link: LinkParams = PCI_XD, base_port: int = 30,
              nodes: Optional[list[Node]] = None
              ) -> tuple[list[Communicator], list[Node]]:
    """Build an ``n_ranks``-process world (one rank per node).

    Two ranks get a direct link; more go through a switch.  Returns the
    per-rank communicators and the nodes (for building workloads).
    """
    if api not in ("gm", "mx"):
        raise MpiError(f"api must be 'gm' or 'mx', got {api!r}")
    if nodes is None:
        if n_ranks == 2:
            a, b = node_pair(env, link=link)
            nodes = [a, b]
        else:
            nodes, _ = star(env, n_ranks, link=link)
    if len(nodes) != n_ranks:
        raise MpiError(f"{n_ranks} ranks need {n_ranks} nodes, got {len(nodes)}")
    peers = [(node.node_id, base_port + rank)
             for rank, node in enumerate(nodes)]
    comms = [Communicator(rank, n_ranks, node, api, base_port, peers)
             for rank, node in enumerate(nodes)]
    return comms, nodes
