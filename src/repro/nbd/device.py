"""The NBD client device and its block server.

The server exports one flat block device (a byte array, block size =
page size).  The client is a kernel block device: reads and writes go
block-at-a-time through the node's page cache, with the network
transfer landing directly in the cache frame by physical address —
the same per-page pattern as buffered ORFS (paper sections 2.3.1, 6).

The wire protocol reuses ORFA's READ/WRITE requests against a single
device inode, so the NBD server is simply an :class:`repro.orfa.server.
OrfaServer` whose filesystem holds one pre-sized device file.
"""

from __future__ import annotations


from typing import Optional

from .. import obs
from ..cluster.node import Node
from ..core.channel import KernelChannel
from ..errors import Eio, Einval, MessageDropped, NetworkError, TimeoutError_
from ..kernel.memfs import MemFs
from ..mem.layout import sg_from_frames
from ..mx.memtypes import MxSegment
from ..orfa.protocol import OrfaOp, OrfaRequest
from ..orfa.server import OrfaServer
from ..sim.trace import emit
from ..units import PAGE_SIZE

BLOCK_SIZE = PAGE_SIZE

#: block-layer bookkeeping per request (request queue, elevator)
BLOCK_LAYER_NS = 800


class NbdServer:
    """A block server: an ORFA server exporting one device file."""

    def __init__(self, node: Node, port_id: int, api: str,
                 device_blocks: int, name: str = "nbd0"):
        self.node = node
        self.fs = MemFs(node.env, node.cpu)
        self.server = OrfaServer(node, port_id, api=api, fs=self.fs)
        attrs_gen = self.fs.create(1, name)
        attrs = node.env.run(until=node.env.process(attrs_gen))
        self.device_inode = attrs.inode_id
        self.device_blocks = device_blocks
        self.fs.truncate_raw(self.device_inode, device_blocks * BLOCK_SIZE)

    def start(self):
        return self.server.start()


class NbdDevice:
    """The in-kernel NBD client: a block device over a KernelChannel."""

    def __init__(self, node: Node, channel: KernelChannel,
                 server: tuple[int, int], device_inode: int,
                 device_blocks: int, timeout_ns: Optional[int] = None,
                 max_retries: int = 3):
        self.node = node
        self.channel = channel
        self.server = server
        self.device_inode = device_inode
        self.device_blocks = device_blocks
        self.cpu = node.cpu
        self.pagecache = node.pagecache
        #: Per-block-request reply deadline; None (the default) waits
        #: forever — the original behavior over a reliable fabric.
        self.timeout_ns = timeout_ns
        #: Extra attempts after the first times out; exhaustion raises
        #: Eio (the block layer's error completion) instead of hanging.
        self.max_retries = max_retries
        self._cache_key = -device_inode  # block-cache namespace
        self._reply_buf = node.kspace.kmalloc(4096)
        self._req_buf = node.kspace.kmalloc(4096)
        # Block-traffic accounting on the metrics registry.
        self._m_read = obs.counter("nbd.blocks_read", node=node.node_id)
        self._m_written = obs.counter("nbd.blocks_written", node=node.node_id)
        self._m_retries = obs.counter("nbd.request_retries", node=node.node_id)
        self._m_failfast = obs.counter("nbd.request_failfast", node=node.node_id)

    # -- raw block transfer (what the block layer submits) --------------------

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.device_blocks:
            raise Einval(f"block {block} out of device range")

    def read_block(self, block: int, frame):
        """Generator: fill ``frame`` with one device block (physical
        address transfer, no copies)."""
        self._check_block(block)
        yield from self.cpu.work(BLOCK_LAYER_NS)
        yield from self._block_rpc(
            OrfaOp.READ, block, BLOCK_SIZE,
            recv_segs=lambda: [
                MxSegment.physical(sg_from_frames([frame], 0, BLOCK_SIZE))
            ],
            send_segs=lambda req: [
                MxSegment.kernel(self._req_buf.vaddr, req.wire_size())
            ],
        )
        self._m_read.inc()

    def write_block(self, block: int, frame, length: int = BLOCK_SIZE):
        """Generator: write one device block straight from ``frame``."""
        self._check_block(block)
        yield from self.cpu.work(BLOCK_LAYER_NS)
        yield from self._block_rpc(
            OrfaOp.WRITE, block, length,
            recv_segs=lambda: [
                MxSegment.kernel(self._reply_buf.vaddr, 4096)
            ],
            send_segs=lambda req: [
                MxSegment.physical(sg_from_frames([frame], 0, length))
            ],
        )
        self._m_written.inc()

    def _block_rpc(self, op, block: int, length: int, recv_segs, send_segs):
        """Generator: one block request under the device's retry budget.

        Block reads and writes are idempotent, so each timed-out attempt
        is simply re-issued under a fresh request id (the abandoned
        receive completes harmlessly if the stale reply shows up late).
        Budget exhaustion — or a fabric-reported dead peer — surfaces as
        :class:`Eio`, the block layer's error completion, instead of an
        I/O that hangs forever.

        The two paths are distinguished: :class:`MessageDropped` means
        the reliability layer already burned its retransmission budget
        and declared the server dead, so retrying the same server is
        pointless — the device fails over immediately with
        ``Eio(reason="dead_peer")``.  A plain :class:`TimeoutError_`
        keeps retrying the same server and exhausts into
        ``Eio(reason="timeout")``.
        """
        attempts = 1 if self.timeout_ns is None else 1 + self.max_retries
        env = self.node.env
        t0 = env.now
        op_name = op.name.lower()
        span = obs.span_begin(env, "nbd", f"block.{op_name}",
                              pid=self.node.node_id, block=block)
        for attempt in range(attempts):
            req = OrfaRequest(op=op, request_id=env.next_id("nbd.device"),
                              inode=self.device_inode,
                              offset=block * BLOCK_SIZE, length=length)
            recv = yield from self.channel.post_recv(
                recv_segs(), match=req.request_id,
            )
            try:
                send = yield from self.channel.send(
                    self.server[0], self.server[1], send_segs(req),
                    match=0, meta=req,
                )
            except MessageDropped as exc:
                # The fabric declared the server dead: fail over now
                # instead of burning the remaining retry budget on it.
                self._m_failfast.inc()
                obs.span_end(env, span, outcome="dead_peer")
                raise Eio(f"nbd block {block}: server declared dead: {exc}",
                          reason="dead_peer") from exc
            except NetworkError as exc:
                obs.span_end(env, span, outcome="error")
                raise Eio(f"nbd block {block}: {exc}",
                          reason="network") from exc
            try:
                yield from self.channel.wait_recv(
                    recv, timeout_ns=self.timeout_ns
                )
            except TimeoutError_:
                self._m_retries.inc()
                if self.node.env.trace is not None:
                    emit(self.node.env, "rpc", "timeout", {
                        "dev": "nbd", "block": block, "attempt": attempt + 1,
                    })
                continue
            if not send.event.processed:
                yield from self.channel.wait_send(send)
            obs.span_end(env, span, outcome="ok")
            if obs.metrics_enabled():
                obs.histogram("nbd.request.latency_ns",
                              op=op_name).observe(env.now - t0)
            return
        obs.span_end(env, span, outcome="timeout")
        raise Eio(
            f"nbd block {block}: no reply after {attempts} attempts "
            f"of {self.timeout_ns} ns each",
            reason="timeout",
        )

    # -- buffered access through the block cache ---------------------------------

    def read(self, space, vaddr: int, offset: int, length: int):
        """Generator: buffered read through the page cache — the access
        pattern of a mounted filesystem on the device.  Returns bytes
        read."""
        if offset < 0 or offset + length > self.device_blocks * BLOCK_SIZE:
            raise Einval(f"read [{offset}, {offset + length}) out of device")
        done = 0
        pos = offset
        while done < length:
            block = pos // BLOCK_SIZE
            in_block = pos % BLOCK_SIZE
            chunk = min(length - done, BLOCK_SIZE - in_block)
            page = self.pagecache.find(self._cache_key, block)
            if page is None or not page.uptodate:
                if page is None:
                    page = self.pagecache.add(self._cache_key, block)
                yield from self.read_block(block, page.frame)
                page.uptodate = True
            yield from self.cpu.copy(chunk)
            space.write_payload(vaddr + done, page.payload(in_block, chunk))
            pos += chunk
            done += chunk
        return done

    def write(self, space, vaddr: int, offset: int, length: int):
        """Generator: buffered write (write-back on flush)."""
        if offset < 0 or offset + length > self.device_blocks * BLOCK_SIZE:
            raise Einval(f"write [{offset}, {offset + length}) out of device")
        done = 0
        pos = offset
        while done < length:
            block = pos // BLOCK_SIZE
            in_block = pos % BLOCK_SIZE
            chunk = min(length - done, BLOCK_SIZE - in_block)
            page = self.pagecache.find(self._cache_key, block)
            if page is None:
                page = self.pagecache.add(self._cache_key, block)
                if chunk < BLOCK_SIZE:
                    yield from self.read_block(block, page.frame)
                page.uptodate = True
            yield from self.cpu.copy(chunk)
            page.fill(in_block, space.read_payload(vaddr + done, chunk))
            page.dirty = True
            pos += chunk
            done += chunk
        return done

    def flush(self):
        """Generator: write every dirty cached block back to the server."""
        for page in self.pagecache.dirty_pages(self._cache_key):
            yield from self.write_block(page.index, page.frame)
            page.dirty = False
