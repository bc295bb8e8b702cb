"""The ORFA user-space client: a library intercepting remote file access.

Figure 2(a): "a user-space library transparently intercepting all remote
file access" [GP04b].  Each file operation costs a library interception
(cheap — no syscall, no VFS), but *every* operation goes to the server:
there are no client-side metadata caches, which is exactly why the paper
moved on to the in-kernel ORFS ("meta-data access does not benefit from
the low latency of the network", section 3.1).

Data transfers are zero-copy into the application's buffers:

* on **GM**, through the user-level registration cache (the same
  pin-down-cache machinery as GMKRC, kept coherent by the library's
  interception of mmap/munmap — modeled by the same address-space
  listeners);
* on **MX**, by passing user-virtual segments (MX pins internally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..cluster.node import Node
from ..errors import Ebadf, Eio, FsError, NetworkError, ProtocolError
from ..gm.api import GmEventKind, GmPort
from ..gmkrc.cache import Gmkrc
from ..kernel.vfs import InodeAttrs
from ..mem.addrspace import AddressSpace
from ..mx.api import MxEndpoint
from ..mx.memtypes import MxSegment
from ..sim.trace import emit
from ..units import page_align_up
from .protocol import OrfaOp, OrfaRequest
from .server import MAX_READ_REPLY, MAX_WRITE_CHUNK, RING_SLOT_BYTES

#: Cost of the library's interception of one libc call (PLT hook).
LIB_CALL_NS = 500

_ERRNO_EXC = {"ENOENT": "Enoent", "EEXIST": "Eexist", "EISDIR": "Eisdir",
              "ENOTDIR": "Enotdir", "ENOTEMPTY": "Enotempty",
              "EINVAL": "Einval"}


def _raise_status(status: str):
    from .. import errors

    exc = getattr(errors, _ERRNO_EXC.get(status, ""), None)
    if exc is not None:
        raise exc()
    raise FsError(status)


@dataclass
class _OrfaFile:
    attrs: InodeAttrs
    offset: int = 0


class _GmClientSide:
    """GM user port + registration caches for app buffers and requests."""

    def __init__(self, node: Node, port_id: int, space: AddressSpace):
        self.node = node
        self.space = space
        self.port = GmPort(node, port_id, space)
        self.regcache = Gmkrc(self.port, node.vmaspy, max_cached_pages=4096)
        self._req_buf = None
        self._reply_buf = None
        # Request ids whose reply we stopped waiting for (RPC timeout):
        # a late reply to one of these is skipped, not a protocol error.
        self._stale_ids: set[int] = set()

    def setup(self):
        size = page_align_up(RING_SLOT_BYTES)
        self._req_buf = self.space.mmap(size, populate=True)
        self._reply_buf = self.space.mmap(size, populate=True)
        yield from self.port.register(self._req_buf, size)
        yield from self.port.register(self._reply_buf, size)

    def call_meta(self, dst, req: OrfaRequest, timeout_ns: Optional[int] = None):
        """Generator: request with header-only reply (metadata ops)."""
        yield from self.port.provide_receive_buffer(
            self._reply_buf, 4096, match=req.request_id
        )
        yield from self.port.send(
            dst[0], dst[1], self._req_buf, req.wire_size(), meta=req
        )
        return (yield from self._await_reply(req.request_id, timeout_ns))

    def call_read(self, dst, req: OrfaRequest, vaddr: int,
                  timeout_ns: Optional[int] = None):
        """Generator: READ with the data landing in the app buffer."""
        key, entry = yield from self.regcache.acquire(self.space, vaddr, req.length)
        try:
            yield from self.port.provide_receive_buffer(
                key, req.length, match=req.request_id
            )
            yield from self.port.send(
                dst[0], dst[1], self._req_buf, req.wire_size(), meta=req
            )
            reply = yield from self._await_reply(req.request_id, timeout_ns)
        finally:
            self.regcache.release(entry)
        return reply

    def call_write(self, dst, req: OrfaRequest, vaddr: int,
                   timeout_ns: Optional[int] = None):
        """Generator: WRITE; the payload is copied into the registered
        request buffer (GM cannot send a header+user-data vector)."""
        yield from self.port.provide_receive_buffer(
            self._reply_buf, 4096, match=req.request_id
        )
        # The modeled staging copy is charged as before; the host relays
        # the app pages into the request buffer without joining them.
        yield from self.node.cpu.copy(req.length)
        self.space.write_payload(self._req_buf, self.space.read_payload(vaddr, req.length))
        # The staged payload travels inside the request message.
        yield from self.port.send(
            dst[0], dst[1], self._req_buf, req.wire_size() + req.length, meta=req,
        )
        return (yield from self._await_reply(req.request_id, timeout_ns))

    def _await_reply(self, request_id: int, timeout_ns: Optional[int] = None):
        deadline = None if timeout_ns is None else self.node.env.now + timeout_ns
        while True:
            if deadline is None:
                event = yield from self.port.receive_event(blocking=True)
            else:
                remain = deadline - self.node.env.now
                if remain <= 0:
                    event = None
                else:
                    event = yield from self.port.receive_event(
                        blocking=True, timeout_ns=remain
                    )
                if event is None:
                    self._stale_ids.add(request_id)
                    return None
            if event.kind is GmEventKind.SENT:
                continue
            if event.match != request_id:
                if event.match in self._stale_ids:
                    # Late reply to an abandoned (timed-out) request:
                    # the retry already re-asked with a fresh id.
                    self._stale_ids.discard(event.match)
                    continue
                raise ProtocolError(f"unexpected reply match {event.match}")
            return event.meta


class _MxClientSide:
    """MX user endpoint: user-virtual segments, no registration."""

    def __init__(self, node: Node, port_id: int, space: AddressSpace):
        self.node = node
        self.space = space
        self.endpoint = MxEndpoint(node, port_id, context="user")
        self._req_buf = None
        self._reply_buf = None

    def setup(self):
        size = page_align_up(4096)
        self._req_buf = self.space.mmap(size, populate=True)
        self._reply_buf = self.space.mmap(size, populate=True)
        return
        yield  # pragma: no cover

    def call_meta(self, dst, req: OrfaRequest, timeout_ns: Optional[int] = None):
        recv = yield from self.endpoint.irecv(
            [MxSegment.user(self.space, self._reply_buf, 4096)],
            match=req.request_id,
        )
        send = yield from self.endpoint.isend(
            dst[0], dst[1],
            [MxSegment.user(self.space, self._req_buf, req.wire_size())],
            match=0, meta=req,
        )
        return (yield from self._finish(send, recv, timeout_ns))

    def call_read(self, dst, req: OrfaRequest, vaddr: int,
                  timeout_ns: Optional[int] = None):
        recv = yield from self.endpoint.irecv(
            [MxSegment.user(self.space, vaddr, req.length)],
            match=req.request_id,
        )
        send = yield from self.endpoint.isend(
            dst[0], dst[1],
            [MxSegment.user(self.space, self._req_buf, req.wire_size())],
            match=0, meta=req,
        )
        return (yield from self._finish(send, recv, timeout_ns))

    def call_write(self, dst, req: OrfaRequest, vaddr: int,
                   timeout_ns: Optional[int] = None):
        recv = yield from self.endpoint.irecv(
            [MxSegment.user(self.space, self._reply_buf, 4096)],
            match=req.request_id,
        )
        # MX sends the user payload directly (no staging copy).
        send = yield from self.endpoint.isend(
            dst[0], dst[1],
            [MxSegment.user(self.space, vaddr, req.length)],
            match=0, meta=req,
        )
        return (yield from self._finish(send, recv, timeout_ns))

    def _finish(self, send, recv, timeout_ns: Optional[int]):
        """Wait for the send and then the matching reply.

        On timeout, returns None and abandons the posted receive — the
        retry posts a fresh one under a new request id, so a late reply
        to the stale id completes silently without confusing anyone.
        """
        if timeout_ns is None:
            yield from self.endpoint.wait(send)
            done = yield from self.endpoint.wait(recv, blocking=True)
            return done.result.meta
        deadline = self.node.env.now + timeout_ns
        done = yield from self.endpoint.wait(send, timeout_ns=timeout_ns)
        if done is None:
            return None
        remain = deadline - self.node.env.now
        if remain <= 0:
            return None
        done = yield from self.endpoint.wait(recv, blocking=True,
                                             timeout_ns=remain)
        if done is None:
            return None
        return done.result.meta


class OrfaClient:
    """The intercepting library's client state for one process."""

    def __init__(self, node: Node, port_id: int, space: AddressSpace,
                 server: tuple[int, int], api: str = "mx",
                 timeout_ns: Optional[int] = None, max_retries: int = 2):
        if api not in ("gm", "mx"):
            raise ProtocolError(f"api must be 'gm' or 'mx', got {api!r}")
        self.node = node
        self.space = space
        self.server = server
        self.api = api
        self.cpu = node.cpu
        #: Per-RPC reply deadline; None (the default) waits forever — the
        #: original ORFA behavior over a reliable fabric.
        self.timeout_ns = timeout_ns
        #: Extra attempts after the first times out; exhaustion raises Eio.
        self.max_retries = max_retries
        if api == "gm":
            self.side = _GmClientSide(node, port_id, space)
        else:
            self.side = _MxClientSide(node, port_id, space)
        self._files: dict[int, _OrfaFile] = {}
        self._next_fd = 3

    def setup(self):
        """Generator: one-time library initialization."""
        yield from self.side.setup()

    # -- protocol helpers ------------------------------------------------------

    def _call(self, make_req, side_call, *extra):
        """Generator: one RPC with the client's timeout/retry budget.

        Each attempt gets a *fresh* request id (the server replies match
        by id, so a late reply to a timed-out attempt can never be taken
        for the retry's answer).  When the budget is exhausted — or the
        fabric reports the peer unreachable — the failure surfaces as
        :class:`Eio`, the errno a kernel client would hand the VFS.
        READ and WRITE are idempotent, so at-least-once execution is
        safe; CREATE retried after a lost *reply* may observe EEXIST
        (documented at-least-once hazard).
        """
        attempts = 1 if self.timeout_ns is None else 1 + self.max_retries
        env = self.node.env
        t0 = env.now
        for attempt in range(attempts):
            req = make_req(env.next_id("orfa"))
            op = req.op.name.lower()
            span = obs.span_begin(
                env, "orfa", f"rpc.{op}", pid=self.node.node_id,
                tid=attempt, request_id=req.request_id,
            )
            try:
                reply = yield from side_call(self.server, req, *extra,
                                             timeout_ns=self.timeout_ns)
            except NetworkError as exc:
                obs.span_end(env, span, outcome="error")
                if obs.metrics_enabled():
                    obs.counter("orfa.request.failures",
                                node=self.node.node_id, op=op).inc()
                raise Eio(f"orfa {op}: {exc}") from exc
            if reply is not None:
                obs.span_end(env, span, outcome="ok")
                if obs.metrics_enabled():
                    obs.counter("orfa.requests",
                                node=self.node.node_id, op=op).inc()
                    # Total RPC latency including timed-out attempts, so
                    # the histogram reflects what the caller waited.
                    obs.histogram("orfa.request.latency_ns",
                                  op=op).observe(env.now - t0)
                return reply
            obs.span_end(env, span, outcome="timeout")
            if obs.metrics_enabled():
                obs.counter("orfa.request.timeouts",
                            node=self.node.node_id, op=op).inc()
            if env.trace is not None:
                emit(env, "rpc", "timeout", {
                    "op": op,
                    "attempt": attempt + 1,
                    "request_id": req.request_id,
                })
        if obs.metrics_enabled():
            obs.counter("orfa.request.failures",
                        node=self.node.node_id, op=op).inc()
        raise Eio(
            f"orfa {op}: no reply after {attempts} attempts "
            f"of {self.timeout_ns} ns each"
        )

    def _rpc_meta(self, op: OrfaOp, inode: int = 0, name: str = "",
                  length: int = 0) -> "generator":
        reply = yield from self._call(
            lambda rid: OrfaRequest(op=op, request_id=rid, inode=inode,
                                    name=name, length=length),
            self.side.call_meta,
        )
        if not reply.ok:
            _raise_status(reply.status)
        return reply

    def _resolve(self, path: str):
        """Generator: LOOKUP every component — no client dcache (the
        ORFA metadata weakness the paper measures)."""
        attrs = None
        inode = 1  # server root
        parts = [p for p in path.strip("/").split("/") if p]
        if not parts:
            reply = yield from self._rpc_meta(OrfaOp.GETATTR, inode=inode)
            return reply.attrs
        for name in parts:
            reply = yield from self._rpc_meta(OrfaOp.LOOKUP, inode=inode, name=name)
            attrs = reply.attrs
            inode = attrs.inode_id
        return attrs

    # -- intercepted libc calls ----------------------------------------------------

    def open(self, path: str, create: bool = False):
        """Generator: open(2) as the library intercepts it."""
        yield from self.cpu.work(LIB_CALL_NS)
        try:
            attrs = yield from self._resolve(path)
        except FsError:
            if not create:
                raise
            parent_path, _, name = path.rstrip("/").rpartition("/")
            parent = yield from self._resolve(parent_path or "/")
            reply = yield from self._rpc_meta(OrfaOp.CREATE,
                                              inode=parent.inode_id, name=name)
            attrs = reply.attrs
        fd = self._next_fd
        self._next_fd += 1
        self._files[fd] = _OrfaFile(attrs=attrs)
        return fd

    def close(self, fd: int):
        yield from self.cpu.work(LIB_CALL_NS)
        if fd not in self._files:
            raise Ebadf(str(fd))
        del self._files[fd]

    def stat(self, path: str):
        yield from self.cpu.work(LIB_CALL_NS)
        attrs = yield from self._resolve(path)
        return attrs

    def mkdir(self, path: str):
        yield from self.cpu.work(LIB_CALL_NS)
        parent_path, _, name = path.rstrip("/").rpartition("/")
        parent = yield from self._resolve(parent_path or "/")
        yield from self._rpc_meta(OrfaOp.MKDIR, inode=parent.inode_id, name=name)

    def read(self, fd: int, vaddr: int, length: int):
        """Generator: read(2); data lands zero-copy in [vaddr, vaddr+len)."""
        yield from self.cpu.work(LIB_CALL_NS)
        f = self._file(fd)
        remaining = min(length, max(0, f.attrs.size - f.offset))
        done = 0
        while remaining > 0:
            chunk = min(remaining, MAX_READ_REPLY)
            offset = f.offset + done
            reply = yield from self._call(
                lambda rid: OrfaRequest(op=OrfaOp.READ, request_id=rid,
                                        inode=f.attrs.inode_id,
                                        offset=offset, length=chunk),
                self.side.call_read, vaddr + done,
            )
            if not reply.ok:
                _raise_status(reply.status)
            done += reply.count
            remaining -= reply.count
            if reply.count < chunk:
                break
        f.offset += done
        return done

    def write(self, fd: int, vaddr: int, length: int):
        """Generator: write(2), chunked to the protocol's wsize."""
        yield from self.cpu.work(LIB_CALL_NS)
        f = self._file(fd)
        done = 0
        while done < length:
            chunk = min(length - done, MAX_WRITE_CHUNK)
            offset = f.offset + done
            reply = yield from self._call(
                lambda rid: OrfaRequest(op=OrfaOp.WRITE, request_id=rid,
                                        inode=f.attrs.inode_id,
                                        offset=offset, length=chunk),
                self.side.call_write, vaddr + done,
            )
            if not reply.ok:
                _raise_status(reply.status)
            done += reply.count
        f.offset += done
        if f.offset > f.attrs.size:
            f.attrs.size = f.offset
        return done

    def seek(self, fd: int, offset: int) -> None:
        self._file(fd).offset = offset

    def _file(self, fd: int) -> _OrfaFile:
        f = self._files.get(fd)
        if f is None:
            raise Ebadf(str(fd))
        return f
