"""The ORFS kernel client: FileSystemOps over a kernel network channel.

Every VFS operation becomes one or more ORFA requests.  Requests go out
of a small pool of kmalloc'ed buffers (kernel-virtual segments — already
pinned, cheap); replies land where they belong:

* metadata replies in a kernel reply buffer,
* ``readpage`` data in the page-cache frame (physical segment),
* ``direct_read`` data in the pinned user buffer (user segment).

Reply matching by request id means the receive is posted *before* the
request is sent, so the data DMA needs no intermediate buffer at the
client — the whole point of the paper's kernel API work.
"""

from __future__ import annotations


from .. import obs
from ..cluster.node import Node
from ..core.channel import KernelChannel
from ..errors import FsError, ProtocolError
from ..kernel.vfs import UserBuffer
from ..mem.layout import sg_from_frames
from ..mx.memtypes import MxSegment
from ..orfa.protocol import OrfaOp, OrfaReply, OrfaRequest
from ..orfa.server import MAX_READ_REPLY, MAX_WRITE_CHUNK
from ..units import PAGE_SIZE

#: Client-side bookkeeping per request (request build, id allocation).
CLIENT_OP_NS = 400

_ERRNO_EXC = {"ENOENT": "Enoent", "EEXIST": "Eexist", "EISDIR": "Eisdir",
              "ENOTDIR": "Enotdir", "ENOTEMPTY": "Enotempty",
              "EINVAL": "Einval"}


def _raise_status(status: str):
    from .. import errors

    exc = getattr(errors, _ERRNO_EXC.get(status, ""), None)
    if exc is not None:
        raise exc()
    raise FsError(status)


class OrfsClient:
    """FileSystemOps implementation speaking ORFA over a KernelChannel."""

    fs_name = "orfs"

    def __init__(self, node: Node, channel: KernelChannel,
                 server: tuple[int, int]):
        self.node = node
        self.channel = channel
        self.server = server
        self.cpu = node.cpu
        # kmalloc'ed request buffer (requests are serialized per client
        # instance by the VFS paths that call us).
        self._req_buf = node.kspace.kmalloc(4096)
        self._reply_buf = node.kspace.kmalloc(4096)
        self._m_requests = obs.counter("orfs.requests", node=node.node_id)

    # -- request machinery ---------------------------------------------------

    def _rpc(self, req: OrfaRequest, reply_segments=None, send_segments=None):
        """Generator: one request/reply exchange.

        ``reply_segments`` defaults to the kernel reply buffer;
        ``send_segments`` (for writes) carries payload instead of the
        request buffer.
        """
        yield from self.cpu.work(CLIENT_OP_NS)
        if reply_segments is None:
            reply_segments = [MxSegment.kernel(self._reply_buf.vaddr, 4096)]
        recv = yield from self.channel.post_recv(reply_segments,
                                                 match=req.request_id)
        if send_segments is None:
            send_segments = [MxSegment.kernel(self._req_buf.vaddr,
                                              req.wire_size())]
        send = yield from self.channel.send(self.server[0], self.server[1],
                                            send_segments, match=0, meta=req)
        self._m_requests.inc()
        completion = yield from self.channel.wait_recv(recv)
        if not send.event.processed:
            yield from self.channel.wait_send(send)
        reply = completion.meta
        if not isinstance(reply, OrfaReply):
            raise ProtocolError(f"bad reply: {reply!r}")
        if not reply.ok:
            _raise_status(reply.status)
        return reply

    def _new_request(self, op: OrfaOp, **kw) -> OrfaRequest:
        return OrfaRequest(op=op, request_id=self.node.env.next_id("orfs"), **kw)

    # -- FileSystemOps: namespace ------------------------------------------------

    def root_inode(self) -> int:
        return 1  # MemFs root

    def lookup(self, parent_id: int, name: str):
        reply = yield from self._rpc(
            self._new_request(OrfaOp.LOOKUP, inode=parent_id, name=name))
        return reply.attrs

    def getattr(self, inode_id: int):
        reply = yield from self._rpc(
            self._new_request(OrfaOp.GETATTR, inode=inode_id))
        return reply.attrs

    def create(self, parent_id: int, name: str):
        reply = yield from self._rpc(
            self._new_request(OrfaOp.CREATE, inode=parent_id, name=name))
        return reply.attrs

    def mkdir(self, parent_id: int, name: str):
        reply = yield from self._rpc(
            self._new_request(OrfaOp.MKDIR, inode=parent_id, name=name))
        return reply.attrs

    def readdir(self, inode_id: int):
        reply = yield from self._rpc(
            self._new_request(OrfaOp.READDIR, inode=inode_id))
        return reply.names

    def truncate(self, inode_id: int, size: int):
        yield from self._rpc(
            self._new_request(OrfaOp.TRUNCATE, inode=inode_id, length=size))

    # -- FileSystemOps: buffered data path ------------------------------------------

    def readpage(self, inode_id: int, index: int, frame):
        """Fill one page-cache frame: reply data lands in the frame by
        physical address (section 3.3)."""
        req = self._new_request(OrfaOp.READ, inode=inode_id,
                                offset=index * PAGE_SIZE, length=PAGE_SIZE)
        reply = yield from self._rpc(
            req,
            reply_segments=[MxSegment.physical(
                sg_from_frames([frame], 0, PAGE_SIZE))],
        )
        if reply.count < PAGE_SIZE:
            frame.write(reply.count, bytes(PAGE_SIZE - reply.count))
        return reply.count

    def readpages(self, inode_id: int, start_index: int, frames):
        """Fill several consecutive page-cache frames with one vectorial
        request (the Linux 2.6 clustering the paper anticipates in
        section 3.3).  GM has no vectorial primitives (section 4.1), so
        that backend degrades to per-page requests."""
        if not self.channel.supports_vectorial:
            for i, frame in enumerate(frames):
                yield from self.readpage(inode_id, start_index + i, frame)
            return len(frames) * PAGE_SIZE
        length = len(frames) * PAGE_SIZE
        req = self._new_request(OrfaOp.READ, inode=inode_id,
                                offset=start_index * PAGE_SIZE, length=length)
        reply = yield from self._rpc(
            req,
            reply_segments=[MxSegment.physical(sg_from_frames(frames))],
        )
        # Zero-fill whatever the file did not cover (EOF tail).
        pos = reply.count
        while pos < length:
            frame = frames[pos // PAGE_SIZE]
            in_page = pos % PAGE_SIZE
            n = PAGE_SIZE - in_page
            frame.write(in_page, bytes(n))
            pos += n
        return reply.count

    def writepage(self, inode_id: int, index: int, frame, length: int):
        """Write one dirty page back: payload travels straight from the
        page-cache frame (physical segment)."""
        req = self._new_request(OrfaOp.WRITE, inode=inode_id,
                                offset=index * PAGE_SIZE, length=length)
        reply = yield from self._rpc(
            req,
            send_segments=[MxSegment.physical(
                sg_from_frames([frame], 0, length))],
        )
        return reply.count

    # -- FileSystemOps: direct data path -----------------------------------------------

    def direct_read(self, inode_id: int, offset: int, buf: UserBuffer):
        """O_DIRECT read: data lands zero-copy in the user buffer."""
        done = 0
        while done < buf.length:
            chunk = min(buf.length - done, MAX_READ_REPLY)
            req = self._new_request(OrfaOp.READ, inode=inode_id,
                                    offset=offset + done, length=chunk)
            reply = yield from self._rpc(
                req,
                reply_segments=[MxSegment.user(buf.space, buf.vaddr + done,
                                               chunk)],
            )
            done += reply.count
            if reply.count < chunk:
                break
        return done

    def direct_write(self, inode_id: int, offset: int, buf: UserBuffer):
        """O_DIRECT write: payload travels straight from the user buffer,
        chunked to the protocol's wsize."""
        done = 0
        while done < buf.length:
            chunk = min(buf.length - done, MAX_WRITE_CHUNK)
            req = self._new_request(OrfaOp.WRITE, inode=inode_id,
                                    offset=offset + done, length=chunk)
            reply = yield from self._rpc(
                req,
                send_segments=[MxSegment.user(buf.space, buf.vaddr + done,
                                              chunk)],
            )
            done += reply.count
        return done


def mount_orfs(node: Node, channel: KernelChannel, server: tuple[int, int],
               mountpoint: str = "/orfs") -> OrfsClient:
    """Create an ORFS client over ``channel`` and mount it."""
    client = OrfsClient(node, channel, server)
    node.vfs.mount(mountpoint, client)
    return client
