"""Workload adapters: one ``op(client, op, size)`` generator per stack.

An adapter owns the protocol objects for one server node plus N client
nodes on an already-built cluster (a star or a fabric), sets them up at
construction (running the Environment as needed), and exposes the
uniform interface the load driver executes:

* :class:`OrfaWorkload` — the user-space ORFA file client: ``read`` /
  ``write`` run sequentially through a per-client pre-opened file
  (wrapping at EOF), ``stat`` is the full no-dcache LOOKUP path.
* :class:`NbdWorkload` — the in-kernel NBD block device: buffered
  reads/writes through the page cache with the touched range
  invalidated after each op, so every op really crosses the network
  (the open-loop generator is measuring the wire, not the cache).
* :class:`RrWorkload` — request-response over kernel sockets:
  SOCKETS-MX, SOCKETS-GM (one server module per client — the 4-slot
  bounce pools are per-module) or the TCP/IP baseline (a dedicated
  gigabit Ethernet pair per client; TCP stacks are point-to-point, so
  this path ignores the fabric and models commodity NICs on the side).

Every client executes at most one op at a time (the driver guarantees
it), which is also what the GM-side client objects require.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.node import Node
from ..core import GmKernelChannel, MxKernelChannel
from ..nbd.device import BLOCK_SIZE, NbdDevice, NbdServer
from ..orfa.client import OrfaClient
from ..orfa.server import OrfaServer
from ..sim import Environment
from ..sockets.sockets_gm import SocketsGmModule
from ..sockets.sockets_mx import SocketsMxModule
from ..sockets.tcpip import ethernet_pair
from ..units import KiB, MiB, page_align_up
from .arrivals import LoadSpecError

SERVER_PORT = 3
CLIENT_PORT = 4

#: Largest single op an adapter accepts (buffer sizing).
MAX_OP_BYTES = 256 * KiB


def _buffer(space, nbytes: int = MAX_OP_BYTES) -> int:
    return space.mmap(page_align_up(nbytes), populate=True)


class OrfaWorkload:
    """N user-space ORFA clients against one ORFA server."""

    ops = ("read", "write", "stat")

    def __init__(self, env: Environment, server_node: Node,
                 client_nodes: list[Node], api: str = "mx",
                 file_bytes: int = MiB):
        self.name = f"orfa-{api}"
        self.env = env
        self.file_bytes = file_bytes
        self.server = OrfaServer(server_node, SERVER_PORT, api=api)
        env.run(until=self.server.start())
        self._clients: list[OrfaClient] = []
        self._paths: list[str] = []
        self._fds: list[int] = []
        self._bufs: list[int] = []
        self._spaces = []
        self._offsets: list[int] = []
        for i, node in enumerate(client_nodes):
            space = node.new_process_space()
            client = OrfaClient(node, CLIENT_PORT, space,
                                (server_node.node_id, SERVER_PORT), api=api)
            env.run(until=env.process(client.setup()))
            path = f"load{i}"
            attrs = env.run(until=env.process(self.server.fs.create(1, path)))
            self.server.fs.truncate_raw(attrs.inode_id, file_bytes)
            fd = env.run(until=env.process(client.open(f"/{path}")))
            self._clients.append(client)
            self._paths.append(f"/{path}")
            self._fds.append(fd)
            self._spaces.append(space)
            self._bufs.append(_buffer(space))
            self._offsets.append(0)

    def op(self, client: int, op: str, size: int):
        c = self._clients[client]
        if op == "stat":
            yield from c.stat(self._paths[client])
            return
        size = max(1, min(size, MAX_OP_BYTES, self.file_bytes))
        if self._offsets[client] + size > self.file_bytes:
            c.seek(self._fds[client], 0)
            self._offsets[client] = 0
        if op == "write":
            n = yield from c.write(self._fds[client], self._bufs[client], size)
        else:  # read (and anything data-shaped)
            n = yield from c.read(self._fds[client], self._bufs[client], size)
        self._offsets[client] += n


class NbdWorkload:
    """N in-kernel NBD block clients against one block server."""

    ops = ("read", "write")

    def __init__(self, env: Environment, server_node: Node,
                 client_nodes: list[Node], api: str = "mx",
                 device_blocks: int = 512):
        self.name = f"nbd-{api}"
        self.env = env
        self.device_blocks = device_blocks
        self.server = NbdServer(server_node, SERVER_PORT, api=api,
                                device_blocks=device_blocks)
        env.run(until=self.server.start())
        self._devs: list[NbdDevice] = []
        self._spaces = []
        self._bufs: list[int] = []
        self._offsets: list[int] = []
        nbytes = device_blocks * BLOCK_SIZE
        for i, node in enumerate(client_nodes):
            if api == "mx":
                channel = MxKernelChannel(node, CLIENT_PORT)
            else:
                channel = GmKernelChannel(node, CLIENT_PORT)
            dev = NbdDevice(node, channel,
                            (server_node.node_id, SERVER_PORT),
                            self.server.device_inode, device_blocks)
            space = node.new_process_space()
            self._devs.append(dev)
            self._spaces.append(space)
            self._bufs.append(_buffer(space))
            # Stagger start offsets so clients touch disjoint extents.
            self._offsets.append((i * nbytes // max(1, len(client_nodes)))
                                 // BLOCK_SIZE * BLOCK_SIZE)

    def op(self, client: int, op: str, size: int):
        dev = self._devs[client]
        nbytes = self.device_blocks * BLOCK_SIZE
        size = max(1, min(size, MAX_OP_BYTES, nbytes))
        off = self._offsets[client]
        if off + size > nbytes:
            off = 0
        if op == "write":
            yield from dev.write(self._spaces[client], self._bufs[client],
                                 off, size)
            yield from dev.flush()
        else:
            yield from dev.read(self._spaces[client], self._bufs[client],
                                off, size)
        # Drop the cached pages: the next op must cross the wire again.
        dev.node.pagecache.invalidate_inode(-self.server.device_inode)
        self._offsets[client] = off + ((size + BLOCK_SIZE - 1)
                                       // BLOCK_SIZE * BLOCK_SIZE)


@dataclass
class _RrClient:
    sock: object
    space: object
    vaddr: int


class RrWorkload:
    """Request-response over kernel sockets: mx, gm or the TCP baseline."""

    ops = ("rr",)

    def __init__(self, env: Environment, server_node: Node,
                 client_nodes: list[Node], api: str = "mx",
                 resp_bytes: int = 128):
        if api not in ("mx", "gm", "tcp"):
            raise LoadSpecError(f"rr api must be mx, gm or tcp, got {api!r}")
        self.name = f"rr-{api}"
        self.env = env
        self.resp_bytes = resp_bytes
        self._clients: list[_RrClient] = []
        if api == "mx":
            server_mod = SocketsMxModule(server_node, SERVER_PORT)
            env.run(until=env.process(server_mod.listen()))
            for i, node in enumerate(client_nodes):
                mod = SocketsMxModule(node, CLIENT_PORT)
                sock = env.run(until=env.process(
                    mod.connect(server_node.node_id, SERVER_PORT)))
                ssock = env.run(until=env.process(server_mod.accept()))
                self._add(env, node, sock, ssock, server_node)
        elif api == "gm":
            # One shared server module: each module registers its whole
            # MiB-slot bounce pool, so per-client modules would overflow
            # the NIC translation table.  Beyond four concurrent clients
            # the 4-slot pools add queueing on the bounce free-list —
            # which is the real SOCKETS-GM behavior, not an artifact.
            server_mod = SocketsGmModule(server_node, SERVER_PORT)
            env.run(until=server_mod.ready)
            env.run(until=env.process(server_mod.listen()))
            for i, node in enumerate(client_nodes):
                mod = SocketsGmModule(node, CLIENT_PORT)
                env.run(until=mod.ready)
                sock = env.run(until=env.process(
                    mod.connect(server_node.node_id, SERVER_PORT)))
                ssock = env.run(until=env.process(server_mod.accept()))
                self._add(env, node, sock, ssock, server_node)
        else:  # tcp: a dedicated point-to-point Ethernet pair per client
            for node in client_nodes:
                ca, sb = ethernet_pair(env, node, server_node)
                sb.listen()
                sock = env.run(until=env.process(ca.connect()))
                ssock = env.run(until=env.process(sb.accept()))
                self._add(env, node, sock, ssock, server_node)

    def _add(self, env, node, sock, ssock, server_node) -> None:
        space = node.new_process_space()
        vaddr = _buffer(space)
        self._clients.append(_RrClient(sock, space, vaddr))
        sspace = server_node.new_process_space()
        svaddr = _buffer(sspace)
        env.process(self._echo(ssock, sspace, svaddr),
                    name=f"load.echo{len(self._clients) - 1}")

    def _echo(self, ssock, space, vaddr):
        while True:
            yield from ssock.recv(space, vaddr, MAX_OP_BYTES)
            yield from ssock.send(space, vaddr, self.resp_bytes)

    def op(self, client: int, op: str, size: int):
        c = self._clients[client]
        size = max(1, min(size, MAX_OP_BYTES))
        yield from c.sock.send(c.space, c.vaddr, size)
        yield from c.sock.recv(c.space, c.vaddr, self.resp_bytes)


_WORKLOADS = {"orfa": OrfaWorkload, "nbd": NbdWorkload, "rr": RrWorkload}


def make_workload(spec: dict, env: Environment, server_node: Node,
                  client_nodes: list[Node]):
    """Build a workload adapter from a spec fragment like
    ``{"kind": "orfa", "api": "mx"}`` (extra keys become constructor
    keyword arguments)."""
    kind = spec.get("kind")
    cls = _WORKLOADS.get(kind)
    if cls is None:
        raise LoadSpecError(
            f"unknown workload kind {kind!r}; known: "
            f"{', '.join(sorted(_WORKLOADS))}")
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    try:
        return cls(env, server_node, client_nodes, **kwargs)
    except TypeError as exc:
        raise LoadSpecError(f"bad {kind} workload spec {spec!r}: {exc}") from exc
