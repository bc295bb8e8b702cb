"""Tests for the zero-copy socket protocols and the TCP/IP baseline."""

import pytest

from repro.cluster import node_pair
from repro.errors import SocketError
from repro.hw.params import PCI_XE
from repro.sim import Environment
from repro.sockets import SocketsGmModule, SocketsMxModule, ethernet_pair
from repro.units import PAGE_SIZE, us


def make_pair(kind):
    env = Environment()
    a, b = node_pair(env, link=PCI_XE)
    if kind == "mx":
        return env, a, b, SocketsMxModule(a, 9), SocketsMxModule(b, 9)
    if kind == "gm":
        return env, a, b, SocketsGmModule(a, 9), SocketsGmModule(b, 9)
    sa, sb = ethernet_pair(env, a, b)
    return env, a, b, sa, sb


def connect_pair(env, ma, mb, kind):
    """Run listen+connect+accept; returns (client_sock, server_sock)."""
    result = {}

    def server(env):
        if kind == "tcp":
            mb.listen()
        else:
            yield from mb.listen()
        sock = yield from mb.accept()
        result["server"] = sock
        if kind == "tcp":
            return
            yield  # pragma: no cover

    def client(env):
        if kind == "tcp":
            sock = yield from ma.connect()
        else:
            sock = yield from ma.connect(1, 9)
        result["client"] = sock

    env.process(server(env))
    p = env.process(client(env))
    env.run(until=p)
    env.run(until=env.now + us(100))
    return result["client"], result["server"]


KINDS = ["mx", "gm", "tcp"]


@pytest.mark.parametrize("kind", KINDS)
def test_connect_and_exchange(kind):
    env, a, b, ma, mb = make_pair(kind)
    cs, ss = connect_pair(env, ma, mb, kind)
    spa, spb = a.new_process_space(), b.new_process_space()
    va = spa.mmap(PAGE_SIZE)
    vb = spb.mmap(PAGE_SIZE)
    spa.write_bytes(va, b"over-the-socket")

    def server(env):
        n = yield from ss.recv(spb, vb, 64)
        data = spb.read_bytes(vb, n)
        spb.write_bytes(vb, data.upper())
        yield from ss.send(spb, vb, n)

    def client(env):
        yield from cs.send(spa, va, 15)
        n = yield from cs.recv(spa, va, 64)
        return spa.read_bytes(va, n)

    env.process(server(env))
    got = env.run(until=env.process(client(env)))
    assert got == b"OVER-THE-SOCKET"


@pytest.mark.parametrize("kind", KINDS)
def test_large_transfer_integrity(kind):
    env, a, b, ma, mb = make_pair(kind)
    cs, ss = connect_pair(env, ma, mb, kind)
    spa, spb = a.new_process_space(), b.new_process_space()
    size = 256 * 1024
    payload = bytes((i * 31) % 256 for i in range(size))
    va = spa.mmap(size)
    vb = spb.mmap(size)
    spa.write_bytes(va, payload)

    def server(env):
        n = yield from ss.recv(spb, vb, size)
        return n

    def client(env):
        yield from cs.send(spa, va, size)

    p = env.process(server(env))
    env.process(client(env))
    assert env.run(until=p) == size
    assert spb.read_bytes(vb, size) == payload


@pytest.mark.parametrize("kind", ["mx", "gm"])
def test_oversized_message_raises(kind):
    env, a, b, ma, mb = make_pair(kind)
    cs, ss = connect_pair(env, ma, mb, kind)
    spa, spb = a.new_process_space(), b.new_process_space()
    va = spa.mmap(PAGE_SIZE)
    vb = spb.mmap(PAGE_SIZE)

    def server(env):
        yield from ss.recv(spb, vb, 16)  # too small for the 4096-byte send

    def client(env):
        yield from cs.send(spa, va, 4096)

    p = env.process(server(env))
    env.process(client(env))
    with pytest.raises(SocketError):
        env.run(until=p)


def test_closed_socket_raises():
    env, a, b, ma, mb = make_pair("mx")
    cs, ss = connect_pair(env, ma, mb, "mx")
    spa = a.new_process_space()
    va = spa.mmap(PAGE_SIZE)
    cs.close()
    with pytest.raises(SocketError):
        env.run(until=env.process(cs.send(spa, va, 4)))


def test_sockets_mx_one_byte_latency_is_5_us(claim):
    claim("fig8a", "SOCKETS-MX 1 B one-way", "overhead over raw MX")


def test_sockets_gm_one_byte_latency_is_15_us(claim):
    claim("fig8a", "SOCKETS-GM 1 B one-way")


def test_tcp_latency_much_higher_than_sockets_mx(claim):
    claim("fig8a", 'GigE "might get much more"')


@pytest.mark.slow
def test_sockets_mx_bandwidth_improvements_over_gm(claim):
    claim("fig8b", 'medium improvement "up to 100 % (for 4 kB)"',
          'large improvement "up to 50 % (for 1 MB)"',
          "SOCKETS-GM < 70 % of link", "SOCKETS-MX approaches the link")
