"""Contention tests: shared LANai, PCI and CPU resources under load."""

import pytest

from repro.bench.netpipe import ping_pong, prepare_pair
from repro.bench.transports import MxTransport
from repro.cluster import node_pair
from repro.hw.params import MX_COSTS
from repro.hw.nic import PostedReceive, SendDescriptor
from repro.sim import Environment
from repro.units import MB, PAGE_SIZE, bandwidth_mb_s, us


def test_two_ports_share_one_firmware_processor():
    """Two endpoints on one NIC serialize on the LANai: aggregate
    throughput of two concurrent streams equals one link, and per-port
    rates split roughly evenly."""
    env = Environment()
    a, b = node_pair(env)
    pairs = []
    for port in (1, 2):
        ta = MxTransport(a, port, peer_node=1, peer_ep=port, context="kernel")
        tb = MxTransport(b, port, peer_node=0, peer_ep=port, context="kernel")
        prepare_pair(env, ta, tb, 64 * 1024)
        pairs.append((ta, tb))
    size, count = 64 * 1024, 8
    finish = {}

    def tx(env, t, idx):
        for _ in range(count):
            yield from t.send(size)

    def rx(env, t, idx):
        for _ in range(count):
            yield from t.recv(size)
        finish[idx] = env.now

    for idx, (ta, tb) in enumerate(pairs):
        env.process(tx(env, ta, idx))
        env.process(rx(env, tb, idx))
    env.run()
    total = 2 * count * size
    aggregate = bandwidth_mb_s(total, max(finish.values()))
    assert 200 < aggregate < 252  # one 250 MB/s wire, not two
    # fairness: neither stream finishes wildly before the other
    times = sorted(finish.values())
    assert times[1] - times[0] < 0.35 * times[1]


def test_concurrent_transfers_do_not_corrupt_each_other():
    """Interleaved fragments of two streams keep their data intact."""
    env = Environment()
    a, b = node_pair(env)
    results = {}
    payloads = {
        1: bytes((i * 3) % 256 for i in range(100_000)),
        2: bytes((i * 7 + 1) % 256 for i in range(100_000)),
    }
    for port, payload in payloads.items():
        pa = a.nic.open_port(port, MX_COSTS)
        pb = b.nic.open_port(port, MX_COSTS)
        done = env.event()
        pb.post_receive(PostedReceive(match=port, capacity=len(payload),
                                      keep_data=True, completion=done))
        a.nic.submit(SendDescriptor(
            dst_nic=1, dst_port=port, match=port, size=len(payload),
            src_port=port, data=payload, rendezvous=True, fw_send_ns=500))
        results[port] = done
    env.run()
    for port, payload in payloads.items():
        assert results[port].value.data == payload


def test_latency_degrades_under_background_bulk_traffic():
    """A small ping-pong sharing the NIC with a bulk stream sees its
    latency rise (wire + firmware contention), then recover."""
    env = Environment()
    a, b = node_pair(env)
    small_a = MxTransport(a, 1, peer_node=1, peer_ep=1, context="kernel")
    small_b = MxTransport(b, 1, peer_node=0, peer_ep=1, context="kernel")
    bulk_a = MxTransport(a, 2, peer_node=1, peer_ep=2, context="kernel")
    bulk_b = MxTransport(b, 2, peer_node=0, peer_ep=2, context="kernel")
    prepare_pair(env, small_a, small_b, PAGE_SIZE)
    prepare_pair(env, bulk_a, bulk_b, 256 * 1024)

    quiet = ping_pong(env, small_a, small_b, 64, rounds=10).one_way_us

    def bulk_tx(env):
        for _ in range(64):
            yield from bulk_a.send(256 * 1024)

    def bulk_rx(env):
        for _ in range(64):
            yield from bulk_b.recv(256 * 1024)

    env.process(bulk_tx(env))
    env.process(bulk_rx(env))
    loaded = ping_pong(env, small_a, small_b, 64, rounds=10).one_way_us
    env.run()  # drain the bulk stream
    after = ping_pong(env, small_a, small_b, 64, rounds=10).one_way_us
    assert loaded > 2 * quiet
    assert after == pytest.approx(quiet, rel=0.05)
