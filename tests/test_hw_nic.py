"""Unit tests for the NIC transport pipeline (repro.hw.nic)."""

import pytest

from repro.errors import PortError
from repro.hw import Link, Message, Nic, PostedReceive, SendCompletion, SendDescriptor
from repro.hw.nic import MsgKind, ReceiveCompletion
from repro.hw.params import MX_COSTS, NicParams, PCI_XD
from repro.mem import PhysicalMemory
from repro.mem.layout import PhysSegment
from repro.sim import Environment
from repro.units import MB, PAGE_SIZE, bandwidth_mb_s, us


def make_pair(link_params=PCI_XD):
    """Two NICs joined by a direct link; returns (env, nic_a, nic_b, phys_a, phys_b)."""
    env = Environment()
    phys_a = PhysicalMemory(1024)
    phys_b = PhysicalMemory(1024)
    params = NicParams(link=link_params)
    nic_a = Nic(env, params, phys_a, node_id=0, name="nicA")
    nic_b = Nic(env, params, phys_b, node_id=1, name="nicB")
    link = Link(env, link_params)
    nic_a.attach_link(link, "a")
    nic_b.attach_link(link, "b")
    return env, nic_a, nic_b, phys_a, phys_b


def test_open_port_twice_raises():
    env, nic_a, *_ = make_pair()
    nic_a.open_port(1, MX_COSTS)
    with pytest.raises(PortError):
        nic_a.open_port(1, MX_COSTS)


def test_eager_message_delivers_data():
    env, nic_a, nic_b, phys_a, phys_b = make_pair()
    pa = nic_a.open_port(1, MX_COSTS)
    pb = nic_b.open_port(1, MX_COSTS)

    src = phys_a.alloc()
    src.write(0, b"payload-bytes")
    dst = phys_b.alloc()

    recv_done = env.event()
    pb.post_receive(
        PostedReceive(
            match=7,
            capacity=PAGE_SIZE,
            dest_sg=[PhysSegment(dst.phys_addr, PAGE_SIZE)],
            completion=recv_done,
        )
    )
    send_done = nic_a.submit(
        SendDescriptor(
            dst_nic=1,
            dst_port=1,
            match=7,
            size=13,
            src_port=1,
            sg=[PhysSegment(src.phys_addr, 13)],
            fw_send_ns=MX_COSTS.fw_send_ns,
        )
    )
    completion = env.run(until=recv_done)
    assert isinstance(completion, ReceiveCompletion)
    assert completion.size == 13
    assert completion.match == 7
    assert dst.read(0, 13) == b"payload-bytes"
    assert send_done.processed and isinstance(send_done.value, SendCompletion)


def test_unexpected_message_matched_by_late_receive():
    env, nic_a, nic_b, phys_a, phys_b = make_pair()
    nic_a.open_port(1, MX_COSTS)
    pb = nic_b.open_port(1, MX_COSTS)

    nic_a.submit(
        SendDescriptor(
            dst_nic=1, dst_port=1, match=3, size=5, src_port=1, data=b"hello",
            fw_send_ns=500,
        )
    )
    env.run(until=us(100))
    assert len(pb.unexpected) == 1

    recv_done = env.event()
    pb.post_receive(
        PostedReceive(match=3, capacity=64, keep_data=True, completion=recv_done)
    )
    completion = env.run(until=recv_done)
    assert completion.data == b"hello"
    assert not pb.unexpected


def test_match_none_accepts_any_tag():
    env, nic_a, nic_b, _, _ = make_pair()
    nic_a.open_port(1, MX_COSTS)
    pb = nic_b.open_port(1, MX_COSTS)
    recv_done = env.event()
    pb.post_receive(
        PostedReceive(match=None, capacity=64, keep_data=True, completion=recv_done)
    )
    nic_a.submit(
        SendDescriptor(dst_nic=1, dst_port=1, match=99, size=2, src_port=1,
                       data=b"ok", fw_send_ns=500)
    )
    completion = env.run(until=recv_done)
    assert completion.match == 99


def test_mismatched_tags_do_not_cross():
    env, nic_a, nic_b, _, _ = make_pair()
    nic_a.open_port(1, MX_COSTS)
    pb = nic_b.open_port(1, MX_COSTS)
    done_5 = env.event()
    pb.post_receive(PostedReceive(match=5, capacity=64, keep_data=True, completion=done_5))
    nic_a.submit(
        SendDescriptor(dst_nic=1, dst_port=1, match=6, size=1, src_port=1,
                       data=b"x", fw_send_ns=500)
    )
    env.run(until=us(200))
    assert not done_5.triggered
    assert len(pb.unexpected) == 1


def test_truncation_flagged_when_buffer_too_small():
    env, nic_a, nic_b, _, _ = make_pair()
    nic_a.open_port(1, MX_COSTS)
    pb = nic_b.open_port(1, MX_COSTS)
    recv_done = env.event()
    pb.post_receive(
        PostedReceive(match=1, capacity=4, keep_data=True, completion=recv_done)
    )
    nic_a.submit(
        SendDescriptor(dst_nic=1, dst_port=1, match=1, size=10, src_port=1,
                       data=b"0123456789", fw_send_ns=500)
    )
    completion = env.run(until=recv_done)
    assert completion.truncated
    assert completion.size == 4
    assert completion.data == b"0123"


def test_message_ordering_preserved_fifo():
    env, nic_a, nic_b, _, _ = make_pair()
    nic_a.open_port(1, MX_COSTS)
    pb = nic_b.open_port(1, MX_COSTS)
    received = []

    def on_completion(c):
        received.append(c.data)

    pb.completion_sink = on_completion
    for i in range(5):
        pb.post_receive(PostedReceive(match=None, capacity=64, keep_data=True))
    for i in range(5):
        nic_a.submit(
            SendDescriptor(dst_nic=1, dst_port=1, match=i, size=1, src_port=1,
                           data=bytes([i]), fw_send_ns=500)
        )
    env.run(until=us(500))
    assert received == [bytes([i]) for i in range(5)]


def test_rendezvous_waits_for_posted_receive(count):
    env, nic_a, nic_b, phys_a, phys_b = make_pair()
    nic_a.open_port(1, MX_COSTS)
    pb = nic_b.open_port(1, MX_COSTS)

    payload = bytes(range(256)) * 256  # 64 kB
    send_done = nic_a.submit(
        SendDescriptor(
            dst_nic=1, dst_port=1, match=11, size=len(payload), src_port=1,
            data=payload, rendezvous=True, large_setup_ns=us(15), fw_send_ns=500,
        )
    )
    env.run(until=us(500))
    # No receive posted: data must not have moved yet.
    assert not send_done.triggered
    assert count("nic.tx.messages", node=0) == 0

    dst_frames = [phys_b.alloc() for _ in range(16)]
    sg = [PhysSegment(f.phys_addr, PAGE_SIZE) for f in dst_frames]
    recv_done = env.event()
    pb.post_receive(
        PostedReceive(match=11, capacity=len(payload), dest_sg=sg, completion=recv_done)
    )
    completion = env.run(until=recv_done)
    assert completion.size == len(payload)
    got = b"".join(f.read(0, PAGE_SIZE) for f in dst_frames)
    assert got == payload


def test_rendezvous_with_preposted_receive():
    env, nic_a, nic_b, _, phys_b = make_pair()
    nic_a.open_port(1, MX_COSTS)
    pb = nic_b.open_port(1, MX_COSTS)
    recv_done = env.event()
    pb.post_receive(
        PostedReceive(match=2, capacity=200_000, keep_data=True, completion=recv_done)
    )
    payload = b"z" * 100_000
    nic_a.submit(
        SendDescriptor(dst_nic=1, dst_port=1, match=2, size=len(payload),
                       src_port=1, data=payload, rendezvous=True, fw_send_ns=500)
    )
    completion = env.run(until=recv_done)
    assert completion.data == payload


def test_large_transfer_bandwidth_close_to_link_rate():
    """A 1 MB eager transfer must land near the 250 MB/s PCI-XD rate."""
    env, nic_a, nic_b, _, _ = make_pair()
    nic_a.open_port(1, MX_COSTS)
    pb = nic_b.open_port(1, MX_COSTS)
    recv_done = env.event()
    size = 2**20
    pb.post_receive(PostedReceive(match=1, capacity=size, completion=recv_done))
    start = env.now
    nic_a.submit(
        SendDescriptor(dst_nic=1, dst_port=1, match=1, size=size, src_port=1,
                       fw_send_ns=500)
    )
    env.run(until=recv_done)
    bw = bandwidth_mb_s(size, env.now - start)
    assert 230 < bw < 250


def test_streaming_throughput_is_link_bound():
    """Many back-to-back sends pipeline: total time ~ N * wire time."""
    env, nic_a, nic_b, _, _ = make_pair()
    nic_a.open_port(1, MX_COSTS)
    pb = nic_b.open_port(1, MX_COSTS)
    n, size = 20, 64 * 1024
    done = []
    pb.completion_sink = lambda c: done.append(env.now)
    for _ in range(n):
        pb.post_receive(PostedReceive(match=None, capacity=size))
    for _ in range(n):
        nic_a.submit(SendDescriptor(dst_nic=1, dst_port=1, match=0, size=size,
                                    src_port=1, fw_send_ns=500))
    env.run()
    assert len(done) == n
    bw = bandwidth_mb_s(n * size, done[-1])
    assert bw > 0.9 * 250  # pipelining keeps the wire saturated


def test_sends_to_closed_port_are_dropped(count):
    env, nic_a, nic_b, _, _ = make_pair()
    nic_a.open_port(1, MX_COSTS)
    nic_a.submit(SendDescriptor(dst_nic=1, dst_port=9, match=0, size=8,
                                src_port=1, data=b"lostdata", fw_send_ns=500))
    env.run()
    assert count("nic.tx.messages", node=0) == 1
    assert count("nic.rx.messages", node=1) == 0


def test_full_duplex_directions_do_not_contend():
    """Simultaneous opposite transfers take one-transfer time, not two."""
    env, nic_a, nic_b, _, _ = make_pair()
    pa = nic_a.open_port(1, MX_COSTS)
    pb = nic_b.open_port(1, MX_COSTS)
    size = 2**20
    done_a, done_b = env.event(), env.event()
    pa.post_receive(PostedReceive(match=0, capacity=size, completion=done_a))
    pb.post_receive(PostedReceive(match=0, capacity=size, completion=done_b))
    nic_a.submit(SendDescriptor(dst_nic=1, dst_port=1, match=0, size=size,
                                src_port=1, fw_send_ns=500))
    nic_b.submit(SendDescriptor(dst_nic=0, dst_port=1, match=0, size=size,
                                src_port=1, fw_send_ns=500))
    env.run(until=env.all_of([done_a, done_b]))
    one_way_wire = size / (250 * MB) * 1e9
    assert env.now < 1.2 * one_way_wire  # not 2x: directions are independent
