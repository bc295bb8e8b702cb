"""MX unexpected-message handling and receive-copy removal."""

import pytest

from repro.cluster import node_pair
from repro.mem.layout import sg_from_frames
from repro.mx import MxEndpoint, MxSegment
from repro.sim import Environment
from repro.units import PAGE_SIZE, us


def run(env, gen):
    return env.run(until=env.process(gen))


def test_unexpected_medium_buffered_until_matched():
    """Eager medium messages arriving before the irecv wait in the
    unexpected queue and complete on the late post."""
    env = Environment()
    a, b = node_pair(env)
    ep_a = MxEndpoint(a, 1, context="kernel")
    ep_b = MxEndpoint(b, 1, context="kernel")
    src = a.kspace.kmalloc(PAGE_SIZE)
    dst = b.kspace.kmalloc(PAGE_SIZE)
    a.kspace.write_bytes(src.vaddr, b"early-bird")

    def sender(env):
        req = yield from ep_a.isend(1, 1, [MxSegment.kernel(src.vaddr, 10)],
                                    match=4)
        yield from ep_a.wait(req)

    run(env, sender(env))
    env.run(until=env.now + us(100))
    assert len(ep_b.nic_port.unexpected) == 1

    def receiver(env):
        req = yield from ep_b.irecv([MxSegment.kernel(dst.vaddr, 64)], match=4)
        yield from ep_b.wait(req)

    run(env, receiver(env))
    assert b.kspace.read_bytes(dst.vaddr, 10) == b"early-bird"


def test_unexpected_large_stalls_until_matched(count):
    """Rendezvous: the data does not move before the receive exists."""
    env = Environment()
    a, b = node_pair(env)
    ep_a = MxEndpoint(a, 1, context="kernel")
    ep_b = MxEndpoint(b, 1, context="kernel")
    size = 100_000
    src = a.kspace.kmalloc(size)
    dst = b.kspace.kmalloc(size)

    send_done = {}

    def sender(env):
        req = yield from ep_a.isend(1, 1, [MxSegment.kernel(src.vaddr, size)],
                                    match=5)
        yield from ep_a.wait(req)
        send_done["at"] = env.now

    env.process(sender(env))
    env.run(until=env.now + us(500))
    assert "at" not in send_done  # still parked on the RTS
    assert count("nic.tx.messages", node=a.node_id) == 0

    def receiver(env):
        req = yield from ep_b.irecv([MxSegment.kernel(dst.vaddr, size)],
                                    match=5)
        yield from ep_b.wait(req)

    run(env, receiver(env))
    assert "at" in send_done


def test_no_recv_copy_deposits_directly_and_saves_time():
    """The predicted receive-copy removal (figure 6's dashed curve):
    data lands straight in the physical destination, the ring copy is
    gone, and the bytes still arrive intact."""
    env = Environment()
    a, b = node_pair(env)
    size = 16 * 1024
    payload = bytes((i * 9) % 256 for i in range(size))

    def one_way(no_recv_copy):
        ep_a = MxEndpoint(a, 10 + no_recv_copy, context="kernel")
        ep_b = MxEndpoint(b, 10 + no_recv_copy, context="kernel",
                          no_recv_copy=no_recv_copy)
        src = a.kspace.kmalloc(size)
        base = b.phys.alloc_contiguous(4)  # born pinned
        dst_frames = [b.phys.frame(pfn) for pfn in range(base, base + 4)]
        a.kspace.write_bytes(src.vaddr, payload)
        t = {}

        def receiver(env):
            req = yield from ep_b.irecv(
                [MxSegment.physical(sg_from_frames(dst_frames, 0, size))])
            t["post"] = env.now
            yield from ep_b.wait(req)
            t["done"] = env.now

        def sender(env):
            yield env.timeout(1000)
            req = yield from ep_a.isend(1, 10 + no_recv_copy,
                                        [MxSegment.kernel(src.vaddr, size)])
            yield from ep_a.wait(req)

        env.process(sender(env))
        run(env, receiver(env))
        data = b"".join(f.read(0, PAGE_SIZE) for f in dst_frames)[:size]
        return t["done"] - t["post"], data

    with_copy, data1 = one_way(False)
    without, data2 = one_way(True)
    assert data1 == data2 == payload
    # the removed ring copy (~15 us at 16 kB) shows up directly
    assert with_copy - without > us(10)
