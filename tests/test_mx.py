"""Unit tests for the MX API (repro.mx)."""

import pytest

from repro.cluster import node_pair
from repro.errors import MXBadSegment, MXError
from repro.mem.layout import sg_from_frames
from repro.mx import MemType, MxEndpoint, MxSegment
from repro.sim import Environment
from repro.units import PAGE_SIZE, us


@pytest.fixture
def pair():
    env = Environment()
    a, b = node_pair(env)
    return env, a, b


def run(env, gen):
    return env.run(until=env.process(gen))


def make_user(node, ep_id, peer):
    space = node.new_process_space()
    ep = MxEndpoint(node, ep_id, context="user")
    return ep, space


# -- segments -----------------------------------------------------------------


def test_segment_constructors_validate():
    with pytest.raises(MXBadSegment):
        MxSegment.kernel(0xC000_0000, 0)
    with pytest.raises(MXBadSegment):
        MxSegment.physical([])


def test_user_endpoint_rejects_kernel_segments(pair):
    env, a, _ = pair
    ep = MxEndpoint(a, 1, context="user")
    seg = MxSegment.kernel(0xC000_0000, 64)
    with pytest.raises(MXBadSegment):
        run(env, ep.isend(1, 1, [seg]))


def test_kernel_endpoint_accepts_all_types(pair):
    env, a, b = pair
    ep = MxEndpoint(a, 1, context="kernel")
    MxEndpoint(b, 1, context="kernel")
    alloc = a.kspace.kmalloc(PAGE_SIZE)
    space = a.new_process_space()
    uva = space.mmap(PAGE_SIZE, populate=True)
    segs = [
        MxSegment.kernel(alloc.vaddr, 100),
        MxSegment.physical(sg_from_frames(alloc.frames, 0, 50)),
        MxSegment.user(space, uva, 30),
    ]
    req = run(env, ep.isend(1, 1, segs))
    assert req.length == 180


# -- data movement ------------------------------------------------------------------


def send_recv(env, a, b, payload, context="kernel", **flags):
    """Round-trip helper: send payload from a to b over kernel buffers."""
    ep_a = MxEndpoint(a, 1, context=context, **flags)
    ep_b = MxEndpoint(b, 1, context=context, **flags)
    size = max(len(payload), 1)
    src = a.kspace.kmalloc(size)
    dst = b.kspace.kmalloc(size)
    a.kspace.write_bytes(src.vaddr, payload)

    def receiver(env):
        req = yield from ep_b.irecv([MxSegment.kernel(dst.vaddr, size)], match=5)
        yield from ep_b.wait(req)
        return b.kspace.read_bytes(dst.vaddr, size)

    def sender(env):
        req = yield from ep_a.isend(1, 1, [MxSegment.kernel(src.vaddr, size)], match=5)
        yield from ep_a.wait(req)

    env.process(sender(env))
    return run(env, receiver(env))


def test_small_message_roundtrip(pair):
    env, a, b = pair
    payload = b"small!"
    assert send_recv(env, a, b, payload) == payload


def test_medium_message_roundtrip(pair):
    env, a, b = pair
    payload = bytes(range(256)) * 16  # 4 kB: medium class
    assert send_recv(env, a, b, payload) == payload


def test_large_message_roundtrip_rendezvous(pair):
    env, a, b = pair
    payload = bytes((i * 13) % 256 for i in range(100_000))  # > 32 kB
    assert send_recv(env, a, b, payload) == payload


def test_message_class_counters(count, pair):
    env, a, b = pair
    ep_a = MxEndpoint(a, 1, context="kernel")
    MxEndpoint(b, 1, context="kernel")
    src = a.kspace.kmalloc(128 * 1024)

    def script(env):
        for size in (64, 4096, 100_000):
            req = yield from ep_a.isend(
                1, 1, [MxSegment.kernel(src.vaddr, size)]
            )
        return None

    run(env, script(env))
    for cls in ("small", "medium", "large"):
        assert count("mx.sends", node=a.node_id, cls=cls) == 1


def test_vectorial_send_gathers_segments(pair):
    env, a, b = pair
    ep_a = MxEndpoint(a, 1, context="kernel")
    ep_b = MxEndpoint(b, 1, context="kernel")
    s1 = a.kspace.kmalloc(PAGE_SIZE)
    s2 = a.kspace.kmalloc(PAGE_SIZE)
    dst = b.kspace.kmalloc(PAGE_SIZE)
    a.kspace.write_bytes(s1.vaddr, b"AAAA")
    a.kspace.write_bytes(s2.vaddr, b"BBBB")

    def receiver(env):
        req = yield from ep_b.irecv([MxSegment.kernel(dst.vaddr, 8)])
        yield from ep_b.wait(req)
        return b.kspace.read_bytes(dst.vaddr, 8)

    def sender(env):
        req = yield from ep_a.isend(
            1, 1,
            [MxSegment.kernel(s1.vaddr, 4), MxSegment.kernel(s2.vaddr, 4)],
        )
        yield from ep_a.wait(req)

    env.process(sender(env))
    assert run(env, receiver(env)) == b"AAAABBBB"


def test_vectorial_recv_scatters_segments(pair):
    env, a, b = pair
    ep_a = MxEndpoint(a, 1, context="kernel")
    ep_b = MxEndpoint(b, 1, context="kernel")
    src = a.kspace.kmalloc(PAGE_SIZE)
    d1 = b.kspace.kmalloc(PAGE_SIZE)
    d2 = b.kspace.kmalloc(PAGE_SIZE)
    a.kspace.write_bytes(src.vaddr, b"XXYYZZ")

    def receiver(env):
        req = yield from ep_b.irecv(
            [MxSegment.kernel(d1.vaddr, 2), MxSegment.kernel(d2.vaddr, 4)]
        )
        yield from ep_b.wait(req)

    def sender(env):
        req = yield from ep_a.isend(1, 1, [MxSegment.kernel(src.vaddr, 6)])
        yield from ep_a.wait(req)

    env.process(sender(env))
    run(env, receiver(env))
    assert b.kspace.read_bytes(d1.vaddr, 2) == b"XX"
    assert b.kspace.read_bytes(d2.vaddr, 4) == b"YYZZ"


def test_user_buffer_roundtrip(pair):
    env, a, b = pair
    ep_a = MxEndpoint(a, 1, context="user")
    ep_b = MxEndpoint(b, 1, context="user")
    sa, sb = a.new_process_space(), b.new_process_space()
    va = sa.mmap(PAGE_SIZE)
    vb = sb.mmap(PAGE_SIZE)
    sa.write_bytes(va, b"user-to-user")

    def receiver(env):
        req = yield from ep_b.irecv([MxSegment.user(sb, vb, 12)])
        yield from ep_b.wait(req)
        return sb.read_bytes(vb, 12)

    def sender(env):
        req = yield from ep_a.isend(1, 1, [MxSegment.user(sa, va, 12)])
        yield from ep_a.wait(req)

    env.process(sender(env))
    assert run(env, receiver(env)) == b"user-to-user"


def test_large_send_pins_then_unpins_user_pages(pair):
    env, a, b = pair
    ep_a = MxEndpoint(a, 1, context="user")
    ep_b = MxEndpoint(b, 1, context="user")
    sa, sb = a.new_process_space(), b.new_process_space()
    size = 64 * 1024
    va = sa.mmap(size, populate=True)
    vb = sb.mmap(size, populate=True)

    def receiver(env):
        req = yield from ep_b.irecv([MxSegment.user(sb, vb, size)])
        yield from ep_b.wait(req)

    def sender(env):
        req = yield from ep_a.isend(1, 1, [MxSegment.user(sa, va, size)])
        yield from ep_a.wait(req)

    env.process(sender(env))
    run(env, receiver(env))
    assert not any(sa.frame_of(va + i * PAGE_SIZE).pinned for i in range(16))
    assert not any(sb.frame_of(vb + i * PAGE_SIZE).pinned for i in range(16))


def test_medium_buffered_send_completes_before_delivery(pair):
    """Medium sends are buffered: the request completes at copy time,
    long before the receiver sees the data."""
    env, a, b = pair
    ep_a = MxEndpoint(a, 1, context="kernel")
    ep_b = MxEndpoint(b, 1, context="kernel")
    src = a.kspace.kmalloc(32 * 1024)
    dst = b.kspace.kmalloc(32 * 1024)
    times = {}

    def sender(env):
        req = yield from ep_a.isend(1, 1, [MxSegment.kernel(src.vaddr, 32 * 1024)])
        yield from ep_a.wait(req)
        times["send_done"] = env.now

    def receiver(env):
        req = yield from ep_b.irecv([MxSegment.kernel(dst.vaddr, 32 * 1024)])
        yield from ep_b.wait(req)
        times["recv_done"] = env.now

    env.process(sender(env))
    run(env, receiver(env))
    assert times["send_done"] < times["recv_done"] - us(50)


def test_wait_any_returns_first_completion(pair):
    env, a, b = pair
    ep_a = MxEndpoint(a, 1, context="kernel")
    ep_b = MxEndpoint(b, 1, context="kernel")
    src = a.kspace.kmalloc(PAGE_SIZE)
    d1 = b.kspace.kmalloc(PAGE_SIZE)
    d2 = b.kspace.kmalloc(PAGE_SIZE)

    def receiver(env):
        r1 = yield from ep_b.irecv([MxSegment.kernel(d1.vaddr, 64)], match=1)
        r2 = yield from ep_b.irecv([MxSegment.kernel(d2.vaddr, 64)], match=2)
        first = yield from ep_b.wait_any([r1, r2])
        return first

    def sender(env):
        req = yield from ep_a.isend(1, 1, [MxSegment.kernel(src.vaddr, 64)], match=2)
        yield from ep_a.wait(req)

    env.process(sender(env))
    first = run(env, receiver(env))
    assert first.match == 2


def test_test_polls_without_blocking(pair):
    env, a, b = pair
    ep_a = MxEndpoint(a, 1, context="kernel")
    MxEndpoint(b, 1, context="kernel")
    dst = a.kspace.kmalloc(PAGE_SIZE)

    def script(env):
        req = yield from ep_a.irecv([MxSegment.kernel(dst.vaddr, 64)])
        done = yield from ep_a.test(req)
        return done

    assert run(env, script(env)) is False


def test_no_send_copy_requires_physical_resolution(count, pair):
    """User-virtual segments keep the bounce copy even with the flag on."""
    env, a, b = pair
    ep = MxEndpoint(a, 1, context="kernel", no_send_copy=True)
    MxEndpoint(b, 1, context="kernel")
    space = a.new_process_space()
    uva = space.mmap(PAGE_SIZE, populate=True)
    alloc = a.kspace.kmalloc(PAGE_SIZE)

    def script(env):
        r1 = yield from ep.isend(1, 1, [MxSegment.user(space, uva, 4096)])
        r2 = yield from ep.isend(1, 1, [MxSegment.kernel(alloc.vaddr, 4096)])

    run(env, script(env))
    # the user one copied, the kernel one did not
    assert count("mx.sends", node=a.node_id, cls="medium") == 1
    assert count("mx.sends", node=a.node_id, cls="medium_zero_copy") == 1


def test_closed_endpoint_raises(pair):
    env, a, _ = pair
    ep = MxEndpoint(a, 1, context="kernel")
    ep.close()
    alloc = a.kspace.kmalloc(PAGE_SIZE)
    with pytest.raises(MXError):
        run(env, ep.isend(1, 1, [MxSegment.kernel(alloc.vaddr, 10)]))


def test_wait_any_empty_raises(pair):
    env, a, _ = pair
    ep = MxEndpoint(a, 1, context="kernel")
    with pytest.raises(MXError):
        run(env, ep.wait_any([]))
