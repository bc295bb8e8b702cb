"""Tests for the unified kernel channel (repro.core) over both backends."""

import pytest

from repro.cluster import node_pair
from repro.core import (
    GmKernelChannel,
    MxKernelChannel,
    TypedSegment,
    UnsupportedOperation,
)
from repro.mem.layout import sg_from_frames
from repro.sim import Environment
from repro.units import PAGE_SIZE


BACKENDS = ["mx", "gm"]


def make_channel(backend, node, port_id):
    if backend == "mx":
        return MxKernelChannel(node, port_id)
    return GmKernelChannel(node, port_id)


@pytest.fixture(params=BACKENDS)
def chans(request):
    env = Environment()
    a, b = node_pair(env)
    ca = make_channel(request.param, a, 7)
    cb = make_channel(request.param, b, 7)
    return env, a, b, ca, cb, request.param


def run(env, gen):
    return env.run(until=env.process(gen))


def test_kernel_to_kernel_roundtrip(chans):
    env, a, b, ca, cb, _ = chans
    src = a.kspace.kmalloc(PAGE_SIZE)
    dst = b.kspace.kmalloc(PAGE_SIZE)
    a.kspace.write_bytes(src.vaddr, b"channel-bytes")

    def receiver(env):
        h = yield from cb.post_recv([TypedSegment.kernel(dst.vaddr, PAGE_SIZE)],
                                    match=9)
        completion = yield from cb.wait_recv(h)
        return completion

    def sender(env):
        h = yield from ca.send(1, 7, [TypedSegment.kernel(src.vaddr, 13)],
                               match=9, meta={"op": "test"})
        yield from ca.wait_send(h)

    env.process(sender(env))
    completion = run(env, receiver(env))
    assert completion.size == 13
    assert completion.meta == {"op": "test"}
    assert b.kspace.read_bytes(dst.vaddr, 13) == b"channel-bytes"


def test_user_memory_send_and_recv(chans):
    env, a, b, ca, cb, _ = chans
    sa, sb = a.new_process_space(), b.new_process_space()
    va = sa.mmap(PAGE_SIZE)
    vb = sb.mmap(PAGE_SIZE)
    sa.write_bytes(va, b"user-channel")

    def receiver(env):
        h = yield from cb.post_recv([TypedSegment.user(sb, vb, PAGE_SIZE)])
        completion = yield from cb.wait_recv(h)
        return completion

    def sender(env):
        h = yield from ca.send(1, 7, [TypedSegment.user(sa, va, 12)])
        yield from ca.wait_send(h)

    env.process(sender(env))
    completion = run(env, receiver(env))
    assert completion.size == 12
    assert sb.read_bytes(vb, 12) == b"user-channel"


def test_physical_segments_roundtrip(chans):
    env, a, b, ca, cb, _ = chans
    src = a.kspace.kmalloc(PAGE_SIZE)
    dst_frame = b.phys.alloc()
    dst_frame.pin()
    a.kspace.write_bytes(src.vaddr, b"to-page-cache")

    def receiver(env):
        h = yield from cb.post_recv(
            [TypedSegment.physical(sg_from_frames([dst_frame], 0, PAGE_SIZE))]
        )
        completion = yield from cb.wait_recv(h)
        return completion

    def sender(env):
        h = yield from ca.send(1, 7, [TypedSegment.kernel(src.vaddr, 13)])
        yield from ca.wait_send(h)

    env.process(sender(env))
    completion = run(env, receiver(env))
    assert dst_frame.read(0, 13) == b"to-page-cache"


def test_wait_any_recv(chans):
    env, a, b, ca, cb, _ = chans
    src = a.kspace.kmalloc(PAGE_SIZE)
    d1 = b.kspace.kmalloc(PAGE_SIZE)
    d2 = b.kspace.kmalloc(PAGE_SIZE)

    def receiver(env):
        h1 = yield from cb.post_recv([TypedSegment.kernel(d1.vaddr, 64)], match=1)
        h2 = yield from cb.post_recv([TypedSegment.kernel(d2.vaddr, 64)], match=2)
        winner, completion = yield from cb.wait_any_recv([h1, h2])
        return winner is h2 and completion.match == 2

    def sender(env):
        h = yield from ca.send(1, 7, [TypedSegment.kernel(src.vaddr, 32)], match=2)
        yield from ca.wait_send(h)

    env.process(sender(env))
    assert run(env, receiver(env)) is True


def test_gm_rejects_vectorial_user_send():
    env = Environment()
    a, b = node_pair(env)
    ca = GmKernelChannel(a, 7)
    GmKernelChannel(b, 7)
    space = a.new_process_space()
    v = space.mmap(2 * PAGE_SIZE, populate=True)
    segs = [
        TypedSegment.user(space, v, 100),
        TypedSegment.user(space, v + PAGE_SIZE, 100),
    ]
    with pytest.raises(UnsupportedOperation):
        run(env, ca.send(1, 7, segs))
    assert not ca.supports_vectorial


def test_mx_accepts_vectorial_send():
    env = Environment()
    a, b = node_pair(env)
    ca = MxKernelChannel(a, 7)
    cb = MxKernelChannel(b, 7)
    k1 = a.kspace.kmalloc(PAGE_SIZE)
    k2 = a.kspace.kmalloc(PAGE_SIZE)
    dst = b.kspace.kmalloc(PAGE_SIZE)
    a.kspace.write_bytes(k1.vaddr, b"one-")
    a.kspace.write_bytes(k2.vaddr, b"two!")

    def receiver(env):
        h = yield from cb.post_recv([TypedSegment.kernel(dst.vaddr, 8)])
        yield from cb.wait_recv(h)
        return b.kspace.read_bytes(dst.vaddr, 8)

    def sender(env):
        h = yield from ca.send(
            1, 7,
            [TypedSegment.kernel(k1.vaddr, 4), TypedSegment.kernel(k2.vaddr, 4)],
        )
        yield from ca.wait_send(h)

    env.process(sender(env))
    assert run(env, receiver(env)) == b"one-two!"
    assert ca.supports_vectorial


def test_gm_channel_reuses_registration_cache(count):
    env = Environment()
    a, b = node_pair(env)
    ca = GmKernelChannel(a, 7)
    cb = GmKernelChannel(b, 7)
    space = a.new_process_space()
    va = space.mmap(PAGE_SIZE)
    dst = b.kspace.kmalloc(PAGE_SIZE)

    def receiver(env, n):
        for _ in range(n):
            h = yield from cb.post_recv([TypedSegment.kernel(dst.vaddr, PAGE_SIZE)])
            yield from cb.wait_recv(h)

    def sender(env, n):
        for _ in range(n):
            h = yield from ca.send(1, 7, [TypedSegment.user(space, va, 256)])
            yield from ca.wait_send(h)

    env.process(receiver(env, 3))
    run(env, sender(env, 3))
    assert count("gmkrc.misses") == 1
    assert count("gmkrc.hits") == 2


def test_channel_latency_gm_pays_dispatch_penalty():
    """The GM channel's per-message receive cost exceeds MX's by more
    than the raw 4.5 us API latency difference (extra dispatch hop)."""

    def round_trip_time(backend):
        env = Environment()
        a, b = node_pair(env)
        ca = make_channel(backend, a, 7)
        cb = make_channel(backend, b, 7)
        src = a.kspace.kmalloc(PAGE_SIZE)
        dst = b.kspace.kmalloc(PAGE_SIZE)
        back = a.kspace.kmalloc(PAGE_SIZE)

        def echo(env):
            h = yield from cb.post_recv([TypedSegment.kernel(dst.vaddr, 64)])
            yield from cb.wait_recv(h)
            hs = yield from cb.send(0, 7, [TypedSegment.kernel(dst.vaddr, 32)])
            yield from cb.wait_send(hs)

        def origin(env):
            hr = yield from ca.post_recv([TypedSegment.kernel(back.vaddr, 64)])
            hs = yield from ca.send(1, 7, [TypedSegment.kernel(src.vaddr, 32)])
            yield from ca.wait_recv(hr)

        env.process(echo(env))
        t0 = env.now
        run(env, origin(env))
        return env.now - t0

    gm = round_trip_time("gm")
    mx = round_trip_time("mx")
    assert gm > mx + 8000  # 2x(2us kernel penalty) + 2x dispatch wakeup
