"""Failure injection: prove the coherence machinery is load-bearing.

The paper's section 2.2.2 hazard, demonstrated both ways: with VMA SPY
the registration cache stays coherent; given a spy that never reports a
change, the classic munmap-and-reuse pattern silently corrupts transfers
(data goes to/comes from the *old* physical pages).
"""

import pytest

from repro.cluster import node_pair
from repro.gm.kernel import GmKernelPort
from repro.gmkrc import Gmkrc
from repro.mem.layout import sg_from_frames
from repro.sim import Environment
from repro.units import PAGE_SIZE, us


class BlindSpy:
    """A VMA SPY stand-in whose watches never fire: the cache it serves
    keeps translations that munmap/fork made stale."""

    def watch(self, space, callback):
        return None


def build(coherent: bool):
    env = Environment()
    a, b = node_pair(env)
    pa, pb = GmKernelPort(a, 2), GmKernelPort(b, 2)
    cache = Gmkrc(pa, a.vmaspy if coherent else BlindSpy())
    space = a.new_process_space()
    dst = b.kspace.kmalloc(PAGE_SIZE)
    return env, a, b, pa, pb, cache, space, dst


def remap_and_send(env, a, b, pa, pb, cache, space, dst):
    """The dangerous pattern: register, munmap, re-mmap at the same
    address with new contents, send through the cache again.  Returns
    the bytes the receiver observed for the second send."""
    received = []

    def receiver(env):
        for _ in range(2):
            yield from pb.provide_receive_buffer_physical(
                sg_from_frames(dst.frames, 0, PAGE_SIZE))
            event = yield from pb.receive_event(blocking=True)
            received.append(b.kspace.read_bytes(dst.vaddr, event.size))

    def sender(env):
        vaddr = space.mmap(PAGE_SIZE)
        space.write_bytes(vaddr, b"OLD-CONTENTS")
        key, entry = yield from cache.acquire(space, vaddr, PAGE_SIZE)
        yield from pa.send(1, 2, key, 12)
        cache.release(entry)
        yield env.timeout(us(100))

        space.munmap(vaddr, PAGE_SIZE)
        vaddr2 = space.mmap(PAGE_SIZE)
        assert vaddr2 == vaddr  # first-fit reuses the address
        space.write_bytes(vaddr2, b"NEW-CONTENTS")
        key2, entry2 = yield from cache.acquire(space, vaddr2, PAGE_SIZE)
        yield from pa.send(1, 2, key2, 12)
        cache.release(entry2)

    env.process(sender(env))
    env.run(until=env.process(receiver(env)))
    env.run()
    return received


def test_coherent_cache_survives_address_reuse(count):
    env, a, b, pa, pb, cache, space, dst = build(coherent=True)
    received = remap_and_send(env, a, b, pa, pb, cache, space, dst)
    assert received == [b"OLD-CONTENTS", b"NEW-CONTENTS"]
    assert count("gmkrc.invalidations") == 1
    assert count("gmkrc.misses") == 2  # the munmap forced a re-registration


def test_incoherent_cache_silently_sends_stale_data(count):
    """With a blind spy, the second send reads the freed frame: the
    receiver gets OLD bytes while the application wrote NEW ones —
    exactly the corruption the paper's coherence design prevents."""
    env, a, b, pa, pb, cache, space, dst = build(coherent=False)
    received = remap_and_send(env, a, b, pa, pb, cache, space, dst)
    assert received[0] == b"OLD-CONTENTS"
    assert received[1] != b"NEW-CONTENTS", "expected stale-translation corruption"
    assert count("gmkrc.invalidations") == 0
    assert count("gmkrc.hits") == 1  # the poisoned hit


def test_incoherent_cache_poisons_receives_too():
    """Stale receive translations scatter incoming data into freed
    frames: the application's new buffer never sees it."""
    env = Environment()
    a, b = node_pair(env)
    pa, pb = GmKernelPort(a, 2), GmKernelPort(b, 2)
    cache = Gmkrc(pb, BlindSpy())
    space = b.new_process_space()
    src = a.kspace.kmalloc(PAGE_SIZE)
    a.kspace.write_bytes(src.vaddr, b"PAYLOAD")

    def receiver(env):
        vaddr = space.mmap(PAGE_SIZE)
        key, entry = yield from cache.acquire(space, vaddr, PAGE_SIZE)
        cache.release(entry)
        # remap before the receive is posted: the cached translation
        # now points at a freed frame
        space.munmap(vaddr, PAGE_SIZE)
        vaddr2 = space.mmap(PAGE_SIZE)
        key2, entry2 = yield from cache.acquire(space, vaddr2, PAGE_SIZE)
        yield from pb.provide_receive_buffer(key2, PAGE_SIZE)
        event = yield from pb.receive_event(blocking=True)
        cache.release(entry2)
        return space.read_bytes(vaddr2, 7)

    def sender(env):
        yield env.timeout(us(50))
        yield from pa.send_physical(1, 2, sg_from_frames(src.frames, 0, 7))

    env.process(sender(env))
    got = env.run(until=env.process(receiver(env)))
    assert got != b"PAYLOAD", "expected the data to vanish into the stale frame"
