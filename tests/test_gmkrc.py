"""Unit tests for GMKRC: pin-down cache + VMA SPY coherence + encoding."""

import pytest

from repro.cluster import node_pair
from repro.errors import GMError
from repro.gm import GmKernelPort
from repro.gmkrc import Gmkrc, decode_key, encode_key
from repro.sim import Environment
from repro.units import PAGE_SIZE, us


@pytest.fixture
def setup(count):
    env = Environment()
    node, _ = node_pair(env)
    port = GmKernelPort(node, 2)
    cache = Gmkrc(port, node.vmaspy, max_cached_pages=16)
    return env, node, port, cache


def run(env, gen):
    return env.run(until=env.process(gen))


# -- encoding -----------------------------------------------------------------


def test_encode_decode_roundtrip():
    key = encode_key(42, 0x1234_5000)
    assert decode_key(key) == (42, 0x1234_5000)


def test_encoded_keys_disambiguate_identical_vaddrs():
    assert encode_key(1, 0x1000_0000) != encode_key(2, 0x1000_0000)


def test_encode_rejects_out_of_range():
    with pytest.raises(GMError):
        encode_key(0, 0x1000)
    with pytest.raises(GMError):
        encode_key(1, 1 << 33)


# -- cache behaviour ---------------------------------------------------------------


def test_miss_then_hit(setup, count):
    env, node, port, cache = setup
    space = node.new_process_space()
    vaddr = space.mmap(2 * PAGE_SIZE)
    key1, e1 = run(env, cache.acquire(space, vaddr, 2 * PAGE_SIZE))
    cache.release(e1)
    key2, e2 = run(env, cache.acquire(space, vaddr, 2 * PAGE_SIZE))
    cache.release(e2)
    assert e1 is e2
    assert key1 == key2 == encode_key(space.asid, vaddr)
    assert count("gmkrc.hits") == 1 and count("gmkrc.misses") == 1


def test_hit_is_much_cheaper_than_miss(setup):
    env, node, port, cache = setup
    space = node.new_process_space()
    vaddr = space.mmap(4 * PAGE_SIZE)
    t0 = env.now
    _, e = run(env, cache.acquire(space, vaddr, 4 * PAGE_SIZE))
    miss_cost = env.now - t0
    cache.release(e)
    t1 = env.now
    _, e = run(env, cache.acquire(space, vaddr, 4 * PAGE_SIZE))
    hit_cost = env.now - t1
    cache.release(e)
    assert miss_cost > us(10)
    assert hit_cost < us(1)


def test_subrange_hits_containing_entry(setup):
    env, node, port, cache = setup
    space = node.new_process_space()
    vaddr = space.mmap(4 * PAGE_SIZE)
    _, e = run(env, cache.acquire(space, vaddr, 4 * PAGE_SIZE))
    cache.release(e)
    key, e2 = run(env, cache.acquire(space, vaddr + PAGE_SIZE, PAGE_SIZE))
    assert e2 is e
    assert decode_key(key) == (space.asid, vaddr + PAGE_SIZE)


def test_two_spaces_same_vaddr_distinct_entries(setup, count):
    env, node, port, cache = setup
    s1 = node.new_process_space()
    s2 = node.new_process_space()
    v1 = s1.mmap(PAGE_SIZE)
    v2 = s2.mmap(PAGE_SIZE)
    assert v1 == v2  # the collision GMKRC exists to solve
    _, e1 = run(env, cache.acquire(s1, v1, PAGE_SIZE))
    _, e2 = run(env, cache.acquire(s2, v2, PAGE_SIZE))
    assert e1 is not e2
    assert count("gmkrc.misses") == 2
    # Both map to different physical frames through the shared port.
    assert e1.region.frames[0].pfn != e2.region.frames[0].pfn


def test_munmap_invalidates_overlapping_entry(setup, count):
    env, node, port, cache = setup
    space = node.new_process_space()
    vaddr = space.mmap(2 * PAGE_SIZE)
    _, e = run(env, cache.acquire(space, vaddr, 2 * PAGE_SIZE))
    cache.release(e)
    space.munmap(vaddr, PAGE_SIZE)
    assert not e.valid
    assert count("gmkrc.invalidations") == 1
    # Re-acquire must re-register (a fresh miss), not return stale state.
    _, e2 = run(env, cache.acquire(space, vaddr + PAGE_SIZE, PAGE_SIZE))
    assert e2 is not e
    assert count("gmkrc.misses") == 2


def test_fork_flushes_all_entries_of_space(setup):
    env, node, port, cache = setup
    space = node.new_process_space()
    v1 = space.mmap(PAGE_SIZE)
    v2 = space.mmap(PAGE_SIZE)
    _, e1 = run(env, cache.acquire(space, v1, PAGE_SIZE))
    _, e2 = run(env, cache.acquire(space, v2, PAGE_SIZE))
    cache.release(e1)
    cache.release(e2)
    space.fork()
    assert not e1.valid and not e2.valid
    assert cache.entry_count() == 0


def test_lru_eviction_pays_deregistration(setup, count):
    env, node, port, cache = setup  # budget: 16 pages
    space = node.new_process_space()
    v1 = space.mmap(8 * PAGE_SIZE)
    v2 = space.mmap(8 * PAGE_SIZE)
    v3 = space.mmap(8 * PAGE_SIZE)
    _, e1 = run(env, cache.acquire(space, v1, 8 * PAGE_SIZE))
    cache.release(e1)
    _, e2 = run(env, cache.acquire(space, v2, 8 * PAGE_SIZE))
    cache.release(e2)
    t0 = env.now
    _, e3 = run(env, cache.acquire(space, v3, 8 * PAGE_SIZE))
    evict_cost = env.now - t0
    assert not e1.valid  # LRU victim
    assert e2.valid
    assert count("gmkrc.lazy_deregistrations") == 1
    assert evict_cost >= us(200)  # the deferred deregistration bill


def test_eviction_refuses_inuse_entries(setup):
    env, node, port, cache = setup
    space = node.new_process_space()
    v1 = space.mmap(8 * PAGE_SIZE)
    v2 = space.mmap(16 * PAGE_SIZE)
    _, e1 = run(env, cache.acquire(space, v1, 8 * PAGE_SIZE))
    # e1 still referenced; 16 more pages cannot fit the 16-page budget
    with pytest.raises(GMError, match="in use"):
        run(env, cache.acquire(space, v2, 16 * PAGE_SIZE))


def test_unbalanced_release_raises(setup):
    env, node, port, cache = setup
    space = node.new_process_space()
    vaddr = space.mmap(PAGE_SIZE)
    _, e = run(env, cache.acquire(space, vaddr, PAGE_SIZE))
    cache.release(e)
    with pytest.raises(GMError):
        cache.release(e)


def test_disabled_cache_pays_registration_every_time(setup, count):
    env, node, port, _ = setup
    cache = Gmkrc(port, node.vmaspy, max_cached_pages=64, enabled=False)
    space = node.new_process_space()
    vaddr = space.mmap(4 * PAGE_SIZE)
    t0 = env.now
    _, e1 = run(env, cache.acquire(space, vaddr, 4 * PAGE_SIZE))
    first = env.now - t0
    cache.release(e1)
    t1 = env.now
    _, e2 = run(env, cache.acquire(space, vaddr, 4 * PAGE_SIZE))
    second = env.now - t1
    cache.release(e2)
    assert count("gmkrc.hits") == 0 and count("gmkrc.misses") == 2
    assert second > us(10)  # re-registration cost recurs
    assert second == pytest.approx(first, rel=0.2)


def test_end_to_end_send_through_cached_registration():
    """Data sent via a GMKRC key arrives intact at a remote node."""
    from repro.cluster import node_pair

    env = Environment()
    a, b = node_pair(env)
    port_a, port_b = GmKernelPort(a, 2), GmKernelPort(b, 2)
    cache_a = Gmkrc(port_a, a.vmaspy)
    space = a.new_process_space()
    vaddr = space.mmap(PAGE_SIZE)
    space.write_bytes(vaddr, b"via-gmkrc-key")
    dst = b.kspace.kmalloc(PAGE_SIZE)

    def receiver(env):
        from repro.mem.layout import sg_from_frames

        yield from port_b.provide_receive_buffer_physical(
            sg_from_frames(dst.frames, 0, PAGE_SIZE)
        )
        event = yield from port_b.receive_event()
        return event

    def sender(env):
        key, entry = yield from cache_a.acquire(space, vaddr, PAGE_SIZE)
        yield from port_a.send(1, 2, key, 13)
        cache_a.release(entry)

    env.process(sender(env))
    event = env.run(until=env.process(receiver(env)))
    assert event.size == 13
    assert b.kspace.read_bytes(dst.vaddr, 13) == b"via-gmkrc-key"


def test_invalidating_one_of_two_overlapping_entries_keeps_the_other(count):
    """Entries [p0,p1] and [p1,p2] share p1; unmapping p0 invalidates
    only the first, and a send through the second still translates p1."""
    from repro.cluster import node_pair
    from repro.mem.layout import sg_from_frames

    env = Environment()
    a, b = node_pair(env)
    port_a, port_b = GmKernelPort(a, 2), GmKernelPort(b, 2)
    cache_a = Gmkrc(port_a, a.vmaspy)
    space = a.new_process_space()
    vaddr = space.mmap(3 * PAGE_SIZE)
    payload = (bytes(range(1, 256)) * 33)[:2 * PAGE_SIZE]
    space.write_bytes(vaddr + PAGE_SIZE, payload)
    dst = b.kspace.kmalloc(2 * PAGE_SIZE)

    def receiver(env):
        yield from port_b.provide_receive_buffer_physical(
            sg_from_frames(dst.frames, 0, 2 * PAGE_SIZE)
        )
        return (yield from port_b.receive_event())

    def sender(env):
        _, first = yield from cache_a.acquire(space, vaddr, 2 * PAGE_SIZE)
        cache_a.release(first)
        key, second = yield from cache_a.acquire(
            space, vaddr + PAGE_SIZE, 2 * PAGE_SIZE
        )
        space.munmap(vaddr, PAGE_SIZE)
        assert count("gmkrc.invalidations") == 1 and cache_a.entry_count() == 1
        yield from port_a.send(1, 2, key, 2 * PAGE_SIZE)
        cache_a.release(second)

    env.process(sender(env))
    event = env.run(until=env.process(receiver(env)))
    assert event.size == 2 * PAGE_SIZE
    assert b.kspace.read_bytes(dst.vaddr, 2 * PAGE_SIZE) == payload


# -- install order decides lookups and eviction ties -------------------------


def test_lookup_hits_the_first_installed_covering_entry(setup, count):
    """Two entries cover a later acquire: it hits the first installed;
    once an munmap invalidates only that one, it hits the second."""
    env, node, port, cache = setup
    space = node.new_process_space()
    vaddr = space.mmap(3 * PAGE_SIZE)
    _, first = run(env, cache.acquire(space, vaddr, 2 * PAGE_SIZE))
    cache.release(first)
    _, second = run(env, cache.acquire(space, vaddr + PAGE_SIZE,
                                       2 * PAGE_SIZE))
    cache.release(second)
    _, hit = run(env, cache.acquire(space, vaddr + PAGE_SIZE, PAGE_SIZE))
    cache.release(hit)
    assert hit is first
    space.munmap(vaddr, PAGE_SIZE)
    assert not first.valid and second.valid
    _, hit = run(env, cache.acquire(space, vaddr + PAGE_SIZE, PAGE_SIZE))
    cache.release(hit)
    assert hit is second
    assert count("gmkrc.hits") == 2 and count("gmkrc.misses") == 2


def test_eviction_tie_goes_to_the_earliest_installed(setup, count):
    """Two unreferenced entries last used at the same instant: the page
    budget evicts the one installed first."""
    env, node, port, cache = setup  # budget: 16 pages
    space = node.new_process_space()
    v1 = space.mmap(8 * PAGE_SIZE)
    v2 = space.mmap(8 * PAGE_SIZE)
    v3 = space.mmap(8 * PAGE_SIZE)
    _, e1 = run(env, cache.acquire(space, v1, 8 * PAGE_SIZE))
    _, e2 = run(env, cache.acquire(space, v2, 8 * PAGE_SIZE))
    cache.release(e2)
    cache.release(e1)
    assert e1.last_use == e2.last_use
    _, e3 = run(env, cache.acquire(space, v3, 8 * PAGE_SIZE))
    assert not e1.valid and e2.valid and e3.valid
    assert count("gmkrc.lazy_deregistrations") == 1
