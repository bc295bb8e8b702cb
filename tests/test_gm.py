"""Unit tests for the GM API layers (repro.gm)."""

import pytest

from repro import obs
from repro.cluster import node_pair
from repro.errors import GMError, GMRegistrationError, TranslationMiss
from repro.gm import GmEventKind, GmKernelPort, GmPort
from repro.gm.registration import RegistrationDomain
from repro.hw.params import GM_REGISTRATION
from repro.mem import phys as phys_module
from repro.mem.layout import sg_from_frames
from repro.sim import Environment
from repro.units import PAGE_SHIFT, PAGE_SIZE, us


@pytest.fixture
def pair():
    env = Environment()
    a, b = node_pair(env)
    return env, a, b


def run(env, gen):
    return env.run(until=env.process(gen))


def test_registration_installs_translations(pair):
    env, node, _ = pair
    space = node.new_process_space()
    port = GmPort(node, 1, space)
    vaddr = space.mmap(3 * PAGE_SIZE)
    region = run(env, port.register(vaddr, 3 * PAGE_SIZE))
    assert region.npages == 3
    table = node.nic.transtable
    assert all(table.get(port.context, (vaddr >> 12) + i) is not None
               for i in range(3))
    assert all(f.pinned for f in region.frames)


def test_registration_cost_is_linear_in_pages(pair):
    env, node, _ = pair
    space = node.new_process_space()
    port = GmPort(node, 1, space)
    v1 = space.mmap(PAGE_SIZE, populate=True)
    v2 = space.mmap(16 * PAGE_SIZE, populate=True)
    t0 = env.now
    run(env, port.register(v1, PAGE_SIZE))
    one_page = env.now - t0
    t1 = env.now
    run(env, port.register(v2, 16 * PAGE_SIZE))
    sixteen_pages = env.now - t1
    # 3 us/page slope (plus pinning), ~200 us base only on deregistration
    slope = (sixteen_pages - one_page) / 15
    assert us(2.5) < slope < us(4)


def test_deregistration_has_200us_base(pair):
    env, node, _ = pair
    space = node.new_process_space()
    port = GmPort(node, 1, space)
    vaddr = space.mmap(PAGE_SIZE)
    region = run(env, port.register(vaddr, PAGE_SIZE))
    t0 = env.now
    run(env, port.deregister(region))
    assert env.now - t0 >= us(200)
    assert node.nic.transtable.get(port.context, vaddr >> 12) is None
    assert not region.frames[0].pinned


def test_double_registration_of_same_range_raises(pair):
    env, node, _ = pair
    space = node.new_process_space()
    port = GmPort(node, 1, space)
    vaddr = space.mmap(PAGE_SIZE)
    run(env, port.register(vaddr, PAGE_SIZE))
    with pytest.raises(GMRegistrationError):
        run(env, port.register(vaddr, PAGE_SIZE))


def test_send_from_unregistered_memory_raises(pair):
    env, node, _ = pair
    space = node.new_process_space()
    port = GmPort(node, 1, space)
    vaddr = space.mmap(PAGE_SIZE)
    with pytest.raises(GMError, match="unregistered"):
        run(env, port.send(1, 1, vaddr, 100))


def test_end_to_end_data_transfer(pair):
    env, a, b = pair
    sa, sb = a.new_process_space(), b.new_process_space()
    pa, pb = GmPort(a, 1, sa), GmPort(b, 1, sb)
    va = sa.mmap(PAGE_SIZE)
    vb = sb.mmap(PAGE_SIZE)
    sa.write_bytes(va, b"gm-data-transfer")

    def sender(env):
        yield from pa.register(va, PAGE_SIZE)
        yield from pa.send(1, 1, va, 16)

    def receiver(env):
        yield from pb.register(vb, PAGE_SIZE)
        yield from pb.provide_receive_buffer(vb, PAGE_SIZE)
        event = yield from pb.receive_event()
        return event

    env.process(sender(env))
    event = run(env, receiver(env))
    assert event.kind is GmEventKind.RECV
    assert event.size == 16
    assert sb.read_bytes(vb, 16) == b"gm-data-transfer"


def test_send_completion_appears_in_event_queue(pair):
    env, a, b = pair
    sa, sb = a.new_process_space(), b.new_process_space()
    pa, pb = GmPort(a, 1, sa), GmPort(b, 1, sb)
    va = sa.mmap(PAGE_SIZE)
    vb = sb.mmap(PAGE_SIZE)

    def receiver(env):
        yield from pb.register(vb, PAGE_SIZE)
        yield from pb.provide_receive_buffer(vb, PAGE_SIZE)

    def sender(env):
        yield from pa.register(va, PAGE_SIZE)
        yield from pa.send(1, 1, va, 8, tag="my-send")
        event = yield from pa.receive_event()
        return event

    env.process(receiver(env))
    event = run(env, sender(env))
    assert event.kind is GmEventKind.SENT
    assert event.tag == "my-send"


def test_kernel_port_rejects_user_registration(pair):
    env, node, _ = pair
    port = GmKernelPort(node, 2)
    with pytest.raises(GMError):
        port.register(0x1000_0000, PAGE_SIZE)


def test_kernel_register_kernel_memory(pair):
    env, node, _ = pair
    port = GmKernelPort(node, 2)
    alloc = node.kspace.vmalloc(2 * PAGE_SIZE)
    region = run(env, port.register_kernel(alloc.vaddr, 2 * PAGE_SIZE))
    assert region.npages == 2
    assert node.nic.transtable.get(port.context, alloc.vaddr >> 12) is not None


def test_physical_send_and_receive_roundtrip(count, pair):
    env, a, b = pair
    pa, pb = GmKernelPort(a, 2), GmKernelPort(b, 2)
    src = a.kspace.kmalloc(PAGE_SIZE)
    dst = b.kspace.kmalloc(PAGE_SIZE)
    a.kspace.write_bytes(src.vaddr, b"physical-path")

    def receiver(env):
        yield from pb.provide_receive_buffer_physical(
            sg_from_frames(dst.frames, 0, PAGE_SIZE)
        )
        event = yield from pb.receive_event()
        return event

    def sender(env):
        yield from pa.send_physical(1, 2, sg_from_frames(src.frames, 0, 13))

    env.process(sender(env))
    event = run(env, receiver(env))
    assert event.size == 13
    assert b.kspace.read_bytes(dst.vaddr, 13) == b"physical-path"
    # Physical primitives never touch the translation table.
    assert count("nic.transtable.lookups", node=a.node_id) == 0


def test_physical_primitives_count_as_gm_sends_and_posts():
    """The physical primitives share the port's one send and one post
    path, so page-cache traffic shows up in ``gm.sends``/``gm.recv_posts``."""
    with obs.scoped_registry() as registry:
        env = Environment()
        a, b = node_pair(env)
        pa, pb = GmKernelPort(a, 2), GmKernelPort(b, 2)
        src, dst = a.kspace.kmalloc(PAGE_SIZE), b.kspace.kmalloc(PAGE_SIZE)

        def script(env):
            yield from pb.provide_receive_buffer_physical(
                sg_from_frames(dst.frames, 0, PAGE_SIZE))
            yield from pa.send_physical(1, 2, sg_from_frames(src.frames, 0, 64))

        run(env, script(env))
        counters = registry.snapshot()["counters"]
    assert counters["gm.sends{node=0,port=2}"] == 1
    assert counters["gm.recv_posts{node=1,port=2}"] == 1


def test_sends_resolve_registered_pages_through_the_nic_table(count, pair):
    """The NIC table is the only copy of GM's translations: a user send
    of n registered pages looks up each page once (and so does the
    receive it lands in), while a physical send looks up nothing."""
    env, a, b = pair
    sa, sb = a.new_process_space(), b.new_process_space()
    pa, pb = GmPort(a, 1, sa), GmPort(b, 1, sb)
    n = 3
    va, vb = sa.mmap(n * PAGE_SIZE), sb.mmap(n * PAGE_SIZE)
    payload = bytes(range(256)) * (n * PAGE_SIZE // 256)
    sa.write_bytes(va, payload)

    def receiver(env):
        yield from pb.register(vb, n * PAGE_SIZE)
        yield from pb.provide_receive_buffer(vb, n * PAGE_SIZE)
        return (yield from pb.receive_event())

    def sender(env):
        yield from pa.register(va, n * PAGE_SIZE)
        yield env.timeout(us(100))  # the receive is posted by now
        yield from pa.send(1, 1, va, n * PAGE_SIZE)

    env.process(sender(env))
    event = run(env, receiver(env))
    assert event.size == n * PAGE_SIZE
    assert sb.read_bytes(vb, n * PAGE_SIZE) == payload
    assert count("nic.transtable.lookups", node=a.node_id) == n
    assert count("nic.transtable.lookups", node=b.node_id) == n

    ka, kb = GmKernelPort(a, 2), GmKernelPort(b, 2)
    src, dst = a.kspace.kmalloc(PAGE_SIZE), b.kspace.kmalloc(PAGE_SIZE)

    def physical(env):
        yield from kb.provide_receive_buffer_physical(
            sg_from_frames(dst.frames, 0, PAGE_SIZE))
        yield from ka.send_physical(1, 2, sg_from_frames(src.frames, 0, 64))
        return (yield from kb.receive_event())

    assert run(env, physical(env)).size == 64
    assert count("nic.transtable.lookups", node=a.node_id) == n
    assert count("nic.transtable.lookups", node=b.node_id) == n


def test_register_kernel_of_untouched_kmalloc_builds_no_frame(pair,
                                                              monkeypatch):
    env, node, _ = pair
    port = GmKernelPort(node, 2)
    alloc = node.kspace.kmalloc(4 * PAGE_SIZE)

    def no_frame(*args, **kwargs):
        raise AssertionError("a Frame was built")

    monkeypatch.setattr(phys_module, "Frame", no_frame)
    region = run(env, port.register_kernel(alloc.vaddr, 4 * PAGE_SIZE))
    assert region.npages == 4 and region.frames == []
    base_vpn = alloc.vaddr >> PAGE_SHIFT
    assert [node.nic.transtable.get(port.context, base_vpn + i)
            for i in range(4)] == list(alloc.pfns)


def test_overlapping_registration_keeps_shared_page_translated(pair):
    """Two regions share a page; deregistering the first must leave the
    shared page's translation for the second, which still sends the
    right bytes."""
    env, a, b = pair
    sa, sb = a.new_process_space(), b.new_process_space()
    pa, pb = GmPort(a, 1, sa), GmPort(b, 1, sb)
    va, vb = sa.mmap(3 * PAGE_SIZE), sb.mmap(2 * PAGE_SIZE)
    payload = (bytes(range(1, 252)) * 33)[:2 * PAGE_SIZE]
    sa.write_bytes(va + PAGE_SIZE, payload)

    def receiver(env):
        yield from pb.register(vb, 2 * PAGE_SIZE)
        yield from pb.provide_receive_buffer(vb, 2 * PAGE_SIZE)
        return (yield from pb.receive_event())

    def sender(env):
        first = yield from pa.register(va, 2 * PAGE_SIZE)
        second = yield from pa.register(va + PAGE_SIZE, 2 * PAGE_SIZE)
        assert len(a.nic.transtable) == 3
        yield from pa.deregister(first)
        assert len(a.nic.transtable) == 2
        yield from pa.send(1, 1, va + PAGE_SIZE, 2 * PAGE_SIZE)
        yield from pa.receive_event()  # the SENT event
        yield from pa.deregister(second)

    env.process(sender(env))
    event = run(env, receiver(env))
    env.run()
    assert event.size == 2 * PAGE_SIZE
    assert sb.read_bytes(vb, 2 * PAGE_SIZE) == payload
    assert len(a.nic.transtable) == 0


def test_table_entry_is_held_until_its_last_holder_goes(count):
    from repro.nicfw.transtable import TranslationTable

    table = TranslationTable(4, node=0)
    table.install_range(3, 10, [100, 101])
    table.install_range(3, 11, [201, 202])  # vpn 11 is shared
    assert len(table) == 3 and count("nic.transtable.installs") == 3
    assert table.get(3, 11) == 201  # the latest install translates
    table.remove(3, 11, 201)
    assert table.get(3, 11) == 101  # back to the earlier live holder
    table.install_range(3, 11, [201])
    table.remove(3, 11, 101)  # an earlier holder leaves: no change
    assert table.get(3, 11) == 201
    with pytest.raises(TranslationMiss):
        table.remove(3, 11, 101)
    table.remove(3, 11, 201)
    assert table.get(3, 11) is None and len(table) == 2


def test_physical_send_empty_sg_raises(pair):
    env, node, _ = pair
    port = GmKernelPort(node, 2)
    with pytest.raises(GMError):
        run(env, port.send_physical(1, 2, []))


def test_port_close_drops_registrations_without_dereg_cost(pair):
    env, node, _ = pair
    space = node.new_process_space()
    port = GmPort(node, 1, space)
    vaddr = space.mmap(4 * PAGE_SIZE)
    run(env, port.register(vaddr, 4 * PAGE_SIZE))
    assert len(node.nic.transtable) == 4
    t0 = env.now
    port.close()
    assert env.now == t0  # synchronous, free
    assert len(node.nic.transtable) == 0
    with pytest.raises(GMError):
        run(env, port.send(1, 1, vaddr, 10))


def test_closed_port_rejects_operations(pair):
    env, node, _ = pair
    space = node.new_process_space()
    port = GmPort(node, 1, space)
    port.close()
    with pytest.raises(GMError):
        run(env, port.receive_event())


def test_install_range_is_all_or_nothing(count):
    from repro.errors import TranslationTableFull
    from repro.nicfw.transtable import TranslationTable

    table = TranslationTable(4, node=0)
    table.install_range(7, 100, [1])
    # 2 fresh + 1 re-install fits exactly: 100 updates, 101/102 are new.
    table.install_range(7, 100, [11, 12, 13])
    assert len(table) == 3 and table.get(7, 100) == 11
    # 2 fresh entries would overflow by one: nothing may be installed.
    with pytest.raises(TranslationTableFull):
        table.install_range(7, 102, [20, 21, 22])
    assert len(table) == 3
    assert table.get(7, 102) == 13  # pre-existing pfn untouched
    assert table.get(7, 103) is None and table.get(7, 104) is None
    assert count("nic.transtable.installs") == 3


def test_table_get_probes_without_charging_lookups(count):
    from repro.nicfw.transtable import TranslationTable

    table = TranslationTable(4, node=0)
    table.install_range(1, 5, [42])
    assert table.get(1, 5) == 42
    assert table.get(1, 6) is None
    assert count("nic.transtable.lookups") == 0  # get() is host-side bookkeeping
    assert table.lookup(1, 5) == 42
    assert count("nic.transtable.lookups") == 1
