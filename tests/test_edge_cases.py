"""Edge-case tests across the stack: boundaries, exhaustion, contention."""

import pytest

from repro.bench.netpipe import ping_pong, prepare_pair
from repro.bench.streams import stream
from repro.bench.transports import MxTransport
from repro.cluster import node_pair, star
from repro.errors import (
    GMRegistrationError,
    GMSendQueueFull,
    TranslationTableFull,
)
from repro.gm import GmKernelPort, GmPort
from repro.gm.api import GM_SEND_QUEUE_DEPTH
from repro.gmkrc import Gmkrc
from repro.hw.params import NicParams, PCI_XD, MX_STRATEGY
from repro.mem.layout import sg_from_kernel
from repro.mx import MxEndpoint, MxSegment
from repro.sim import Environment
from repro.units import PAGE_SIZE, us


def run(env, gen):
    return env.run(until=env.process(gen))


# -- MX message-class boundaries ------------------------------------------------


@pytest.mark.parametrize("size,expected", [
    (MX_STRATEGY.small_max, "small"),
    (MX_STRATEGY.small_max + 1, "medium"),
    (MX_STRATEGY.medium_max, "medium"),
    (MX_STRATEGY.medium_max + 1, "large"),
])
def test_mx_class_boundaries_exact(size, expected, count):
    env = Environment()
    a, b = node_pair(env)
    ep = MxEndpoint(a, 1, context="kernel")
    MxEndpoint(b, 1, context="kernel")
    src = a.kspace.kmalloc(size)

    def script(env):
        req = yield from ep.isend(1, 1, [MxSegment.kernel(src.vaddr, size)])

    run(env, script(env))
    counters = {cls: count("mx.sends", node=a.node_id, cls=cls)
                for cls in ("small", "medium", "large")}
    assert counters[expected] == 1
    assert sum(counters.values()) == 1


def test_mx_boundary_messages_deliver_correctly():
    env = Environment()
    a, b = node_pair(env)
    ep_a = MxEndpoint(a, 1, context="kernel")
    ep_b = MxEndpoint(b, 1, context="kernel")
    for i, size in enumerate((128, 129, 32 * 1024, 32 * 1024 + 1)):
        src = a.kspace.kmalloc(size)
        dst = b.kspace.kmalloc(size)
        payload = bytes((j + i) % 256 for j in range(size))
        a.kspace.write_bytes(src.vaddr, payload)

        def receiver(env, dst=dst, size=size, i=i):
            req = yield from ep_b.irecv([MxSegment.kernel(dst.vaddr, size)],
                                        match=i)
            yield from ep_b.wait(req)

        def sender(env, src=src, size=size, i=i):
            req = yield from ep_a.isend(1, 1,
                                        [MxSegment.kernel(src.vaddr, size)],
                                        match=i)
            yield from ep_a.wait(req)

        env.process(sender(env))
        run(env, receiver(env))
        assert b.kspace.read_bytes(dst.vaddr, size) == payload


# -- GM limits --------------------------------------------------------------------


@pytest.mark.parametrize("memory", ["user", "gmkrc_key", "physical"])
def test_gm_send_queue_depth_enforced(memory):
    """Every way of naming GM memory shares the one send-queue bound."""
    env = Environment()
    a, b = node_pair(env)
    space = a.new_process_space()
    port = GmPort(a, 1, space) if memory == "user" else GmKernelPort(a, 1)
    size = 32 * 1024  # large enough that the wire backs the queue up
    vaddr = space.mmap(size)

    def script(env):
        if memory == "user":
            yield from port.register(vaddr, size)
            send = lambda: port.send(1, 9, vaddr, size)
        elif memory == "gmkrc_key":
            key, _ = yield from Gmkrc(port, a.vmaspy).acquire(space, vaddr, size)
            send = lambda: port.send(1, 9, key, size)
        else:
            sg = sg_from_kernel(a.kspace, a.kspace.vmalloc(size).vaddr, size)
            send = lambda: port.send_physical(1, 9, sg)
        with pytest.raises(GMSendQueueFull):
            # posting outruns wire completions well before 2x depth
            for _ in range(2 * GM_SEND_QUEUE_DEPTH):
                yield from send()

    run(env, script(env))


def test_translation_table_exhaustion_fails_registration():
    env = Environment()
    params = NicParams(link=PCI_XD, translation_table_entries=8)
    from repro.cluster import Node
    from repro.hw.params import HostParams

    node = Node(env, 0, HostParams(nic=params, memory_frames=1024))
    space = node.new_process_space()
    port = GmPort(node, 1, space)
    v1 = space.mmap(8 * PAGE_SIZE)
    v2 = space.mmap(PAGE_SIZE)

    def script(env):
        yield from port.register(v1, 8 * PAGE_SIZE)  # fills the table
        with pytest.raises(TranslationTableFull):
            yield from port.register(v2, PAGE_SIZE)

    run(env, script(env))


def test_gm_zero_length_registration_rejected():
    env = Environment()
    a, _ = node_pair(env)
    space = a.new_process_space()
    port = GmPort(a, 1, space)
    with pytest.raises(GMRegistrationError):
        run(env, port.register(space.mmap(PAGE_SIZE), 0))


# -- switch contention ----------------------------------------------------------------


def test_two_senders_to_one_target_share_the_downlink():
    """Incast: two nodes streaming to one target halve their rate."""
    env = Environment()
    nodes, switch = star(env, 3)
    t0, t1, rx = nodes
    eps = [MxTransport(n, 1, peer_node=2, peer_ep=1, context="kernel")
           for n in (t0, t1)]
    rx_a = MxTransport(rx, 1, peer_node=0, peer_ep=1, context="kernel")
    prepare_pair(env, eps[0], rx_a, 256 * 1024)
    env.run(until=env.process(eps[1].prepare(256 * 1024)))
    size, count = 256 * 1024, 8
    done = {}

    def blast(env, t, idx):
        for i in range(count):
            yield from t.send(size, match=idx)
        done[idx] = env.now

    def drain(env):
        for i in range(2 * count):
            yield from rx_a.recv(size)
        done["rx"] = env.now

    env.process(blast(env, eps[0], 0))
    env.process(blast(env, eps[1], 1))
    run(env, drain(env))
    total_bytes = 2 * count * size
    achieved = total_bytes / done["rx"] * 1e3  # MB/s
    # the shared downlink is the bottleneck: ~250 MB/s aggregate, not 500
    assert 200 < achieved < 255


# -- streaming harness ---------------------------------------------------------------


def test_stream_beats_pingpong_at_medium_sizes():
    def transports():
        env = Environment()
        a, b = node_pair(env)
        ta = MxTransport(a, 1, peer_node=1, peer_ep=1, context="kernel")
        tb = MxTransport(b, 1, peer_node=0, peer_ep=1, context="kernel")
        prepare_pair(env, ta, tb, 8192)
        return env, ta, tb

    env, ta, tb = transports()
    pp = ping_pong(env, ta, tb, 8192, rounds=8).bandwidth_mb_s
    env, ta, tb = transports()
    st = stream(env, ta, tb, 8192, messages=32).bandwidth_mb_s
    assert st > 1.3 * pp


def test_stream_validates_arguments():
    env = Environment()
    with pytest.raises(ValueError):
        stream(env, None, None, 64, messages=0)
