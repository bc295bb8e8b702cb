"""Unit tests for CPU, link and switch models (repro.hw)."""

import pytest

from repro.errors import NetworkError, ProcessInterrupt
from repro.hw import Cpu, Link, Switch
from repro.hw.params import HOST_P3_1200, HOST_P4_2600, HOST_XEON_2600, PCI_XD
from repro.sim import Environment
from repro.units import MB, us


# -- CPU ---------------------------------------------------------------------


def test_copy_time_zero_bytes_is_free():
    env = Environment()
    cpu = Cpu(env, HOST_XEON_2600)
    assert cpu.copy_time_ns(0) == 0


def test_copy_time_monotone_and_two_regime():
    env = Environment()
    cpu = Cpu(env, HOST_XEON_2600)
    small = cpu.copy_time_ns(4096)
    large = cpu.copy_time_ns(64 * 1024)
    assert small < large
    # the streaming regime is slower per byte than the cached one
    per_byte_small = (cpu.copy_time_ns(8192) - cpu.copy_time_ns(4096)) / 4096
    per_byte_large = (cpu.copy_time_ns(128 * 1024) - cpu.copy_time_ns(64 * 1024)) / (64 * 1024)
    assert per_byte_large > per_byte_small


def test_p4_copies_faster_than_p3():
    """Figure 1(b): the P4's memcpy clearly beats the P3's."""
    env = Environment()
    p3 = Cpu(env, HOST_P3_1200, name="p3")
    p4 = Cpu(env, HOST_P4_2600, name="p4")
    assert p4.copy_time_ns(256 * 1024) < p3.copy_time_ns(256 * 1024) / 2


def test_copy_charges_simulated_time_and_serializes():
    env = Environment()
    cpu = Cpu(env, HOST_XEON_2600, capacity=1)
    done = []

    def worker(env, n):
        yield from cpu.copy(n)
        done.append(env.now)

    env.process(worker(env, 64 * 1024))
    env.process(worker(env, 64 * 1024))
    env.run()
    assert done[1] == pytest.approx(2 * done[0], rel=0.01)


def test_dual_cpu_runs_two_copies_in_parallel():
    env = Environment()
    cpu = Cpu(env, HOST_XEON_2600, capacity=2)
    done = []

    def worker(env):
        yield from cpu.copy(64 * 1024)
        done.append(env.now)

    env.process(worker(env))
    env.process(worker(env))
    env.run()
    assert done[0] == done[1]


def test_negative_work_rejected():
    env = Environment()
    cpu = Cpu(env, HOST_XEON_2600)
    with pytest.raises(ValueError):
        list(cpu.work(-5))

    def proc(env):
        yield from cpu.work(-1)

    with pytest.raises(ValueError, match="negative work duration"):
        env.run(until=env.process(proc(env)))
    assert cpu.resource.in_use == 0


def test_interrupted_work_frees_the_core_at_the_interrupt():
    # One core: the holder is interrupted mid-charge; its slot is freed
    # at that instant and the queued worker is granted right then.
    env = Environment()
    cpu = Cpu(env, HOST_XEON_2600, capacity=1)
    log = []

    def holder(env):
        try:
            yield from cpu.work(100)
        except ProcessInterrupt:
            log.append(("interrupted", env.now, cpu.resource.in_use))

    def waiter(env):
        yield env.timeout(10)
        yield from cpu.work(50)
        log.append(("waiter done", env.now))

    def interrupter(env, victim):
        yield env.timeout(30)
        victim.interrupt()

    victim = env.process(holder(env))
    env.process(waiter(env))
    env.process(interrupter(env, victim))
    env.run()
    # The waiter's grant is queued at t=30, so the slot reads as taken
    # again by the time the holder's handler runs.
    assert log == [("interrupted", 30, 1), ("waiter done", 80)]
    assert cpu.resource.busy_time == 80


# -- link -----------------------------------------------------------------------


def test_link_delivers_after_serialization_plus_propagation():
    env = Environment()
    link = Link(env, PCI_XD)
    got = []
    link.attach("b", lambda item: got.append((env.now, item)))
    link.attach("a", lambda item: None)

    def send(env):
        yield from link.transmit("a", "hello", 250_000)  # 1 ms at 250 MB/s

    env.process(send(env))
    env.run()
    assert got[0][1] == "hello"
    assert got[0][0] == pytest.approx(1_000_000 + PCI_XD.propagation_ns, rel=0.01)


def test_link_directions_independent():
    env = Environment()
    link = Link(env, PCI_XD)
    arrivals = []
    link.attach("a", lambda item: arrivals.append(("at_a", env.now)))
    link.attach("b", lambda item: arrivals.append(("at_b", env.now)))
    size = 1_000_000

    def send(env, end):
        yield from link.transmit(end, "x", size)

    env.process(send(env, "a"))
    env.process(send(env, "b"))
    env.run()
    assert len(arrivals) == 2
    assert arrivals[0][1] == arrivals[1][1]  # no contention


def test_link_same_direction_serializes():
    env = Environment()
    link = Link(env, PCI_XD)
    arrivals = []
    link.attach("b", lambda item: arrivals.append(env.now))
    link.attach("a", lambda item: None)
    size = 1_000_000

    def send(env):
        yield from link.transmit("a", "x", size)

    env.process(send(env))
    env.process(send(env))
    env.run()
    gap = arrivals[1] - arrivals[0]
    assert gap == pytest.approx(size / (250 * MB) * 1e9, rel=0.01)


def test_link_double_attach_raises():
    env = Environment()
    link = Link(env, PCI_XD)
    link.attach("a", lambda item: None)
    with pytest.raises(NetworkError):
        link.attach("a", lambda item: None)


def test_transmit_without_peer_raises():
    env = Environment()
    link = Link(env, PCI_XD)
    link.attach("a", lambda item: None)
    with pytest.raises(NetworkError):
        list(link.transmit("a", "x", 10))


def test_link_utilization_accounting(count):
    env = Environment()
    link = Link(env, PCI_XD)
    link.attach("a", lambda item: None)
    link.attach("b", lambda item: None)

    def send(env):
        yield from link.transmit("a", "x", 250_000)
        yield env.timeout(1_000_000)

    env.process(send(env))
    env.run()
    assert link.utilization("ab") == pytest.approx(0.5, abs=0.05)
    assert count("link.bytes") == 250_000


# -- switch ------------------------------------------------------------------------


class _FakeMsg:
    def __init__(self, dst, size=100):
        self.dst_nic = dst
        self.size = size


def test_switch_routes_by_destination():
    env = Environment()
    switch = Switch(env, PCI_XD)
    links = {}
    got = {1: [], 2: []}
    for node_id in (1, 2):
        link, end = switch.add_node(node_id)
        link.attach(end, lambda m, nid=node_id: got[nid].append(m))
        links[node_id] = link

    def send(env):
        yield from links[1].transmit("b", _FakeMsg(dst=2), 100)

    env.process(send(env))
    env.run()
    assert len(got[2]) == 1 and not got[1]


def test_switch_rejects_duplicate_node():
    env = Environment()
    switch = Switch(env, PCI_XD)
    switch.add_node(1)
    with pytest.raises(NetworkError):
        switch.add_node(1)


def test_switch_unroutable_destination_raises():
    env = Environment()
    switch = Switch(env, PCI_XD)
    link, end = switch.add_node(1)
    link.attach(end, lambda m: None)

    def send(env):
        yield from link.transmit("b", _FakeMsg(dst=9), 100)

    env.process(send(env))
    with pytest.raises(NetworkError):
        env.run()
