"""Unit tests for VMA SPY (repro.kernel.vmaspy)."""

import pytest

from repro.errors import KernelError
from repro.kernel import VmaSpy
from repro.mem import AddressSpace, PhysicalMemory
from repro.mem.addrspace import ChangeKind
from repro.units import PAGE_SIZE


@pytest.fixture
def phys():
    return PhysicalMemory(64)


def test_watch_delivers_unmap(phys):
    space = AddressSpace(phys)
    spy = VmaSpy()
    events = []
    spy.watch(space, lambda c: events.append((c.kind, c.start, c.length)))
    addr = space.mmap(2 * PAGE_SIZE, populate=True)
    space.munmap(addr, PAGE_SIZE)
    assert events == [(ChangeKind.UNMAP, addr, PAGE_SIZE)]


def test_kind_filter_limits_delivery(phys):
    space = AddressSpace(phys)
    spy = VmaSpy()
    events = []
    spy.watch(space, lambda c: events.append(c.kind), kinds={ChangeKind.FORK})
    addr = space.mmap(PAGE_SIZE, populate=True)
    space.munmap(addr, PAGE_SIZE)
    space.fork()
    assert events == [ChangeKind.FORK]


def test_multiple_watchers_all_notified(phys):
    space = AddressSpace(phys)
    spy = VmaSpy()
    hits = {"a": 0, "b": 0}
    spy.watch(space, lambda c: hits.__setitem__("a", hits["a"] + 1))
    spy.watch(space, lambda c: hits.__setitem__("b", hits["b"] + 1))
    addr = space.mmap(PAGE_SIZE)
    space.munmap(addr, PAGE_SIZE)
    assert hits == {"a": 1, "b": 1}


def test_unwatch_stops_delivery(phys):
    space = AddressSpace(phys)
    spy = VmaSpy()
    events = []
    handle = spy.watch(space, lambda c: events.append(c.kind))
    addr = space.mmap(2 * PAGE_SIZE)
    space.munmap(addr, PAGE_SIZE)
    spy.unwatch(handle)
    space.munmap(addr + PAGE_SIZE, PAGE_SIZE)
    assert len(events) == 1
    assert spy.watch_count() == 0


def test_unwatch_twice_raises(phys):
    space = AddressSpace(phys)
    spy = VmaSpy()
    handle = spy.watch(space, lambda c: None)
    spy.unwatch(handle)
    with pytest.raises(KernelError):
        spy.unwatch(handle)


def test_watches_are_per_space(phys):
    s1, s2 = AddressSpace(phys), AddressSpace(phys)
    spy = VmaSpy()
    events = []
    spy.watch(s1, lambda c: events.append(c.space.asid))
    a1 = s1.mmap(PAGE_SIZE)
    a2 = s2.mmap(PAGE_SIZE)
    s1.munmap(a1, PAGE_SIZE)
    s2.munmap(a2, PAGE_SIZE)
    assert events == [s1.asid]
    assert spy.watch_count(s1) == 1
    assert spy.watch_count(s2) == 0


def test_watcher_can_unwatch_itself_during_delivery(phys):
    space = AddressSpace(phys)
    spy = VmaSpy()
    events = []
    handle_box = {}

    def once(change):
        events.append(change.kind)
        spy.unwatch(handle_box["h"])

    handle_box["h"] = spy.watch(space, once)
    addr = space.mmap(2 * PAGE_SIZE)
    space.munmap(addr, PAGE_SIZE)
    space.munmap(addr + PAGE_SIZE, PAGE_SIZE)
    assert events == [ChangeKind.UNMAP]


def test_notification_counter(phys, count):
    space = AddressSpace(phys)
    spy = VmaSpy()
    spy.watch(space, lambda c: None)
    addr = space.mmap(PAGE_SIZE)
    space.munmap(addr, PAGE_SIZE)
    space.fork()
    assert count("vmaspy.notifications", spy=spy.name) == 2
