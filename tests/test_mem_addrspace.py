"""Unit tests for user address spaces (repro.mem.addrspace)."""

import pytest

from repro.errors import BadAddress, ProtectionFault
from repro.mem import AddressSpace, PhysicalMemory, Prot
from repro.mem.addrspace import ChangeKind, USER_BASE
from repro.units import PAGE_SIZE


@pytest.fixture
def phys():
    return PhysicalMemory(256)


@pytest.fixture
def space(phys):
    return AddressSpace(phys)


def test_mmap_returns_page_aligned_user_address(space):
    addr = space.mmap(10)
    assert addr >= USER_BASE
    assert addr % PAGE_SIZE == 0


def test_mmap_regions_do_not_overlap(space):
    a = space.mmap(3 * PAGE_SIZE)
    b = space.mmap(PAGE_SIZE)
    assert b >= a + 3 * PAGE_SIZE


def test_demand_paging_populates_on_access(space):
    addr = space.mmap(4 * PAGE_SIZE)
    assert space.populated_pages == 0
    space.write_bytes(addr, b"x")
    assert space.populated_pages == 1


def test_mmap_populate_faults_all_pages(space):
    space.mmap(4 * PAGE_SIZE, populate=True)
    assert space.populated_pages == 4


def test_read_write_roundtrip(space):
    addr = space.mmap(2 * PAGE_SIZE)
    payload = bytes(range(256)) * 20
    space.write_bytes(addr + 100, payload)
    assert space.read_bytes(addr + 100, len(payload)) == payload


def test_write_crossing_page_boundary(space):
    addr = space.mmap(3 * PAGE_SIZE)
    payload = b"A" * (PAGE_SIZE + 200)
    space.write_bytes(addr + PAGE_SIZE - 100, payload)
    assert space.read_bytes(addr + PAGE_SIZE - 100, len(payload)) == payload


def test_unmapped_access_raises(space):
    with pytest.raises(BadAddress):
        space.read_bytes(USER_BASE, 1)


def test_protection_fault_on_write_to_readonly(space):
    addr = space.mmap(PAGE_SIZE, prot=Prot.READ)
    with pytest.raises(ProtectionFault):
        space.write_bytes(addr, b"x")


def test_translate_without_fault_in_raises_on_cold_page(space):
    addr = space.mmap(PAGE_SIZE)
    with pytest.raises(BadAddress):
        space.translate(addr, fault_in=False)
    space.write_bytes(addr, b"x")
    assert space.translate(addr, fault_in=False) % PAGE_SIZE == 0


def test_munmap_frees_frames(space, phys):
    addr = space.mmap(2 * PAGE_SIZE, populate=True)
    allocated = phys.allocated_frames
    space.munmap(addr, 2 * PAGE_SIZE)
    assert phys.allocated_frames == allocated - 2
    with pytest.raises(BadAddress):
        space.read_bytes(addr, 1)


def test_munmap_splits_vma(space):
    addr = space.mmap(3 * PAGE_SIZE, populate=True)
    space.munmap(addr + PAGE_SIZE, PAGE_SIZE)
    # outer pages still accessible, middle gone
    space.write_bytes(addr, b"a")
    space.write_bytes(addr + 2 * PAGE_SIZE, b"c")
    with pytest.raises(BadAddress):
        space.write_bytes(addr + PAGE_SIZE, b"b")


def test_munmap_unaligned_start_raises(space):
    space.mmap(PAGE_SIZE)
    with pytest.raises(BadAddress):
        space.munmap(USER_BASE + 1, PAGE_SIZE)


def test_munmap_notifies_listeners_before_teardown(space):
    addr = space.mmap(PAGE_SIZE, populate=True)
    observed = []

    def listener(change):
        # Translation must still work during notification.
        observed.append((change.kind, space.page_present(addr)))

    space.add_listener(listener)
    space.munmap(addr, PAGE_SIZE)
    assert observed == [(ChangeKind.UNMAP, True)]


def test_mprotect_changes_protection_and_notifies(space):
    addr = space.mmap(2 * PAGE_SIZE)
    events = []
    space.add_listener(lambda c: events.append(c.kind))
    space.mprotect(addr, PAGE_SIZE, Prot.READ)
    assert events == [ChangeKind.PROTECT]
    with pytest.raises(ProtectionFault):
        space.write_bytes(addr, b"x")
    space.write_bytes(addr + PAGE_SIZE, b"ok")  # second page untouched


def test_fork_copies_data_not_frames(space, phys):
    addr = space.mmap(PAGE_SIZE)
    space.write_bytes(addr, b"parent-data")
    child = space.fork()
    assert child.read_bytes(addr, 11) == b"parent-data"
    child.write_bytes(addr, b"child-data!")
    assert space.read_bytes(addr, 11) == b"parent-data"
    assert child.asid != space.asid


def test_fork_notifies_parent_listeners(space):
    space.mmap(PAGE_SIZE, populate=True)
    kinds = []
    space.add_listener(lambda c: kinds.append(c.kind))
    space.fork()
    assert kinds == [ChangeKind.FORK]


def test_destroy_releases_unpinned_frames(space, phys):
    space.mmap(3 * PAGE_SIZE, populate=True)
    space.destroy()
    assert phys.allocated_frames == 0
    with pytest.raises(BadAddress):
        space.mmap(PAGE_SIZE)


def test_pin_range_pins_all_pages(space):
    addr = space.mmap(3 * PAGE_SIZE)
    frames = space.pin_range(addr + 10, 2 * PAGE_SIZE)
    assert len(frames) == 3  # 2 pages + spill into third due to offset
    assert all(f.pinned for f in frames)
    AddressSpace.unpin_frames(frames)
    assert not any(f.pinned for f in frames)


def test_pin_range_is_all_or_nothing(space):
    addr = space.mmap(PAGE_SIZE)
    # Range extends past the VMA into unmapped space.
    with pytest.raises(BadAddress):
        space.pin_range(addr, 2 * PAGE_SIZE)
    frame = space.frame_of(addr)
    assert not frame.pinned


def test_munmap_keeps_pinned_frame_allocated(space, phys):
    addr = space.mmap(PAGE_SIZE)
    [frame] = space.pin_range(addr, PAGE_SIZE)
    space.munmap(addr, PAGE_SIZE)
    # The frame survives (DMA could be in flight) but is unreachable.
    assert frame.pinned
    assert phys.allocated_frames == 1
    frame.unpin()


def test_iter_pages_covers_offset_range(space):
    addr = space.mmap(4 * PAGE_SIZE)
    pages = list(space.iter_pages(addr + 100, 2 * PAGE_SIZE))
    assert pages == [addr, addr + PAGE_SIZE, addr + 2 * PAGE_SIZE]


def test_iter_pages_empty_for_zero_length(space):
    addr = space.mmap(PAGE_SIZE)
    assert list(space.iter_pages(addr, 0)) == []


def test_asids_are_unique():
    phys = PhysicalMemory(8)
    spaces = [AddressSpace(phys) for _ in range(5)]
    asids = [s.asid for s in spaces]
    assert len(set(asids)) == 5


def test_asids_are_numbered_per_host():
    # Two fresh hosts hand out the same first asid, whatever other
    # hosts built before them.
    first = AddressSpace(PhysicalMemory(8))
    AddressSpace(first.phys)
    other = AddressSpace(PhysicalMemory(8))
    assert other.asid == first.asid == 1
