"""Unit tests for kernel memory and scatter/gather building."""

import pytest

from repro.errors import BadAddress
from repro.mem import (
    AddressSpace,
    KernelSpace,
    PhysicalMemory,
    sg_from_frames,
    sg_from_kernel,
    sg_from_user,
)
from repro.mem.kmem import KERNEL_BASE
from repro.mem import phys as phys_module
from repro.mem.phys import _UNTOUCHED
from repro.units import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE


@pytest.fixture
def phys():
    return PhysicalMemory(256)


@pytest.fixture
def kspace(phys):
    return KernelSpace(phys)


# -- kernel memory -----------------------------------------------------------


def test_kmalloc_is_physically_contiguous(kspace):
    alloc = kspace.kmalloc(3 * PAGE_SIZE)
    pfns = [f.pfn for f in alloc.frames]
    assert pfns == list(range(pfns[0], pfns[0] + 3))
    assert alloc.contiguous


def test_vmalloc_can_be_scattered(kspace, phys):
    # Fragment physical memory so vmalloc must scatter.
    a = phys.alloc()
    b = phys.alloc()
    phys.free(a)  # hole at pfn 0
    alloc = kspace.vmalloc(2 * PAGE_SIZE)
    assert len(alloc.frames) == 2
    assert not alloc.contiguous


def test_kernel_addresses_above_kernel_base(kspace):
    alloc = kspace.kmalloc(PAGE_SIZE)
    assert alloc.vaddr >= KERNEL_BASE
    assert KernelSpace.is_kernel_address(alloc.vaddr)
    assert not KernelSpace.is_kernel_address(0x2000_0000)


def test_kernel_memory_is_born_pinned(kspace):
    alloc = kspace.kmalloc(2 * PAGE_SIZE)
    assert all(f.pinned for f in alloc.frames)


def test_kfree_releases_frames(kspace, phys):
    alloc = kspace.vmalloc(2 * PAGE_SIZE)
    kspace.kfree(alloc)
    assert phys.allocated_frames == 0
    with pytest.raises(BadAddress):
        kspace.translate(alloc.vaddr)


def test_kfree_unknown_allocation_raises(kspace):
    alloc = kspace.kmalloc(PAGE_SIZE)
    kspace.kfree(alloc)
    with pytest.raises(BadAddress):
        kspace.kfree(alloc)


def test_kernel_read_write_roundtrip(kspace):
    alloc = kspace.vmalloc(2 * PAGE_SIZE)
    payload = bytes(range(256)) * 17
    kspace.write_bytes(alloc.vaddr + 50, payload)
    assert kspace.read_bytes(alloc.vaddr + 50, len(payload)) == payload


def test_kernel_translate_offset(kspace):
    alloc = kspace.kmalloc(2 * PAGE_SIZE)
    base_phys = alloc.frames[0].phys_addr
    assert kspace.translate(alloc.vaddr + 5) == base_phys + 5
    assert (
        kspace.translate(alloc.vaddr + PAGE_SIZE + 7)
        == alloc.frames[1].phys_addr + 7
    )


# -- scatter/gather ----------------------------------------------------------


def test_sg_from_kernel_kmalloc_is_single_segment(kspace):
    alloc = kspace.kmalloc(4 * PAGE_SIZE)
    segs = sg_from_kernel(kspace, alloc.vaddr, 4 * PAGE_SIZE)
    assert len(segs) == 1
    assert segs[0].length == 4 * PAGE_SIZE


def test_sg_from_kernel_vmalloc_segments_per_discontiguity(kspace, phys):
    # Force scattered frames: allocate in a pattern leaving holes.
    hold = [phys.alloc() for _ in range(3)]
    phys.free(hold[1])
    alloc = kspace.vmalloc(2 * PAGE_SIZE)
    segs = sg_from_kernel(kspace, alloc.vaddr, 2 * PAGE_SIZE)
    total = sum(s.length for s in segs)
    assert total == 2 * PAGE_SIZE
    pfns = [f.pfn for f in alloc.frames]
    expected_segs = 1 if pfns[1] == pfns[0] + 1 else 2
    assert len(segs) == expected_segs


def test_sg_from_kernel_matches_per_page_translation(kspace, phys):
    """The allocation range walk equals translating every page, across
    adjacent allocations and mid-page bounds; a range running into a
    freed allocation's VA raises."""
    hold = [phys.alloc() for _ in range(4)]
    phys.free(hold[2])  # scatter the vmalloc below
    a = kspace.vmalloc(3 * PAGE_SIZE)
    b = kspace.kmalloc(2 * PAGE_SIZE - 5)
    gap = kspace.vmalloc(PAGE_SIZE)
    c = kspace.vmalloc(PAGE_SIZE)
    kspace.kfree(gap)
    assert kspace.find_allocation(c.vaddr + 9) is c
    start, end = a.vaddr + 100, b.vaddr + 2 * PAGE_SIZE - 7
    segs = sg_from_kernel(kspace, start, end - start)
    assert [[s.phys_addr, s.length] for s in segs] == \
        _per_page_segments(kspace, start, end)
    assert len(segs) > 1
    with pytest.raises(BadAddress):
        sg_from_kernel(kspace, b.vaddr, 3 * PAGE_SIZE)


def _per_page_segments(kspace, start, end):
    """Translate ``[start, end)`` page by page, merging physically
    adjacent pieces: the reference for :func:`sg_from_kernel`."""
    expect: list = []
    addr = start
    while addr < end:
        pa = kspace.translate(addr)
        n = min(end - addr, PAGE_SIZE - (pa & PAGE_MASK))
        if expect and expect[-1][0] + expect[-1][1] == pa:
            expect[-1][1] += n
        else:
            expect.append([pa, n])
        addr += n
    return expect


class _CountingPfns:
    """A PFN sequence that counts its index lookups."""

    def __init__(self, pfns):
        self.pfns = pfns
        self.lookups = 0

    def __len__(self):
        return len(self.pfns)

    def __getitem__(self, i):
        self.lookups += 1
        return self.pfns[i]


def test_sg_from_kernel_kmalloc_256k_takes_no_per_page_work(kspace):
    """A 256 KiB kmalloc buffer (one MX kernel transfer) is one segment,
    built from one PFN lookup rather than one per page."""
    n = 256 * 1024
    alloc = kspace.kmalloc(n)
    base = alloc.pfns[0] << PAGE_SHIFT
    alloc.pfns = pfns = _CountingPfns(alloc.pfns)
    segs = sg_from_kernel(kspace, alloc.vaddr, n)
    assert [(s.phys_addr, s.length) for s in segs] == [(base, n)]
    assert pfns.lookups == 1


def test_sg_from_kernel_across_adjacent_kmallocs_matches_per_page(kspace):
    """Two kmalloc allocations adjacent in both VA and PFN: the range
    across them is one piece from each, merged into the one segment
    page-by-page translation gives."""
    a = kspace.kmalloc(3 * PAGE_SIZE)
    b = kspace.kmalloc(2 * PAGE_SIZE + 11)
    assert b.vaddr == a.mapped_end and b.pfns[0] == a.pfns[-1] + 1
    start, end = a.vaddr + 100, b.vaddr + 2 * PAGE_SIZE + 5
    segs = sg_from_kernel(kspace, start, end - start)
    expect = _per_page_segments(kspace, start, end)
    assert [[s.phys_addr, s.length] for s in segs] == expect
    assert len(segs) == 1


def test_sg_from_user_requires_resident_pages(phys):
    space = AddressSpace(phys)
    addr = space.mmap(2 * PAGE_SIZE)
    with pytest.raises(BadAddress):
        sg_from_user(space, addr, PAGE_SIZE)
    space.pin_range(addr, 2 * PAGE_SIZE)
    segs = sg_from_user(space, addr + 10, PAGE_SIZE)
    assert sum(s.length for s in segs) == PAGE_SIZE


def test_sg_from_user_merges_contiguous_frames(phys):
    space = AddressSpace(phys)
    addr = space.mmap(3 * PAGE_SIZE, populate=True)
    # populate() allocates lowest-free-pfn first, so frames are adjacent.
    segs = sg_from_user(space, addr, 3 * PAGE_SIZE)
    assert len(segs) == 1


def test_sg_from_user_zero_length(phys):
    space = AddressSpace(phys)
    addr = space.mmap(PAGE_SIZE, populate=True)
    assert sg_from_user(space, addr, 0) == []


def test_sg_from_frames_with_offset_and_length(phys):
    frames = [phys.alloc() for _ in range(3)]
    segs = sg_from_frames(frames, offset=100, length=PAGE_SIZE)
    assert sum(s.length for s in segs) == PAGE_SIZE
    assert segs[0].phys_addr == frames[0].phys_addr + 100


def test_sg_from_frames_full_run(phys):
    frames = [phys.alloc(), phys.alloc()]  # lowest free PFN: adjacent
    segs = sg_from_frames(frames)
    assert len(segs) == 1
    assert segs[0].length == 2 * PAGE_SIZE


def test_sg_from_frames_rejects_overrun(phys):
    frames = [phys.alloc()]
    with pytest.raises(ValueError):
        sg_from_frames(frames, offset=0, length=PAGE_SIZE + 1)


def test_sg_segments_cover_exact_byte_ranges(phys):
    """Data written through segments equals data read through the VA."""
    space = AddressSpace(phys)
    addr = space.mmap(2 * PAGE_SIZE)
    space.pin_range(addr, 2 * PAGE_SIZE)
    payload = bytes((i * 7) % 256 for i in range(PAGE_SIZE + 500))
    space.write_bytes(addr + 200, payload)
    segs = sg_from_user(space, addr + 200, len(payload))
    collected = b"".join(phys.read_phys(s.phys_addr, s.length) for s in segs)
    assert collected == payload


# -- kmalloc pages get a Frame only when touched -----------------------------


def _untouched_pfns(phys, alloc):
    return [pfn for pfn in alloc.pfns if phys._frames[pfn] is _UNTOUCHED]


def test_kmalloc_translation_gather_and_sg_build_no_frames(kspace, phys):
    alloc = kspace.kmalloc(3 * PAGE_SIZE)
    base = alloc.pfns[0] << PAGE_SHIFT
    assert kspace.translate(alloc.vaddr + PAGE_SIZE + 9) == base + PAGE_SIZE + 9
    segs = sg_from_kernel(kspace, alloc.vaddr + 5, 3 * PAGE_SIZE - 5)
    assert [(s.phys_addr, s.length) for s in segs] == [(base + 5, 3 * PAGE_SIZE - 5)]
    payload = kspace.read_payload(alloc.vaddr + 5, 2 * PAGE_SIZE)
    assert b"".join(payload.chunks()) == bytes(2 * PAGE_SIZE)
    kspace.write_bytes(alloc.vaddr, bytes(3 * PAGE_SIZE))
    assert _untouched_pfns(phys, alloc) == list(alloc.pfns)
    kspace.write_bytes(alloc.vaddr + PAGE_SIZE, b"x")
    assert _untouched_pfns(phys, alloc) == [alloc.pfns[0], alloc.pfns[2]]
    assert kspace.read_bytes(alloc.vaddr + PAGE_SIZE - 1, 2) == b"\x00x"


def test_kfree_of_untouched_kmalloc_builds_no_frame(kspace, phys, monkeypatch):
    alloc = kspace.kmalloc(4 * PAGE_SIZE)

    def no_frame(*args, **kwargs):
        raise AssertionError("a Frame was built")

    monkeypatch.setattr(phys_module, "Frame", no_frame)
    kspace.read_payload(alloc.vaddr, 4 * PAGE_SIZE)
    kspace.kfree(alloc)
    assert phys.free_runs() == [(0, 256)]


def _touch_none(kspace, alloc):
    pass


def _touch_one_page(kspace, alloc):
    kspace.write_bytes(alloc.vaddr + PAGE_SIZE + 10, b"data")


def _pin_one_page_again(kspace, alloc):
    kspace.phys.frame(alloc.pfns[2]).pin()


@pytest.mark.parametrize("touch, runs, free", [
    (_touch_none, [(1, 2), (3, 256)], 254),
    (_touch_one_page, [(1, 2), (3, 256)], 254),
    # The page holding an extra pin stays allocated, as a pinned page does.
    (_pin_one_page_again, [(1, 2), (3, 5), (6, 256)], 253),
])
def test_kfree_of_kmalloc_restores_the_pool(kspace, phys, touch, runs, free):
    hold = [phys.alloc() for _ in range(3)]
    phys.free(hold[1])  # free runs: [1, 2) and [3, 256)
    alloc = kspace.kmalloc(4 * PAGE_SIZE)
    assert list(alloc.pfns) == [3, 4, 5, 6]
    touch(kspace, alloc)
    kspace.kfree(alloc)
    assert phys.free_runs() == runs
    assert phys.free_frames == free
    for pfn in alloc.pfns:
        if any(a <= pfn < b for a, b in runs):
            with pytest.raises(ValueError):
                phys.frame(pfn)
        else:
            assert phys.frame(pfn).pin_count == 1


def test_kmalloc_frames_accessor_builds_frames_on_demand(kspace, phys):
    alloc = kspace.kmalloc(2 * PAGE_SIZE)
    frames = alloc.frames
    assert [f.pfn for f in frames] == list(alloc.pfns)
    assert alloc.frames == frames  # the same objects on a second call
    assert _untouched_pfns(phys, alloc) == []
    kspace.kfree(alloc)
    assert phys.free_frames == 256
