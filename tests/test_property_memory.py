"""Property-based tests (hypothesis) for the memory substrate."""

from hypothesis import given, settings, strategies as st

from repro.mem import AddressSpace, KernelSpace, PhysicalMemory, sg_from_user
from repro.mem.layout import sg_from_frames, sg_from_kernel
from repro.units import PAGE_SHIFT, PAGE_SIZE, page_align_up, pages_spanned


# -- pages_spanned ------------------------------------------------------------


@given(addr=st.integers(0, 2**32 - 1), length=st.integers(0, 2**20))
def test_pages_spanned_bounds(addr, length):
    n = pages_spanned(addr, length)
    if length == 0:
        assert n == 0
    else:
        # at least ceil(len/page), at most one more (offset spill)
        lo = -(-length // PAGE_SIZE)
        assert lo <= n <= lo + 1


@given(addr=st.integers(0, 2**32 - 1), length=st.integers(1, 2**20))
def test_pages_spanned_covers_last_byte(addr, length):
    n = pages_spanned(addr, length)
    first_page = addr // PAGE_SIZE
    last_byte_page = (addr + length - 1) // PAGE_SIZE
    assert first_page + n - 1 == last_byte_page


@given(length=st.integers(0, 2**24))
def test_page_align_up_properties(length):
    aligned = page_align_up(length)
    assert aligned % PAGE_SIZE == 0
    assert 0 <= aligned - length < PAGE_SIZE


# -- physical memory ----------------------------------------------------------


@given(ops=st.lists(st.booleans(), max_size=60))
@settings(max_examples=50)
def test_phys_alloc_free_conserves_frames(ops):
    """Any alloc/free sequence keeps allocated+free == total."""
    phys = PhysicalMemory(32)
    live = []
    for do_alloc in ops:
        if do_alloc and phys.free_frames:
            live.append(phys.alloc())
        elif live:
            phys.free(live.pop())
        assert phys.allocated_frames + phys.free_frames == 32
        assert phys.allocated_frames == len(live)


@given(
    offset=st.integers(0, PAGE_SIZE - 1),
    data=st.binary(min_size=1, max_size=PAGE_SIZE),
)
def test_frame_write_read_identity(offset, data):
    phys = PhysicalMemory(1)
    frame = phys.alloc()
    n = min(len(data), PAGE_SIZE - offset)
    frame.write(offset, data[:n])
    assert frame.read(offset, n) == data[:n]


@given(
    start=st.integers(0, 3 * PAGE_SIZE),
    data=st.binary(min_size=1, max_size=2 * PAGE_SIZE),
)
@settings(max_examples=50)
def test_phys_rw_crossing_frames_identity(start, data):
    phys = PhysicalMemory(8)
    base = phys.alloc_contiguous(6) << PAGE_SHIFT
    phys.write_phys(base + start, data)
    assert phys.read_phys(base + start, len(data)) == data


# -- address spaces ------------------------------------------------------------


@given(
    offset=st.integers(0, PAGE_SIZE),
    data=st.binary(min_size=1, max_size=3 * PAGE_SIZE),
)
@settings(max_examples=50)
def test_addrspace_write_read_identity(offset, data):
    phys = PhysicalMemory(64)
    space = AddressSpace(phys)
    vaddr = space.mmap(4 * PAGE_SIZE)
    space.write_bytes(vaddr + offset, data)
    assert space.read_bytes(vaddr + offset, len(data)) == data


@given(npages=st.lists(st.integers(1, 4), min_size=1, max_size=6))
@settings(max_examples=50)
def test_mmap_regions_never_overlap(npages):
    phys = PhysicalMemory(128)
    space = AddressSpace(phys)
    regions = []
    for n in npages:
        start = space.mmap(n * PAGE_SIZE)
        regions.append((start, start + n * PAGE_SIZE))
    regions.sort()
    for (s1, e1), (s2, e2) in zip(regions, regions[1:]):
        assert e1 <= s2


@given(
    layout=st.lists(st.tuples(st.integers(1, 3), st.booleans()),
                    min_size=1, max_size=8)
)
@settings(max_examples=50)
def test_munmap_then_mmap_reuses_space_without_overlap(layout):
    """Alternating map/unmap keeps the VMA list self-consistent."""
    phys = PhysicalMemory(256)
    space = AddressSpace(phys)
    live = []
    for npages, unmap_one in layout:
        addr = space.mmap(npages * PAGE_SIZE, populate=True)
        live.append((addr, npages * PAGE_SIZE))
        if unmap_one and len(live) > 1:
            a, length = live.pop(0)
            space.munmap(a, length)
        # every live region is readable and regions are disjoint
        spans = sorted(live)
        for (s1, l1), (s2, l2) in zip(spans, spans[1:]):
            assert s1 + l1 <= s2
        for a, length in live:
            space.read_bytes(a, 1)


@given(
    offset=st.integers(0, PAGE_SIZE - 1),
    length=st.integers(1, 3 * PAGE_SIZE),
)
@settings(max_examples=50)
def test_sg_from_user_covers_exact_range(offset, length):
    phys = PhysicalMemory(64)
    space = AddressSpace(phys)
    vaddr = space.mmap(4 * PAGE_SIZE, populate=True)
    segs = sg_from_user(space, vaddr + offset, length)
    assert sum(s.length for s in segs) == length
    # segments are maximal: no two adjacent segments are contiguous
    for a, b in zip(segs, segs[1:]):
        assert a.end != b.phys_addr


@given(
    nframes=st.integers(1, 6),
    offset=st.integers(0, PAGE_SIZE - 1),
)
@settings(max_examples=50)
def test_sg_from_frames_total_length(nframes, offset):
    phys = PhysicalMemory(16)
    frames = [phys.alloc() for _ in range(nframes)]
    total = nframes * PAGE_SIZE - offset
    segs = sg_from_frames(frames, offset=offset)
    assert sum(s.length for s in segs) == total


@given(sizes=st.lists(st.integers(1, 3 * PAGE_SIZE), min_size=1, max_size=6))
@settings(max_examples=50)
def test_kmalloc_sg_always_single_segment(sizes):
    phys = PhysicalMemory(256)
    kspace = KernelSpace(phys)
    for size in sizes:
        alloc = kspace.kmalloc(size)
        segs = sg_from_kernel(kspace, alloc.vaddr, size)
        assert len(segs) == 1
        assert segs[0].length == size
