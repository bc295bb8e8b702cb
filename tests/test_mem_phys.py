"""Unit tests for the physical frame allocator (repro.mem.phys)."""

import pytest

from repro.errors import OutOfMemory, PinningError
from repro.mem import HOST_COPIES, PayloadRef, PhysicalMemory, PhysSegment
from repro.mem.phys import _UNTOUCHED
from repro.units import PAGE_SHIFT, PAGE_SIZE


def test_alloc_returns_distinct_frames():
    phys = PhysicalMemory(8)
    a = phys.alloc()
    b = phys.alloc()
    assert a.pfn != b.pfn
    assert phys.allocated_frames == 2
    assert phys.free_frames == 6


def test_alloc_exhaustion_raises():
    phys = PhysicalMemory(2)
    phys.alloc()
    phys.alloc()
    with pytest.raises(OutOfMemory):
        phys.alloc()


def test_free_recycles_frame():
    phys = PhysicalMemory(1)
    frame = phys.alloc()
    phys.free(frame)
    again = phys.alloc()
    assert again.pfn == frame.pfn


def test_double_free_raises():
    phys = PhysicalMemory(2)
    frame = phys.alloc()
    phys.free(frame)
    with pytest.raises(ValueError):
        phys.free(frame)


def test_frame_read_write_roundtrip():
    phys = PhysicalMemory(1)
    frame = phys.alloc()
    frame.write(100, b"hello world")
    assert frame.read(100, 11) == b"hello world"


def test_frame_reads_zero_before_write():
    phys = PhysicalMemory(1)
    frame = phys.alloc()
    assert frame.read(0, 16) == bytes(16)


def _copies():
    return HOST_COPIES.copies, HOST_COPIES.nbytes


def test_zero_write_to_fresh_frame_is_elided():
    phys = PhysicalMemory(1)
    frame = phys.alloc()
    before = _copies()
    frame.write(0, bytes(PAGE_SIZE))
    frame.write(100, memoryview(bytes(64)))
    assert frame._data is None  # no storage allocated
    assert _copies() == before  # no host copy counted
    assert frame.read(0, PAGE_SIZE) == bytes(PAGE_SIZE)


def test_zero_write_overwrites_existing_bytes():
    phys = PhysicalMemory(1)
    frame = phys.alloc()
    frame.write(0, b"\xff" * 32)
    before = _copies()
    frame.write(8, bytes(16))
    assert _copies() == (before[0] + 1, before[1] + 16)
    assert frame.read(0, 32) == b"\xff" * 8 + bytes(16) + b"\xff" * 8


def test_partial_write_after_elided_zero_write_reads_back():
    phys = PhysicalMemory(1)
    frame = phys.alloc()
    frame.write(0, bytes(PAGE_SIZE))
    frame.write(1000, b"abc")
    assert frame._data is not None
    assert frame.read(0, PAGE_SIZE) == bytes(1000) + b"abc" + bytes(PAGE_SIZE - 1003)


def test_pickled_zero_payload_elides_like_a_zero_page_view():
    """Zeros are recognised by content: a zero payload made of plain
    ``bytes`` chunks scatters exactly like zero-page views do, with no
    storage and no counted copy."""
    phys = PhysicalMemory(4)
    src = phys.alloc()
    view_payload = PayloadRef.from_chunks([src.view(0, PAGE_SIZE)])
    bytes_payload = PayloadRef.from_chunks([bytes(PAGE_SIZE)])
    assert all(type(c) is bytes for c in bytes_payload.chunks())
    for payload in (view_payload, bytes_payload):
        dst = phys.alloc()
        before = _copies()
        seg = PhysSegment(dst.phys_addr, PAGE_SIZE)
        assert phys.write_phys_sg([seg], payload) == PAGE_SIZE
        assert dst._data is None
        assert _copies() == before


def test_frame_out_of_range_access_raises():
    phys = PhysicalMemory(1)
    frame = phys.alloc()
    with pytest.raises(ValueError):
        frame.read(PAGE_SIZE - 4, 8)
    with pytest.raises(ValueError):
        frame.write(PAGE_SIZE, b"x")


def test_phys_addr_matches_pfn():
    phys = PhysicalMemory(16)
    frame = phys.alloc()
    assert frame.phys_addr == frame.pfn * PAGE_SIZE
    assert phys.frame_at_phys(frame.phys_addr + 123) is frame


def test_pin_prevents_free():
    phys = PhysicalMemory(2)
    frame = phys.alloc()
    frame.pin()
    with pytest.raises(PinningError):
        phys.free(frame)
    frame.unpin()
    phys.free(frame)


def test_unbalanced_unpin_raises():
    phys = PhysicalMemory(1)
    frame = phys.alloc()
    with pytest.raises(PinningError):
        frame.unpin()


def test_pin_count_nests():
    phys = PhysicalMemory(1)
    frame = phys.alloc()
    frame.pin()
    frame.pin()
    frame.unpin()
    assert frame.pinned
    frame.unpin()
    assert not frame.pinned


def test_alloc_contiguous_returns_adjacent_pfns():
    phys = PhysicalMemory(16)
    base = phys.alloc_contiguous(4)
    assert base == 0
    assert phys.free_runs() == [(4, 16)]
    assert [phys.frame(pfn).pfn for pfn in range(4)] == [0, 1, 2, 3]


def test_alloc_contiguous_skips_fragmented_holes():
    phys = PhysicalMemory(10)
    keep = [phys.alloc() for _ in range(4)]  # pfns 0..3
    phys.free(keep[1])  # hole at pfn 1: runs are {1}, {4..9}
    assert phys.alloc_contiguous(3) == 4


def test_alloc_contiguous_failure_when_fragmented():
    phys = PhysicalMemory(4)
    frames = [phys.alloc() for _ in range(4)]
    phys.free(frames[0])
    phys.free(frames[2])  # free: {0, 2} — no run of 2
    with pytest.raises(OutOfMemory):
        phys.alloc_contiguous(2)


def test_free_coalesces_adjacent_runs():
    phys = PhysicalMemory(8)
    frames = [phys.alloc() for _ in range(8)]
    assert phys.free_runs() == []
    # free out of order; runs must coalesce back to one full-range run
    for i in (3, 5, 4):
        phys.free(frames[i])
    assert phys.free_runs() == [(3, 6)]
    for i in (0, 7, 1, 6, 2):
        phys.free(frames[i])
    assert phys.free_runs() == [(0, 8)]
    assert phys.free_frames == 8


def test_alloc_after_fragmentation_and_coalescing():
    # alloc -> free -> alloc_contiguous across a fragmented-then-healed
    # pool: once the holes coalesce, a long run is servable again.
    phys = PhysicalMemory(16)
    frames = [phys.alloc() for _ in range(16)]
    for i in range(0, 16, 2):  # free every other frame: 8 single-frame runs
        phys.free(frames[i])
    assert len(phys.free_runs()) == 8
    with pytest.raises(OutOfMemory):
        phys.alloc_contiguous(2)
    for i in range(1, 16, 2):  # heal the holes
        phys.free(frames[i])
    assert phys.free_runs() == [(0, 16)]
    assert phys.alloc_contiguous(12) == 0


def test_alloc_contiguous_takes_lowest_fitting_run():
    phys = PhysicalMemory(12)
    frames = [phys.alloc() for _ in range(12)]
    # free runs: [2,4) (len 2) and [6,10) (len 4)
    for i in (2, 3, 6, 7, 8, 9):
        phys.free(frames[i])
    assert phys.free_runs() == [(2, 4), (6, 10)]
    assert phys.alloc_contiguous(3) == 6  # skips the too-short [2,4) run
    assert phys.free_runs() == [(2, 4), (9, 10)]
    # single-frame alloc still takes the lowest PFN overall
    assert phys.alloc().pfn == 2


def test_alloc_lowest_pfn_policy_preserved():
    phys = PhysicalMemory(6)
    frames = [phys.alloc() for _ in range(6)]
    phys.free(frames[4])
    phys.free(frames[1])
    assert phys.alloc().pfn == 1  # lowest free PFN, deterministically
    assert phys.alloc().pfn == 4


def test_read_write_phys_crosses_frames():
    phys = PhysicalMemory(4)
    base = phys.alloc_contiguous(2) << PAGE_SHIFT
    data = bytes(range(256)) * 40  # 10240 bytes > fits? 2 pages = 8192
    data = data[:6000]
    phys.write_phys(base + 3000, data[: PAGE_SIZE + 1000])
    assert phys.read_phys(base + 3000, PAGE_SIZE + 1000) == data[: PAGE_SIZE + 1000]


def test_read_phys_unallocated_frame_raises():
    phys = PhysicalMemory(4)
    with pytest.raises(ValueError):
        phys.read_phys(0, 8)


def test_unwritten_views_share_one_buffer():
    phys = PhysicalMemory(4)
    a, b = phys.alloc(), phys.alloc()
    v, w = a.view(0, PAGE_SIZE), b.view(0, PAGE_SIZE)
    assert v.obj is w.obj
    assert v is w  # a full page is the shared view itself
    part = a.view(100, 50)
    assert part.obj is v.obj
    assert bytes(part) == bytes(50)
    assert v.readonly


def test_view_before_first_write_still_reads_zeros():
    phys = PhysicalMemory(2)
    frame = phys.alloc()
    full = frame.view(0, PAGE_SIZE)
    part = frame.view(8, 16)
    frame.write(0, b"\xff" * PAGE_SIZE)
    assert bytes(full) == bytes(PAGE_SIZE)
    assert bytes(part) == bytes(16)
    assert bytes(frame.view(8, 16)) == b"\xff" * 16
    # The write went to private storage, not to the shared zero page.
    assert bytes(phys.alloc().view(0, PAGE_SIZE)) == bytes(PAGE_SIZE)


def test_frame_lookup_rejects_negative_freed_and_unallocated_pfns():
    phys = PhysicalMemory(8)
    frames = [phys.alloc() for _ in range(3)]
    phys.free(frames[1])
    for pfn in (-1, frames[1].pfn, frames[-1].pfn + 1):
        with pytest.raises(ValueError):
            phys.frame(pfn)
    assert phys.frame(frames[0].pfn) is frames[0]
    assert phys.frame(frames[2].pfn) is frames[2]


def test_double_free_after_reuse_of_the_pfn_raises():
    phys = PhysicalMemory(2)
    stale = phys.alloc()
    phys.free(stale)
    fresh = phys.alloc()
    assert fresh.pfn == stale.pfn
    with pytest.raises(ValueError):
        phys.free(stale)
    assert phys.frame(fresh.pfn) is fresh


def test_contiguous_alloc_past_the_frame_table_end():
    phys = PhysicalMemory(16)
    singles = [phys.alloc() for _ in range(3)]
    phys.free(singles[1])
    assert phys.alloc_contiguous(4) == 3
    run = [phys.frame(pfn) for pfn in range(3, 7)]
    assert [f.pfn for f in run] == [3, 4, 5, 6]
    assert all(phys.frame(f.pfn) is f for f in run)
    assert phys.alloc().pfn == 1


# -- contiguous pages without Frame objects until touched ------------------


def _untouched(phys, pfn):
    return phys._frames[pfn] is _UNTOUCHED


def test_untouched_contiguous_page_gets_one_frame_pinned_once():
    phys = PhysicalMemory(8)
    base = phys.alloc_contiguous(3)
    assert all(_untouched(phys, pfn) for pfn in range(base, base + 3))
    frame = phys.frame(base + 1)
    assert phys.frame(base + 1) is frame
    assert phys.frame_at_phys(frame.phys_addr + 7) is frame
    assert (frame.pfn, frame.pin_count) == (base + 1, 1)
    assert _untouched(phys, base) and _untouched(phys, base + 2)


def test_free_refuses_a_looked_up_contiguous_page_while_pinned():
    phys = PhysicalMemory(4)
    base = phys.alloc_contiguous(2)
    frame = phys.frame(base)
    with pytest.raises(PinningError):
        phys.free(frame)
    frame.unpin()
    phys.free(frame)
    with pytest.raises(ValueError):
        phys.frame(base)
    assert phys.free_runs() == [(0, 1), (2, 4)]


def test_dma_gather_and_zero_scatter_leave_pages_untouched():
    phys = PhysicalMemory(8)
    base = phys.alloc_contiguous(3)
    seg = PhysSegment((base << PAGE_SHIFT) + 100, 2 * PAGE_SIZE)
    before = _copies()
    gathered = PayloadRef.from_phys(phys, [seg]).chunks()
    assert b"".join(gathered) == bytes(2 * PAGE_SIZE)
    assert len({id(view.obj) for view in gathered}) == 1  # the zero page
    zeros = PayloadRef.from_chunks([bytes(2 * PAGE_SIZE)])
    assert phys.write_phys_sg([seg], zeros) == 2 * PAGE_SIZE
    phys.write_phys(base << PAGE_SHIFT, bytes(3 * PAGE_SIZE))
    assert _copies() == before
    assert all(_untouched(phys, pfn) for pfn in range(base, base + 3))


def test_nonzero_write_to_untouched_page_counts_like_an_eager_frame():
    phys = PhysicalMemory(8)
    eager = phys.alloc()
    base = phys.alloc_contiguous(2)
    data = b"\x00\x01payload"
    deltas = []
    for addr in (eager.phys_addr + 10, (base << PAGE_SHIFT) + PAGE_SIZE + 10):
        before = _copies()
        phys.write_phys(addr, data)
        after = _copies()
        deltas.append((after[0] - before[0], after[1] - before[1]))
        assert phys.read_phys(addr, len(data)) == data
    assert deltas[0] == deltas[1] == (1, len(data))
    assert _untouched(phys, base)
    assert phys.frame(base + 1).pin_count == 1


def test_view_of_untouched_page_before_first_write_still_reads_zeros():
    phys = PhysicalMemory(4)
    base = phys.alloc_contiguous(1)
    addr = base << PAGE_SHIFT
    full = phys.view_phys(addr, PAGE_SIZE)
    part = phys.view_phys(addr + 8, 16)
    phys.write_phys(addr, b"\xff" * PAGE_SIZE)
    assert bytes(full) == bytes(PAGE_SIZE)
    assert bytes(part) == bytes(16)
    assert bytes(phys.view_phys(addr + 8, 16)) == b"\xff" * 16
    with pytest.raises(ValueError):
        phys.view_phys(addr + PAGE_SIZE - 4, 8)


def test_untouched_run_gathers_as_one_view_per_zero_region():
    from repro.mem.phys import _ZERO_REGION_BYTES

    region_pages = _ZERO_REGION_BYTES // PAGE_SIZE
    phys = PhysicalMemory(3 * region_pages)
    base = phys.alloc_contiguous(2 * region_pages + 3)
    addr = (base << PAGE_SHIFT) + 100
    length = (2 * region_pages + 2) * PAGE_SIZE
    views = phys.read_phys_view(addr, length)
    assert [len(v) for v in views] == [
        _ZERO_REGION_BYTES, _ZERO_REGION_BYTES, length - 2 * _ZERO_REGION_BYTES]
    assert b"".join(views) == bytes(length)
    assert all(_untouched(phys, pfn)
               for pfn in range(base, base + 2 * region_pages + 3))


def test_touched_page_splits_an_untouched_run():
    phys = PhysicalMemory(8)
    base = phys.alloc_contiguous(5)
    phys.write_phys((base + 2) << PAGE_SHIFT, b"\x07")
    views = phys.read_phys_view(base << PAGE_SHIFT, 5 * PAGE_SIZE)
    assert [len(v) for v in views] == [2 * PAGE_SIZE, PAGE_SIZE, 2 * PAGE_SIZE]
    assert b"".join(views) == bytes(2 * PAGE_SIZE) + b"\x07" + bytes(3 * PAGE_SIZE - 1)
    with pytest.raises(ValueError):
        phys.read_phys_view(base << PAGE_SHIFT, 6 * PAGE_SIZE)


def test_write_over_an_untouched_run_builds_frames_only_for_data():
    phys = PhysicalMemory(8)
    base = phys.alloc_contiguous(4)
    data = bytearray(4 * PAGE_SIZE - 10)
    data[-1] = 9  # the last page takes data, the first three stay zero
    before = _copies()
    phys.write_phys((base << PAGE_SHIFT) + 10, data)
    after = _copies()
    assert [_untouched(phys, base + i) for i in range(4)] == [True, True, True, False]
    assert after[0] - before[0] == 1
    assert phys.read_phys(base << PAGE_SHIFT, 4 * PAGE_SIZE) == bytes(10) + data


def test_gathered_zero_run_skips_untouched_pages_and_zeroes_written_ones():
    src = PhysicalMemory(8)
    src_base = src.alloc_contiguous(5)
    (zeros,) = src.read_phys_view(src_base << PAGE_SHIFT, 5 * PAGE_SIZE)
    dst = PhysicalMemory(8)
    base = dst.alloc_contiguous(5)
    dst.write_phys((base + 3) << PAGE_SHIFT, b"\x05" * 8)
    before = _copies()
    dst.write_phys(base << PAGE_SHIFT, zeros)
    after = _copies()
    assert [_untouched(dst, base + i) for i in range(5)] == [True, True, True, False, True]
    assert after[0] - before[0] == 1  # only the written page takes the zeros
    assert dst.read_phys(base << PAGE_SHIFT, 5 * PAGE_SIZE) == bytes(5 * PAGE_SIZE)
    with pytest.raises(ValueError):
        dst.write_phys((base + 4) << PAGE_SHIFT, zeros[: 2 * PAGE_SIZE])
