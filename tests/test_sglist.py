"""Tests for the scatter/gather payload plumbing (repro.mem.sglist).

Property-style equivalence: any gather/scatter through
:class:`PayloadRef` must move exactly the same bytes as the naive
``bytes``-everywhere path, across odd offsets, page-straddling spans
and empty segments, in both host modes.  That the plumbing leaves the
pinned benchmark output untouched is checked beside the world runner
(``tests/test_bench_figures.py``).
"""

import zlib
from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.mem import PayloadRef, PhysicalMemory
from repro.mem import sglist
from repro.units import PAGE_SIZE, pages_spanned


@dataclass
class Seg:
    """Minimal duck-typed physical segment (what write_phys_sg needs)."""

    phys_addr: int
    length: int


def _chunked(data: bytes, cuts) -> PayloadRef:
    """Split ``data`` at arbitrary cut points into a PayloadRef."""
    n = len(data)
    bounds = sorted({0, n, *(c % (n + 1) for c in cuts)})
    view = memoryview(data)
    return PayloadRef.from_chunks(
        view[a:b] for a, b in zip(bounds, bounds[1:])
    )


# -- pure PayloadRef semantics ------------------------------------------------


@given(
    data=st.binary(max_size=2048),
    cuts=st.lists(st.integers(0, 2048), max_size=8),
    start=st.integers(0, 2200),
    length=st.integers(0, 2200),
)
@settings(max_examples=80, deadline=None)
def test_slice_matches_bytes_slicing(data, cuts, start, length):
    ref = _chunked(data, cuts)
    assert ref.length == len(data)
    assert ref.tobytes() == data
    assert ref.slice(start, length).tobytes() == data[start:start + length]
    assert ref.slice(start).tobytes() == data[start:]
    assert ref[start:start + length] == data[start:start + length]


@given(
    data=st.binary(max_size=1024),
    cuts_a=st.lists(st.integers(0, 1024), max_size=6),
    cuts_b=st.lists(st.integers(0, 1024), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_equality_is_content_based_across_chunkings(data, cuts_a, cuts_b):
    a = _chunked(data, cuts_a)
    b = _chunked(data, cuts_b)
    assert a == b
    assert a == data
    assert a.checksum() == b.checksum() == zlib.crc32(data) & 0xFFFFFFFF
    if data:
        assert a != data[:-1] + bytes([data[-1] ^ 1])


def test_concat_splices_without_copying():
    parts = [b"abc", b"", b"defgh", b"!"]
    ref = PayloadRef.concat(PayloadRef.from_bytes(p) for p in parts)
    assert ref == b"abcdefgh!"
    assert len(ref) == 9
    assert ref[3] == ord("d") and ref[-1] == ord("!")
    assert bool(PayloadRef.empty()) is False
    assert bytes(ref) == b"abcdefgh!"


# -- scatter/gather through physical memory -----------------------------------


@given(
    data=st.binary(min_size=1, max_size=3 * PAGE_SIZE),
    src_off=st.integers(0, PAGE_SIZE - 1),
    dst_off=st.integers(0, PAGE_SIZE - 1),
    cuts=st.lists(st.integers(0, 3 * PAGE_SIZE), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_scatter_gather_matches_naive_bytes_path(
    data, src_off, dst_off, cuts
):
    """Gather → scatter via PayloadRef lands exactly the raw ``data``
    bytes, for any segment cuts and offsets."""
    phys = PhysicalMemory(64)
    n = len(data)
    src_frames = [phys.alloc() for _ in range(pages_spanned(src_off, n))]
    src_base = src_frames[0].phys_addr + src_off
    phys.write_phys(src_base, data)  # the naive reference write

    bounds = sorted({0, n, *(c % (n + 1) for c in cuts)})
    segs = [Seg(src_base + a, b - a) for a, b in zip(bounds, bounds[1:])]
    segs.insert(len(segs) // 2, Seg(src_base, 0))  # empty segment is a no-op

    payload = PayloadRef.from_phys(phys, segs)
    assert payload.length == n
    assert payload == data

    dst_frames = [phys.alloc() for _ in range(pages_spanned(dst_off, n))]
    dst_base = dst_frames[0].phys_addr + dst_off
    written = phys.write_phys_sg([Seg(dst_base, n)], payload)
    assert written == n
    assert phys.read_phys(dst_base, n) == data


def test_inflight_payload_survives_frame_recycling():
    """COW: a view taken at gather time keeps its bytes even after the
    source frame (a recycled tx buffer, a receive-ring slot) is
    rewritten."""
    phys = PhysicalMemory(4)
    frame = phys.alloc()
    frame.write(0, b"old payload!")
    ref = PayloadRef.from_chunks([frame.view(0, 12)])
    frame.write(0, b"NEW PAYLOAD?")
    assert ref.tobytes() == b"old payload!"
    assert phys.read_phys(frame.phys_addr, 12) == b"NEW PAYLOAD?"


def test_gather_scatter_copies_only_the_deposit():
    """Gathering takes views and scattering deposits them: the one host
    copy is the final write into the destination frame."""
    data = bytes(range(256)) * 16  # one page
    phys = PhysicalMemory(8)
    src = phys.alloc()
    dst = phys.alloc()
    phys.write_phys(src.phys_addr, data)
    before = sglist.HOST_COPIES.snapshot()
    payload = PayloadRef.from_phys(phys, [Seg(src.phys_addr, len(data))])
    phys.write_phys_sg([Seg(dst.phys_addr, len(data))], payload)
    after = sglist.HOST_COPIES.snapshot()
    assert after["copies"] - before["copies"] == 1
    assert after["nbytes"] - before["nbytes"] == len(data)
    assert phys.read_phys(dst.phys_addr, len(data)) == data
