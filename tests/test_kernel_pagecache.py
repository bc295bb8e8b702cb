"""Unit tests for the page cache (repro.kernel.pagecache)."""

import pytest

from repro.errors import KernelError
from repro.kernel import PageCache
from repro.mem import PhysicalMemory


@pytest.fixture
def phys():
    return PhysicalMemory(64)


def test_add_then_find_hits(phys, count):
    pc = PageCache(phys)
    page = pc.add(1, 0)
    assert pc.find(1, 0) is page
    assert count("pagecache.hits") == 1


def test_find_missing_counts_miss(phys, count):
    pc = PageCache(phys)
    assert pc.find(1, 0) is None
    assert count("pagecache.misses") == 1
    assert count("pagecache.hits") == 0


def test_pages_are_pinned_while_cached(phys):
    pc = PageCache(phys)
    page = pc.add(1, 0)
    assert page.frame.pinned
    pc.remove(1, 0)
    assert not page.frame.pinned
    assert phys.allocated_frames == 0


def test_add_duplicate_raises(phys):
    pc = PageCache(phys)
    pc.add(1, 0)
    with pytest.raises(KernelError):
        pc.add(1, 0)


def test_pages_of_different_inodes_are_distinct(phys):
    pc = PageCache(phys)
    a = pc.add(1, 0)
    b = pc.add(2, 0)
    assert a is not b
    assert pc.find(1, 0) is a
    assert pc.find(2, 0) is b


def test_lru_eviction_drops_oldest_clean_page(phys, count):
    pc = PageCache(phys, max_pages=2)
    first = pc.add(1, 0)
    pc.add(1, 1)
    pc.add(1, 2)  # evicts page (1,0)
    assert pc.find(1, 0) is None
    assert count("pagecache.evictions") == 1
    assert not first.frame.pinned


def test_find_refreshes_lru_position(phys):
    pc = PageCache(phys, max_pages=2)
    pc.add(1, 0)
    pc.add(1, 1)
    pc.find(1, 0)  # make (1,1) the LRU victim
    pc.add(1, 2)
    assert pc.find(1, 0) is not None
    assert pc.find(1, 1) is None


def test_dirty_pages_not_evicted(phys):
    pc = PageCache(phys, max_pages=2)
    a = pc.add(1, 0)
    a.dirty = True
    pc.add(1, 1)
    pc.add(1, 2)  # must skip dirty (1,0) and evict (1,1)
    assert pc.find(1, 0) is a
    assert pc.find(1, 1) is None


def test_all_dirty_cache_raises_on_pressure(phys):
    pc = PageCache(phys, max_pages=2)
    pc.add(1, 0).dirty = True
    pc.add(1, 1).dirty = True
    with pytest.raises(KernelError, match="writeback"):
        pc.add(1, 2)


def test_invalidate_inode_drops_only_that_inode(phys):
    pc = PageCache(phys)
    pc.add(1, 0)
    pc.add(1, 1)
    pc.add(2, 0)
    assert pc.invalidate_inode(1) == 2
    assert len(pc) == 1
    assert pc.find(2, 0) is not None


def test_dirty_pages_listing_sorted(phys):
    pc = PageCache(phys)
    pc.add(1, 3).dirty = True
    pc.add(1, 1).dirty = True
    pc.add(1, 2)
    indices = [p.index for p in pc.dirty_pages(1)]
    assert indices == [1, 3]
