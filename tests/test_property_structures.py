"""Property-based tests for the NIC table, page cache, engine and units."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.errors import TranslationTableFull
from repro.kernel import PageCache
from repro.mem import PhysicalMemory
from repro.nicfw import TranslationTable
from repro.sim import Environment
from repro.units import bandwidth_mb_s, transfer_time_ns


# -- translation table ---------------------------------------------------------


@given(
    entries=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 50), st.integers(0, 999)),
        max_size=40,
    )
)
@settings(max_examples=50)
def test_transtable_lookup_matches_last_install(entries):
    table = TranslationTable(capacity=256, node=0)
    expected = {}
    for ctx, vpn, pfn in entries:
        table.install_range(ctx, vpn, [pfn])
        expected[(ctx, vpn)] = pfn
    for (ctx, vpn), pfn in expected.items():
        assert table.lookup(ctx, vpn) == pfn
    assert len(table) == len(expected)


@given(capacity=st.integers(1, 16))
def test_transtable_capacity_enforced(capacity):
    table = TranslationTable(capacity, node=0)
    for i in range(capacity):
        table.install_range(0, i, [i])
    with pytest.raises(TranslationTableFull):
        table.install_range(0, capacity, [0])
    table.remove(0, 0, 0)
    table.install_range(0, capacity, [0])  # now it fits


# -- page cache ------------------------------------------------------------------


@given(
    accesses=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 10)),
                      min_size=1, max_size=60)
)
@settings(max_examples=50)
def test_pagecache_never_exceeds_budget_and_stays_consistent(accesses):
    phys = PhysicalMemory(64)
    cache = PageCache(phys, max_pages=8)
    for inode, index in accesses:
        page = cache.find(inode, index)
        if page is None:
            page = cache.add(inode, index)
        assert page.inode_id == inode and page.index == index
        assert len(cache) <= 8
        assert page.frame.pinned
    # every cached frame is accounted in physical memory
    assert phys.allocated_frames == len(cache)


@given(
    accesses=st.lists(st.integers(0, 15), min_size=1, max_size=60),
)
@settings(max_examples=50)
def test_pagecache_lru_keeps_recent_pages(accesses):
    """After any access sequence, the most recently touched page is
    always still resident."""
    phys = PhysicalMemory(64)
    cache = PageCache(phys, max_pages=4)
    for index in accesses:
        if cache.find(1, index) is None:
            cache.add(1, index)
        assert cache.find(1, index) is not None


# -- engine determinism ------------------------------------------------------------


@given(
    delays=st.lists(st.integers(0, 1000), min_size=1, max_size=20),
)
@settings(max_examples=30)
def test_engine_fires_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []

    def proc(env, d):
        yield env.timeout(d)
        fired.append(env.now)

    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert fired == sorted(fired)
    assert sorted(fired) == sorted(delays)


@given(
    delays=st.lists(st.integers(0, 500), min_size=2, max_size=12),
)
@settings(max_examples=30)
def test_all_of_fires_at_max_any_of_at_min(delays):
    env = Environment()
    events = [env.timeout(d) for d in delays]
    times = {}

    def waiter(env, combine, key):
        yield combine(events)
        times[key] = env.now

    env.process(waiter(env, env.all_of, "all"))
    env.process(waiter(env, env.any_of, "any"))
    env.run()
    assert times["all"] == max(delays)
    assert times["any"] == min(delays)


# -- units -----------------------------------------------------------------------


@given(
    size=st.integers(1, 2**30),
    bw=st.floats(1e6, 1e10, allow_nan=False, allow_infinity=False),
)
def test_transfer_time_roundtrip_bandwidth(size, bw):
    t = transfer_time_ns(size, bw)
    assert t >= 1
    measured = bandwidth_mb_s(size, t)
    # ceil rounding only ever *under*-reports bandwidth
    assert measured <= bw / 1e6 * 1.001


@given(size=st.integers(1, 2**24))
def test_transfer_time_monotone_in_size(size):
    bw = 250e6
    assert transfer_time_ns(size, bw) <= transfer_time_ns(size + 1, bw)
