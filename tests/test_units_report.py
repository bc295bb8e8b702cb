"""Unit tests for units helpers, the report formatter and netpipe pieces."""

import pytest

from repro.bench.netpipe import PingPongResult
from repro.bench.report import format_series, format_table
from repro.units import (
    MB,
    PAGE_SIZE,
    bandwidth_mb_s,
    page_align_down,
    page_align_up,
    pages_spanned,
    to_ms,
    to_seconds,
    to_us,
    transfer_time_ns,
    us,
)


# -- units ------------------------------------------------------------------


def test_time_conversions_roundtrip():
    assert us(4.2) == 4200
    assert to_us(4200) == 4.2
    assert to_ms(1_500_000) == 1.5
    assert to_seconds(2_000_000_000) == 2.0


def test_page_alignment():
    assert page_align_down(PAGE_SIZE + 5) == PAGE_SIZE
    assert page_align_up(PAGE_SIZE + 5) == 2 * PAGE_SIZE
    assert page_align_up(PAGE_SIZE) == PAGE_SIZE
    assert page_align_up(0) == 0


def test_pages_spanned_edge_cases():
    assert pages_spanned(0, 0) == 0
    assert pages_spanned(0, 1) == 1
    assert pages_spanned(PAGE_SIZE - 1, 2) == 2
    assert pages_spanned(0, PAGE_SIZE) == 1
    assert pages_spanned(1, PAGE_SIZE) == 2


def test_transfer_time_matches_rating():
    # 250 MB/s moves 250 bytes per microsecond
    assert transfer_time_ns(250, 250 * MB) == 1000
    assert transfer_time_ns(0, 250 * MB) == 0
    with pytest.raises(ValueError):
        transfer_time_ns(1, 0)


def test_bandwidth_mb_s():
    assert bandwidth_mb_s(250 * MB, 1_000_000_000) == pytest.approx(250.0)
    with pytest.raises(ValueError):
        bandwidth_mb_s(1, 0)


# -- netpipe helpers -------------------------------------------------------------


def test_pingpong_result_derived_metrics():
    r = PingPongResult(size=1_000_000, rounds=10, one_way_ns=4_000_000)
    assert r.one_way_us == 4000.0
    assert r.bandwidth_mb_s == pytest.approx(250.0)


# -- report ------------------------------------------------------------------------


def test_format_table_alignment_and_title():
    text = format_table("demo", ["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert lines[0] == "== demo =="
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table("t", ["a"], [["1", "2"]])


def test_format_series_renders_sizes_humanized():
    text = format_series("t", "size", [1024, 1048576], {"s": [1.0, 2.0]}, "us")
    assert "1k" in text
    assert "1M" in text
    assert "s (us)" in text


def test_format_series_length_mismatch_raises():
    with pytest.raises(ValueError):
        format_series("t", "x", [1, 2], {"s": [1.0]}, "us")
