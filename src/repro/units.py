"""Unit helpers: all simulation time is integer nanoseconds, all sizes bytes.

The simulator clock is an ``int`` counting nanoseconds since simulation
start.  Keeping time integral makes runs bit-for-bit deterministic and
avoids float accumulation drift over long streaming benchmarks.  These
helpers convert to and from the human-scale units the paper uses
(microseconds for latency, MB/s for bandwidth).

Bandwidth in the paper is decimal (1 MB = 10**6 bytes), matching how
Myricom specified link rates (250 MB/s for PCI-XD, 500 MB/s for PCI-XE).
"""

from __future__ import annotations

# -- time ------------------------------------------------------------------

NS = 1
US = 1_000
MS = 1_000_000
S = 1_000_000_000


def us(value: float) -> int:
    """Convert microseconds to integer nanoseconds (rounded)."""
    return round(value * US)


def ms(value: float) -> int:
    """Convert milliseconds to integer nanoseconds (rounded)."""
    return round(value * MS)


def to_us(ns_value: int) -> float:
    """Convert integer nanoseconds to float microseconds."""
    return ns_value / US


def to_ms(ns_value: int) -> float:
    """Convert integer nanoseconds to float milliseconds."""
    return ns_value / MS


def to_seconds(ns_value: int) -> float:
    """Convert integer nanoseconds to float seconds."""
    return ns_value / S


# -- sizes -----------------------------------------------------------------

KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024

MB = 10**6  # decimal megabyte, used for link/bus bandwidth ratings
GB = 10**9

PAGE_SIZE = 4096  # paper section 3.3: "4 kB on our architecture" (IA32)
PAGE_SHIFT = 12
PAGE_MASK = PAGE_SIZE - 1


def pages_spanned(addr: int, length: int) -> int:
    """Number of pages touched by the byte range [addr, addr+length).

    A zero-length range touches no pages.  This matters for registration
    cost accounting: GM charges per page actually pinned.
    """
    if length <= 0:
        return 0
    first = addr >> PAGE_SHIFT
    last = (addr + length - 1) >> PAGE_SHIFT
    return last - first + 1


def page_align_down(addr: int) -> int:
    """Round ``addr`` down to the containing page boundary."""
    return addr & ~PAGE_MASK


def page_align_up(addr: int) -> int:
    """Round ``addr`` up to the next page boundary (identity if aligned)."""
    return (addr + PAGE_MASK) & ~PAGE_MASK


# -- bandwidth -------------------------------------------------------------


def transfer_time_ns(size_bytes: int, bandwidth_bytes_per_s: float) -> int:
    """Wire/bus occupancy in ns for ``size_bytes`` at the given bandwidth.

    Rounds up: a transfer occupies at least one whole nanosecond per
    partially-used nanosecond, which keeps back-to-back streaming
    conservative rather than optimistic.
    """
    if size_bytes <= 0:
        return 0
    if bandwidth_bytes_per_s <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_bytes_per_s}")
    exact = size_bytes * S / bandwidth_bytes_per_s
    return max(1, int(-(-exact // 1)))  # ceil


def bandwidth_mb_s(size_bytes: int, elapsed_ns: int) -> float:
    """Achieved bandwidth in decimal MB/s, as the paper's plots report it."""
    if elapsed_ns <= 0:
        raise ValueError(f"elapsed time must be positive, got {elapsed_ns}")
    return size_bytes * S / elapsed_ns / MB
