"""Benchmark harness: NetPIPE-style ping-pong, transports, figure drivers.

The measurement methodology mirrors the paper's: latency is half the
averaged round-trip of a ping-pong (NetPIPE [Net]); bandwidth is
``size / one_way_time`` at each message size.  One :class:`Transport`
adapter per protocol stack (GM user/kernel, MX user/kernel with copy
flags, the sockets, TCP/IP) lets every figure reuse one harness.

``python -m repro.bench <figure>`` regenerates any table/figure; see
:mod:`repro.bench.figures` for the per-experiment drivers and
EXPERIMENTS.md for paper-vs-measured results.
"""

from .netpipe import PingPongResult, ping_pong
from .report import format_series, format_table

__all__ = [
    "PingPongResult",
    "format_series",
    "format_table",
    "ping_pong",
]
