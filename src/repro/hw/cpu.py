"""Host CPU model: a contended resource that charges for copies and work.

All host-side software costs (API overheads, memory copies, protocol
processing) occupy the CPU resource, so concurrent activities serialize
realistically and every cycle the communication stack steals from the
application delays whatever else wants the CPU — the paper's core
motivation for zero-copy ("These copies are CPU consuming while the user
parallel application needs the CPU for its computations", section 2.1).
"""

from __future__ import annotations

from ..sim import Environment, Resource
from ..units import S
from .params import CpuParams


class Cpu:
    """One host CPU (the paper's nodes are dual-Xeon; capacity=2)."""

    def __init__(self, env: Environment, params: CpuParams, capacity: int = 2,
                 name: str = "cpu"):
        self.env = env
        self.params = params
        self.name = name
        self.resource = Resource(env, capacity=capacity, name=name)

    def copy_time_ns(self, nbytes: int) -> int:
        """Pure cost of copying ``nbytes``, no queueing.

        Two-regime model: the first ``copy_cache_threshold`` bytes move
        at the cache-resident rate, the remainder at the streaming rate
        (see :class:`repro.hw.params.CpuParams`).
        """
        if nbytes < 0:
            raise ValueError(f"negative copy size {nbytes}")
        if nbytes == 0:
            return 0
        p = self.params
        cached = min(nbytes, p.copy_cache_threshold)
        streamed = nbytes - cached
        t = cached * S / p.copy_bandwidth_cached
        if streamed:
            t += streamed * S / p.copy_bandwidth_stream
        return p.copy_setup_ns + max(1, round(t))

    def copy(self, nbytes: int):
        """Generator: occupy the CPU for a copy of ``nbytes``.

        Usage: ``yield from cpu.copy(n)``.
        """
        return self.resource.acquire(self.copy_time_ns(nbytes))

    def work(self, duration_ns: int):
        """Generator: occupy the CPU for fixed-duration software work.

        Like every charge here it hands back the resource's ``acquire``
        generator itself, so ``yield from cpu.work(n)`` adds no
        generator frame of its own.
        """
        if duration_ns < 0:
            raise ValueError(f"negative work duration {duration_ns}")
        return self.resource.acquire(duration_ns)

    def pin_pages(self, npages: int):
        """Generator: charge get_user_pages-style pinning for npages."""
        return self.resource.acquire(self.params.pin_page_ns * npages)

    def syscall(self):
        """Generator: charge one user/kernel boundary crossing."""
        return self.resource.acquire(self.params.syscall_ns)
