"""The NIC's bounded virtual-to-physical translation table.

Introduced by U-Net/MM (paper section 2.2.1), this table is what memory
registration fills: one entry per registered page, keyed by
``(context, vpn)`` where *context* identifies the address space the
virtual page belongs to.  GM assumes one process per port, so the
context is normally the port; the paper's GMKRC shared-port trick
(section 3.2) instead encodes an address-space descriptor into the upper
bits of a 64-bit key — modeled faithfully in :mod:`repro.gmkrc.spaces`.

It is the only copy of GM's translations: registration installs into
it, and every GM send or receive from registered memory resolves its
pages through :meth:`TranslationTable.lookup_pages`.

Registrations may share a page (GMKRC builds overlapping entries on
purpose), so an entry is held by every registration that installed it
and stays until the last holder removes it.  A key has one slot: the
latest install's pfn is the translation, and when that holder goes the
translation falls back to the previous live holder's.

Capacity is bounded (real LANai cards held a few thousand entries).
When full, ``install_range`` fails unless the caller deregisters
something — which is exactly the pressure that makes pin-down caches
evict lazily.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import obs
from ..errors import TranslationMiss, TranslationTableFull


class TranslationTable:
    """Fixed-capacity (context, vpn) -> pfn map on the NIC."""

    def __init__(self, capacity: int, node: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: dict[tuple[int, int], int] = {}
        # Pfns of the earlier holders of a shared key, in install order
        # (absent for the usual single holder).
        self._shared: dict[tuple[int, int], list[int]] = {}
        self._m_lookups = obs.counter("nic.transtable.lookups", node=node)
        self._m_installs = obs.counter("nic.transtable.installs", node=node)

    def __len__(self) -> int:
        return len(self._entries)

    def install_range(self, context: int, base_vpn: int,
                      pfns: Sequence[int]) -> None:
        """Install translations for ``base_vpn + i -> pfns[i]``, all or
        nothing.

        The capacity check runs once over the fresh keys (a key already
        installed gains a holder and needs no slot), so a mid-range
        :class:`TranslationTableFull` can't leave a partial range behind.
        """
        entries = self._entries
        fresh = sum(1 for i in range(len(pfns))
                    if (context, base_vpn + i) not in entries)
        if len(entries) + fresh > self.capacity:
            raise TranslationTableFull(
                f"translation table full ({self.capacity} entries)"
            )
        for i, pfn in enumerate(pfns):
            key = (context, base_vpn + i)
            held = entries.get(key)
            if held is not None:
                self._shared.setdefault(key, []).append(held)
            entries[key] = pfn
        self._m_installs.inc(fresh)

    def remove(self, context: int, vpn: int, pfn: int) -> None:
        """Drop the hold of the registration that installed ``pfn`` for
        ``(context, vpn)``; the entry goes with its last holder."""
        key = (context, vpn)
        held = self._entries.get(key)
        earlier = self._shared.get(key)
        if held is None or (held != pfn and (not earlier or pfn not in earlier)):
            raise TranslationMiss(
                f"no translation to pfn {pfn:#x} for context={context} vpn={vpn:#x}"
            )
        if earlier is None:
            del self._entries[key]
            return
        if held == pfn:
            self._entries[key] = earlier.pop()
        else:
            earlier.remove(pfn)
        if not earlier:
            del self._shared[key]

    def lookup(self, context: int, vpn: int) -> int:
        """Translate: returns the pfn, or raises :class:`TranslationMiss`.

        A miss on the real hardware is fatal for the communication (the
        NIC cannot page-fault); callers treat it as a hard error.
        """
        return self.lookup_pages(context, vpn, 1)[0]

    def lookup_pages(self, context: int, vpn: int, npages: int) -> list[int]:
        """:meth:`lookup` of ``npages`` consecutive pages from ``vpn`` in
        one call: their pfns, in page order.  Counts one lookup per page
        translated, up to and including a missing one."""
        entries = self._entries
        pfns = []
        for page in range(vpn, vpn + npages):
            pfn = entries.get((context, page))
            if pfn is None:
                self._m_lookups.inc(len(pfns) + 1)
                raise TranslationMiss(
                    f"no translation for context={context} vpn={page:#x}")
            pfns.append(pfn)
        self._m_lookups.inc(npages)
        return pfns

    def get(self, context: int, vpn: int) -> Optional[int]:
        """Single probe: the pfn, or None if not installed.

        Unlike :meth:`lookup` this is host-side bookkeeping (silent
        deregistration, cache maintenance), not a charged NIC
        translation, so it does not count toward
        ``nic.transtable.lookups``.
        """
        return self._entries.get((context, vpn))
