"""The NIC's bounded virtual-to-physical translation table.

Introduced by U-Net/MM (paper section 2.2.1), this table is what memory
registration fills: one entry per registered page, keyed by
``(context, vpn)`` where *context* identifies the address space the
virtual page belongs to.  GM assumes one process per port, so the
context is normally the port; the paper's GMKRC shared-port trick
(section 3.2) instead encodes an address-space descriptor into the upper
bits of a 64-bit key — modeled faithfully in :mod:`repro.gmkrc.spaces`.

Capacity is bounded (real LANai cards held a few thousand entries).
When full, ``install`` fails unless the caller deregisters something —
which is exactly the pressure that makes pin-down caches evict lazily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import TranslationMiss, TranslationTableFull


@dataclass
class TranslationEntry:
    """One installed page translation."""

    context: int
    vpn: int
    pfn: int


class TranslationTable:
    """Fixed-capacity (context, vpn) -> pfn map on the NIC."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: dict[tuple[int, int], TranslationEntry] = {}
        self.lookup_count = 0
        self.install_count = 0

    def __len__(self) -> int:
        return len(self._entries)

    def install(self, context: int, vpn: int, pfn: int) -> TranslationEntry:
        """Install one page translation; idempotent re-install updates pfn."""
        key = (context, vpn)
        existing = self._entries.get(key)
        if existing is not None:
            existing.pfn = pfn
            return existing
        if len(self._entries) >= self.capacity:
            raise TranslationTableFull(
                f"translation table full ({self.capacity} entries)"
            )
        entry = TranslationEntry(context, vpn, pfn)
        self._entries[key] = entry
        self.install_count += 1
        return entry

    def install_range(self, context: int, base_vpn: int,
                      pfns: Sequence[int]) -> None:
        """Install translations for ``base_vpn + i -> pfns[i]``, all or
        nothing.

        The vectorial form of :meth:`install` used by registration: the
        capacity check runs once over the fresh keys (re-installs are
        updates and need no slot), so a mid-range
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
            existing = entries.get(key)
            if existing is not None:
                existing.pfn = pfn
            else:
                entries[key] = TranslationEntry(context, base_vpn + i, pfn)
        self.install_count += fresh

    def remove(self, context: int, vpn: int) -> None:
        """Remove one translation (deregistration)."""
        try:
            del self._entries[(context, vpn)]
        except KeyError:
            raise TranslationMiss(
                f"no translation for context={context} vpn={vpn:#x}"
            ) from None

    def lookup(self, context: int, vpn: int) -> int:
        """Translate: returns the pfn, or raises :class:`TranslationMiss`.

        A miss on the real hardware is fatal for the communication (the
        NIC cannot page-fault); callers treat it as a hard error.
        """
        self.lookup_count += 1
        entry = self._entries.get((context, vpn))
        if entry is None:
            raise TranslationMiss(f"no translation for context={context} vpn={vpn:#x}")
        return entry.pfn

    def get(self, context: int, vpn: int) -> Optional[int]:
        """Single probe: the pfn, or None if not installed.

        Unlike :meth:`lookup` this is host-side bookkeeping (silent
        deregistration, cache maintenance), not a charged NIC
        translation, so it does not count toward ``lookup_count``.
        """
        entry = self._entries.get((context, vpn))
        return None if entry is None else entry.pfn

    def has(self, context: int, vpn: int) -> bool:
        return (context, vpn) in self._entries

    def drop_context(self, context: int) -> int:
        """Remove every entry of one context (port close / AS death).

        Returns the number of entries dropped.
        """
        victims = [k for k in self._entries if k[0] == context]
        for k in victims:
            del self._entries[k]
        return len(victims)
