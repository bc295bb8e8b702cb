"""The pin-down cache over a shared kernel GM port.

Behaviour (paper sections 2.2.2 and 3.2):

* ``acquire(space, vaddr, length)`` returns the encoded key under which
  the range is registered on the port, registering on the flight on a
  miss.  Hits are (nearly) free; misses pay GM's full registration cost.
  The port's ordinary ``send``/``provide_receive_buffer`` take the key:
  it resolves through the NIC table like any registered address.
* Deregistration is **lazy**: entries persist after ``release`` and are
  only deregistered when the cached-page budget is exceeded (the least
  recently used unreferenced entry goes first) — "deregistration is
  delayed until it is really required (when no more pages can be
  registered)".
* Live entries sit in one list in install order: a lookup takes the
  first entry of the space that covers the range, eviction the first
  unreferenced entry with the oldest ``last_use``.
* VMA SPY keeps the cache coherent: munmap/mprotect/fork/exit of a
  watched space invalidates overlapping entries *before* the mapping
  changes, preventing the stale-translation corruption the paper warns
  about.
* ``enabled=False`` degrades the cache to register-per-acquire (still
  with lazy deregistration), the configuration behind the "20 % lower"
  ORFS measurement of section 3.2/figure 3(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..errors import GMError
from ..gm.api import GmPort
from ..kernel.vmaspy import VmaSpy
from ..mem.addrspace import AddressSpace, AddressSpaceChange, ChangeKind
from ..units import PAGE_MASK, page_align_up
from .spaces import encode_key

#: CPU cost of the cache lookup itself (hash + interval check).
_LOOKUP_NS = 300


@dataclass(eq=False)
class CacheEntry:
    """One cached registration: a page-aligned range of one space."""

    space: AddressSpace
    base: int  # page aligned
    length: int  # page aligned
    region: object  # the underlying GmRegion
    refcount: int = 0
    last_use: int = 0
    valid: bool = True

    @property
    def npages(self) -> int:
        return self.length >> 12

    def covers(self, vaddr: int, length: int) -> bool:
        return self.valid and self.base <= vaddr and vaddr + length <= self.base + self.length

    def overlaps(self, start: int, length: int) -> bool:
        return self.base < start + length and start < self.base + self.length


class Gmkrc:
    """Registration cache bound to one GM port.

    Normally a shared *kernel* port (GMKRC proper); the same mechanism
    also serves the user-space ORFA client's registration cache, where
    the "VMA SPY" role is played by the shared library intercepting the
    application's address-space calls (paper section 3.1).
    """

    def __init__(
        self,
        port: GmPort,
        vmaspy: VmaSpy,
        max_cached_pages: int = 2048,
        enabled: bool = True,
    ):
        self.port = port
        self.vmaspy = vmaspy
        self.max_cached_pages = max_cached_pages
        self.enabled = enabled
        self.env = port.env
        self.cpu = port.cpu
        self._entries: list[CacheEntry] = []  # live, in install order
        self._cached_pages = 0
        self._watched: dict[int, object] = {}  # asid -> vmaspy watch handle
        # Cache accounting on the metrics registry.
        _labels = dict(node=port.node.node_id, port=port.port_id)
        self._m_hits = obs.counter("gmkrc.hits", **_labels)
        self._m_misses = obs.counter("gmkrc.misses", **_labels)
        self._m_inval = obs.counter("gmkrc.invalidations", **_labels)
        self._m_lazy = obs.counter("gmkrc.lazy_deregistrations", **_labels)

    # -- the public API (paper: "in-kernel users still pass normal 32 bits
    # pointers to the GMKRC API") -------------------------------------------------

    def acquire(self, space: AddressSpace, vaddr: int, length: int):
        """Generator: ensure [vaddr, vaddr+length) of ``space`` is
        registered; returns (encoded key vaddr, CacheEntry).

        The returned key is what the caller passes to the port's
        ``send``/``provide_receive_buffer``, which take it like any other
        registered address.
        """
        if length <= 0:
            raise GMError("acquire of empty range")
        yield from self.cpu.work(_LOOKUP_NS)
        entry = self._find(space, vaddr, length)
        if entry is not None:
            if self.enabled:
                self._m_hits.inc()
            else:
                # Cache disabled: the range gets registered again on
                # every access.  The translations and pins are already in
                # place, so only the registration *cost* recurs — this is
                # the "without any cache hit" regime behind the 20 %
                # slowdown of figure 3(b).
                self._m_misses.inc()
                base = vaddr & ~PAGE_MASK
                npages = (page_align_up(vaddr + length) - base) >> 12
                yield from self.cpu.pin_pages(npages)
                yield from self.cpu.work(
                    self.port.domain.register_cost_ns(npages)
                )
            entry.refcount += 1
            entry.last_use = self.env.now
            return encode_key(space.asid, vaddr), entry
        self._m_misses.inc()
        entry = yield from self._install(space, vaddr, length)
        entry.refcount += 1
        return encode_key(space.asid, vaddr), entry

    def release(self, entry: CacheEntry) -> None:
        """Drop a use reference; the registration stays cached."""
        if entry.refcount <= 0:
            raise GMError("unbalanced GMKRC release")
        entry.refcount -= 1
        entry.last_use = self.env.now

    # -- internals --------------------------------------------------------------------

    def _find(self, space: AddressSpace, vaddr: int, length: int
              ) -> Optional[CacheEntry]:
        asid = space.asid
        for entry in self._entries:
            if entry.space.asid == asid and entry.covers(vaddr, length):
                return entry
        return None

    def _drop(self, entry: CacheEntry) -> None:
        entry.valid = False
        self._entries.remove(entry)
        self._cached_pages -= entry.npages

    def _install(self, space: AddressSpace, vaddr: int, length: int):
        base = vaddr & ~PAGE_MASK
        aligned_len = page_align_up(vaddr + length) - base
        yield from self._make_room(aligned_len >> 12)
        region = yield from self.port.domain.register_user(
            space, base, aligned_len, key_vaddr=encode_key(space.asid, base)
        )
        entry = CacheEntry(
            space=space,
            base=base,
            length=aligned_len,
            region=region,
            last_use=self.env.now,
        )
        self._entries.append(entry)
        self._cached_pages += entry.npages
        self._ensure_watch(space)
        return entry

    def _make_room(self, need_pages: int):
        """Lazily deregister the least recently used unreferenced
        entries (the earliest installed among equals) until the new
        registration fits the page budget."""
        while self._cached_pages + need_pages > self.max_cached_pages:
            victim = min((e for e in self._entries if e.refcount == 0),
                         key=lambda e: e.last_use, default=None)
            if victim is None:
                raise GMError(
                    "GMKRC budget exceeded and every entry is in use"
                )
            # This is where the deferred ~200 us deregistration bill
            # finally comes due.
            yield from self.port.domain.deregister(victim.region)
            self._drop(victim)
            self._m_lazy.inc()

    # -- VMA SPY coherence -----------------------------------------------------------

    def _ensure_watch(self, space: AddressSpace) -> None:
        if space.asid in self._watched:
            return
        handle = self.vmaspy.watch(space, self._on_change)
        self._watched[space.asid] = handle

    def _on_change(self, change: AddressSpaceChange) -> None:
        """Invalidate cached registrations made stale by the change.

        Runs synchronously *before* the address space mutates (the VMA
        SPY contract), so translations are still resolvable.  FORK and
        EXIT flush every entry of the space; UNMAP/PROTECT only the
        overlapping ones.
        """
        space = change.space
        whole = change.kind in (ChangeKind.FORK, ChangeKind.EXIT)
        doomed = [
            e
            for e in self._entries
            if e.space.asid == space.asid
            and (whole or e.overlaps(change.start, change.length))
        ]
        for entry in doomed:
            self.port.domain.remove_silently(entry.region)
            self._drop(entry)
            self._m_inval.inc()
        if change.kind is ChangeKind.EXIT:
            handle = self._watched.pop(space.asid, None)
            if handle is not None:
                self.vmaspy.unwatch(handle)

    # -- introspection ------------------------------------------------------------------

    def entry_count(self) -> int:
        return len(self._entries)
