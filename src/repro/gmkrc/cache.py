"""The pin-down cache over a shared kernel GM port.

Behaviour (paper sections 2.2.2 and 3.2):

* ``acquire(space, vaddr, length)`` returns the encoded key under which
  the range is registered on the port, registering on the flight on a
  miss.  Hits are (nearly) free; misses pay GM's full registration cost.
  The port's ordinary ``send``/``provide_receive_buffer`` take the key:
  it resolves through the NIC table like any registered address.
* Deregistration is **lazy**: entries persist after ``release`` and are
  only deregistered when the cached-page budget is exceeded (LRU among
  unreferenced entries) — "deregistration is delayed until it is really
  required (when no more pages can be registered)".
* VMA SPY keeps the cache coherent: munmap/mprotect/fork/exit of a
  watched space invalidates overlapping entries *before* the mapping
  changes, preventing the stale-translation corruption the paper warns
  about.
* ``enabled=False`` degrades the cache to register-per-acquire (still
  with lazy deregistration), the configuration behind the "20 % lower"
  ORFS measurement of section 3.2/figure 3(b).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import OrderedDict
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
#: Bookkeeping cost of tearing down an invalidated entry from a VMA SPY
#: callback (translation removal is piggybacked on the unmap).
_INVALIDATE_NS = 700


@dataclass
class CacheEntry:
    """One cached registration: a page-aligned range of one space."""

    space: AddressSpace
    base: int  # page aligned
    length: int  # page aligned
    key_base: int  # encoded 64-bit key of ``base``
    region: object  # the underlying GmRegion
    refcount: int = 0
    last_use: int = 0
    valid: bool = True
    ins_seq: int = 0  # installation order (lookup/eviction tie-break)

    @property
    def npages(self) -> int:
        return self.length >> 12

    def covers(self, vaddr: int, length: int) -> bool:
        return self.valid and self.base <= vaddr and vaddr + length <= self.base + self.length

    def overlaps(self, start: int, length: int) -> bool:
        return self.base < start + length and start < self.base + self.length


class _SpaceIndex:
    """Sorted interval index over one address space's cache entries.

    ``order`` holds ``(base, ins_seq)`` pairs kept sorted; ``by_key``
    maps the same pair to the entry.  A covering-range lookup bisects to
    the last entry whose base is ``<= vaddr`` and walks left; since
    bases decrease leftwards and no entry is longer than ``max_len``
    (a high-water mark), the walk stops as soon as even a maximal entry
    rooted there could no longer reach the end of the queried range —
    O(log n + candidates) instead of the old full-list scan.
    """

    __slots__ = ("order", "by_key", "max_len")

    def __init__(self):
        self.order: list[tuple[int, int]] = []
        self.by_key: dict[tuple[int, int], CacheEntry] = {}
        self.max_len = 0

    def add(self, entry: CacheEntry) -> None:
        key = (entry.base, entry.ins_seq)
        insort(self.order, key)
        self.by_key[key] = entry
        if entry.length > self.max_len:
            self.max_len = entry.length

    def remove(self, entry: CacheEntry) -> None:
        key = (entry.base, entry.ins_seq)
        del self.by_key[key]
        i = bisect_right(self.order, key) - 1
        assert self.order[i] == key
        self.order.pop(i)
        # max_len stays a high-water mark; shrinking it would need a
        # rescan and only costs lookup candidates, not correctness.

    def find_covering(self, vaddr: int, length: int) -> Optional[CacheEntry]:
        """First-*installed* valid entry covering ``[vaddr, vaddr+length)``
        (exactly what the old insertion-ordered scan returned)."""
        order = self.order
        end = vaddr + length
        floor = end - self.max_len  # leftmost base that could still cover
        i = bisect_right(order, (vaddr, float("inf"))) - 1
        best: Optional[CacheEntry] = None
        while i >= 0:
            key = order[i]
            if key[0] < floor:
                break
            entry = self.by_key[key]
            if entry.covers(vaddr, length) and (best is None or entry.ins_seq < best.ins_seq):
                best = entry
            i -= 1
        return best

    def entries_in_ins_order(self) -> list[CacheEntry]:
        return sorted(self.by_key.values(), key=lambda e: e.ins_seq)


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
        coherent: bool = True,
    ):
        """``coherent=False`` disables the VMA SPY subscription — the
        broken configuration the paper warns about (section 2.2.2): the
        cache keeps serving translations that munmap/fork invalidated,
        and transfers silently hit the *old* physical pages.  Exists for
        failure-injection tests and the pitfalls example; never use it
        for anything else."""
        self.port = port
        self.vmaspy = vmaspy
        self.max_cached_pages = max_cached_pages
        self.enabled = enabled
        self.coherent = coherent
        self.env = port.env
        self.cpu = port.cpu
        self._spaces: dict[int, _SpaceIndex] = {}  # asid -> interval index
        # Entries in last_use order, oldest first (touches are monotonic
        # in simulated time, so moving a touched entry to the end keeps
        # the dict sorted); keyed by installation sequence.
        self._lru: "OrderedDict[int, CacheEntry]" = OrderedDict()
        self._ins_seq = 0
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
            self._touch(entry)
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
        self._touch(entry)

    # -- internals --------------------------------------------------------------------

    def _touch(self, entry: CacheEntry) -> None:
        entry.last_use = self.env.now
        self._lru.move_to_end(entry.ins_seq)

    def _find(self, space: AddressSpace, vaddr: int, length: int
              ) -> Optional[CacheEntry]:
        index = self._spaces.get(space.asid)
        if index is None:
            return None
        return index.find_covering(vaddr, length)

    def _drop(self, entry: CacheEntry) -> None:
        entry.valid = False
        self._spaces[entry.space.asid].remove(entry)
        del self._lru[entry.ins_seq]
        self._cached_pages -= entry.npages

    def _install(self, space: AddressSpace, vaddr: int, length: int):
        base = vaddr & ~PAGE_MASK
        aligned_len = page_align_up(vaddr + length) - base
        yield from self._make_room(aligned_len >> 12)
        key_base = encode_key(space.asid, base)
        region = yield from self.port.domain.register_user(
            space, base, aligned_len, key_vaddr=key_base
        )
        self._ins_seq += 1
        entry = CacheEntry(
            space=space,
            base=base,
            length=aligned_len,
            key_base=key_base,
            region=region,
            last_use=self.env.now,
            ins_seq=self._ins_seq,
        )
        index = self._spaces.get(space.asid)
        if index is None:
            index = self._spaces[space.asid] = _SpaceIndex()
        index.add(entry)
        self._lru[entry.ins_seq] = entry
        self._cached_pages += entry.npages
        self._ensure_watch(space)
        return entry

    def _pick_victim(self) -> Optional[CacheEntry]:
        """Oldest unreferenced entry; among equal ``last_use``, the
        earliest-installed one (the old scan's ``min`` tie-break)."""
        best: Optional[CacheEntry] = None
        for entry in self._lru.values():
            if best is not None and entry.last_use != best.last_use:
                break  # LRU order: later entries can only be newer
            if entry.refcount == 0 and (best is None or entry.ins_seq < best.ins_seq):
                best = entry
        return best

    def _make_room(self, need_pages: int):
        """Lazily deregister LRU unreferenced entries until the new
        registration fits the page budget."""
        while self._cached_pages + need_pages > self.max_cached_pages:
            victim = self._pick_victim()
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
        if not self.coherent or space.asid in self._watched:
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
        index = self._spaces.get(space.asid)
        if index is None:
            doomed: list[CacheEntry] = []
        elif change.kind in (ChangeKind.FORK, ChangeKind.EXIT):
            doomed = index.entries_in_ins_order()
        else:
            doomed = [
                e
                for e in index.entries_in_ins_order()
                if e.overlaps(change.start, change.length)
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
        return len(self._lru)
