"""GM memory registration: pinning + NIC translation-table installs.

``gm_register_memory`` pins the pages of a virtual range and installs
their translations in the NIC table; ``gm_deregister_memory`` undoes it.
Costs follow the paper's measurements (section 2.2.2, figure 1(b)):
~3 us per page to register, plus a ~200 us base for deregistration —
which is why "this model is only interesting for large memory zones
that are used several times" and why pin-down caches exist.

A :class:`RegistrationDomain` owns the regions of one translation
context (one port, or one GMKRC shared port).  Registration keys are
*virtual* page numbers: the same key namespace GMKRC later extends with
address-space descriptors in the high bits (:mod:`repro.gmkrc.spaces`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..errors import GMRegistrationError
from ..hw.cpu import Cpu
from ..mem.addrspace import AddressSpace
from ..mem.kmem import KernelSpace
from ..mem.phys import Frame
from ..nicfw.transtable import TranslationTable
from ..hw.params import GM_REGISTRATION
from ..units import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, pages_spanned


@dataclass
class GmRegion:
    """One registered virtual range.

    The translations themselves live only in the NIC's
    :class:`~repro.nicfw.transtable.TranslationTable`, keyed by
    ``(context, vaddr >> PAGE_SHIFT)`` onwards; the region keeps just
    the pinned frames its deregistration must unpin (none for kernel
    memory, which registration never pins).
    """

    context: int
    vaddr: int  # page-aligned base (possibly an encoded 64-bit key)
    npages: int
    frames: list[Frame]  # user pages pinned by registration
    active: bool = True


class RegistrationDomain:
    """Registration state for one translation context on one NIC."""

    def __init__(self, cpu: Cpu, table: TranslationTable, context: int):
        self.cpu = cpu
        self.table = table
        self.context = context
        self._regions: list[GmRegion] = []
        # With a registry installed these aggregate over every domain of
        # one host CPU.
        self._m_reg = obs.counter("gm.registrations", cpu=cpu.name)
        self._m_dereg = obs.counter("gm.deregistrations", cpu=cpu.name)
        self._m_pages = obs.gauge("gm.registered_pages", cpu=cpu.name)

    # -- cost helpers -----------------------------------------------------------

    @staticmethod
    def register_cost_ns(npages: int) -> int:
        p = GM_REGISTRATION
        return p.register_base_ns + p.register_per_page_ns * npages

    @staticmethod
    def deregister_cost_ns(npages: int) -> int:
        p = GM_REGISTRATION
        return p.deregister_base_ns + p.deregister_per_page_ns * npages

    # -- operations ---------------------------------------------------------------

    def register_user(self, space: AddressSpace, vaddr: int, length: int,
                      key_vaddr: Optional[int] = None):
        """Generator: register a user-virtual range.

        Pins the pages (get_user_pages), charges the registration cost
        and installs one translation entry per page.  ``key_vaddr``
        optionally decouples the table key namespace from the real
        virtual address — the hook GMKRC's encoded 64-bit keys use.
        """
        npages = _npages(vaddr, length)
        key = key_vaddr if key_vaddr is not None else vaddr
        if self.find(key, length):
            raise GMRegistrationError(
                f"range {vaddr:#x}+{length} overlaps an active registration"
            )
        frames = space.pin_range(vaddr, length)
        yield from self.cpu.pin_pages(npages)
        yield from self.cpu.work(self.register_cost_ns(npages))
        return self._add(key & ~PAGE_MASK, [frame.pfn for frame in frames],
                         frames)

    def register_kernel(self, kspace: KernelSpace, vaddr: int, length: int):
        """Generator: register a kernel-virtual range (already pinned, so
        no pins are taken and no page frame is looked up)."""
        base = vaddr & ~PAGE_MASK
        npages = _npages(vaddr, length)
        yield from self.cpu.work(self.register_cost_ns(npages))
        pfns = [kspace.translate(base + i * PAGE_SIZE) >> PAGE_SHIFT
                for i in range(npages)]
        return self._add(base, pfns, [])

    def _add(self, key_base: int, pfns: list[int], frames: list[Frame]) -> GmRegion:
        """Install a registered range's translations and account it."""
        npages = len(pfns)
        self.table.install_range(self.context, key_base >> PAGE_SHIFT, pfns)
        region = GmRegion(self.context, key_base, npages, frames)
        self._regions.append(region)
        self._m_reg.inc()
        self._m_pages.inc(npages)
        return region

    def deregister(self, region: GmRegion):
        """Generator: remove a region's translations and (for user
        registrations) drop the pins."""
        if not region.active:
            raise GMRegistrationError("region already deregistered")
        yield from self.cpu.work(self.deregister_cost_ns(region.npages))
        self.remove_silently(region)

    def remove_silently(self, region: GmRegion) -> None:
        """Tear a region down without charging the deregistration cost.

        Used when the translations are already gone for free (port
        close, address-space death) or when the caller accounts the cost
        itself.
        """
        if not region.active:
            return
        region.active = False
        # Drop this region's hold on each of its entries; a page another
        # live region also registered keeps its translation.  Kernel
        # regions pinned no frames: a kernel virtual page never changes
        # its frame, so every holder of its entry installed the same pfn.
        base_vpn = region.vaddr >> PAGE_SHIFT
        table, context = self.table, self.context
        for i, vpn in enumerate(range(base_vpn, base_vpn + region.npages)):
            pfn = (region.frames[i].pfn if region.frames
                   else table.get(context, vpn))
            table.remove(context, vpn, pfn)
        for frame in region.frames:
            frame.unpin()
        self._regions.remove(region)
        self._m_dereg.inc()
        self._m_pages.dec(region.npages)

    # -- queries --------------------------------------------------------------------

    def find(self, vaddr: int, length: int) -> Optional[GmRegion]:
        """The active region covering [vaddr, vaddr+length), if any.

        ``vaddr`` is in the *key* namespace (identical to the virtual
        address except under GMKRC encoding).
        """
        end = vaddr + length
        for region in self._regions:
            start = region.vaddr
            if region.active and start <= vaddr \
                    and end <= start + region.npages * PAGE_SIZE:
                return region
        return None

    def teardown(self) -> None:
        """Drop everything (port close): free on real GM, no dereg cost."""
        for region in list(self._regions):
            self.remove_silently(region)


def _npages(vaddr: int, length: int) -> int:
    npages = pages_spanned(vaddr, length)
    if npages == 0:
        raise GMRegistrationError("cannot register an empty range")
    return npages
