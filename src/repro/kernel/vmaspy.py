"""VMA SPY: notification of address-space modifications to kernel modules.

One of the paper's contributions (section 3.2): "the LINUX kernel does
not provide any mechanism for such tracing in a kernel context.  Thus,
we developed a generic infrastructure called VMA SPY allowing any
external module to ask for notification of address space modifications
(for instance, mapping or protection change, or fork)."

(Historically this is the ancestor of what mainline Linux much later
grew as mmu-notifiers.)

The spy multiplexes any number of watcher modules over the raw listener
hook of :class:`repro.mem.AddressSpace`, adds per-kind filtering, keeps
registration bookkeeping so watchers can be detached cleanly when a
module unloads, and guarantees watchers are called *before* the
modification takes effect (inherited from the AddressSpace contract), so
a registration cache can still resolve the translations it must
invalidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .. import obs
from ..errors import KernelError
from ..mem.addrspace import AddressSpace, AddressSpaceChange, ChangeKind

WatchCallback = Callable[[AddressSpaceChange], None]


@dataclass
class _Watch:
    """One module's subscription on one address space."""

    space: AddressSpace
    callback: WatchCallback
    kinds: Optional[frozenset[ChangeKind]]  # None = all kinds
    active: bool = True


class VmaSpy:
    """The per-kernel VMA SPY registry."""

    def __init__(self, name: str = "vmaspy"):
        self.name = name
        self._watches: list[_Watch] = []
        self._hooked: dict[int, tuple[AddressSpace, Callable]] = {}
        # Delivery accounting on the metrics registry.
        self._m_delivered = obs.counter("vmaspy.notifications", spy=name)

    def watch(
        self,
        space: AddressSpace,
        callback: WatchCallback,
        kinds: Optional[set[ChangeKind]] = None,
    ) -> _Watch:
        """Subscribe ``callback`` to modifications of ``space``.

        ``kinds`` restricts delivery (e.g. only UNMAP and FORK); by
        default every modification is delivered.  Returns a handle for
        :meth:`unwatch`.
        """
        watch = _Watch(
            space=space,
            callback=callback,
            kinds=frozenset(kinds) if kinds is not None else None,
        )
        self._watches.append(watch)
        if space.asid not in self._hooked:
            hook = self._make_hook(space.asid)
            space.add_listener(hook)
            self._hooked[space.asid] = (space, hook)
        return watch

    def unwatch(self, watch: _Watch) -> None:
        """Detach a subscription (module unload)."""
        if not watch.active:
            raise KernelError("unwatch of an already-detached VMA SPY watch")
        watch.active = False
        self._watches.remove(watch)
        asid = watch.space.asid
        if not any(w.space.asid == asid for w in self._watches):
            space, hook = self._hooked.pop(asid)
            space.remove_listener(hook)

    def watch_count(self, space: Optional[AddressSpace] = None) -> int:
        """Number of active watches (optionally on one space)."""
        if space is None:
            return len(self._watches)
        return sum(1 for w in self._watches if w.space.asid == space.asid)

    def _make_hook(self, asid: int) -> Callable[[AddressSpaceChange], None]:
        def hook(change: AddressSpaceChange) -> None:
            # Snapshot: a watcher may unwatch itself during delivery.
            for watch in list(self._watches):
                if not watch.active or watch.space.asid != asid:
                    continue
                if watch.kinds is not None and change.kind not in watch.kinds:
                    continue
                self._m_delivered.inc()
                watch.callback(change)

        return hook
