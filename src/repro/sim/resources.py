"""Contended resources and message channels for the event engine.

:class:`Resource` models a unit (or pool) of hardware that requests must
queue for — a PCI bus, a DMA engine, one direction of a network link,
the host CPU.  :class:`Store` is an unbounded FIFO channel used for
request queues between model components (e.g. the host-to-NIC doorbell
queue, a server's incoming-request queue).

Both allocate their queues at first use and keep them from then on.  A
large fabric builds thousands of resources and stores that never queue
anything; an empty ``deque`` per queue would cost each of them ~700 B
of host memory for no simulated state.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from ..errors import SimulationError
from .engine import Environment, Event, Timeout


class _Request(Event):
    """Event that fires when the resource grants this request."""

    __slots__ = ("resource",)

    def __init__(self, env: Environment, resource: "Resource"):
        super().__init__(env, name=resource._req_name)
        self.resource = resource

    def release(self) -> None:
        """Return the granted slot to the resource."""
        self.resource.release(self)


class Resource:
    """A FIFO resource with ``capacity`` identical slots.

    Usage from a process::

        req = bus.request()
        yield req
        yield env.timeout(occupancy)
        req.release()

    ``acquire()`` is a convenience generator doing request+hold+release
    in one step for the very common "occupy for a fixed time" pattern.

    The FIFO of waiting requests is allocated when the first request has
    to queue, and kept from then on.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._req_name = f"req:{name}"
        self._in_use = 0
        self._waiting: Optional[deque[_Request]] = None
        # Invoked (if set) each time a request has to queue.  Lets an
        # analytic holder — the packet-train fast path — learn that the
        # resource just became contended and fall back to per-packet
        # simulation; None for everyone else, costing one load per queue.
        self.contention_cb: Optional[Any] = None
        # occupancy statistics
        self._busy_since: Optional[int] = None
        self.busy_time = 0

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting) if self._waiting is not None else 0

    def request(self) -> _Request:
        """Ask for a slot; the returned event fires when granted."""
        req = _Request(self.env, self)
        if self._in_use < self.capacity:
            self._grant(req)
        else:
            waiting = self._waiting
            if waiting is None:
                waiting = self._waiting = deque()
            waiting.append(req)
            cb = self.contention_cb
            if cb is not None:
                cb()
        return req

    def release(self, req: _Request) -> None:
        """Release a previously granted slot."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name}")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self.env.now - self._busy_since
            self._busy_since = None
        while self._waiting and self._in_use < self.capacity:
            self._grant(self._waiting.popleft())

    def _grant(self, req: _Request) -> None:
        self._in_use += 1
        if self._busy_since is None:
            self._busy_since = self.env.now
        # No value: a grant that held itself would be a reference cycle
        # per request, left for the cyclic collector.
        req.succeed()

    def acquire(self, hold_ns: int):
        """Generator: wait for a slot, hold it ``hold_ns``, release it.

        Intended to be delegated to from a process::

            yield from bus.acquire(transfer_time)

        When a slot is free the grant is synchronous (state changes
        immediately, exactly as :meth:`request` would make it), skipping
        the grant event's queue round-trip — the dominant resource
        pattern in the simulator is an uncontended hold.  That path
        yields its :class:`Timeout` directly and releases inline, with
        :meth:`release`'s accounting and check.
        """
        if self._in_use < self.capacity:
            # Inline _grant, minus the grant event: identical accounting
            # (a free slot implies no waiters, so FIFO order is moot).
            env = self.env
            self._in_use += 1
            if self._busy_since is None:
                self._busy_since = env.now
            try:
                if hold_ns > 0:
                    yield Timeout(env, hold_ns)
            finally:
                # Inline release(): an interrupt frees the slot at once.
                if self._in_use <= 0:
                    raise SimulationError(f"release() on idle resource {self.name}")
                self._in_use -= 1
                if self._in_use == 0 and self._busy_since is not None:
                    self.busy_time += env.now - self._busy_since
                    self._busy_since = None
                waiting = self._waiting
                while waiting and self._in_use < self.capacity:
                    self._grant(waiting.popleft())
            return
        req = self.request()
        yield req
        try:
            if hold_ns > 0:
                yield self.env.timeout(hold_ns)
        finally:
            req.release()

    def utilization(self) -> float:
        """Fraction of elapsed simulated time this resource was busy."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.env.now - self._busy_since
        return busy / self.env.now if self.env.now else 0.0


class Store:
    """Unbounded FIFO channel of Python objects between processes.

    ``put()`` never blocks (returns the stored item count); ``get()``
    returns an event firing with the next item, immediately if one is
    buffered.  Getters are served FIFO.  The item and getter queues are
    each allocated at first use and kept from then on.
    """

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self._get_name = f"get:{name}"
        self._items: Optional[deque[Any]] = None
        self._getters: Optional[deque[Event]] = None

    def __len__(self) -> int:
        return len(self._items) if self._items is not None else 0

    def put(self, item: Any) -> int:
        """Deposit ``item``; wakes the oldest waiting getter if any."""
        if self._getters:
            # Inline succeed(): a queued getter is pending by
            # construction (cancel() removes withdrawn ones), so the
            # triggered-twice / scheduled-twice checks are vacuous.
            ev = self._getters.popleft()
            ev._value = item
            ev._scheduled = True
            self.env._immediate.append(ev)
            return 0  # getters wait only while nothing is buffered
        items = self._items
        if items is None:
            items = self._items = deque()
        items.append(item)
        return len(items)

    def get(self) -> Event:
        """Event firing with the next item (immediately if buffered)."""
        ev = Event(self.env, name=self._get_name)
        if self._items:
            # Same inlining as put(): the event was created one line up.
            ev._value = self._items.popleft()
            ev._scheduled = True
            self.env._immediate.append(ev)
        else:
            getters = self._getters
            if getters is None:
                getters = self._getters = deque()
            getters.append(ev)
        return ev

    def cancel(self, getter: Event) -> bool:
        """Withdraw a pending getter (used by timed waits that lost the
        race against a timeout).  Returns True if the getter was still
        queued; False if it already fired or was never ours — in that
        case the caller must consume ``getter.value`` or re-``put`` it.
        """
        if self._getters is None:
            return False
        try:
            self._getters.remove(getter)
            return True
        except ValueError:
            return False

    def peek_all(self) -> tuple[Any, ...]:
        """Snapshot of buffered items (for tests and introspection)."""
        return tuple(self._items) if self._items is not None else ()
