"""Discrete-event simulation engine.

A compact SimPy-style kernel: an :class:`Environment` holds an event
queue ordered by integer-nanosecond timestamps; :class:`Process` wraps a
generator that yields :class:`Event` objects (timeouts, other events,
composites, resource requests) and is resumed when they fire.

Design notes
------------
* Time is integer nanoseconds (see :mod:`repro.units`).  Two events at
  the same timestamp fire in schedule order (a monotonically increasing
  sequence number breaks ties), so runs are deterministic.
* Generator-based processes keep the hardware models readable: a NIC
  firmware loop is literally a ``while True`` loop with ``yield``\\ s for
  each pipeline stage.
* No wall-clock anywhere; the engine is pure.
"""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    Timeout,
    one_world,
)
from .resources import Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "Store",
    "Timeout",
    "one_world",
]
