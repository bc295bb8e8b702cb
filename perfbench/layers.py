"""Per-layer host-time tracer for the ``repro`` simulator.

:class:`LayerTracer` wraps, from outside the program, every function and
method defined in the ``repro`` packages, and keeps a stack of the layers
currently executing.  Whenever control crosses from one layer into
another, the host time since the last crossing is charged to the layer
that was running, so a layer's *self time* excludes the time spent in
the layers it calls.  A call that stays inside its caller's layer costs
one counter increment and no clock read.

Generator functions (the simulator's processes and ``yield from``
helpers) are wrapped so that each *resumption* is timed as one entry into
the layer: the time a process sits suspended in the engine's queue is
never charged to it.  Calls are counted once per call, not once per
resumption.

Limits, stated so the numbers are read correctly:

* functions created at run time (closures inside a figure driver, the
  ``arm`` closures of a chaos scenario) are not wrapped; their own
  bytecode is charged to whichever layer called or resumed them, which
  for a process body is ``sim.engine``;
* properties are not wrapped (``Environment.now`` would dominate the
  call count while doing nothing);
* everything outside the program (the benchmark's own code and the time
  before the first crossing) is charged to ``harness``.

The tracer changes no simulated result: wrappers pass arguments, return
values, exceptions and generator protocol through unchanged.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
import types
from enum import Enum

HARNESS = "harness"

#: Module prefix -> layer name, longest prefix wins.  Every other module
#: belongs to its top-level package (``repro.gm.api`` -> ``gm``).
_LAYER_PREFIXES = {
    "repro.sim.engine": "sim.engine",
    "repro.sim.resources": "sim.resources",
    "repro.sim.trace": "sim.trace",
    "repro.sim": "sim.shard",
    "repro.hw.cpu": "hw.cpu",
    "repro.hw.train": "hw.train",
    "repro.hw.link": "hw.link",
    "repro.hw.wire": "hw.link",
    "repro.hw.nic": "hw.nic",
    "repro.hw.flow": "hw.flow",
    "repro.hw.switch": "hw.switch",
    "repro.hw": "hw.params",
    "repro.mem.phys": "mem.phys",
    "repro.mem.sglist": "mem.sglist",
    "repro.mem.kmem": "mem.kmem",
    "repro.mem": "mem.addrspace",
    "repro.cluster.node": "cluster.node",
    "repro.cluster": "cluster.topo",
    "repro.nbd.replica": "nbd.replica",
    "repro.nbd.linearize": "nbd.linearize",
    "repro.errors": "repro",
    "repro.units": "repro",
}

#: Every layer the tracer can report, in report order.
LAYERS = (
    "sim.engine", "sim.resources", "sim.trace", "sim.shard",
    "hw.cpu", "hw.train", "hw.link", "hw.nic", "hw.flow", "hw.switch",
    "hw.params", "mem.phys", "mem.sglist", "mem.kmem", "mem.addrspace",
    "kernel", "cluster.topo", "cluster.node", "core", "nicfw",
    "gm", "gmkrc", "mx", "orfs", "orfa", "sockets", "mpi",
    "load", "fleet", "obs", "nbd", "nbd.replica", "nbd.linearize",
    "faults", "bench", "repro", HARNESS,
)

_KEPT_DUNDERS = ("__init__", "__call__")


def layer_of(module_name: str) -> str:
    """The layer a ``repro`` module's code is charged to."""
    best = ""
    for prefix in _LAYER_PREFIXES:
        if (module_name == prefix or module_name.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    if best:
        return _LAYER_PREFIXES[best]
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else "repro"


def program_modules() -> list:
    """Import and return every ``repro`` module except ``__main__`` ones
    (importing those would run a CLI)."""
    import repro

    mods = [repro]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        mods.append(importlib.import_module(info.name))
    return mods


class LayerTracer:
    """Wraps the program's functions; accumulates self time and calls.

    Use as a context manager around the traced work; the originals are
    restored on exit.  ``self_s`` maps layer -> host seconds, ``calls``
    maps ``module:qualname`` -> number of calls, ``external_calls`` the
    same counted only for calls made from another layer, and ``probes``
    holds the hits of the argument probes passed to the constructor.
    """

    def __init__(self, probes: dict | None = None):
        #: ``module:qualname`` -> (probe name, predicate over the call's
        #: positional arguments) counted before the call runs.
        self._probe_specs = dict(probes or {})
        self._index = {name: i for i, name in enumerate(LAYERS)}
        self._self = [0.0] * len(LAYERS)
        self._stack = [self._index[HARNESS]]
        self._mark = [0.0]
        self._keys: list = []
        self._counts: list = []
        self._external: list = []
        self._probe_hits: dict = {}
        self._patches: list = []

    # -- results ---------------------------------------------------------

    @property
    def self_s(self) -> dict:
        return dict(zip(LAYERS, self._self))

    @property
    def calls(self) -> dict:
        return dict(zip(self._keys, self._counts))

    @property
    def external_calls(self) -> dict:
        return dict(zip(self._keys, self._external))

    @property
    def probes(self) -> dict:
        return dict(self._probe_hits)

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = program_modules()
        originals: dict = {}
        for mod in modules:
            layer = self._index[layer_of(mod.__name__)]
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) \
                        and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(obj, layer,
                                         f"{mod.__name__}:{obj.__qualname__}")
                    originals[id(obj)] = (obj, wrapper)
                    self._patch(mod, name, obj, wrapper)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, (Enum, BaseException)):
                    self._wrap_class(mod, obj, layer, originals)
        # Re-point aliases (``from .phys import read_phys``) and functions
        # held in module-level tables (``FIGURES``) at the wrappers.
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, obj, hit[1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        hit = originals.get(id(val))
                        if hit is not None and hit[0] is val:
                            self._patches.append((obj, key, val, True))
                            obj[key] = hit[1]
        self._mark[0] = time.perf_counter()

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original, is_dict = self._patches.pop()
            if is_dict:
                owner[name] = original
            else:
                setattr(owner, name, original)

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patches.append((owner, name, original, False))
        setattr(owner, name, wrapper)

    def _wrap_class(self, mod, cls, layer, originals) -> None:
        for name, obj in list(vars(cls).items()):
            if name.startswith("__") and name not in _KEPT_DUNDERS:
                continue
            key = f"{mod.__name__}:{cls.__qualname__}.{name}"
            if isinstance(obj, types.FunctionType):
                wrapper = self._wrap(obj, layer, key)
                originals[id(obj)] = (obj, wrapper)
                self._patch(cls, name, obj, wrapper)
            elif isinstance(obj, (staticmethod, classmethod)) \
                    and isinstance(obj.__func__, types.FunctionType):
                wrapper = type(obj)(self._wrap(obj.__func__, layer, key))
                self._patch(cls, name, obj, wrapper)

    # -- the wrappers ----------------------------------------------------

    def _wrap(self, fn, layer: int, key: str):
        slot = len(self._keys)
        self._keys.append(key)
        self._counts.append(0)
        self._external.append(0)
        counts = self._counts
        external = self._external
        stack = self._stack
        selft = self._self
        mark = self._mark
        clock = time.perf_counter
        probe = self._probe_specs.get(key)
        hits = self._probe_hits

        if inspect.isgeneratorfunction(fn):
            def resumptions(gen):
                value = None
                error = None
                while True:
                    top = stack[-1]
                    if top != layer:
                        now = clock()
                        selft[top] += now - mark[0]
                        mark[0] = now
                    stack.append(layer)
                    try:
                        if error is None:
                            out = gen.send(value)
                        else:
                            out = gen.throw(error)
                    except StopIteration as stop:
                        stack.pop()
                        if top != layer:
                            now = clock()
                            selft[layer] += now - mark[0]
                            mark[0] = now
                        return stop.value
                    except BaseException:
                        stack.pop()
                        if top != layer:
                            now = clock()
                            selft[layer] += now - mark[0]
                            mark[0] = now
                        raise
                    stack.pop()
                    if top != layer:
                        now = clock()
                        selft[layer] += now - mark[0]
                        mark[0] = now
                    try:
                        value = yield out
                        error = None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # thrown in by the caller
                        value = None
                        error = exc

            def wrapper(*args, **kwargs):
                counts[slot] += 1
                if stack[-1] != layer:
                    external[slot] += 1
                gen = fn(*args, **kwargs)
                traced = resumptions(gen)
                # Process names default to the generator's name.
                traced.__name__ = gen.__name__
                traced.__qualname__ = gen.__qualname__
                return traced
        else:
            def wrapper(*args, **kwargs):
                counts[slot] += 1
                if probe is not None and probe[1](args):
                    hits[probe[0]] = hits.get(probe[0], 0) + 1
                top = stack[-1]
                if top == layer:
                    return fn(*args, **kwargs)
                external[slot] += 1
                now = clock()
                selft[top] += now - mark[0]
                mark[0] = now
                stack.append(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    now = clock()
                    selft[layer] += now - mark[0]
                    mark[0] = now

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__module__ = fn.__module__
        wrapper.__wrapped__ = fn
        return wrapper

    def finish(self) -> None:
        """Charge the time since the last crossing to the running layer."""
        now = time.perf_counter()
        self._self[self._stack[-1]] += now - self._mark[0]
        self._mark[0] = now
