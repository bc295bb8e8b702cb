"""repro.fleet — declarative experiment sweeps over hermetic runs.

:mod:`repro.fleet.spec` / :mod:`repro.fleet.runner` — an experiment
spec declaring a grid over {topology, fidelity mode, workload + API,
arrival process, offered load, fault plan}; the runner expands the
grid, runs every point in its own :class:`~repro.sim.Environment`
(which carries the point's fidelity and id allocator, so a run is
hermetic by construction) through the world runner
(:func:`repro.sim.worlds.run_worlds`), and collects per-run obs
snapshots into one tidy deterministic results table (JSON + CSV).
Same spec + seed => byte-identical results files, in-process or forked.

CLI: ``python -m repro.bench fleet --spec SPEC.json [--parallel N]
[--out PREFIX]``.

The package namespace is lazy (PEP 562): importing :mod:`repro.fleet`
does not drag the sweep runner (and its workload imports) in behind it.
"""

_LAZY = {
    "FleetSpec": "spec",
    "FleetSpecError": "spec",
    "RunPoint": "spec",
    "FLEET_SCHEMA": "runner",
    "FleetResult": "runner",
    "render_csv": "runner",
    "render_json": "runner",
    "run_fleet": "runner",
    "run_point": "runner",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
