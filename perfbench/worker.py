"""One workload in one fresh process (started by ``run.py``).

Modes:

* ``setup`` — import the program, draw the inputs, build the first
  pass's state, print ``ready``, exit.  ``run.py`` times process start
  to ``ready``: one ``setup_s`` sample.
* ``measure`` — the same set-up, ``ready``, then timed passes until
  ``--seconds`` have gone by (whole passes, so at least one).  Each pass after
  the first rebuilds its state outside the timed region.  Prints one
  JSON line: pass times, checks, peak RSS.
* ``trace`` / ``trace-again`` — one pass (set-up and run) under
  :class:`layers.LayerTracer` with a fresh obs registry installed, then
  (``trace`` only) one untraced pass so the traced/untraced ratio of the
  timed phases can be reported.  Prints one JSON line with the
  per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS  # noqa: E402


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _checked_pass(work, state, seed):
    """Run and check one pass; returns (host seconds, outcome, simulated
    events processed by the pass)."""
    from repro.sim.engine import Environment

    ev0 = Environment.lifetime_events_processed
    t0 = time.perf_counter()
    outcome = work.run(state)
    wall = time.perf_counter() - t0
    events = Environment.lifetime_events_processed - ev0
    work.check(outcome, state, seed)
    return wall, outcome, events


def measure(work, seed: int, seconds: float) -> dict:
    inputs = work.inputs(seed)
    state = work.build(inputs)
    print("ready", flush=True)
    start = time.perf_counter()
    walls = []
    attempted = failed = 0
    problems = []
    notes: list = []
    while True:
        wall, outcome, _ = _checked_pass(work, state, seed)
        if not walls:
            # Set-up plus one pass: what one run of the workload needs,
            # whatever the number of passes that fit in ``seconds``.
            peak = peak_rss_mib()
        walls.append(wall)
        attempted += outcome.attempted
        failed += outcome.failed
        problems += outcome.problems
        notes += [n for n in outcome.notes if n not in notes]
        del state, outcome
        gc.collect()
        if time.perf_counter() - start >= seconds:
            break
        state = work.build(inputs)
    return {"walls": walls, "attempted": attempted, "failed": failed,
            "problems": problems[:10], "notes": notes,
            "peak_rss_mib": peak}


def trace(work, seed: int, baseline: bool) -> dict:
    from layers import LayerTracer

    import repro.obs as obs
    from repro.mem.sglist import HOST_COPIES
    from repro.sim.engine import Environment

    # Every obs registry the pass creates (run_fleet and the chaos
    # harness install one per point or scenario), to merge at the end.
    registries: list = []

    def note_registry(args):
        registries.append(args[0])
        return True

    def resource_full(args):
        return args[0].in_use >= args[0].capacity

    probes = {
        "repro.obs.registry:MetricsRegistry.__init__":
            ("obs.registries", note_registry),
        "repro.sim.resources:Resource.request":
            ("sim.resources.queued", resource_full),
        "repro.sim.resources:PriorityResource.request":
            ("sim.resources.queued", resource_full),
    }
    copies0 = HOST_COPIES.snapshot()
    ev0 = Environment.lifetime_events_processed
    with LayerTracer(probes) as tracer:
        obs.install_registry()
        try:
            inputs = work.inputs(seed)
            state = work.build(inputs)
            wall_traced, outcome, pass_events = _checked_pass(
                work, state, seed)
        finally:
            obs.uninstall_registry()
        tracer.finish()
    events = Environment.lifetime_events_processed - ev0
    lateness = outcome.extra.get("lateness", [])
    copies1 = HOST_COPIES.snapshot()
    snapshot = obs.merge_snapshots([r.snapshot() for r in registries])
    del state
    gc.collect()
    result = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:10],
        "notes": outcome.notes,
        "self_s": tracer.self_s,
        "calls": tracer.calls,
        "external_calls": tracer.external_calls,
        "probes": tracer.probes,
        "events": events,
        "host_copies": copies1["copies"] - copies0["copies"],
        "host_copy_bytes": copies1["nbytes"] - copies0["nbytes"],
        "obs": snapshot,
        "pass_events": pass_events,
        "max_lateness_ns": max(lateness or [0]),
        "late_releases": sum(1 for x in lateness if x != 0),
        "traced_wall_s": wall_traced,
    }
    if baseline:
        state = work.build(work.inputs(seed))
        wall, outcome, _ = _checked_pass(work, state, seed)
        result["untraced_wall_s"] = wall
        result["attempted"] += outcome.attempted
        result["failed"] += outcome.failed
        result["problems"] += outcome.problems[:10]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace", "trace-again"))
    args = parser.parse_args(argv)
    work = WORKLOADS[args.workload]
    if args.mode == "setup":
        work.build(work.inputs(args.seed))
        print("ready", flush=True)
        return 0
    if args.mode == "measure":
        result = measure(work, args.seed, args.seconds)
    else:
        result = trace(work, args.seed, baseline=args.mode == "trace")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
