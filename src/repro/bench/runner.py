"""CLI entry point: regenerate any of the paper's tables and figures.

Usage::

    python -m repro.bench fig5a          # one experiment
    python -m repro.bench table1
    python -m repro.bench all            # everything (~10 s)
    python -m repro.bench all --parallel 4   # fan out over 4 processes
    python -m repro.bench all --timings  # per-figure cost to stderr
    python -m repro.bench fig6 --json    # machine-readable series
    python -m repro.bench --list

Figures share experiments; experiments share no state.  The runner
plans the named figures in one experiment set, so each distinct
experiment point is measured once (:func:`repro.bench.figures.plan`),
runs the jobs, then renders each figure in the order asked: as tables,
or as JSON with ``--json``.  Every job builds its own worlds, so
``--parallel N`` can fan the jobs out over a ``ProcessPoolExecutor``;
each result is keyed by its point, so parallel output is byte-identical
to sequential output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import asdict

from .. import obs
from ..sim.engine import Environment
from .figures import FIGURES, Job, plan, render, run_job
from .report import format_metrics

ALL = sorted(FIGURES) + ["table1"]


def _mark_figure(name: str) -> None:
    """Drop a figure marker on the ambient timeline (no-op when
    observability is off, and in parallel workers, which never inherit
    the ambient timeline)."""
    tl = obs.active_timeline()
    if tl is not None:
        tl.instant(0, "bench", f"figure:{name}")


def _peak_rss_mib() -> float:
    """High-water resident memory of this process (Linux ``ru_maxrss``
    is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_job(job: Job) -> tuple[list, float, int, float]:
    """Worker: run one job, marked with the figure that planned it;
    returns (its measurements, seconds, events, peak RSS MiB of this
    process so far)."""
    t0 = time.perf_counter()
    ev0 = Environment.lifetime_events_processed
    _mark_figure(job.figure)
    measured = run_job(job)
    events = Environment.lifetime_events_processed - ev0
    return measured, time.perf_counter() - t0, events, _peak_rss_mib()


def _execute(jobs: list[Job], parallel: int) -> list[tuple]:
    """Run ``jobs``, over ``parallel`` processes if more than one; keep
    their order."""
    if parallel > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallel) as pool:
            return list(pool.map(_run_job, jobs))
    return [_run_job(job) for job in jobs]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "faults":
        # The chaos driver is its own subcommand, deliberately NOT part
        # of ``all``: zero-fault figure output must stay byte-identical.
        from .faults import main as faults_main

        return faults_main(argv[1:])
    if argv and argv[0] == "replica":
        # Replicated-volume chaos matrix: failover latency and
        # linearizability verdicts.  Also deliberately not part of
        # ``all`` (same figure-identity argument as ``faults``).
        from .replica import main as replica_main

        return replica_main(argv[1:])
    if argv and argv[0] == "topo":
        # Fat-tree fabric A/B: packet vs train vs flow fidelity.  Not
        # part of ``all`` — the paper's figures are two-node topologies
        # and must stay byte-identical regardless of fabric work.
        from .topo import main as topo_main

        return topo_main(argv[1:])
    if argv and argv[0] == "fleet":
        # Declarative experiment sweeps (open-loop load over a grid of
        # topologies/fidelities/workloads).  Not part of ``all`` — the
        # paper's figures are fixed two-node experiments and must stay
        # byte-identical regardless of fleet work.
        from .fleet import main as fleet_main

        return fleet_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate tables/figures of Goglin et al., CLUSTER 2005",
    )
    parser.add_argument("experiments", nargs="*",
                        help=f"experiment names ({', '.join(ALL)}) or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--json", action="store_true",
                        help="emit the series as JSON instead of tables "
                             "(table1 is text-only and is skipped)")
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="run experiments over N worker processes; 0 "
                             "means auto (one per CPU core). Figures share "
                             "experiments; experiments share no state, so "
                             "results are identical to a sequential run")
    parser.add_argument("--timings", action="store_true",
                        help="report wall-clock, events and peak RSS "
                             "(high-water mark of the process that ran them) "
                             "of the jobs each figure planned on stderr")
    parser.add_argument("--metrics", metavar="OUT.json",
                        help="collect a metrics snapshot over the whole run "
                             "and write it to OUT.json (also prints a table "
                             "to stderr; forces sequential execution)")
    parser.add_argument("--timeline", metavar="OUT.trace.json",
                        help="record a Chrome trace-event timeline and write "
                             "it to OUT.trace.json (load in Perfetto / "
                             "chrome://tracing; forces sequential execution)")
    args = parser.parse_args(argv)
    if args.list or not args.experiments:
        print("\n".join(ALL))
        return 0
    if args.parallel < 0:
        print(f"--parallel must be >= 0, got {args.parallel}", file=sys.stderr)
        return 2
    if args.parallel == 0:
        args.parallel = os.cpu_count() or 1
    observing = args.metrics or args.timeline
    if observing and args.parallel > 1:
        # Parallel workers can't share one ambient registry/timeline;
        # refusing beats silently collecting a fraction of the run.
        print("--metrics/--timeline require --parallel 1", file=sys.stderr)
        return 2
    names = ALL if args.experiments == ["all"] else args.experiments
    for name in names:
        if name not in ALL:
            print(f"unknown experiment {name!r}", file=sys.stderr)
            return 2

    registry = timeline = None
    if args.metrics:
        registry = obs.MetricsRegistry()
        obs.install_registry(registry)
    if args.timeline:
        timeline = obs.Timeline()
        obs.install_timeline(timeline)
    if args.json:
        names = [n for n in names if n != "table1"]
    jobs = plan(names)
    t_all = time.perf_counter()
    try:
        outcomes = _execute(jobs, args.parallel)
        results: dict = {}
        for job, (measured, *_) in zip(jobs, outcomes):
            results.update(zip(job.points, measured))
        if args.json:
            payload = {}
            for name in names:
                payload[name] = asdict(FIGURES[name].view(results))
                del payload[name]["name"]
            print(json.dumps(payload, indent=2))
        else:
            for name in names:
                print(render(name, results))
                print()
    finally:
        if registry is not None:
            obs.uninstall_registry()
        if timeline is not None:
            obs.uninstall_timeline()
    if registry is not None:
        registry.write(args.metrics)
        print(format_metrics(registry.snapshot()), file=sys.stderr)
    if timeline is not None:
        timeline.write(args.timeline)
    if args.timings:
        # Each figure is charged for the jobs it planned: a point
        # another figure measured first costs it nothing.
        for name in names:
            mine = [o for job, o in zip(jobs, outcomes) if job.figure == name]
            rss = max((o[3] for o in mine), default=_peak_rss_mib())
            print(f"[timing] {name:8s} {sum(o[1] for o in mine):7.3f} s  "
                  f"{sum(o[2] for o in mine):>10d} events  "
                  f"{rss:6.1f} MiB peak RSS", file=sys.stderr)
        print(f"[timing] total    {time.perf_counter() - t_all:7.3f} s  "
              f"{sum(o[2] for o in outcomes):>10d} events "
              f"(parallel={args.parallel})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
