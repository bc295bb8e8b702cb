"""CLI entry point: regenerate any of the paper's tables and figures.

Usage::

    python -m repro.bench fig5a          # one experiment
    python -m repro.bench table1
    python -m repro.bench all            # everything (several minutes)
    python -m repro.bench all --parallel 4   # fan out over 4 processes
    python -m repro.bench all --timings  # per-figure cost to stderr
    python -m repro.bench fig6 --json    # machine-readable series
    python -m repro.bench --list

Every figure driver builds its own :class:`~repro.sim.Environment`, so
the experiments share no state and ``--parallel N`` can fan them out
over a ``ProcessPoolExecutor``.  Results are printed in the requested
order regardless of which worker finishes first, so parallel output is
byte-identical to sequential output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from .. import obs
from ..sim.engine import Environment, one_world
from .figures import FIGURES, run_figure
from .report import format_metrics

ALL = sorted(FIGURES) + ["table1"]


def _mark_figure(name: str) -> None:
    """Drop a figure-boundary marker on the ambient timeline (no-op when
    observability is off, and in parallel workers, which never inherit
    the ambient timeline)."""
    tl = obs.active_timeline()
    if tl is not None:
        tl.instant(0, "bench", f"figure:{name}")


def _peak_rss_mib() -> float:
    """High-water resident memory of this process (Linux ``ru_maxrss``
    is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_text(name: str) -> tuple[str, str, float, int, float]:
    """Worker: render one experiment; returns (name, text, seconds,
    events, peak RSS MiB of this process so far)."""
    t0 = time.perf_counter()
    ev0 = Environment.lifetime_events_processed
    _mark_figure(name)
    text = run_figure(name)
    events = Environment.lifetime_events_processed - ev0
    return name, text, time.perf_counter() - t0, events, _peak_rss_mib()


@one_world
def _figure_payload(name: str) -> dict:
    """Run one figure; returns its series as plain JSON-ready data."""
    data = FIGURES[name]()
    return {
        "title": data.title,
        "xlabel": data.xlabel,
        "unit": data.unit,
        "xs": list(data.xs),
        "series": {k: list(v) for k, v in data.series.items()},
    }


def _run_json(name: str) -> tuple[str, dict, float, int, float]:
    """Worker: run one figure for --json; returns (name, payload, seconds,
    events, peak RSS MiB)."""
    t0 = time.perf_counter()
    ev0 = Environment.lifetime_events_processed
    _mark_figure(name)
    payload = _figure_payload(name)
    events = Environment.lifetime_events_processed - ev0
    return name, payload, time.perf_counter() - t0, events, _peak_rss_mib()


def _execute(names: list[str], worker, jobs: int):
    """Run ``worker`` over ``names``, optionally in parallel; keep order."""
    if jobs > 1 and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = {r[0]: r for r in pool.map(worker, names)}
        return [results[name] for name in names]
    return [worker(name) for name in names]


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
                             "means auto (one per CPU core). Each figure "
                             "builds its own Environment, so results are "
                             "identical to a sequential run")
    parser.add_argument("--timings", action="store_true",
                        help="report per-experiment wall-clock, events and "
                             "peak RSS (high-water mark of the process that "
                             "ran it) on stderr")
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
    t_all = time.perf_counter()
    try:
        if args.json:
            names = [n for n in names if n != "table1"]
            results = _execute(names, _run_json, args.parallel)
            print(json.dumps({name: payload for name, payload, *_ in results},
                             indent=2))
        else:
            results = _execute(names, _run_text, args.parallel)
            for _, text, *_ in results:
                print(text)
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
        total_events = 0
        for name, _, secs, events, rss in results:
            total_events += events
            print(f"[timing] {name:8s} {secs:7.3f} s  {events:>10d} events  "
                  f"{rss:6.1f} MiB peak RSS", file=sys.stderr)
        print(f"[timing] total    {time.perf_counter() - t_all:7.3f} s  "
              f"{total_events:>10d} events (parallel={args.parallel})",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
