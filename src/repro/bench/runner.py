"""CLI entry point: regenerate any of the paper's tables and figures.

Usage::

    python -m repro.bench fig5a          # one experiment
    python -m repro.bench table1
    python -m repro.bench all            # everything, one worker per CPU
    python -m repro.bench all --parallel 1   # everything in this process
    python -m repro.bench all --timings  # per-figure cost to stderr
    python -m repro.bench fig6 --json    # machine-readable series
    python -m repro.bench --list

Figures share experiments; experiments share no state.  The named
figures are planned in one experiment set, so each distinct experiment
point is measured once (:func:`repro.bench.figures.plan`); the world
runner (:func:`repro.sim.worlds.run_worlds`) runs the jobs, and each
figure renders in the order asked, as tables or as JSON (``--json``).
Each result is keyed by its point, so the output is byte-identical at
any ``--parallel``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from dataclasses import asdict

from .. import obs
from ..sim.worlds import peak_rss_mib, run_worlds, workers
from .figures import FIGURES, collect, plan, render, run_job
from .report import format_metrics

ALL = sorted(FIGURES) + ["table1"]

#: Subcommands with a CLI of their own (message loss, replica chaos,
#: fat-tree fidelity, sweeps).  None is part of ``all``, so the paper's
#: figures stay byte-identical whatever these drivers do.
DRIVERS = ("faults", "replica", "topo", "fleet")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in DRIVERS:
        driver = importlib.import_module(f".{argv[0]}", __package__)
        return driver.main(argv[1:])
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
    parser.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="run experiments over at most N forked worker "
                             "processes; 0 (the default) means one per CPU "
                             "this process may use, 1 means in this process. "
                             "Experiments share no state, so results are "
                             "identical at any N")
    parser.add_argument("--timings", action="store_true",
                        help="report wall-clock, events and peak RSS "
                             "(high-water mark of the process that ran them) "
                             "of the jobs each figure planned on stderr")
    parser.add_argument("--metrics", metavar="OUT.json",
                        help="collect a metrics snapshot over the whole run "
                             "and write it to OUT.json (also prints a table "
                             "to stderr; runs the jobs in this process)")
    parser.add_argument("--timeline", metavar="OUT.trace.json",
                        help="record a Chrome trace-event timeline and write "
                             "it to OUT.trace.json (load in Perfetto / "
                             "chrome://tracing; runs the jobs in-process)")
    args = parser.parse_args(argv)
    if args.list or not args.experiments:
        print("\n".join(ALL))
        return 0
    if args.parallel < 0:
        print(f"--parallel must be >= 0, got {args.parallel}", file=sys.stderr)
        return 2
    if (args.metrics or args.timeline) and args.parallel > 1:
        # Workers can't share one ambient registry/timeline, so the
        # runner stays in this process; asking for more is refused.
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
    n_workers = workers(len(jobs), args.parallel)
    rss0, t_all = peak_rss_mib(), time.perf_counter()
    try:
        measured, costs = run_worlds(run_job, jobs, args.parallel)
        results = collect(jobs, measured)
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
        # another figure measured first costs it nothing, and a figure
        # with no jobs shows this process's peak before any ran.
        for name in names:
            mine = [c for job, c in zip(jobs, costs) if job.figure == name]
            rss = max((c[2] for c in mine), default=rss0)
            print(f"[timing] {name:8s} {sum(c[0] for c in mine):7.3f} s  "
                  f"{sum(c[1] for c in mine):>10d} events  "
                  f"{rss:6.1f} MiB peak RSS", file=sys.stderr)
        print(f"[timing] total    {time.perf_counter() - t_all:7.3f} s  "
              f"{sum(c[1] for c in costs):>10d} events "
              f"(parallel={n_workers})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
