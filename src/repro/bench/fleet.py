"""CLI driver for experiment fleets: ``python -m repro.bench fleet``.

Loads a declarative sweep spec (see :mod:`repro.fleet.spec`), expands
the grid, runs every point through the world runner (one forked worker
per usable CPU unless ``--parallel`` says otherwise) and prints a tidy
summary table.  ``--out PREFIX`` additionally writes
``PREFIX.json`` (the canonical sorted-key results document) and
``PREFIX.csv``; both are byte-identical across reruns and across
``--parallel`` settings, which ``--verify`` double-checks by running
the whole sweep twice and diffing the bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from ..fleet.runner import (FLEET_SCHEMA, FleetResult, render_csv,
                            render_json, run_fleet)
from ..fleet.spec import FleetSpec, FleetSpecError
from ..sim.worlds import workers
from .report import format_table

#: Summary-table columns (full detail lives in the JSON/CSV outputs).
_TABLE_COLS = ("index", "topology", "mode", "workload", "arrivals",
               "offered_load", "fault", "achieved_rate_ops_s", "fairness",
               "p50_ns", "p99_ns")


def summary_table(result: FleetResult) -> str:
    rows = []
    for row in result.rows:
        cells = result.row_cells(row)
        rows.append([
            str(cells["index"]), cells["topology"], cells["mode"],
            cells["workload"], cells["arrivals"],
            f"{cells['offered_load']:g}", cells["fault"],
            f"{cells['achieved_rate_ops_s']:.0f}",
            f"{cells['fairness']:.3f}",
            f"{cells['p50_ns'] / 1000:.0f}",
            f"{cells['p99_ns'] / 1000:.0f}",
        ])
    headers = ["#", "topology", "mode", "workload", "arrivals",
               "offered/s", "fault", "achieved/s", "fairness",
               "p50 (us)", "p99 (us)"]
    name = result.spec.get("name", "fleet")
    return format_table(f"fleet {name}: {len(result.rows)} points",
                        headers, rows)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench fleet",
        description="Declarative experiment sweeps: topology x fidelity "
                    "x workload x offered load x faults",
    )
    parser.add_argument("--spec", metavar="SPEC.json",
                        help="fleet spec file (see --schema)")
    parser.add_argument("--schema", action="store_true",
                        help="print the spec-file field reference and exit")
    parser.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="run grid points over at most N forked workers "
                             "(0, the default: one per usable CPU; 1: in this "
                             "process); results are identical at any N")
    parser.add_argument("--out", metavar="PREFIX",
                        help="write PREFIX.json and PREFIX.csv")
    parser.add_argument("--verify", action="store_true",
                        help="run the sweep twice and fail unless the "
                             "results bytes are identical")
    parser.add_argument("--timings", action="store_true",
                        help="report the points' wall-clock, events and "
                             "peak RSS on stderr")
    args = parser.parse_args(argv)
    if args.schema:
        print(json.dumps(FLEET_SCHEMA, indent=2))
        return 0
    if not args.spec:
        print("--spec is required (or --schema for the reference)",
              file=sys.stderr)
        return 2
    if args.parallel < 0:
        print(f"--parallel must be >= 0, got {args.parallel}",
              file=sys.stderr)
        return 2
    try:
        spec = FleetSpec.from_file(args.spec)
    except FleetSpecError as exc:
        print(f"bad fleet spec: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        result = run_fleet(spec, parallel=args.parallel)
    except FleetSpecError as exc:
        print(f"bad fleet spec: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    print(summary_table(result))
    status = 0
    if args.verify:
        again = run_fleet(spec, parallel=args.parallel)
        identical = render_json(result) == render_json(again)
        print(f"[verify] rerun byte-identical: {identical}")
        if not identical:
            status = 1
    if args.out:
        json_path = f"{args.out}.json"
        csv_path = f"{args.out}.csv"
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(render_json(result))
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(render_csv(result))
        print(f"[fleet] wrote {json_path} and {csv_path}")
    if args.timings:
        costs = result.costs
        print(f"[timing] {len(costs)} points {elapsed:7.3f} s  "
              f"{sum(c[1] for c in costs):>10d} events  "
              f"{max(c[2] for c in costs):6.1f} MiB peak RSS "
              f"(parallel={workers(len(costs), args.parallel)})",
              file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
