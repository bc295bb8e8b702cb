"""``python -m repro.bench replica`` — replicated-volume failover table.

Runs the chaos-scenario matrix of :mod:`repro.nbd.chaos` — a three-way
chain-replicated NBD volume under node crashes, NIC resets, link flap
trains, and a crash-reboot-rejoin — and reports, per scenario, the
client-observed outcome (linearizability verdict, completed and failed
operations) and the controller's reconfiguration latencies: detection
of the death to the new chain configuration acknowledged everywhere,
plus the dirty-extent resync span for rejoins.

This driver is intentionally not part of ``bench all``: the replica
runs add nothing to the paper's tables, and keeping them out guarantees
the zero-fault figure output stays byte-identical to
``bench_figures.txt``.  Everything here is deterministic in ``--seed``.
"""

from __future__ import annotations

import argparse
from functools import partial

from ..nbd.chaos import SCENARIOS, failover_bound_ns, run_scenario
from ..sim.worlds import run_worlds


def _us(ns: int) -> str:
    return f"{ns / 1000:8.1f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench replica",
        description="Chain-replicated NBD volume under chaos scenarios: "
                    "linearizability verdicts and failover latencies",
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="fault-plan / workload seed (default 1); the "
                             "same seed reproduces the table bit-for-bit")
    parser.add_argument("--scenario", action="append", metavar="NAME",
                        choices=sorted(SCENARIOS),
                        help="run only this scenario (repeatable; default "
                             "is the full matrix)")
    args = parser.parse_args(argv)
    names = args.scenario or list(SCENARIOS)

    bound = failover_bound_ns()
    print(f"Replicated NBD chain under chaos (seed {args.seed}, "
          f"failover bound {bound / 1000:.0f} us = lease + resync allowance)")
    print()
    header = (f"{'scenario':<21} {'linearizable':<13} {'ops':>4} {'fail':>4}  "
              f"{'failover us':>11}  {'resync us':>9}  {'bound':>5}")
    print(header)
    print("-" * len(header))
    runs = run_worlds(partial(run_scenario, seed=args.seed), names)[0]
    for name, r in zip(names, runs):
        fo = [f["done_ns"] - f["detect_ns"] for f in r.failovers]
        rs = [x["done_ns"] - x["start_ns"] for x in r.resyncs]
        fo_s = _us(max(fo)) if fo else f"{'-':>8}"
        rs_s = _us(max(rs)) if rs else f"{'-':>8}"
        within = "ok" if r.failovers_within(bound) else "MISS"
        print(f"{name:<21} {r.lin.explain().split(' (')[0]:<13} "
              f"{len(r.history.ops):>4} {len(r.failed_ops):>4}  "
              f"{fo_s:>11}  {rs_s:>9}  {within:>5}")
    print()
    print("reads served at the tail; writes acked at the tail commit point; "
          "every history checked with Wing-Gong")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
