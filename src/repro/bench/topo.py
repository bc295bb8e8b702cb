"""Fabric benchmark: hybrid flow fidelity on fat-tree topologies.

``python -m repro.bench topo`` runs all-hosts transfer patterns over a
k-ary fat-tree (:func:`repro.cluster.topo.fat_tree`) in each of the
engine's three fidelity modes — ``packet`` (coalescing off), ``train``
(packet-train wire fast path) and ``flow`` (analytic steady-state flow
reservations, :mod:`repro.hw.flow`) — and compares engine event counts
and completion times.

Two scenarios:

* ``identity`` — same-edge pairwise exchange: host ``i`` swaps
  ``size`` bytes with host ``i ^ 1`` under the same edge switch.  Every
  link direction carries exactly one transfer, so flows stay pristine
  and the analytic model is *exactly* equivalent: completion tables and
  the (train/flow-filtered) metrics snapshot must be byte-identical
  across all three modes.  ``--verify`` enforces that; the CI
  ``topo-smoke`` job runs it on every push.

* ``congested`` — cross-pod shift permutation: host ``i`` sends to
  ``(i + hosts_per_pod) mod n``, pushing every transfer through the
  core over ECMP-shared trunks.  Here max-min fair sharing approximates
  FIFO packet interleaving, so completion times may deviate slightly
  (documented in DESIGN.md §6); the gate is the *event* count — the
  flow path must process at least ``--gate``× fewer engine events than
  packet fidelity (CI requires 10×).

``--full`` switches from the default k=8 (128 hosts) to k=16
(1024 hosts) — interactive since the incremental component-local
water-fill: the congested run in flow mode took 1.8 s when last
recorded (``history.topo_full.wall_s`` in ``BENCH_engine.json``); the
nightly CI ``topo-full`` job runs it at train and flow fidelity.
``--waterfill-gate FACTOR`` holds the component-local
allocator to FACTOR× fewer flows re-divided than the from-scratch
global algorithm (``net.flow_waterfill_flows{scope=touched vs
global}``) on the congested permutation.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from typing import Optional

from .. import obs
from ..cluster.topo import fat_tree
from ..hw.params import host_params
from ..sim import Environment, one_world
from ..sim.engine import FIDELITIES
from ..sim.worlds import run_worlds
from ..units import KiB, MiB
from .netpipe import prepare_pair
from .transports import MxTransport

#: Metric families describing an *optimization* rather than the model;
#: the only ones allowed to differ between fidelity modes.
_MODE_PRIVATE = ("net.train", "net.flow")


def pairs_for(scenario: str, k: int, n: int) -> list:
    """(src, dst) transfer list for a scenario on an n-host k-ary tree."""
    if scenario == "identity":
        # Same-edge exchange needs an even host count per edge switch.
        if (k // 2) % 2:
            raise ValueError(
                f"identity scenario needs k/2 even (k/2 hosts per edge "
                f"switch, paired two by two), got k={k}")
        return [(i, i ^ 1) for i in range(n)]
    if scenario == "congested":
        per_pod = (k // 2) * (k // 2)
        return [(i, (i + per_pod) % n) for i in range(n)]
    raise ValueError(f"unknown scenario {scenario!r}")


def filtered_obs(snapshot: dict) -> dict:
    """Snapshot minus the train/flow-only families (mode-private)."""
    out = {}
    for section in ("counters", "gauges", "histograms"):
        out[section] = {
            k: v for k, v in snapshot[section].items()
            if not k.startswith(_MODE_PRIVATE)
        }
    return out


def flow_work_stats(snapshot: dict) -> dict:
    """Water-fill work accounting from a raw metrics snapshot.

    ``touched`` sums flows actually re-divided by the component-local
    engine; ``global_equiv`` is what the from-scratch global algorithm
    would have re-divided (all live flows, every flush).  Their ratio
    is the work reduction the ``--waterfill-gate`` CI floor holds.
    """
    counters = snapshot["counters"]
    touched = obs.family(counters, "net.flow_waterfill_flows", scope="touched")
    global_equiv = obs.family(counters, "net.flow_waterfill_flows", scope="global")
    return {
        "flushes": obs.family(counters, "net.flow_flush"),
        "recomputes": obs.family(counters, "net.flow_recompute"),
        "touched": touched,
        "global_equiv": global_equiv,
        "work_reduction": (global_equiv / touched) if touched else None,
    }


def build_topo(k: int, scenario: str, mode: str, size: int) -> tuple:
    """Build a k-ary fat-tree with one prepared MX transport pair per
    transfer of ``scenario``; returns ``(env, hosts, pairs, senders,
    receivers)``, the two dicts keyed by ``(src, dst)``."""
    env = Environment(mode)
    # Transfers never touch more than a few MiB of frames; a small pool
    # keeps the 1024-host build cheap.
    fabric = fat_tree(env, k, host=host_params(memory_frames=2048))
    n = len(fabric.nodes)
    pairs = pairs_for(scenario, k, n)
    senders = {}
    receivers = {}
    for src, dst in pairs:
        senders[(src, dst)] = MxTransport(
            fabric.nodes[src], 1, peer_node=dst, peer_ep=2, context="kernel")
        receivers[(src, dst)] = MxTransport(
            fabric.nodes[dst], 2, peer_node=src, peer_ep=1, context="kernel")
    for p in pairs:
        prepare_pair(env, senders[p], receivers[p], size)
    return env, n, pairs, senders, receivers


@one_world
def run_topo(k: int, scenario: str, mode: str, size: int = 256 * KiB) -> dict:
    """One fat-tree scenario in one fidelity mode.

    Returns the final clock, engine event count, a deterministic
    per-transfer completion table (list of ``(src, dst, done_ns)``) and
    the mode-filtered metrics snapshot.
    """
    with obs.installed_registry() as registry:
        env, n, pairs, senders, receivers = build_topo(k, scenario, mode, size)
        done = {}

        def tx(t):
            yield from t.send(size)

        def rx(p, t):
            yield from t.recv(size)
            done[p] = env.now

        t0 = time.perf_counter()
        ev0 = env.events_processed
        for p in pairs:
            env.process(tx(senders[p]))
            env.process(rx(p, receivers[p]))
        env.run()
        wall = time.perf_counter() - t0
        table = [(src, dst, done[(src, dst)]) for src, dst in pairs]
        payload_mib = len(pairs) * size / MiB
        raw = registry.snapshot()
        return {
            "mode": mode,
            "k": k,
            "hosts": n,
            "scenario": scenario,
            "size": size,
            "now": env.now,
            "events": env.events_processed - ev0,
            "events_per_mib": (env.events_processed - ev0) / payload_mib,
            "wall_s": wall,
            "completions": table,
            "flow_stats": flow_work_stats(raw),
            "obs": filtered_obs(raw),
        }


def completion_table(result: dict) -> str:
    """Render the per-transfer completion times (diffable across modes)."""
    lines = [f"{src:>5d} -> {dst:>5d}  {t:>14d} ns"
             for src, dst, t in result["completions"]]
    return "\n".join(lines)


def _run_mode(k: int, size: int, run: tuple) -> dict:
    """:func:`run_topo` of one ``(scenario, mode)``."""
    scenario, mode = run
    return run_topo(k, scenario, mode, size)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench topo",
        description="Fat-tree fabric: packet vs train vs flow fidelity",
    )
    parser.add_argument("-k", type=int, default=8,
                        help="fat-tree arity (k^3/4 hosts; default 8)")
    parser.add_argument("--full", action="store_true",
                        help="k=16: the 1024-host configuration (the "
                             "congested flow-mode run took 1.8 s when "
                             "last recorded; packet fidelity is far "
                             "slower at this scale)")
    parser.add_argument("--size", type=int, default=256 * KiB,
                        help="bytes per transfer (default 256 KiB)")
    parser.add_argument("--scenario", choices=("identity", "congested",
                                               "both"),
                        default="both")
    parser.add_argument("--modes", default="packet,train,flow",
                        help="comma-separated subset of packet,train,flow")
    parser.add_argument("--verify", action="store_true",
                        help="fail unless the identity scenario's "
                             "completion tables and filtered metric "
                             "snapshots are byte-identical across modes")
    parser.add_argument("--gate", type=float, default=0.0, metavar="FACTOR",
                        help="fail unless flow processes FACTOR x fewer "
                             "events than packet on the congested scenario")
    parser.add_argument("--waterfill-gate", type=float, default=0.0,
                        metavar="FACTOR",
                        help="fail unless the component-local water-fill "
                             "re-divides FACTOR x fewer flows than the "
                             "global algorithm would (congested scenario, "
                             "flow mode)")
    parser.add_argument("--table", action="store_true",
                        help="print the per-transfer completion table for "
                             "each mode (diffable)")
    args = parser.parse_args(argv)
    if args.full:
        args.k = 16
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    for m in modes:
        if m not in FIDELITIES:
            print(f"unknown mode {m!r}", file=sys.stderr)
            return 2
    if args.gate and not {"packet", "flow"} <= set(modes):
        print("--gate needs both packet and flow modes", file=sys.stderr)
        return 2
    if args.waterfill_gate and "flow" not in modes:
        print("--waterfill-gate needs flow mode", file=sys.stderr)
        return 2
    scenarios = (("identity", "congested") if args.scenario == "both"
                 else (args.scenario,))
    runs = [(scenario, mode) for scenario in scenarios for mode in modes]
    done = iter(run_worlds(partial(_run_mode, args.k, args.size), runs)[0])
    status = 0
    for scenario in scenarios:
        results = {mode: next(done) for mode in modes}
        hosts = args.k ** 3 // 4
        print(f"[topo] fat-tree k={args.k} ({hosts} hosts) "
              f"scenario={scenario} size={args.size}")
        print(f"  {'mode':8s} {'final_ns':>14s} {'events':>12s} "
              f"{'ev/MiB':>10s} {'wall_s':>8s}")
        for mode, r in results.items():
            print(f"  {mode:8s} {r['now']:>14d} {r['events']:>12d} "
                  f"{r['events_per_mib']:>10.0f} {r['wall_s']:>8.2f}")
        if "packet" in results and "flow" in results:
            reduction = results["packet"]["events"] / results["flow"]["events"]
            print(f"  flow vs packet: {reduction:.1f}x fewer engine events")
        if args.table:
            for mode in modes:
                print(f"  --- completions [{mode}] ---")
                print(completion_table(results[mode]))
        if scenario == "identity" and args.verify:
            ref = results[modes[0]]
            same = [all(r[key] == ref[key] for r in results.values())
                    for key in ("completions", "obs")]
            print(f"  [verify] completions identical: {same[0]}, "
                  f"metrics identical: {same[1]}")
            if not all(same):
                status = 1
        if scenario == "congested" and args.gate:
            ok = reduction >= args.gate
            print(f"  [gate] event reduction {reduction:.1f}x "
                  f">= {args.gate:g}x: {'PASS' if ok else 'FAIL'}")
            if not ok:
                status = 1
        if scenario == "congested" and args.waterfill_gate:
            stats = results["flow"]["flow_stats"]
            red = stats["work_reduction"] or 0.0
            ok = red >= args.waterfill_gate
            print(f"  [waterfill] {stats['recomputes']} component "
                  f"recomputes over {stats['flushes']} flushes; "
                  f"{stats['touched']} flows re-divided vs "
                  f"{stats['global_equiv']} global — {red:.1f}x >= "
                  f"{args.waterfill_gate:g}x: {'PASS' if ok else 'FAIL'}")
            if not ok:
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
