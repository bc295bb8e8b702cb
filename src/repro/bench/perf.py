"""Self-benchmarks of the simulator's fast paths and host footprint.

Each section measures what perfbench's end-to-end workloads cannot
gate on their own:

* **data path**: host copies per payload byte (deterministic, so CI
  caps it) and simulator MB/s through the GM and MX kernel paths;
* **packet train** / **topo**: engine-event A/Bs of the analytic wire
  and flow fast paths, with simulated time required identical;
* **topo build** / **fleet memory**: traced host memory of a fabric
  build per host and of one open-loop fleet point per file/block
  server workload.

The numbers go to ``BENCH_engine.json`` so the trajectory is visible
across changes; the engine itself is measured on real workloads by
``perfbench/run.py``.

Usage::

    python -m repro.bench.perf                 # full run, writes BENCH_engine.json
    python -m repro.bench.perf --quick         # CI smoke (~1 s)
    python -m repro.bench.perf --out path.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import tracemalloc

from ..mem import sglist
from ..sim import Environment
from ..units import KiB, MiB


# ---------------------------------------------------------------------------
# data-path throughput / host-copy accounting
# ---------------------------------------------------------------------------

def bench_data_path(quick: bool = False) -> dict:
    """Host-copy counts and simulator MB/s through the real data paths.

    Runs a NetPIPE-style ping-pong over the GM-kernel-physical, MX-kernel
    and MX-kernel-with-copy-removal paths, with payloads flowing as
    :class:`repro.mem.PayloadRef` chunk views end-to-end.
    ``HOST_COPIES`` counting is deterministic, so CI pins a per-byte
    budget on it; MB/s shows the host's wall-clock rate.

    Both send buffers are filled with a non-zero pattern first: a
    never-written buffer carries zero pages, whose scatter into fresh
    receive frames is elided (:meth:`repro.mem.phys.Frame.write`), and
    the budget would then pass without measuring any copy.
    """
    from ..cluster.node import node_pair
    from .netpipe import ping_pong, prepare_pair
    from .transports import GmKernelTransport, MxTransport

    sizes = [4 * KiB, 64 * KiB] if quick else [4 * KiB, 32 * KiB, 256 * KiB, MiB]
    rounds = 3 if quick else 10
    # Timing is noisy on shared machines; take the min over the
    # repetitions (the timeit estimator).  CPU time is the stable
    # measure for a pure-compute simulator; wall time is reported too.
    # Copy counts are deterministic and identical across reps.
    reps = 1 if quick else 5

    def gm_kernel_physical(env):
        a, b = node_pair(env)
        return (GmKernelTransport(a, 2, 1, 2, addressing="physical"),
                GmKernelTransport(b, 2, 0, 2, addressing="physical"))

    def mx_kernel(env):
        a, b = node_pair(env)
        return (MxTransport(a, 2, 1, 2, context="kernel"),
                MxTransport(b, 2, 0, 2, context="kernel"))

    def mx_kernel_zero_copy(env):
        a, b = node_pair(env)
        kw = dict(context="kernel", physical=True,
                  no_send_copy=True, no_recv_copy=True)
        return (MxTransport(a, 2, 1, 2, **kw),
                MxTransport(b, 2, 0, 2, **kw))

    paths = {
        "gm_kernel_physical": gm_kernel_physical,
        "mx_kernel": mx_kernel,
        "mx_kernel_zero_copy": mx_kernel_zero_copy,
    }
    report: dict = {"sizes": sizes, "rounds": rounds, "paths": {}}
    for name, build in paths.items():
        entries = []
        for size in sizes:
            payload_bytes = 2 * size * rounds  # both directions
            wall = cpu_s = None
            for _ in range(reps):
                env = Environment()
                a, b = build(env)
                prepare_pair(env, a, b, size)
                for t in (a, b):
                    send_buf = (t.send_alloc if isinstance(t, GmKernelTransport)
                                else t.send_ref)
                    t.node.kspace.write_bytes(send_buf.vaddr, b"\xa5" * size)
                c0 = sglist.HOST_COPIES.snapshot()
                w0 = time.perf_counter()
                t0 = time.process_time()
                result = ping_pong(env, a, b, size, rounds=rounds, warmup=0)
                rep_cpu = time.process_time() - t0
                rep_wall = time.perf_counter() - w0
                c1 = sglist.HOST_COPIES.snapshot()
                copies = c1["copies"] - c0["copies"]
                nbytes = c1["nbytes"] - c0["nbytes"]
                wall = rep_wall if wall is None else min(wall, rep_wall)
                cpu_s = rep_cpu if cpu_s is None else min(cpu_s, rep_cpu)
            entries.append({
                "size": size,
                "host_copies": copies,
                "host_copy_bytes": nbytes,
                "copy_per_byte": nbytes / payload_bytes,
                "wall_s": wall,
                "cpu_s": cpu_s,
                "mb_per_s": payload_bytes / wall / 1e6,
                "one_way_us": result.one_way_us,
            })
        report["paths"][name] = {
            "entries": entries,
            "summary": {
                "host_copy_bytes": sum(e["host_copy_bytes"] for e in entries),
                "max_copy_per_byte": max(e["copy_per_byte"] for e in entries),
            },
        }
    return report


def bench_packet_train(quick: bool = False) -> dict:
    """Event-count A/B of the packet-train analytic wire fast path.

    Runs the same large-transfer ping-pong at ``packet`` fidelity
    (reported as ``per_packet``) and at ``train`` fidelity.  The event
    counts come from ``Environment.events_processed`` and are fully
    deterministic, so CI gates on them directly: the reduction factor proves the fast path
    engages, the events-per-MB budget catches per-packet work creeping
    back into the data path.  Simulated time must be identical in both
    modes — the trains are an optimization, not a model change.
    """
    from ..cluster.node import node_pair
    from .netpipe import ping_pong, prepare_pair
    from .transports import GmKernelTransport

    sizes = [256 * KiB] if quick else [256 * KiB, MiB]
    rounds = 2 if quick else 5
    reps = 1 if quick else 3
    modes = {"per_packet": "packet", "train": "train"}
    entries: list[dict] = []
    for size in sizes:
        payload_mb = 2 * size * rounds / MiB  # both directions
        events = {}
        wall = {m: None for m in modes}
        cpu_s = {m: None for m in modes}
        result = {}
        for _ in range(reps):
            for mode in modes:
                env = Environment(modes[mode])
                a, b = node_pair(env)
                ta = GmKernelTransport(a, 2, 1, 2, addressing="physical")
                tb = GmKernelTransport(b, 2, 0, 2, addressing="physical")
                prepare_pair(env, ta, tb, size)
                base = env.events_processed
                w0 = time.perf_counter()
                c0 = time.process_time()
                result[mode] = ping_pong(env, ta, tb, size,
                                         rounds=rounds, warmup=0)
                rep_cpu = time.process_time() - c0
                rep_wall = time.perf_counter() - w0
                # Deterministic: identical on every repetition.
                events[mode] = env.events_processed - base
                if wall[mode] is None or rep_wall < wall[mode]:
                    wall[mode] = rep_wall
                if cpu_s[mode] is None or rep_cpu < cpu_s[mode]:
                    cpu_s[mode] = rep_cpu
        entries.append({
            "size": size,
            "rounds": rounds,
            "events": dict(events),
            "event_reduction": events["per_packet"] / events["train"],
            "events_per_mb": {m: events[m] / payload_mb for m in modes},
            "wall_s": dict(wall),
            "cpu_s": dict(cpu_s),
            "one_way_us": result["train"].one_way_us,
            "sim_time_identical": (result["per_packet"].one_way_us
                                   == result["train"].one_way_us),
        })
    return {
        "sizes": sizes,
        "rounds": rounds,
        "entries": entries,
        "summary": {
            "event_reduction_min": min(e["event_reduction"] for e in entries),
            "events_per_mb_train_max": max(e["events_per_mb"]["train"]
                                           for e in entries),
            "sim_time_identical": all(e["sim_time_identical"]
                                      for e in entries),
        },
    }


# ---------------------------------------------------------------------------
# fabric / hybrid fidelity
# ---------------------------------------------------------------------------


def _bench_topo(quick: bool = False) -> dict:
    """``topo`` section: fat-tree flow-fidelity A/B (repro.bench.topo).

    Deterministic event counts again, so CI gates directly: >= 10x
    fewer engine events on the congested cross-pod permutation, and
    byte-identical completion tables plus metric snapshots on the
    uncontended same-edge exchange (the regime where the analytic flow
    model is exact).  ``build_kib_per_host`` (traced host memory of a
    k=8 fabric build, per host) repeats to within a fraction of a
    percent, so CI caps it too.
    """
    from .topo import bench_topo

    return bench_topo(quick=quick)


def _bench_topo_full(quick: bool = False) -> dict:
    """``topo_full`` section: the 1024-host interactive-scale run.

    k=16 (1024 hosts, 1280 switches) congested cross-pod permutation in
    flow mode — the workload the incremental component-local water-fill
    exists for.  Skipped in ``--quick`` (schema stays stable; the
    section records ``skipped: true``) because even at ~6 s it dwarfs
    the CI smoke budget.
    """
    if quick:
        return {"skipped": True}
    from .topo import run_topo

    res = run_topo(16, "congested", "flow")
    return {
        "skipped": False,
        "k": res["k"],
        "hosts": res["hosts"],
        "size": res["size"],
        "now_ns": res["now"],
        "events": res["events"],
        "events_per_mib": round(res["events_per_mib"], 1),
        "wall_s": res["wall_s"],
        "flow_stats": res["flow_stats"],
    }


# ---------------------------------------------------------------------------
# fleet host memory
# ---------------------------------------------------------------------------

#: The fleet points ``fleet_memory`` traces: star9, 8 clients, rw4k.
FLEET_MEMORY_WORKLOADS = {"orfa_mx": {"kind": "orfa", "api": "mx"},
                          "nbd_mx": {"kind": "nbd", "api": "mx"}}
FLEET_MEMORY_OPS = 40


def fleet_point_peak_kib(workload: dict) -> float:
    """Traced host-memory peak, in KiB, of one open-loop fleet point.

    The point (star9, 8 clients, rw4k at 20k ops/s) runs twice first,
    so imports and the allocator's free lists are not counted, and the
    garbage collector runs just before tracing starts, so the cyclic
    worlds of earlier points are not counted either.  The peak covers
    the world's set-up (server files, NBD devices) and its run.
    """
    from ..fleet import FleetSpec, run_point

    spec = FleetSpec.from_dict({
        "name": "perf-fleet-memory", "seed": 1, "n_ops": FLEET_MEMORY_OPS,
        "n_clients": 8, "mix": "rw4k", "loop": "open",
        "grid": {"topology": [{"kind": "star", "n": 9}],
                 "workload": [workload], "offered_load": [20000]},
    })
    point = spec.points()[0]
    for _ in range(2):
        run_point(spec, point)
    gc.collect()
    tracemalloc.start()
    try:
        run_point(spec, point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gc.collect()
    return round(peak / 1024, 1)


def bench_fleet_memory() -> dict:
    """``fleet_memory`` section: :func:`fleet_point_peak_kib` of an
    ORFA-on-MX and an NBD-on-MX point.  Traced bytes repeat run to run
    on one Python version, so CI caps them."""
    return {
        "topology": "star9",
        "n_ops": FLEET_MEMORY_OPS,
        "peak_kib": {name: fleet_point_peak_kib(workload)
                     for name, workload in FLEET_MEMORY_WORKLOADS.items()},
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_perf(quick: bool = False) -> dict:
    """Run all self-benchmarks; returns the report dict."""
    report = {
        "schema": "repro-perf/1",
        "quick": quick,
        "data_path": bench_data_path(quick=quick),
        "packet_train": bench_packet_train(quick=quick),
        "topo": _bench_topo(quick=quick),
        "topo_full": _bench_topo_full(quick=quick),
        "fleet_memory": bench_fleet_memory(),
    }
    dp = report["data_path"]["paths"]
    pt = report["packet_train"]["summary"]
    tp = report["topo"]["summary"]
    report["summary"] = {
        "data_path_copy_per_byte_max": max(
            p["summary"]["max_copy_per_byte"] for p in dp.values()),
        "packet_train_event_reduction": pt["event_reduction_min"],
        "packet_train_events_per_mb": pt["events_per_mb_train_max"],
        "packet_train_sim_identical": pt["sim_time_identical"],
        "topo_event_reduction": tp["event_reduction"],
        "topo_events_per_mib_flow": tp["events_per_mib_flow"],
        "topo_identity_identical": (tp["identity_completions_identical"]
                                    and tp["identity_obs_identical"]),
        "topo_waterfill_reduction": tp["waterfill_reduction"],
        "topo_build_kib_per_host": tp["build_kib_per_host"],
        "topo_full_wall_s": (None if report["topo_full"]["skipped"]
                             else report["topo_full"]["wall_s"]),
        "fleet_peak_kib": report["fleet_memory"]["peak_kib"],
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench-perf",
        description="Self-benchmark the simulator's fast paths and host footprint",
    )
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI smoke, ~1 s)")
    parser.add_argument("--out", default="BENCH_engine.json", metavar="PATH",
                        help="where to write the JSON report "
                             "(default: BENCH_engine.json; '-' for stdout only)")
    args = parser.parse_args(argv)
    report = run_perf(quick=args.quick)
    if args.out != "-" and os.path.exists(args.out):
        # Frozen notes about retired benchmarks outlive every rerun.
        with open(args.out) as fh:
            history = json.load(fh).get("history")
        if history is not None:
            report["history"] = history
    text = json.dumps(report, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    summary = report["summary"]
    for line in (
        f"data-path copies : {summary['data_path_copy_per_byte_max']:>12.2f} host bytes copied per payload byte",
        f"packet trains    : {summary['packet_train_event_reduction']:>12.2f} x fewer engine events "
        f"({summary['packet_train_events_per_mb']:,.0f} events/MB)",
        f"fabric flows     : {summary['topo_event_reduction']:>12.2f} x fewer engine events "
        f"({summary['topo_events_per_mib_flow']:,.0f} events/MiB), "
        f"identity={summary['topo_identity_identical']}",
        f"fabric waterfill : {summary['topo_waterfill_reduction']:>12.2f} x fewer flows re-divided "
        f"(component-local vs global)",
        f"fabric build     : {summary['topo_build_kib_per_host']:>12.1f} KiB traced per host (k=8)",
        f"fabric full run  : "
        + (f"{summary['topo_full_wall_s']:>12.1f} s (1024 hosts)"
           if summary['topo_full_wall_s'] is not None else "skipped"),
        *(f"fleet {name:<11}: {kib:>12.1f} KiB traced peak per point (star9)"
          for name, kib in summary["fleet_peak_kib"].items()),
    ):
        print(line, file=sys.stderr if args.out == "-" else sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
