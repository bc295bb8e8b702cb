"""Deterministic host-footprint caps no other check holds.

Three sections, each repeatable run to run, so CI caps them:

* **data path**: host copies per payload byte through the GM and MX
  kernel paths (the copies MX removes, paper §5.1);
* **fabric build**: traced host memory of a k=8 fat-tree build, per
  host;
* **fleet memory**: traced host memory of one open-loop fleet point per
  file/block server workload.

The numbers go to ``BENCH_engine.json`` so the trajectory is visible
across changes; wall-clock and engine work are measured on real
workloads by ``perfbench/run.py``.

Usage::

    python -m repro.bench.perf                 # writes BENCH_engine.json
    python -m repro.bench.perf --out path.json # '-' for stdout only
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tracemalloc

from ..mem import sglist
from ..sim import Environment
from ..units import KiB, MiB

DATA_PATH_SIZES = [4 * KiB, 32 * KiB, 256 * KiB, MiB]
DATA_PATH_ROUNDS = 10

#: Fat-tree arity of the traced fabric build (k^3/4 = 128 hosts).
FABRIC_BUILD_K = 8


# ---------------------------------------------------------------------------
# data-path host-copy accounting
# ---------------------------------------------------------------------------

def bench_data_path() -> dict:
    """Host-copy counts through the real data paths.

    Runs a NetPIPE-style ping-pong over the GM-kernel-physical, MX-kernel
    and MX-kernel-with-copy-removal paths, with payloads flowing as
    :class:`repro.mem.PayloadRef` chunk views end-to-end.
    ``HOST_COPIES`` counting is deterministic, so one run per size is
    enough and CI pins a per-byte budget on it.

    Both send buffers are filled with a non-zero pattern first: a
    never-written buffer carries zero pages, whose scatter into fresh
    receive frames is elided (:meth:`repro.mem.phys.Frame.write`), and
    the budget would then pass without measuring any copy.
    """
    from ..cluster.node import node_pair
    from .netpipe import ping_pong, prepare_pair
    from .transports import GmKernelTransport, MxTransport

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
    report: dict = {"sizes": DATA_PATH_SIZES, "rounds": DATA_PATH_ROUNDS,
                    "paths": {}}
    for name, build in paths.items():
        entries = []
        for size in DATA_PATH_SIZES:
            env = Environment()
            a, b = build(env)
            prepare_pair(env, a, b, size)
            for t in (a, b):
                send_buf = (t.send_alloc if isinstance(t, GmKernelTransport)
                            else t.send_ref)
                t.node.kspace.write_bytes(send_buf.vaddr, b"\xa5" * size)
            c0 = sglist.HOST_COPIES.snapshot()
            ping_pong(env, a, b, size, rounds=DATA_PATH_ROUNDS, warmup=0)
            c1 = sglist.HOST_COPIES.snapshot()
            nbytes = c1["nbytes"] - c0["nbytes"]
            entries.append({
                "size": size,
                "host_copies": c1["copies"] - c0["copies"],
                "host_copy_bytes": nbytes,
                # both directions
                "copy_per_byte": nbytes / (2 * size * DATA_PATH_ROUNDS),
            })
        report["paths"][name] = {
            "entries": entries,
            "summary": {
                "host_copy_bytes": sum(e["host_copy_bytes"] for e in entries),
                "max_copy_per_byte": max(e["copy_per_byte"] for e in entries),
            },
        }
    return report


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


def run_perf() -> dict:
    """Run all sections; returns the report dict."""
    from .topo import build_kib_per_host

    report = {
        "schema": "repro-perf/2",
        "data_path": bench_data_path(),
        "fabric_build": {
            "k": FABRIC_BUILD_K,
            "kib_per_host": build_kib_per_host(FABRIC_BUILD_K),
        },
        "fleet_memory": bench_fleet_memory(),
    }
    report["summary"] = {
        "data_path_copy_per_byte_max": max(
            p["summary"]["max_copy_per_byte"]
            for p in report["data_path"]["paths"].values()),
        "topo_build_kib_per_host": report["fabric_build"]["kib_per_host"],
        "fleet_peak_kib": report["fleet_memory"]["peak_kib"],
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench-perf",
        description="Measure the simulator's deterministic host-copy and "
                    "host-memory footprint",
    )
    parser.add_argument("--out", default="BENCH_engine.json", metavar="PATH",
                        help="where to write the JSON report "
                             "(default: BENCH_engine.json; '-' for stdout only)")
    args = parser.parse_args(argv)
    report = run_perf()
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
        f"fabric build     : {summary['topo_build_kib_per_host']:>12.1f} KiB traced per host (k={FABRIC_BUILD_K})",
        *(f"fleet {name:<11}: {kib:>12.1f} KiB traced peak per point (star9)"
          for name, kib in summary["fleet_peak_kib"].items()),
    ):
        print(line, file=sys.stderr if args.out == "-" else sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
