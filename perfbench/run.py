"""The repository benchmark: host cost of the simulator's entry points.

Run from the repository root::

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 10 --trace 0

Every workload runs in fresh processes started from here, one at a time
(no worker pool: the benchmark must not compete with itself for the
CPU).  With ``--trace 0`` it prints the end-to-end metrics:

* ``wall_s`` — median host seconds of one timed pass, after set-up;
* ``setup_s`` — median, over several fresh processes, of host seconds
  from process start through importing the program and building the
  workload's inputs and topology;
* ``peak_rss_mib`` — peak resident memory of the measuring process over
  set-up and its first pass;
* ``ok_frac`` — share of the operations attempted whose simulated result
  matched the reference (``1 - failed_frac``; the result line carries
  ``attempted`` and ``failed`` themselves).

With ``--trace 1`` it runs the workload twice more under the per-layer
tracer (``layers.py``) and prints the per-layer metrics.  The counts in
``EXACT_COUNTS`` must repeat exactly between the two traced processes;
the run reports a mismatch and fails if they do not.

The last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Human-readable
detail goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: Fresh processes timed for ``setup_s`` (the measuring process is one
#: more sample).
SETUP_SAMPLES = 4
#: Per-child time limit; the whole run must end well inside 180 s.
CHILD_TIMEOUT_S = 170

#: Per-layer counts later changes may cite; two traced runs of one seed
#: must agree on them exactly.
EXACT_COUNTS = ("sim.engine.events", "sim.resources.acquires",
                "hw.cpu.work_calls", "mem.host_copies", "hw.flow.recomputes")


class BenchError(Exception):
    """A child process failed; the run prints no result."""


def declared_units(section: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def attach_units(metrics: dict, section: str) -> None:
    """Give every metric its declared unit; the emitted set must be
    exactly the declared one."""
    units = declared_units(section)
    if set(units) != set(metrics):
        raise BenchError(
            f"metrics differ from BENCHMARK.json {section}: missing "
            f"{sorted(set(units) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(units))}")
    for name, m in metrics.items():
        m["unit"] = units[name]


def _worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(workload: str, seed: int, mode: str, seconds: float,
              deadline: float) -> tuple:
    """Start one worker; returns (seconds from start to ``ready``, last
    JSON line or None).  A child still running at ``deadline`` is
    killed; the child has ended when this returns or raises."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            elif line.strip():
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"{mode} child of {workload} exited with {code}")
    result = json.loads(lines[-1]) if lines else None
    return ready, result


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    samples = []
    for _ in range(SETUP_SAMPLES):
        ready, _ = run_child(workload, seed, "setup", seconds, deadline)
        samples.append(ready)
    ready, result = run_child(workload, seed, "measure", seconds, deadline)
    samples.append(ready)
    if result is None or any(s is None for s in samples):
        raise BenchError("a worker never reported set-up done")
    walls = result["walls"]
    attempted = result["attempted"]
    failed = result["failed"]
    if attempted < 1:
        raise BenchError("the workload attempted no operation")
    print(f"[{workload} seed {seed}] {len(walls)} pass(es): "
          f"{', '.join(f'{w:.3f}' for w in walls)} s; setup samples "
          f"{', '.join(f'{s:.3f}' for s in samples)} s", file=sys.stderr)
    metrics = {
        "wall_s": {"value": statistics.median(walls)},
        "setup_s": {"value": statistics.median(samples)},
        "peak_rss_mib": {"value": result["peak_rss_mib"]},
        "ok_frac": {"value": (attempted - failed) / attempted},
    }
    return {"attempted": attempted, "failed": failed,
            "problems": result["problems"], "notes": result["notes"],
            "metrics": metrics}


def _family(snapshot: dict, section: str, name: str, **labels) -> float:
    """Sum of an obs family over label sets containing ``labels``."""
    want = {f"{k}={v}" for k, v in labels.items()}
    total = 0
    for key, value in snapshot[section].items():
        base, _, rest = key.partition("{")
        if base != name:
            continue
        if want <= set(rest.rstrip("}").split(",")):
            total += value["sum"] if section == "histograms" else value
    return total


def _hist_count(snapshot: dict, name: str) -> int:
    return sum(v["count"] for k, v in snapshot["histograms"].items()
               if k.partition("{")[0] == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict) -> dict:
    """The per-layer metrics of one traced worker result."""
    snap = t["obs"]
    calls = t["calls"]
    ext = t["external_calls"]
    probes = t["probes"]
    self_s = t["self_s"]

    def c(*keys) -> int:
        return sum(calls.get(k, 0) for k in keys)

    def counter(name, **labels):
        return _family(snap, "counters", name, **labels)

    res = "repro.sim.resources:"
    pc_hits = counter("pagecache.hits")
    pc_misses = counter("pagecache.misses")
    krc_hits = counter("gmkrc.hits")
    krc_misses = counter("gmkrc.misses")
    flows = counter("net.flows")
    refused = counter("net.flow_refused")
    # Self time of every layer; the layers together cover the whole pass.
    m = {f"{layer}.self_s": secs for layer, secs in self_s.items()}
    m.update({
        "sim.engine.events": t["events"],
        # Untraced host time per simulated event of the timed phase.
        "sim.engine.ns_per_event": _ratio(t["untraced_wall_s"] * 1e9,
                                          t["pass_events"]),
        # Resource slots taken: every acquire(), plus every request()
        # not issued by acquire()'s own contended path.
        "sim.resources.acquires": (
            c(res + "Resource.acquire", res + "PriorityResource.acquire")
            + ext.get(res + "Resource.request", 0)
            + ext.get(res + "PriorityResource.request", 0)),
        "sim.resources.queued": probes.get("sim.resources.queued", 0),
        "hw.cpu.work_calls": c("repro.hw.cpu:Cpu.work"),
        "hw.cpu.copy_calls": c("repro.hw.cpu:Cpu.copy"),
        "kernel.pagecache.hits": pc_hits,
        "kernel.pagecache.misses": pc_misses,
        "kernel.pagecache.hit_ratio": _ratio(pc_hits, pc_hits + pc_misses),
        "mem.addrspace.translations": c(
            "repro.mem.addrspace:AddressSpace.translate",
            "repro.mem.kmem:KernelSpace.translate"),
        "hw.train.trains": counter("net.trains"),
        "hw.train.decoalesce": counter("net.train_decoalesce"),
        "hw.train.packets_per_train": _ratio(
            _family(snap, "histograms", "net.train_len"),
            _hist_count(snap, "net.train_len")),
        "hw.nic.tx_messages": counter("nic.tx.messages"),
        "hw.nic.retransmits": counter("nic.tx.retransmits"),
        "hw.flow.flows": flows,
        "hw.flow.refused": refused,
        "hw.flow.grant_ratio": _ratio(flows, flows + refused),
        "hw.flow.recomputes": counter("net.flow_recompute"),
        "hw.flow.flows_touched": counter("net.flow_waterfill_flows",
                                         scope="touched"),
        "hw.switch.forwards": counter("switch.forwards"),
        "mem.phys.allocs": c("repro.mem.phys:PhysicalMemory.alloc",
                             "repro.mem.phys:PhysicalMemory.alloc_contiguous"),
        "mem.host_copies": t["host_copies"],
        "mem.host_copy_bytes": t["host_copy_bytes"],
        "gm.registered_pages": _family(snap, "gauges", "gm.registered_pages"),
        "gmkrc.hits": krc_hits,
        "gmkrc.misses": krc_misses,
        "gmkrc.hit_ratio": _ratio(krc_hits, krc_hits + krc_misses),
        "load.ops": counter("load.ops"),
        "load.failures": counter("load.failures"),
        "load.late_releases": t["late_releases"],
        "load.max_lateness_ns": t["max_lateness_ns"],
        "nbd.replica.reconfigs": counter("nbd.replica.reconfigs"),
        "trace_overhead": _ratio(t["traced_wall_s"], t["untraced_wall_s"]),
    })
    return m


def count_gate(a: dict, b: dict) -> list:
    """Problems for every ``EXACT_COUNTS`` metric on which two traced
    runs of one seed disagree."""
    return [f"exact-count gate: {name} differs between two traced runs "
            f"of one seed: {a[name]} vs {b[name]}"
            for name in EXACT_COUNTS if a[name] != b[name]]


def trace(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    _, first = run_child(workload, seed, "trace", seconds, deadline)
    _, second = run_child(workload, seed, "trace-again", seconds, deadline)
    if first is None or second is None:
        raise BenchError("a traced worker printed no result")
    second["untraced_wall_s"] = first["untraced_wall_s"]
    a = layer_metrics(first)
    b = layer_metrics(second)
    problems = first["problems"] + second["problems"] + count_gate(a, b)
    top = sorted(((k, v) for k, v in a.items() if k.endswith(".self_s")),
                 key=lambda kv: -kv[1])[:8]
    print(f"[{workload} seed {seed}] traced self time: "
          + ", ".join(f"{k[:-7]} {v:.3f}s" for k, v in top)
          + f"; trace_overhead {a['trace_overhead']:.2f}", file=sys.stderr)
    metrics = {name: {"value": value} for name, value in a.items()}
    return {"attempted": first["attempted"] + second["attempted"],
            "failed": first["failed"] + second["failed"],
            "problems": problems, "notes": first["notes"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-cost benchmark of the repro simulator")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            out = trace(args.workload, args.seed, args.seconds, deadline)
            attach_units(out["metrics"], "per_layer")
        else:
            out = measure(args.workload, args.seed, args.seconds, deadline)
            attach_units(out["metrics"], "end_to_end")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in out["problems"]:
        print(f"[{args.workload} seed {args.seed}] CHECK: {problem}",
              file=sys.stderr)
    for note in out["notes"]:
        print(f"[{args.workload} seed {args.seed}] NOTE: {note}",
              file=sys.stderr)
    failed_frac = out["failed"] / out["attempted"]
    print(f"[{args.workload} seed {args.seed}] failed_frac {failed_frac} "
          f"({out['failed']} of {out['attempted']} operations)",
          file=sys.stderr)
    for name, m in out["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    correct = out["failed"] == 0 and not out["problems"]
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
