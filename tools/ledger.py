"""Write ``BENCH_engine.json``: the repository's performance ledger.

Run from the repository root; it takes no options::

    python3 tools/ledger.py     # ~10 min on 2 CPUs

For each workload ``BENCHMARK.json`` declares, at seed 1 and for its
``run_seconds``, it runs ``perfbench/run.py --trace 1`` once and
``--trace 0`` five times, one process at a time, and records:

* every run's value of each end-to-end metric, with their median and
  quartiles;
* perfbench's ``EXACT_COUNTS`` from the traced run.

It also records the commit measured (``git describe --always --dirty``
and the date) and the test count and wall time of one run of the tier-1
suite.  The frozen ``history`` section of the existing file is kept as
it is.  A performance claim is then a diff of this file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "BENCH_engine.json")
SEED = 1
UNTRACED_RUNS = 5

sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import EXACT_COUNTS  # noqa: E402


def perfbench(workload: str, seconds: float, trace: int) -> dict:
    """The metrics of one ``perfbench/run.py`` run, which must pass."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds),
            "--trace", str(trace)]
    print(f"[ledger] {' '.join(argv[1:])}", file=sys.stderr, flush=True)
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if not result.get("correct"):
        raise SystemExit(f"ledger: {workload} --trace {trace} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def tier1() -> dict:
    """Outcome counts and wall seconds of one tier-1 run (``pytest -q``,
    whose last line is the count line)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                           "no:cacheprovider"], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    counts = {outcome: int(n) for n, outcome in re.findall(
        r"(\d+) (passed|failed|skipped|xfailed|xpassed|errors?)",
        done.stdout.splitlines()[-1])}
    return {**counts, "wall_s": round(wall, 1)}


def main() -> int:
    argparse.ArgumentParser(description="Write BENCH_engine.json from "
                            "perfbench runs and one tier-1 run.").parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(LEDGER, encoding="utf-8") as fh:
        history = json.load(fh)["history"]
    describe = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=True).stdout.strip()
    ledger = {"commit": {"describe": describe,
                         "date": datetime.date.today().isoformat()},
              "tier1": tier1(), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        traced = perfbench(workload, spec["run_seconds"], 1)
        runs = [perfbench(workload, spec["run_seconds"], 0)
                for _ in range(UNTRACED_RUNS)]
        ledger["workloads"][workload] = {
            "end_to_end": {m["name"]: spread([run[m["name"]] for run in runs])
                           for m in spec["end_to_end"]},
            "exact_counts": {name: traced[name] for name in EXACT_COUNTS},
        }
    ledger["history"] = history
    with open(LEDGER, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(ledger, indent=2) + "\n")
    print(f"[ledger] wrote {os.path.relpath(LEDGER)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
