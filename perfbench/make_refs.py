"""Regenerate the committed reference outputs under ``refs/``.

Run from the repository root, only when a change is meant to alter the
simulated output (and says why)::

    PYTHONPATH=src python3 perfbench/make_refs.py

Writes ``refs/<workload>-seed<N>.txt`` for every seeded workload at the
default and the held-out seed.  ``paper_figures`` has no file here: its
reference is ``bench_figures.txt``.  A reference is written only if the
pass passes its self-consistency checks.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (DEFAULT_SEED, HELD_OUT_SEED, REFS,  # noqa: E402
                       WORKLOADS, reference_path)

SEEDED = ("fabric_permutation", "fleet_openloop", "replica_chaos")


def main() -> int:
    os.makedirs(REFS, exist_ok=True)
    for name in SEEDED:
        work = WORKLOADS[name]
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            inputs = dict(work.inputs(seed), reference=None)
            state = work.build(inputs)
            outcome = work.run(state)
            work.check(outcome, state, seed)
            if outcome.failed or outcome.problems:
                print(f"{name} seed {seed}: checks failed, not written: "
                      f"{outcome.problems}", file=sys.stderr)
                return 1
            with open(reference_path(name, seed), "w",
                      encoding="utf-8") as fh:
                fh.write(outcome.text)
            print(f"wrote {reference_path(name, seed)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
