"""The committed ``BENCH_engine.json`` has the shape ``tools/ledger.py``
writes: one entry per declared perfbench workload, each with every
end-to-end metric's runs and spread and the exact counts of a traced
run, beside the frozen history."""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _exact_counts() -> tuple:
    """perfbench's ``EXACT_COUNTS``, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["EXACT_COUNTS"])


def test_ledger_holds_every_declared_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger = json.loads((ROOT / "BENCH_engine.json").read_text())
    assert {"commit", "tier1", "workloads", "history"} <= set(ledger)
    assert set(ledger["workloads"]) == {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name, workload in ledger["workloads"].items():
        assert set(workload["end_to_end"]) == end_to_end, name
        for metric in workload["end_to_end"].values():
            assert set(metric) == {"median", "q1", "q3", "runs"}, name
            assert metric["q1"] <= metric["median"] <= metric["q3"], name
        assert set(workload["exact_counts"]) == set(_exact_counts()), name
