"""Self-tests of the benchmark (not collected by the tier-1 suite).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from layers import LayerTracer  # noqa: E402
from workloads import (DEFAULT_SEED, FABRIC_K, WORKLOADS,  # noqa: E402
                       cross_pod_permutation)


def corrupt(text: str) -> str:
    """Change one digit in the fourth line that carries one."""
    lines = text.split("\n")
    seen = 0
    for i, line in enumerate(lines):
        digits = [j for j, ch in enumerate(line) if ch.isdigit()]
        if not digits or line.startswith("=="):
            continue
        seen += 1
        if seen == 4:
            j = digits[-1]
            flipped = "1" if line[j] != "1" else "2"
            lines[i] = line[:j] + flipped + line[j + 1:]
            return "\n".join(lines)
    raise AssertionError("nothing to corrupt")


@pytest.fixture(scope="module")
def passes():
    """One real pass of every workload at the default seed."""
    out = {}
    for name, work in WORKLOADS.items():
        state = work.build(work.inputs(DEFAULT_SEED))
        out[name] = (state, work.run(state))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_reference_fails_operations(passes, name):
    work = WORKLOADS[name]
    state, outcome = passes[name]
    assert state["reference"] is not None

    good = copy.deepcopy(outcome)
    work.check(good, state, DEFAULT_SEED)
    assert good.attempted > 0
    assert good.failed == 0, good.problems

    bad_state = dict(state, reference=corrupt(state["reference"]))
    bad = copy.deepcopy(outcome)
    work.check(bad, bad_state, DEFAULT_SEED)
    assert bad.attempted == good.attempted
    assert 0 < bad.failed / bad.attempted <= 1
    assert bad.problems


def _checkout(tmp_path, with_program: bool = True):
    """A copy of the files the benchmark runs from; ``src`` links to the
    program under test."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if with_program:
        shutil.copy(os.path.join(ROOT, "bench_figures.txt"), tmp_path)
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return tmp_path


def _bench(cwd, *args) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300)


def test_run_reports_corrupted_reference(tmp_path):
    root = _checkout(tmp_path)
    ref = root / "perfbench" / "refs" / "replica_chaos-seed1.txt"
    ref.write_text(corrupt(ref.read_text()))
    out = _bench(root, "--workload", "replica_chaos", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1
    assert "failed_frac" in out.stderr


def test_traced_run_emits_declared_metrics(tmp_path):
    out = _bench(_checkout(tmp_path), "--workload", "replica_chaos",
                 "--seed", "2", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stderr
    assert set(result["metrics"]) == set(bench.declared_units("per_layer"))
    m = result["metrics"]
    assert m["nbd.replica.reconfigs"]["value"] > 0
    assert m["nbd.replica.self_s"]["value"] > 0
    assert m["trace_overhead"]["value"] > 1


def test_count_gate_reports_mismatch():
    same = {name: 7 for name in bench.EXACT_COUNTS}
    assert bench.count_gate(same, dict(same)) == []
    other = dict(same, **{"hw.cpu.work_calls": 8})
    problems = bench.count_gate(same, other)
    assert len(problems) == 1 and "hw.cpu.work_calls" in problems[0]


def test_no_program_exits_nonzero_without_result(tmp_path):
    out = _bench(_checkout(tmp_path, with_program=False), "--workload",
                 "paper_figures", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_cross_pod_permutation():
    per_pod = (FABRIC_K // 2) ** 2
    for seed in (1, 2, 3):
        pairs = cross_pod_permutation(seed)
        assert pairs == cross_pod_permutation(seed)
        assert sorted(d for _, d in pairs) == list(range(FABRIC_K ** 3 // 4))
        assert all(s // per_pod != d // per_pod for s, d in pairs)
    assert cross_pod_permutation(1) != cross_pod_permutation(2)


def test_tracer_changes_no_output_and_restores_program():
    from repro.bench.figures import run_figure
    from repro.hw.cpu import Cpu

    original = Cpu.work
    plain = run_figure("fig5a")
    with LayerTracer() as tracer:
        traced = run_figure("fig5a")
        tracer.finish()
    assert traced == plain
    assert Cpu.work is original
    assert tracer.calls["repro.hw.cpu:Cpu.work"] > 0
    assert tracer.self_s["sim.engine"] > 0
