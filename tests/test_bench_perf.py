"""Tests for the perf self-benchmark module and the parallel runner."""

import json
import re

import pytest

from repro.bench import perf, runner


def test_run_perf_report_shape():
    report = perf.run_perf()
    assert set(report) == {"schema", "data_path", "fabric_build",
                           "fleet_memory", "summary"}
    assert report["summary"]["topo_build_kib_per_host"] > 0
    assert set(report["summary"]["fleet_peak_kib"]) == {"orfa_mx", "nbd_mx"}
    # The host-copy budget must measure real copies: zero-page scatters
    # are elided, so every data-path entry has to move non-zero bytes.
    for name, path in report["data_path"]["paths"].items():
        for entry in path["entries"]:
            assert entry["host_copy_bytes"] > 0, name
            assert entry["copy_per_byte"] <= 1.25, name


def test_fabric_build_memory_repeats():
    from repro.bench.topo import build_kib_per_host

    # Traced bytes repeat to within a fraction of a percent (the garbage
    # collector's timing moves them slightly), which is what lets CI
    # cap the number with a 10% margin.
    first, second = build_kib_per_host(), build_kib_per_host()
    assert first > 0
    assert abs(first - second) <= 0.01 * first


def test_fleet_point_memory_repeats_and_holds_no_dense_file():
    from repro.bench.perf import FLEET_MEMORY_WORKLOADS, fleet_point_peak_kib

    orfa = FLEET_MEMORY_WORKLOADS["orfa_mx"]
    first, second = fleet_point_peak_kib(orfa), fleet_point_peak_kib(orfa)
    assert abs(first - second) <= 0.01 * first
    # Eight clients each get a 1 MiB server file; none is stored dense.
    assert 0 < first < 8 * 1024


def test_perf_main_writes_json(tmp_path):
    out = tmp_path / "BENCH_engine.json"
    assert perf.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "repro-perf/2"
    assert report["summary"]["data_path_copy_per_byte_max"] > 0


def test_runner_parallel_output_identical_to_sequential(capsys):
    # fig1b is pure arithmetic (cheapest figure): a good smoke for the
    # forked-worker path (the default) producing byte-identical output.
    assert runner.main(["fig1b", "fig4a", "--json", "--parallel", "1"]) == 0
    sequential = capsys.readouterr().out
    assert runner.main(["fig1b", "fig4a", "--json"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == sequential
    assert json.loads(sequential)["fig1b"]["series"]


def test_runner_rejects_unknown_experiment(capsys):
    assert runner.main(["nope"]) == 2


def test_runner_timings_on_stderr(capsys):
    assert runner.main(["fig1b", "fig4a", "--timings"]) == 0
    captured = capsys.readouterr()
    assert "[timing] fig1b" in captured.err
    assert "[timing]" not in captured.out
    # Each figure's line ends with the process's peak RSS so far: a
    # high-water mark, so it never falls from one figure to the next.
    peaks = [float(re.search(r"([\d.]+) MiB peak RSS", line).group(1))
             for line in captured.err.splitlines()
             if line.startswith("[timing] fig")]
    assert len(peaks) == 2
    assert 0 < peaks[0] <= peaks[1]
