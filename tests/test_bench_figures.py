"""Tests for the figure views, their experiment set and the CLI runner."""

import json
import multiprocessing
import os
import re
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import obs
from repro.bench import figures
from repro.bench.figures import (
    FIGURES, VIEWS, measure, plan, render, run_figure, workers)
from repro.bench.runner import ALL, main
from repro.sim import Environment

PINNED = Path(__file__).resolve().parents[1] / "bench_figures.txt"


def _section(name: str) -> str:
    """``name``'s section of bench_figures.txt."""
    return {text.split(":")[0][3:]: text
            for text in PINNED.read_text().split("\n\n") if text}[name]


def test_registry_covers_every_paper_figure():
    expected = {"fig1b", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b",
                "fig6", "fig7a", "fig7b", "fig8a", "fig8b"}
    assert set(FIGURES) == expected
    assert ALL == sorted(expected) + ["table1"]


def test_fig1b_structure_and_determinism():
    a = FIGURES["fig1b"].view({})
    b = FIGURES["fig1b"].view({})
    assert a.series == b.series
    assert set(a.series) == {
        "Copy (P3 1.2GHz)", "Copy (P4 2.6GHz)", "Registration",
        "Deregistration", "Register+Dereg",
    }
    assert all(len(v) == len(a.xs) for v in a.series.values())
    rendered = a.render()
    assert "fig1b" in rendered and "256k" in rendered


def test_bench_all_plans_each_point_once():
    """One experiment set serves every figure: no (key, size) point is
    planned twice, every point a view reads is planned, and table1,
    a view over figures 5(a), 7 and 8, plans no job of its own."""
    jobs = plan(ALL)
    points = [point for job in jobs for point in job.points]
    assert len(points) == len(set(points))
    assert set(points) == {(key, size) for name in ALL
                           for key, sizes in VIEWS[name].requests
                           for size in sizes}
    assert [job for job in jobs if job.figure == "table1"] == []


@pytest.mark.slow
@pytest.mark.parametrize("name", ALL)
def test_each_name_alone_matches_its_pinned_section(name, measured):
    """A name measured on its own plans its jobs differently from
    ``bench all`` (fresh rigs, other netpipe sweeps) and still prints
    exactly its section of bench_figures.txt.  Its claims' extra points
    are planned after its own, and the claims read this measurement."""
    assert render(name, measured(name)) == _section(name)


def test_run_figure_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_figure("fig99")


def test_runner_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig5a" in out and "table1" in out


def test_runner_renders_figure(capsys):
    assert main(["fig4a"]) == 0
    out = capsys.readouterr().out
    assert "Physical Address" in out


def test_runner_json_mode(capsys):
    assert main(["fig4a", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "fig4a" in data
    series = data["fig4a"]["series"]
    assert set(series) == {"Memory Registration", "Physical Address"}
    assert len(series["Physical Address"]) == len(data["fig4a"]["xs"])


def test_runner_unknown_experiment_errors(capsys):
    assert main(["nonsense"]) == 2
    assert main(["nonsense", "--json"]) == 2


# -- the executor -------------------------------------------------------------

CPUS = len(os.sched_getaffinity(0))

#: Tests that watch jobs run in forked workers: there are none with one
#: usable CPU, nor while a profiler or tracer (a coverage or reach run)
#: watches this process.
forks = pytest.mark.skipif(
    CPUS < 2 or sys.getprofile() is not None or sys.gettrace() is not None,
    reason="jobs stay in-process: one usable CPU, or a profiler attached")


def _counted(fn, *args):
    """``fn(*args)`` and the engine events this process counted for it."""
    ev0 = Environment.lifetime_events_processed
    out = fn(*args)
    return out, Environment.lifetime_events_processed - ev0


@forks
def test_jobs_measured_in_workers_equal_the_in_process_measurement():
    """fig5a's four jobs run in forked workers (this process counts none
    of their events) and give its pinned section, point for point the
    same results as a run in this process."""
    assert workers(len(plan(["fig5a"]))) == min(CPUS, 4)
    forked, events = _counted(measure, ["fig5a"])
    assert events == 0
    with obs.installed_registry():
        in_process, events = _counted(measure, ["fig5a"])
    assert events > 0
    assert forked == in_process
    assert render("fig5a", forked) == _section("fig5a")


@contextmanager
def _installed_timeline():
    obs.install_timeline()
    try:
        yield
    finally:
        obs.uninstall_timeline()


@contextmanager
def _profiled():
    previous = sys.getprofile()
    sys.setprofile(lambda *args: None)
    try:
        yield
    finally:
        sys.setprofile(previous)


@contextmanager
def _wrapped():
    # As a tracer that wraps the program's functions does.
    run_job = figures.run_job
    figures.run_job = lambda job: run_job(job)
    try:
        yield
    finally:
        figures.run_job = run_job


@contextmanager
def _threaded():
    # Forking a process that runs threads is unsafe.
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize(
    "hook", [obs.installed_registry, _installed_timeline, _profiled,
             _wrapped, _threaded],
    ids=["registry", "timeline", "profile", "wrapped", "thread"])
def test_jobs_stay_in_this_process_where_workers_cannot_go(hook):
    """Workers could not report to an installed registry or timeline, to
    a profiler or to wrappers of the program's functions, and forking a
    threaded process is unsafe: with any of them the parent runs, and
    counts, every event of the measurement."""
    expected = sum(_counted(figures._run_timed, job)[1]
                   for job in plan(["fig4a"]))
    with hook():
        assert workers(2) == 1
        results, events = _counted(measure, ["fig4a"])
    assert events == expected
    assert render("fig4a", results) == _section("fig4a")


@forks
def test_no_worker_outlives_measure(monkeypatch):
    """Every worker is joined when ``measure`` returns, and when a job
    raises, whose exception reaches the caller; the pool leaves no
    thread behind, so the next call forks again."""
    measure(["fig4a"])
    assert multiprocessing.active_children() == []
    assert workers(2) == min(CPUS, 2)

    def fail(*args):
        raise ValueError("job failed")

    monkeypatch.setitem(figures._SERIES, "netpipe", fail)
    with pytest.raises(ValueError, match="job failed"):
        measure(["fig4a"])
    assert multiprocessing.active_children() == []
    assert workers(2) == min(CPUS, 2)


@forks
def test_runner_parallel_bounds_the_executor(capsys):
    """``--parallel`` is an upper bound: 0 (the default) is one worker per
    usable CPU, and no count exceeds the jobs (fig4a plans two)."""
    def used(*argv):
        assert main(["fig4a", "--timings", *argv]) == 0
        err = capsys.readouterr().err
        return int(re.search(r"\(parallel=(\d+)\)", err).group(1))

    assert used() == used("--parallel", "0") == min(CPUS, 2)
    assert used("--parallel", "1") == 1
    assert used("--parallel", "64") == min(CPUS, 2)


def test_runner_parallel_output_identical_to_sequential(capsys):
    # fig1b is pure arithmetic (cheapest figure): a good smoke for the
    # forked-worker path (the default) producing byte-identical output.
    assert main(["fig1b", "fig4a", "--json", "--parallel", "1"]) == 0
    sequential = capsys.readouterr().out
    assert main(["fig1b", "fig4a", "--json"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == sequential
    assert json.loads(sequential)["fig1b"]["series"]


def test_runner_timings_on_stderr(capsys):
    assert main(["fig1b", "fig4a", "--timings"]) == 0
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
