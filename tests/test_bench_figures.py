"""Tests for the figure views, their experiment set, the world runner
and the CLI."""

import json
import multiprocessing
import os
import re
import sys
import threading
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import pytest

from repro import obs
from repro.bench import faults, figures, topo
from repro.bench.figures import (
    FIGURES, VIEWS, collect, measure, plan, render, run_figure, run_job)
from repro.bench.runner import ALL, main
from repro.fleet import FleetSpec, run_point
from repro.nbd.chaos import run_scenario
from repro.sim import Environment, worlds
from repro.sim.worlds import run_worlds, workers
from repro.units import KiB

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


# -- the world runner ---------------------------------------------------------

CPUS = len(os.sched_getaffinity(0))

#: Tests that watch worlds run in forked workers: there are none with one
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
    run_timed = worlds._run_timed
    worlds._run_timed = lambda *args, **kwargs: run_timed(*args, **kwargs)
    try:
        yield
    finally:
        worlds._run_timed = run_timed


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
    counts, every event of the runner's worlds."""
    jobs = plan(["fig4a"])
    expected = sum(_counted(run_job, job)[1] for job in jobs)
    with hook():
        assert workers(2) == 1
        (measured, _costs), events = _counted(run_worlds, run_job, jobs)
    assert events == expected
    assert render("fig4a", collect(jobs, measured)) == _section("fig4a")


@forks
def test_no_worker_outlives_the_runner(monkeypatch):
    """Every worker is joined when ``run_worlds`` returns, and when a
    world raises, whose exception reaches the caller; the pool leaves no
    thread behind, so the next call forks again."""
    jobs = plan(["fig4a"])
    run_worlds(run_job, jobs)
    assert multiprocessing.active_children() == []
    assert workers(2) == min(CPUS, 2)

    def fail(*args):
        raise ValueError("job failed")

    monkeypatch.setitem(figures._SERIES, "netpipe", fail)
    with pytest.raises(ValueError, match="job failed"):
        run_worlds(run_job, jobs)
    assert multiprocessing.active_children() == []
    assert workers(2) == min(CPUS, 2)


_FLEET = FleetSpec.from_dict({
    "name": "two", "seed": 1, "n_ops": 16, "n_clients": 2, "mix": "rw4k",
    "grid": {"topology": [{"kind": "star", "n": 4}],
             "workload": [{"kind": "nbd", "api": "mx"}],
             "offered_load": [8000, 32000]},
})


def _same(result):
    return result


#: One case per caller of the runner, with small inputs: (world
#: function, items, what of a result must not depend on the process).
CALLERS = {
    "figures": (run_job, plan(["fig4a"]), _same),
    "fleet": (partial(run_point, _FLEET), _FLEET.points(), _same),
    "replica": (partial(run_scenario, n_ops=8), ["none", "crash-middle"],
                _same),
    "topo": (partial(topo._run_mode, 4, 16 * KiB),
             [("identity", "packet"), ("identity", "flow")],
             lambda r: {k: v for k, v in r.items() if k != "wall_s"}),
    "faults": (partial(faults.fault_run, 1), [("orfa", 0.05), ("nbd", 0.05)],
               _same),
}


@forks
@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_forked_worlds_equal_worlds_run_in_this_process(caller):
    """Worlds share no state: each caller's worlds give the same results
    in forked workers (which this process counts no event of) as one
    at a time in this process, in item order."""
    fn, items, outcome = CALLERS[caller]
    assert workers(len(items)) == min(CPUS, len(items)) > 1
    (forked, _costs), events = _counted(run_worlds, fn, items)
    assert events == 0
    (in_process, costs), events = _counted(run_worlds, fn, items, 1)
    assert events == sum(c[1] for c in costs) > 0
    assert [outcome(r) for r in forked] == [outcome(r) for r in in_process]


@pytest.mark.slow
def test_bench_all_is_byte_identical_to_pinned_figures(capsys):
    """The whole zero-copy refactor must not move a single output byte:
    ``bench all`` is diffed against the pinned bench_figures.txt."""
    from repro.bench.runner import main

    assert main(["all", "--parallel", "4"]) == 0
    out = capsys.readouterr().out
    pinned = Path(__file__).resolve().parents[1] / "bench_figures.txt"
    assert out == pinned.read_text(), (
        "bench all output diverged from bench_figures.txt"
    )


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
