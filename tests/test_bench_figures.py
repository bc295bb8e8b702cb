"""Tests for the figure views, their experiment set and the CLI runner."""

import json
from pathlib import Path

import pytest

from repro.bench.figures import FIGURES, VIEWS, plan, render, run_figure
from repro.bench.runner import ALL, main

PINNED = Path(__file__).resolve().parents[1] / "bench_figures.txt"


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
    sections = {text.split(":")[0][3:]: text
                for text in PINNED.read_text().split("\n\n") if text}
    assert render(name, measured(name)) == sections[name]


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
