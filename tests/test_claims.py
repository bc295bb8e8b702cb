"""Each paper claim holds, and EXPERIMENTS.md states it as measured.

A claim (:mod:`repro.bench.claims`) is one ✔/≈ row of a figure section
of EXPERIMENTS.md.  Rows and claims pair one-to-one by section and claim
cell, with the same mark; each claim holds on its figure's measurement,
made once for the suite (the ``measured`` fixture), and renders its
row's measured cell exactly.  Table 1 in the document is the ``table1``
section of bench_figures.txt.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import claims
from repro.bench.figures import FIGURES, VIEWS, socket
from repro.bench.runner import ALL

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = ROOT / "EXPERIMENTS.md"


def experiment_rows(text: str) -> dict:
    """``{(figure, claim cell): (mark, measured cell)}`` for every ✔/≈
    row of the document's figure sections."""
    rows: dict = {}
    figure = None
    for line in text.splitlines():
        if line.startswith("## "):
            heading = re.match(r"## Figure (\d+)(?:\((\w)\))? ", line)
            figure = ("fig" + "".join(heading.groups(default=""))
                      if heading else None)
        elif figure and line.startswith("|"):
            cells = [cell.strip() for cell in line.strip("| \n").split("|")]
            if cells[-1][:1] in ("✔", "≈"):
                assert (figure, cells[0]) not in rows, (figure, cells[0])
                rows[figure, cells[0]] = (cells[-1][0], cells[2])
    return rows


def test_experiments_rows_and_claims_pair_one_to_one():
    rows = experiment_rows(EXPERIMENTS.read_text(encoding="utf-8"))
    declared = {(c.figure, c.row): c.mark for c in claims.CLAIMS}
    assert len(declared) == len(claims.CLAIMS)
    assert {c.figure for c in claims.CLAIMS} == set(FIGURES)
    assert sorted(declared) == sorted(rows)
    assert declared == {key: mark for key, (mark, _) in rows.items()}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(FIGURES))
def test_claims_hold_and_experiments_states_their_render(name, measured):
    rows = experiment_rows(EXPERIMENTS.read_text(encoding="utf-8"))
    results = measured(name)
    for claim in claims.of(name):
        assert claim.holds(results), (claim.row, claim.render(results))
        assert rows[name, claim.row] == (claim.mark, claim.render(results))


def test_claims_add_only_the_tcp_baseline():
    """A claim reads points its figures plot; the only point no figure
    plots is the TCP/GigE baseline at 1 B."""
    def points(views):
        return {(key, size) for view in views
                for key, sizes in view.requests for size in sizes}

    plotted = points(VIEWS[name] for name in ALL)
    assert points(claims.CLAIMS) - plotted == {(socket("tcp"), 1)}


def test_program_does_not_import_claims():
    code = ("import sys, repro, repro.bench.runner, repro.bench.figures; "
            "print('repro.bench.claims' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_experiments_table1_is_the_pinned_section():
    """Text only: the Table 1 block of EXPERIMENTS.md is the body of the
    ``table1`` section of bench_figures.txt."""
    pinned = (ROOT / "bench_figures.txt").read_text(encoding="utf-8")
    section = next(text for text in pinned.split("\n\n")
                   if text.startswith("== table1:"))
    doc = EXPERIMENTS.read_text(encoding="utf-8")
    block = re.search(r"## Table 1 .*?```\n(.*?)```", doc, re.S).group(1)
    assert block == section.split("\n", 1)[1] + "\n"
