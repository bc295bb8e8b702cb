"""The paper's figures and Table 1, one pytest-benchmark target each.

A target times measuring one name with its claims
(:mod:`repro.bench.claims`) on their own, prints the rendered table and
each claim's measured cell, records both in ``benchmark.extra_info`` and
asserts the claims hold.  EXPERIMENTS.md is the paper-vs-measured
record; the tier-1 suite checks its rows against the same claims.
"""

import pytest
from conftest import run_once

from repro.bench import claims
from repro.bench.figures import measure, render
from repro.bench.runner import ALL


@pytest.mark.parametrize("name", ALL)
def test_figure(benchmark, name):
    mine = claims.of(name)
    results = run_once(benchmark, measure, [name, *mine])
    table = render(name, results)
    cells = {claim.row: claim.render(results) for claim in mine}
    benchmark.extra_info["table"] = table
    benchmark.extra_info["claims"] = cells
    print()
    print(table)
    for row, cell in cells.items():
        print(f"  {row}: {cell}")
    assert [claim.row for claim in mine if not claim.holds(results)] == []
