"""Table 1: the paper's summary of MX vs GM in-kernel performance.

Table 1 is a view: its rows are read off the points of figures 5(a),
7 and 8, measured here on their own, and it prints the composed table (the per-row claims are asserted by the individual
figure benchmarks; this target checks the composite renders and the two
headline ratios hold together).
"""

from conftest import run_once

from repro.bench.figures import run_figure


def test_table1_summary(benchmark):
    text = run_once(benchmark, run_figure, "table1")
    print()
    print(text)
    benchmark.extra_info["table"] = text
    assert "Kernel latency" in text
    assert "Buffered remote file access" in text
    assert "0-copy socket bandwidth" in text
