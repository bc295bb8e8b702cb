"""Shared helpers for the benchmark suite.

Each ``bench_*`` file regenerates one table or figure of the paper.
pytest-benchmark times the (deterministic) simulation run; the figures'
actual data — the simulated latencies/bandwidths — are printed as the
same series the paper plots and attached to ``benchmark.extra_info`` so
they land in the JSON output.  Light shape assertions guard the paper's
qualitative claims; the full paper-vs-measured record is EXPERIMENTS.md.
"""

from __future__ import annotations


def figure(name: str):
    """Measure one figure on its own; returns its FigureData."""
    from repro.bench.figures import FIGURES, measure

    return FIGURES[name].view(measure([name]))


def record_figure(benchmark, data) -> None:
    """Attach a FigureData's series to the benchmark record and print it."""
    benchmark.extra_info["figure"] = data.name
    benchmark.extra_info["xs"] = list(data.xs)
    benchmark.extra_info["series"] = {k: list(v) for k, v in data.series.items()}
    print()
    print(data.render())


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
