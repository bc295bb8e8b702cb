"""Shared helpers for the benchmark suite.

``bench_figures.py`` regenerates the paper's figures and Table 1 and
asserts their claims; the ``bench_ablation_*`` and ``bench_ext_*``
targets measure what the paper did not.  pytest-benchmark times each
(deterministic) simulation run once.
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
