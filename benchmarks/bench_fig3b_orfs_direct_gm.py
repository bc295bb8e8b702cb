"""Figure 3(b): ORFS direct access on GM and the registration cache.

Paper claims reproduced here (section 3.2):
* ordering GM raw > ORFA > ORFS (system calls + VFS traversal cost);
* "Without any cache hit, the performance is 20 % lower" — the
  no-registration-cache ORFS curve trails the cached one by ~15-25 %
  at large requests.
"""

from conftest import figure, record_figure, run_once


def test_fig3b_registration_cache_impact(benchmark):
    data = run_once(benchmark, figure, "fig3b")
    record_figure(benchmark, data)
    s = data.series
    large = -1  # 256 kB point
    assert s["GM Raw"][large] > s["ORFA w/ RegCache"][large]
    assert s["ORFA w/ RegCache"][large] > s["ORFS w/ RegCache"][large]
    loss = 1 - s["ORFS w/o RegCache"][large] / s["ORFS w/ RegCache"][large]
    assert 0.10 < loss < 0.30, f"no-cache loss {loss:.2%} (paper: ~20 %)"
