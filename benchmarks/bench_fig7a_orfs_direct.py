"""Figure 7(a): ORFS direct file access over GM vs MX.

Paper claims reproduced here (section 5.2): "Direct file accesses on MX
are slightly better than over GM.  The difference is similar to their
raw bandwidth difference." — with GM enjoying 100 % registration-cache
hits in this benchmark.
"""

from conftest import figure, record_figure, run_once


def test_fig7a_orfs_direct(benchmark):
    data = run_once(benchmark, figure, "fig7a")
    record_figure(benchmark, data)
    s = data.series
    # MX direct at least as good as GM direct at the extremes
    assert s["ORFS/MX Direct"][0] >= s["ORFS/GM Direct"][0]
    assert s["ORFS/MX Direct"][-1] >= 0.98 * s["ORFS/GM Direct"][-1]
    # both track their raw curves at large requests
    assert s["ORFS/GM Direct"][-1] > 0.85 * s["GM"][-1]
    assert s["ORFS/MX Direct"][-1] > 0.85 * s["MX Kernel"][-1]
