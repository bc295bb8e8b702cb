"""Figure 7(b): ORFS buffered file access over GM vs MX.

Paper claims reproduced here (section 5.2): "Buffered file access in
ORFS on MX shows a 40 % improvement over GM.  Network requests are
page-sized in this context.  But, MX raw performance is not better than
GM for such messages.  The ORFS/MX performance improvement is thus
caused by our improved kernel interface."
"""

from conftest import figure, record_figure, run_once


def test_fig7b_orfs_buffered(benchmark):
    data = run_once(benchmark, figure, "fig7b")
    record_figure(benchmark, data)
    s = data.series
    gain = s["ORFS/MX Buffered"][-1] / s["ORFS/GM Buffered"][-1] - 1
    assert 0.25 < gain < 0.55, f"buffered MX gain {gain:.2%} (paper: 40 %)"
    # the gain is NOT explained by raw page-sized performance: raw GM
    # actually beats raw MX at 4 kB
    i4k = data.xs.index(4096)
    assert s["GM"][i4k] >= s["MX Kernel"][i4k]
    # both plateau well below their raw curves (page-sized splitting)
    assert s["ORFS/GM Buffered"][-1] < 0.5 * s["GM"][-1]
    assert s["ORFS/MX Buffered"][-1] < 0.6 * s["MX Kernel"][-1]
