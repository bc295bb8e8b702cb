"""Figure 4(b): ORFS/GM direct vs buffered file access.

Paper claims reproduced here (section 3.3):
* "4 kB accesses are faster through the page-cache compared to direct
  accesses, even if an additional copy ... is required" — the physical
  interface's efficiency;
* "an application requesting large data transfers will show much better
  performance in the direct case ... a large buffered access is split
  in page-sized requests" — buffered plateaus, direct approaches raw.
"""

from conftest import figure, record_figure, run_once


def test_fig4b_direct_vs_buffered(benchmark):
    data = run_once(benchmark, figure, "fig4b")
    record_figure(benchmark, data)
    s = data.series
    i4k = data.xs.index(4096)
    # buffered beats direct at 4 kB requests
    assert s["ORFS/GM Buffered"][i4k] > s["ORFS/GM Direct"][i4k]
    # direct wins big at large requests; buffered is page-split-limited
    assert s["ORFS/GM Direct"][-1] > 2 * s["ORFS/GM Buffered"][-1]
    # buffered has plateaued (page-sized network requests)
    assert abs(s["ORFS/GM Buffered"][-1] - s["ORFS/GM Buffered"][-2]) < 5
    # direct approaches raw GM at large requests
    assert s["ORFS/GM Direct"][-1] > 0.85 * s["GM Raw"][-1]
