"""Figure 1(b): memcpy vs GM registration/deregistration overhead.

Paper claims reproduced here (section 2.2.2):
* registration costs ~3 us/page;
* deregistration adds a ~200 us base;
* copying beats register+deregister for every size up to 256 kB, so the
  model "is only interesting for large memory zones used several times".
"""

from conftest import figure, record_figure, run_once


def test_fig1b_registration_vs_copy(benchmark):
    data = run_once(benchmark, figure, "fig1b")
    record_figure(benchmark, data)
    s = data.series
    # ~3 us/page registration slope
    per_page = (s["Registration"][-1] - s["Registration"][0]) / (
        (data.xs[-1] - data.xs[0]) / 4096)
    assert 2.5 < per_page < 3.6
    # ~200 us deregistration base
    assert all(d >= 200 for d in s["Deregistration"])
    # copy (even on the slow P3) beats register+deregister everywhere shown
    for copy, both in zip(s["Copy (P3 1.2GHz)"], s["Register+Dereg"]):
        assert copy < both
    # but registration alone undercuts the P3's copy at large sizes —
    # why pin-down caches (which amortize deregistration) make sense
    assert s["Registration"][-1] < s["Copy (P3 1.2GHz)"][-1]
