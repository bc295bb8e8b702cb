"""Figure 5(b): bandwidth of GM vs MX user vs MX kernel-physical.

Paper claims reproduced here (section 5.1):
* "GM large message bandwidth is the same than MX" (both near the
  250 MB/s PCI-XD rate; GM benefits from 100 % registration reuse);
* "The large message bandwidth is even higher with the kernel interface
  since the page locking overhead is lower."
"""

from conftest import figure, record_figure, run_once


def test_fig5b_bandwidth(benchmark):
    data = run_once(benchmark, figure, "fig5b")
    record_figure(benchmark, data)
    s = data.series
    # large messages: all three near the link rate, GM ~ MX
    for name in s:
        assert 230 < s[name][-1] < 250
    assert abs(s["GM"][-1] - s["MX User"][-1]) < 10
    # kernel-physical >= user for large (no get_user_pages)
    assert s["MX Kernel Physical"][-1] >= s["MX User"][-1]
    # MX leads at 1 kB thanks to its lower base latency
    assert s["MX User"][0] > s["GM"][0]
