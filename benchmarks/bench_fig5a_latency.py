"""Figure 5(a): small-message latency, GM vs MX, user vs kernel.

Paper claims reproduced here (section 5.1):
* MX 1-byte user latency 4.2 us; GM 6.7 us ("more than 50 % higher");
* GM kernel latency 2 us above GM user;
* MX kernel latency identical to MX user.
"""

from conftest import figure, record_figure, run_once


def test_fig5a_latency(benchmark):
    data = run_once(benchmark, figure, "fig5a")
    record_figure(benchmark, data)
    s = data.series
    assert abs(s["MX User"][0] - 4.2) < 0.3
    assert abs(s["GM User"][0] - 6.7) < 0.3
    assert s["GM User"][0] / s["MX User"][0] > 1.5
    assert 1.7 < s["GM Kernel"][0] - s["GM User"][0] < 2.3
    for mx_u, mx_k in zip(s["MX User"], s["MX Kernel"]):
        assert abs(mx_u - mx_k) < 0.15
