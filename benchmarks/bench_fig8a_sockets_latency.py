"""Figure 8(a): SOCKETS-GM vs SOCKETS-MX small-message latency (PCI-XE).

Paper claims reproduced here (section 5.3):
* SOCKETS-MX: 5 us one-way for 1-byte messages — "only a 1 us overhead
  over raw MX latency ... since a system call is involved (about
  400 ns)";
* SOCKETS-GM: 15 us one-way (dispatch kernel thread + bounce buffers).
"""

from conftest import figure, record_figure, run_once


def test_fig8a_sockets_latency(benchmark):
    data = run_once(benchmark, figure, "fig8a")
    record_figure(benchmark, data)
    s = data.series
    assert abs(s["Sockets-MX"][0] - 5.0) < 0.7
    assert abs(s["Sockets-GM"][0] - 15.0) < 1.5
    # ~1 us overhead over raw MX (4.2 us)
    assert 0.7 < s["Sockets-MX"][0] - 4.2 < 1.7
    # MX keeps its ~3x advantage through the small sizes
    assert s["Sockets-GM"][0] / s["Sockets-MX"][0] > 2.5
