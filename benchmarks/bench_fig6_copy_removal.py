"""Figure 6: removing the medium-message copies (MX, kernel, physical).

Paper claims reproduced here (section 5.1):
* removing the send-side copy "leads to 17 % bandwidth improvement for
  32 kbytes messages";
* removing both copies (predicted — impossible on the 2005 NIC) adds
  "another 15 %";
* for a single page the send-copy removal "gives a 9 % improvement";
* just past the medium/large boundary, "large message bandwidth looks
  lower" than the no-copy medium trend — the argument for raising the
  32 kB boundary.
"""

from conftest import figure, record_figure, run_once


def test_fig6_copy_removal(benchmark):
    data = run_once(benchmark, figure, "fig6")
    record_figure(benchmark, data)
    s = data.series
    i32k = data.xs.index(32 * 1024)
    i4k = data.xs.index(4096)
    base = s["MX Kernel"]
    nosend = s["MX Kernel No-send-copy"]
    nocopy = s["MX Kernel No-copy (predicted)"]

    send_gain_32k = nosend[i32k] / base[i32k] - 1
    assert 0.12 < send_gain_32k < 0.22, f"{send_gain_32k:.2%} (paper: 17 %)"

    recv_gain_32k = nocopy[i32k] / nosend[i32k] - 1
    assert 0.10 < recv_gain_32k < 0.25, f"{recv_gain_32k:.2%} (paper: ~15 %)"

    send_gain_4k = nosend[i4k] / base[i4k] - 1
    assert 0.05 < send_gain_4k < 0.13, f"{send_gain_4k:.2%} (paper: 9 %)"

    # the no-copy medium at 32 kB out-runs the large path at 64 kB
    i64k = data.xs.index(64 * 1024)
    assert nocopy[i32k] > base[i64k]
