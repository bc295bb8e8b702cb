"""Figure 4(a): registered-virtual vs physical-address kernel primitives.

Paper claims reproduced here (section 3.3): "We measured a 0.5 us gain
on both the sender and the receiver's side on our MYRINET cards, that
is 10 % improvement."
"""

from conftest import figure, record_figure, run_once


def test_fig4a_physical_address_gain(benchmark):
    data = run_once(benchmark, figure, "fig4a")
    record_figure(benchmark, data)
    virt = data.series["Memory Registration"]
    phys = data.series["Physical Address"]
    # 0.5 us per side = 1 us total, at every size
    for v, p in zip(virt, phys):
        assert 0.8 < v - p < 1.2
    # ~10 % at the smallest sizes
    assert 0.07 < (virt[0] - phys[0]) / virt[0] < 0.15
