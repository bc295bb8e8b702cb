"""Calibration anchors: the paper's measured points that must emerge
from the simulated pipelines (section 5.1, figures 4(a), 5 and 6).

If a refactor of the NIC/GM/MX pipelines shifts these numbers, the
figure shapes shift with them.  Each anchor is a claim of
:mod:`repro.bench.claims`, which holds its tolerance.
"""


def test_mx_user_one_byte_latency_is_4_2_us(claim):
    claim("fig5a", "MX user, 1 B")


def test_gm_user_one_byte_latency_is_6_7_us(claim):
    claim("fig5a", "GM user, 1 B")


def test_gm_kernel_latency_is_2_us_above_user(claim):
    claim("fig5a", "GM kernel penalty")


def test_mx_kernel_latency_equals_mx_user(claim):
    claim("fig5a", "MX kernel == MX user")


def test_gm_physical_primitives_save_1_us(claim):
    claim("fig4a", "gain per side", "relative gain, small messages")


def test_large_message_bandwidth_near_link_rate(claim):
    claim("fig5b", "GM large == MX large (GM enjoys 100 % registration reuse)")


def test_mx_medium_send_copy_costs_about_17_percent_at_32k(claim):
    claim("fig6", "send-copy removal @32 kB")
