"""The paper's quantitative claims from sections 3 and 5, by name.

Each claim is stated once, in :mod:`repro.bench.claims` (its tolerance
and the figure points it reads); the ``claim`` fixture checks it on the
suite's one measurement of its figure.
"""

import pytest


@pytest.mark.slow
def test_claim_orfs_mx_buffered_40_percent_over_gm(claim):
    claim("fig7b", "MX buffered improvement")


@pytest.mark.slow
def test_claim_orfs_direct_mx_at_least_as_good(claim):
    claim("fig7a", "MX direct slightly better; difference ~ raw difference")


def test_claim_gm_user_latency_50_percent_above_mx(claim):
    claim("fig5a", "GM user >50 % above MX", "GM user, 1 B", "MX user, 1 B")


@pytest.mark.slow
def test_claim_buffered_4k_beats_direct_4k_on_gm(claim):
    claim("fig4b", "4 kB accesses faster through the page cache")


@pytest.mark.slow
def test_claim_direct_much_better_for_large_transfers(claim):
    claim("fig4b", "direct much better for large transfers")


@pytest.mark.slow
def test_claim_regcache_miss_costs_about_20_percent(claim):
    claim("fig3b", '"Without any cache hit, the performance is 20 % lower"')


def test_claim_mx_kernel_bandwidth_not_below_user(claim):
    claim("fig5b", "MX kernel large ≥ MX user (cheaper page locking)")
