"""Replicated NBD block store: chain replication, failover, resync,
and chaos-verified linearizability.

The heavy lifting lives in :mod:`repro.nbd.chaos` — one five-node
harness per scenario, fully deterministic per ``(scenario, seed)``.
``REPRO_FAULT_SEED`` sweeps the seed the same way the fault suite does,
so the CI chaos-replica matrix reruns everything here under several
seeds.  A chaos seed changes only the workload's write tokens, which no
trace record carries, so one table of pinned trace digests
(:data:`TRACE_DIGESTS`) serves every seed.
"""

import hashlib
import os

import pytest

from repro.nbd.chaos import (CHAOS_PARAMS, SCENARIOS, failover_bound_ns,
                             run_scenario)
from repro.nbd.client import Op
from repro.nbd.linearize import check_history
from repro.nbd.replica import ChainConfig, decode_value, encode_value

SEED = int(os.environ.get("REPRO_FAULT_SEED", "1"))

#: sha256 prefix of each scenario's rendered trace.  A change that adds,
#: drops or reorders a record moves it; update the table only with a
#: reason for the new trace.
TRACE_DIGESTS = {
    "none": "7505bc38e729fd88",
    "crash-head": "597b0a12e30be52d",
    "crash-middle": "2a9f6ce82be7cee3",
    "crash-tail": "8f209d943cd6a229",
    "reset-head": "280841dfbd8f00bf",
    "reset-middle": "5f46d4f18a307267",
    "reset-tail": "93b1ea8a2ac7c683",
    "flap-middle": "2232527a270bfc12",
    "crash-rejoin-middle": "50e2d50e23435aff",
}


# -- the linearizability checker itself ---------------------------------------


def _op(kind, block, token, invoke, complete, ok=True):
    return Op(kind=kind, block=block, token=token, invoke_ns=invoke,
              complete_ns=complete, ok=ok)


def test_checker_accepts_sequential_history():
    ops = [
        _op("w", 0, 7, 0, 10),
        _op("r", 0, 7, 20, 30),
        _op("w", 0, 9, 40, 50),
        _op("r", 0, 9, 60, 70),
    ]
    assert check_history(ops).ok


def test_checker_rejects_stale_read():
    ops = [
        _op("w", 0, 7, 0, 10),
        _op("r", 0, 0, 20, 30),  # reads the initial value after a write
    ]
    result = check_history(ops)
    assert not result.ok
    assert result.blocks == {0: False}
    assert "NOT linearizable" in result.explain()


def test_checker_concurrent_write_may_order_either_way():
    # Two overlapping writes; a later read may see either winner.
    for winner in (7, 9):
        ops = [
            _op("w", 0, 7, 0, 100),
            _op("w", 0, 9, 10, 90),
            _op("r", 0, winner, 200, 210),
        ]
        assert check_history(ops).ok, winner


def test_checker_blocks_are_independent_registers():
    ops = [
        _op("w", 0, 7, 0, 10),
        _op("w", 1, 8, 0, 10),
        _op("r", 0, 7, 20, 30),
        _op("r", 1, 8, 20, 30),
        _op("r", 2, 0, 20, 30),  # untouched block still holds the initial 0
    ]
    result = check_history(ops)
    assert result.ok
    assert set(result.blocks) == {0, 1, 2}


def test_checker_pending_write_may_take_effect_or_not():
    # The client gave up on the write, but it may still have committed.
    pending = _op("w", 0, 7, 0, None, ok=False)
    assert check_history([pending, _op("r", 0, 7, 100, 110)]).ok
    assert check_history([pending, _op("r", 0, 0, 100, 110)]).ok


def test_checker_pending_write_cannot_unhappen():
    # Once a read observed the pending write, a later read must not
    # revert to the old value — that history is not linearizable.
    ops = [
        _op("w", 0, 7, 0, None, ok=False),
        _op("r", 0, 7, 100, 110),
        _op("r", 0, 0, 200, 210),
    ]
    assert not check_history(ops).ok


def test_block_token_encoding_round_trips():
    for token in (0, 1, 0x0102_0304, (5 << 24) | (1 << 20) | 42):
        assert decode_value(encode_value(token)) == token


def test_chain_config_neighbours():
    cfg = ChainConfig(epoch=3, chain=(1, 2, 3))
    assert cfg.head == 1 and cfg.tail == 3
    assert cfg.successor(1) == 2 and cfg.successor(3) is None
    assert cfg.predecessor(2) == 1 and cfg.predecessor(1) is None


# -- chaos scenarios ----------------------------------------------------------


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_is_linearizable_with_no_lost_ops(name):
    """Acceptance: every chaos scenario yields a linearizable client
    history with zero retry-budget exhaustions, every reconfiguration
    lands within the lease + resync bound, and the trace is the pinned
    one."""
    r = run_scenario(name, seed=SEED)
    assert r.lin.ok, r.lin.explain()
    assert r.failed_ops == []
    assert r.failovers_within(failover_bound_ns())
    digest = hashlib.sha256(r.trace.encode()).hexdigest()[:16]
    assert digest == TRACE_DIGESTS[name]


def test_crash_scenarios_record_exactly_one_failover():
    for name in ("crash-head", "crash-middle", "crash-tail"):
        r = run_scenario(name, seed=SEED)
        assert len(r.failovers) == 1, name
        f = r.failovers[0]
        assert f["done_ns"] > f["detect_ns"]
        assert f["cause"] in ("lease", "peer")


def test_reset_scenarios_need_no_reconfiguration():
    """A NIC firmware reset loses sequence state, not the replica: the
    incarnation/session protocol re-establishes every conversation
    without the controller ever reconfiguring the chain."""
    for name in ("reset-head", "reset-middle", "reset-tail"):
        r = run_scenario(name, seed=SEED)
        assert r.failovers == [], name
        assert r.resyncs == [], name


def test_crash_rejoin_resyncs_dirty_extents():
    r = run_scenario("crash-rejoin-middle", seed=SEED)
    assert len(r.failovers) == 1  # the crash eviction
    assert len(r.resyncs) == 1  # the rejoin
    rs = r.resyncs[0]
    assert rs["done_ns"] - rs["start_ns"] <= CHAOS_PARAMS.resync_bound_ns
    assert '"nbd.replica.resync_blocks' in r.metrics_json  # extents copied


def test_failover_metrics_are_exported():
    r = run_scenario("crash-middle", seed=SEED)
    assert '"nbd.replica.failover_ns' in r.metrics_json
    assert '"nbd.replica.deaths' in r.metrics_json


def test_same_seed_reproduces_traces_and_metrics():
    """The determinism contract CI's chaos-replica job diffs: trace text
    and metrics snapshot are byte-identical across same-seed reruns."""
    a = run_scenario("crash-rejoin-middle", seed=SEED)
    b = run_scenario("crash-rejoin-middle", seed=SEED)
    assert a.trace == b.trace
    assert a.metrics_json == b.metrics_json
    assert a.duration_ns == b.duration_ns


def test_different_seeds_change_the_workload():
    a = run_scenario("none", seed=1)
    b = run_scenario("none", seed=2)
    assert ([o.token for o in a.history.ops]
            != [o.token for o in b.history.ops])


# -- the bench driver ---------------------------------------------------------


def test_bench_replica_driver_runs(capsys):
    from repro.bench.runner import main
    assert main(["replica", "--seed", str(SEED),
                 "--scenario", "none", "--scenario", "crash-middle"]) == 0
    out = capsys.readouterr().out
    assert "Replicated NBD chain" in out
    assert "crash-middle" in out
    assert "MISS" not in out
