"""The run context: everything that changes what a run computes lives on
its :class:`~repro.sim.Environment`.

Fidelity and the id allocator are constructor state, so environments of
different fidelities coexist in one process, and the Nth in-process run
of a scenario is the same program as a fresh process running it once.
A world ends at its function boundary: none outlives its run.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro import obs
from repro.bench import faults, figures, runner, topo
from repro.bench.netpipe import ping_pong, prepare_pair
from repro.bench.transports import MxTransport
from repro.cluster import node_pair
from repro.fleet import FleetSpec, run_point
from repro.hw.params import PCI_XD
from repro.nbd.chaos import run_scenario
from repro.sim import Environment, Resource, one_world, worlds
from repro.units import KiB

SIZES = (3 * KiB, 40 * KiB, 256 * KiB)


def _transfers(fidelity: str):
    """Build (not run) a node pair streaming ``SIZES`` one way; returns
    the environment and the completion list it fills in."""
    env = Environment(fidelity)
    a, b = node_pair(env)
    ta = MxTransport(a, 1, peer_node=1, peer_ep=1, context="kernel")
    tb = MxTransport(b, 1, peer_node=0, peer_ep=1, context="kernel")
    prepare_pair(env, ta, tb, max(SIZES))
    done: list = []

    def tx():
        for size in SIZES:
            yield from ta.send(size)

    def rx():
        for size in SIZES:
            yield from tb.recv(size)
            done.append((size, env.now))

    env.process(tx())
    env.process(rx())
    return env, done


def _alone(fidelity: str):
    env, done = _transfers(fidelity)
    env.run()
    return done, env.events_processed


def test_interleaved_fidelities_match_their_solo_runs():
    packet_env, packet_done = _transfers("packet")
    train_env, train_done = _transfers("train")
    t = 0
    while packet_env.peek() is not None or train_env.peek() is not None:
        t += 3_000
        packet_env.run(until=t)
        train_env.run(until=t)
    assert len(packet_done) == len(SIZES)
    solo_packet, packet_events = _alone("packet")
    solo_train, train_events = _alone("train")
    assert packet_done == solo_packet
    assert train_done == solo_train
    # Trains are an optimization, not a model change ...
    assert packet_done == train_done
    # ... and each environment really ran at its own fidelity.
    assert train_events < packet_events
    assert packet_env.events_processed == packet_events
    assert train_env.events_processed == train_events


# -- the Nth in-process run equals a fresh process ------------------------------


def _fresh_process(code: str) -> dict:
    """Run ``code`` (which prints one JSON line) in a new interpreter."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _chaos_digest(name: str, seed: int) -> dict:
    res = run_scenario(name, seed=seed, n_ops=40)
    return {
        "ok": res.ok,
        "failovers": res.failovers,
        "failed_ops": res.failed_ops,
        "duration_ns": res.duration_ns,
        "trace": _sha(res.trace),
        "history": _sha(repr(res.history.ops)),
        "metrics": _sha(res.metrics_json),
    }


def test_repeated_chaos_scenario_matches_a_fresh_process():
    runs = [_chaos_digest("crash-middle", 1) for _ in range(3)]
    fresh = _fresh_process(
        "import json\n"
        "from tests.test_run_context import _chaos_digest\n"
        "print(json.dumps(_chaos_digest('crash-middle', 1)))\n")
    assert runs[0]["failovers"]  # the scenario exercised a failover
    for run in runs:
        assert json.loads(json.dumps(run)) == fresh


_FLEET_SPEC = {
    "name": "ctx", "seed": 3, "n_ops": 24, "n_clients": 2, "mix": "rw4k",
    "grid": {
        "topology": [{"kind": "star", "n": 4}],
        "workload": [{"kind": "nbd", "api": "mx"}],
        "offered_load": [16000],
    },
}


def _fleet_row() -> str:
    spec = FleetSpec.from_dict(_FLEET_SPEC)
    return json.dumps(run_point(spec, spec.points()[0]), sort_keys=True)


def test_repeated_fleet_point_matches_a_fresh_process():
    runs = [_fleet_row() for _ in range(3)]
    fresh = _fresh_process(
        "import json\n"
        "from tests.test_run_context import _fleet_row\n"
        "print(json.dumps({'row': _fleet_row()}))\n")
    assert json.loads(runs[0])["metrics"]["achieved_ops"] == 24
    assert runs == [fresh["row"]] * 3


# -- a world ends at its function boundary --------------------------------------


def _live_environments() -> int:
    return sum(1 for o in gc.get_objects() if isinstance(o, Environment))


def _run_figure_in_process() -> None:
    # An installed registry keeps the executor in this process, where
    # the worlds it builds could outlive the run.
    with obs.installed_registry():
        figures.run_figure("fig4a")


BOUNDARIES = {
    "run_point": _fleet_row,
    "chaos.run_scenario": lambda: run_scenario("crash-middle", n_ops=8),
    "run_topo": lambda: topo.run_topo(4, "identity", "flow", 16 * KiB),
    "_netpipe_series": lambda: figures._netpipe_series(
        "mx-kernel", PCI_XD, [1]),
    "_socket_point": lambda: figures._socket_point("gm", 1),
    "run_figure": _run_figure_in_process,
    # What a forked worker runs for each job.
    "_run_timed": lambda: worlds._run_timed(figures.run_job,
                                            figures.plan(["fig4a"])[0]),
    **{f"main_json:{fig}": (lambda fig=fig: runner.main(
        [fig, "--json", "--parallel", "1"]))
       for fig in ("fig3b", "fig4b", "fig7a", "fig7b")},
    "faults._orfa_run": lambda: faults.fault_run(1, ("orfa", 0.0)),
    "faults._nbd_run": lambda: faults.fault_run(1, ("nbd", 0.0)),
}


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_no_world_outlives_its_run(name):
    """With automatic collection off, the boundary's own collection is
    the only one: every world it built is gone when it returns."""
    gc.collect()
    before = _live_environments()
    gc.disable()
    try:
        BOUNDARIES[name]()
        left = _live_environments() - before
    finally:
        gc.enable()
    assert left == 0, f"{name} left {left} Environment(s) behind"


# -- a run makes no cyclic garbage, and its boundary collects only young ----------


def _cyclic_garbage(build_and_run) -> list:
    """Type names of what ``build_and_run`` leaves to the cyclic
    collector: the collection runs while the world it returns is still
    referenced, so only per-operation garbage can show."""
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        world = build_and_run()
        gc.collect()
        names = sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was:
            gc.enable()
    del world
    return names


def _mx_kernel_ping_pong():
    env = Environment()
    a, b = node_pair(env)
    ta = MxTransport(a, 1, peer_node=1, peer_ep=1, context="kernel")
    tb = MxTransport(b, 1, peer_node=0, peer_ep=1, context="kernel")
    sizes = (64, 3 * KiB, 256 * KiB)  # small, medium and rendezvous
    prepare_pair(env, ta, tb, max(sizes))
    for size in sizes:
        ping_pong(env, ta, tb, size, rounds=3, warmup=1)
    return env, ta, tb


def _contended_resource():
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env, hold):
        req = res.request()
        yield req
        yield env.timeout(hold)
        req.release()
        yield from res.acquire(hold)

    for hold in range(1, 20):
        env.process(user(env, hold))
    env.run()
    return env, res


@pytest.mark.parametrize("build_and_run", [_mx_kernel_ping_pong, _contended_resource],
                         ids=["mx_kernel_ping_pong", "contended_resource"])
def test_requests_are_freed_by_reference_counting(build_and_run):
    garbage = _cyclic_garbage(build_and_run)
    assert not {"_Request", "MxRequest", "Event"} & set(garbage), garbage


def test_a_boundary_collects_young_once_and_restores_the_collector():
    """The world builds thousands of objects, yet no automatic pass runs
    inside the boundary: its one young collection is the only one, and
    it reclaims the whole world."""
    collections: list = []

    def note(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    before = _live_environments()
    assert gc.isenabled()
    gc.callbacks.append(note)
    try:
        topo.run_topo(4, "identity", "flow", 16 * KiB)
    finally:
        gc.callbacks.remove(note)
    assert (collections, gc.isenabled()) == ([0], True)
    assert _live_environments() == before


def test_a_boundary_leaves_a_disabled_collector_disabled_even_on_raise():
    @one_world
    def failing_world():
        Environment()
        raise RuntimeError("world failed")

    gc.disable()
    try:
        with pytest.raises(RuntimeError):
            failing_world()
        assert not gc.isenabled()
    finally:
        gc.enable()
