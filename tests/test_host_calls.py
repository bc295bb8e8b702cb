"""Host-cost gate: Python calls into the program per simulated event.

Wall-clock is too noisy to gate, but the number of Python-level calls
the simulator makes per dispatched event is deterministic for one
interpreter version.  One fixed small scenario — a 256 KiB O_DIRECT
ORFS read over GM (GMKRC registration, per-page NIC translation, DMA
scatter) plus a 32 KiB MX kernel ping-pong — is run under
``sys.setprofile``, counting every ``call`` event (a function call or a
generator resumption) whose code lives in the ``repro`` package.

The budget sits 10% above the larger count measured under CPython 3.10
and 3.12 (3.12 inlines comprehensions, so it counts fewer).  Run this
file as a script to print the counts under another interpreter::

    PYTHONPATH=src python tests/test_host_calls.py
"""

import os
import sys

import repro
from repro.bench.netpipe import ping_pong, prepare_pair
from repro.bench.transports import MxTransport
from repro.cluster import node_pair
from repro.core import GmKernelChannel
from repro.kernel import OpenFlags
from repro.kernel.vfs import UserBuffer
from repro.orfa.server import OrfaServer
from repro.orfs import mount_orfs
from repro.sim import Environment

#: Calls into ``repro`` frames per simulated event the scenario may
#: spend: 1.10 x the larger of the 3.10 and 3.12 counts (14.42 and
#: 14.38; 24.14 before the dispatch and charge paths were cut).
CALLS_PER_EVENT_BUDGET = 15.7

READ_BYTES = 256 * 1024
PINGPONG_BYTES = 32 * 1024
PINGPONG_ROUNDS = 10

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def count_repro_calls(fn) -> int:
    """Run ``fn()`` under a profile hook; returns the number of
    ``call`` events of frames in ``repro``."""
    calls = 0
    ours: dict = {}

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            hit = ours.get(code)
            if hit is None:
                hit = ours[code] = code.co_filename.startswith(_REPRO_DIR)
            if hit:
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def _orfs_direct_read():
    """Build ORFS over GM and write a file; returns ``(env, read)``,
    ``read()`` running one O_DIRECT read of the whole file."""
    env = Environment()
    client_node, server_node = node_pair(env)
    server = OrfaServer(server_node, 3, api="gm")
    env.run(until=server.start())
    channel = GmKernelChannel(client_node, 4)
    mount_orfs(client_node, channel, (server_node.node_id, 3))
    vfs = client_node.vfs
    payload = bytes(range(256)) * (READ_BYTES // 256)

    def write(env):
        fd = yield from vfs.open("/orfs/f", OpenFlags.RDWR | OpenFlags.CREAT)
        space = client_node.new_process_space()
        vaddr = space.mmap(READ_BYTES)
        space.write_bytes(vaddr, payload)
        yield from vfs.write(fd, UserBuffer(space, vaddr, READ_BYTES))
        yield from vfs.close(fd)

    env.run(until=env.process(write(env)))

    def direct_read(env):
        fd = yield from vfs.open("/orfs/f", OpenFlags.RDONLY | OpenFlags.DIRECT)
        space = client_node.new_process_space()
        vaddr = space.mmap(READ_BYTES)
        n = yield from vfs.read(fd, UserBuffer(space, vaddr, READ_BYTES))
        yield from vfs.close(fd)
        return space.read_bytes(vaddr, n)

    def read():
        assert env.run(until=env.process(direct_read(env))) == payload

    return env, read


def _mx_pingpong():
    """Prepare an MX kernel pair; returns ``(env, pingpong)``."""
    env = Environment()
    node_a, node_b = node_pair(env)
    a = MxTransport(node_a, 1, peer_node=1, peer_ep=1, context="kernel")
    b = MxTransport(node_b, 1, peer_node=0, peer_ep=1, context="kernel")
    prepare_pair(env, a, b, PINGPONG_BYTES)

    def pingpong():
        ping_pong(env, a, b, PINGPONG_BYTES, rounds=PINGPONG_ROUNDS, warmup=0)

    return env, pingpong


def scenario_counts() -> tuple:
    """``(repro calls, events)`` of the measured phases; set-up (world
    building, the file write, buffer preparation) is not counted."""
    calls = events = 0
    for build in (_orfs_direct_read, _mx_pingpong):
        env, phase = build()
        before = env.events_processed
        calls += count_repro_calls(phase)
        events += env.events_processed - before
    return calls, events


def test_scenario_calls_per_event_within_budget():
    calls, events = scenario_counts()
    assert events > 0
    per_event = calls / events
    assert per_event <= CALLS_PER_EVENT_BUDGET, (
        f"{calls} calls over {events} events = {per_event:.2f} per event; "
        f"budget {CALLS_PER_EVENT_BUDGET}")


if __name__ == "__main__":
    calls, events = scenario_counts()
    print(f"python {sys.version.split()[0]}: {calls} repro calls, "
          f"{events} events, {calls / events:.3f} calls/event")
