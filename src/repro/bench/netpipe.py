"""NetPIPE-style ping-pong measurement (paper's methodology, section 5.3).

Two processes bounce a message of fixed size; one-way latency is half
the mean round-trip over the measured rounds (after warmup), and
bandwidth is ``size / one_way`` — exactly how NetPIPE plots both of the
paper's metric kinds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Environment
from ..units import bandwidth_mb_s, to_us


@dataclass(frozen=True)
class PingPongResult:
    """Outcome of one ping-pong measurement at one message size."""

    size: int
    rounds: int
    one_way_ns: float

    @property
    def one_way_us(self) -> float:
        return to_us(self.one_way_ns)

    @property
    def bandwidth_mb_s(self) -> float:
        return bandwidth_mb_s(self.size, round(self.one_way_ns))


def ping_pong(
    env: Environment,
    initiator,
    responder,
    size: int,
    rounds: int = 20,
    warmup: int = 2,
) -> PingPongResult:
    """Run a ping-pong between two prepared :class:`Transport` ends.

    The initiator sends first; both sides loop ``warmup + rounds``
    times.  Only the measured rounds contribute to the average.
    """
    if rounds < 1:
        raise ValueError(f"need at least 1 measured round, got {rounds}")
    timestamps: list[int] = []

    def initiator_proc(env):
        for i in range(warmup + rounds):
            if i == warmup:
                timestamps.append(env.now)
            yield from initiator.send(size, match=i)
            yield from initiator.recv(size)
        timestamps.append(env.now)

    def responder_proc(env):
        for i in range(warmup + rounds):
            yield from responder.recv(size)
            yield from responder.send(size, match=i)

    a = env.process(initiator_proc(env), name="pingpong.a")
    env.process(responder_proc(env), name="pingpong.b")
    env.run(until=a)
    elapsed = timestamps[1] - timestamps[0]
    return PingPongResult(size=size, rounds=rounds, one_way_ns=elapsed / (2 * rounds))


def prepare_pair(env: Environment, a, b, max_size: int) -> None:
    """Drive both transports' ``prepare`` to completion."""
    pa = env.process(a.prepare(max_size), name="prep.a")
    pb = env.process(b.prepare(max_size), name="prep.b")
    env.run(until=env.all_of([pa, pb]))
