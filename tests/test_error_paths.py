"""Coverage for hardware error paths that previously had none:
closed-port use, unattached link ends, invalid utilization direction,
and wire accounting when a message is dropped mid-flight."""

import pytest

from repro.cluster import node_pair
from repro.errors import NetworkError, PortError
from repro.faults import FaultPlan
from repro.hw import Link
from repro.hw.nic import Message, MsgKind, PostedReceive
from repro.hw.params import MX_COSTS, PCI_XD
from repro.sim import Environment


def _eager(dst_nic=1, size=256):
    return Message(kind=MsgKind.EAGER, src_nic=0, src_port=1,
                   dst_nic=dst_nic, dst_port=1, match=0, size=size,
                   wire_size=size)


# -- closed NicPort -----------------------------------------------------------


def test_post_receive_on_closed_port_raises():
    env = Environment()
    a, _ = node_pair(env)
    port = a.nic.open_port(7, MX_COSTS)
    port.close()
    with pytest.raises(PortError, match="closed"):
        port.post_receive(PostedReceive(match=None, capacity=4096))


def test_port_lookup_rejects_closed_and_unknown():
    env = Environment()
    a, _ = node_pair(env)
    port = a.nic.open_port(7, MX_COSTS)
    port.close()
    with pytest.raises(PortError, match="closed"):
        a.nic.port(7)
    with pytest.raises(PortError, match="no port"):
        a.nic.port(99)


def test_reopening_a_closed_port_id_is_allowed():
    env = Environment()
    a, _ = node_pair(env)
    a.nic.open_port(7, MX_COSTS).close()
    port = a.nic.open_port(7, MX_COSTS)
    assert port.open


# -- unattached link ends -----------------------------------------------------


def test_transmit_to_unattached_end_raises():
    env = Environment()
    link = Link(env, PCI_XD)
    link.attach("a", lambda item: None)

    def tx(env):
        yield from link.transmit("a", _eager(), 256)

    env.process(tx(env))
    with pytest.raises(NetworkError, match="no endpoint attached"):
        env.run()


def test_transmit_from_invalid_end_raises():
    env = Environment()
    link = Link(env, PCI_XD)

    def tx(env):
        yield from link.transmit("c", _eager(), 256)

    env.process(tx(env))
    with pytest.raises(NetworkError, match="'a' or 'b'"):
        env.run()


def test_double_attach_same_end_raises():
    env = Environment()
    link = Link(env, PCI_XD)
    link.attach("a", lambda item: None)
    with pytest.raises(NetworkError, match="already attached"):
        link.attach("a", lambda item: None)


# -- utilization argument validation ------------------------------------------


def test_utilization_invalid_direction_raises_network_error():
    env = Environment()
    link = Link(env, PCI_XD)
    with pytest.raises(NetworkError, match="'ab' or 'ba'"):
        link.utilization("sideways")


def test_utilization_valid_directions_return_floats():
    env = Environment()
    link = Link(env, PCI_XD)
    assert link.utilization("ab") == 0.0
    assert link.utilization("ba") == 0.0


# -- wire accounting when a message drops mid-flight --------------------------


def test_bytes_carried_counts_dropped_messages(count):
    """The wire is occupied for the full serialization whether or not
    the bits arrive, so a dropped message still counts in
    ``link.bytes`` — and in nothing else."""
    env = Environment()
    link = Link(env, PCI_XD, name="lossy")
    delivered = []
    link.attach("a", delivered.append)
    link.attach("b", delivered.append)
    plan = FaultPlan(seed=1).drop("lossy", 1.0)
    plan.install(env, links=[link], reliability=False)

    def tx(env):
        yield from link.transmit("a", _eager(size=512), 512)

    env.process(tx(env))
    env.run()
    assert delivered == []
    assert count("link.bytes", link="lossy") == 512
    assert count("link.drops", link="lossy") == 1
    assert count("faults.drops") == 1


def test_bytes_carried_unchanged_semantics_without_faults(count):
    env = Environment()
    link = Link(env, PCI_XD)
    delivered = []
    link.attach("a", delivered.append)
    link.attach("b", delivered.append)

    def tx(env):
        yield from link.transmit("a", _eager(size=512), 512)

    env.process(tx(env))
    env.run()
    assert len(delivered) == 1
    assert count("link.bytes") == 512
    assert count("link.drops") == 0
