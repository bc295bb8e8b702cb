"""repro — a full-system reproduction of Goglin, Glück & Vicat-Blanc
Primet, *An Efficient Network API for in-Kernel Applications in
Clusters* (IEEE Cluster 2005), as a discrete-event simulation.

Everything the paper builds on or evaluates is implemented here:

* the simulation engine (:mod:`repro.sim`) and hardware models
  (:mod:`repro.hw`): CPUs, PCI, links, switch, and the Myrinet NIC with
  its firmware pipeline and bounded translation table;
* the memory substrate (:mod:`repro.mem`): physical frames backing real
  bytes, address spaces, pinning, kernel memory, scatter/gather;
* the OS substrate (:mod:`repro.kernel`): page cache, VFS, VMA SPY
  and an in-memory filesystem;
* the network APIs: GM (:mod:`repro.gm`) with the paper's
  physical-address extensions and GMKRC (:mod:`repro.gmkrc`), and MX
  (:mod:`repro.mx`) with typed segments, message classes and copy
  removal;
* the paper's contribution distilled (:mod:`repro.core`): one kernel
  channel API with GM and MX backends;
* the in-kernel applications: ORFA/ORFS (:mod:`repro.orfa`,
  :mod:`repro.orfs`), the zero-copy sockets (:mod:`repro.sockets`), and
  the NBD extension (:mod:`repro.nbd`);
* the benchmark harness (:mod:`repro.bench`) regenerating every table
  and figure of the evaluation.

Quick start::

    from repro.cluster import node_pair
    from repro.sim import Environment
    from repro.bench.netpipe import ping_pong, prepare_pair
    from repro.bench.transports import MxTransport

    env = Environment()
    a, b = node_pair(env)
    ta = MxTransport(a, 1, peer_node=1, peer_ep=1)
    tb = MxTransport(b, 1, peer_node=0, peer_ep=1)
    prepare_pair(env, ta, tb, 4096)
    print(ping_pong(env, ta, tb, size=1).one_way_us)  # -> ~4.2 us
"""

from . import errors, units
from .cluster import Node, node_pair, star
from .sim import Environment

__version__ = "1.0.0"

__all__ = [
    "Environment",
    "Node",
    "errors",
    "node_pair",
    "star",
    "units",
    "__version__",
]
