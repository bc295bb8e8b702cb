"""A small MPI layer over GM and MX — the workload the APIs were built for.

The paper frames everything against MPI: "Standard parallel computing
libraries such as MPI or VIA have fortunately been implemented on top of
these specific network software interfaces.  This leads to parallel
applications making the most out of the underlying high-speed network"
(section 2.2.2) — and GM's registration model works for MPI precisely
because "a middle-ware (for instance MPI) between GM and applications
... transparently registers buffers on the flight and intercepts address
space modifications".

This package implements that middleware and a practical MPI subset:

* point-to-point: blocking ``send``/``recv`` and ``sendrecv``, with
  communicator-scoped tag matching;
* collectives: ``bcast`` (binomial tree) and ``reduce``/``allreduce``
  (binomial + op);
* on **GM**: the textbook middleware pin-down cache
  (:class:`repro.gmkrc.Gmkrc` over a user port, coherent through the
  intercepted address-space calls);
* on **MX**: the thin direct mapping MPICH-MX used.

It exists both as a substrate credibility check (the paper's baseline
workload runs well on both stacks) and as the compute side of the
examples (halo exchange overlapping ORFS I/O).
"""

from .comm import Communicator, mpi_world

__all__ = ["Communicator", "mpi_world"]
