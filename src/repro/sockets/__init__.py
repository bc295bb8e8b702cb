"""Zero-copy socket protocols over the Myrinet kernel interfaces.

Section 5.3 of the paper: SOCKETS-MX "adds a new SOCKET protocol to the
LINUX kernel where data is directly passed onto the MYRINET network
bypassing TCP/IP", letting unmodified binaries use the high-speed
network.  SOCKETS-GM offered the same service earlier, handicapped by
GM's two structural problems the paper names:

* *limited completion notification* — all port events funnel through an
  extra dispatching kernel thread, adding a context switch to every
  message;
* *memory registration problems* — arbitrary application buffers cannot
  be handed to GM directly, so data is staged through pre-registered
  bounce buffers (a send-side copy that is never overlapped, and a
  receive-side copy that packet-pipelining can mostly hide).

SOCKETS-MX simply passes user-virtual segments to the MX kernel API.

:mod:`repro.sockets.tcpip` adds the commodity baseline: the same socket
calls over gigabit Ethernet through a TCP/IP stack model (checksums +
fragmentation — "TCP/IP is known to use 50 % of the overall transaction
cost" [Sum00]).
"""

from .base import KSocket, SocketError
from .sockets_gm import SocketsGmModule
from .sockets_mx import SocketsMxModule
from .tcpip import GIG_E, TcpStack, ethernet_pair

__all__ = [
    "GIG_E",
    "KSocket",
    "SocketError",
    "SocketsGmModule",
    "SocketsMxModule",
    "TcpStack",
    "ethernet_pair",
]
