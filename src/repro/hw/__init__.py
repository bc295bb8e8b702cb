"""Hardware models: CPUs, PCI buses, links, switches, and the Myrinet NIC.

Everything here is a discrete-event model over :mod:`repro.sim` with
costs taken from :mod:`repro.hw.params`, the single calibration table
(each constant's provenance in the paper is documented there).

The central piece is :class:`repro.hw.nic.Nic`: a network interface with
a firmware send/receive pipeline, DMA engines contending for the PCI
bus, a bounded address-translation table, and per-port event queues.
GM (:mod:`repro.gm`) and MX (:mod:`repro.mx`) are API layers over this
one NIC model, differing in host-side costs, addressing modes and
message-class strategies — mirroring how both real drivers programmed
the same LANai hardware.
"""

from .cpu import Cpu
from .link import Link
from .nic import (
    Message,
    Nic,
    NicPort,
    PostedReceive,
    ReceiveCompletion,
    SendCompletion,
    SendDescriptor,
)
from .params import (
    ApiCosts,
    CpuParams,
    HostParams,
    LinkParams,
    NicParams,
    GM_KERNEL_COSTS,
    GM_USER_COSTS,
    HOST_P3_1200,
    HOST_P4_2600,
    HOST_XEON_2600,
    MX_COSTS,
    PCI_XD,
    PCI_XE,
)
from .switch import Switch

__all__ = [
    "ApiCosts",
    "Cpu",
    "CpuParams",
    "GM_KERNEL_COSTS",
    "GM_USER_COSTS",
    "HOST_P3_1200",
    "HOST_P4_2600",
    "HOST_XEON_2600",
    "HostParams",
    "Link",
    "LinkParams",
    "Message",
    "MX_COSTS",
    "Nic",
    "NicParams",
    "NicPort",
    "PCI_XD",
    "PCI_XE",
    "PostedReceive",
    "ReceiveCompletion",
    "SendCompletion",
    "SendDescriptor",
    "Switch",
]
