"""Per-figure experiment drivers: regenerate every table and figure.

Each ``fig*``/``table*`` function runs the full simulated experiment and
returns a :class:`FigureData` whose ``render()`` prints the same series
the paper plots.  The registry at the bottom powers the CLI
(``python -m repro.bench <name>``) and the pytest-benchmark targets in
``benchmarks/``.

Paper-vs-measured commentary for every experiment lives in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..cluster import node_pair
from ..gm.registration import RegistrationDomain
from ..hw.cpu import Cpu
from ..hw.params import HOST_P3_1200, HOST_P4_2600, PCI_XD, PCI_XE
from ..sim import Environment, one_world
from ..units import KiB, MiB, PAGE_SIZE, to_us, us
from .fileio import (
    build_orfa,
    build_orfs,
    orfa_sequential_read,
    orfs_sequential_read,
)
from .netpipe import ping_pong, prepare_pair
from .report import format_series, format_table
from .transports import GmKernelTransport, GmUserTransport, MxTransport


@dataclass
class FigureData:
    """One regenerated figure: x values and named series."""

    name: str
    title: str
    xlabel: str
    unit: str
    xs: list[int]
    series: dict[str, list[float]] = field(default_factory=dict)

    def render(self) -> str:
        return format_series(f"{self.name}: {self.title}", self.xlabel,
                             self.xs, self.series, self.unit)


# ---------------------------------------------------------------------------
# shared sweep helpers
# ---------------------------------------------------------------------------


@one_world
def _netpipe_series(make_a, make_b, sizes: Sequence[int], metric: str,
                    link=PCI_XD, rounds: int = 8) -> list[float]:
    """One transport pair swept over sizes; metric 'latency_us'|'bandwidth'."""
    env = Environment()
    node_a, node_b = node_pair(env, link=link)
    a, b = make_a(node_a), make_b(node_b)
    prepare_pair(env, a, b, max(max(sizes), PAGE_SIZE))
    out = []
    for size in sizes:
        r = ping_pong(env, a, b, size, rounds=rounds)
        out.append(r.one_way_us if metric == "latency_us" else r.bandwidth_mb_s)
    return out


def _mx_pair(context="user", physical=False, no_send_copy=False,
             no_recv_copy=False):
    def make(peer):
        def f(node):
            return MxTransport(node, 1, peer_node=peer, peer_ep=1,
                               context=context, physical=physical,
                               no_send_copy=no_send_copy,
                               no_recv_copy=no_recv_copy)
        return f
    return make(1), make(0)


def _gm_user_pair():
    return (lambda n: GmUserTransport(n, 1, peer_node=1, peer_port=1),
            lambda n: GmUserTransport(n, 1, peer_node=0, peer_port=1))


def _gm_kernel_pair(addressing="virtual"):
    return (lambda n: GmKernelTransport(n, 1, peer_node=1, peer_port=1,
                                        addressing=addressing),
            lambda n: GmKernelTransport(n, 1, peer_node=0, peer_port=1,
                                        addressing=addressing))


# ---------------------------------------------------------------------------
# Figure 1(b): copy vs registration cost
# ---------------------------------------------------------------------------


def fig1b() -> FigureData:
    """Copy cost (P3/P4) vs GM registration/deregistration cost."""
    sizes = [i * 32 * KiB for i in range(1, 9)]  # 32 kB .. 256 kB
    env = Environment()
    cpu_p3 = Cpu(env, HOST_P3_1200, name="p3")
    cpu_p4 = Cpu(env, HOST_P4_2600, name="p4")
    copy_p3, copy_p4, reg, dereg, both = [], [], [], [], []
    for size in sizes:
        pages = size // PAGE_SIZE
        copy_p3.append(to_us(cpu_p3.copy_time_ns(size)))
        copy_p4.append(to_us(cpu_p4.copy_time_ns(size)))
        r = to_us(RegistrationDomain.register_cost_ns(pages))
        d = to_us(RegistrationDomain.deregister_cost_ns(pages))
        reg.append(r)
        dereg.append(d)
        both.append(r + d)
    return FigureData(
        name="fig1b",
        title="copy vs memory registration overhead (GM)",
        xlabel="size",
        unit="us",
        xs=sizes,
        series={
            "Copy (P3 1.2GHz)": copy_p3,
            "Copy (P4 2.6GHz)": copy_p4,
            "Registration": reg,
            "Deregistration": dereg,
            "Register+Dereg": both,
        },
    )


# ---------------------------------------------------------------------------
# Figure 3(b): ORFS direct access on GM, with/without registration cache
# ---------------------------------------------------------------------------


def fig3b(sizes: Sequence[int] = (1024, 4096, 16 * KiB, 64 * KiB, 256 * KiB),
          total: int = MiB) -> FigureData:
    sizes = list(sizes)
    gm_raw = _netpipe_series(*_gm_user_pair(), sizes=sizes, metric="bandwidth")

    orfa_rig = build_orfa("gm", file_size=total)
    orfa = [orfa_sequential_read(orfa_rig, s, total).throughput_mb_s
            for s in sizes]

    rig = build_orfs("gm", file_size=total)
    orfs_cache = [orfs_sequential_read(rig, s, total, direct=True).throughput_mb_s
                  for s in sizes]

    rig_nc = build_orfs("gm", regcache_enabled=False, file_size=total)
    orfs_nocache = [
        orfs_sequential_read(rig_nc, s, total, direct=True).throughput_mb_s
        for s in sizes
    ]
    return FigureData(
        name="fig3b",
        title="ORFS direct access on GM (registration cache impact)",
        xlabel="request",
        unit="MB/s",
        xs=sizes,
        series={
            "GM Raw": gm_raw,
            "ORFA w/ RegCache": orfa,
            "ORFS w/ RegCache": orfs_cache,
            "ORFS w/o RegCache": orfs_nocache,
        },
    )


# ---------------------------------------------------------------------------
# Figure 4(a): registered-virtual vs physical kernel primitives (GM)
# ---------------------------------------------------------------------------


def fig4a(sizes: Sequence[int] = (16, 64, 256, 1024, 4096)) -> FigureData:
    sizes = list(sizes)
    virt = _netpipe_series(*_gm_kernel_pair("virtual"), sizes=sizes,
                           metric="latency_us")
    phys = _netpipe_series(*_gm_kernel_pair("physical"), sizes=sizes,
                           metric="latency_us")
    return FigureData(
        name="fig4a",
        title="GM kernel latency: registered virtual vs physical address",
        xlabel="size",
        unit="us",
        xs=sizes,
        series={"Memory Registration": virt, "Physical Address": phys},
    )


# ---------------------------------------------------------------------------
# Figure 4(b): ORFS/GM direct vs buffered vs raw GM
# ---------------------------------------------------------------------------


def fig4b(sizes: Sequence[int] = (1024, 4096, 16 * KiB, 64 * KiB,
                                  256 * KiB, MiB),
          total: int = 2 * MiB) -> FigureData:
    sizes = list(sizes)
    gm_raw = _netpipe_series(*_gm_user_pair(), sizes=sizes, metric="bandwidth")
    rig = build_orfs("gm", file_size=total)
    direct = [orfs_sequential_read(rig, s, total, direct=True).throughput_mb_s
              for s in sizes]
    buffered = [orfs_sequential_read(rig, s, total).throughput_mb_s
                for s in sizes]
    return FigureData(
        name="fig4b",
        title="ORFS on GM: direct vs buffered file access",
        xlabel="request",
        unit="MB/s",
        xs=sizes,
        series={
            "GM Raw": gm_raw,
            "ORFS/GM Direct": direct,
            "ORFS/GM Buffered": buffered,
        },
    )


# ---------------------------------------------------------------------------
# Figure 5: MX vs GM latency and bandwidth
# ---------------------------------------------------------------------------


def fig5a(sizes: Sequence[int] = (1, 16, 256, 1024, 4096)) -> FigureData:
    sizes = list(sizes)
    return FigureData(
        name="fig5a",
        title="small-message latency: GM vs MX, user vs kernel",
        xlabel="size",
        unit="us",
        xs=sizes,
        series={
            "GM User": _netpipe_series(*_gm_user_pair(), sizes=sizes,
                                       metric="latency_us"),
            "GM Kernel": _netpipe_series(*_gm_kernel_pair(), sizes=sizes,
                                         metric="latency_us"),
            "MX User": _netpipe_series(*_mx_pair("user"), sizes=sizes,
                                       metric="latency_us"),
            "MX Kernel": _netpipe_series(*_mx_pair("kernel"), sizes=sizes,
                                         metric="latency_us"),
        },
    )


def fig5b(sizes: Sequence[int] = (1024, 4096, 16 * KiB, 64 * KiB,
                                  256 * KiB, MiB)) -> FigureData:
    sizes = list(sizes)
    return FigureData(
        name="fig5b",
        title="bandwidth: GM vs MX user vs MX kernel (physical)",
        xlabel="size",
        unit="MB/s",
        xs=sizes,
        series={
            "GM": _netpipe_series(*_gm_user_pair(), sizes=sizes,
                                  metric="bandwidth"),
            "MX User": _netpipe_series(*_mx_pair("user"), sizes=sizes,
                                       metric="bandwidth"),
            "MX Kernel Physical": _netpipe_series(
                *_mx_pair("kernel", physical=True), sizes=sizes,
                metric="bandwidth"),
        },
    )


# ---------------------------------------------------------------------------
# Figure 6: medium-message copy removal
# ---------------------------------------------------------------------------


def fig6(sizes: Sequence[int] = (1024, 4096, 16 * KiB, 32 * KiB, 64 * KiB,
                                 256 * KiB)) -> FigureData:
    sizes = list(sizes)
    return FigureData(
        name="fig6",
        title="impact of removing the medium-message copies (MX)",
        xlabel="size",
        unit="MB/s",
        xs=sizes,
        series={
            "MX User": _netpipe_series(*_mx_pair("user"), sizes=sizes,
                                       metric="bandwidth"),
            "MX Kernel": _netpipe_series(
                *_mx_pair("kernel", physical=True), sizes=sizes,
                metric="bandwidth"),
            "MX Kernel No-send-copy": _netpipe_series(
                *_mx_pair("kernel", physical=True, no_send_copy=True),
                sizes=sizes, metric="bandwidth"),
            "MX Kernel No-copy (predicted)": _netpipe_series(
                *_mx_pair("kernel", physical=True, no_send_copy=True,
                          no_recv_copy=True),
                sizes=sizes, metric="bandwidth"),
        },
    )


# ---------------------------------------------------------------------------
# Figure 7: ORFS on GM vs MX
# ---------------------------------------------------------------------------


def fig7a(sizes: Sequence[int] = (1024, 4096, 16 * KiB, 64 * KiB,
                                  256 * KiB, MiB),
          total: int = 2 * MiB) -> FigureData:
    sizes = list(sizes)
    gm_raw = _netpipe_series(*_gm_user_pair(), sizes=sizes, metric="bandwidth")
    mx_raw = _netpipe_series(*_mx_pair("kernel"), sizes=sizes,
                             metric="bandwidth")
    rig_gm = build_orfs("gm", file_size=total)
    rig_mx = build_orfs("mx", file_size=total)
    return FigureData(
        name="fig7a",
        title="direct file access: ORFS over GM vs MX",
        xlabel="request",
        unit="MB/s",
        xs=sizes,
        series={
            "GM": gm_raw,
            "ORFS/GM Direct": [
                orfs_sequential_read(rig_gm, s, total, direct=True).throughput_mb_s
                for s in sizes],
            "MX Kernel": mx_raw,
            "ORFS/MX Direct": [
                orfs_sequential_read(rig_mx, s, total, direct=True).throughput_mb_s
                for s in sizes],
        },
    )


def fig7b(sizes: Sequence[int] = (1024, 4096, 16 * KiB, 64 * KiB,
                                  256 * KiB, MiB),
          total: int = 2 * MiB) -> FigureData:
    sizes = list(sizes)
    gm_raw = _netpipe_series(*_gm_user_pair(), sizes=sizes, metric="bandwidth")
    mx_raw = _netpipe_series(*_mx_pair("kernel"), sizes=sizes,
                             metric="bandwidth")
    rig_gm = build_orfs("gm", file_size=total)
    rig_mx = build_orfs("mx", file_size=total)
    return FigureData(
        name="fig7b",
        title="buffered file access: ORFS over GM vs MX",
        xlabel="request",
        unit="MB/s",
        xs=sizes,
        series={
            "GM": gm_raw,
            "ORFS/GM Buffered": [
                orfs_sequential_read(rig_gm, s, total).throughput_mb_s
                for s in sizes],
            "MX Kernel": mx_raw,
            "ORFS/MX Buffered": [
                orfs_sequential_read(rig_mx, s, total).throughput_mb_s
                for s in sizes],
        },
    )


# ---------------------------------------------------------------------------
# Figure 8: SOCKETS-GM vs SOCKETS-MX (PCI-XE)
# ---------------------------------------------------------------------------


@one_world
def _socket_point(kind: str, size: int, rounds: int = 8) -> tuple[float, float]:
    """One socket ping-pong at one size; returns (latency, bandwidth)."""
    from ..sockets import SocketsGmModule, SocketsMxModule, ethernet_pair

    env = Environment()
    a, b = node_pair(env, link=PCI_XE)
    if kind == "mx":
        ma, mb = SocketsMxModule(a, 9), SocketsMxModule(b, 9)
    elif kind == "gm":
        ma, mb = SocketsGmModule(a, 9), SocketsGmModule(b, 9)
    else:
        ma, mb = ethernet_pair(env, a, b)
    spa, spb = a.new_process_space(), b.new_process_space()
    va = spa.mmap(max(size, PAGE_SIZE), populate=True)
    vb = spb.mmap(max(size, PAGE_SIZE), populate=True)
    times = {}
    warmup = 2

    def server(env):
        if kind == "tcp":
            mb.listen()
        else:
            yield from mb.listen()
        sock = yield from mb.accept()
        for _ in range(rounds + warmup):
            yield from sock.recv(spb, vb, size)
            yield from sock.send(spb, vb, size)

    def client(env):
        if kind == "tcp":
            sock = yield from ma.connect()
        else:
            sock = yield from ma.connect(1, 9)
        for i in range(rounds + warmup):
            if i == warmup:
                times["t0"] = env.now
            yield from sock.send(spa, va, size)
            yield from sock.recv(spa, va, size)
        times["t1"] = env.now

    env.process(server(env))
    env.run(until=env.process(client(env)))
    one_way = (times["t1"] - times["t0"]) / (2 * rounds)
    return to_us(one_way), size / one_way * 1000  # MB/s


def _socket_sweep(kind: str, sizes: Sequence[int], rounds: int = 8):
    """One socket protocol swept over sizes; returns (latencies, bandwidths)."""
    points = [_socket_point(kind, size, rounds) for size in sizes]
    return [lat for lat, _ in points], [bw for _, bw in points]


def fig8a(sizes: Sequence[int] = (1, 16, 256, 1024, 4096)) -> FigureData:
    sizes = list(sizes)
    gm_lat, _ = _socket_sweep("gm", sizes)
    mx_lat, _ = _socket_sweep("mx", sizes)
    return FigureData(
        name="fig8a",
        title="socket latency: SOCKETS-GM vs SOCKETS-MX (PCI-XE)",
        xlabel="size",
        unit="us",
        xs=sizes,
        series={"Sockets-GM": gm_lat, "Sockets-MX": mx_lat},
    )


def fig8b(sizes: Sequence[int] = (1024, 4096, 16 * KiB, 64 * KiB,
                                  256 * KiB, MiB)) -> FigureData:
    sizes = list(sizes)
    _, gm_bw = _socket_sweep("gm", sizes)
    _, mx_bw = _socket_sweep("mx", sizes)
    return FigureData(
        name="fig8b",
        title="socket bandwidth: SOCKETS-GM vs SOCKETS-MX (PCI-XE)",
        xlabel="size",
        unit="MB/s",
        xs=sizes,
        series={"Sockets-GM": gm_bw, "Sockets-MX": mx_bw},
    )


# ---------------------------------------------------------------------------
# Table 1: results summary
# ---------------------------------------------------------------------------


def table1() -> str:
    """The paper's summary table, regenerated from the experiments."""
    # Kernel latency (figure 5(a), 1 byte)
    gm_k = _netpipe_series(*_gm_kernel_pair(), sizes=[1], metric="latency_us")[0]
    gm_u = _netpipe_series(*_gm_user_pair(), sizes=[1], metric="latency_us")[0]
    mx_k = _netpipe_series(*_mx_pair("kernel"), sizes=[1], metric="latency_us")[0]
    mx_u = _netpipe_series(*_mx_pair("user"), sizes=[1], metric="latency_us")[0]

    # Buffered / direct remote file access (plateau at 1 MiB requests)
    total = 2 * MiB
    rig_gm = build_orfs("gm", file_size=total)
    rig_mx = build_orfs("mx", file_size=total)
    buf_gm = orfs_sequential_read(rig_gm, MiB, total).throughput_mb_s
    buf_mx = orfs_sequential_read(rig_mx, MiB, total).throughput_mb_s
    dir_gm = orfs_sequential_read(rig_gm, MiB, total, direct=True).throughput_mb_s
    dir_mx = orfs_sequential_read(rig_mx, MiB, total, direct=True).throughput_mb_s

    # Sockets (figure 8)
    gm_lat, gm_bw = _socket_sweep("gm", [1, MiB])
    mx_lat, mx_bw = _socket_sweep("mx", [1, MiB])
    link = PCI_XE.link_bandwidth / 1e6

    rows = [
        ["Kernel latency",
         f"{gm_k:.1f} us ({gm_u:.1f} in user-space)",
         f"{mx_k:.1f} us ({mx_u:.1f} in user-space)"],
        ["Buffered remote file access",
         f"{buf_gm:.0f} MB/s (needs physical API)",
         f"{buf_mx:.0f} MB/s (+{(buf_mx / buf_gm - 1) * 100:.0f} %)"],
        ["Direct remote file access",
         f"{dir_gm:.0f} MB/s (needs kernel patching)",
         f"{dir_mx:.0f} MB/s (at least as good)"],
        ["0-copy socket latency",
         f"{gm_lat[0]:.1f} us",
         f"{mx_lat[0]:.1f} us"],
        ["0-copy socket bandwidth",
         f"{gm_bw[1]:.0f} MB/s ({gm_bw[1] / link * 100:.0f} % of link)",
         f"{mx_bw[1]:.0f} MB/s (+{(mx_bw[1] / gm_bw[1] - 1) * 100:.0f} %)"],
    ]
    return format_table("table1: MX and GM in-kernel performance summary",
                        ["", "GM", "MX"], rows)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

FIGURES: dict[str, Callable[[], FigureData]] = {
    "fig1b": fig1b,
    "fig3b": fig3b,
    "fig4a": fig4a,
    "fig4b": fig4b,
    "fig5a": fig5a,
    "fig5b": fig5b,
    "fig6": fig6,
    "fig7a": fig7a,
    "fig7b": fig7b,
    "fig8a": fig8a,
    "fig8b": fig8b,
}


@one_world
def run_figure(name: str) -> str:
    """Run one experiment by name; returns its rendered table."""
    if name == "table1":
        return table1()
    try:
        fn = FIGURES[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from "
            f"{sorted(FIGURES) + ['table1']}"
        ) from None
    return fn().render()
