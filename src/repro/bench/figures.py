"""The paper's figures and Table 1 as views over one experiment set.

A figure declares the experiment points it plots as requests
``(experiment key, sizes)``, and its view is a pure function of their
results.  The experiment keys are

* ``netpipe(pair, link)``: a NetPIPE ping-pong, which gives both the
  latency and the bandwidth at each size;
* ``orfs(api, total, direct, regcache)``: sequential ORFS reads of a
  ``total``-byte file;
* ``orfa(api, total)``: the same reads through the user-space ORFA
  library;
* ``socket(kind)``: a SOCKETS-GM/MX ping-pong on PCI-XE, or (kind
  ``tcp``) the TCP/IP baseline over gigabit Ethernet.

:func:`plan` turns the requests of some figures into jobs.  A job
measures one key at the sizes no earlier request planned, as one
series in fresh worlds (:func:`run_job`), so each distinct point
``(key, size)`` is measured once per call.  The results ``{point:
measurement}`` live only as long as that call: nothing is memoised
across calls.  :func:`measure` runs a call's jobs through the world
runner (:func:`repro.sim.worlds.run_worlds`) and keys each result by
its point (:func:`collect`).  A measurement maps a unit (``"us"``,
``"MB/s"``) to a value, and a figure's unit picks which.  ``table1``
has no experiment of its own: it reads points of figures 5(a), 7 and
8.  The CLI (``python -m repro.bench <name>``) and the pytest-benchmark
targets in ``benchmarks/`` drive this module.

Paper-vs-measured commentary for every experiment lives in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .. import obs
from ..cluster import node_pair
from ..gm.registration import RegistrationDomain
from ..hw.cpu import Cpu
from ..hw.params import HOST_P3_1200, HOST_P4_2600, PCI_XD, PCI_XE
from ..sim import Environment, one_world
from ..sim.worlds import run_worlds
from ..units import KiB, MiB, PAGE_SIZE, to_us
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
# experiment keys and the series that measure them
# ---------------------------------------------------------------------------


def netpipe(pair: str, link=PCI_XD) -> tuple:
    """A transport pair (see :func:`_transport`) ping-ponged on ``link``."""
    return ("netpipe", pair, link)


def orfs(api: str, total: int, direct: bool, regcache: bool = True) -> tuple:
    return ("orfs", api, total, direct, regcache)


def orfa(api: str, total: int) -> tuple:
    return ("orfa", api, total)


def socket(kind: str) -> tuple:
    return ("socket", kind)


def _transport(pair: str, node, peer: int):
    """One end of ``pair``: ``gm-user``, ``gm-kernel``, ``gm-physical``,
    ``mx-user``, ``mx-kernel``, ``mx-physical``, ``mx-physical-nosend``
    (no send copy) or ``mx-physical-nocopy`` (no copy on either side)."""
    api, mode, *copies = pair.split("-")
    if api == "gm":
        if mode == "user":
            return GmUserTransport(node, 1, peer_node=peer, peer_port=1)
        return GmKernelTransport(
            node, 1, peer_node=peer, peer_port=1,
            addressing="physical" if mode == "physical" else "virtual")
    return MxTransport(node, 1, peer_node=peer, peer_ep=1,
                       context="user" if mode == "user" else "kernel",
                       physical=mode == "physical",
                       no_send_copy=bool(copies),
                       no_recv_copy=copies == ["nocopy"])


@one_world
def _netpipe_series(pair: str, link, sizes: Sequence[int],
                    rounds: int = 8) -> list[dict]:
    """One transport pair ping-ponged over ``sizes`` in one world."""
    env = Environment()
    node_a, node_b = node_pair(env, link=link)
    a, b = _transport(pair, node_a, 1), _transport(pair, node_b, 0)
    prepare_pair(env, a, b, max(max(sizes), PAGE_SIZE))
    out = []
    for size in sizes:
        r = ping_pong(env, a, b, size, rounds=rounds)
        out.append({"us": r.one_way_us, "MB/s": r.bandwidth_mb_s})
    return out


@one_world
def _orfs_series(api: str, total: int, direct: bool, regcache: bool,
                 sizes: Sequence[int]) -> list[dict]:
    """Sequential reads of each size on one fresh ORFS rig."""
    rig = build_orfs(api, regcache_enabled=regcache, file_size=total)
    return [{"MB/s": orfs_sequential_read(rig, s, total,
                                          direct=direct).throughput_mb_s}
            for s in sizes]


@one_world
def _orfa_series(api: str, total: int, sizes: Sequence[int]) -> list[dict]:
    """Sequential reads of each size on one fresh ORFA rig."""
    rig = build_orfa(api, file_size=total)
    return [{"MB/s": orfa_sequential_read(rig, s, total).throughput_mb_s}
            for s in sizes]


@one_world
def _socket_point(kind: str, size: int, rounds: int = 8) -> dict:
    """One SOCKETS-GM/MX ping-pong at one size, in its own world; kind
    ``tcp`` is the TCP/IP baseline on its own gigabit Ethernet link."""
    from ..sockets import SocketsGmModule, SocketsMxModule, ethernet_pair

    env = Environment()
    a, b = node_pair(env, link=PCI_XE)
    if kind == "tcp":
        ma, mb = ethernet_pair(env, a, b)
    else:
        module = SocketsMxModule if kind == "mx" else SocketsGmModule
        ma, mb = module(a, 9), module(b, 9)
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
        sock = yield from (ma.connect() if kind == "tcp"
                           else ma.connect(1, 9))
        for i in range(rounds + warmup):
            if i == warmup:
                times["t0"] = env.now
            yield from sock.send(spa, va, size)
            yield from sock.recv(spa, va, size)
        times["t1"] = env.now

    env.process(server(env))
    env.run(until=env.process(client(env)))
    one_way = (times["t1"] - times["t0"]) / (2 * rounds)
    return {"us": to_us(one_way), "MB/s": size / one_way * 1000}


def _socket_series(kind: str, sizes: Sequence[int]) -> list[dict]:
    return [_socket_point(kind, size) for size in sizes]


_SERIES = {"netpipe": _netpipe_series, "orfs": _orfs_series,
           "orfa": _orfa_series, "socket": _socket_series}


@dataclass(frozen=True)
class Job:
    """Measure ``key`` at ``sizes``; ``figure`` is the name that planned it."""

    figure: str
    key: tuple
    sizes: tuple[int, ...]

    @property
    def points(self) -> list[tuple]:
        return [(self.key, size) for size in self.sizes]


def run_job(job: Job) -> list[dict]:
    """Measure one job in fresh worlds, marked on the ambient timeline
    with the figure that planned it; returns one measurement per size."""
    tl = obs.active_timeline()
    if tl is not None:
        tl.instant(0, "bench", f"figure:{job.figure}")
    kind, *params = job.key
    return _SERIES[kind](*params, job.sizes)


# ---------------------------------------------------------------------------
# the figures: what each plots, and how
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure:
    """``requests`` are the ``(key, sizes)`` a figure plots; ``view``
    maps the results to its :class:`FigureData` (table1: its text)."""

    requests: tuple
    view: Callable[[dict], "FigureData | str"]


def _plot(name: str, title: str, xlabel: str, unit: str,
          xs: Sequence[int], series: dict) -> Figure:
    """A figure plotting each ``label: key`` of ``series`` over ``xs``."""
    xs = tuple(xs)
    return Figure(
        tuple((key, xs) for key in series.values()),
        lambda results: FigureData(name, title, xlabel, unit, list(xs), {
            label: [results[key, x][unit] for x in xs]
            for label, key in series.items()}))


def _fig1b(results: dict) -> FigureData:
    """Copy cost (P3/P4) vs GM registration/deregistration cost: a cost
    model with no experiment."""
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


_SMALL = (1, 16, 256, 1024, 4096)
_LARGE = (1024, 4096, 16 * KiB, 64 * KiB, 256 * KiB, MiB)


def _fig7(name: str, direct: bool) -> Figure:
    """Figure 7: ORFS over GM vs MX, direct (a) or buffered (b)."""
    mode = "Direct" if direct else "Buffered"
    return _plot(name, f"{mode.lower()} file access: ORFS over GM vs MX",
                 "request", "MB/s", _LARGE, {
                     "GM": netpipe("gm-user"),
                     f"ORFS/GM {mode}": orfs("gm", 2 * MiB, direct),
                     "MX Kernel": netpipe("mx-kernel"),
                     f"ORFS/MX {mode}": orfs("mx", 2 * MiB, direct),
                 })


_TABLE1_LATENCY = ("gm-kernel", "gm-user", "mx-kernel", "mx-user")


def _table1(results: dict) -> str:
    """The paper's summary table, read off figures 5(a), 7 and 8."""
    def at(key, size, unit):
        return results[key, size][unit]

    gm_k, gm_u, mx_k, mx_u = (at(netpipe(pair), 1, "us")
                              for pair in _TABLE1_LATENCY)
    buf_gm, buf_mx, dir_gm, dir_mx = (
        at(orfs(api, 2 * MiB, direct), MiB, "MB/s")
        for direct in (False, True) for api in ("gm", "mx"))
    gm_lat, mx_lat = (at(socket(kind), 1, "us") for kind in ("gm", "mx"))
    gm_bw, mx_bw = (at(socket(kind), MiB, "MB/s") for kind in ("gm", "mx"))
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
         f"{gm_lat:.1f} us",
         f"{mx_lat:.1f} us"],
        ["0-copy socket bandwidth",
         f"{gm_bw:.0f} MB/s ({gm_bw / link * 100:.0f} % of link)",
         f"{mx_bw:.0f} MB/s (+{(mx_bw / gm_bw - 1) * 100:.0f} %)"],
    ]
    return format_table("table1: MX and GM in-kernel performance summary",
                        ["", "GM", "MX"], rows)


FIGURES: dict[str, Figure] = {
    "fig1b": Figure((), _fig1b),
    # Figure 3(b): ORFS direct access on GM, with/without registration
    # cache.  Its file is 1 MiB, not 2: the points differ in the last
    # digit from figure 4(b)'s, so they keep their own keys.
    "fig3b": _plot("fig3b",
                   "ORFS direct access on GM (registration cache impact)",
                   "request", "MB/s", _LARGE[:5], {
                       "GM Raw": netpipe("gm-user"),
                       "ORFA w/ RegCache": orfa("gm", MiB),
                       "ORFS w/ RegCache": orfs("gm", MiB, direct=True),
                       "ORFS w/o RegCache": orfs("gm", MiB, direct=True,
                                                 regcache=False),
                   }),
    "fig4a": _plot("fig4a",
                   "GM kernel latency: registered virtual vs physical address",
                   "size", "us", (16, 64, 256, 1024, 4096), {
                       "Memory Registration": netpipe("gm-kernel"),
                       "Physical Address": netpipe("gm-physical"),
                   }),
    "fig4b": _plot("fig4b", "ORFS on GM: direct vs buffered file access",
                   "request", "MB/s", _LARGE, {
                       "GM Raw": netpipe("gm-user"),
                       "ORFS/GM Direct": orfs("gm", 2 * MiB, direct=True),
                       "ORFS/GM Buffered": orfs("gm", 2 * MiB, direct=False),
                   }),
    "fig5a": _plot("fig5a", "small-message latency: GM vs MX, user vs kernel",
                   "size", "us", _SMALL, {
                       "GM User": netpipe("gm-user"),
                       "GM Kernel": netpipe("gm-kernel"),
                       "MX User": netpipe("mx-user"),
                       "MX Kernel": netpipe("mx-kernel"),
                   }),
    "fig5b": _plot("fig5b",
                   "bandwidth: GM vs MX user vs MX kernel (physical)",
                   "size", "MB/s", _LARGE, {
                       "GM": netpipe("gm-user"),
                       "MX User": netpipe("mx-user"),
                       "MX Kernel Physical": netpipe("mx-physical"),
                   }),
    "fig6": _plot("fig6", "impact of removing the medium-message copies (MX)",
                  "size", "MB/s",
                  (1024, 4096, 16 * KiB, 32 * KiB, 64 * KiB, 256 * KiB), {
                      "MX User": netpipe("mx-user"),
                      "MX Kernel": netpipe("mx-physical"),
                      "MX Kernel No-send-copy": netpipe("mx-physical-nosend"),
                      "MX Kernel No-copy (predicted)":
                          netpipe("mx-physical-nocopy"),
                  }),
    "fig7a": _fig7("fig7a", direct=True),
    "fig7b": _fig7("fig7b", direct=False),
    "fig8a": _plot("fig8a",
                   "socket latency: SOCKETS-GM vs SOCKETS-MX (PCI-XE)",
                   "size", "us", _SMALL,
                   {"Sockets-GM": socket("gm"), "Sockets-MX": socket("mx")}),
    "fig8b": _plot("fig8b",
                   "socket bandwidth: SOCKETS-GM vs SOCKETS-MX (PCI-XE)",
                   "size", "MB/s", _LARGE,
                   {"Sockets-GM": socket("gm"), "Sockets-MX": socket("mx")}),
}

TABLE1 = Figure(
    tuple((netpipe(pair), (1,)) for pair in _TABLE1_LATENCY)
    + tuple((orfs(api, 2 * MiB, direct), (MiB,))
            for direct in (False, True) for api in ("gm", "mx"))
    + tuple((socket(kind), (1, MiB)) for kind in ("gm", "mx")),
    _table1)

VIEWS: dict[str, Figure] = {**FIGURES, "table1": TABLE1}


# ---------------------------------------------------------------------------
# the experiment set
# ---------------------------------------------------------------------------


def plan(names: Iterable) -> list[Job]:
    """The jobs that measure every point ``names`` request, each once:
    a request's job holds the sizes no earlier request planned.  A name
    is a key of :data:`VIEWS`, or a view of another module that carries
    its own ``requests`` and the ``figure`` its jobs are charged to
    (a :class:`repro.bench.claims.Claim`)."""
    planned: set = set()
    jobs = []
    for name in names:
        if not isinstance(name, str):
            name, requests = name.figure, name.requests
        elif name in VIEWS:
            requests = VIEWS[name].requests
        else:
            raise KeyError(f"unknown experiment {name!r}; choose from "
                           f"{sorted(VIEWS)}")
        for key, sizes in requests:
            new = tuple(s for s in sizes if (key, s) not in planned)
            if new:
                planned.update((key, s) for s in new)
                jobs.append(Job(name, key, new))
    return jobs


def collect(jobs: list[Job], measured: list) -> dict:
    """The results ``{point: measurement}`` of ``jobs``, given each
    job's measurements (what :func:`run_job` returns) in plan order."""
    return {point: value for job, values in zip(jobs, measured)
            for point, value in zip(job.points, values)}


def measure(names: Iterable) -> dict:
    """Run every job ``names`` plan (see :func:`plan`) through
    :func:`repro.sim.worlds.run_worlds`; returns the results ``{point:
    measurement}``."""
    jobs = plan(names)
    return collect(jobs, run_worlds(run_job, jobs)[0])


def render(name: str, results: dict) -> str:
    """``name``'s table, read off ``results``."""
    out = VIEWS[name].view(results)
    return out if isinstance(out, str) else out.render()


def run_figure(name: str) -> str:
    """Plan and measure one name on its own; returns its rendered table."""
    return render(name, measure([name]))
