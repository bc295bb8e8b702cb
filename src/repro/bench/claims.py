"""The paper's quantitative claims, each stated once, as views over the
experiment set of :mod:`repro.bench.figures`.

A :class:`Claim` is one ✔/≈ row of a figure section of EXPERIMENTS.md.
Like a figure, it declares the points it reads: those its figure plots,
wherever the row's number comes from that figure.  Its ``predicate``
holds the row's tolerance (for a ≈ row, an explicit bound on the
deviation from the paper), and its ``cell`` renders the row's
"measured" cell, which the tier-1 suite compares with the document.

``measure([name, *of(name)])`` plans a figure's points before its
claims', so the figure renders as it does alone; the only point no
figure plots is the TCP/GigE baseline at 1 B.  Nothing in ``repro``
imports this module; the tests and ``benchmarks/`` do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..hw.params import PCI_XE
from ..units import KiB, MiB, PAGE_SIZE
from .figures import FIGURES, netpipe, orfa, orfs, socket


@dataclass(frozen=True)
class Claim:
    """One row: ``figure``'s section, the row's claim cell verbatim, its
    mark (``✔`` or ``≈``), and the named ``points`` it reads, each a
    ``(key, size or sizes)`` in ``unit`` or a reader of the results.
    ``predicate`` and ``cell`` take the points' values by name."""

    figure: str
    row: str
    mark: str
    unit: str
    points: dict
    predicate: Callable[..., bool]
    cell: Callable[..., str]

    @property
    def requests(self) -> tuple:
        """The ``(key, sizes)`` this claim reads, as a figure declares them."""
        sizes: dict = {}
        for point in self.points.values():
            if isinstance(point, tuple):
                key, at = point
                sizes.setdefault(key, {}).update(
                    dict.fromkeys(at if isinstance(at, tuple) else (at,)))
        return tuple((key, tuple(at)) for key, at in sizes.items())

    def values(self, results: dict) -> dict:
        def read(point):
            if callable(point):
                return point(results)
            key, at = point
            if isinstance(at, tuple):
                return [results[key, size][self.unit] for size in at]
            return results[key, at][self.unit]

        return {name: read(point) for name, point in self.points.items()}

    def holds(self, results: dict) -> bool:
        return self.predicate(**self.values(results))

    def render(self, results: dict) -> str:
        return self.cell(**self.values(results))


def of(name: str) -> tuple[Claim, ...]:
    """The claims of one runner name, in EXPERIMENTS.md row order."""
    return tuple(claim for claim in CLAIMS if claim.figure == name)


def _plotted(figure: str, key: tuple) -> tuple:
    """``(key, every size figure plots it at)``."""
    return key, next(s for k, s in FIGURES[figure].requests if k == key)


def _cost(label: str) -> Callable[[dict], list]:
    """A series of figure 1(b)'s cost model, read off its view."""
    return lambda results: FIGURES["fig1b"].view(results).series[label]


def _span(values, fmt: str = "{:.0f}") -> str:
    """``lo–hi`` of ``values`` as ``fmt`` prints them, or one value."""
    lo, hi = fmt.format(min(values)), fmt.format(max(values))
    return lo if lo == hi else f"{lo}–{hi}"


def _within(value: float, paper: float, below: float, above: float) -> bool:
    """A ≈ bound: ``value`` is less than ``below`` under the paper's
    figure and less than ``above`` over it."""
    return paper - below < value < paper + above


def _falling(*series) -> list[bool]:
    """At each size, whether ``series`` are in strictly falling order."""
    return [all(a > b for a, b in zip(at, at[1:])) for at in zip(*series)]


def _at_every(flags: list[bool]) -> str:
    return ("yes, at every size" if all(flags)
            else f"at {sum(flags)} of {len(flags)} sizes")


def _kb(sizes) -> str:
    return " and ".join(str(size // KiB) for size in sizes) + " kB"


P3, P4, REG, DEREG, BOTH = map(_cost, (
    "Copy (P3 1.2GHz)", "Copy (P4 2.6GHz)", "Registration", "Deregistration",
    "Register+Dereg"))
PAGES = (256 - 32) * KiB // PAGE_SIZE  # the span figure 1(b) plots
GM, GM_KERNEL, GM_PHYS, MX_USER, MX_KERNEL, MX_PHYS, MX_NOSEND, MX_NOCOPY = (
    netpipe(pair) for pair in (
        "gm-user", "gm-kernel", "gm-physical", "mx-user", "mx-kernel",
        "mx-physical", "mx-physical-nosend", "mx-physical-nocopy"))
ORFA_GM, ORFS_GM = orfa("gm", MiB), orfs("gm", MiB, direct=True)
ORFS_GM_NOCACHE = orfs("gm", MiB, direct=True, regcache=False)
DIRECT = {api: orfs(api, 2 * MiB, direct=True) for api in ("gm", "mx")}
BUFFERED = {api: orfs(api, 2 * MiB, direct=False) for api in ("gm", "mx")}
SOCKETS_GM, SOCKETS_MX, TCP = socket("gm"), socket("mx"), socket("tcp")
LINK = PCI_XE.link_bandwidth / 1e6
LARGE = _plotted("fig7a", GM)[1]
BIG = LARGE[4:]  # 256 kB and 1 MB
MEDIUM = (1024, 4096, 16 * KiB)


def _fig7(name: str, orfs_of: dict) -> dict:
    """Figure 7's four series: ORFS over each API and its raw curve."""
    return {"gm": _plotted(name, orfs_of["gm"]),
            "mx": _plotted(name, orfs_of["mx"]),
            "gm_raw": _plotted(name, GM), "mx_raw": _plotted(name, MX_KERNEL)}


CLAIMS: tuple[Claim, ...] = (
    # -- figure 1(b): a cost model, no experiment ---------------------------
    Claim("fig1b", "registration slope", "✔", "us", {"reg": REG},
          lambda reg: 2.5 < (reg[-1] - reg[0]) / PAGES < 3.6,
          lambda reg: f"{(reg[-1] - reg[0]) / PAGES:.1f} µs/page"),
    Claim("fig1b", "deregistration base", "✔", "us", {"dereg": DEREG},
          lambda dereg: all(200 <= d < 225 for d in dereg),
          lambda dereg: f"{_span(dereg)} µs over the range"),
    Claim("fig1b", "copy beats register+deregister everywhere ≤256 kB", "✔",
          "us", {"p3": P3, "p4": P4, "both": BOTH},
          lambda p3, p4, both: all(max(a, b) < c
                                   for a, b, c in zip(p3, p4, both)),
          lambda p3, p4, both: (f"P3 {p3[-1]:.0f} µs & P4 {p4[-1]:.0f} µs "
                                f"vs {_span(both)} µs")),
    Claim("fig1b", "registration alone pays off only for large reused zones",
          "✔", "us", {"reg": REG, "p3": P3, "p4": P4},
          lambda reg, p3, p4: p4[-1] < reg[-1] < p3[-1],
          lambda reg, p3, p4: (f"reg ({reg[-1]:.0f} µs @256 kB) < P3 copy "
                               f"({p3[-1]:.0f} µs), > P4 copy "
                               f"({p4[-1]:.0f} µs)")),

    # -- figure 3(b): ORFS direct access on GM, 1 MiB file ------------------
    Claim("fig3b", "ordering raw > ORFA > ORFS", "✔", "MB/s",
          {"raw": _plotted("fig3b", GM), "orfa": _plotted("fig3b", ORFA_GM),
           "orfs": _plotted("fig3b", ORFS_GM)},
          lambda raw, orfa, orfs: all(_falling(raw, orfa, orfs)),
          lambda raw, orfa, orfs: _at_every(_falling(raw, orfa, orfs))),
    Claim("fig3b", '"ORFS performance is still lower than ORFA because of '
          'the overhead of system calls and of the traversal of the VFS '
          'layers"', "✔", "MB/s",
          {"orfa": _plotted("fig3b", ORFA_GM),
           "orfs": _plotted("fig3b", ORFS_GM)},
          lambda orfa, orfs: all(0 < 1 - b / a < 0.3
                                 for a, b in zip(orfa, orfs)),
          lambda orfa, orfs: "ORFS {} % below ORFA".format(
              _span([(1 - b / a) * 100 for a, b in zip(orfa, orfs)]))),
    # ≈: the no-cache loss is within 10 points of the paper's 20 %.
    Claim("fig3b", '"Without any cache hit, the performance is 20 % lower"',
          "≈", "MB/s", {"cached": (ORFS_GM, (256 * KiB, 64 * KiB)),
                        "missed": (ORFS_GM_NOCACHE, (256 * KiB, 64 * KiB))},
          lambda cached, missed: all(_within(1 - m / c, 0.2, 0.1, 0.1)
                                     for c, m in zip(cached, missed)),
          lambda cached, missed: "{:.0f} % @256 kB, {:.0f} % @64 kB".format(
              *((1 - m / c) * 100 for c, m in zip(cached, missed)))),

    # -- figure 4(a): registered-virtual vs physical GM kernel primitives ---
    Claim("fig4a", "gain per side", "✔", "us",
          {"virt": _plotted("fig4a", GM_KERNEL),
           "phys": _plotted("fig4a", GM_PHYS)},
          lambda virt, phys: all(0.8 < v - p < 1.2
                                 for v, p in zip(virt, phys)),
          lambda virt, phys: "{} µs ({} µs total) at every size".format(
              _span([(v - p) / 2 for v, p in zip(virt, phys)], "{:.1f}"),
              _span([v - p for v, p in zip(virt, phys)], "{:.1f}"))),
    Claim("fig4a", "relative gain, small messages", "✔", "us",
          {"virt": (GM_KERNEL, 16), "phys": (GM_PHYS, 16)},
          lambda virt, phys: 0.07 < 1 - phys / virt < 0.15,
          lambda virt, phys: f"{(1 - phys / virt) * 100:.1f} % @16 B"),

    # -- figure 4(b): ORFS/GM direct vs buffered, 2 MiB file ----------------
    Claim("fig4b", "4 kB accesses faster through the page cache", "✔",
          "MB/s", {"buf": (BUFFERED["gm"], 4096), "dio": (DIRECT["gm"], 4096)},
          lambda buf, dio: buf > dio,
          lambda buf, dio: f"buffered {buf:.1f} vs direct {dio:.1f} MB/s"),
    Claim("fig4b", "buffered splits into page-sized requests → plateau",
          "✔", "MB/s", {"buf": (BUFFERED["gm"], LARGE[2:])},
          lambda buf: max(buf) - min(buf) < 5,
          lambda buf: f"plateau {buf[-1]:.1f} MB/s from 16 kB on"),
    Claim("fig4b", "direct much better for large transfers", "✔", "MB/s",
          {"dio": (DIRECT["gm"], BIG), "buf": (BUFFERED["gm"], BIG)},
          lambda dio, buf: all(d > 2 * b for d, b in zip(dio, buf)),
          lambda dio, buf: "{} vs {} MB/s ({}×)".format(
              _span(dio), _span(buf),
              _span([d / b for d, b in zip(dio, buf)], "{:.1f}"))),
    Claim("fig4b", "direct approaches raw GM at large requests", "✔", "MB/s",
          {"dio": (DIRECT["gm"], MiB), "raw": (GM, MiB)},
          lambda dio, raw: dio > 0.85 * raw,
          lambda dio, raw: f"{dio:.1f} vs {raw:.1f} MB/s @1 MB "
                           f"({dio / raw:.2f}×)"),

    # -- figure 5(a): latency, GM vs MX, user vs kernel ---------------------
    Claim("fig5a", "MX user, 1 B", "✔", "us", {"mx": (MX_USER, 1)},
          lambda mx: abs(mx - 4.2) < 0.25, lambda mx: f"{mx:.1f} µs"),
    Claim("fig5a", "GM user, 1 B", "✔", "us", {"gm": (GM, 1)},
          lambda gm: abs(gm - 6.7) < 0.25, lambda gm: f"{gm:.1f} µs"),
    Claim("fig5a", "GM user >50 % above MX", "✔", "us",
          {"gm": (GM, 1), "mx": (MX_USER, 1)},
          lambda gm, mx: gm / mx > 1.5,
          lambda gm, mx: f"{(gm / mx - 1) * 100:.0f} %"),
    Claim("fig5a", "GM kernel penalty", "✔", "us",
          {"user": (GM, 1), "kernel": (GM_KERNEL, 1)},
          lambda user, kernel: 1.7 < kernel - user < 2.3,
          lambda user, kernel: f"+{kernel - user:.1f} µs"),
    Claim("fig5a", "MX kernel == MX user", "✔", "us",
          {"user": _plotted("fig5a", MX_USER),
           "kernel": _plotted("fig5a", MX_KERNEL)},
          lambda user, kernel: all(abs(u - k) <= 0.1
                                   for u, k in zip(user, kernel)),
          lambda user, kernel: "equal at every size" if user == kernel
          else "within {:.2f} µs at every size".format(
              max(abs(u - k) for u, k in zip(user, kernel)))),

    # -- figure 5(b): bandwidth, GM vs MX user vs MX kernel-physical --------
    Claim("fig5b", "GM large == MX large (GM enjoys 100 % registration "
          "reuse)", "✔", "MB/s",
          {"gm": (GM, MiB), "user": (MX_USER, MiB), "phys": (MX_PHYS, MiB)},
          lambda gm, user, phys: (all(230 < bw < 250
                                      for bw in (gm, user, phys))
                                  and abs(gm - user) < 10),
          lambda gm, user, phys: f"{gm:.1f} vs {user:.1f}/{phys:.1f} MB/s "
                                 "@1 MB"),
    Claim("fig5b", "MX kernel large ≥ MX user (cheaper page locking)", "✔",
          "MB/s", {"user": (MX_USER, MiB), "phys": (MX_PHYS, MiB)},
          lambda user, phys: phys >= user,
          lambda user, phys: f"+{phys - user:.1f} MB/s @1 MB"),
    Claim("fig5b", '"MX raw performance is not better than GM for such '
          '[page-sized] messages" (§5.2)', "✔", "MB/s",
          {"gm": (GM, 4096), "mx": (MX_USER, 4096)}, lambda gm, mx: gm >= mx,
          lambda gm, mx: f"GM {gm:.1f} vs MX {mx:.1f} @4 kB"),
    Claim("fig5b", "MX leads GM at 1 kB (lower base latency)", "✔", "MB/s",
          {"gm": (GM, 1024), "mx": (MX_USER, 1024)}, lambda gm, mx: mx > gm,
          lambda gm, mx: f"MX {mx:.1f} vs GM {gm:.1f} MB/s @1 kB"),

    # -- figure 6: medium-message copy removal (MX kernel, physical) --------
    Claim("fig6", "send-copy removal @32 kB", "✔", "MB/s",
          {"base": (MX_PHYS, 32 * KiB), "nosend": (MX_NOSEND, 32 * KiB)},
          lambda base, nosend: 0.12 < nosend / base - 1 < 0.22,
          lambda base, nosend: f"+{(nosend / base - 1) * 100:.1f} % "
                               f"({base:.1f} → {nosend:.1f} MB/s)"),
    # ≈: the further gain is within −5/+10 points of the paper's 15 %.
    Claim("fig6", "both copies removed (predicted)", "≈", "MB/s",
          {"nosend": (MX_NOSEND, 32 * KiB), "nocopy": (MX_NOCOPY, 32 * KiB)},
          lambda nosend, nocopy: _within(nocopy / nosend - 1, 0.15, 0.05, 0.1),
          lambda nosend, nocopy: f"+{(nocopy / nosend - 1) * 100:.0f} % "
                                 f"further (→{nocopy:.1f})"),
    Claim("fig6", "single page (4 kB)", "✔", "MB/s",
          {"base": (MX_PHYS, 4096), "nosend": (MX_NOSEND, 4096)},
          lambda base, nosend: 0.05 < nosend / base - 1 < 0.13,
          lambda base, nosend: f"+{(nosend / base - 1) * 100:.1f} %"),
    Claim("fig6", '"large message bandwidth looks lower" than no-copy '
          'medium', "✔", "MB/s",
          {"nocopy": (MX_NOCOPY, 32 * KiB), "large": (MX_PHYS, 64 * KiB)},
          lambda nocopy, large: nocopy > large,
          lambda nocopy, large: f"no-copy {nocopy:.1f} @32 kB > large path "
                                f"{large:.1f} @64 kB"),

    # -- figure 7(a): ORFS direct, GM vs MX, 2 MiB file ---------------------
    Claim("fig7a", "MX direct slightly better; difference ~ raw difference",
          "✔", "MB/s", _fig7("fig7a", DIRECT),
          lambda gm, mx, gm_raw, mx_raw: (
              mx[0] >= gm[0] and all(m >= 0.98 * g
                                     for g, m in zip(gm[4:], mx[4:]))
              and all(a > b for g, m, a, b in zip(gm, mx, gm_raw, mx_raw)
                      if g > m)),
          lambda gm, mx, gm_raw, mx_raw: (
              f"MX {mx[-1]:.1f} vs GM {gm[-1]:.1f} @1 MB "
              f"(+{(mx[-1] / gm[-1] - 1) * 100:.1f} %); mid-band mirrors the "
              "raw curves (GM direct ahead only @{}, where raw GM is ahead "
              "too)".format(_kb(x for x, g, m in zip(LARGE, gm, mx)
                                if g > m)))),
    Claim("fig7a", "both APIs track their raw curves at large requests", "✔",
          "MB/s", _fig7("fig7a", DIRECT),
          lambda gm, mx, gm_raw, mx_raw: (gm[-1] > 0.85 * gm_raw[-1]
                                          and mx[-1] > 0.85 * mx_raw[-1]),
          lambda gm, mx, gm_raw, mx_raw: (
              f"GM {gm[-1] / gm_raw[-1]:.2f}×, MX {mx[-1] / mx_raw[-1]:.2f}× "
              "raw @1 MB")),

    # -- figure 7(b): ORFS buffered, GM vs MX, 2 MiB file -------------------
    Claim("fig7b", "MX buffered improvement", "✔", "MB/s",
          {"gm": (BUFFERED["gm"], BIG), "mx": (BUFFERED["mx"], BIG)},
          lambda gm, mx: all(0.25 < m / g - 1 < 0.55 for g, m in zip(gm, mx)),
          lambda gm, mx: f"+{(mx[-1] / gm[-1] - 1) * 100:.0f} % "
                         f"({mx[-1]:.1f} vs {gm[-1]:.1f} MB/s)"),
    Claim("fig7b", "improvement is from the kernel interface, not raw 4 kB "
          "speed", "✔", "MB/s", _fig7("fig7b", BUFFERED),
          lambda gm, mx, gm_raw, mx_raw: (
              gm_raw[1] >= mx_raw[1] and all(m > g for g, m in zip(gm, mx))
              and gm[-1] < 0.5 * gm_raw[-1] and mx[-1] < 0.6 * mx_raw[-1]),
          lambda gm, mx, gm_raw, mx_raw: (
              f"raw GM {gm_raw[1]:.1f} ≥ raw MX {mx_raw[1]:.1f} at 4 kB, yet "
              "ORFS/MX wins at every size — the gap is GM's kernel-entry "
              "costs and completion dispatch; both plateau at "
              f"{gm[-1] / gm_raw[-1]:.2f}×/{mx[-1] / mx_raw[-1]:.2f}× raw")),

    # -- figure 8(a): socket latency on PCI-XE ------------------------------
    Claim("fig8a", "SOCKETS-MX 1 B one-way", "✔", "us",
          {"mx": (SOCKETS_MX, 1)},
          lambda mx: abs(mx - 5.0) < 0.6, lambda mx: f"{mx:.1f} µs"),
    Claim("fig8a", "overhead over raw MX", "✔", "us",
          {"sockets": (SOCKETS_MX, 1), "raw": (MX_USER, 1)},
          lambda sockets, raw: abs(sockets - raw - 1.0) < 0.3,
          lambda sockets, raw: f"{sockets - raw:.1f} µs"),
    Claim("fig8a", "SOCKETS-GM 1 B one-way", "✔", "us",
          {"gm": (SOCKETS_GM, 1)},
          lambda gm: abs(gm - 15.0) < 1.5, lambda gm: f"{gm:.1f} µs"),
    Claim("fig8a", 'GigE "might get much more"', "✔", "us",
          {"tcp": (TCP, 1), "mx": (SOCKETS_MX, 1)},
          lambda tcp, mx: tcp > 5 * mx,
          lambda tcp, mx: f"TCP/GigE baseline {tcp:.1f} µs"),
    Claim("fig8a", "SOCKETS-MX keeps a ~3× lead over SOCKETS-GM", "✔", "us",
          {"gm": (SOCKETS_GM, 1), "mx": (SOCKETS_MX, 1)},
          lambda gm, mx: gm / mx > 2.5, lambda gm, mx: f"{gm / mx:.1f}× @1 B"),

    # -- figure 8(b): socket bandwidth on PCI-XE (500 MB/s) -----------------
    # ≈: the peak medium gain is within ±0.45× of the paper's 2.0×, and the
    # 4 kB gain within −0.6/+0.3× of it.
    Claim("fig8b", 'medium improvement "up to 100 % (for 4 kB)"', "≈", "MB/s",
          {"gm": (SOCKETS_GM, MEDIUM), "mx": (SOCKETS_MX, MEDIUM)},
          lambda gm, mx: (_within(max(m / g for g, m in zip(gm, mx)),
                                  2.0, 0.45, 0.45)
                          and _within(mx[1] / gm[1], 2.0, 0.6, 0.3)),
          lambda gm, mx: "{:.2f}× @{}, {:.2f}× @4 kB".format(
              *max((m / g, _kb([x])) for g, m, x in zip(gm, mx, MEDIUM)),
              mx[1] / gm[1])),
    Claim("fig8b", 'large improvement "up to 50 % (for 1 MB)"', "✔", "MB/s",
          {"gm": (SOCKETS_GM, MiB), "mx": (SOCKETS_MX, MiB)},
          lambda gm, mx: 1.3 < mx / gm < 1.6,
          lambda gm, mx: f"{mx / gm:.2f}× @1 MB"),
    Claim("fig8b", "SOCKETS-GM < 70 % of link", "✔", "MB/s",
          {"gm": (SOCKETS_GM, MiB)}, lambda gm: gm < 0.70 * LINK,
          lambda gm: f"{gm:.1f}/{LINK:.0f} = {gm / LINK * 100:.0f} %"),
    Claim("fig8b", "SOCKETS-MX approaches the link", "✔", "MB/s",
          {"mx": (SOCKETS_MX, MiB)}, lambda mx: mx > 0.93 * LINK,
          lambda mx: f"{mx:.1f}/{LINK:.0f} = {mx / LINK * 100:.0f} %"),
)
