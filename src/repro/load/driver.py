"""The load driver: runs a drawn schedule against a workload adapter.

Open-loop mode (the default) replays an absolute arrival schedule: a
dispatcher process releases each request at its drawn time into the
issuing client's FIFO queue, and each client executes its queue
*sequentially* (one in-flight op per client — both what the GM-side
protocol objects require and what makes queueing delay visible).  Per-op
latency is measured from the *scheduled arrival* to completion, so once
the offered rate exceeds the service rate, queue wait dominates and the
tail explodes — the saturation knee.

Closed-loop mode is the fallback for calibration: each client issues its
next op as soon as the previous completes (plus a think time), latency
is pure service time, and the system can never be pushed past
saturation.

Everything is recorded twice: into the ambient :mod:`repro.obs`
registry (histogram ``load.op_latency_ns`` on a wide 1-2-5 ladder,
counters ``load.ops`` / ``load.failures``) and into the returned
:class:`LoadResult` (offered vs achieved rate, p50/p95/p99 via the
histogram's documented upper-bound :meth:`~repro.obs.registry.Histogram.
quantile`, and Jain's fairness index over per-client completions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..errors import Eio, NetworkError, SocketError
from ..sim import Environment, Store
from .arrivals import ArrivalProcess, LoadSpecError
from .mix import OpMix

#: Latency bucket ladder: 1-2-5 steps from 1 us to 50 s.  Wide enough
#: that a saturated open-loop run never overflows (overflow would turn
#: p99 into inf and break the results table).
LATENCY_BOUNDS = tuple(m * 10 ** e for e in range(3, 11) for m in (1, 2, 5))


@dataclass(frozen=True)
class ScheduledOp:
    """One drawn request: when it arrives, who issues it, what it does."""

    index: int
    at_ns: int
    client: int
    op: str
    size: int


class LoadGen:
    """A deterministic (arrivals, mix, seed) -> schedule generator.

    The schedule is a pure function of the constructor arguments: the
    arrival process and the mix each own a string-seeded RNG, so two
    generators never perturb each other no matter how their draws
    interleave, and re-drawing the same generator is byte-identical.
    Requests are dealt round-robin over ``n_clients`` issuing clients.
    """

    def __init__(self, arrivals: ArrivalProcess, mix: OpMix, seed: int,
                 n_ops: int, n_clients: int):
        if n_ops <= 0 or n_clients <= 0:
            raise LoadSpecError(
                f"need n_ops > 0 and n_clients > 0, got {n_ops}/{n_clients}")
        self.arrivals = arrivals
        self.mix = mix
        self.seed = seed
        self.n_ops = n_ops
        self.n_clients = n_clients

    def schedule(self) -> list[ScheduledOp]:
        times = self.arrivals.times(self.n_ops)
        ops = self.mix.sequence(self.seed, self.n_ops)
        return [
            ScheduledOp(index=i, at_ns=t, client=i % self.n_clients,
                        op=c.op, size=c.size)
            for i, (t, c) in enumerate(zip(times, ops))
        ]


@dataclass
class LoadResult:
    """One load run, condensed to the numbers the fleet table carries."""

    workload: str
    mode: str
    n_clients: int
    offered_ops: int
    achieved_ops: int
    failed_ops: int
    elapsed_ns: int
    offered_rate_ops_s: float
    achieved_rate_ops_s: float
    per_client_ops: list = field(default_factory=list)
    fairness: float = 1.0
    mean_ns: float = 0.0
    p50_ns: float = 0.0
    p95_ns: float = 0.0
    p99_ns: float = 0.0

    #: The flat (column, value) view rendered into the results table.
    COLUMNS = ("workload", "mode", "n_clients", "offered_ops",
               "achieved_ops", "failed_ops", "elapsed_ns",
               "offered_rate_ops_s", "achieved_rate_ops_s", "fairness",
               "mean_ns", "p50_ns", "p95_ns", "p99_ns")

    def row(self) -> dict:
        return {c: getattr(self, c) for c in self.COLUMNS}


def jain_fairness(shares) -> float:
    """Jain's index over per-client completions: 1.0 is perfectly fair,
    1/n is one client taking everything.  Empty/all-zero => 1.0."""
    xs = [float(x) for x in shares]
    total_sq = sum(xs) ** 2
    denom = len(xs) * sum(x * x for x in xs)
    return 1.0 if denom == 0 else total_sq / denom


class _Recorder:
    """Shared per-run accounting: obs instruments + result tallies."""

    def __init__(self, workload_name: str, n_clients: int):
        #: This run's latencies, for the result quantiles; the installed
        #: registry (if any) aggregates them across runs too.
        self.hist = obs.Histogram("load.op_latency_ns", LATENCY_BOUNDS)
        self.obs_hist = obs.histogram("load.op_latency_ns",
                                      buckets=LATENCY_BOUNDS,
                                      workload=workload_name)
        self.per_client = [0] * n_clients
        self.failed = 0
        self.total_latency = 0
        self.last_completion_ns = 0
        self.workload_name = workload_name

    def done(self, client: int, op: str, latency_ns: int, now: int) -> None:
        self.hist.observe(latency_ns)
        self.obs_hist.observe(latency_ns)
        if obs.metrics_enabled():
            obs.counter("load.ops", workload=self.workload_name,
                        op=op, client=client).inc()
        self.per_client[client] += 1
        self.total_latency += latency_ns
        self.last_completion_ns = max(self.last_completion_ns, now)

    def fail(self, client: int, op: str) -> None:
        if obs.metrics_enabled():
            obs.counter("load.failures", workload=self.workload_name,
                        op=op, client=client).inc()
        self.failed += 1


#: Op failures the driver absorbs (counted, run continues): give-ups
#: from retry budgets and fault-plan-induced network errors.
_OP_ERRORS = (Eio, NetworkError, SocketError)


def _dispatch(env: Environment, sched, queues):
    """Open-loop release: each request enters its client's queue at its
    drawn absolute time, whatever the clients are doing."""
    for item in sched:
        dt = item.at_ns - env.now
        if dt > 0:
            yield env.timeout(dt)
        queues[item.client].put(item)


def _open_worker(env, workload, client, queue, n_items, rec: _Recorder):
    for _ in range(n_items):
        item = yield queue.get()
        try:
            yield from workload.op(client, item.op, item.size)
        except _OP_ERRORS:
            rec.fail(client, item.op)
            continue
        rec.done(client, item.op, env.now - item.at_ns, env.now)


def _closed_worker(env, workload, client, items, think_ns, rec: _Recorder):
    for item in items:
        t0 = env.now
        try:
            yield from workload.op(client, item.op, item.size)
        except _OP_ERRORS:
            rec.fail(client, item.op)
        else:
            rec.done(client, item.op, env.now - t0, env.now)
        if think_ns > 0:
            yield env.timeout(think_ns)


def run_load(env: Environment, workload, gen: LoadGen, mode: str = "open",
             think_ns: int = 0) -> LoadResult:
    """Run one generator against one workload on a live Environment.

    ``workload`` is an adapter from :mod:`repro.load.workloads` (already
    set up on ``env``); ``mode`` is ``"open"`` (replay the drawn arrival
    schedule) or ``"closed"`` (each client re-issues on completion with
    ``think_ns`` between ops).
    """
    if mode not in ("open", "closed"):
        raise LoadSpecError(f"mode must be 'open' or 'closed', got {mode!r}")
    sched = gen.schedule()
    rec = _Recorder(workload.name, gen.n_clients)
    t_start = env.now
    if mode == "open":
        queues = [Store(env, f"load.q{c}") for c in range(gen.n_clients)]
        counts = [0] * gen.n_clients
        for item in sched:
            counts[item.client] += 1
        env.process(_dispatch(env, sched, queues), name="load.dispatch")
        workers = [
            env.process(_open_worker(env, workload, c, queues[c],
                                     counts[c], rec),
                        name=f"load.client{c}")
            for c in range(gen.n_clients)
        ]
    else:
        by_client: list[list] = [[] for _ in range(gen.n_clients)]
        for item in sched:
            by_client[item.client].append(item)
        workers = [
            env.process(_closed_worker(env, workload, c, by_client[c],
                                       think_ns, rec),
                        name=f"load.client{c}")
            for c in range(gen.n_clients)
        ]
    env.run(until=env.all_of(workers))

    achieved = sum(rec.per_client)
    elapsed = max(1, (rec.last_completion_ns or env.now) - t_start)
    q = rec.hist.quantile

    def _q(p: float) -> float:
        v = q(p)
        return 0.0 if v is None else float(v)

    return LoadResult(
        workload=workload.name,
        mode=mode,
        n_clients=gen.n_clients,
        offered_ops=gen.n_ops,
        achieved_ops=achieved,
        failed_ops=rec.failed,
        elapsed_ns=elapsed,
        offered_rate_ops_s=float(gen.arrivals.rate_ops_per_s),
        achieved_rate_ops_s=achieved * 1e9 / elapsed,
        per_client_ops=list(rec.per_client),
        fairness=jain_fairness(rec.per_client),
        mean_ns=(rec.total_latency / achieved) if achieved else 0.0,
        p50_ns=_q(0.50),
        p95_ns=_q(0.95),
        p99_ns=_q(0.99),
    )
