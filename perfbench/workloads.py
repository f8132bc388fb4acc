"""The benchmark's workloads: inputs from the seed, set-up, timed run and
correctness check.

Both workloads run the exact-mode Jet engine (``repro.core`` with the
IMDG, fed by ``repro.nexmark``). Every timed run is checked against
DuckDB; a run that raises or disagrees counts as failed and stays in
the statistics.
"""
import gc
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import duckdb

from repro.core.engine import JetEngine, SimConfig
from repro.nexmark import generator as gen
from repro.nexmark import queries_jet as qj
from repro.nexmark.queries_batch import q5_sql, q8_sql

import calibrate
from tracer import TASKLET_KINDS, WINDOW_KINDS, Tracer, instrument, kind_of


@dataclass(frozen=True)
class EngineSpec:
    """One exact-engine job: NEXMark input shape, query and cluster."""

    query: str  # "q5" | "q8"
    rate: int
    duration_s: float
    n_nodes: int
    size_ms: int
    slide_ms: int = 0
    guarantee: str = "none"
    snapshot_ms: float | None = None
    crash: bool = False
    threads: int = 2
    n_keys: int = 300
    #: generator out-of-orderness and the pipeline's matching lag; the
    #: seeded arrival jitter makes the latency samples depend on the seed
    ooo_ms: int = 10


WORKLOADS = {
    "q5_fine_slide": EngineSpec(
        "q5", rate=4_000, duration_s=0.3, n_nodes=2, size_ms=1_000, slide_ms=10
    ),
    "q8_xo_crash": EngineSpec(
        "q8", rate=16_000, duration_s=4.0, n_nodes=3, size_ms=100,
        guarantee="exactly-once", snapshot_ms=100, crash=True,
    ),
}

PER_LAYER_UNITS = {
    "generator.generate_s": "s",
    "queries_jet.adapt_s": "s",
    "pipeline.compile_s": "s",
    "engine.build_s": "s",
    "engine.run_s": "s",
    "engine.loop_self_s": "s",
    "engine.sim_ms": "ms",
    "engine.slices": "count",
    "engine.idle_slice_frac": "fraction",
    **{
        f"tasklet.{k}.{m}": u
        for k in TASKLET_KINDS
        for m, u in [("calls", "count"), ("self_s", "s"),
                     ("progress_frac", "fraction"), ("items", "count")]
    },
    **{
        f"processors.{k}.{m}": u
        for k in WINDOW_KINDS
        for m, u in [("on_watermark_s", "s"), ("on_watermark_calls", "count")]
    },
    "queues.local.offer_rejected": "count",
    "queues.local.high_water": "count",
    "queues.net.offer_rejected": "count",
    "queues.net.sent": "count",
    "imdg.put_calls": "count",
    "imdg.put_s": "s",
    "imdg.maps_end": "count",
    "imdg.entries_end": "count",
    "imdg.rebalance_s": "s",
    "engine.recovery_s": "s",
    "engine.snapshot_cb_s": "s",
    "engine.snapshots_completed": "count",
    "sink.commit_calls": "count",
    "sink.commit_s": "s",
    "sink.rows": "count",
    "oracle.check_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.tasklet_frac": "fraction",
}

#: latency is the simulated §7.1 trigger clock; rates and set-up times
#: are scaled to nominal machine speed (``calibrate.py``)
END_TO_END_UNITS = {
    "events_per_s": "ev/s",
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Iteration:
    """One timed run: its timings, latency samples and check outcome."""

    traced: bool
    ok: bool = False
    detail: str = ""
    #: wall seconds
    setup_s: float = 0.0
    run_s: float = 0.0
    n_events: int = 0
    #: machine speed around the iteration (``calibrate.speed``)
    speed: float = 1.0
    latencies: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    #: output rows, latency samples and counts; equal for equal seeds
    fingerprint: tuple | None = None

    @property
    def wall_events_per_s(self) -> float:
        return self.n_events / self.run_s


@dataclass
class Outcome:
    """Everything a run of one workload produced."""

    iterations: list[Iteration]
    peak_rss_mb: float
    #: latency samples the end-to-end percentiles are taken from
    latencies: list = field(default_factory=list)
    tracer: Tracer | None = None

    @property
    def timed(self) -> list[Iteration]:
        """Untraced iterations that completed their timed run."""
        return [it for it in self.iterations if not it.traced and it.run_s]

    def events_per_s(self, traced: bool = False) -> float:
        """Input events per second at nominal machine speed: the mean
        wall rate of the untraced (or traced) iterations over their
        speed factor."""
        its = [it for it in self.iterations if it.traced == traced and it.run_s]
        return (statistics.fmean(it.wall_events_per_s for it in its)
                / calibrate.factor(it.speed for it in its))

    @property
    def setup_s(self) -> float:
        """Median set-up wall time of the completed iterations, times
        their speed factor."""
        done = [it for it in self.iterations if it.run_s]
        return (statistics.median(it.setup_s for it in done)
                * calibrate.factor(it.speed for it in done))

    @property
    def attempted(self) -> int:
        return len(self.iterations)

    @property
    def failed(self) -> int:
        return sum(not it.ok for it in self.iterations)


def _duck(sql: str, **tables) -> Counter:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        return Counter(tuple(r) for r in con.execute(sql).fetchall())
    finally:
        con.close()


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _engine_job(spec: EngineSpec, seed: int, tr: Tracer):
    """Generate, adapt, compile and build. Returns the engine, its
    input, the crash schedule and the DuckDB query with its tables."""
    with tr.span("generator.generate"):
        data = gen.generate(
            rate=spec.rate, duration_s=spec.duration_s, n_keys=spec.n_keys,
            seed=seed, ooo_max_delay_ms=spec.ooo_ms,
        )
    with tr.span("queries_jet.adapt"):
        if spec.query == "q5":
            sources = {"bids": qj.bid_events(data)}
        else:
            sources = {"persons": qj.person_events(data), "auctions": qj.auction_events(data)}
    with tr.span("pipeline.compile"):
        if spec.query == "q5":
            pipeline = qj.q5_pipeline(
                size_ms=spec.size_ms, slide_ms=spec.slide_ms, ooo_lag_ms=spec.ooo_ms
            )
        else:
            pipeline = qj.q8_pipeline(size_ms=spec.size_ms, ooo_lag_ms=spec.ooo_ms)
        dag = pipeline.compile()
    with tr.span("engine.build"):
        eng = JetEngine(
            dag, sources, n_nodes=spec.n_nodes,
            cfg=SimConfig(
                threads_per_node=spec.threads,
                guarantee=spec.guarantee,
                snapshot_interval_ms=spec.snapshot_ms,
            ),
        )
    fail_at = None
    if spec.crash:
        rng = random.Random(seed)
        crash_ms = spec.duration_s * 1000 * rng.uniform(0.35, 0.65)
        fail_at = [(crash_ms, rng.randrange(spec.n_nodes))]
    if spec.query == "q5":
        oracle = (q5_sql(size_ms=spec.size_ms, slide_ms=spec.slide_ms),
                  {"bids": data.bids}, ("window_start", "auction", "n_bids"))
    else:
        oracle = (q8_sql(size_ms=spec.size_ms),
                  {"persons": data.persons, "auctions": data.auctions},
                  ("id", "name", "window_start"))
    return eng, sources, fail_at, oracle


def _engine_layers(tr: Tracer, eng: JetEngine) -> dict:
    s = tr.summary()

    def get(name, key="total_s"):
        return s.get(name, {}).get(key, 0.0)

    run_s = get("engine.run")
    out = {
        "generator.generate_s": get("generator.generate"),
        "queries_jet.adapt_s": get("queries_jet.adapt"),
        "pipeline.compile_s": get("pipeline.compile"),
        "engine.build_s": get("engine.build"),
        "engine.run_s": run_s,
        "engine.loop_self_s": get("engine.run", "self_s") + get("worker.run_slice", "self_s"),
        "engine.sim_ms": eng.now - eng.t0,
        "engine.slices": tr.counters["engine.slices"],
        "engine.idle_slice_frac": (
            tr.counters["engine.idle_slices"] / tr.counters["engine.slices"]
            if tr.counters["engine.slices"] else 0.0
        ),
    }
    items = Counter()
    for t in eng.tasklets.values():
        items[kind_of(t.processor)] += eng.metrics.items[t.name]
    items["source"] = tr.counters["tasklet.source.items"]
    in_tasklets = 0.0
    for k in TASKLET_KINDS:
        calls = get(f"tasklet.{k}", "calls")
        in_tasklets += get(f"tasklet.{k}")
        out[f"tasklet.{k}.calls"] = calls
        out[f"tasklet.{k}.self_s"] = get(f"tasklet.{k}", "self_s")
        out[f"tasklet.{k}.progress_frac"] = (
            tr.counters[f"tasklet.{k}.progress"] / calls if calls else 0.0
        )
        out[f"tasklet.{k}.items"] = items[k]
    for k in WINDOW_KINDS:
        out[f"processors.{k}.on_watermark_s"] = get(f"processors.{k}.on_watermark")
        out[f"processors.{k}.on_watermark_calls"] = get(f"processors.{k}.on_watermark", "calls")
    storage = [n.storage for n in eng.cluster.nodes.values()]
    out.update({
        "queues.local.offer_rejected": tr.counters["queues.local.offer_rejected"],
        "queues.local.high_water": tr.high_water["queues.local"],
        "queues.net.offer_rejected": tr.counters["queues.net.offer_rejected"],
        "queues.net.sent": tr.counters["queues.net.sent"],
        "imdg.put_calls": get("imdg.put", "calls"),
        "imdg.put_s": get("imdg.put"),
        "imdg.maps_end": len({m for st in storage for m in st}),
        "imdg.entries_end": sum(len(f) for st in storage for m in st.values() for f in m.values()),
        "imdg.rebalance_s": get("imdg.rebalance"),
        "engine.recovery_s": get("engine.recovery"),
        "engine.snapshot_cb_s": get("engine.snapshot_cb"),
        "engine.snapshots_completed": eng.metrics.snapshots_completed,
        "sink.commit_calls": get("sink.commit", "calls"),
        "sink.commit_s": get("sink.commit"),
        "sink.rows": len(eng.results()),
        "oracle.check_s": get("oracle.check"),
        "trace.tasklet_frac": in_tasklets / run_s if run_s else 0.0,
    })
    return out


def engine_iteration(spec: EngineSpec, seed: int, tr: Tracer, traced: bool) -> Iteration:
    """Set up, run and check one engine job, recording spans in ``tr``."""
    it = Iteration(traced=traced)
    gc.collect()  # the previous iteration's engine is garbage by now
    before = calibrate.reference_rate()
    t = perf_counter()
    eng, sources, fail_at, (sql, tables, cols) = _engine_job(spec, seed, tr)
    it.setup_s = perf_counter() - t
    it.n_events = sum(len(evs) for evs in sources.values())
    gc.collect()  # leave no earlier iteration's garbage to the timed run
    t = perf_counter()
    metrics = eng.run(fail_at=fail_at)
    it.run_s = perf_counter() - t
    it.speed = calibrate.speed(before, calibrate.reference_rate())
    it.latencies = [lat for _end, lat in metrics.trigger_latencies]
    with tr.span("oracle.check"):
        got = Counter(tuple(r[c] for c in cols) for r in eng.results())
        want = _duck(sql, **tables)
    dups = sum(n - 1 for n in got.values() if n > 1)
    it.ok = got == want and dups == 0
    if not it.ok:
        it.detail = (f"{sum(got.values())} rows vs {sum(want.values())} expected, "
                     f"{len(got - want)} unexpected, {len(want - got)} missing, {dups} duplicates")
    if traced:
        it.layers = _engine_layers(tr, eng)
    it.fingerprint = (
        tuple(it.latencies), tuple(sorted(got.items(), key=repr)),
        metrics.snapshots_completed, tuple(sorted(metrics.items.items())),
    )
    return it


def _time_loop(seconds: float, trace: bool, step):
    """Call ``step(tracer, traced)`` for about ``seconds``: another call
    starts only if, taking as long as the last one, it would end less
    than half a call past the deadline. With tracing, untraced and
    traced calls alternate and each side runs at least once. An
    exception counts as a failed iteration. Returns the iterations and
    the tracer of the last traced one."""
    iterations: list[Iteration] = []
    last_tracer = None
    deadline = perf_counter() + seconds
    i = 0
    while True:
        started = perf_counter()
        traced = trace and i % 2 == 1
        tr = Tracer()
        try:
            if traced:
                with instrument(tr):
                    it = step(tr, True)
                last_tracer = tr
            else:
                it = step(tr, False)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            it = Iteration(traced=traced, detail="raised")
        iterations.append(it)
        i += 1
        now = perf_counter()
        if now + (now - started) / 2 >= deadline and (not trace or i >= 2):
            return iterations, last_tracer


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    spec = WORKLOADS[name]
    iterations, tracer = _time_loop(
        seconds, trace, lambda tr, traced: engine_iteration(spec, seed, tr, traced)
    )
    # same seed, same output: every iteration must repeat the first
    ref = next((it.fingerprint for it in iterations if it.fingerprint is not None), None)
    for it in iterations:
        if it.fingerprint is not None and it.fingerprint != ref:
            it.ok = False
            it.detail = (it.detail + "; " if it.detail else "") + "differs from the first iteration"
    # the samples repeat exactly across iterations; take the first run's
    first = next((it for it in iterations if it.latencies), None)
    return Outcome(
        iterations=iterations,
        peak_rss_mb=_self_rss_mb(),
        latencies=first.latencies if first else [],
        tracer=tracer,
    )

