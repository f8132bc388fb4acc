"""In-memory span tracer and the class-level wrappers that feed it.

Spans are ``(name, start, end, parent)`` records kept in parallel lists
and written out once, at the end of a run. A span's self time is its
duration minus the durations of its direct children.

:func:`instrument` wraps public methods of the engine, IMDG and sink
classes for the duration of a ``with`` block. Wrapping happens at class
level because ``JetEngine.fail_node`` rebuilds every tasklet and worker:
per-instance wrappers would be lost at the first recovery. Nothing in
the program itself is changed; every original is restored on exit.
"""
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from repro.core import engine as core_engine
from repro.core import processors as P
from repro.core.queues import NetworkChannel, SPSCQueue
from repro.core.source import SourceTasklet
from repro.core.tasklet import Tasklet
from repro.imdg.cluster import Cluster
from repro.imdg.imap import IMap

#: processor class -> tasklet kind used in metric names
KIND_OF = {
    P.PaneAccumulator: "pane_accumulate",
    P.WindowCombiner: "combine",
    P.WindowTop: "top",
    P.TumblingJoin: "join",
    P.HashJoin: "join",
    P.SinkProcessor: "sink",
    P.FusedProcessor: "fused",
}
TASKLET_KINDS = ("source", "pane_accumulate", "combine", "top", "join", "sink")
WINDOW_KINDS = ("pane_accumulate", "combine", "top", "join")


def kind_of(processor) -> str:
    return KIND_OF.get(type(processor), "other")


class Tracer:
    """Spans plus named counters and high-water marks."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: Counter = Counter()
        self.high_water: dict[str, int] = defaultdict(int)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = [-1]
        return st

    def begin(self, name: str) -> int:
        st = self._stack()
        i = len(self.names)
        self.names.append(name)
        self.parents.append(st[-1])
        self.ends.append(0.0)
        st.append(i)
        self.starts.append(perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.end(i)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(
            e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name
        )

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            d = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = self.ends[i] - self.starts[i]
            d["calls"] += 1
            d["total_s"] += dur
            d["self_s"] += dur - child[i]
        return out

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as f:
            f.write("id\tname\tstart_s\tend_s\tparent\n")
            for i, (n, s, e, p) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                f.write(f"{i}\t{n}\t{s:.9f}\t{e:.9f}\t{p}\n")


def _spanned(tr: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        i = tr.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.end(i)

    return wrapper


def _patches(tr: Tracer) -> list[tuple[type, str, object]]:
    """``(class, attribute, replacement)`` for every wrapped method."""
    orig = {
        (cls, attr): cls.__dict__[attr]
        for cls, attr in [
            (core_engine.Worker, "run_slice"),
            (Tasklet, "run"),
            (SourceTasklet, "run"),
            (SPSCQueue, "offer"),
            (NetworkChannel, "offer"),
            (core_engine.JetEngine, "_mk_snapshot_cb"),
            (core_engine.JetEngine, "_mk_source_snapshot_cb"),
        ]
    }
    state = {"progressed": False}

    def run_slice(self, now_ms):
        state["progressed"] = False
        i = tr.begin("worker.run_slice")
        try:
            return orig[(core_engine.Worker, "run_slice")](self, now_ms)
        finally:
            tr.end(i)
            tr.counters["engine.slices"] += 1
            if not state["progressed"]:
                tr.counters["engine.idle_slices"] += 1

    names: dict[type, str] = {}

    def tasklet_run(self, now_ms):
        cls = type(self.processor)
        name = names.get(cls)
        if name is None:
            name = names[cls] = f"tasklet.{kind_of(self.processor)}"
        i = tr.begin(name)
        try:
            progress, cost = orig[(Tasklet, "run")](self, now_ms)
        finally:
            tr.end(i)
        if progress:
            state["progressed"] = True
            tr.counters[name + ".progress"] += 1
        return progress, cost

    def source_run(self, now_ms):
        before = self.offset
        i = tr.begin("tasklet.source")
        try:
            progress, cost = orig[(SourceTasklet, "run")](self, now_ms)
        finally:
            tr.end(i)
        tr.counters["tasklet.source.items"] += self.offset - before
        if progress:
            state["progressed"] = True
            tr.counters["tasklet.source.progress"] += 1
        return progress, cost

    def local_offer(self, item):
        ok = orig[(SPSCQueue, "offer")](self, item)
        if ok:
            n = len(self)
            if n > tr.high_water["queues.local"]:
                tr.high_water["queues.local"] = n
        else:
            tr.counters["queues.local.offer_rejected"] += 1
        return ok

    def net_offer(self, item, now_ms):
        ok = orig[(NetworkChannel, "offer")](self, item, now_ms)
        tr.counters["queues.net.sent" if ok else "queues.net.offer_rejected"] += 1
        return ok

    def mk_cb(key):
        def factory(self, vname, k):
            return _spanned(tr, "engine.snapshot_cb", orig[key](self, vname, k))

        return factory

    patches = [
        (core_engine.Worker, "run_slice", run_slice),
        (Tasklet, "run", tasklet_run),
        (SourceTasklet, "run", source_run),
        (SPSCQueue, "offer", local_offer),
        (NetworkChannel, "offer", net_offer),
        (core_engine.JetEngine, "_mk_snapshot_cb",
         mk_cb((core_engine.JetEngine, "_mk_snapshot_cb"))),
        (core_engine.JetEngine, "_mk_source_snapshot_cb",
         mk_cb((core_engine.JetEngine, "_mk_source_snapshot_cb"))),
    ]
    for cls, kind in [
        (P.PaneAccumulator, "pane_accumulate"),
        (P.WindowCombiner, "combine"),
        (P.WindowTop, "top"),
        (P.TumblingJoin, "join"),
    ]:
        patches.append(
            (cls, "on_watermark",
             _spanned(tr, f"processors.{kind}.on_watermark", cls.__dict__["on_watermark"]))
        )
    for cls, attr, name in [
        (core_engine.JetEngine, "run", "engine.run"),
        (core_engine.JetEngine, "fail_node", "engine.recovery"),
        (IMap, "put", "imdg.put"),
        (Cluster, "fail_node", "imdg.rebalance"),
        (Cluster, "add_node", "imdg.rebalance"),
        (P.ExternalStore, "commit", "sink.commit"),
    ]:
        patches.append((cls, attr, _spanned(tr, name, cls.__dict__[attr])))
    return patches


@contextmanager
def instrument(tr: Tracer):
    """Wrap the traced methods for the duration of the block."""
    patches = _patches(tr)
    saved = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in patches]
    try:
        for cls, attr, fn in patches:
            setattr(cls, attr, fn)
        yield tr
    finally:
        for cls, attr, fn in saved:
            setattr(cls, attr, fn)
