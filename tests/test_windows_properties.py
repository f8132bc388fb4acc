"""Property-based tests: the two-stage windowing pipeline equals a
brute-force sliding-window count on arbitrary inputs (hypothesis)."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.items import WM_MAX, Event
from repro.core.processors import PaneAccumulator, WindowCombiner, WindowTop

TS_MAX = 1_499
EVENTS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, TS_MAX)),  # (key, ts)
    min_size=0,
    max_size=60,
)
# includes fine slides where one window spans 20 and 100 panes
GEOM = st.sampled_from([(40, 10), (40, 20), (20, 20), (60, 10), (200, 10), (1000, 10)])


def brute_force(events, size, slide):
    """Reference: per (window, key) counts over epoch-aligned windows."""
    out = {}
    for key, ts in events:
        last = (ts // slide) * slide
        s = last
        while s > ts - size:
            if s >= 0 or True:  # windows may start negative
                out[(s, key)] = out.get((s, key), 0) + 1
            s -= slide
    return out


def run_two_stage(events, size, slide, *, n_partials=1, wm_steps=None):
    """Drive stage1 instances -> one combiner; return emitted counts."""
    accs = [PaneAccumulator(lambda p: p["k"], slide) for _ in range(n_partials)]
    comb = WindowCombiner(size, slide)
    for i, (key, ts) in enumerate(events):
        accs[i % n_partials].process(Event({"k": key}, ts), 0)
    results = {}
    for wm in (wm_steps or []) + [WM_MAX]:
        for acc in accs:
            for ev in acc.on_watermark(wm):
                comb.process(ev, 0)
        for ev in comb.on_watermark(wm):
            r = ev.payload
            key = (r.window_start, r.key)
            assert key not in results, "window result emitted twice"
            results[key] = r.value
    return results


@settings(max_examples=40, deadline=None)
@given(EVENTS, GEOM)
def test_two_stage_equals_brute_force(events, geom):
    size, slide = geom
    assert run_two_stage(events, size, slide) == brute_force(events, size, slide)


@settings(max_examples=25, deadline=None)
@given(EVENTS, GEOM, st.integers(2, 4))
def test_partials_merge_equals_single_instance(events, geom, n_partials):
    size, slide = geom
    assert run_two_stage(events, size, slide, n_partials=n_partials) == brute_force(
        events, size, slide
    )


@settings(max_examples=25, deadline=None)
@given(EVENTS, GEOM)
def test_incremental_watermarks_equal_one_shot(events, geom):
    size, slide = geom
    steps = list(range(0, TS_MAX + 1_100, 70))
    assert run_two_stage(events, size, slide, wm_steps=steps) == brute_force(
        events, size, slide
    )


@settings(max_examples=25, deadline=None)
@given(EVENTS, GEOM, st.integers(0, TS_MAX + 100), st.lists(st.booleans(), min_size=5, max_size=5))
def test_merged_snapshot_restore_emits_each_window_once(events, geom, wm_snap, route):
    """Two accumulators and two keyed combiners run to ``wm_snap``, are
    snapshotted, their entries merged as on recovery, and restored into
    one fresh instance each, which finish the stream."""
    size, slide = geom
    before = [(k, ts) for k, ts in events if ts < wm_snap]
    after = [(k, ts) for k, ts in events if ts >= wm_snap]
    accs = [PaneAccumulator(lambda p: p["k"], slide) for _ in range(2)]
    combs = [WindowCombiner(size, slide) for _ in range(2)]
    results = {}

    def collect(out):
        for ev in out:
            r = ev.payload
            assert (r.window_start, r.key) not in results, "window result emitted twice"
            results[(r.window_start, r.key)] = r.value

    for i, (key, ts) in enumerate(before):
        accs[i % 2].process(Event({"k": key}, ts), 0)
    for acc in accs:
        for ev in acc.on_watermark(wm_snap):
            combs[route[ev.payload.key]].process(ev, 0)
    for comb in combs:
        collect(comb.on_watermark(wm_snap))

    def restore(cls, procs, fresh):
        merged = {}
        for proc in procs:
            for k, v in proc.save_keyed().items():
                merged[k] = cls.merge(merged[k], v) if k in merged else v
        fresh.restore_keyed(merged)
        fresh.restore_inst(procs[0].save_inst())
        return fresh

    assert combs[0].save_inst() == combs[1].save_inst()
    acc = restore(PaneAccumulator, accs, PaneAccumulator(lambda p: p["k"], slide))
    comb = restore(WindowCombiner, combs, WindowCombiner(size, slide))
    for key, ts in after:
        acc.process(Event({"k": key}, ts), 0)
    for ev in acc.on_watermark(WM_MAX):
        comb.process(ev, 0)
    collect(comb.on_watermark(WM_MAX))
    assert results == brute_force(events, size, slide)


@settings(max_examples=25, deadline=None)
@given(EVENTS)
def test_window_top_equals_brute_force_max(events):
    size, slide = 40, 20
    counts = brute_force(events, size, slide)
    comb_out = run_two_stage(events, size, slide)
    top = WindowTop(size)
    from repro.core.processors import WindowResult

    for (ws, key), v in comb_out.items():
        top.process(Event(WindowResult(ws, ws + size, key, v, 0.0), ws + size - 1), 0)
    got = {}
    for ev in top.on_watermark(WM_MAX):
        got.setdefault(ev.payload["window_start"], set()).add(
            (ev.payload["auction"], ev.payload["n_bids"])
        )
    for ws in {w for (w, _k) in counts}:
        per_key = {k: v for (w, k), v in counts.items() if w == ws}
        best = max(per_key.values())
        want = {(k, best) for k, v in per_key.items() if v == best}
        assert got[ws] == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 100), max_size=50), st.integers(1, 8))
def test_spsc_queue_preserves_order_and_capacity(items, cap):
    from repro.core.queues import SPSCQueue

    q = SPSCQueue(cap)
    accepted = [x for x in items if q.offer(x)]
    assert len(accepted) == min(len(items), cap)
    assert [q.poll() for _ in range(len(accepted))] == accepted
    assert q.poll() is None
