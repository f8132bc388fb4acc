"""Processing guarantees under random crash schedules (§4.4–§4.6).

Under exactly-once, whatever the crash schedule, a job commits the same
multiset of rows as the same job without fault tolerance
(``guarantee="none"``). Under at-least-once no row is lost: stateless
and idempotent-state queries commit a superset; a counting window may
count a replayed event twice, so each reference window appears with at
least its reference count.
"""
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import JetEngine, SimConfig
from repro.nexmark import generator as gen
from repro.nexmark import queries_jet as qj

#: Stream length (ms) of the generated input; crashes fall inside it.
DURATION_MS = 800


def _job(data, query: str, ooo_ms: int):
    if query == "q1":
        return qj.q1_pipeline(ooo_lag_ms=ooo_ms), {"bids": qj.bid_events(data)}
    if query == "q5":
        return (
            qj.q5_pipeline(size_ms=200, slide_ms=50, ooo_lag_ms=ooo_ms),
            {"bids": qj.bid_events(data)},
        )
    if query == "q8":
        return (
            qj.q8_pipeline(size_ms=100, ooo_lag_ms=ooo_ms),
            {"persons": qj.person_events(data), "auctions": qj.auction_events(data)},
        )
    t0 = int(data.bids["arrival_ms"].min())
    return (
        qj.q13_pipeline(side_size=32, ooo_lag_ms=ooo_ms),
        {"bids": qj.bid_events(data), "side": qj.side_events(32, t0)},
    )


def _run(data, query, ooo_ms, *, n_nodes=2, guarantee="none", snapshot_ms=None, fail_at=None):
    pipeline, sources = _job(data[ooo_ms], query, ooo_ms)
    eng = JetEngine(
        pipeline.compile(),
        sources,
        n_nodes=n_nodes,
        cfg=SimConfig(
            threads_per_node=2, guarantee=guarantee, snapshot_interval_ms=snapshot_ms
        ),
    )
    eng.run(fail_at=fail_at)
    return eng


def _rows(eng) -> Counter:
    return Counter(tuple(sorted(r.items())) for r in eng.results())


@pytest.fixture(scope="module")
def data():
    """Generated input by out-of-orderness (ms)."""
    return {
        ooo_ms: gen.generate(
            rate=1_500, duration_s=DURATION_MS / 1000, n_keys=60, seed=17,
            ooo_max_delay_ms=ooo_ms,
        )
        for ooo_ms in (0, 15)
    }


@pytest.fixture(scope="module")
def reference(data):
    """``reference(query, ooo_ms)``: the rows the job commits without
    fault tolerance."""
    rows: dict[tuple[str, int], Counter] = {}

    def get(query: str, ooo_ms: int) -> Counter:
        if (query, ooo_ms) not in rows:
            rows[query, ooo_ms] = _rows(_run(data, query, ooo_ms))
        return rows[query, ooo_ms]

    return get


@pytest.mark.parametrize("query", ["q1", "q5"])
def test_clean_exactly_once_commits_every_row(data, reference, query):
    # with 100 ms snapshots a snapshot is triggered after some sources
    # finished: the tasklets downstream of them get no barrier, and the
    # rows the other sinks sealed into it commit only if it completes
    eng = _run(data, query, 15, guarantee="exactly-once", snapshot_ms=100)
    assert eng.inflight_sid is None
    assert _rows(eng) == reference(query, 15)


@st.composite
def _schedules(draw):
    """``(n_nodes, [(crash_ms, node_idx), ...])`` with 1–2 crashes."""
    n_nodes = draw(st.integers(2, 3))
    crash = st.tuples(st.floats(0, DURATION_MS), st.integers(0, n_nodes - 1))
    return n_nodes, draw(st.lists(crash, min_size=1, max_size=2))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    query=st.sampled_from(["q1", "q5", "q8", "q13"]),
    ooo_ms=st.sampled_from([0, 15]),
    guarantee=st.sampled_from(["exactly-once", "at-least-once"]),
    snapshot_ms=st.integers(20, 250),
    schedule=_schedules(),
)
# a crash during the hash-join build, and one of the node hosting the
# global top vertex half a slice after a snapshot was triggered
@example(query="q13", ooo_ms=0, guarantee="exactly-once", snapshot_ms=20, schedule=(2, [(0.5, 0)]))
@example(
    query="q5", ooo_ms=15, guarantee="exactly-once", snapshot_ms=100, schedule=(3, [(100.5, 0)])
)
def test_random_crash_schedule_keeps_guarantee(
    data, reference, query, ooo_ms, guarantee, snapshot_ms, schedule
):
    n_nodes, crashes = schedule
    eng = _run(
        data, query, ooo_ms, n_nodes=n_nodes, guarantee=guarantee, snapshot_ms=snapshot_ms,
        fail_at=crashes,
    )
    got, want = _rows(eng), reference(query, ooo_ms)
    if guarantee == "exactly-once":
        assert got == want
    elif query != "q5":
        assert all(got[row] >= n for row, n in want.items())
    else:
        top: dict[int, int] = {}
        for row in got:
            r = dict(row)
            top[r["window_start"]] = max(top.get(r["window_start"], -1), r["n_bids"])
        for row in want:
            r = dict(row)
            assert top.get(r["window_start"], -1) >= r["n_bids"]
