"""The tasklet readiness gate (§3.2: an idle tasklet call is nearly free).

A tasklet run before its wake time returns without polling its inbound
channels. That is only allowed because such a run provably changes
nothing, so every observable of a job must be identical with the gate
shut: trigger and event latencies, item counts, snapshots, recoveries,
results and the final simulated clock.
"""
import math

import pytest

from repro.core.engine import JetEngine, SimConfig
from repro.core.gc_model import G1_TUNED, STW_BASELINE
from repro.core.items import Event
from repro.core.processors import Processor
from repro.core.queues import ACK_GUARD_MS, NetworkChannel, SPSCQueue
from repro.core.source import SourceTasklet
from repro.core.tasklet import InboundChannel, Tasklet
from repro.nexmark import generator as gen
from repro.nexmark import queries_jet as qj

GUARANTEES = ["none", "at-least-once", "exactly-once"]
GCS = [None, G1_TUNED, STW_BASELINE]


@pytest.fixture(scope="module")
def data():
    return gen.generate(rate=1_500, duration_s=0.6, n_keys=100, seed=7)


def _job(query: str, data):
    t0 = int(data.bids["arrival_ms"].min())
    if query == "q1":
        return qj.q1_pipeline(), {"bids": qj.bid_events(data)}, 2
    if query == "q5":
        return qj.q5_pipeline(size_ms=200, slide_ms=10), {"bids": qj.bid_events(data)}, 2
    if query == "q8":
        return (
            qj.q8_pipeline(size_ms=100),
            {"persons": qj.person_events(data), "auctions": qj.auction_events(data)},
            3,
        )
    # hash join: the build side is drained first (``wanted_ordinal``)
    return (
        qj.q13_pipeline(side_size=32),
        {"bids": qj.bid_events(data), "side": qj.side_events(32, t0)},
        2,
    )


def _grid():
    """Every query under every guarantee and GC profile, with and without
    a crash."""
    for query in ["q1", "q5", "q8", "q13"]:
        for guarantee in GUARANTEES:
            for gc in GCS:
                for crash in (False, True):
                    yield query, guarantee, gc, crash


def _fingerprint(data, query, guarantee, gc, crash):
    pipeline, sources, n_nodes = _job(query, data)
    eng = JetEngine(
        pipeline.compile(),
        sources,
        n_nodes=n_nodes,
        cfg=SimConfig(
            threads_per_node=2,
            guarantee=guarantee,
            snapshot_interval_ms=None if guarantee == "none" else 100,
            gc=gc,
            seed=2,  # GC pauses on every node within the stream
        ),
    )
    m = eng.run(fail_at=[(320, 1)] if crash else None)
    return (
        m.trigger_latencies,
        m.event_latencies,
        dict(m.items),
        m.snapshots_completed,
        m.recoveries,
        sorted(map(repr, eng.results())),
        eng.now,
    )


def _run_grid(data) -> dict:
    return {cfg: _fingerprint(data, *cfg) for cfg in _grid()}


def test_gate_matches_full_runs(data, monkeypatch):
    gated = _run_grid(data)
    monkeypatch.setattr(Tasklet, "_next_wake", lambda self: -math.inf)
    monkeypatch.setattr(SourceTasklet, "_next_wake", lambda self: -math.inf)
    full = _run_grid(data)
    for cfg, fp in gated.items():
        assert fp == full[cfg], cfg
    # the grid exercises what it claims: each GC profile moves some
    # latencies, every crash recovers, every guarantee but none snapshots
    for gc in GCS[1:]:
        assert any(
            fp[:2] != gated[(q, g, None, c)][:2]
            for (q, g, gc_, c), fp in gated.items()
            if gc_ is gc
        ), gc.name
    for (q, g, gc, crash), fp in gated.items():
        assert fp[4] == int(crash)
        assert (fp[3] > 0) == (g != "none")


class _Collect(Processor):
    def __init__(self):
        self.seen = []

    def process(self, ev, ordinal):
        self.seen.append(ev.payload)
        return []


def test_offer_reopens_an_idle_tasklet():
    local, net = SPSCQueue(8), NetworkChannel(latency_ms=2.0, ack_interval_ms=100.0)
    proc = _Collect()
    t = Tasklet("t", proc, [InboundChannel(local), InboundChannel(net)], [])
    assert t.run(0.0)[0] is False
    assert t._wake == 100.0 - ACK_GUARD_MS  # next credit ack of the network channel
    assert t.run(50.0) == (False, t.run_overhead_ms / 4)
    net.offer(Event("n", 0), now_ms=60.0)
    assert t._wake == 62.0  # delivery time of the new item
    assert t.run(61.0)[0] is False and proc.seen == []
    assert t.run(62.0)[0] is True and proc.seen == ["n"]
    local.offer(Event("l", 0))
    assert t._wake == -math.inf
    assert t.run(62.5)[0] is True and proc.seen == ["n", "l"]


def _credit_flow():
    """A producer offering every slice into a two-credit channel whose
    consumer re-grants credits every 10 ms."""
    ch = NetworkChannel(latency_ms=0.5, ack_interval_ms=10.0, initial_credits=2)
    t = Tasklet("t", _Collect(), [InboundChannel(ch)], [])
    sent = []
    for i in range(100):
        now = i * 0.5
        if ch.offer(Event(i, 0), now):
            sent.append(now)
        t.run(now)
    return sent, ch.credits, t._rr_input


def test_gated_consumer_still_grants_credits(monkeypatch):
    # an idle consumer must still wake for its ack deadline: credits are
    # only re-granted when the consumer polls
    gated = _credit_flow()
    assert len(gated[0]) > 2
    monkeypatch.setattr(Tasklet, "_next_wake", lambda self: -math.inf)
    assert gated == _credit_flow()
