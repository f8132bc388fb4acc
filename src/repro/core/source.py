"""Replayable source tasklets.

A source tasklet (§3.1: sources are local to each node and connect only
to local vertices) emits pre-generated events whose *arrival time* has
been reached by the simulated clock. The paper's latency clock (§7.1)
starts at each event's predetermined occurrence time: any delay in
actually emitting it — backpressure, scheduling, snapshots — is already
latency, which falls out naturally here because a full outbound queue
leaves the offset where it is.

The source is *replayable* (§4.5): its only state is the read offset,
saved into each snapshot; recovery rewinds to the offset recorded in
the last completed snapshot and re-emits.
"""
import math

from .items import WM_MAX, Barrier, EndOfStream, Event, Watermark
from .tasklet import OutboundEdge, OutputBuffer


class SourceTasklet:
    """Emits ``events`` — a list of ``(arrival_ms, ts_ms, payload)``
    sorted by arrival — honouring simulated time and backpressure."""

    def __init__(
        self,
        name: str,
        events: list[tuple[int, int, object]],
        outputs: list[OutboundEdge],
        *,
        ooo_lag_ms: int = 0,
        batch: int = 256,
        cost_per_item_ms: float = 0.0002,
        run_overhead_ms: float = 0.001,
        on_snapshot=None,
    ):
        self.name = name
        self.events = events
        assert len(outputs) == 1, "a source feeds exactly one edge"
        self.outputs = outputs
        self.ooo_lag_ms = ooo_lag_ms
        self.batch = batch
        self.cost_per_item_ms = cost_per_item_ms
        self.run_overhead_ms = run_overhead_ms
        self.on_snapshot = on_snapshot
        self.offset = 0
        self.done = False
        self.last_wm = -1
        self.pending_snapshot_sid: int | None = None
        self._finishing = False
        self._ctl = OutputBuffer(outputs[0])

    def save_inst(self):
        return self.offset

    def restore_inst(self, state) -> None:
        self.offset = int(state or 0)
        self.done = False
        self._finishing = False
        self.last_wm = -1

    def _next_wake(self) -> float:
        """Earliest simulated time at which a run can change any state:
        the next event's arrival, or −∞ while a control item or snapshot
        is pending or the stream is exhausted."""
        if (
            self.pending_snapshot_sid is not None
            or len(self._ctl)
            or self.offset >= len(self.events)
        ):
            return -math.inf
        return self.events[self.offset][0]

    def run(self, now_ms: float) -> tuple[bool, float]:
        """One cooperative step: barrier first, then a batch of events,
        then a watermark update; finally EOS once drained."""
        if self.done:
            return False, 0.0
        if now_ms < self._next_wake():  # provably idle: same result as a full run
            return False, self.run_overhead_ms / 4
        if not self._ctl.flush(now_ms):
            return False, 0.0
        progress = False
        if self.pending_snapshot_sid is not None:
            sid = self.pending_snapshot_sid
            self.pending_snapshot_sid = None
            if self.on_snapshot is not None:
                self.on_snapshot(sid, self)
            self._ctl.push_control(Barrier(sid))
            progress = True
            if not self._ctl.flush(now_ms):
                # barrier must reach the queues before any post-offset
                # event; retry next run, emitting nothing now
                return True, self.run_overhead_ms
        emitted = 0
        max_arrival = -1
        while self.offset < len(self.events) and emitted < self.batch:
            arrival, ts, payload = self.events[self.offset]
            if arrival > now_ms:
                break
            ev = Event(payload, ts)
            if not self.outputs[0].offer_event(ev, now_ms):
                break  # backpressure: retry same offset next run
            self.offset += 1
            emitted += 1
            max_arrival = arrival
        if emitted:
            progress = True
            wm = max_arrival - self.ooo_lag_ms
            if wm > self.last_wm:
                self.last_wm = wm
                self._ctl.push_control(Watermark(wm))
        if self.offset >= len(self.events) and not self._finishing:
            self._finishing = True
            self._ctl.push_control(Watermark(WM_MAX))
            self._ctl.push_control(EndOfStream())
            progress = True
        if self._ctl.flush(now_ms) and self._finishing:
            self.done = True
        cost = self.run_overhead_ms + emitted * self.cost_per_item_ms
        return progress, cost if progress else self.run_overhead_ms / 4
