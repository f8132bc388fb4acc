"""Tasklets: cooperative computational units wrapping processors.

A tasklet (§3.2) owns a processor's inbox/outbox and its inbound and
outbound channels. Each call to :meth:`Tasklet.run` performs a short
bounded amount of work — drain a batch from the inbound queues, invoke
the processor, route the outbox — and returns control to the worker
loop, reporting the simulated cost of the work it did. Blocking is
structurally impossible: a full outbound queue makes the tasklet *back
off* (return without progress) rather than wait.

Control items are handled here, uniformly for every processor:

* watermarks are coalesced (per-channel max, vertex-level min, §2.2);
* checkpoint barriers are aligned across input channels — blocking
  aligned channels under exactly-once, pass-through collection under
  at-least-once (§4.4);
* end-of-stream completes the processor and propagates.

A run that has nothing to do is nearly free (§3.2). After each full run
the tasklet records a *wake* time: the earliest simulated time at which
another run could change anything, taken from its outbox and the
inbound channels a run would poll. Producers lower it when they offer
(see :mod:`repro.core.queues`). A run before the wake time skips the
channel scan and returns exactly what an idle full run returns, with
the same effect on state (the round-robin input cursor advances), so
simulated time, latencies and results are those of the full run.

Output ordering is strictly FIFO: data events and control items share
one ordered buffer, so a barrier can never overtake the pre-barrier
events it must follow (the correctness heart of aligned snapshots),
even when a full downstream queue forces partial flushes.
"""
import math
from collections import deque

from .items import WM_MAX, Barrier, EndOfStream, Event, Watermark
from .processors import Processor
from .queues import NetworkChannel


class InboundChannel:
    """Consumer-side view of one inbound queue (local or network).

    ``ordinal`` is the *logical* input index of the edge this queue
    belongs to — a vertex with parallelism P upstream has P channels
    sharing one ordinal.
    """

    def __init__(self, queue, *, ordinal: int = 0):
        self.queue = queue
        self.ordinal = ordinal
        self.wm = -1  # highest watermark seen on this channel
        self.done = False
        self.barrier_seen: int | None = None  # sid awaiting alignment

    def poll(self, now_ms: float):
        if isinstance(self.queue, NetworkChannel):
            self.queue.maybe_ack(now_ms)
            return self.queue.poll(now_ms)
        return self.queue.poll()


class OutboundEdge:
    """Producer-side view of one outbound edge: N consumer queues plus a
    routing function ``route(payload) -> queue index`` (None = round
    robin). Control items go to every queue."""

    def __init__(self, queues: list, route=None, name: str = ""):
        self.queues = queues
        self.route = route
        self.name = name
        self._rr = 0

    def _offer(self, idx: int, item, now_ms: float) -> bool:
        q = self.queues[idx]
        return q.offer(item, now_ms) if isinstance(q, NetworkChannel) else q.offer(item)

    def offer_event(self, ev: Event, now_ms: float) -> bool:
        if self.route is None:
            idx = self._rr % len(self.queues)
        else:
            idx = self.route(ev.payload)
        ok = self._offer(idx, ev, now_ms)
        if ok and self.route is None:
            self._rr += 1
        return ok


class OutputBuffer:
    """Strictly ordered outbox shared by data and control items.

    Entries are ``("ev", Event)`` or ``("ctl", item, remaining_targets)``
    where remaining targets is the set of queue indices a broadcast has
    not reached yet. :meth:`flush` delivers in order and stops at the
    first entry it cannot fully deliver.
    """

    def __init__(self, edge: OutboundEdge | None):
        self.edge = edge
        self._buf: deque = deque()

    def push_event(self, ev: Event) -> None:
        if self.edge is not None:
            self._buf.append(("ev", ev))

    def push_events(self, evs) -> None:
        for ev in evs:
            self.push_event(ev)

    def push_control(self, item) -> None:
        if self.edge is not None:
            self._buf.append(("ctl", item, set(range(len(self.edge.queues)))))

    def flush(self, now_ms: float) -> bool:
        while self._buf:
            entry = self._buf[0]
            if entry[0] == "ev":
                if not self.edge.offer_event(entry[1], now_ms):
                    return False
                self._buf.popleft()
            else:
                _, item, targets = entry
                still = {
                    qi for qi in targets if not self.edge._offer(qi, item, now_ms)
                }
                if still:
                    self._buf[0] = ("ctl", item, still)
                    return False
                self._buf.popleft()
        return True

    def __len__(self) -> int:
        return len(self._buf)


class Tasklet:
    """One processor instance scheduled cooperatively on a worker thread."""

    def __init__(
        self,
        name: str,
        processor: Processor,
        inputs: list[InboundChannel],
        outputs: list[OutboundEdge],
        *,
        exactly_once: bool = True,
        inbox_limit: int = 256,
        cost_per_item_ms: float = 0.0005,
        run_overhead_ms: float = 0.001,
        on_snapshot=None,
        on_done=None,
        metrics=None,
    ):
        self.name = name
        self.processor = processor
        self.inputs = inputs
        # At most one outbound edge per vertex: our DAGs are join trees
        # (multiple inputs, single output), which keeps offer-retry exact.
        assert len(outputs) <= 1, "vertices have at most one outbound edge"
        self.out = OutputBuffer(outputs[0] if outputs else None)
        self.exactly_once = exactly_once
        self.inbox_limit = inbox_limit
        self.cost_per_item_ms = cost_per_item_ms
        self.run_overhead_ms = run_overhead_ms
        self.on_snapshot = on_snapshot  # fn(sid, tasklet) -> None
        self.on_done = on_done  # fn(tasklet) -> None, once, on completion
        self.metrics = metrics
        self.done = False
        self.wm = -1
        self._rr_input = 0
        self._finishing = False
        self._wake = -math.inf  # before this simulated time a run is idle
        for c in inputs:
            c.queue.consumer = self

    def _maybe_advance_wm(self) -> None:
        live = [c for c in self.inputs if not c.done]
        new_wm = min((c.wm for c in live), default=WM_MAX) if live else WM_MAX
        if new_wm > self.wm:
            self.wm = new_wm
            self.out.push_events(self.processor.on_watermark(self.wm))
            self.out.push_control(Watermark(self.wm))

    def _barrier_ready(self) -> int | None:
        sids = {c.barrier_seen for c in self.inputs if not c.done}
        if sids and None not in sids and len(sids) == 1:
            return next(iter(sids))
        return None

    def _wanted(self) -> int | None:
        """The processor's priority ordinal while one of its channels is open."""
        want = self.processor.wanted_ordinal()
        if want is not None and any(c.ordinal == want and not c.done for c in self.inputs):
            return want
        return None

    def _next_wake(self) -> float:
        """Earliest simulated time at which a run can change any state.

        A run changes state only by flushing its outbox or by polling
        the channels it drains: open, not blocked by barrier alignment
        and, during a priority drain, of the wanted ordinal. Control
        transitions follow only from what those polls return.
        """
        if len(self.out):
            return -math.inf
        want = self._wanted()
        wake = math.inf
        for c in self.inputs:
            if c.done or (c.barrier_seen is not None and self.exactly_once):
                continue
            if want is not None and c.ordinal != want:
                continue
            wake = min(wake, c.queue.next_change_ms())
        return wake

    def _take_snapshot(self, sid: int) -> None:
        if self.on_snapshot is not None:
            self.on_snapshot(sid, self)
        for c in self.inputs:
            c.barrier_seen = None
        self.out.push_control(Barrier(sid))

    # -- main step ------------------------------------------------------

    def run(self, now_ms: float) -> tuple[bool, float]:
        """One cooperative execution step.

        Returns ``(made_progress, simulated_cost_ms)``. The tasklet
        voluntarily bounds its work to ``inbox_limit`` items so a step
        stays well under the ~1 ms quantum of §3.2.
        """
        if self.done:
            return False, 0.0
        if now_ms < self._wake:  # provably idle: same result as a full run
            self._rr_input += 1
            return False, self.run_overhead_ms / 4
        self.processor.now_ms = now_ms  # simulated clock for trigger stamps
        progress = False
        # 1. drain any backed-up output first; no new input while blocked
        if not self.out.flush(now_ms):
            return False, self.run_overhead_ms / 4

        # 2. drain inputs into the inbox
        inbox: list[tuple[int, Event]] = []
        want = self._wanted()
        n_in = len(self.inputs)
        order = [(self._rr_input + i) % n_in for i in range(n_in)]
        if want is not None:
            order = [ci for ci in order if self.inputs[ci].ordinal == want]
        self._rr_input += 1
        for ci in order:
            ch = self.inputs[ci]
            if ch.done:
                continue
            if ch.barrier_seen is not None and self.exactly_once:
                continue  # aligned channel is blocked until all arrive
            while len(inbox) < self.inbox_limit:
                item = ch.poll(now_ms)
                if item is None:
                    break
                if isinstance(item, Event):
                    inbox.append((ch.ordinal, item))
                elif isinstance(item, Watermark):
                    ch.wm = max(ch.wm, item.value)
                    break  # handle wm at a batch boundary
                elif isinstance(item, Barrier):
                    ch.barrier_seen = item.snapshot_id
                    break
                elif isinstance(item, EndOfStream):
                    ch.done = True
                    if all(c.done for c in self.inputs if c.ordinal == ch.ordinal):
                        self.processor.on_input_done(ch.ordinal)
                    break

        # 3. process data
        if inbox:
            progress = True
            for ordinal, ev in inbox:
                self.out.push_events(self.processor.process(ev, ordinal))

        # 4. control transitions
        before_wm = self.wm
        self._maybe_advance_wm()
        sid = self._barrier_ready()
        if sid is not None:
            self._take_snapshot(sid)
            progress = True
        if not self._finishing and all(c.done for c in self.inputs) and self.inputs:
            self.out.push_events(self.processor.complete())
            self.out.push_control(EndOfStream())
            self._finishing = True
            progress = True
        if self.wm > before_wm:
            progress = True

        flushed = self.out.flush(now_ms)
        if self._finishing and flushed:
            self.done = True
            if self.on_done is not None:
                self.on_done(self)
        self._wake = self._next_wake()
        cost = self.run_overhead_ms + len(inbox) * self.cost_per_item_ms
        if self.metrics is not None and inbox:
            self.metrics.add_items(self.name, len(inbox))
        return progress or not flushed, cost if (progress or inbox) else self.run_overhead_ms / 4
