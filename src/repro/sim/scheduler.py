"""Discrete-event scheduler.

The workload experiments (T1, T2, T6) simulate a *team* of designers
working concurrently: each designer is a sequence of timed steps (start
a DOP, run a tool for two hours, check in, negotiate, ...).  The
scheduler interleaves those step streams in global timestamp order, so
concurrency effects (lock conflicts, pre-release visibility, crash
windows) play out deterministically.

Events are callbacks ordered by ``(time, priority, seq)``; ties resolve
by insertion order, which keeps runs reproducible.

Internals (the PR 7 raw-speed rebuild — order semantics unchanged):

* the priority queue holds plain tuples ``(time, priority, seq,
  event)``, so every heap comparison is C-speed and never reaches the
  event object (``seq`` is unique);
* :class:`_ScheduledEvent` is a ``__slots__`` class allocated from a
  **slab**: events scheduled through the :meth:`defer` fast path are
  recycled into a freelist after they execute, so a long simulation
  stops allocating per event at all.  Events returned by :meth:`at` /
  :meth:`after` are *pinned* (the caller holds the handle for
  :meth:`cancel`) and are never recycled;
* far-future events live in a :class:`~repro.sim.wheel.
  HierarchicalTimerWheel` instead of the heap — O(1) insert, O(1)
  lazy cancel, one bookkeeping entry per time *bucket*.  The wheel
  drains into the heap strictly before any entry it could precede is
  popped, so dispatch order is byte-identical to the heap-only
  configuration (``wheel=False``), which the sharded and parallel
  kernels use.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.sim.clock import SimClock
from repro.sim.wheel import NO_EVENTS, HierarchicalTimerWheel

#: events at least this many time units ahead are filed in the wheel;
#: nearer ones go straight to the heap (they would drain immediately)
WHEEL_NEAR_SPAN = 1.0

class _ScheduledEvent:
    """One pending callback (a slab-recyclable ``__slots__`` record)."""

    __slots__ = ("time", "priority", "seq", "action", "label",
                 "cancelled", "done", "pinned")

    def __init__(self, time: float, priority: int, seq: int,
                 action: Callable[[], Any], label: str = "",
                 pinned: bool = True) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False
        #: True once the event left the queue (executed or discarded) —
        #: guards the live counter against cancels of finished events
        self.done = False
        #: True when a caller holds this handle (``at``/``after``
        #: return values) — pinned events are never slab-recycled
        self.pinned = pinned

    def __lt__(self, other: "_ScheduledEvent") -> bool:
        return (self.time, self.priority, self.seq) \
            < (other.time, other.priority, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"_ScheduledEvent(t={self.time}, prio={self.priority}, "
                f"seq={self.seq}, label={self.label!r})")


class EventScheduler:
    """Priority-queue discrete-event loop driving a :class:`SimClock`."""

    def __init__(self, clock: SimClock | None = None,
                 wheel: bool = True,
                 wheel_tick: float | None = None) -> None:
        self.clock = clock or SimClock()
        #: near heap of ``(time, priority, seq, event)`` tuples
        self._queue: list[tuple] = []
        #: the **dispatch run**: a descending-sorted list of entries
        #: adopted from a drained wheel bucket — its tail is the global
        #: minimum of the run, so bulk dispatch pops it O(1) instead of
        #: paying a heap sift per event.  Entries in the run and the
        #: heap may interleave in time; every pop compares the two
        #: heads and takes the smaller, which preserves the exact
        #: ``(time, priority, seq)`` order
        self._run: list[tuple] = []
        #: far-future bucket store (None = heap-only configuration)
        self._wheel: HierarchicalTimerWheel | None = \
            HierarchicalTimerWheel(tick=wheel_tick) \
            if wheel and wheel_tick is not None \
            else (HierarchicalTimerWheel() if wheel else None)
        #: slab freelist of executed, unpinned events
        self._slab: list[_ScheduledEvent] = []
        #: True when :meth:`_file` is not overridden — :meth:`defer`
        #: then routes inline instead of paying the method call
        self._inline_file = type(self)._file is EventScheduler._file
        self._seq = 0
        self._executed = 0
        #: cancelled entries still sitting in a queue somewhere — when
        #: zero, wheel drains may skip their cancellation filter pass
        self._stale = 0
        #: queued events that are neither cancelled nor done — kept
        #: incrementally so :attr:`pending` is O(1), not an O(n) scan
        self._live = 0

    # -- scheduling ---------------------------------------------------------

    def _file(self, time: float, priority: int,
              event: _ScheduledEvent) -> None:
        """Route one event to the heap or the wheel."""
        entry = (time, priority, event.seq, event)
        wheel = self._wheel
        now = self.clock._now
        if wheel is not None and time - now >= WHEEL_NEAR_SPAN:
            wheel.insert(entry, now)
        else:
            heappush(self._queue, entry)
        self._live += 1

    def at(self, time: float, action: Callable[[], Any],
           label: str = "", priority: int = 0) -> _ScheduledEvent:
        """Schedule *action* at absolute simulated *time*."""
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule at {time} before now={self.clock.now}")
        self._seq += 1
        event = _ScheduledEvent(time, priority, self._seq, action, label)
        self._file(time, priority, event)
        return event

    def after(self, delay: float, action: Callable[[], Any],
              label: str = "", priority: int = 0) -> _ScheduledEvent:
        """Schedule *action* *delay* time units from now."""
        return self.at(self.clock.now + delay, action, label, priority)

    def defer(self, delay: float, action: Callable[[], Any],
              label: str = "", priority: int = 0) -> None:
        """Fire-and-forget :meth:`after`: no handle, slab-recycled.

        The hot-path form used by the network transport, timers and
        the concurrent drivers — same ordering semantics as
        :meth:`after`, but the event record is drawn from (and, after
        execution, returned to) the slab freelist, so steady-state
        scheduling allocates nothing.  The caller gives up the handle:
        a deferred event cannot be cancelled.
        """
        if delay < 0.0:
            delay = 0.0
        now = self.clock._now
        time = now + delay
        seq = self._seq + 1
        self._seq = seq
        slab = self._slab
        if slab:
            event = slab.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.action = action
            event.label = label
            event.cancelled = False
            event.done = False
        else:
            event = _ScheduledEvent(time, priority, seq, action,
                                    label, pinned=False)
        if self._inline_file:
            wheel = self._wheel
            if wheel is not None and time - now >= WHEEL_NEAR_SPAN:
                wheel.insert((time, priority, seq, event), now)
            else:
                heappush(self._queue, (time, priority, seq, event))
            self._live += 1
        else:
            self._file(time, priority, event)

    def cancel(self, event: _ScheduledEvent) -> None:
        """Cancel a pending event (lazy removal).

        Idempotent, and a no-op for events that already ran: only the
        first cancel of a still-queued event decrements the live
        counter.  Works for heap and wheel residents alike — a
        cancelled wheel entry is simply discarded when its bucket
        drains, without ever touching the heap.
        """
        if event.cancelled or event.done:
            return
        event.cancelled = True
        self._live -= 1
        self._stale += 1

    # -- execution ----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._live

    @property
    def executed(self) -> int:
        """Number of events executed so far."""
        return self._executed

    def _next_time(self) -> float:
        """Time of the earliest pending event (``inf`` when none).

        Skips cancelled heads (run and heap alike) and settles the
        wheel far enough to answer exactly — the peek primitive of
        ``run(until=...)`` and :meth:`step`.
        """
        queue = self._queue
        run = self._run
        wheel = self._wheel
        slab = self._slab
        while True:
            if run:
                tail = run[-1]
                event = tail[3]
                if event.cancelled:
                    run.pop()
                    event.done = True
                    self._stale -= 1
                    if not event.pinned:
                        event.action = None
                        slab.append(event)
                    continue
                head = queue[0] if queue and queue[0] < tail else tail
            elif queue:
                head = queue[0]
            else:
                head = None
            if wheel is not None:
                bound = wheel.next_bound
                if head is None:
                    if bound == NO_EVENTS:
                        return NO_EVENTS
                    wheel.drain_due(bound, queue, run, self._stale == 0)
                    continue
                if bound <= head[0]:
                    wheel.drain_due(head[0], queue, run,
                                    self._stale == 0)
                    continue
            elif head is None:
                return NO_EVENTS
            event = head[3]
            if event.cancelled:  # a cancelled heap head won the race
                heappop(queue)
                event.done = True
                self._stale -= 1
                if not event.pinned:
                    event.action = None
                    slab.append(event)
                continue
            return head[0]

    def _pop_head(self) -> _ScheduledEvent:
        """Pop the earliest live entry (callers peeked via
        :meth:`_next_time` first, so both heads are live)."""
        run = self._run
        queue = self._queue
        if run and not (queue and queue[0] < run[-1]):
            event = run.pop()[3]
        else:
            event = heappop(queue)[3]
        event.done = True
        self._live -= 1
        return event

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        if self._next_time() == NO_EVENTS:
            return False
        event = self._pop_head()
        self.clock.advance_to(event.time)
        self._executed += 1
        self._execute(event)
        self._recycle(event)
        return True

    def _recycle(self, event: _ScheduledEvent) -> None:
        if not event.pinned:
            event.action = None  # drop the closure; the record lives on
            self._slab.append(event)

    def _execute(self, event: _ScheduledEvent) -> None:
        """Run one due event (subclasses hook in tracing here)."""
        event.action()

    def run(self, until: float | None = None,
            max_events: int | None = None) -> int:
        """Run events until exhaustion, *until* time, or *max_events*.

        Returns the number of events executed by this call.  The clock
        only advances to *until* when every event at or before it was
        dispatched — an exit via *max_events* leaves the clock at the
        last executed event, never past undispatched ones.
        """
        ran = 0
        queue = self._queue
        run = self._run
        wheel = self._wheel
        slab = self._slab
        clock = self.clock
        execute = self._execute
        # when no subclass hooks into dispatch, skip the indirection
        # and call the event's action straight from the loop
        direct = getattr(execute, "__func__", None) \
            is EventScheduler._execute
        # the wheel cannot interrupt a batch when every insert made
        # *during* it lands in a bucket past the run's upper bound —
        # true whenever the near span covers two level-0 ticks
        batch_ok = direct and (
            wheel is None or wheel.tick * 2.0 <= WHEEL_NEAR_SPAN)
        drained = False
        while True:
            # -- batch fast path: an adopted dispatch run with nothing
            # in the near heap is popped in a tight loop — no source
            # selection, no wheel probe, no counter updates per event.
            # It bails (to the careful loop below) the moment an action
            # schedules a near event or a cancellable handle surfaces.
            if batch_ok and run and not queue \
                    and (wheel is None or wheel.next_bound > run[0][0]) \
                    and (until is None or run[0][0] <= until) \
                    and (max_events is None
                         or max_events - ran >= len(run)):
                size = len(run)
                slab_append = slab.append
                while run:
                    if queue:
                        break
                    entry = run[-1]
                    event = entry[3]
                    if event.pinned:
                        break
                    run.pop()
                    clock._now = entry[0]
                    event.action()
                    event.action = None
                    slab_append(event)
                did = size - len(run)
                ran += did
                self._live -= did
                if not run:
                    continue  # drained: settle the wheel / exit above
            src_run = False
            if run:
                tail = run[-1]
                if queue and queue[0] < tail:
                    head = queue[0]
                else:
                    head = tail
                    src_run = True
            elif queue:
                head = queue[0]
            else:
                head = None
            if wheel is not None:
                bound = wheel.next_bound
                if head is None:
                    if bound == NO_EVENTS:
                        drained = True
                        break
                    wheel.drain_due(bound, queue, run, self._stale == 0)
                    continue
                if bound <= head[0]:
                    wheel.drain_due(head[0], queue, run,
                                    self._stale == 0)
                    continue
            elif head is None:
                drained = True
                break
            event = head[3]
            if event.cancelled:
                if src_run:
                    run.pop()
                else:
                    heappop(queue)
                event.done = True
                self._stale -= 1
                if not event.pinned:
                    event.action = None
                    slab.append(event)
                continue
            time = head[0]
            if until is not None and time > until:
                drained = True
                break
            if max_events is not None and ran >= max_events:
                break
            if src_run:
                run.pop()
            else:
                heappop(queue)
            event.done = True
            self._live -= 1
            if time > clock._now:
                clock._now = time
            ran += 1
            if direct:
                event.action()
            else:
                execute(event)
            if not event.pinned:
                event.action = None
                slab.append(event)
        self._executed += ran
        if until is not None and drained:
            clock.advance_to(until)
        return ran
