"""The unified discrete-event kernel.

Every layer of the reproduction — the workload simulator, the network
transport, the design managers and the failure injector — schedules
against one :class:`Kernel`: a :class:`~repro.sim.scheduler.EventScheduler`
extended with the execution services the concurrent system needs:

* **quiescence detection** — :meth:`run_until_quiescent` drains the
  event queue to a fixed point (bounded by an event budget), which is
  the natural termination condition of a concurrent DA run: no DM has
  a step pending, no message is in flight, no failure is armed;
* **deadlines** — :meth:`run_until` advances exactly to a simulated
  instant, leaving later events pending (mid-flight inspection);
* **failure injection** — :meth:`crash_at` arms a node crash (and its
  restart) at arbitrary simulated instants, the kernel-native form of
  the :class:`~repro.sim.injector.FailureInjector`;
* **a deterministic event trace** — every executed event is recorded
  as ``(time, priority, seq, label)`` in :attr:`event_log`, so two
  identically seeded runs can be compared event by event (and the full
  stream can be persisted/replayed through :mod:`repro.sim.trace`).
  The ``(time, priority, seq)`` tie-breaking of the underlying
  scheduler makes the trace — and therefore the whole simulation —
  reproducible.

The :attr:`running` flag is True only while the kernel is executing
events; components use it to decide between queued asynchronous
delivery (inside a run) and synchronous handoff (outside).
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heapify, heappush
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.sim.clock import SimClock
from repro.sim.injector import InjectionLogEntry
from repro.sim.scheduler import EventScheduler, _ScheduledEvent
from repro.util.errors import KernelError

if TYPE_CHECKING:  # avoid the sim <-> net package-init cycle
    from repro.net.network import Network


class KernelSnapshot:
    """Frozen pending-event state of a kernel — the rollback checkpoint.

    Captures everything :meth:`Kernel.restore` needs to rewind a kernel
    to the capture instant: the clock, the sequence counter, the
    executed-event count, the live queue contents, and the lengths of
    the append-only logs (which restore truncates back).  Event
    *actions* are kept by reference: a restore re-files the same
    callables, so the snapshot is only valid within the process that
    took it — exactly the shape the parallel worker protocol needs.
    """

    __slots__ = ("now", "seq", "executed", "log_len", "injection_len",
                 "entries", "current_shard", "messages")

    def __init__(self, now: float, seq: int, executed: int,
                 log_len: int, injection_len: int, entries: tuple,
                 current_shard: int = 0,
                 messages: tuple[int, int] = (0, 0)) -> None:
        self.now = now
        self.seq = seq
        self.executed = executed
        self.log_len = log_len
        self.injection_len = injection_len
        #: live events as ``(shard, time, priority, seq, action,
        #: label, pinned)`` — shard is 0 on single-stream kernels
        self.entries = entries
        self.current_shard = current_shard
        self.messages = messages


class Timer:
    """A re-armable deadline on a kernel — the TTL-lease primitive.

    Wraps the schedule-and-check pattern renewable timeouts need: at
    most **one** kernel event is pending per timer, no matter how
    often the deadline moves.  :meth:`arm` sets (or extends) the
    deadline; the pending event notices a moved deadline when it fires
    and re-schedules itself instead of acting, so a renewal costs no
    extra event; :meth:`cancel` turns the pending event into a no-op.
    The *action* runs exactly when the deadline is reached un-moved —
    deterministic under the ``(time, priority, seq)`` ordering like
    every other event.
    """

    def __init__(self, kernel: "Kernel", action: Callable[[], None],
                 label: str = "timer") -> None:
        self.kernel = kernel
        self.action = action
        self.label = label
        #: current deadline (None = cancelled/idle)
        self.deadline: float | None = None
        self._armed = False
        #: generation counter: cancel() bumps it so a pending event of
        #: an older generation is fully inert — re-arming after a
        #: cancel schedules fresh even at an *earlier* deadline than
        #: the stale event's
        self._epoch = 0

    def arm(self, at: float) -> None:
        """Set the deadline to *at* (extending any earlier one)."""
        if self.deadline is None or at > self.deadline:
            self.deadline = at
        self._schedule()

    def cancel(self) -> None:
        """Drop the deadline; a pending event becomes a no-op."""
        self.deadline = None
        self._epoch += 1
        self._armed = False

    def _schedule(self) -> None:
        if self._armed or self.deadline is None:
            return
        self._armed = True
        epoch = self._epoch
        delay = max(self.deadline - self.kernel.clock.now, 0.0)
        # fire-and-forget: the epoch stamp is the cancellation token,
        # so the timer never needs the event handle — slab fast path
        self.kernel.defer(delay, lambda: self._fire(epoch),
                          label=self.label)

    def _fire(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # cancelled generation: a fresh arm owns the timer
        self._armed = False
        if self.deadline is None:
            return  # cancelled while pending
        if self.deadline > self.kernel.clock.now + 1e-12:
            self._schedule()  # deadline moved (renewal): check later
            return
        self.deadline = None
        self.action()


class Kernel(EventScheduler):
    """The single execution kernel shared by all layers of one world."""

    def __init__(self, clock: SimClock | None = None,
                 trace_events: bool = True,
                 wheel: bool = True,
                 wheel_tick: float | None = None) -> None:
        super().__init__(clock, wheel=wheel, wheel_tick=wheel_tick)
        #: True while the kernel is inside :meth:`step` / ``run``
        self.running = False
        self.trace_events = trace_events  # property: binds dispatch
        #: executed events as ``(time, priority, seq, label)`` — the
        #: determinism guard and the record/replay stream
        self.event_log: list[tuple[float, int, int, str]] = []
        #: enacted crash/restart events (kernel-native failure log)
        self.injections: list[InjectionLogEntry] = []

    # -- execution ----------------------------------------------------------

    @property
    def trace_events(self) -> bool:
        """True while dispatch records into :attr:`event_log`."""
        return self._trace_events

    @trace_events.setter
    def trace_events(self, value: bool) -> None:
        self._trace_events = bool(value)
        if value:
            # traced dispatch: the class-level :meth:`_execute`
            self.__dict__.pop("_execute", None)
        else:
            # untraced: shadow dispatch with the base pass-through —
            # the scheduler hot loop recognises it and calls the
            # event's action without any per-event indirection
            self._execute = EventScheduler._execute.__get__(self)

    def step(self) -> bool:
        """Run the next event with the :attr:`running` flag set."""
        was_running = self.running
        self.running = True
        try:
            return super().step()
        finally:
            self.running = was_running

    def run(self, until: float | None = None,
            max_events: int | None = None) -> int:
        """Run with the :attr:`running` flag set for the whole batch."""
        was_running = self.running
        self.running = True
        try:
            return super().run(until, max_events)
        finally:
            self.running = was_running

    def _execute(self, event: _ScheduledEvent) -> None:
        if self.trace_events:
            self.event_log.append((event.time, event.priority,
                                   event.seq, event.label))
        event.action()

    def run_until_quiescent(self, max_events: int = 1_000_000,
                            deadline: float | None = None) -> int:
        """Run until no event is pending (or *deadline* is reached).

        Quiescence is the fixed point of a concurrent run: every DM
        chain has ended, every queued message was delivered, every
        armed failure fired.  Raises :class:`KernelError` when the
        event budget is exhausted first — the guard against a
        non-terminating event cascade.  Returns the number of events
        executed by this call.
        """
        ran = self.run(until=deadline, max_events=max_events)
        if ran >= max_events and self.pending:
            raise KernelError(
                f"no quiescence after {max_events} events "
                f"({self.pending} still pending at t={self.clock.now})")
        return ran

    def run_until(self, deadline: float) -> int:
        """Run exactly to *deadline*, leaving later events pending."""
        return self.run(until=deadline)

    @property
    def quiescent(self) -> bool:
        """True when no (uncancelled) event is pending."""
        return self.pending == 0

    # -- checkpoint / rollback ---------------------------------------------

    def _snapshot_entries(self) -> tuple:
        entries = []
        for source in (self._queue, self._run):
            for entry in source:
                event = entry[3]
                if event.cancelled:
                    continue
                entries.append((0, event.time, event.priority,
                                event.seq, event.action, event.label,
                                event.pinned))
        return tuple(entries)

    def snapshot(self) -> KernelSnapshot:
        """Checkpoint the kernel for a later :meth:`restore`.

        Only wheel-less kernels can be checkpointed (the parallel
        worker engines and :class:`~repro.sim.shard.ShardedKernel` are
        both built ``wheel=False``); a kernel holding far-future wheel
        entries raises :class:`KernelError` rather than silently
        dropping them.  Handles returned by :meth:`at`/:meth:`after`
        before the snapshot become stale after a restore — the restored
        queue holds fresh event records (necessary because the slab
        recycles executed records in place).
        """
        if self._wheel is not None and self._wheel.count:
            raise KernelError(
                "snapshot requires a wheel-less kernel (far-future "
                f"wheel entries pending: {self._wheel.count})")
        return KernelSnapshot(
            now=self.clock._now, seq=self._seq, executed=self._executed,
            log_len=len(self.event_log),
            injection_len=len(self.injections),
            entries=self._snapshot_entries())

    def _restore_entries(self, entries: tuple) -> None:
        self._queue = [
            (time, priority, seq,
             _ScheduledEvent(time, priority, seq, action, label,
                             pinned=pinned))
            for __, time, priority, seq, action, label, pinned
            in entries]
        heapify(self._queue)
        self._run = []

    def restore(self, snap: KernelSnapshot) -> None:
        """Rewind the kernel to the state captured by *snap*.

        Pending events are rebuilt from the snapshot (events scheduled
        after the capture vanish; events that executed since are
        re-queued), the clock moves back to the capture instant, and
        :attr:`event_log` / :attr:`injections` are truncated to their
        captured lengths — the rollback half of the speculative
        parallel protocol in :mod:`repro.sim.parallel`.
        """
        self._restore_entries(snap.entries)
        self._stale = 0
        self._live = len(snap.entries)
        self._seq = snap.seq
        self._executed = snap.executed
        del self.event_log[snap.log_len:]
        del self.injections[snap.injection_len:]
        self.clock._now = snap.now

    def inject(self, time: float, priority: int, seq: int,
               action: Callable[[], Any], label: str = "",
               shard: int = 0) -> None:
        """File an event with an **explicit** pre-assigned ``seq``.

        The parallel runners use this to replay program events whose
        global sequence numbers were fixed at build time, so the merged
        ``(time, priority, seq, label)`` stream is independent of which
        process executed what.  The kernel's own counter is bumped past
        *seq* so subsequently scheduled events stay unique.  Unlike
        :meth:`at`, injection accepts events at (or before) the current
        instant — replayed cross-process deliveries may be filed while
        the local clock sits past them, which is exactly the straggler
        case the rollback protocol detects and repairs.
        """
        event = _ScheduledEvent(time, priority, seq, action, label,
                                pinned=False)
        heappush(self._queue, (time, priority, seq, event))
        self._live += 1
        if seq > self._seq:
            self._seq = seq

    # -- sharding (the base kernel is one shard) ----------------------------

    def shard_of(self, node_id: str) -> int:
        """Shard owning *node_id* — always 0 on the base kernel."""
        return 0

    def assign_shard(self, node_id: str, shard: int) -> None:
        """Pin *node_id* to a shard (no-op on the base kernel)."""

    @contextmanager
    def filing_on(self, shard: int) -> Iterator[None]:
        """Scope in which newly scheduled events file on *shard*.

        A no-op on the base kernel (everything is shard 0);
        :class:`~repro.sim.shard.ShardedKernel` overrides it so owners
        of shard-affine events (lease-expiry buckets, crash injections)
        can route them to the owning node's stream without going
        through a delivery-shaped :meth:`defer_to`.
        """
        yield

    def defer_to(self, shard: int, delay: float,
                 action: Callable[[], Any], label: str = "",
                 priority: int = 0) -> None:
        """Shard-routed :meth:`defer` — plain defer on the base kernel.

        :class:`~repro.sim.shard.ShardedKernel` overrides this to file
        the event on *shard*'s stream; callers (the network transport)
        can therefore route cross-shard sends without caring which
        kernel flavour is underneath.
        """
        self.defer(delay, action, label, priority)

    # -- failure injection --------------------------------------------------

    def crash_at(self, network: "Network", node_id: str, at: float,
                 restart_after: float | None = 1.0,
                 on_restart: Callable[[str], None] | None = None,
                 restart_action: Callable[[], Any] | None = None) -> None:
        """Arm a crash of *node_id* at simulated instant *at*.

        When *restart_after* is not None the node restarts that many
        time units later (running its recovery hooks); *restart_action*
        replaces the plain ``network.restart_node`` when a caller owns
        a richer recovery chain (e.g. the system-level workstation
        recovery), and *on_restart* is invoked afterwards with the
        node id.  Crash/restart events carry priority -1 so they beat
        same-instant work events — a crash "in the middle of" a step
        interrupts the step.
        """

        def crash() -> None:
            network.crash_node(node_id)
            self.injections.append(InjectionLogEntry(
                self.clock.now, "crash", node_id))

        def restart() -> None:
            if restart_action is not None:
                restart_action()
            else:
                network.restart_node(node_id)
            self.injections.append(InjectionLogEntry(
                self.clock.now, "restart", node_id))
            if on_restart is not None:
                on_restart(node_id)

        # crash/restart events belong to the crashed node: on a sharded
        # kernel they file on its stream (merge order is unaffected —
        # the global (time, priority, seq) ordering is stream-agnostic)
        with self.filing_on(self.shard_of(node_id)):
            self.at(at, crash, label=f"crash:{node_id}", priority=-1)
            if restart_after is not None:
                self.at(at + restart_after, restart,
                        label=f"restart:{node_id}", priority=-1)

    # -- trace --------------------------------------------------------------

    def trace_signature(self) -> tuple[int, float, tuple[str, ...]]:
        """Compact fingerprint of the run: (#events, final time, labels).

        Two identically seeded runs of the same scenario must produce
        identical signatures — the determinism contract of the
        ``(time, priority, seq)`` tie-breaking.
        """
        return (len(self.event_log), self.clock.now,
                tuple(label for *_, label in self.event_log))
