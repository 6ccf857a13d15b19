"""Sharded deterministic event loop.

The CONCORD world is naturally partitioned: each workstation's event
stream (tool steps, buffer traffic, lease renewals) is independent of
every other workstation's except where a message crosses the LAN to
the server or a peer.  :class:`ShardedKernel` exploits that shape —
every node is pinned to a **shard**, each shard keeps its own event
stream, and the kernel dispatches by a **lowest-timestamp merge**
across the shard heads:

* events scheduled while a shard's event is executing stay on that
  shard (a workstation's local cascade never leaves its stream);
* a cross-shard send (the network boundary) files the delivery on the
  *destination* node's shard through :meth:`defer_to` and is counted
  in :attr:`cross_shard_messages` — the merge-queue traffic a real
  multi-process deployment would pay serialisation for;
* the merge barrier pops the globally smallest ``(time, priority,
  seq)`` head among all shard streams.  The ``seq`` counter is
  **global**, so the merged order is *identical* to the single-heap
  order — seeded traces are byte-identical for any shard count, which
  is the determinism contract the perf suite's guard asserts.

This class is the **in-process reference**: ``shards=N`` executes the
N streams sequentially under the merge barrier, which makes it the
determinism baseline every parallel run is diffed against.  The real
multi-process deployment lives in :mod:`repro.sim.parallel` — spawn
workers per shard, conservative lookahead windows, speculation with
checkpoint rollback — and its merged trace must be byte-identical to
this kernel's :attr:`event_log` at the same seed.  Supporting hooks
here: :meth:`inject` files events with pre-assigned global sequence
numbers (so replayed streams merge identically), :meth:`filing_on`
scopes shard-affine scheduling (lease buckets, crash injections), and
:attr:`shard_log` records the owning shard of every traced event (the
ownership map replicated scenario workers filter by).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator
from zlib import crc32

from contextlib import contextmanager

from repro.sim.clock import SimClock
from repro.sim.kernel import Kernel, KernelSnapshot
from repro.sim.scheduler import NO_EVENTS, _ScheduledEvent


class ShardedKernel(Kernel):
    """A :class:`Kernel` that runs N per-node event streams under a
    deterministic lowest-timestamp merge barrier."""

    def __init__(self, clock: SimClock | None = None, shards: int = 2,
                 trace_events: bool = True) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        # per-stream heaps replace both the near heap and the wheel;
        # the base self._queue stays empty (stream heaps are scanned
        # directly by the merge loop)
        super().__init__(clock, trace_events=trace_events, wheel=False)
        self.shards = shards
        #: per-shard heap of ``(time, priority, seq, event)`` tuples
        self._streams: list[list[tuple]] = [[] for _ in range(shards)]
        #: explicit node -> shard pins (crc32 placement otherwise)
        self._node_shard: dict[str, int] = {}
        #: shard whose event is currently executing — newly scheduled
        #: events inherit it, keeping local cascades shard-local
        self._current_shard = 0
        #: deliveries that crossed a shard boundary (merge-queue traffic)
        self.cross_shard_messages = 0
        #: events filed without crossing (shard-local traffic)
        self.local_messages = 0
        #: when set to a list, traced dispatch appends the executing
        #: shard per event — parallel to :attr:`event_log`, giving the
        #: ownership map replicated workers filter their slice by
        self.shard_log: list[int] | None = None

    # -- placement ----------------------------------------------------------

    def shard_of(self, node_id: str) -> int:
        """Shard owning *node_id* (stable crc32 placement by default)."""
        shard = self._node_shard.get(node_id)
        if shard is None:
            shard = crc32(node_id.encode()) % self.shards
            self._node_shard[node_id] = shard
        return shard

    def assign_shard(self, node_id: str, shard: int) -> None:
        """Pin *node_id* to *shard* (overrides crc32 placement)."""
        if not 0 <= shard < self.shards:
            raise ValueError(
                f"shard {shard} out of range for {self.shards} shards")
        self._node_shard[node_id] = shard

    # -- scheduling ---------------------------------------------------------

    def _file(self, time: float, priority: int,
              event: _ScheduledEvent) -> None:
        """File on the current shard's stream (no wheel per stream —
        the merge scan already touches only stream heads)."""
        heappush(self._streams[self._current_shard],
                 (time, priority, event.seq, event))
        self._live += 1

    def defer_to(self, shard: int, delay: float,
                 action: Callable[[], Any], label: str = "",
                 priority: int = 0) -> None:
        """File a deferred event on *shard*'s stream.

        The network transport routes every delivery through here with
        the *destination* node's shard; a delivery landing on a foreign
        stream is merge-queue traffic.
        """
        origin = self._current_shard
        if shard != origin:
            self.cross_shard_messages += 1
        else:
            self.local_messages += 1
        self._current_shard = shard
        try:
            self.defer(delay, action, label, priority)
        finally:
            self._current_shard = origin

    @contextmanager
    def filing_on(self, shard: int) -> Iterator[None]:
        """Scope in which newly scheduled events file on *shard*.

        Unlike :meth:`defer_to` this is not a delivery: nothing is
        counted as merge-queue traffic.  It is the placement hook for
        shard-affine events scheduled from neutral context — lease
        expiry buckets route to the lease owner's shard, crash/restart
        injections to the crashed node's shard.
        """
        origin = self._current_shard
        self._current_shard = shard
        try:
            yield
        finally:
            self._current_shard = origin

    def inject(self, time: float, priority: int, seq: int,
               action: Callable[[], Any], label: str = "",
               shard: int = 0) -> None:
        """File an event with an explicit ``seq`` on *shard*'s stream
        (the sharded form of :meth:`repro.sim.kernel.Kernel.inject`)."""
        event = _ScheduledEvent(time, priority, seq, action, label,
                                pinned=False)
        heappush(self._streams[shard], (time, priority, seq, event))
        self._live += 1
        if seq > self._seq:
            self._seq = seq

    # -- dispatch -----------------------------------------------------------

    def _execute(self, event: _ScheduledEvent) -> None:
        if self._trace_events:
            self.event_log.append((event.time, event.priority,
                                   event.seq, event.label))
            log = self.shard_log
            if log is not None:
                log.append(self._current_shard)
        event.action()

    # -- checkpoint / rollback ----------------------------------------------

    def _snapshot_entries(self) -> tuple:
        entries = []
        for shard, stream in enumerate(self._streams):
            for entry in stream:
                event = entry[3]
                if event.cancelled:
                    continue
                entries.append((shard, event.time, event.priority,
                                event.seq, event.action, event.label,
                                event.pinned))
        return tuple(entries)

    def snapshot(self) -> KernelSnapshot:
        snap = super().snapshot()
        snap.current_shard = self._current_shard
        snap.messages = (self.cross_shard_messages, self.local_messages)
        return snap

    def _restore_entries(self, entries: tuple) -> None:
        streams: list[list[tuple]] = [[] for _ in range(self.shards)]
        for shard, time, priority, seq, action, label, pinned in entries:
            streams[shard].append(
                (time, priority, seq,
                 _ScheduledEvent(time, priority, seq, action, label,
                                 pinned=pinned)))
        for stream in streams:
            heapify(stream)
        self._streams = streams

    def restore(self, snap: KernelSnapshot) -> None:
        super().restore(snap)
        self._current_shard = snap.current_shard
        self.cross_shard_messages, self.local_messages = snap.messages
        if self.shard_log is not None:
            del self.shard_log[snap.log_len:]

    # -- the merge barrier --------------------------------------------------

    def _min_stream(self) -> int:
        """Index of the stream with the globally smallest live head
        (-1 when all streams are empty).  Cancelled heads are swept
        here, exactly as the single-heap loop sweeps them."""
        slab = self._slab
        best = -1
        best_head: tuple | None = None
        for index, stream in enumerate(self._streams):
            while stream:
                head = stream[0]
                event = head[3]
                if event.cancelled:
                    heappop(stream)
                    event.done = True
                    if not event.pinned:
                        event.action = None
                        slab.append(event)
                    continue
                if best_head is None or head < best_head:
                    best_head = head
                    best = index
                break
        return best

    def _next_time(self) -> float:
        shard = self._min_stream()
        if shard < 0:
            return NO_EVENTS
        return self._streams[shard][0][0]

    def step(self) -> bool:
        """Run the merge-barrier winner; False when all streams idle."""
        shard = self._min_stream()
        if shard < 0:
            return False
        was_running = self.running
        self.running = True
        try:
            event = heappop(self._streams[shard])[3]
            event.done = True
            self._live -= 1
            self.clock.advance_to(event.time)
            self._executed += 1
            origin = self._current_shard
            self._current_shard = shard
            try:
                self._execute(event)
            finally:
                self._current_shard = origin
            self._recycle(event)
            return True
        finally:
            self.running = was_running

    def run(self, until: float | None = None,
            max_events: int | None = None) -> int:
        """Merge-run the shard streams (same contract as the base
        :meth:`~repro.sim.scheduler.EventScheduler.run`)."""
        was_running = self.running
        self.running = True
        ran = 0
        drained = False
        clock = self.clock
        slab = self._slab
        streams = self._streams
        try:
            while True:
                shard = self._min_stream()
                if shard < 0:
                    drained = True
                    break
                head = streams[shard][0]
                time = head[0]
                if until is not None and time > until:
                    drained = True
                    break
                if max_events is not None and ran >= max_events:
                    break
                heappop(streams[shard])
                event = head[3]
                event.done = True
                self._live -= 1
                if time > clock._now:
                    clock._now = time
                ran += 1
                self._current_shard = shard
                self._execute(event)
                if not event.pinned:
                    event.action = None
                    slab.append(event)
        finally:
            self._current_shard = 0
            self.running = was_running
            self._executed += ran
        if until is not None and drained:
            clock.advance_to(until)
        return ran

    # -- introspection ------------------------------------------------------

    def shard_stats(self) -> dict[str, Any]:
        """Occupancy and traffic snapshot for the shard streams."""
        total = self.cross_shard_messages + self.local_messages
        return {
            "shards": self.shards,
            "stream_depths": [len(stream) for stream in self._streams],
            "nodes": dict(self._node_shard),
            "cross_shard_messages": self.cross_shard_messages,
            "local_messages": self.local_messages,
            "cross_shard_ratio":
                (self.cross_shard_messages / total) if total else 0.0,
        }
