"""Timer-wheel edge cases: cancellation, renewal races, cascades,
tie-order — the determinism surface of the PR 7 kernel rebuild."""

from __future__ import annotations

from repro.bench.reference import TimerLeaseTable
from repro.sim.clock import SimClock
from repro.sim.kernel import Kernel, Timer
from repro.sim.scheduler import EventScheduler, _ScheduledEvent
from repro.sim.wheel import HierarchicalTimerWheel
from repro.txn.leases import LeaseTable


def _entry(time: float, seq: int, priority: int = 0) -> tuple:
    event = _ScheduledEvent(time, priority, seq, lambda: None,
                            label=f"e{seq}")
    return (time, priority, seq, event)


class TestWheelPlacement:
    def test_levels_and_overflow(self):
        # tiny wheel: level horizons 2, 8, 32 time units
        wheel = HierarchicalTimerWheel(tick=0.5, slots=4, levels=3)
        wheel.insert(_entry(1.2, 1), now=0.0)    # level 0
        wheel.insert(_entry(5.0, 2), now=0.0)    # level 1
        wheel.insert(_entry(20.0, 3), now=0.0)   # level 2
        wheel.insert(_entry(500.0, 4), now=0.0)  # beyond: overflow
        stats = wheel.stats()
        assert stats["count"] == 4
        assert stats["buckets"] == [1, 1, 1]
        assert stats["overflow"] == 1
        assert wheel.next_bound <= 1.2

    def test_cascade_across_level_boundaries(self):
        """A far entry re-distributes down one level per cascade and
        is released exactly once, in time order."""
        wheel = HierarchicalTimerWheel(tick=0.5, slots=4, levels=3)
        times = [1.2, 5.0, 5.3, 20.0, 31.9]
        for seq, time in enumerate(times):
            wheel.insert(_entry(time, seq), now=0.0)
        queue: list[tuple] = []
        released: list[float] = []
        limit = 0.0
        while wheel.count or queue:
            limit += 0.5
            wheel.drain_due(limit, queue)
            queue.sort()
            while queue and queue[0][0] <= limit:
                released.append(queue.pop(0)[0])
        assert released == sorted(times)
        assert wheel.stats()["buckets"] == [0, 0, 0]

    def test_drain_preserves_tie_order(self):
        """Same-instant entries come out in (priority, seq) order no
        matter which bucket shape they were stored in."""
        wheel = HierarchicalTimerWheel(tick=0.5, slots=4, levels=3)
        wheel.insert(_entry(5.0, 7), now=0.0)
        wheel.insert(_entry(5.0, 3), now=0.0)
        wheel.insert(_entry(5.0, 5, priority=-1), now=0.0)
        queue: list[tuple] = []
        wheel.drain_due(5.0, queue)
        order = [(entry[1], entry[2]) for entry in sorted(queue)]
        assert order == [(-1, 5), (0, 3), (0, 7)]


class TestCancellation:
    def test_cancel_after_expiry_is_inert(self):
        """Cancelling an event that already fired must not corrupt the
        live-event accounting."""
        kernel = Kernel()
        fired = []
        event = kernel.after(2.0, lambda: fired.append(True),
                             label="once")
        kernel.run_until_quiescent()
        assert fired == [True]
        before = kernel.pending
        kernel.cancel(event)   # too late: already executed
        kernel.cancel(event)   # and idempotent
        assert kernel.pending == before == 0

    def test_cancelled_wheel_resident_never_dispatches(self):
        kernel = Kernel()
        fired = []
        event = kernel.after(50.0, lambda: fired.append(True),
                             label="far")
        assert kernel.pending == 1
        kernel.cancel(event)
        assert kernel.pending == 0
        kernel.run_until_quiescent()
        assert fired == []

    def test_timer_cancel_after_expiry(self):
        kernel = Kernel()
        fired = []
        timer = Timer(kernel, lambda: fired.append(kernel.clock.now))
        timer.arm(3.0)
        kernel.run_until_quiescent()
        assert fired == [3.0]
        timer.cancel()  # after the fact: a no-op
        kernel.run_until_quiescent()
        assert fired == [3.0]


class TestRenewalRaces:
    def _table(self, reference: bool) -> tuple[Kernel, LeaseTable, list]:
        """Bucketed leases on the wheel kernel, or (*reference*) one
        timer per lease on the heap-only kernel."""
        kernel = Kernel(wheel=not reference)
        table_type = TimerLeaseTable if reference else LeaseTable
        table = table_type(kernel.clock, ttl=10.0,
                           kernel_source=lambda: kernel)
        expired: list[tuple[str, str]] = []
        table.on_expire = lambda ws, dov: expired.append((ws, dov))
        return kernel, table, expired

    def test_renewal_racing_expiry_at_the_same_tick(self):
        """Both orderings of a renewal racing the expiry check at the
        very same instant are safe: a renewal sequenced *before* the
        check extends the lease; one sequenced *after* is a no-op —
        it never resurrects."""
        for reference in (False, True):
            # renewal first (scheduled before the grant's expiry event)
            kernel, table, expired = self._table(reference)
            kernel.at(10.0, lambda t=table: t.renew("ws-1", "dov-1"),
                      label="renewal")
            table.grant("ws-1", "dov-1")
            kernel.run_until(12.0)
            assert expired == [], f"reference={reference}"
            assert table.lease("ws-1", "dov-1") is not None
            kernel.run_until_quiescent()
            assert expired == [("ws-1", "dov-1")]

            # expiry check first, renewal second at the same instant
            kernel, table, expired = self._table(reference)
            outcome: list[bool] = []
            table.grant("ws-1", "dov-1")
            kernel.at(10.0,
                      lambda t=table:
                      outcome.append(t.renew("ws-1", "dov-1")),
                      label="renewal")
            kernel.run_until_quiescent()
            assert expired == [("ws-1", "dov-1")], \
                f"reference={reference}"
            assert outcome == [False]  # lost the race: no resurrect
            assert table.lease("ws-1", "dov-1") is None

    def test_renewal_never_resurrects(self):
        for reference in (False, True):
            kernel, table, expired = self._table(reference)
            table.grant("ws-1", "dov-1")
            kernel.run_until_quiescent()
            assert expired == [("ws-1", "dov-1")]
            assert table.renew("ws-1", "dov-1") is False
            kernel.run_until_quiescent()
            assert table.lease("ws-1", "dov-1") is None

    def test_release_then_expiry_event_is_skipped(self):
        kernel, table, expired = self._table(False)
        table.grant("ws-1", "dov-1")
        kernel.at(4.0, lambda: table.release("ws-1", "dov-1"),
                  label="release")
        kernel.run_until_quiescent()
        assert expired == []
        assert table.stats()["expirations"] == 0


class TestInsertionOrder:
    def test_zero_delay_events_preserve_insertion_order(self):
        for wheel in (True, False):
            scheduler = EventScheduler(SimClock(), wheel=wheel)
            seen: list[int] = []
            for index in range(8):
                scheduler.defer(0.0, lambda i=index: seen.append(i))
            scheduler.after(0.0, lambda: seen.append(100))
            scheduler.defer(0.0, lambda: seen.append(101))
            scheduler.run()
            assert seen == list(range(8)) + [100, 101], f"wheel={wheel}"

    def test_traces_identical_with_and_without_wheel(self):
        """The determinism contract at unit scale: a storm of mixed
        near/far/cancelled/re-entrant events traces byte-identically
        on the wheel kernel and the heap-only kernel."""
        def storm(wheel: bool) -> tuple:
            kernel = Kernel(SimClock(), wheel=wheel)
            handles = []

            def work(index: int) -> None:
                if index % 3 == 0:
                    kernel.defer((index * 7) % 11 + 0.25,
                                 lambda: None, label=f"child-{index}")

            for index in range(200):
                delay = (index * 13) % 29 + index * 0.01
                if index % 4 == 0:
                    handles.append(kernel.after(
                        delay, lambda i=index: work(i),
                        label=f"evt-{index}"))
                else:
                    kernel.defer(delay, lambda i=index: work(i),
                                 label=f"evt-{index}")
            for handle in handles[::3]:
                kernel.cancel(handle)
            kernel.run()
            return kernel.trace_signature()

        assert storm(True) == storm(False)


class TestSlabRecycling:
    def test_deferred_events_are_recycled(self):
        scheduler = EventScheduler(SimClock())
        for _ in range(16):
            scheduler.defer(0.5, lambda: None)
        scheduler.run()
        slab = scheduler._slab
        assert len(slab) == 16
        recycled = slab[-1]
        scheduler.defer(0.5, lambda: None)
        assert slab[-1] is not recycled  # drawn back out of the slab
        scheduler.run()

    def test_pinned_events_are_never_recycled(self):
        scheduler = EventScheduler(SimClock())
        event = scheduler.after(0.5, lambda: None)
        scheduler.run()
        assert event not in scheduler._slab
        assert event.done


class TestRunUntilMaxEvents:
    def test_max_events_exit_does_not_jump_the_clock(self):
        """Satellite regression: run(until=..., max_events=...) used to
        advance the clock to *until* even when it stopped early with
        events still pending before the deadline."""
        kernel = Kernel()
        seen = []
        for time in (1.0, 2.0, 3.0):
            kernel.at(time, lambda t=time: seen.append(t))
        ran = kernel.run(until=10.0, max_events=2)
        assert ran == 2
        assert kernel.clock.now == 2.0  # NOT 10.0
        ran = kernel.run(until=10.0)
        assert ran == 1
        assert seen == [1.0, 2.0, 3.0]
        assert kernel.clock.now == 10.0  # drained: deadline honoured
