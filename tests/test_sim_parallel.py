"""Multi-process sharded kernel: protocol, snapshots, crash parity.

The invariant every test here defends: the merged ``(time, priority,
seq, label)`` stream of a multi-process run is **byte-identical** to
the single-process :class:`~repro.sim.shard.ShardedKernel` execution
of the same workload.  Coverage spans the three layers of
:mod:`repro.sim.parallel`:

* the **program protocol** — conservative lookahead windows,
  speculation and checkpoint rollback on the saturation-storm shape;
* the **kernel checkpoint** primitives (``snapshot`` / ``restore`` /
  ``inject`` / ``filing_on``) the worker engines are built on;
* the **replicated scenario mode**, including crash injection under
  ``shards > 1`` — crash/restart events file on the crashed node's
  owning shard and reports match the single-shard run exactly;
* **coordinator liveness** — a worker that dies or falls silent is
  reported within a bound instead of hanging the coordinator.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.bench.scenarios import concurrent_delegation_scenario
from repro.scenario import canonical_scenarios, validate_scenario
from repro.sim.clock import SimClock
from repro.sim.kernel import Kernel
from repro.sim.parallel import (
    _receive,
    build_saturation_storm,
    run_program_parallel,
    run_program_sequential,
    run_scenario_replicated,
)
from repro.sim.shard import ShardedKernel
from repro.sim.trace import record_scenario
from repro.util.errors import KernelError

#: small enough for tier-1 wall clock, big enough to force several
#: coordinator rounds, speculation commits AND at least one rollback
STORM = dict(workstations=40, leases_per_ws=64)


class TestShardProgram:
    def test_storm_is_deterministic(self):
        first = build_saturation_storm(shards=4, **STORM)
        second = build_saturation_storm(shards=4, **STORM)
        assert first.programs == second.programs
        assert first.total_events == second.total_events

    def test_event_population_is_shard_agnostic(self):
        """Shard assignment moves events between streams but never
        changes times, seqs or labels — one sequential reference
        serves every shard count."""
        one = run_program_sequential(build_saturation_storm(
            shards=1, **STORM))
        four = run_program_sequential(build_saturation_storm(
            shards=4, **STORM))
        assert one.events == four.events
        assert one.final_time == four.final_time

    def test_zero_jitter_is_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            build_saturation_storm(shards=2, jitter=0.0)

    def test_work_shares_cover_the_whole_storm(self):
        storm = build_saturation_storm(shards=4, **STORM)
        assert abs(sum(storm.meta["work_shares"]) - 1.0) < 0.01


class TestParallelProtocol:
    """Real spawned workers vs the in-process reference."""

    def test_merged_trace_is_byte_identical(self):
        storm = build_saturation_storm(shards=4, **STORM)
        reference = run_program_sequential(storm)
        parallel = run_program_parallel(storm)
        assert parallel.events == reference.events
        assert parallel.executed == reference.executed
        assert parallel.final_time == reference.final_time

    def test_speculation_and_rollback_are_exercised(self):
        """The storm must actually drive the interesting paths: the
        workers speculate past the horizon, commit most of it, and at
        least one straggler forces a checkpoint rollback — all without
        perturbing the merged stream (previous test)."""
        stats = run_program_parallel(
            build_saturation_storm(shards=4, **STORM)).stats
        assert stats["speculated"] > 0
        assert stats["committed_speculative"] > 0
        assert stats["rollbacks"] > 0
        assert stats["rolled_back_events"] > 0

    def test_conservative_only_mode_is_identical_too(self):
        storm = build_saturation_storm(shards=2, **STORM)
        reference = run_program_sequential(storm)
        conservative = run_program_parallel(storm, speculate=False)
        assert conservative.events == reference.events
        assert conservative.stats["rollbacks"] == 0
        assert conservative.stats["speculated"] == 0


class TestWorkerLiveness:
    """The coordinator never waits unboundedly on a worker."""

    def _spawn(self, target, args: tuple, name: str):
        ctx = multiprocessing.get_context("spawn")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=target, args=args, name=name)
        proc.start()
        return proc, parent, child

    def test_worker_dying_at_spawn_raises_within_the_bound(self):
        proc, conn, child = self._spawn(os._exit, (3,),
                                        "repro-dies-at-once")
        child.close()
        start = time.monotonic()
        try:
            with pytest.raises(KernelError,
                               match=r"repro-dies-at-once.*code 3"):
                _receive(proc, conn, timeout=60.0)
            assert time.monotonic() - start < 20.0
        finally:
            proc.join(timeout=10)
            conn.close()

    def test_silent_live_worker_times_out(self):
        # the write end stays open here, so the pipe never reaches
        # EOF: the worker is alive and simply never answers
        proc, conn, child = self._spawn(time.sleep, (30,), "repro-silent")
        try:
            with pytest.raises(KernelError, match="repro-silent.*no reply"):
                _receive(proc, conn, timeout=0.5)
        finally:
            proc.terminate()
            proc.join(timeout=10)
            conn.close()
            child.close()


class TestSnapshotRestore:
    def _loaded_kernel(self, cls):
        kernel = cls(SimClock(), wheel=False) if cls is Kernel \
            else cls(SimClock(), shards=3)
        log = []
        for index in range(12):
            kernel.at(1.0 + index * 0.5,
                      lambda i=index: log.append(i),
                      label=f"ev-{index}")
        return kernel, log

    @pytest.mark.parametrize("cls", [Kernel, ShardedKernel])
    def test_restore_rewinds_and_replays_identically(self, cls):
        kernel, log = self._loaded_kernel(cls)
        kernel.run(until=3.0)
        snap = kernel.snapshot()
        kernel.run()
        first_tail = list(kernel.event_log)
        first_log = list(log)

        kernel.restore(snap)
        del log[:]
        assert kernel.clock.now == snap.now
        kernel.run(until=3.0)  # already drained below 3.0: no-op
        kernel.run()
        assert list(kernel.event_log) == first_tail
        # actions re-ran from the checkpoint on
        assert log == [i for i in first_log if 1.0 + i * 0.5 > 3.0]

    def test_restore_truncates_the_event_log(self):
        kernel, __ = self._loaded_kernel(Kernel)
        kernel.run(until=2.0)
        snap = kernel.snapshot()
        logged = len(kernel.event_log)
        kernel.run()
        assert len(kernel.event_log) > logged
        kernel.restore(snap)
        assert len(kernel.event_log) == logged

    def test_snapshot_refuses_wheel_kernels(self):
        kernel = Kernel(SimClock())  # wheel on: far future entries
        kernel.at(1_000.0, lambda: None)
        with pytest.raises(KernelError, match="wheel"):
            kernel.snapshot()

    def test_inject_accepts_past_instants(self):
        """Straggler deliveries file below the local clock; heap
        order, not the clock, decides execution order."""
        kernel = Kernel(SimClock(), wheel=False)
        kernel.at(5.0, lambda: None, label="late")
        kernel.run()
        assert kernel.clock.now == 5.0
        kernel.inject(2.0, 0, 99, lambda: None, label="straggler")
        kernel.run()
        assert kernel.event_log[-1][3] == "straggler"

    def test_sharded_inject_files_on_the_named_stream(self):
        kernel = ShardedKernel(SimClock(), shards=3)
        kernel.inject(1.0, 0, 7, lambda: None, label="s2", shard=2)
        kernel.inject(1.0, 0, 3, lambda: None, label="s1", shard=1)
        assert [len(s) for s in kernel._streams] == [0, 1, 1]
        kernel.run()
        # merge order follows (time, priority, seq), not stream index
        assert [entry[3] for entry in kernel.event_log] == ["s1", "s2"]

    def test_filing_on_routes_scheduled_events(self):
        kernel = ShardedKernel(SimClock(), shards=2)
        with kernel.filing_on(1):
            kernel.at(1.0, lambda: None, label="routed")
        assert len(kernel._streams[1]) == 1
        assert len(kernel._streams[0]) == 0


class TestReplicatedScenario:
    def test_t7_merge_matches_single_process(self):
        config = canonical_scenarios()["t7_concurrent_team"]
        reference = record_scenario(config, shards=2)
        result = run_scenario_replicated(config, shards=2)
        assert result.events == reference.events
        assert result.final_time == reference.final_time

    def test_fewer_workers_than_shards_interleaves_ownership(self):
        config = canonical_scenarios()["t8_object_buffers"]
        reference = record_scenario(config, shards=4)
        result = run_scenario_replicated(config, shards=4, workers=2)
        assert result.stats["workers"] == 2
        assert result.events == reference.events

    def test_single_shard_is_rejected(self):
        config = canonical_scenarios()["t8_object_buffers"]
        with pytest.raises(KernelError, match="shards >= 2"):
            run_scenario_replicated(config, shards=1)


CRASH = ("ws-B", 15.0, 5.0)


class TestCrashInjectionUnderShards:
    """Satellite: ``schedule_crash`` with ``shards > 1`` — the crash
    lands on the crashed node's shard and changes nothing observable."""

    def test_reports_identical_across_shard_counts(self):
        __, reference = concurrent_delegation_scenario(
            ("A", "B", "C"), crash=CRASH, shards=1)
        for shards in (2, 4):
            __, report = concurrent_delegation_scenario(
                ("A", "B", "C"), crash=CRASH, shards=shards)
            assert report == reference, f"shards={shards}"

    def test_crash_events_file_on_the_owning_shard(self):
        captured = []

        def hook(kernel):
            kernel.shard_log = []
            captured.append(kernel)

        system, __ = concurrent_delegation_scenario(
            ("A", "B", "C"), crash=CRASH, shards=4, on_kernel=hook)
        kernel = captured[-1]
        owner = kernel.shard_of(CRASH[0])
        assert owner != 0  # ws-B round-robins off the server shard
        placed = {label: shard
                  for (*_, label), shard in zip(kernel.event_log,
                                                kernel.shard_log)}
        assert placed[f"crash:{CRASH[0]}"] == owner
        assert placed[f"restart:{CRASH[0]}"] == owner

    def test_crash_trace_replays_under_parallel_workers(self):
        """End to end: a scenario with a crash schedule records the
        identical stream on spawned workers as in-process."""
        raw = canonical_scenarios()["t7_concurrent_team"].as_tables()
        raw["crashes"]["schedule"] = [
            {"node": CRASH[0], "at": CRASH[1],
             "restart_after": CRASH[2]}]
        raw["kernel"]["shards"] = 2
        config = validate_scenario(raw)
        reference = record_scenario(config, parallel=False)
        parallel = record_scenario(config, parallel=True)
        assert parallel.events == reference.events
        assert any(label == f"crash:{CRASH[0]}"
                   for *_, label in parallel.events)
