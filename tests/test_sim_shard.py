"""Sharded deterministic event loop: merge order, routing, the
shards>1 state-equivalence contract, and cross-process determinism
(the same recording in two interpreters with different hash seeds)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.scenarios import concurrent_delegation_scenario
from repro.scenario import canonical_scenarios, validate_scenario
from repro.scenario.schema import dump_scenario
from repro.sim.clock import SimClock
from repro.sim.kernel import Kernel
from repro.sim.shard import ShardedKernel

#: one scheduled workstation crash: (node, at, restart_after)
CRASH = ("ws-B", 15.0, 5.0)

#: the source tree subprocesses import ``repro`` from
SRC = Path(__file__).resolve().parent.parent / "src"


class TestMergeOrder:
    def test_shard1_traces_like_the_plain_kernel(self):
        """N=1 is the compat mode: same events, same trace, byte for
        byte."""
        def storm(kernel):
            for index in range(50):
                kernel.defer((index * 7) % 13 + index * 0.1,
                             lambda: None, label=f"evt-{index}")
            kernel.run()
            return kernel.trace_signature()

        assert storm(ShardedKernel(SimClock(), shards=1)) \
            == storm(Kernel(SimClock()))

    def test_lowest_timestamp_merge_across_shards(self):
        """Events interleave across streams in exact global
        (time, priority, seq) order."""
        kernel = ShardedKernel(SimClock(), shards=3,
                               trace_events=False)
        seen: list[tuple[float, int]] = []
        for index in range(30):
            shard = index % 3
            time = (index * 11) % 17 + 0.5
            kernel.defer_to(shard, time,
                            lambda t=time, s=shard:
                            seen.append((t, s)),
                            label="evt")
        kernel.run()
        assert [t for t, _ in seen] == sorted(t for t, _ in seen)
        assert {s for _, s in seen} == {0, 1, 2}

    def test_same_instant_ties_resolve_by_seq_globally(self):
        kernel = ShardedKernel(SimClock(), shards=2,
                               trace_events=False)
        seen: list[int] = []
        for index in range(10):
            kernel.defer_to(index % 2, 1.0,
                            lambda i=index: seen.append(i))
        kernel.run()
        assert seen == list(range(10))


class TestRouting:
    def test_placement_is_stable_and_pinnable(self):
        kernel = ShardedKernel(SimClock(), shards=4)
        auto = kernel.shard_of("ws-A")
        assert kernel.shard_of("ws-A") == auto  # crc32: stable
        kernel.assign_shard("ws-A", 3)
        assert kernel.shard_of("ws-A") == 3
        with pytest.raises(ValueError):
            kernel.assign_shard("ws-A", 4)

    def test_cross_vs_local_traffic_accounting(self):
        kernel = ShardedKernel(SimClock(), shards=2,
                               trace_events=False)
        kernel.defer_to(0, 1.0, lambda: None)  # from shard 0: local
        kernel.defer_to(1, 1.0, lambda: None)  # crosses
        stats = kernel.shard_stats()
        assert stats["local_messages"] == 1
        assert stats["cross_shard_messages"] == 1
        assert stats["cross_shard_ratio"] == 0.5
        kernel.run()

    def test_cascades_stay_shard_local(self):
        """An event scheduled while shard S executes lands on S —
        local work never silently migrates."""
        kernel = ShardedKernel(SimClock(), shards=2,
                               trace_events=False)
        depths: list[list[int]] = []

        def parent():
            kernel.defer(1.0, lambda: None)
            depths.append(list(
                kernel.shard_stats()["stream_depths"]))

        kernel.defer_to(1, 1.0, parent)
        kernel.run()
        assert depths == [[0, 1]]  # the child landed on shard 1

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardedKernel(SimClock(), shards=0)


class TestScenarioEquivalence:
    def test_t7_reports_identical_under_shards2(self):
        from dataclasses import asdict

        from repro.bench.scenarios import (
            concurrent_delegation_scenario,
        )

        __, single = concurrent_delegation_scenario(("A", "B"))
        __, sharded = concurrent_delegation_scenario(("A", "B"),
                                                     shards=2)
        assert asdict(single) == asdict(sharded)

    def test_shards2_smoke_runs_cross_shard_traffic(self):
        from repro.bench.scenarios import (
            concurrent_delegation_scenario,
        )

        system, __ = concurrent_delegation_scenario(("A", "B"),
                                                    shards=2)
        stats = system.kernel.shard_stats()
        assert stats["shards"] == 2
        assert stats["cross_shard_messages"] > 0


class TestShardTraceCapture:
    """The sharded loop's merged trace IS the single-kernel trace."""

    def test_merged_event_log_equals_single_kernel(self):
        """At shards>1 every executed event still flows through
        ``_execute``, so the merged (time, priority, seq, label)
        stream is identical to the unsharded kernel's."""
        def storm(kernel):
            for index in range(40):
                kernel.defer_to(index % 3, (index * 7) % 13 + 0.25,
                                lambda: None, label=f"evt-{index}")
            kernel.run()
            return list(kernel.event_log)

        sharded = storm(ShardedKernel(SimClock(), shards=3))
        plain = storm(Kernel(SimClock()))
        assert sharded == plain

    def test_recorded_scenario_trace_is_shard_invariant(self):
        """A T8 trace recorded at shards=2 equals the shards=1
        recording byte for byte — the capture side of the replay
        oracle's shard override."""
        from repro.scenario import canonical_scenarios
        from repro.sim.trace import record_scenario

        config = canonical_scenarios()["t8_object_buffers"]
        one = record_scenario(config, shards=1)
        two = record_scenario(config, shards=2)
        assert two.events == one.events
        assert two.final_time == one.final_time
        assert two.meta["shards"] == 2

    def test_untraced_sharded_run_keeps_merge_order(self):
        """trace_events=False at shards>1: no log, same dispatch."""
        seen: list[str] = []

        def storm(kernel):
            for index in range(20):
                kernel.defer_to(index % 2, (index * 5) % 7 + 0.5,
                                lambda i=index: seen.append(f"e{i}"),
                                label="evt")
            kernel.run()

        kernel = ShardedKernel(SimClock(), shards=2,
                               trace_events=False)
        storm(kernel)
        untraced, seen = seen, []
        storm(ShardedKernel(SimClock(), shards=2))
        assert untraced == seen
        assert kernel.event_log == []


class TestCrashInjectionUnderShards:
    """``schedule_crash`` with ``shards > 1`` changes nothing
    observable in the final report."""

    def test_reports_identical_across_shard_counts(self):
        __, reference = concurrent_delegation_scenario(
            ("A", "B", "C"), crash=CRASH, shards=1)
        for shards in (2, 4):
            __, report = concurrent_delegation_scenario(
                ("A", "B", "C"), crash=CRASH, shards=shards)
            assert report == reference, f"shards={shards}"


def _repro(args: list[str], hash_seed: str, cwd: Path):
    """Run ``python -m repro *args`` in a fresh interpreter whose
    string hashing is seeded with *hash_seed*."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


class TestCrossProcessDeterminism:
    """Two interpreters with different ``PYTHONHASHSEED`` values record
    the same stream: nothing in the simulation depends on set or dict
    iteration order of hashed strings, or on the process it runs in."""

    def test_hash_seeded_recordings_are_identical(self, tmp_path):
        from repro.sim.trace import load_trace, record_scenario

        raw = canonical_scenarios()["t7_concurrent_team"].as_tables()
        raw["crashes"]["schedule"] = [
            {"node": CRASH[0], "at": CRASH[1],
             "restart_after": CRASH[2]}]
        config = validate_scenario(raw)
        toml = tmp_path / "t7_crash.toml"
        toml.write_text(dump_scenario(config))
        paths = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"hashseed{hash_seed}.jsonl"
            done = _repro(["trace", "record", str(toml), "--shards", "2",
                           "-o", str(out)], hash_seed, tmp_path)
            assert done.returncode == 0, done.stderr
            paths.append(out)
        done = _repro(["trace", "diff", *map(str, paths)], "0", tmp_path)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "traces identical" in done.stdout
        in_process = record_scenario(config, shards=2)
        recorded = load_trace(paths[0])
        assert recorded.events == in_process.events
        assert any(label == f"crash:{CRASH[0]}"
                   for *_, label in recorded.events)
