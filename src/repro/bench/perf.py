"""Microbenchmark harness for the zero-copy and kernel hot paths.

Wall-clock throughput of the optimised hot paths —
buffer-hit checkout, write-through checkout/checkin round trips,
group-checkin flushes, raw kernel event dispatch, TTL timer churn —
plus the payload-sizing primitive itself.  Each benchmark with a
speed gate is measured twice: once on the production path and once
against a small frozen reference of the regime it replaced
(:mod:`repro.bench.reference`), so every report carries its own
speedup.  Three reference families exist:

* **deepcopy payloads** for the data-shipping paths: the production
  operation plus the payload deep copies and sizing walks the
  pre-freeze data path paid;
* **the heap kernel with one timer per lease** for the event-loop
  paths: ``Kernel(wheel=False)`` and one re-armable ``sim.Timer`` per
  TTL lease;
* **a member scan** for federation home resolution.

The report also carries a **determinism guard**: a sharded kernel must
reproduce the single-shard traces and final states, and the
federation's placement index must equal member truth at every T10
crash placement — perf that changes behaviour is a bug, not a win.

``python -m repro perf`` (or ``python benchmarks/perf/run_perf.py``)
runs the suite and emits ``BENCH_PERF.json`` at the repo root — the
perf trajectory future PRs diff against with ``tools/bench_report.py``.
All workloads are deterministic; only the wall-clock timings vary
between machines.  The CI perf job fails the build when the committed
full-mode artifact says ``acceptance.ok: false``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

from repro.bench.reference import (
    CHECKIN_COPIES,
    CHECKIN_WALKS,
    HIT_COPIES,
    ROUND_COPIES,
    ROUND_WALKS,
    DeepcopyPayloads,
    MemberScanFederation,
    TimerLeaseTable,
)
from repro.net.network import Network
from repro.net.rpc import TransactionalRpc
from repro.repository.federation import FederatedRepository
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.repository.versions import DesignObjectVersion
from repro.sim.clock import SimClock
from repro.sim.kernel import Kernel
from repro.te.locks import LockManager
from repro.te.object_buffer import ObjectBuffer
from repro.te.transaction_manager import (
    ClientTM,
    ServerTM,
    register_server_endpoints,
)
from repro.txn.leases import LeaseTable
from repro.util.ids import IdGenerator

#: schema version of the BENCH_PERF.json envelope
SCHEMA = 1

#: repo-root artifact file the harness emits by default
DEFAULT_ARTIFACT = "BENCH_PERF.json"

#: acceptance floor: buffer-hit checkout must beat the deepcopy
#: baseline by at least this factor
BUFFER_HIT_MIN_SPEEDUP = 3.0

#: acceptance floor: the write-back group flush must beat the deepcopy
#: baseline by at least this factor (PR 5: batched graph locks, the
#: single-walk freeze, and the O(1) dirty index lifted the 2PC/WAL
#: control path that used to dominate the flush)
GROUP_FLUSH_MIN_SPEEDUP = 2.0

#: acceptance floor: raw kernel dispatch rate on a pre-scheduled
#: far-future event storm (PR 7: timer wheel + dispatch run + slab
#: recycling; the pre-wheel kernel managed ~770k)
KERNEL_EVENTS_MIN_OPS_PER_SEC = 2_000_000

#: acceptance floor: the full TTL-lease lifecycle (staggered grants,
#: batch renewals, early releases, expiry) must beat the
#: one-``sim.Timer``-per-lease heap baseline by at least this factor
TIMER_CHURN_MIN_SPEEDUP = 5.0

#: acceptance floor (full mode only): the multi-process sharded kernel
#: at 4 worker processes must deliver at least this much *capacity*
#: speedup on the T11 saturation storm — total events divided by the
#: busiest worker's CPU seconds, against the single-process
#: ShardedKernel's events per CPU second.  Capacity, not wall clock:
#: CI containers (including this one) pin the suite to one core, where
#: 4 workers time-slice and wall clock can only lose to process
#: overhead; events/CPU-second measures how the protocol divides the
#: work, which is what turns into wall-clock speedup the moment real
#: cores exist.  The theoretical ceiling is 1/max-shard-share (~3.2x
#: for the storm's ~31% server shard — the Amdahl floor the federation
#: arc exists to remove), so 1.5x leaves honest room for rollback
#: re-execution.
SHARD_SCALING_MIN_SPEEDUP = 1.5

#: acceptance ceiling (full mode only): per-batch cross-member commit
#: cost at the largest federation sweep point divided by the cost at
#: the smallest — the **flatness** of the member-count scaling curve.
#: The placement index makes home resolution O(batch); the only
#: member-count term left is building the federation itself, so the
#: curve must stay flat within noise
FEDERATION_FLATNESS_MAX = 1.3

#: frontier window of the bounded-log run: the decision log
#: auto-checkpoints every this-many completed batches, and its record
#: count (sampled after every batch) must stay <= 2x this window no
#: matter how many batches ever committed
FEDERATION_LOG_WINDOW = 8


def _nested_payload(entries: int = 48, rev: int = 0) -> dict[str, Any]:
    """A representative design payload: shallow top, bushy below.

    Many container nodes (not just long strings) so the deepcopy
    baseline pays a real recursive walk per operation.
    """
    return {
        "name": f"cell-{rev}",
        "meta": {"rev": rev, "tags": ["synth", "placed", "routed"]},
        "tree": {
            f"n{i}": {"v": i, "w": float(i), "s": "x" * 24}
            for i in range(entries)
        },
    }


def _make_rig(buffering: bool = True,
              write_back: bool = False) -> dict[str, Any]:
    """One workstation + server TE rig on a quiet (kernel-less) LAN."""
    clock = SimClock()
    network = Network(clock)
    network.add_server()
    repository = DesignDataRepository()
    locks = LockManager()
    server_tm = ServerTM(repository, locks, network, clock=clock)
    server_tm.scope_check = lambda da_id, dov_id: True
    rpc = TransactionalRpc(network)
    register_server_endpoints(rpc, server_tm)
    network.add_workstation("ws-1")
    buffer = ObjectBuffer("ws-1") if buffering else None
    client = ClientTM("ws-1", server_tm, rpc, clock, ids=IdGenerator(),
                      buffer=buffer, write_back=write_back)
    repository.register_dot(DesignObjectType("Cell", attributes=[
        AttributeDef("name", AttributeKind.STRING),
        AttributeDef("meta", AttributeKind.JSON),
        AttributeDef("tree", AttributeKind.JSON),
    ]))
    repository.create_graph("da-1")
    return {"clock": clock, "network": network, "repository": repository,
            "server_tm": server_tm, "client": client, "buffer": buffer}


def _best_ops_per_sec(run_ops: Callable[[], int], repeats: int) -> float:
    """Best-of-*repeats* throughput of one measured workload."""
    best = 0.0
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        ops = run_ops()
        elapsed = time.perf_counter() - start
        if elapsed > 0.0:
            best = max(best, ops / elapsed)
    return best


# -- the microbenchmarks -----------------------------------------------------


def _measure_buffer_hit(ops: int, baseline: bool, repeats: int) -> float:
    """Buffer-hit checkouts per second (the zero-network read path)."""
    rig = _make_rig(buffering=True)
    client: ClientTM = rig["client"]
    dov0 = rig["repository"].checkin(
        "da-1", "Cell", _nested_payload(), ())
    warm = client.begin_dop("da-1", tool="bench")
    client.checkout(warm, dov0.dov_id)  # the one miss: installs
    client.drop_dop(warm)
    extra = DeepcopyPayloads(_nested_payload(), HIT_COPIES) \
        if baseline else None

    def run_ops() -> int:
        done = 0
        while done < ops:
            dop = client.begin_dop("da-1", tool="bench")
            for _ in range(16):
                client.checkout(dop, dov0.dov_id)
            if extra is not None:
                extra.pay(16)
            done += 16
            client.drop_dop(dop)
        return done

    return _best_ops_per_sec(run_ops, repeats)


def _measure_write_through(ops: int, baseline: bool,
                           repeats: int) -> float:
    """Uncached checkout+checkin round trips per second (RPC + 2PC +
    WAL force per round — the write-through data-shipping path)."""
    rig = _make_rig(buffering=False)
    client: ClientTM = rig["client"]
    state = {"current": rig["repository"].checkin(
        "da-1", "Cell", _nested_payload(), ()).dov_id, "rev": 0}
    extra = DeepcopyPayloads(_nested_payload(), ROUND_COPIES,
                             ROUND_WALKS) if baseline else None

    def run_ops() -> int:
        for _ in range(ops):
            dop = client.begin_dop("da-1", tool="bench")
            client.checkout(dop, state["current"])
            state["rev"] += 1
            result = client.checkin(
                dop, "Cell", data=_nested_payload(rev=state["rev"]),
                parents=[state["current"]])
            state["current"] = result.dov.dov_id
            client.commit_dop(dop, result)
            if extra is not None:
                extra.pay()
        return ops

    return _best_ops_per_sec(run_ops, repeats)


def _measure_group_flush(flushes: int, batch: int, baseline: bool,
                         repeats: int) -> float:
    """Group-checkin flushes per second (*batch* deferred checkins per
    flush: one batched ship, one 2PC, one forced WAL write, rebind)."""
    rig = _make_rig(buffering=True, write_back=True)
    client: ClientTM = rig["client"]
    state = {"rev": 0}
    extra = DeepcopyPayloads(_nested_payload(), CHECKIN_COPIES,
                             CHECKIN_WALKS) if baseline else None

    def run_ops() -> int:
        for _ in range(flushes):
            dop = client.begin_dop("da-1", tool="bench")
            for _ in range(batch):
                state["rev"] += 1
                client.checkin(dop, "Cell",
                               data=_nested_payload(rev=state["rev"]),
                               parents=[])
            client.commit_dop(dop)  # End-of-DOP flush trigger
            if extra is not None:
                extra.pay(batch)
        return flushes

    return _best_ops_per_sec(run_ops, repeats)


def _measure_cross_flush(rounds: int, team: int, batch: int,
                         baseline: bool, repeats: int) -> float:
    """Cross-workstation group commits per second: *team* dirty sets
    under ONE coordinator, ONE decision and ONE forced WAL write
    (:func:`repro.txn.flush_group`)."""
    from repro.txn import flush_group

    clock = SimClock()
    network = Network(clock)
    network.add_server()
    repository = DesignDataRepository()
    locks = LockManager()
    server_tm = ServerTM(repository, locks, network, clock=clock)
    server_tm.scope_check = lambda da_id, dov_id: True
    rpc = TransactionalRpc(network)
    register_server_endpoints(rpc, server_tm)
    ids = IdGenerator()
    repository.register_dot(DesignObjectType("Cell", attributes=[
        AttributeDef("name", AttributeKind.STRING),
        AttributeDef("meta", AttributeKind.JSON),
        AttributeDef("tree", AttributeKind.JSON),
    ]))
    clients = []
    for index in range(team):
        workstation = f"ws-{index}"
        network.add_workstation(workstation)
        repository.create_graph(f"da-{index}")
        clients.append(ClientTM(
            workstation, server_tm, rpc, clock, ids=ids,
            buffer=ObjectBuffer(workstation), write_back=True,
            flush_on_end_dop=False))
    state = {"rev": 0}
    extra = DeepcopyPayloads(_nested_payload(), CHECKIN_COPIES,
                             CHECKIN_WALKS) if baseline else None

    def run_ops() -> int:
        for _ in range(rounds):
            dops = []
            for index, client in enumerate(clients):
                dop = client.begin_dop(f"da-{index}", tool="bench")
                for _ in range(batch):
                    state["rev"] += 1
                    client.checkin(
                        dop, "Cell",
                        data=_nested_payload(rev=state["rev"]),
                        parents=[])
                dops.append((client, dop))
            flush_group(clients)
            for client, dop in dops:
                client.commit_dop(dop)
            if extra is not None:
                extra.pay(team * batch)
        return rounds
    return _best_ops_per_sec(run_ops, repeats)


def _measure_kernel_events(events: int, baseline: bool,
                           repeats: int) -> float:
    """Raw kernel dispatch rate: events per second popped and executed
    from a pre-scheduled far-future storm.

    The storm is time-ordered over an 80-time-unit horizon — the shape
    a workstation fleet's heartbeat/lease traffic has — and scheduling
    happens *outside* the timed region: this benchmark isolates the
    dispatch engine (wheel drains, the sorted dispatch run, the batch
    pop loop, slab recycling) from the schedule-side cost, which the
    ``kernel_timer_churn`` contrast covers end to end.  The baseline
    is the heap-only kernel (``wheel=False``).
    """
    best = 0.0
    step = 80.0 / max(events, 1)
    for _ in range(max(repeats, 1)):
        kernel = Kernel(SimClock(), trace_events=False,
                        wheel=not baseline)
        noop = _noop
        defer = kernel.defer
        for index in range(events):
            defer(1.0 + index * step, noop, "storm")
        start = time.perf_counter()
        kernel.run()
        elapsed = time.perf_counter() - start
        assert kernel.executed == events
        if elapsed > 0.0:
            best = max(best, events / elapsed)
    return best


def _noop() -> None:
    """The measured event body of the dispatch storm."""


def _measure_timer_churn(leases: int, baseline: bool,
                         repeats: int) -> float:
    """TTL-lease lifecycles settled per second, end to end.

    The workload is the cancel-heavy far-future population the timer
    wheel exists for: ``leases`` leases granted in per-workstation
    waves (staggered horizons), after which 60% of the fleet releases
    its whole set mid-life (the cancels), 20% batch-renews twice
    before going silent, and 20% just expires.  Production runs
    bucketed lease expiry on the wheel kernel; the baseline runs the
    reference regime — one re-armable ``sim.Timer`` per lease
    (:class:`~repro.bench.reference.TimerLeaseTable`) on the heap
    kernel, where every release still dispatches a no-op check event
    and every renewal costs an extra re-check.
    """
    stations = max(leases // 1000, 4)
    per_station = max(leases // stations, 1)
    ttl = 30.0
    table_type = TimerLeaseTable if baseline else LeaseTable

    def run_ops() -> int:
        kernel = Kernel(SimClock(), trace_events=False,
                        wheel=not baseline)
        table = table_type(kernel.clock, ttl=ttl,
                           kernel_source=lambda: kernel)

        def grant_wave(station: str) -> None:
            for index in range(per_station):
                table.grant(station, f"dov-{station}-{index}")

        def release_wave(station: str) -> None:
            for index in range(per_station):
                table.release(station, f"dov-{station}-{index}")

        for number in range(stations):
            station = f"ws-{number:04d}"
            at = number * 0.01
            kernel.at(at, lambda s=station: grant_wave(s),
                      label="grant-wave")
            if number % 5 < 3:  # 60%: cancel mid-life
                kernel.at(at + ttl * 0.5,
                          lambda s=station: release_wave(s),
                          label="release-wave")
            elif number % 5 == 3:  # 20%: renew twice, then lapse
                for round_no in (1, 2):
                    kernel.at(at + round_no * ttl * 0.6,
                              lambda s=station:
                              table.renew_workstation(s),
                              label="renew-wave")
        kernel.run_until_quiescent(max_events=leases * 8 + 10_000)
        assert len(table) == 0
        return stations * per_station

    return _best_ops_per_sec(run_ops, repeats)


def _measure_scorecard(repeats: int, quick: bool) -> float:
    """Full scorecard runs per second — the whole-system wall clock of
    every figure/experiment driver (an informational trajectory row:
    it has no reference to divide by).  Quick mode restricts the card
    to the data-shipping experiments."""
    from repro.bench.scorecard import run_scorecard

    only = {"T8", "T9"} if quick else None

    def run_ops() -> int:
        card = run_scorecard(only=only)
        assert card.data["failures"] == 0
        return 1

    return _best_ops_per_sec(run_ops, repeats)


def _measure_shard_scaling(quick: bool) -> dict[str, Any]:
    """The shard-scaling curve of the multi-process kernel.

    Runs the T11 saturation storm once on the single-process
    :class:`~repro.sim.shard.ShardedKernel` (the baseline and the
    determinism reference — the storm's event population is identical
    at every shard count, so one reference serves them all) and then
    on real spawned worker processes at each measured shard count.
    Every parallel run's merged trace must be byte-identical to the
    reference; the reported metric is **capacity** (events per
    busiest-worker CPU second — see :data:`SHARD_SCALING_MIN_SPEEDUP`
    for why wall clock is not the gate on a one-core container).
    """
    from repro.sim.parallel import (
        build_saturation_storm,
        run_program_parallel,
        run_program_sequential,
    )

    if quick:
        workstations, ws_work, server_work, counts = 24, 60, 20, (2,)
    else:
        workstations, ws_work, server_work, counts = 400, 1500, 400, (2, 4)

    def storm(shards: int):
        return build_saturation_storm(
            shards=shards, workstations=workstations,
            ws_work=ws_work, server_work=server_work)

    reference = run_program_sequential(storm(1))
    base_cpu = reference.stats["cpu_seconds"]
    base_capacity = reference.executed / base_cpu if base_cpu else 0.0

    runs: dict[str, dict[str, Any]] = {}
    identical = True
    peak_capacity = 0.0
    peak_speedup: float | None = None
    for shards in counts:
        result = run_program_parallel(storm(shards))
        stats = result.stats
        worker_cpu = stats["max_worker_cpu_seconds"]
        capacity = result.executed / worker_cpu if worker_cpu else 0.0
        same = (result.events == reference.events
                and result.executed == reference.executed)
        identical = identical and same
        runs[f"shards={shards}"] = {
            "workers": stats["workers"],
            "events_per_cpu_sec": round(capacity, 2),
            "capacity_speedup":
                round(capacity / base_capacity, 2)
                if base_capacity else None,
            "wall_seconds": round(stats["wall_seconds"], 3),
            "max_worker_cpu_seconds": round(worker_cpu, 4),
            "rounds": stats["rounds"],
            "rollbacks": stats["rollbacks"],
            "rolled_back_events": stats["rolled_back_events"],
            "speculated": stats["speculated"],
            "committed_speculative": stats["committed_speculative"],
            "trace_identical": same,
        }
        peak_capacity = capacity
        peak_speedup = runs[f"shards={shards}"]["capacity_speedup"]

    storm_meta = storm(max(counts)).meta
    return {
        "description":
            "T11 saturation storm on spawned worker processes "
            "(conservative lookahead + speculation/rollback): merged "
            "events per busiest-worker CPU second vs the "
            "single-process ShardedKernel",
        "ops": reference.executed,
        "metric": "capacity (events / max worker CPU-second) — wall "
                  "clock cannot win on a single-core container",
        "ops_per_sec": round(peak_capacity, 2),
        "baseline": "single-process ShardedKernel",
        "baseline_ops_per_sec": round(base_capacity, 2),
        "speedup_vs_baseline": peak_speedup,
        "workstations": workstations,
        "work_shares": storm_meta["work_shares"],
        "lookahead": storm_meta["lan_latency"],
        "trace_identical": identical,
        "runs": runs,
    }


def _measure_federation_scaling(quick: bool,
                                repeats: int) -> dict[str, Any]:
    """Per-batch cross-member commit cost as the federation grows.

    The sweep holds the *work* constant — the same four active DAs,
    pinned to the same four members, the same 16-version batch — and
    grows only the **member count** around it.  Every batch's prepare/
    decide/complete therefore touches exactly four members at every
    sweep point; the only thing that used to scale with federation
    size was the per-version home-resolution scan the placement index
    removed.  The gate is *flatness*: seconds per batch at the largest
    sweep point must stay within :data:`FEDERATION_FLATNESS_MAX` of
    the smallest.  The baseline re-times the largest federation with
    :class:`~repro.bench.reference.MemberScanFederation` (a member scan
    per staged version), and a separate bounded-log run proves the
    decision log's checkpoint frontier keeps its record count inside
    2x the :data:`FEDERATION_LOG_WINDOW` across >= 3 truncation cycles
    — ending with a coordinator crash + recovery over the truncated
    log.
    """
    from repro.txn.decision_log import GlobalDecisionLog

    das = 4
    per_da = 4
    batches = 4 if quick else 10
    counts = (4, 8) if quick else (4, 16, 64)

    def build(members: int,
              decision_log: GlobalDecisionLog | None = None,
              kind: type[FederatedRepository] = FederatedRepository):
        ids = IdGenerator()
        federation = kind(
            {f"site-{index}": DesignDataRepository(ids)
             for index in range(members)},
            decision_log=decision_log)
        federation.register_dot(DesignObjectType("Cell", attributes=[
            AttributeDef("name", AttributeKind.STRING),
            AttributeDef("meta", AttributeKind.JSON),
            AttributeDef("tree", AttributeKind.JSON),
        ]))
        heads: dict[str, str] = {}
        for index in range(das):
            da_id = f"da-{index}"
            federation.assign(da_id, f"site-{index}")
            federation.create_graph(da_id)
            heads[da_id] = federation.checkin(
                da_id, "Cell", _nested_payload(4, rev=0), ()).dov_id
        return federation, heads

    def run_batches(federation, heads, count: int,
                    state: dict[str, int]) -> float:
        """Stage+commit *count* batches; returns timed commit seconds
        (staging happens outside the timed region — the benchmark
        isolates the cross-member commit path)."""
        elapsed = 0.0
        for _ in range(count):
            staged = []
            for index in range(das):
                da_id = f"da-{index}"
                for _ in range(per_da):
                    state["rev"] += 1
                    dov = federation.stage_checkin(
                        da_id, "Cell",
                        _nested_payload(4, rev=state["rev"]),
                        (heads[da_id],),
                        created_at=float(state["rev"]))
                    staged.append(dov.dov_id)
            start = time.perf_counter()
            committed = federation.commit_group(staged)
            elapsed += time.perf_counter() - start
            for dov in committed:
                heads[dov.created_by] = dov.dov_id
        return elapsed

    def seconds_per_batch(members: int,
                          kind: type[FederatedRepository]
                          = FederatedRepository) -> float:
        best = float("inf")
        for _ in range(max(repeats, 1)):
            federation, heads = build(members, kind=kind)
            elapsed = run_batches(federation, heads, batches,
                                  {"rev": 0})
            best = min(best, elapsed / batches)
        return best

    sweep = {members: seconds_per_batch(members) for members in counts}
    smallest, largest = min(counts), max(counts)
    flatness = round(sweep[largest] / sweep[smallest], 3) \
        if sweep[smallest] else None
    scan = seconds_per_batch(largest, MemberScanFederation)
    speedup = round(scan / sweep[largest], 2) \
        if sweep[largest] else None

    # -- bounded-log run: >= 3 checkpoint/truncation cycles, record
    # count sampled after every batch, then a coordinator crash over
    # the truncated log to prove recovery still resolves everything
    window = FEDERATION_LOG_WINDOW
    log = GlobalDecisionLog(checkpoint_interval=window)
    federation, heads = build(smallest, decision_log=log)
    state = {"rev": 0}
    peak_records = 0
    for _ in range(3 * window + 2):
        run_batches(federation, heads, 1, state)
        peak_records = max(peak_records, log.stats()["wal_records"])
    log_stats = log.stats()
    federation.crash_coordinator()
    recovery = federation.recover_coordinator()
    # the unforced completion tail may be lost with the coordinator;
    # recovery re-settles those batches — what matters is that nothing
    # stays incomplete afterwards
    bounded = (peak_records <= 2 * window
               and log_stats["truncations"] >= 3
               and len(log.incomplete()) == 0)

    batch_size = das * per_da
    return {
        "description":
            "cross-member commit_group seconds/batch at fixed work "
            f"({batch_size} versions over {das} pinned members) as "
            "the federation grows — O(batch) placement-index "
            "resolution vs the per-version member scan",
        "ops": batches * batch_size,
        "ops_per_sec": round(1.0 / sweep[largest], 2)
        if sweep[largest] else None,
        "metric": "ops_per_sec = cross-member batches/sec at the "
                  "largest sweep point; flatness = largest-sweep "
                  "cost / smallest-sweep cost (lower is flatter)",
        "batch": batch_size,
        "active_members": das,
        "sweep": {f"members={members}": round(cost * 1000.0, 4)
                  for members, cost in sweep.items()},
        "sweep_unit": "ms per batch",
        "flatness": flatness,
        "flatness_max": FEDERATION_FLATNESS_MAX,
        "baseline": f"member-scan resolution at {largest} members",
        "baseline_ms_per_batch": round(scan * 1000.0, 4),
        "speedup_vs_baseline": speedup,
        "bounded_log": {
            "window": window,
            "batches": 3 * window + 2,
            "peak_wal_records": peak_records,
            "max_wal_records": 2 * window,
            "truncations": log_stats["truncations"],
            "forgotten_decisions": log_stats["forgotten_decisions"],
            "recovery_settled": recovery["settled"],
            "ok": bounded,
        },
    }


def _environment() -> dict[str, Any]:
    """Host metadata stamped into the artifact: the context any reader
    of the capacity numbers needs (most of all the core count)."""
    import os
    import platform

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _determinism_guard(quick: bool) -> dict[str, Any]:
    """Prove the kernel and the federation change speed, not behaviour.

    * **Trace guard** — a synthetic storm must trace identically on
      ``Kernel`` and ``ShardedKernel(shards=1)``; the seeded golden
      traces (``tests/data/traces``) pin the full event streams.
    * **Shard guard** — under ``shards=2`` the interleaving across
      shards may differ, but the final scenario reports (states,
      makespans, counters) must equal the single-shard run's.
    * **Federation guard** — at every T10 crash placement the
      placement index must equal member truth (each staged id's home
      is the member that holds it, found by the reference member
      scan), and a federation directory rebuilt from the members
      after a coordinator loss must equal the pre-crash directory.
    """
    from dataclasses import asdict

    from repro.bench.reference import staged_home_mismatches
    from repro.bench.scenarios import (
        _federation_rebuild_check,
        concurrent_delegation_scenario,
        federated_commit_scenario,
        object_buffer_scenario,
        write_back_scenario,
    )
    from repro.sim.shard import ShardedKernel

    subcells = ("A", "B")

    def t7(shards: int = 1) -> tuple[Any, Any]:
        system, report = concurrent_delegation_scenario(
            subcells, shards=shards)
        return system.kernel.trace_signature(), asdict(report)

    trace, report = t7()
    __, sharded_report = t7(shards=2)

    def storm_signature(kernel: Kernel) -> tuple:
        for index in range(64):
            kernel.defer((index * 7) % 13 + index * 0.01, _noop,
                         label=f"storm-{index}")
        kernel.run()
        return kernel.trace_signature()

    shard1 = storm_signature(ShardedKernel(SimClock(), shards=1)) \
        == storm_signature(Kernel(SimClock()))

    def t10_member_truth() -> bool:
        audits: list[list[str]] = []
        for crash in ("none", "before", "after", "coordinator"):
            federated_commit_scenario(
                crash=crash,
                audit=lambda federation:
                audits.append(staged_home_mismatches(federation)))
        return bool(audits) and not any(audits)

    checks = {
        "t7_trace_events": trace[0],
        "shard1_storm_trace_identical": shard1,
        "t7_report_identical_shards2": report == sharded_report,
        "t10_placement_matches_member_truth": t10_member_truth(),
        # seeded cross-member commits + a version left staged, then a
        # coordinator loss: the index rebuilt from the members alone
        # must equal the pre-crash snapshot on every surface
        "federation_directory_rebuild_identical":
            _federation_rebuild_check(),
    }
    if not quick:
        checks["t8_report_identical_shards2"] = \
            asdict(object_buffer_scenario()) \
            == asdict(object_buffer_scenario(shards=2))
        checks["t9_report_identical_shards2"] = \
            asdict(write_back_scenario()) \
            == asdict(write_back_scenario(shards=2))
    checks["ok"] = all(value is True or not isinstance(value, bool)
                       for value in checks.values())
    return checks


def _measure_sizing(ops: int, baseline: bool, repeats: int) -> float:
    """``payload_size`` accesses per second: cached stamp vs the
    recursive re-walk of the pre-freeze property."""
    dov = DesignObjectVersion(
        "dov-bench", "Cell", _nested_payload(), "da-1", 0.0)
    walk = DeepcopyPayloads(_nested_payload(), copies=0, walks=1)

    def run_ops() -> int:
        total = 0
        if baseline:
            for _ in range(ops):
                total += walk.pay()
        else:
            for _ in range(ops):
                total += dov.payload_size
        return ops if total else ops

    return _best_ops_per_sec(run_ops, repeats)


# -- the suite ---------------------------------------------------------------


def run_perf(quick: bool = False, repeats: int = 3,
             emit_path: str | Path | None = None) -> dict[str, Any]:
    """Run every microbenchmark; optionally emit the JSON artifact.

    ``quick=True`` shrinks the op counts (smoke-test mode for the
    tier-1 suite); timings then say nothing, but the report structure
    and the workloads are identical.
    """
    scale = 0.05 if quick else 1.0

    def n(full: int, floor: int = 8) -> int:
        return max(int(full * scale), floor)

    benchmarks: dict[str, dict[str, Any]] = {}

    def contrast(name: str, description: str, ops: int,
                 measure: Callable[[bool], float],
                 baseline: str = "deepcopy payload") -> None:
        rate = measure(False)
        base = measure(True)
        bench: dict[str, Any] = {
            "description": description,
            "ops": ops,
            "ops_per_sec": round(rate, 2),
            "baseline": baseline,
            "baseline_ops_per_sec": round(base, 2),
            "speedup_vs_baseline":
                round(rate / base, 2) if base else None,
        }
        if baseline == "deepcopy payload":
            # historical key the PR 4 artifacts and reports used
            bench["speedup_vs_deepcopy_baseline"] = \
                bench["speedup_vs_baseline"]
        benchmarks[name] = bench

    ops = n(4800, 32)
    contrast(
        "checkout_buffer_hit",
        "buffer-hit checkouts/sec: frozen zero-copy install vs the "
        "deepcopy-per-read baseline",
        ops, lambda baseline: _measure_buffer_hit(ops, baseline, repeats))

    rounds = n(320)
    contrast(
        "checkout_checkin_write_through",
        "uncached checkout+checkin round trips/sec (RPC + sized "
        "shipment + 2PC + forced WAL write per round)",
        rounds,
        lambda baseline: _measure_write_through(rounds, baseline, repeats))

    flushes, batch = n(48), 16
    contrast(
        "group_checkin_flush",
        f"write-back group flushes/sec ({batch} deferred checkins per "
        "flush: one batched ship, one 2PC, one WAL force, rebind)",
        flushes,
        lambda baseline: _measure_group_flush(flushes, batch, baseline,
                                              repeats))
    benchmarks["group_checkin_flush"]["batch"] = batch
    fps = benchmarks["group_checkin_flush"]["ops_per_sec"]
    benchmarks["group_checkin_flush"]["flush_latency_ms"] = \
        round(1000.0 / fps, 3) if fps else None

    rounds, team = n(24), 4
    contrast(
        "cross_workstation_group_commit",
        f"cross-workstation group commits/sec ({team} workstations' "
        f"dirty sets, {batch} checkins each, under ONE coordinator / "
        "decision / forced WAL write)",
        rounds,
        lambda baseline: _measure_cross_flush(rounds, team, batch,
                                              baseline, repeats))
    benchmarks["cross_workstation_group_commit"]["team"] = team
    benchmarks["cross_workstation_group_commit"]["batch"] = batch

    events = n(200_000, 2048)
    contrast(
        "kernel_events",
        "kernel events dispatched/sec from a pre-scheduled "
        "far-future storm (wheel drains + sorted dispatch run + "
        "batch pop + slab recycling vs the heap-only kernel)",
        events,
        lambda baseline: _measure_kernel_events(events, baseline, repeats),
        baseline="heap-only kernel (wheel=False)")

    churn = n(100_000, 2048)
    contrast(
        "kernel_timer_churn",
        "TTL-lease lifecycles/sec end to end (staggered grants, 60% "
        "released mid-life, 20% batch-renewed twice, 20% expiring): "
        "bucketed expiry on the wheel kernel vs one sim.Timer heap "
        "entry per lease",
        churn,
        lambda baseline: _measure_timer_churn(churn, baseline, repeats),
        baseline="one sim.Timer per lease on the heap kernel")

    sizings = n(4000, 64)
    contrast(
        "payload_sizing",
        "DesignObjectVersion.payload_size accesses/sec: cached "
        "one-walk stamp vs recursive re-walk per access",
        sizings, lambda baseline: _measure_sizing(sizings, baseline, repeats))

    card_rate = _measure_scorecard(repeats, quick)
    benchmarks["scorecard_wall_clock"] = {
        "description":
            "full reproduction-scorecard runs/sec (every driver, end "
            "to end) — informational trajectory, no reference",
        "ops": 1,
        "ops_per_sec": round(card_rate, 2),
        "wall_seconds": round(1.0 / card_rate, 3) if card_rate else None,
    }

    benchmarks["shard_scaling"] = _measure_shard_scaling(quick)
    scaling = benchmarks["shard_scaling"]

    benchmarks["federation_scaling"] = \
        _measure_federation_scaling(quick, repeats)
    federation = benchmarks["federation_scaling"]

    determinism = _determinism_guard(quick)
    determinism["parallel_merge_trace_identical"] = \
        scaling["trace_identical"]
    determinism["ok"] = determinism["ok"] and scaling["trace_identical"]

    hit = benchmarks["checkout_buffer_hit"]
    flush = benchmarks["group_checkin_flush"]
    kernel = benchmarks["kernel_events"]
    churn_bench = benchmarks["kernel_timer_churn"]
    acceptance: dict[str, Any] = {
        "buffer_hit_min_speedup": BUFFER_HIT_MIN_SPEEDUP,
        "buffer_hit_speedup": hit["speedup_vs_baseline"],
        "group_flush_min_speedup": GROUP_FLUSH_MIN_SPEEDUP,
        "group_flush_speedup": flush["speedup_vs_baseline"],
        "kernel_events_min_ops_per_sec": KERNEL_EVENTS_MIN_OPS_PER_SEC,
        "kernel_events_ops_per_sec": kernel["ops_per_sec"],
        "timer_churn_min_speedup": TIMER_CHURN_MIN_SPEEDUP,
        "timer_churn_speedup": churn_bench["speedup_vs_baseline"],
        "shard_scaling_min_speedup": SHARD_SCALING_MIN_SPEEDUP,
        "shard_scaling_speedup": scaling["speedup_vs_baseline"],
        "federation_flatness_max": FEDERATION_FLATNESS_MAX,
        "federation_flatness": federation["flatness"],
        "federation_log_bounded": federation["bounded_log"]["ok"],
        "determinism_ok": determinism["ok"],
        #: quick mode shrinks op counts until timings say nothing, and
        #: its scorecard subset omits the kernel-bound T11 driver — the
        #: quantitative gates bind on the full run only
        "perf_gates_applied": not quick,
    }
    ok = ((hit["speedup_vs_baseline"] or 0.0)
          >= BUFFER_HIT_MIN_SPEEDUP
          and (flush["speedup_vs_baseline"] or 0.0)
          >= GROUP_FLUSH_MIN_SPEEDUP
          # structural, not a timing: the checkpoint frontier must
          # bound the decision log in quick mode too
          and federation["bounded_log"]["ok"]
          and determinism["ok"])
    if not quick:
        ok = (ok
              and kernel["ops_per_sec"]
              >= KERNEL_EVENTS_MIN_OPS_PER_SEC
              and (churn_bench["speedup_vs_baseline"] or 0.0)
              >= TIMER_CHURN_MIN_SPEEDUP
              and (scaling["speedup_vs_baseline"] or 0.0)
              >= SHARD_SCALING_MIN_SPEEDUP
              and (federation["flatness"] or float("inf"))
              <= FEDERATION_FLATNESS_MAX)
    acceptance["ok"] = ok
    report = {
        "schema": SCHEMA,
        "suite": "repro.bench.perf",
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "environment": _environment(),
        "acceptance": acceptance,
        "determinism": determinism,
        "benchmarks": benchmarks,
    }
    if emit_path is not None:
        Path(emit_path).write_text(
            json.dumps(report, indent=2, sort_keys=False) + "\n",
            encoding="utf-8")
    return report


def render(report: dict[str, Any]) -> str:
    """One-screen text rendering of a perf report."""
    lines = [f"== PERF: zero-copy + kernel hot paths "
             f"({report['mode']}, repeats={report['repeats']}) =="]
    for name, bench in report["benchmarks"].items():
        if "baseline" not in bench and bench.get("wall_seconds"):
            # the informational whole-scorecard row: seconds per run
            lines.append(f"{name:32s} {bench['wall_seconds']:>12,.3f} s/run")
            continue
        lines.append(f"{name:32s} {bench['ops_per_sec']:>12,.0f} ops/s"
                     + (f"  ({bench['speedup_vs_baseline']:.2f}x "
                        f"vs {bench.get('baseline', 'baseline')})"
                        if bench.get("speedup_vs_baseline")
                        else ""))
    determinism = report.get("determinism", {})
    if determinism:
        failed = [key for key, value in determinism.items()
                  if value is False]
        lines.append("determinism: "
                     + ("traces/states identical"
                        if determinism.get("ok")
                        else "VIOLATED: " + ", ".join(failed)))
    acceptance = report["acceptance"]
    gates = [
        f"buffer-hit {acceptance['buffer_hit_speedup']:.2f}x "
        f">= {acceptance['buffer_hit_min_speedup']:.1f}x",
        f"group-flush {acceptance['group_flush_speedup']:.2f}x "
        f">= {acceptance['group_flush_min_speedup']:.1f}x",
    ]
    if acceptance.get("perf_gates_applied"):
        gates += [
            f"kernel-events "
            f"{acceptance['kernel_events_ops_per_sec']:,.0f} "
            f">= {acceptance['kernel_events_min_ops_per_sec']:,d}/s",
            f"timer-churn {acceptance['timer_churn_speedup']:.2f}x "
            f">= {acceptance['timer_churn_min_speedup']:.1f}x",
            f"shard-scaling {acceptance['shard_scaling_speedup']:.2f}x "
            f">= {acceptance['shard_scaling_min_speedup']:.1f}x "
            f"capacity",
            f"federation-flatness {acceptance['federation_flatness']:.2f}x "
            f"<= {acceptance['federation_flatness_max']:.1f}x",
        ]
    if "federation_log_bounded" in acceptance:
        gates.append("federation-log "
                     + ("bounded" if acceptance["federation_log_bounded"]
                        else "UNBOUNDED"))
    lines.append("acceptance: " + ", ".join(gates) + " -> "
                 + ("OK" if acceptance["ok"] else "FAIL"))
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - convenience entry
    print(render(run_perf(emit_path=DEFAULT_ARTIFACT)))
