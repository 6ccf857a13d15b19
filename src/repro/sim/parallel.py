"""Multi-process sharded kernel execution.

:class:`~repro.sim.shard.ShardedKernel` proved the partitioning: per
node event streams under a deterministic lowest-timestamp merge, with
the global ``seq`` counter making the merged order identical to the
single-heap order.  This module runs those shards on **real worker
processes** (``multiprocessing``, spawn-safe), with the merge as the
only synchronization point.  Two execution modes share the machinery:

**Program mode** (:func:`run_program_parallel`) executes a *shard
program* — a picklable event population whose global sequence numbers
are fixed at build time (:func:`build_saturation_storm` builds the T11
saturation-storm shape).  One spawned worker owns each shard and the
coordinator drives a conservative-lookahead round protocol:

* the **lookahead window** ``L`` is the minimum cross-shard message
  latency (:meth:`repro.net.network.Network.latency_lower_bound`); the
  storm builder guarantees every cross-shard delivery arrives
  *strictly* more than ``L`` after its sending event;
* each round the coordinator computes the global **floor** (the
  smallest pending event time across all workers plus all in-flight
  messages) and grants the horizon ``H = floor + L``.  Every event
  below ``H`` is safe to execute: any message a foreign shard could
  still generate arrives strictly after ``H``;
* after the conservative window a worker takes a **checkpoint**
  (:meth:`repro.sim.kernel.Kernel.snapshot`) and keeps executing
  **speculatively** up to ``H + L``, holding its outbound sends back;
* a cross-shard message arriving below the shard's local clock — a
  *straggler*, only possible inside the speculated segment — triggers
  **rollback**: the kernel restores the checkpoint (truncating the
  event log), held sends are discarded, and the window replays with
  the straggler merged in.  Messages sort strictly after ``H + L`` of
  the round *before* their delivery round, so one checkpoint per
  round is sufficient: speculation confirmed at the next grant can
  never be invalidated later.

The merged ``(time, priority, seq, label)`` stream of a parallel run
is **byte-identical** to the single-process
:class:`~repro.sim.shard.ShardedKernel` execution of the same program
(:func:`run_program_sequential`) — the PR 8 trace-diff oracle enforces
it structurally.

**Replicated mode** (:func:`run_scenario_replicated`) covers full
scenarios, whose worlds are closures over shared repository state and
do not serialise.  Every spawned worker rebuilds the *entire* scenario
from its picklable TOML tables and runs it single-process, then
returns only the event-log slice its shards own
(:attr:`~repro.sim.shard.ShardedKernel.shard_log`); the coordinator
merges the slices and asserts the worker reports agree.  This is the
cross-process determinism gate: a run whose event order depends on
hash seeds, dict iteration, or any other per-process accident diverges
here and is reported through the same trace-diff oracle.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from functools import partial
from heapq import merge as heap_merge
from random import Random
from time import monotonic, perf_counter, process_time
from typing import TYPE_CHECKING, Any

from repro.sim.clock import SimClock
from repro.sim.kernel import Kernel
from repro.sim.scheduler import NO_EVENTS
from repro.sim.shard import ShardedKernel
from repro.util.errors import KernelError

if TYPE_CHECKING:  # lazy at runtime: sim must not import scenario/
    from repro.scenario.schema import ScenarioConfig  # pragma: no cover

#: hard cap on coordinator rounds — a protocol bug (a floor that never
#: advances) fails loudly instead of deadlocking the run
MAX_ROUNDS = 100_000

#: seconds between liveness checks while the coordinator waits on a
#: worker's reply — how fast a dead worker is noticed
POLL_INTERVAL = 0.05

#: longest the coordinator waits for any single reply before it gives
#: up on a live but silent worker
REPLY_TIMEOUT = 300.0

#: a program event: ``(time, priority, seq, label, work, sends)`` where
#: ``sends`` is a tuple of ``(dst_shard, ProgramEvent)`` — pure nested
#: tuples, picklable and immutable
ProgramEvent = tuple


@dataclass(frozen=True)
class ShardProgram:
    """A picklable event population partitioned across shards."""

    shards: int
    #: initial events per shard (cross-shard sends are nested inside)
    programs: tuple[tuple[ProgramEvent, ...], ...]
    #: safe lower bound on cross-shard delivery latency: every nested
    #: send is delivered *strictly* more than this after its sender
    lookahead: float
    total_events: int
    meta: dict[str, Any] = field(default_factory=dict)


def _spin(units: int) -> int:
    """Burn a deterministic amount of CPU — the modeled handler cost."""
    x = 0
    for i in range(units):
        x += i
    return x


# ---------------------------------------------------------------------------
# the saturation-storm program (the T11 shape as a shard program)
# ---------------------------------------------------------------------------

def build_saturation_storm(shards: int = 4, *,
                           workstations: int = 400,
                           renew_rounds: int = 2,
                           ttl: float = 8.0,
                           lan_latency: float = 2.0,
                           jitter: float = 1.0,
                           leases_per_ws: int = 64,
                           seed: int = 0,
                           ws_work: int = 60,
                           server_work: int = 20,
                           start: float = 0.1,
                           stagger: float = 0.013) -> ShardProgram:
    """The T11 kernel-saturation fleet as a :class:`ShardProgram`.

    Mirrors :func:`repro.bench.experiments.run_t11`'s event mix: per
    workstation a staggered lease-grant wave ships a batch to the
    server, even-numbered workstations renew in ``renew_rounds`` waves
    (each renewal re-arms the server-side expiry bucket, which
    re-checks lazily at the superseded instant), and the final expiry
    settles the bucket and ships an invalidation back to the
    workstation, whose per-lease buffer drops are the heavy end of the
    work (``leases_per_ws`` scales both the bucket settle and the
    drop).  The server anchors shard 0 and workstations round-robin
    over the remaining shards, so the single-server lease table is the
    Amdahl floor of the scaling curve — exactly the bottleneck the
    ROADMAP's federation arc exists to remove.

    Every cross-shard delivery uses ``lan_latency`` plus a strictly
    positive seeded jitter, so ``lan_latency`` is a safe *exclusive*
    lower bound — the conservative lookahead window of the parallel
    protocol.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    if jitter <= 0.0:
        raise ValueError(
            "the storm needs strictly positive jitter: the lookahead "
            "window is an exclusive latency lower bound")
    rng = Random(seed)
    seq = 0
    total = 0
    bucket_work = server_work + leases_per_ws // 16
    inval_work = ws_work + leases_per_ws // 4

    def event(time: float, label: str, work: int,
              sends: tuple = ()) -> ProgramEvent:
        nonlocal seq, total
        seq += 1
        total += 1
        return (time, 0, seq, label, work, sends)

    def lat() -> float:
        return lan_latency + rng.uniform(0.05, 1.0) * jitter

    programs: list[list[ProgramEvent]] = [[] for _ in range(shards)]
    work_by_shard = [0] * shards
    for k in range(workstations):
        ws = f"ws-{k:04d}"
        ws_shard = 0 if shards == 1 else 1 + k % (shards - 1)
        renewing = k % 2 == 0
        t0 = start + k * stagger

        # the final bucket settle ships an invalidation back to the
        # (by then silent) workstation: per-lease buffer drops
        rounds = renew_rounds if renewing else 0
        granted = t0 + lat()
        expiry = granted + ttl + rounds * (ttl / 2.0)
        inval = event(expiry + lat(), f"storm:inval:{ws}", inval_work)
        work_by_shard[ws_shard] += inval_work

        # the server-side expiry-bucket chain, last-to-first: each
        # renewal leaves the superseded bucket to re-check lazily
        bucket = event(expiry, f"storm:lease-expiry:{ws}", bucket_work,
                       ((ws_shard, inval),))
        work_by_shard[0] += bucket_work
        for r in range(rounds, 0, -1):
            instant = granted + ttl + (r - 1) * (ttl / 2.0)
            bucket = event(instant, f"storm:lease-recheck:{ws}",
                           bucket_work, ((0, bucket),))
            work_by_shard[0] += bucket_work

        batch = event(granted, f"storm:grant-batch:{ws}", server_work,
                      ((0, bucket),))
        work_by_shard[0] += server_work
        programs[ws_shard].append(
            event(t0, f"storm:grant-wave:{ws}", ws_work,
                  ((0, batch),)))
        work_by_shard[ws_shard] += ws_work

        for r in range(1, rounds + 1):
            renewal = event(t0 + r * (ttl / 2.0) + lat(),
                            f"storm:renew-batch:{ws}", server_work)
            work_by_shard[0] += server_work
            programs[ws_shard].append(
                event(t0 + r * (ttl / 2.0),
                      f"storm:renew-wave:{ws}", ws_work,
                      ((0, renewal),)))
            work_by_shard[ws_shard] += ws_work

    total_work = sum(work_by_shard) or 1
    return ShardProgram(
        shards=shards,
        programs=tuple(tuple(p) for p in programs),
        lookahead=lan_latency,
        total_events=total,
        meta={
            "storm": "t11-saturation",
            "workstations": workstations,
            "renew_rounds": renew_rounds,
            "ttl": ttl,
            "lan_latency": lan_latency,
            "jitter": jitter,
            "leases_per_ws": leases_per_ws,
            "seed": seed,
            "work_shares": [round(w / total_work, 4)
                            for w in work_by_shard],
        })


# ---------------------------------------------------------------------------
# sequential reference: the same program on one ShardedKernel
# ---------------------------------------------------------------------------

@dataclass
class ProgramRunResult:
    """Outcome of one program execution (either mode)."""

    #: the merged ``(time, priority, seq, label)`` stream (empty when
    #: the run was untraced)
    events: list[tuple]
    final_time: float
    executed: int
    stats: dict[str, Any] = field(default_factory=dict)


class _SequentialProgram:
    """Executes a :class:`ShardProgram` on one in-process kernel."""

    def __init__(self, kernel: ShardedKernel) -> None:
        self.kernel = kernel

    def inject(self, shard: int, pe: ProgramEvent) -> None:
        time, priority, seq, label, work, sends = pe
        self.kernel.inject(time, priority, seq,
                           partial(self._perform, shard, work, sends),
                           label, shard=shard)

    def _perform(self, shard: int, work: int, sends: tuple) -> None:
        _spin(work)
        if sends:
            kernel = self.kernel
            for dst, child in sends:
                if dst != shard:
                    kernel.cross_shard_messages += 1
                else:
                    kernel.local_messages += 1
                self.inject(dst, child)


def run_program_sequential(storm: ShardProgram,
                           trace_events: bool = True
                           ) -> ProgramRunResult:
    """Run *storm* on a single-process :class:`ShardedKernel` — the
    determinism baseline every parallel run is diffed against."""
    kernel = ShardedKernel(SimClock(), shards=storm.shards,
                           trace_events=trace_events)
    runner = _SequentialProgram(kernel)
    for shard, events in enumerate(storm.programs):
        for pe in events:
            runner.inject(shard, pe)
    cpu0 = process_time()
    wall0 = perf_counter()
    executed = kernel.run()
    wall = perf_counter() - wall0
    cpu = process_time() - cpu0
    return ProgramRunResult(
        events=list(kernel.event_log),
        final_time=kernel.clock.now,
        executed=executed,
        stats={
            "mode": "sequential",
            "shards": storm.shards,
            "cpu_seconds": cpu,
            "wall_seconds": wall,
            "cross_shard_messages": kernel.cross_shard_messages,
        })


# ---------------------------------------------------------------------------
# the worker side of the parallel protocol
# ---------------------------------------------------------------------------

class _WorkerEngine:
    """One shard's event loop: conservative window + speculation."""

    def __init__(self, shard: int, events: tuple,
                 lookahead: float, speculate: bool,
                 trace_events: bool) -> None:
        self.shard = shard
        self.kernel = Kernel(SimClock(), trace_events=trace_events,
                             wheel=False)
        self.lookahead = lookahead
        self.speculate = speculate
        #: confirmed cross-shard sends awaiting pickup: (dst, event)
        self.outbox: list[tuple[int, ProgramEvent]] = []
        #: speculative sends held back until the speculation commits
        self.held: list[tuple[int, ProgramEvent]] = []
        self.speculating = False
        #: ``(kernel snapshot, last-executed key, spec count)`` or None
        self.checkpoint = None
        #: ``(time, priority, seq)`` of the last executed event
        self.last_key: tuple = (-1.0, 0, 0)
        self.rollbacks = 0
        self.rolled_back_events = 0
        self.speculated = 0
        self.committed_speculative = 0
        self.cpu = 0.0
        for pe in events:
            self._inject(pe)

    def _inject(self, pe: ProgramEvent) -> None:
        time, priority, seq, label, work, sends = pe
        self.kernel.inject(time, priority, seq,
                           partial(self._perform, (time, priority, seq),
                                   work, sends), label)

    def _perform(self, key: tuple, work: int, sends: tuple) -> None:
        self.last_key = key
        _spin(work)
        if sends:
            sink = self.held if self.speculating else self.outbox
            for dst, child in sends:
                if dst == self.shard:
                    self._inject(child)
                else:
                    sink.append((dst, child))

    def _rollback(self) -> None:
        snapshot, last_key, spec_count = self.checkpoint
        self.kernel.restore(snapshot)
        self.last_key = last_key
        self.held.clear()
        self.rollbacks += 1
        self.rolled_back_events += spec_count

    def round(self, horizon: float,
              incoming: list[ProgramEvent]) -> tuple:
        """One grant: merge *incoming*, run the window, speculate.

        Returns ``(outbox, floor_time, executed)`` where *floor_time*
        is this shard's contribution to the next global floor — the
        first speculatively executed event's time (the earliest state
        a rollback could rewind to), or the next pending time when the
        shard did not speculate.
        """
        t0 = process_time()
        kernel = self.kernel
        if self.checkpoint is not None:
            if incoming and min(pe[:3] for pe in incoming) \
                    < self.last_key:
                # straggler below the speculated segment: rewind
                self._rollback()
            else:
                # every delivery sorts after the speculation: commit
                self.outbox.extend(self.held)
                self.held.clear()
                self.committed_speculative += self.checkpoint[2]
            self.checkpoint = None
        for pe in incoming:
            self._inject(pe)
        # conservative window: every event at or below the horizon is
        # safe (cross-shard deliveries arrive strictly above it)
        self.speculating = False
        kernel.run(until=horizon)
        floor_time = kernel._next_time()
        # speculative window: run ahead one more lookahead span with
        # sends held back; the checkpoint is the rollback target
        if self.speculate and floor_time != NO_EVENTS \
                and floor_time <= horizon + self.lookahead:
            before = kernel.executed
            self.checkpoint = (kernel.snapshot(), self.last_key, 0)
            self.speculating = True
            kernel.run(until=horizon + self.lookahead)
            spec = kernel.executed - before
            self.checkpoint = (self.checkpoint[0], self.checkpoint[1],
                               spec)
            self.speculated += spec
        outbox = self.outbox
        self.outbox = []
        self.cpu += process_time() - t0
        return outbox, floor_time, kernel.executed

    def finish(self) -> dict[str, Any]:
        """Final report: the shard's committed trace slice + stats."""
        return {
            "shard": self.shard,
            "events": list(self.kernel.event_log),
            "executed": self.kernel.executed,
            # the last *executed* event's time, not the clock: window
            # runs advance the clock to the granted horizon even when
            # the tail of the window held no events
            "final_time": max(self.last_key[0], 0.0),
            "rollbacks": self.rollbacks,
            "rolled_back_events": self.rolled_back_events,
            "speculated": self.speculated,
            "committed_speculative": self.committed_speculative,
            "cpu_seconds": self.cpu,
        }


def _program_worker(conn, shard: int, events: tuple, lookahead: float,
                    speculate: bool, trace_events: bool) -> None:
    """Spawn entry point: serve grant rounds until told to finish."""
    engine = _WorkerEngine(shard, events, lookahead, speculate,
                           trace_events)
    try:
        while True:
            msg = conn.recv()
            try:
                if msg[0] == "grant":
                    outbox, floor_time, executed = engine.round(
                        msg[1], msg[2])
                    conn.send(("round", outbox,
                               None if floor_time == NO_EVENTS
                               else floor_time, executed))
                elif msg[0] == "finish":
                    conn.send(("result", engine.finish()))
                    return
                else:  # pragma: no cover - protocol guard
                    raise KernelError(f"unknown coordinator message "
                                      f"{msg[0]!r}")
            except Exception as exc:
                conn.send(("error",
                           f"shard {shard}: "
                           f"{type(exc).__name__}: {exc}"))
                return
    except EOFError:  # pragma: no cover - coordinator died
        return
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------

def _receive(proc, conn, timeout: float = REPLY_TIMEOUT) -> Any:
    """Wait for one reply from worker *proc*, never unboundedly.

    Polls *conn* every :data:`POLL_INTERVAL` seconds and checks the
    worker's exit code in between, so a worker that dies (during spawn
    bootstrap or mid-round) raises :class:`KernelError` naming it and
    its exit code instead of hanging the coordinator; a worker that
    stays alive but silent for *timeout* seconds raises too.
    """
    deadline = monotonic() + timeout
    while not conn.poll(POLL_INTERVAL):
        if proc.exitcode is not None:
            raise KernelError(
                f"worker {proc.name} exited with code {proc.exitcode} "
                "before replying")
        if monotonic() >= deadline:
            raise KernelError(
                f"worker {proc.name} sent no reply within {timeout}s")
    try:
        return conn.recv()
    except EOFError:
        proc.join(timeout=POLL_INTERVAL * 20)
        raise KernelError(
            f"worker {proc.name} closed its pipe (exit code "
            f"{proc.exitcode}) before replying") from None


def run_program_parallel(storm: ShardProgram, *,
                         speculate: bool = True,
                         trace_events: bool = True
                         ) -> ProgramRunResult:
    """Run *storm* on one spawned worker process per shard.

    The coordinator's merge is the only synchronization point: each
    round it gathers every worker's floor plus the in-flight message
    times, grants the conservative horizon ``floor + lookahead``, and
    ferries cross-shard sends.  The merged trace is byte-identical to
    :func:`run_program_sequential` at the same program.
    """
    ctx = multiprocessing.get_context("spawn")
    wall0 = perf_counter()
    workers = []
    try:
        for shard in range(storm.shards):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_program_worker,
                args=(child, shard, storm.programs[shard],
                      storm.lookahead, speculate, trace_events),
                name=f"repro-shard-{shard}")
            proc.start()
            child.close()
            workers.append((proc, parent))

        floors: list[float | None] = [
            min((pe[0] for pe in events), default=None)
            for events in storm.programs]
        inbox: list[list[ProgramEvent]] = \
            [[] for _ in range(storm.shards)]
        rounds = 0
        while True:
            pending = [f for f in floors if f is not None]
            pending.extend(pe[0] for msgs in inbox for pe in msgs)
            if not pending:
                break
            if rounds >= MAX_ROUNDS:
                raise KernelError(
                    f"parallel run exceeded {MAX_ROUNDS} rounds — "
                    f"the floor is not advancing (floor="
                    f"{min(pending)})")
            horizon = min(pending) + storm.lookahead
            for shard, (proc, conn) in enumerate(workers):
                conn.send(("grant", horizon, inbox[shard]))
                inbox[shard] = []
            for shard, (proc, conn) in enumerate(workers):
                reply = _receive(proc, conn)
                if reply[0] == "error":
                    raise KernelError(f"worker failed: {reply[1]}")
                tag, outbox, floor_time, executed = reply
                floors[shard] = floor_time
                for dst, pe in outbox:
                    inbox[dst].append(pe)
            rounds += 1

        results = []
        for proc, conn in workers:
            conn.send(("finish",))
            reply = _receive(proc, conn)
            if reply[0] == "error":
                raise KernelError(f"worker failed: {reply[1]}")
            results.append(reply[1])
        for proc, conn in workers:
            proc.join(timeout=60)
            conn.close()
    except BaseException:
        for proc, conn in workers:
            if proc.is_alive():
                proc.terminate()
        raise
    wall = perf_counter() - wall0

    results.sort(key=lambda r: r["shard"])
    merged = list(heap_merge(*(r["events"] for r in results)))
    executed = sum(r["executed"] for r in results)
    worker_cpu = [r["cpu_seconds"] for r in results]
    return ProgramRunResult(
        events=merged,
        final_time=max(r["final_time"] for r in results),
        executed=executed,
        stats={
            "mode": "parallel",
            "shards": storm.shards,
            "workers": storm.shards,
            "rounds": rounds,
            "lookahead": storm.lookahead,
            "speculate": speculate,
            "rollbacks": sum(r["rollbacks"] for r in results),
            "rolled_back_events": sum(r["rolled_back_events"]
                                      for r in results),
            "speculated": sum(r["speculated"] for r in results),
            "committed_speculative": sum(r["committed_speculative"]
                                         for r in results),
            "worker_cpu_seconds": worker_cpu,
            "max_worker_cpu_seconds": max(worker_cpu),
            "wall_seconds": wall,
        })


# ---------------------------------------------------------------------------
# replicated scenario mode: full worlds, per-shard trace slices
# ---------------------------------------------------------------------------

def _plain(report: Any) -> Any:
    """Reduce a runner report to a picklable, comparable form."""
    import dataclasses

    if dataclasses.is_dataclass(report) \
            and not isinstance(report, type):
        return {"__report__": type(report).__name__,
                **dataclasses.asdict(report)}
    return report


def _replicated_worker(conn, tables: dict, shards: int,
                       owned: tuple[int, ...]) -> None:
    """Spawn entry point: rebuild the scenario world from its tables,
    run it whole, return only the owned shards' trace slice."""
    try:
        from repro.scenario.compiler import compile_scenario
        from repro.scenario.schema import validate_scenario

        config = validate_scenario(tables)
        captured: list[Any] = []

        def hook(kernel: Any) -> None:
            kernel.shard_log = []
            captured.append(kernel)

        report = compile_scenario(config).run(shards=shards,
                                              on_kernel=hook)
        kernel = captured[-1]
        shard_log = kernel.shard_log or []
        events = [list(line) for line, shard
                  in zip(kernel.event_log, shard_log)
                  if shard in owned]
        conn.send(("ok", {
            "owned": owned,
            "events": events,
            "executed": len(kernel.event_log),
            "final_time": kernel.clock.now,
            "report": _plain(report),
        }))
    except BaseException as exc:  # surface the failure, don't hang
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def run_scenario_replicated(config: "ScenarioConfig",
                            shards: int | None = None,
                            workers: int | None = None
                            ) -> ProgramRunResult:
    """Run *config* on spawned workers, one full replica each.

    Every worker owns a slice of the shard range and contributes
    exactly its shards' events; the coordinator merges the slices into
    the full stream and asserts all replicas agreed on event count,
    final time and report — the cross-process determinism gate.
    """
    if shards is None:
        shards = config.shards
    if shards < 2:
        raise KernelError(
            f"replicated parallel execution needs shards >= 2 "
            f"(got {shards})")
    workers = min(workers or shards, shards)
    tables = config.as_tables()
    owned_slices = [tuple(range(w, shards, workers))
                    for w in range(workers)]

    ctx = multiprocessing.get_context("spawn")
    wall0 = perf_counter()
    procs = []
    try:
        for owned in owned_slices:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_replicated_worker,
                args=(child, tables, shards, owned),
                name=f"repro-replica-{owned[0]}")
            proc.start()
            child.close()
            procs.append((proc, parent))
        replies = []
        for proc, conn in procs:
            tag, payload = _receive(proc, conn)
            if tag != "ok":
                raise KernelError(f"replica worker failed: {payload}")
            replies.append(payload)
        for proc, conn in procs:
            proc.join(timeout=60)
            conn.close()
    except BaseException:
        for proc, conn in procs:
            if proc.is_alive():
                proc.terminate()
        raise
    wall = perf_counter() - wall0

    executed = {r["executed"] for r in replies}
    finals = {r["final_time"] for r in replies}
    reports = [r["report"] for r in replies]
    if len(executed) != 1 or len(finals) != 1 \
            or any(r != reports[0] for r in reports[1:]):
        raise KernelError(
            "replicas diverged before the merge: executed counts "
            f"{sorted(executed)}, final times {sorted(finals)} — "
            "the run is not deterministic across processes")
    merged = [tuple(line) for line in
              heap_merge(*(r["events"] for r in replies))]
    if len(merged) != executed.pop():
        raise KernelError(
            f"shard ownership did not partition the stream: merged "
            f"{len(merged)} of {replies[0]['executed']} events")
    return ProgramRunResult(
        events=merged,
        final_time=replies[0]["final_time"],
        executed=replies[0]["executed"],
        stats={
            "mode": "replicated",
            "shards": shards,
            "workers": workers,
            "report": reports[0],
            "wall_seconds": wall,
        })
