"""Which program functions the traced run wraps, and the per-layer
metrics computed from the spans and counters it records.

Layers are the ``src/repro`` packages.  Every span name starts with
its layer (``core.``, ``net.``, ``te.``, ``txn.``, ``repository.``,
``sim.``, ``dc.``, ``vlsi.``).  Code that is not wrapped — the
scenario drivers' event callbacks, unwrapped helpers — counts as self
time of the innermost wrapped call around it, usually ``sim.run``.
"""

from __future__ import annotations

from statistics import median
from typing import Any

from tracer import RunTrace, Span, Target, outermost, self_times, \
    tail_rank

# -- after-hooks: counters that need the receiver or the result ----------


def _failed_checkin(tracer, args, result) -> None:
    tracer.count("te.checkin.failed", 0 if result.success else 1)


def _decision_log_size(tracer, args, result) -> None:
    tracer.peak("txn.decision_log.peak_records", len(args[0].wal))


def _wal_size(tracer, args, result) -> None:
    tracer.peak("repository.wal.peak_records", len(args[0]))


_CM = "repro.core.cooperation_manager"
_TM = "repro.te.transaction_manager"
_REPO = "repro.repository.repository"
_FED = "repro.repository.federation"

#: the DA operations of the cooperation manager (each persists CM state)
CM_OPERATIONS = (
    "init_design", "create_sub_da", "start", "evaluate",
    "sub_da_ready_to_commit", "sub_da_impossible_specification",
    "modify_sub_da_specification", "terminate_sub_da",
    "finish_top_level", "require", "propagate", "invalidate_propagation",
    "withdraw", "create_negotiation_relationship", "propose", "agree",
    "disagree", "sub_das_specification_conflict", "recover")

#: the Fig.2 tool functions of the VLSI domain
VLSI_TOOLS = (
    "structure_synthesis", "repartitioning", "shape_function_generator",
    "pad_frame_editor", "chip_planner_tool", "cell_synthesis",
    "chip_assembly")

#: the checkin probe every run of the benchmark carries
CHECKIN_PROBE = Target(_TM, "ClientTM", "checkin", "te.checkin",
                       after=_failed_checkin)

TARGETS: list[Target] = [
    *(Target(_CM, "CooperationManager", op, "core.cm")
      for op in CM_OPERATIONS),
    Target(_CM, "CooperationManager", "_persist", "core.cm.persist"),
    Target("repro.net.rpc", "TransactionalRpc", "call", "net.rpc"),
    Target("repro.net.network", "StableStorage", "put", "net.stable.put"),
    Target("repro.net.network", "StableStorage", "get", "net.stable.get"),
    Target("repro.net.two_phase_commit", "TwoPhaseCoordinator",
           "execute", "net.2pc"),
    Target("repro.net.two_phase_commit", "TwoPhaseCoordinator",
           "_log_decision", "net.2pc.log_decision"),
    Target(_TM, "ClientTM", "checkout", "te.checkout"),
    CHECKIN_PROBE,
    Target(_TM, "ClientTM", "flush", "te.flush"),
    Target(_TM, "ServerTM", "revalidate_buffers", "te.revalidate"),
    Target("repro.te.recovery", "RecoveryManager", "take",
           "te.recovery_point"),
    Target("repro.txn.gateway", "CommitGateway", "single_checkin",
           "txn.single_checkin"),
    Target("repro.txn.gateway", "CommitGateway", "group_checkin",
           "txn.group_checkin"),
    *(Target("repro.txn.decision_log", "GlobalDecisionLog", method,
             "txn.decision_log", after=_decision_log_size)
      for method in ("record", "mark_complete", "checkpoint", "recover")),
    *(Target(_REPO, "DesignDataRepository", method, "repository.commit")
      for method in ("commit_checkin", "commit_group", "complete_group",
                     "redo_group")),
    Target(_REPO, "DesignDataRepository", "recover",
           "repository.recover"),
    Target(_FED, "FederatedRepository", "commit_group",
           "repository.fed_commit"),
    *(Target(_FED, "FederatedRepository", method, "repository.recover")
      for method in ("recover_member", "resolve_incomplete",
                     "recover_coordinator")),
    Target("repro.repository.wal", "WriteAheadLog", "force",
           "repository.wal.force", after=_wal_size),
    Target("repro.sim.kernel", "Kernel", "run", "sim.run"),
    *(Target("repro.dc.design_manager", "DesignManager", method, "dc.dm")
      for method in ("step", "start_step", "finish_step", "recover")),
    Target("repro.dc.rules", "RuleEngine", "dispatch", "dc.rules"),
    *(Target("repro.vlsi.tools", None, tool, "vlsi.tool")
      for tool in VLSI_TOOLS),
]

#: classes whose instances a traced run remembers for their counters
TRACKED: list[tuple[str, str]] = [
    ("repro.net.network", "Network"),
    ("repro.te.object_buffer", "ObjectBuffer"),
    ("repro.txn.leases", "LeaseTable"),
    ("repro.sim.kernel", "Kernel"),
    ("repro.dc.rules", "RuleEngine"),
    ("repro.repository.wal", "WriteAheadLog"),
]

#: per-layer metric name -> unit, in report order
UNITS: dict[str, str] = {
    "core.cm.ops": "count",
    "core.cm.op_p50_us": "us",
    "core.cm.op_tail_us": "us",
    "core.cm.self_s": "s",
    "core.cm.span_share": "ratio",
    "core.cm.persist_puts": "count",
    "core.cm.persist_s": "s",
    "net.rpc.calls": "count",
    "net.rpc_p50_us": "us",
    "net.rpc_tail_us": "us",
    "net.stable.puts": "count",
    "net.stable.put_s": "s",
    "net.stable.copy_skip_share": "ratio",
    "net.stable.server_keys_end": "count",
    "net.2pc.decisions": "count",
    "net.2pc.log_decision_s": "s",
    "net.messages": "count",
    "net.lan_bytes_per_op": "bytes",
    "te.checkout.calls": "count",
    "te.checkout_p50_us": "us",
    "te.checkout_tail_us": "us",
    "te.checkin.calls": "count",
    "te.checkin_p50_us": "us",
    "te.checkin_tail_us": "us",
    "te.buffer.hit_rate": "ratio",
    "te.recovery_point.calls": "count",
    "te.recovery_point.s": "s",
    "te.flush.calls": "count",
    "te.flush.s": "s",
    "te.coalesced_share": "ratio",
    "te.revalidate.s": "s",
    "txn.single_checkin_p50_us": "us",
    "txn.single_checkin_tail_us": "us",
    "txn.group_checkin.calls": "count",
    "txn.group_checkin.s": "s",
    "txn.lease.renewals": "count",
    "txn.lease.expiries": "count",
    "txn.decision_log.peak_records": "count",
    "txn.decision_log.s": "s",
    "repository.commit.calls": "count",
    "repository.commit.s": "s",
    "repository.wal.forces": "count",
    "repository.wal.peak_records": "count",
    "repository.fed_commit_p50_us": "us",
    "repository.fed_commit_tail_us": "us",
    "repository.recover.s": "s",
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.events_per_self_s": "events/s",
    "sim.makespan_s": "s",
    "dc.rule_fires": "count",
    "dc.self_s": "s",
    "vlsi.tool_calls": "count",
    "vlsi.self_s": "s",
    "trace.overhead_share": "ratio",
}


class _Index:
    """Spans of one run grouped by name, with self times."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.own = self_times(spans)
        self.by_name: dict[str, list[int]] = {}
        for index, span in enumerate(spans):
            self.by_name.setdefault(span.name, []).append(index)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total_s(self, name: str) -> float:
        """Inclusive time of the outermost *name* spans."""
        spans = self.spans
        return sum(spans[i].end - spans[i].start
                   for i in outermost(spans, name)
                   if spans[i].name == name)

    def self_s(self, prefix: str) -> float:
        return sum(own for span, own in zip(self.spans, self.own)
                   if span.name.startswith(prefix))

    def latency_us(self, name: str) -> tuple[float, float]:
        """(p50, tail) of the outermost *name* calls, in microseconds."""
        spans = self.spans
        durations = sorted(
            (spans[i].end - spans[i].start) * 1e6
            for i in outermost(spans, name) if spans[i].name == name)
        if not durations:
            return 0.0, 0.0
        rank = tail_rank(len(durations))
        return (median(durations),
                durations[rank] if rank is not None else durations[-1])


def _instances(trace: RunTrace, key: str) -> list[Any]:
    """Distinct instances of one tracked class."""
    seen: dict[int, Any] = {}
    for obj in trace.instances.get(key, ()):
        seen.setdefault(id(obj), obj)
    return list(seen.values())


def layer_metrics(trace: RunTrace, wall_s: float, ops: int,
                  model: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced run (except the overhead).

    *wall_s* is the traced run's wall time, *ops* its plan op count
    and *model* the run's simulated makespan and LAN bytes (absent on
    runs outside the kernel).
    """
    from repro.net.network import NodeKind

    idx = _Index(trace.spans)
    counters = trace.counters
    networks = _instances(trace, "repro.net.network.Network")
    buffers = _instances(trace, "repro.te.object_buffer.ObjectBuffer")
    leases = [t.stats() for t in
              _instances(trace, "repro.txn.leases.LeaseTable")]
    kernels = _instances(trace, "repro.sim.kernel.Kernel")
    engines = _instances(trace, "repro.dc.rules.RuleEngine")
    wals = _instances(trace, "repro.repository.wal.WriteAheadLog")

    m: dict[str, float] = {}
    m["core.cm.ops"] = idx.calls("core.cm")
    m["core.cm.op_p50_us"], m["core.cm.op_tail_us"] = \
        idx.latency_us("core.cm")
    m["core.cm.self_s"] = idx.self_s("core.cm")
    m["core.cm.span_share"] = \
        sum(trace.spans[i].end - trace.spans[i].start
            for i in outermost(trace.spans, "core.cm")) / wall_s
    m["core.cm.persist_puts"] = idx.calls("core.cm.persist")
    m["core.cm.persist_s"] = idx.total_s("core.cm.persist")

    m["net.rpc.calls"] = idx.calls("net.rpc")
    m["net.rpc_p50_us"], m["net.rpc_tail_us"] = idx.latency_us("net.rpc")
    puts, gets = idx.calls("net.stable.put"), idx.calls("net.stable.get")
    m["net.stable.puts"] = puts
    m["net.stable.put_s"] = idx.total_s("net.stable.put")
    copies_saved = sum(node.stable.copies_saved for net in networks
                       for node in net.nodes())
    m["net.stable.copy_skip_share"] = \
        copies_saved / (puts + gets) if puts + gets else 0.0
    m["net.stable.server_keys_end"] = sum(
        len(node.stable) for net in networks
        for node in net.nodes(NodeKind.SERVER))
    m["net.2pc.decisions"] = idx.calls("net.2pc")
    m["net.2pc.log_decision_s"] = idx.total_s("net.2pc.log_decision")
    m["net.messages"] = sum(net.traffic_stats()["messages_sent"]
                            for net in networks)
    m["net.lan_bytes_per_op"] = model.get("lan_bytes", 0) / ops

    checkins = idx.calls("te.checkin")
    m["te.checkout.calls"] = idx.calls("te.checkout")
    m["te.checkout_p50_us"], m["te.checkout_tail_us"] = \
        idx.latency_us("te.checkout")
    m["te.checkin.calls"] = checkins
    m["te.checkin_p50_us"], m["te.checkin_tail_us"] = \
        idx.latency_us("te.checkin")
    hits = sum(b.hits for b in buffers)
    looked_up = hits + sum(b.misses for b in buffers)
    m["te.buffer.hit_rate"] = hits / looked_up if looked_up else 0.0
    m["te.recovery_point.calls"] = idx.calls("te.recovery_point")
    m["te.recovery_point.s"] = idx.total_s("te.recovery_point")
    m["te.flush.calls"] = idx.calls("te.flush")
    m["te.flush.s"] = idx.total_s("te.flush")
    m["te.coalesced_share"] = \
        sum(b.coalesced for b in buffers) / checkins if checkins else 0.0
    m["te.revalidate.s"] = idx.total_s("te.revalidate")

    m["txn.single_checkin_p50_us"], m["txn.single_checkin_tail_us"] = \
        idx.latency_us("txn.single_checkin")
    m["txn.group_checkin.calls"] = idx.calls("txn.group_checkin")
    m["txn.group_checkin.s"] = idx.total_s("txn.group_checkin")
    m["txn.lease.renewals"] = sum(s["renewals"] for s in leases)
    m["txn.lease.expiries"] = sum(s["expirations"] for s in leases)
    m["txn.decision_log.peak_records"] = \
        counters.get("txn.decision_log.peak_records", 0)
    m["txn.decision_log.s"] = idx.total_s("txn.decision_log")

    m["repository.commit.calls"] = idx.calls("repository.commit")
    m["repository.commit.s"] = idx.total_s("repository.commit")
    m["repository.wal.forces"] = sum(w.forced_writes for w in wals)
    m["repository.wal.peak_records"] = \
        counters.get("repository.wal.peak_records", 0)
    m["repository.fed_commit_p50_us"], m["repository.fed_commit_tail_us"] \
        = idx.latency_us("repository.fed_commit")
    m["repository.recover.s"] = idx.total_s("repository.recover")

    events = sum(k.executed for k in kernels)
    sim_self = idx.self_s("sim.")
    m["sim.events"] = events
    m["sim.self_s"] = sim_self
    m["sim.events_per_self_s"] = events / sim_self if sim_self else 0.0
    m["sim.makespan_s"] = model.get("makespan", 0.0)

    m["dc.rule_fires"] = sum(len(e.firings) for e in engines)
    m["dc.self_s"] = idx.self_s("dc.")
    m["vlsi.tool_calls"] = idx.calls("vlsi.tool")
    m["vlsi.self_s"] = idx.self_s("vlsi.")
    return m
