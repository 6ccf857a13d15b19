"""Crash-after-every-operation check of the CM's per-record persistence.

The cooperation manager keeps one durable record per DA and
relationship and rewrites only the records an operation touched.  The
scenario below drives every CM operation — delegation, Require /
Propagate / invalidation / cascading withdrawal, the whole negotiation
protocol, specification modification and Finish_Top_Level — and after
each one crashes and restarts the server: the recovered CM must equal
the live one, registry insertion order included.
"""

from __future__ import annotations

import dataclasses
import types
from enum import Enum
from typing import Any

import pytest

from repro.bench.scenarios import chip_spec, make_vlsi_system
from repro.core.features import RangeFeature
from repro.core.states import DaOperation, DaState
from repro.dc.script import DopStep, Script, Sequence
from repro.repository.schema import DesignObjectType
from repro.vlsi.tools import vlsi_dots

NOOP = Script(Sequence(DopStep("structure_synthesis")), "noop")


def module_data(width: float, height: float | None = None) -> dict:
    height = width if height is None else height
    return {"cell": "m", "level": "module", "width": width,
            "height": height, "area": width * height}


def canon(value: Any) -> Any:
    """A comparable form of a CM record: order-preserving for dicts
    and lists, order-free for sets, DOTs by name."""
    if isinstance(value, DesignObjectType):
        return ("DOT", value.name)
    if isinstance(value, Enum):
        return value.value
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, (types.FunctionType, types.BuiltinFunctionType,
                          types.MethodType)):
        return value
    if isinstance(value, dict):
        return [(canon(k), canon(v)) for k, v in value.items()]
    if isinstance(value, (set, frozenset)):
        return ("set", sorted(repr(canon(v)) for v in value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [canon(v) for v in value])
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                [(f.name, canon(getattr(value, f.name)))
                 for f in dataclasses.fields(value)])
    return (type(value).__name__, canon(vars(value)))


def cm_state(system) -> dict[str, Any]:
    """Everything the CM must bring back after a server crash."""
    cm = system.cm
    return {
        "das": canon(cm._das),
        "delegations": canon(cm._delegations),
        "usages": canon(cm._usages),
        "negotiations": canon(cm._negotiations),
        "visibility": canon(cm._visibility),
        "inboxes": canon(cm._inboxes),
        "scope_locks": {da_id: sorted(system.locks.scope_of(da_id))
                        for da_id in cm._das},
    }


class CrashingRig:
    """Runs CM operations, crashing and recovering the server after each."""

    def __init__(self) -> None:
        self.system = make_vlsi_system(("ws-1", "ws-2", "ws-3", "ws-4"))
        self.dots = vlsi_dots()
        self.steps: list[str] = []
        self.top: Any = None

    @property
    def cm(self):
        return self.system.cm

    def checkin(self, da, width, parents=()):
        return self.system.repository.checkin(
            da.da_id, "Module", module_data(width),
            parents=parents).dov_id

    def do(self, name: str, operation, *args, **kwargs) -> Any:
        result = operation(*args, **kwargs)
        live = cm_state(self.system)
        self.system.crash_server()
        assert self.cm.das() == []
        self.system.restart_server()
        recovered = cm_state(self.system)
        for part in live:
            assert recovered[part] == live[part], (name, part)
        self.steps.append(name)
        return result

    def da(self, da) -> Any:
        """The DA object as the (possibly recovered) CM holds it now."""
        return self.cm.da(da.da_id)


@pytest.fixture(scope="module")
def driven() -> CrashingRig:
    d = CrashingRig()
    system, dots = d.system, d.dots

    top = d.do("Init_Design", system.init_design, dots["Chip"],
               chip_spec(100, 100), "lead", NOOP, "ws-1",
               initial_data={"cell": "chip", "level": "chip",
                             "behavior": {"operations": ["a", "b", "c"]}})
    d.do("Start", system.start, top.da_id)
    top_dov0 = d.da(top).vector.initial_dov
    subs = {}
    for name, workstation in (("a", "ws-2"), ("b", "ws-3"),
                              ("c", "ws-4")):
        subs[name] = d.do("Create_Sub_DA", system.create_sub_da,
                          top.da_id, dots["Module"], chip_spec(50, 50),
                          name, NOOP, workstation,
                          initial_dov=top_dov0 if name == "a" else None)
        d.do("Start", d.cm.start, subs[name].da_id)
    a, b, c = subs["a"], subs["b"], subs["c"]

    # usage: b requires from a, a pre-releases, b derives and passes on
    a1, a2 = d.checkin(a, 10.0), d.checkin(a, 12.0)
    d.do("Evaluate", d.cm.evaluate, a.da_id, a1)
    d.do("Evaluate", d.cm.evaluate, a.da_id, a2)
    d.do("Require", d.cm.require, b.da_id, a.da_id, {"width-limit"})
    d.cm.pop_messages(a.da_id, "require")   # flushed with the next op
    d.do("Propagate", d.cm.propagate, a.da_id, a1)
    b1 = d.checkin(b, 11.0, parents=(a1,))
    d.do("Require", d.cm.require, c.da_id, b.da_id, {"width-limit"})
    d.do("Propagate", d.cm.propagate, b.da_id, b1)
    d.do("Invalidate", d.cm.invalidate_propagation, a.da_id, a1)
    b2 = d.checkin(b, 13.0, parents=(a2,))
    d.do("Propagate", d.cm.propagate, b.da_id, b2)
    d.do("Withdraw", d.cm.withdraw, a.da_id, a2, cascade=True)

    # negotiation between the siblings a and b, then a dynamic one b-c
    negotiation = d.do("Create_Negotiation_Relationship",
                       d.cm.create_negotiation_relationship,
                       top.da_id, a.da_id, b.da_id, subject="border")

    def border(a_width):
        return {a.da_id: [RangeFeature("width-limit", "width",
                                       hi=a_width)],
                b.da_id: [RangeFeature("width-limit", "width",
                                       hi=100.0 - a_width)]}

    first = d.do("Propose", d.cm.propose, a.da_id, b.da_id, border(70.0))
    d.do("Disagree", d.cm.disagree, b.da_id, first.proposal_id)
    second = d.do("Propose", d.cm.propose, a.da_id, b.da_id, border(60.0))
    d.do("Agree", d.cm.agree, b.da_id, second.proposal_id)
    d.do("Propose", d.cm.propose, a.da_id, b.da_id, border(65.0))
    d.do("Sub_DAs_Specification_Conflict",
         d.cm.sub_das_specification_conflict, a.da_id,
         negotiation.negotiation_id)
    dynamic = d.do("Propose", d.cm.propose, b.da_id, c.da_id,
                   {c.da_id: [RangeFeature("height-limit", "height",
                                           hi=45.0)]})
    d.do("Agree", d.cm.agree, c.da_id, dynamic.proposal_id)

    # the super-DA reformulates goals: b loses b1's width feature (the
    # delivery to c is withdrawn); c reports an impossible goal first
    d.do("Modify_Sub_DA_Specification", d.cm.modify_sub_da_specification,
         top.da_id, b.da_id, chip_spec(10, 50))
    d.do("Sub_DA_Impossible_Specification",
         d.cm.sub_da_impossible_specification, c.da_id, "too tight")
    d.do("Modify_Sub_DA_Specification", d.cm.modify_sub_da_specification,
         top.da_id, c.da_id, chip_spec(40, 40))

    # every sub-DA reaches a final DOV and is terminated by the super
    for sub in (a, b, c):
        final = d.checkin(sub, 5.0)
        d.do("Evaluate", d.cm.evaluate, sub.da_id, final)
        d.do("Sub_DA_Ready_To_Commit", d.cm.sub_da_ready_to_commit,
             sub.da_id)
        d.cm.pop_messages(top.da_id)
        d.do("Terminate_Sub_DA", d.cm.terminate_sub_da, top.da_id,
             sub.da_id)
    d.do("Finish_Top_Level", d.cm.finish_top_level, top.da_id)
    d.top = top
    return d


def test_recovered_cm_equals_live_after_every_operation(driven):
    # the assertions run inside the rig; here: it covered everything
    logged = {record.payload["op"] for record in driven.cm.log}
    assert logged == {op.value for op in DaOperation}
    assert {"Invalidate", "Withdraw", "Finish_Top_Level"} \
        <= set(driven.steps)
    assert all(da.state is DaState.TERMINATED for da in driven.cm.das())


def test_cascade_and_negotiation_state_survived(driven):
    cm = driven.cm
    usages = cm.usages()
    assert any(u.withdrawn for u in usages)
    assert len(cm.negotiations_of(driven.top.da_id)) == 0
    escalated = [n for n in cm._negotiations.values() if n.escalations]
    assert len(escalated) == 1 and escalated[0].closed


def test_recovered_da_dot_is_the_catalog_dot(driven):
    repository = driven.system.repository
    for da in driven.cm.das():
        assert da.dot is repository.dot(da.dot.name)


def test_stored_record_is_not_a_live_reference():
    system = make_vlsi_system(("ws-1",))
    top = system.init_design(vlsi_dots()["Chip"], chip_spec(100, 100),
                             "lead", NOOP, "ws-1")
    system.start(top.da_id)
    stable = system.server.stable
    stored = canon(stable.get(f"cm/da/{top.da_id}"))

    top.propagated.append("dov-x")
    top.quality.clear()
    top.machine.history.clear()
    top.vector.designer = "someone else"

    assert canon(stable.get(f"cm/da/{top.da_id}")) == stored
    # the record names the DOT; the catalog holds the object itself
    assert stable.get(f"cm/da/{top.da_id}")["value"].vector.dot == "Chip"


def test_persist_rewrites_only_touched_records():
    system = make_vlsi_system(("ws-1", "ws-2"))
    dots = vlsi_dots()
    top = system.init_design(dots["Chip"], chip_spec(100, 100), "lead",
                             NOOP, "ws-1")
    system.start(top.da_id)
    subs = [system.create_sub_da(top.da_id, dots["Module"],
                                 chip_spec(50, 50), f"s{i}", NOOP, "ws-2")
            for i in range(8)]
    stable = system.server.stable
    writes = stable.writes
    system.start(subs[-1].da_id)
    # one DA record, whatever the hierarchy's size
    assert stable.writes - writes == 1
