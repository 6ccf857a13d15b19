"""Recovery points with a journaled checkout log vs full images.

:class:`RecoveryManager` writes a point as a header record plus an
append-only checkout log.  :class:`FullImageRecovery` below is the
previous design — one deep-copied image of the whole context and
savepoint stack per point — and serves as the oracle: seeded random
DOP sessions drive a real client-TM, every point is taken by both, and
after every step both must restore the same context and savepoints.
"""

from __future__ import annotations

import random
from typing import Any

import pytest

from repro.net.network import Network, StableStorage
from repro.net.rpc import TransactionalRpc
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.sim.clock import SimClock
from repro.te.context import DopContext, SavepointStack
from repro.te.dop import DopState
from repro.te.locks import LockManager
from repro.te.recovery import RecoveryManager, RecoveryPointPolicy
from repro.te.transaction_manager import (
    ClientTM,
    ServerTM,
    register_server_endpoints,
)
from repro.util.ids import IdGenerator


class FullImageRecovery:
    """The whole-image recovery point: the oracle for the journal."""

    def __init__(self) -> None:
        self.stable = StableStorage()

    def take(self, dop_id: str, context: DopContext,
             savepoints: SavepointStack, taken_at: float,
             reason: str) -> None:
        self.stable.put(f"recovery-point:{dop_id}", {
            "taken_at": taken_at,
            "reason": reason,
            "context": context.snapshot(),
            "savepoints": savepoints.snapshot(),
        })

    def restore(self, dop_id: str) -> tuple[DopContext, SavepointStack,
                                            dict[str, Any]]:
        raw = self.stable.get(f"recovery-point:{dop_id}")
        return (DopContext.from_snapshot(raw["context"]),
                SavepointStack.from_snapshot(raw["savepoints"]), raw)


def image(context: DopContext, savepoints: SavepointStack
          ) -> dict[str, Any]:
    """Everything a restore must reproduce, in comparable form."""
    return {
        "data": dict(context.data),
        "tool_state": context.tool_state,
        "checked_out": list(context.checked_out),
        "work_done": context.work_done,
        "savepoint_names": savepoints.names(),
        "savepoints": savepoints.snapshot(),
    }


def assert_same_point(manager: RecoveryManager, oracle: FullImageRecovery,
                      dop_id: str) -> None:
    context, savepoints, point = manager.restore(dop_id)
    expected_context, expected_savepoints, raw = oracle.restore(dop_id)
    assert image(context, savepoints) \
        == image(expected_context, expected_savepoints)
    assert (point.taken_at, point.reason) == (raw["taken_at"],
                                              raw["reason"])


@pytest.fixture
def rig(monkeypatch):
    clock = SimClock()
    network = Network(clock)
    network.add_server()
    workstation = network.add_workstation("ws-1")
    rpc = TransactionalRpc(network)
    ids = IdGenerator()
    repo = DesignDataRepository(ids)
    repo.register_dot(DesignObjectType("Cell", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False),
        AttributeDef("pins", AttributeKind.INT, required=False)]))
    repo.create_graph("da-1")
    server_tm = ServerTM(repo, LockManager(), network, clock=clock)
    register_server_endpoints(rpc, server_tm)
    client = ClientTM("ws-1", server_tm, rpc, clock, ids,
                      policy=RecoveryPointPolicy(interval=30.0))
    dovs = [repo.checkin("da-1", "Cell", {"area": float(index),
                                          "pins": index}).dov_id
            for index in range(4)]
    oracle = FullImageRecovery()
    journaled_take = client.recovery.take

    def take_both(dop_id, context, savepoints, taken_at, reason):
        journaled_take(dop_id, context, savepoints, taken_at, reason)
        oracle.take(dop_id, context, savepoints, taken_at, reason)

    monkeypatch.setattr(client.recovery, "take", take_both)
    return {"client": client, "workstation": workstation,
            "dovs": dovs, "oracle": oracle}


def tool_step(rng: random.Random):
    """A tool mutation touching frozen data, mutable data and state."""
    key = f"k{rng.randrange(4)}"
    value = rng.randrange(100)

    def mutate(context: DopContext) -> None:
        context.data.setdefault("nets", []).append(value)
        context.data[key] = {"v": [value]}
        context.tool_state.setdefault("log", []).append(key)
        context.tool_state["iteration"] = \
            context.tool_state.get("iteration", 0) + 1
    return mutate


def drive(rig, seed: int, steps: int = 80) -> int:
    """One seeded random session; returns the points both took."""
    rng = random.Random(seed)
    client, oracle = rig["client"], rig["oracle"]
    dop = client.begin_dop("da-1", "tool")
    client.checkout(dop, rng.choice(rig["dovs"]))
    saves = 0
    for __ in range(steps):
        if dop.state is DopState.SUSPENDED:
            operation = rng.choice(["resume", "resume", "crash"])
        else:
            operation = rng.choice(
                ["checkout", "checkout", "checkout", "work", "work",
                 "save", "restore", "suspend", "crash"])
        if operation == "checkout":
            # duplicates on purpose: the log keeps every checkout
            client.checkout(dop, rng.choice(rig["dovs"]))
        elif operation == "work":
            client.work(dop, rng.uniform(5.0, 45.0), mutate=tool_step(rng))
        elif operation == "save":
            saves += 1
            client.save(dop, f"sp{saves}")
        elif operation == "restore" and len(dop.savepoints):
            names = dop.savepoints.names()
            client.restore(dop, rng.choice(names + [None]))
        elif operation == "suspend":
            client.suspend(dop)
        elif operation == "resume":
            client.resume(dop)
        elif operation == "crash":
            rig["workstation"].crash()
            rig["workstation"].restart()
            dop, __ = client.recover_dop(dop.dop_id, "da-1", "tool")
        assert_same_point(client.recovery, oracle, dop.dop_id)
    return client.recovery.points_taken


class TestJournalMatchesFullImage:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_sessions(self, rig, seed):
        points = drive(rig, seed)
        assert points > 20

    def test_commit_removes_header_and_log(self, rig):
        client = rig["client"]
        drive(rig, seed=99, steps=30)
        dop = client.active_dops()[0]
        if dop.state is DopState.SUSPENDED:
            client.resume(dop)
        client.commit_dop(dop)
        assert not client.recovery.has_point(dop.dop_id)
        assert client.node.stable.keys("recovery-") == []


class TestJournalEdgeCases:
    def test_restore_that_shortens_the_log_drops_entries(self, rig):
        client, dovs = rig["client"], rig["dovs"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, dovs[0])
        client.save(dop, "early")
        client.checkout(dop, dovs[1])
        client.checkout(dop, dovs[2])
        client.restore(dop, "early")
        client.work(dop, 30.0)           # interval point after Restore
        context, __, point = client.recovery.restore(dop.dop_id)
        assert point.reason == "interval"
        assert context.checked_out == [dovs[0]]
        # and the log grows again from the shortened list
        client.checkout(dop, dovs[3])
        context, __, __p = client.recovery.restore(dop.dop_id)
        assert context.checked_out == [dovs[0], dovs[3]]
        assert_same_point(client.recovery, rig["oracle"], dop.dop_id)

    def test_live_mutation_after_take_is_invisible(self):
        manager = RecoveryManager(StableStorage())
        context = DopContext(data={"nets": [1]}, tool_state={"s": [1]},
                             checked_out=["a"], work_done=3.0)
        savepoints = SavepointStack()
        savepoints.save("sp", context)
        manager.take("dop-1", context, savepoints, 1.0, "checkout")
        before = image(*manager.restore("dop-1")[:2])
        context.data["nets"].append(2)
        context.data["new"] = 1
        context.tool_state["s"].append(2)
        context.checked_out.append("b")
        context.work_done = 9.0
        savepoints.save("later", context)
        assert image(*manager.restore("dop-1")[:2]) == before
        # the next point then journals exactly the new entry
        manager.take("dop-1", context, savepoints, 2.0, "interval")
        restored, stack, __ = manager.restore("dop-1")
        assert restored.checked_out == ["a", "b"]
        assert stack.names() == ["sp", "later"]

    def test_restored_context_is_private(self):
        manager = RecoveryManager(StableStorage())
        context = DopContext(data={"nets": [1]}, checked_out=["a"])
        manager.take("dop-1", context, SavepointStack(), 1.0, "checkout")
        restored, __, __p = manager.restore("dop-1")
        restored.data["nets"].append(2)
        restored.checked_out.append("b")
        again, __, __p = manager.restore("dop-1")
        assert again.data["nets"] == [1]
        assert again.checked_out == ["a"]

    def test_point_appends_only_the_new_suffix(self):
        stable = StableStorage()
        manager = RecoveryManager(stable)
        context = DopContext(checked_out=["a"])
        manager.take("dop-1", context, SavepointStack(), 0.0, "checkout")
        writes = stable.writes
        context.checked_out.extend(["b", "c"])
        manager.take("dop-1", context, SavepointStack(), 1.0, "checkout")
        # two log appends plus one header put; no log rewrite
        assert stable.writes - writes == 3
        assert manager.points_taken == 2
        assert manager.restore("dop-1")[0].checked_out == ["a", "b", "c"]

    def test_replaced_list_rewrites_the_log(self):
        manager = RecoveryManager(StableStorage())
        context = DopContext(checked_out=["a", "b"])
        manager.take("dop-1", context, SavepointStack(), 0.0, "checkout")
        # same length, different list: a rewrite, not an append
        context.checked_out = ["x", "y", "z"]
        manager.take("dop-1", context, SavepointStack(), 1.0, "restore")
        assert manager.restore("dop-1")[0].checked_out == ["x", "y", "z"]

    def test_list_shortened_in_place_rewrites_the_log(self):
        manager = RecoveryManager(StableStorage())
        context = DopContext(checked_out=["a", "b", "c"])
        manager.take("dop-1", context, SavepointStack(), 0.0, "checkout")
        del context.checked_out[1:]
        manager.take("dop-1", context, SavepointStack(), 1.0, "interval")
        assert manager.restore("dop-1")[0].checked_out == ["a"]
        context.checked_out.append("d")
        manager.take("dop-1", context, SavepointStack(), 2.0, "checkout")
        assert manager.restore("dop-1")[0].checked_out == ["a", "d"]

    def test_log_entries_beyond_the_header_are_ignored(self):
        # a log append whose header never made it (a torn point) is
        # not part of the restored context
        stable = StableStorage()
        manager = RecoveryManager(stable)
        context = DopContext(checked_out=["a"])
        manager.take("dop-1", context, SavepointStack(), 0.0, "checkout")
        stable.append("recovery-log:dop-1", "torn")
        assert manager.restore("dop-1")[0].checked_out == ["a"]

    def test_crash_drops_the_volatile_journal(self, rig):
        client = rig["client"]
        dop = client.begin_dop("da-1", "tool")
        client.checkout(dop, rig["dovs"][0])
        assert dop.dop_id in client.recovery._journaled
        rig["workstation"].crash()
        assert client.recovery._journaled == {}
