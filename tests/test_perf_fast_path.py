"""Zero-copy hot paths: frozen payloads, cached sizing, determinism.

The acceptance surface of the frozen-payload hot path:

* a DOV pays exactly **one** recursive walk over its lifetime (the
  freeze at construction); every later sizing/copy is O(1) — asserted
  through the :func:`repro.repository.versions.payload_walks` hook;
* the downstream short-circuits really engage: WAL appends and stable
  storage share frozen payloads instead of deep-copying, context
  snapshots are copy-on-write, buffer rebind reuses the cached size;
* the scheduler's ``pending`` is an O(1) counter with unchanged
  semantics under cancel/execute/discard interleavings.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.reference import DeepcopyPayloads
from repro.net.network import StableStorage, _is_immutable
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.repository.versions import (
    DesignObjectVersion,
    FrozenDict,
    FrozenList,
    freeze_payload,
    is_frozen_payload,
    payload_sizeof,
    payload_walks,
)
from repro.repository.wal import LogRecordKind, WriteAheadLog
from repro.sim.clock import SimClock
from repro.sim.scheduler import EventScheduler
from repro.te.context import DopContext
from repro.te.object_buffer import ObjectBuffer


def nested_payload() -> dict:
    return {"name": "cell", "meta": {"rev": 1, "tags": ["a", "b"]},
            "tree": {f"n{i}": {"v": i, "s": "x" * 8} for i in range(6)}}


def walks() -> int:
    counts = payload_walks()
    return counts["sizeof"] + counts["freeze"]


class TestFrozenContainers:
    def test_freeze_types_and_equality(self):
        raw = {"a": [1, {"b": 2}], "s": {3, 4}, "t": (5, [6]),
               "by": bytearray(b"xy"), "n": None}
        frozen = freeze_payload(raw)
        assert type(frozen) is FrozenDict
        assert isinstance(frozen, dict)
        assert type(frozen["a"]) is FrozenList
        assert isinstance(frozen["a"], list)
        assert type(frozen["a"][1]) is FrozenDict
        assert type(frozen["s"]) is frozenset
        assert type(frozen["t"]) is tuple
        assert type(frozen["t"][1]) is FrozenList
        assert frozen["by"] == b"xy"
        # equality with the plain originals holds (dict/list subclasses)
        assert frozen["a"] == [1, {"b": 2}]
        assert frozen == {"a": [1, {"b": 2}], "s": frozenset({3, 4}),
                          "t": (5, [6]), "by": b"xy", "n": None}

    def test_frozen_containers_reject_mutation(self):
        frozen = freeze_payload({"a": [1], "b": {"c": 2}})
        for attack in (
            lambda: frozen.__setitem__("x", 1),
            lambda: frozen.pop("a"),
            lambda: frozen.update({"x": 1}),
            lambda: frozen.setdefault("x", 1),
            lambda: frozen.clear(),
            lambda: frozen["a"].append(2),
            lambda: frozen["a"].__setitem__(0, 9),
            lambda: frozen["a"].sort(),
            lambda: frozen["b"].__delitem__("c"),
        ):
            with pytest.raises(TypeError):
                attack()

    def test_deepcopy_returns_the_same_object(self):
        frozen = freeze_payload(nested_payload())
        assert copy.deepcopy(frozen) is frozen
        assert copy.copy(frozen) is frozen
        assert copy.deepcopy(frozen["tree"]) is frozen["tree"]
        # a mutable dict *containing* frozen values copies the shell
        # and shares the frozen members
        shell = {"payload": frozen, "mine": [1]}
        image = copy.deepcopy(shell)
        assert image is not shell
        assert image["payload"] is frozen
        assert image["mine"] is not shell["mine"]

    def test_sizeof_matches_the_unfrozen_walk(self):
        raw = nested_payload()
        frozen = freeze_payload(raw)
        # the frozen answer is the cached stamp; the plain dict walks
        assert payload_sizeof(frozen) == payload_sizeof(raw)

    def test_json_round_trip(self):
        raw = {"a": [1, 2], "b": {"c": "x"}}
        assert json.loads(json.dumps(freeze_payload(raw))) == raw

    def test_unknown_mutable_objects_are_copied_not_shared(self):
        # out-of-model objects are opaque scalars to the cost model,
        # but they may be mutable — the freeze must copy them so no
        # live reference reaches into a "frozen" payload
        class Blob:
            def __init__(self) -> None:
                self.cells = ["a"]

        blob = Blob()
        frozen = freeze_payload({"blob": blob})
        assert frozen["blob"] is not blob
        blob.cells.append("b")
        assert frozen["blob"].cells == ["a"]
        assert payload_sizeof(frozen) == payload_sizeof({"blob": blob})

    def test_directly_constructed_containers_carry_real_sizes(self):
        # not just the freeze walk: a FrozenDict/FrozenList built by
        # hand must stamp its true modelled size, never a stale zero
        by_hand = FrozenDict({"a": "xxxx", "b": 1})
        assert payload_sizeof(by_hand) == payload_sizeof(
            {"a": "xxxx", "b": 1})
        as_list = FrozenList([1, "xy"])
        assert payload_sizeof(as_list) == payload_sizeof([1, "xy"])
        assert payload_sizeof(FrozenDict()) == 0

    def test_checked_out_vlsi_structure_survives_repartitioning(self):
        # tools must be copy-on-write over checked-out (frozen) state
        from repro.vlsi.tools import repartitioning, structure_synthesis

        producer = DopContext(data={"cell": "cud", "behavior": {
            "operations": ["alu", "mul", "io"]}})
        structure_synthesis(producer, {"seed": 1})
        dov = DesignObjectVersion("dov-1", "Cell", dict(producer.data),
                                  "da-1", 0.0)
        consumer = DopContext()
        consumer.data.update(dov.copy_data())  # the checkout install
        repartitioning(consumer, {"groups": 2})
        partitions = consumer.data["structure"]["partitions"]
        assert sorted(sum(partitions, [])) \
            == sorted(dov.data["structure"]["subcells"])
        assert "partitions" not in dov.data["structure"]  # untouched

    def test_schema_validation_accepts_frozen_payloads(self):
        dot = DesignObjectType("Cell", attributes=[
            AttributeDef("name", AttributeKind.STRING),
            AttributeDef("tree", AttributeKind.JSON),
        ])
        frozen = freeze_payload({"name": "c", "tree": {"kids": [1, 2]}})
        assert dot.validate(frozen) == []


class TestOneWalkPerDov:
    def test_freeze_walk_happens_once(self):
        before = walks()
        dov = DesignObjectVersion("dov-1", "Cell", nested_payload(),
                                  "da-1", 0.0)
        assert walks() == before + 1  # the construction freeze
        for _ in range(5):
            assert dov.payload_size == dov.payload_size
        assert dov.copy_data() is dov.data
        assert payload_sizeof(dov.data) == dov.payload_size
        assert walks() == before + 1  # ... and nothing since

    def test_compat_path_recomputes_like_the_seed(self):
        # the deepcopy-payload perf reference keeps the pre-freeze
        # cost: a plain payload re-walked on every size query
        size = payload_sizeof(nested_payload())
        reference = DeepcopyPayloads(nested_payload(), copies=0, walks=1)
        before = walks()
        assert reference.pay(2) == 2 * size
        assert walks() == before + 2  # one full walk per access

    def test_buffer_admission_reuses_the_cached_size(self):
        dov = DesignObjectVersion("dov-1", "Cell", nested_payload(),
                                  "da-1", 0.0)
        buffer = ObjectBuffer("ws-1")
        before = walks()
        entry = buffer.put(dov, "da-1")
        assert entry.size == dov.payload_size
        assert walks() == before

    def test_rebind_keeps_the_resident_size_without_a_walk(self):
        provisional = DesignObjectVersion("wb-1", "Cell",
                                          nested_payload(), "da-1", 0.0)
        buffer = ObjectBuffer("ws-1")
        buffer.put_dirty(provisional, "da-1",
                         {"provisional_id": "wb-1", "da_id": "da-1",
                          "dot_name": "Cell", "data": provisional.data,
                          "parents": [], "dop_id": "dop-1"})
        # the server adopts the shipped frozen payload, so the durable
        # version *shares* it — rebind must not re-size anything
        durable = DesignObjectVersion("dov-9", "Cell", provisional.data,
                                      "da-1", 1.0)
        size_before = buffer.entry("wb-1").size
        before = walks()
        assert buffer.rebind({"wb-1": durable}) == 1
        entry = buffer.entry("dov-9")
        assert entry.size == size_before
        assert not entry.dirty
        assert walks() == before


class TestStorageShortCircuits:
    def test_wal_append_shares_frozen_payload_values(self):
        wal = WriteAheadLog()
        frozen = freeze_payload(nested_payload())
        payload = {"dov_id": "d1", "data": frozen, "parents": ["p1"]}
        record = wal.append(LogRecordKind.DOV_CHECKIN, payload)
        assert record.payload["data"] is frozen
        assert wal.copies_saved == 1
        # mutable values still get the defensive deep copy: a caller
        # mutating its request after the append cannot rewrite history
        payload["parents"].append("p2")
        assert record.payload["parents"] == ["p1"]

    def test_stable_storage_marker_short_circuit(self):
        frozen = freeze_payload(nested_payload())
        assert _is_immutable(frozen)
        store = StableStorage()
        store.put("k", frozen)
        assert store.get("k") is frozen
        assert store.copies_saved == 2  # put + get both skipped

    def test_recovered_dov_shares_the_logged_frozen_payload(self):
        repository = DesignDataRepository()
        repository.register_dot(DesignObjectType("Cell", attributes=[
            AttributeDef("name", AttributeKind.STRING),
            AttributeDef("meta", AttributeKind.JSON),
            AttributeDef("tree", AttributeKind.JSON),
        ]))
        repository.create_graph("da-1")
        dov = repository.checkin("da-1", "Cell", nested_payload(), ())
        frozen = dov.data
        repository.crash()
        before = walks()
        repository.recover()
        assert repository.read(dov.dov_id).data is frozen
        assert walks() == before  # redo adopted, never re-walked


class TestContextCopyOnWrite:
    def test_snapshot_shares_frozen_and_copies_mutable(self):
        dov = DesignObjectVersion("dov-1", "Cell", nested_payload(),
                                  "da-1", 0.0)
        context = DopContext()
        context.data.update(dov.copy_data())
        context.data["scratch"] = {"mine": [1]}
        snap = context.snapshot()
        assert snap["data"]["tree"] is context.data["tree"]
        assert snap["data"]["scratch"] is not context.data["scratch"]
        context.data["scratch"]["mine"].append(2)
        assert snap["data"]["scratch"] == {"mine": [1]}
        rebuilt = DopContext.from_snapshot(snap)
        assert rebuilt.data["tree"] is context.data["tree"]


class TestSchedulerPendingCounter:
    def test_pending_tracks_schedule_and_run(self):
        scheduler = EventScheduler(SimClock())
        events = [scheduler.at(float(i), lambda: None, label=f"e{i}")
                  for i in range(5)]
        assert scheduler.pending == 5
        scheduler.step()
        assert scheduler.pending == 4
        scheduler.cancel(events[2])
        assert scheduler.pending == 3
        # double cancel is idempotent
        scheduler.cancel(events[2])
        assert scheduler.pending == 3
        # cancelling an already-executed event is a no-op
        scheduler.cancel(events[0])
        assert scheduler.pending == 3
        scheduler.run()
        assert scheduler.pending == 0
        assert scheduler.executed == 4  # the cancelled one never ran

    def test_cancelled_head_discarded_by_run(self):
        scheduler = EventScheduler(SimClock())
        head = scheduler.at(0.0, lambda: None)
        scheduler.at(1.0, lambda: None)
        scheduler.cancel(head)
        assert scheduler.pending == 1
        assert scheduler.run() == 1
        assert scheduler.pending == 0

    def test_cancel_after_run_keeps_counter_sane(self):
        scheduler = EventScheduler(SimClock())
        event = scheduler.at(0.0, lambda: None)
        scheduler.run()
        scheduler.cancel(event)
        follow_up = scheduler.at(1.0, lambda: None)
        assert scheduler.pending == 1
        scheduler.cancel(follow_up)
        assert scheduler.pending == 0


def test_frozen_payload_marker_is_structural():
    assert is_frozen_payload(freeze_payload({"a": 1}))
    assert is_frozen_payload(freeze_payload([1, 2]))
    assert not is_frozen_payload({"a": 1})
    assert not is_frozen_payload([1, 2])
    assert not is_frozen_payload("scalar")
