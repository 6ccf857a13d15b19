"""Tests for the federated repository (the paper's future work)."""

from __future__ import annotations

import pytest

from repro.bench.reference import (
    MemberScanFederation,
    scan_staged_home,
    staged_home_mismatches,
)
from repro.bench.scenarios import federated_commit_scenario
from repro.repository.federation import FederatedRepository
from repro.repository.placement import PlacementIndex
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.util.errors import StorageError, UnknownObjectError
from repro.util.ids import IdGenerator


def make_dot():
    return DesignObjectType("Cell", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)])


@pytest.fixture
def federation():
    ids = IdGenerator()
    members = {
        "site-a": DesignDataRepository(ids),
        "site-b": DesignDataRepository(ids),
    }
    fed = FederatedRepository(members)
    fed.register_dot(make_dot())
    return fed


class TestPlacement:
    def test_empty_federation_rejected(self):
        with pytest.raises(ValueError):
            FederatedRepository({})

    def test_round_robin_placement(self, federation):
        federation.create_graph("da-1")
        federation.create_graph("da-2")
        assert federation.placement_of("da-1") == "site-a"
        assert federation.placement_of("da-2") == "site-b"

    def test_explicit_assignment(self, federation):
        federation.assign("da-9", "site-b")
        federation.create_graph("da-9")
        assert federation.placement_of("da-9") == "site-b"
        assert federation.member("site-b").has_graph("da-9")
        assert not federation.member("site-a").has_graph("da-9")

    def test_unplaced_da(self, federation):
        with pytest.raises(UnknownObjectError):
            federation.placement_of("da-404")
        assert not federation.has_graph("da-404")


class TestSchemaBroadcast:
    def test_dot_known_everywhere(self, federation):
        for member in federation.members().values():
            assert member.dot("Cell").name == "Cell"
        assert federation.dot("Cell").name == "Cell"


class TestRoutedCheckin:
    def test_checkin_lands_on_home_member(self, federation):
        federation.assign("da-1", "site-b")
        federation.create_graph("da-1")
        dov = federation.checkin("da-1", "Cell", {"area": 1.0})
        assert dov.dov_id in federation.member("site-b")
        assert dov.dov_id not in federation.member("site-a")
        # ... but reads are location-transparent
        assert federation.read(dov.dov_id).data == {"area": 1.0}
        assert dov.dov_id in federation

    def test_cross_member_lineage(self, federation):
        """A usage-relationship input from another site is a legal
        parent — exactly the interoperability the paper wants."""
        federation.assign("da-a", "site-a")
        federation.assign("da-b", "site-b")
        federation.create_graph("da-a")
        federation.create_graph("da-b")
        source = federation.checkin("da-a", "Cell", {"area": 1.0})
        derived = federation.checkin("da-b", "Cell", {"area": 2.0},
                                     parents=(source.dov_id,))
        assert derived.parents == (source.dov_id,)
        assert federation.placement_of("da-b") == "site-b"

    def test_unknown_parent_rejected(self, federation):
        federation.create_graph("da-1")
        with pytest.raises(UnknownObjectError):
            federation.checkin("da-1", "Cell", {"area": 1.0},
                               parents=("dov-404",))

    def test_two_phase_abort(self, federation):
        federation.create_graph("da-1")
        staged = federation.stage_checkin("da-1", "Cell", {"area": 1.0},
                                          (), 0.0)
        assert federation.abort_checkin(staged.dov_id) is True
        assert staged.dov_id not in federation


class TestMemberFailure:
    def test_one_member_crash_leaves_other_serving(self, federation):
        federation.assign("da-a", "site-a")
        federation.assign("da-b", "site-b")
        federation.create_graph("da-a")
        federation.create_graph("da-b")
        dov_a = federation.checkin("da-a", "Cell", {"area": 1.0})
        dov_b = federation.checkin("da-b", "Cell", {"area": 2.0})
        federation.crash_member("site-a")
        # site-b unaffected
        assert federation.read(dov_b.dov_id).data == {"area": 2.0}
        # site-a recovers from its own WAL
        federation.recover_member("site-a")
        assert federation.read(dov_a.dov_id).data == {"area": 1.0}

    def test_cross_member_read_of_crashed_member_raises_storage_error(
            self, federation):
        """A directory-routed read must surface the member outage as a
        StorageError — the DOV *exists*, its member is just down — and
        serve again cleanly after the member recovers."""
        federation.assign("da-a", "site-a")
        federation.assign("da-b", "site-b")
        federation.create_graph("da-a")
        federation.create_graph("da-b")
        dov_a = federation.checkin("da-a", "Cell", {"area": 1.0})
        federation.crash_member("site-a")
        # the directory still locates the DOV; the member refuses
        with pytest.raises(StorageError):
            federation.read(dov_a.dov_id)
        # a genuinely unknown DOV keeps its distinct error
        with pytest.raises(UnknownObjectError):
            federation.read("dov-nowhere")
        federation.recover_member("site-a")
        assert federation.read(dov_a.dov_id).data == {"area": 1.0}

    def test_stats(self, federation):
        federation.create_graph("da-1")
        federation.checkin("da-1", "Cell", {"area": 1.0})
        stats = federation.stats()
        assert stats["members"] == 2
        assert stats["placements"] == 1
        assert stats["directory_entries"] == 1


class TestCheckpointing:
    def test_recover_from_checkpoint(self):
        repo = DesignDataRepository(IdGenerator())
        repo.register_dot(make_dot())
        repo.create_graph("da-1")
        first = repo.checkin("da-1", "Cell", {"area": 1.0})
        second = repo.checkin("da-1", "Cell", {"area": 2.0},
                              parents=(first.dov_id,))
        truncated = repo.checkpoint()
        assert truncated >= 2
        # post-checkpoint activity lands in the WAL tail
        third = repo.checkin("da-1", "Cell", {"area": 3.0},
                             parents=(second.dov_id,))
        repo.crash()
        report = repo.recover()
        assert report["versions"] == 3
        graph = repo.graph("da-1")
        assert graph.is_ancestor(first.dov_id, third.dov_id)

    def test_checkpoint_shrinks_wal(self):
        repo = DesignDataRepository(IdGenerator())
        repo.register_dot(make_dot())
        repo.create_graph("da-1")
        for i in range(10):
            repo.checkin("da-1", "Cell", {"area": float(i)})
        before = len(repo.wal)
        repo.checkpoint()
        assert len(repo.wal) < before

    def test_repeated_checkpoints(self):
        repo = DesignDataRepository(IdGenerator())
        repo.register_dot(make_dot())
        repo.create_graph("da-1")
        repo.checkin("da-1", "Cell", {"area": 1.0})
        repo.checkpoint()
        repo.checkin("da-1", "Cell", {"area": 2.0})
        repo.checkpoint()
        repo.crash()
        report = repo.recover()
        assert report["versions"] == 2


class TestShippingSurface:
    """The read-path metadata + commit routing the data-shipping
    protocol consumes (payload sizes, version stamps, invalidation
    targets routed through the directory)."""

    def test_describe_routes_through_the_directory(self, federation):
        federation.assign("da-a", "site-a")
        federation.create_graph("da-a")
        dov = federation.checkin("da-a", "Cell", {"area": 1.0})
        description = federation.describe(dov.dov_id)
        assert description["dov_id"] == dov.dov_id
        assert description["payload_size"] == dov.payload_size
        assert description["stamp"] == dov.stamp
        assert description["member"] == "site-a"

    def test_invalidation_targets_cross_members(self, federation):
        federation.assign("da-a", "site-a")
        federation.assign("da-b", "site-b")
        federation.create_graph("da-a")
        federation.create_graph("da-b")
        parent = federation.checkin("da-a", "Cell", {"area": 1.0})
        # da-b derives from da-a's version: the parent lives on the
        # *other* member, only the directory can resolve it
        child = federation.checkin("da-b", "Cell", {"area": 2.0},
                                   parents=(parent.dov_id,))
        assert federation.invalidation_targets(child) \
            == [parent.dov_id]

    def test_commit_notices_route_from_the_owning_member(self,
                                                         federation):
        federation.assign("da-a", "site-a")
        federation.create_graph("da-a")
        committed = []
        federation.on_commit = lambda dov: committed.append(dov.dov_id)
        dov = federation.checkin("da-a", "Cell", {"area": 1.0})
        assert committed == [dov.dov_id]
        assert federation.owner_of(dov.dov_id) == "site-a"


class TestHashPlacement:
    def test_ring_placement_is_deterministic(self):
        members = [f"site-{i}" for i in range(4)]
        das = [f"da-{i}" for i in range(16)]
        first = PlacementIndex(members, placement="hash")
        second = PlacementIndex(members, placement="hash")
        assert [first.place(d) for d in das] \
            == [second.place(d) for d in das]

    def test_ring_placement_ignores_arrival_order(self):
        """A DA's home is a pure function of its id and the member
        set — no coordinator counter, unlike round-robin."""
        members = ["site-a", "site-b", "site-c"]
        alone = PlacementIndex(members, placement="hash")
        crowded = PlacementIndex(members, placement="hash")
        for i in range(10):
            crowded.place(f"other-{i}")
        assert alone.place("da-x") == crowded.place("da-x")

    def test_ring_spreads_across_members(self):
        index = PlacementIndex([f"site-{i}" for i in range(4)],
                               placement="hash")
        homes = {index.place(f"da-{i}") for i in range(32)}
        assert len(homes) >= 3

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            PlacementIndex(["site-a"], placement="random")

    def test_hash_federation_routes_like_the_ring(self):
        ids = IdGenerator()
        fed = FederatedRepository(
            {f"site-{i}": DesignDataRepository(ids) for i in range(3)},
            placement="hash")
        fed.register_dot(make_dot())
        oracle = PlacementIndex([f"site-{i}" for i in range(3)],
                                placement="hash")
        for i in range(6):
            da_id = f"da-{i}"
            fed.create_graph(da_id)
            home = oracle.place(da_id)
            assert fed.placement_of(da_id) == home
            dov = fed.checkin(da_id, "Cell", {"area": float(i)})
            assert fed.owner_of(dov.dov_id) == home

    def test_assign_still_overrides_the_ring(self):
        ids = IdGenerator()
        fed = FederatedRepository(
            {f"site-{i}": DesignDataRepository(ids) for i in range(3)},
            placement="hash")
        fed.register_dot(make_dot())
        fed.assign("da-pinned", "site-2")
        fed.create_graph("da-pinned")
        assert fed.placement_of("da-pinned") == "site-2"


class TestMemberTruth:
    """The placement index is a cache of member truth: every staged
    id's indexed home is the member whose store holds it, found by the
    reference member scan."""

    def test_staged_resolution_matches_member_scan(self, federation):
        federation.assign("da-a", "site-a")
        federation.assign("da-b", "site-b")
        federation.create_graph("da-a")
        federation.create_graph("da-b")
        staged = [
            federation.stage_checkin("da-a", "Cell", {"area": 1.0},
                                     (), 0.0).dov_id,
            federation.stage_checkin("da-b", "Cell", {"area": 2.0},
                                     (), 0.0).dov_id,
        ]
        members = federation.members()
        for dov_id in staged + ["dov-404"]:
            assert federation._staged_home_of(dov_id) \
                == scan_staged_home(members, dov_id)
        assert federation._staged_home_of(staged[0]) == "site-a"
        assert federation._staged_home_of("dov-404") is None
        assert staged_home_mismatches(federation) == []

    def test_commit_group_matches_member_scan(self):
        def run(kind):
            ids = IdGenerator()
            fed = kind({
                "site-a": DesignDataRepository(ids),
                "site-b": DesignDataRepository(ids)})
            fed.register_dot(make_dot())
            fed.assign("da-a", "site-a")
            fed.assign("da-b", "site-b")
            fed.create_graph("da-a")
            fed.create_graph("da-b")
            staged = [
                fed.stage_checkin("da-a", "Cell", {"area": 1.0},
                                  (), 0.0).dov_id,
                fed.stage_checkin("da-b", "Cell", {"area": 2.0},
                                  (), 0.0).dov_id,
            ]
            dovs = fed.commit_group(staged)
            return [d.dov_id for d in dovs], fed.directory_snapshot()

        assert run(FederatedRepository) == run(MemberScanFederation)

    def test_abort_keeps_index_equal_to_member_truth(self, federation):
        federation.create_graph("da-1")
        staged = federation.stage_checkin(
            "da-1", "Cell", {"area": 1.0}, (), 0.0)
        assert staged_home_mismatches(federation) == []
        assert federation.abort_checkin(staged.dov_id) is True
        assert federation.abort_checkin(staged.dov_id) is False
        assert federation.placement_index.stats()["staged_index"] == 0
        assert staged_home_mismatches(federation) == []

    def test_mismatch_is_reported(self, federation):
        federation.create_graph("da-1")
        staged = federation.stage_checkin(
            "da-1", "Cell", {"area": 1.0}, (), 0.0)
        federation.placement_index.unstage(staged.dov_id)
        problems = staged_home_mismatches(federation)
        assert any(staged.dov_id in line for line in problems)

    @pytest.mark.parametrize("crash",
                             ["none", "before", "after", "coordinator"])
    def test_t10_crash_placements_match_member_truth(self, crash):
        audits = []
        staged_seen = []

        def audit(fed):
            staged_seen.append(fed.placement_index.stats()
                               ["staged_index"])
            audits.append(staged_home_mismatches(fed))

        report = federated_commit_scenario(crash=crash, audit=audit)
        assert report.atomic_violations == 0
        assert audits and any(staged_seen)  # the audit saw staged ids
        assert all(problems == [] for problems in audits), audits


class TestSingleMemberBatchFailure:
    def test_down_member_aborts_single_member_batch(self, federation):
        """A batch resolving entirely to one member must notice the
        member is down *before* committing — presumed abort, with the
        stale staged-index entries cleaned up."""
        federation.assign("da-a", "site-a")
        federation.create_graph("da-a")
        head = federation.checkin("da-a", "Cell", {"area": 1.0})
        staged = [
            federation.stage_checkin("da-a", "Cell", {"area": 2.0},
                                     (head.dov_id,), 1.0).dov_id,
            federation.stage_checkin("da-a", "Cell", {"area": 3.0},
                                     (head.dov_id,), 1.0).dov_id,
        ]
        # the member dies without the coordinator noticing: the index
        # still maps the staged ids to it
        federation.member("site-a").crash()
        with pytest.raises(StorageError, match="presumed abort"):
            federation.commit_group(staged)
        assert federation.placement_index.stats()["staged_index"] == 0
        for dov_id in staged:
            assert dov_id not in federation
        # after recovery the DA serves a fresh batch normally
        federation.recover_member("site-a")
        retry = federation.stage_checkin("da-a", "Cell", {"area": 2.0},
                                         (head.dov_id,), 2.0)
        committed = federation.commit_group([retry.dov_id])
        assert [d.dov_id for d in committed] == [retry.dov_id]

    def test_down_abort_keeps_member_truth(self, federation):
        federation.assign("da-a", "site-a")
        federation.create_graph("da-a")
        staged = federation.stage_checkin("da-a", "Cell", {"area": 1.0},
                                          (), 0.0)
        federation.member("site-a").crash()
        with pytest.raises(StorageError):
            federation.commit_group([staged.dov_id])
        assert staged_home_mismatches(federation) == []


class TestDirectoryRecovery:
    def test_crash_member_reports_dropped_staged_entries(
            self, federation):
        federation.assign("da-a", "site-a")
        federation.create_graph("da-a")
        for area in (1.0, 2.0):
            federation.stage_checkin("da-a", "Cell", {"area": area},
                                     (), 0.0)
        report = federation.crash_member("site-a")
        assert report["staged_index_dropped"] == 2
        assert federation.placement_index.stats()["staged_index"] == 0

    def test_recover_directory_counters(self, federation):
        federation.assign("da-a", "site-a")
        federation.assign("da-b", "site-b")
        federation.create_graph("da-a")
        federation.create_graph("da-b")
        federation.checkin("da-a", "Cell", {"area": 1.0})
        federation.checkin("da-b", "Cell", {"area": 2.0})
        federation.stage_checkin("da-b", "Cell", {"area": 3.0}, (), 0.0)
        report = federation.recover_directory()
        assert report == {"placements": 2, "staged_index": 1,
                          "directory_entries": 2, "members_down": 0}

    def test_down_member_keeps_its_prior_directory_entries(
            self, federation):
        """recover_directory with a member still down: the surviving
        index entries for that member are carried over instead of
        silently dropped."""
        federation.assign("da-a", "site-a")
        federation.assign("da-b", "site-b")
        federation.create_graph("da-a")
        federation.create_graph("da-b")
        dov_a = federation.checkin("da-a", "Cell", {"area": 1.0})
        federation.crash_member("site-a")
        report = federation.recover_directory()
        assert report["members_down"] == 1
        assert federation.owner_of(dov_a.dov_id) == "site-a"
        assert federation.placement_of("da-a") == "site-a"

    def test_stats_exposes_the_index_surfaces(self, federation):
        federation.create_graph("da-1")
        federation.stage_checkin("da-1", "Cell", {"area": 1.0}, (), 0.0)
        stats = federation.stats()
        assert stats["placement"] == "directory"
        assert stats["staged_index"] == 1
        assert stats["decision_log"]["decisions"] == 0
