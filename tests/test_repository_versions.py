"""Unit tests for DOVs and derivation graphs."""

from __future__ import annotations

import pytest

from repro.repository.versions import DerivationGraph, DesignObjectVersion
from repro.util.errors import UnknownObjectError


def dov(dov_id: str, parents: tuple[str, ...] = (),
        **data) -> DesignObjectVersion:
    return DesignObjectVersion(dov_id, "Cell", dict(data), "da-1", 0.0,
                               parents)


class TestDesignObjectVersion:
    def test_copy_data_is_private(self):
        # the payload is frozen, so the "copy" is the shared
        # immutable — no reference can corrupt the version
        version = dov("v1", nested={"a": [1]})
        copy = version.copy_data()
        with pytest.raises(TypeError):
            copy["nested"]["a"].append(2)
        assert version.data["nested"]["a"] == [1]

    def test_copy_data_detached_from_plain_dict(self):
        # the construction freeze copies the caller's plain dict deep:
        # mutating it afterwards cannot reach the version
        raw = {"nested": {"a": [1]}}
        version = DesignObjectVersion("v1", "Cell", raw, "da-1", 0.0)
        raw["nested"]["a"].append(2)
        assert version.copy_data() == {"nested": {"a": [1]}}

    def test_get_with_default(self):
        version = dov("v1", area=2.0)
        assert version.get("area") == 2.0
        assert version.get("missing", "d") == "d"


class TestDerivationGraph:
    def _chain(self) -> DerivationGraph:
        graph = DerivationGraph("da-1")
        graph.add(dov("v1"))
        graph.add(dov("v2", ("v1",)))
        graph.add(dov("v3", ("v2",)))
        return graph

    def test_root_detection(self):
        graph = self._chain()
        assert graph.root_id == "v1"

    def test_contains_and_len(self):
        graph = self._chain()
        assert "v2" in graph
        assert "vx" not in graph
        assert len(graph) == 3

    def test_duplicate_rejected(self):
        graph = self._chain()
        with pytest.raises(ValueError):
            graph.add(dov("v1"))

    def test_children_and_leaves(self):
        graph = self._chain()
        assert graph.children_of("v1") == ["v2"]
        assert [leaf.dov_id for leaf in graph.leaves()] == ["v3"]

    def test_branching_leaves(self):
        graph = self._chain()
        graph.add(dov("v4", ("v2",)))
        leaves = {leaf.dov_id for leaf in graph.leaves()}
        assert leaves == {"v3", "v4"}

    def test_ancestors_descendants(self):
        graph = self._chain()
        assert graph.ancestors_of("v3") == {"v1", "v2"}
        assert graph.descendants_of("v1") == {"v2", "v3"}

    def test_is_ancestor(self):
        graph = self._chain()
        assert graph.is_ancestor("v1", "v3")
        assert not graph.is_ancestor("v3", "v1")

    def test_multi_parent_merge(self):
        graph = DerivationGraph("da-1")
        graph.add(dov("a"))
        graph.add(dov("b"))
        graph.add(dov("m", ("a", "b")))
        assert graph.ancestors_of("m") == {"a", "b"}

    def test_foreign_parent_ignored_locally(self):
        graph = DerivationGraph("da-1")
        graph.add(dov("local", parents=("foreign-dov",)))
        # the foreign parent creates no local edge but is kept on the DOV
        assert graph.get("local").parents == ("foreign-dov",)
        assert graph.ancestors_of("local") == set()

    def test_unknown_lookup_raises(self):
        graph = self._chain()
        with pytest.raises(UnknownObjectError):
            graph.get("nope")
        with pytest.raises(UnknownObjectError):
            graph.children_of("nope")
        with pytest.raises(UnknownObjectError):
            graph.descendants_of("nope")

    def test_root_with_parents_not_root(self):
        graph = DerivationGraph("da-1")
        graph.add(dov("v1", parents=("external",)))
        assert graph.root_id is None

    def test_to_dict(self):
        graph = self._chain()
        snapshot = graph.to_dict()
        assert snapshot["owner"] == "da-1"
        assert snapshot["root"] == "v1"
        assert snapshot["edges"]["v1"] == ["v2"]
        assert set(snapshot["nodes"]) == {"v1", "v2", "v3"}
