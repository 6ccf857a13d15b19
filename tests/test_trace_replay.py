"""The trace record/replay oracle against the committed goldens.

The regression contract of this PR: the golden traces under
``tests/data/traces/`` pin the exact kernel event stream of the T7 and
T8 scenarios, and replaying them must be **byte-identical** under the
recorded shard count and at ``shards=1`` explicitly — any future
kernel, scheduler or
protocol change that silently reorders the simulation fails here with
a first-divergence report instead of passing unnoticed.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.scenario import canonical_scenarios
from repro.sim.kernel import Kernel
from repro.sim.trace import (
    TRACE_FORMAT,
    KernelTrace,
    TraceError,
    capture_trace,
    diff_traces,
    load_trace,
    record_scenario,
    replay_trace,
    save_trace,
)

TRACES = Path(__file__).parent / "data" / "traces"
GOLDENS = ("t7_concurrent_team", "t8_object_buffers")


@pytest.fixture(scope="module", params=GOLDENS)
def golden(request):
    return request.param, load_trace(TRACES / f"{request.param}.jsonl")


class TestGoldenReplay:
    def test_golden_traces_are_committed(self):
        for name in GOLDENS:
            assert (TRACES / f"{name}.jsonl").is_file()

    def test_replay_under_default_build(self, golden):
        name, trace = golden
        diff = replay_trace(trace)
        assert diff.identical, f"{name}:\n{diff.render()}"

    def test_replay_at_one_shard(self, golden):
        name, trace = golden
        diff = replay_trace(trace, shards=1)
        assert diff.identical, f"{name}:\n{diff.render()}"

    def test_rerecord_is_byte_identical(self, golden, tmp_path):
        """The artifact itself is deterministic: re-recording the
        embedded scenario reproduces the committed bytes exactly."""
        name, trace = golden
        from repro.scenario.schema import validate_scenario

        config = validate_scenario(trace.scenario)
        fresh = record_scenario(config, shards=trace.meta["shards"])
        out = save_trace(fresh, tmp_path / "fresh.jsonl")
        committed = (TRACES / f"{name}.jsonl").read_bytes()
        assert out.read_bytes() == committed

    def test_golden_headers_are_self_contained(self, golden):
        name, trace = golden
        assert trace.meta["format"] == TRACE_FORMAT
        assert trace.meta["events"] == len(trace.events)
        assert trace.scenario["scenario"]["kind"]
        assert trace.scenario["scenario"]["seed"] >= 0
        assert "flags" not in trace.meta

    def test_legacy_flags_header_still_replays(self, golden, tmp_path):
        """Older ``/1`` traces carried a build-flags header key; the
        loader ignores unknown keys, so they replay unchanged."""
        name, trace = golden
        legacy = KernelTrace(
            meta={**trace.meta, "flags": {"kernel": False}},
            events=list(trace.events))
        loaded = load_trace(save_trace(legacy, tmp_path / "old.jsonl"))
        diff = replay_trace(loaded)
        assert diff.identical, f"{name}:\n{diff.render()}"


class TestDivergenceReporting:
    def test_doctored_event_reports_first_divergence(self, golden):
        name, trace = golden
        doctored = KernelTrace(
            meta=dict(trace.meta),
            events=list(trace.events))
        index = len(doctored.events) // 2
        time, priority, seq, label = doctored.events[index]
        doctored.events[index] = (time, priority, seq, "doctored")
        diff = diff_traces(doctored, trace)
        assert not diff.identical
        assert diff.first_divergence == index
        assert diff.expected[3] == "doctored"
        assert diff.actual[3] == label
        report = diff.render()
        assert f"#{index}" in report
        assert "doctored" in report

    def test_truncated_stream_reports_length_divergence(self, golden):
        __, trace = golden
        short = KernelTrace(meta=dict(trace.meta),
                            events=list(trace.events[:-2]))
        diff = diff_traces(trace, short)
        assert not diff.identical
        assert diff.first_divergence == len(trace.events) - 2
        assert diff.actual is None
        assert "(stream ended)" in diff.render()

    def test_identical_render_names_the_count(self, golden):
        __, trace = golden
        diff = diff_traces(trace, trace)
        assert diff.identical
        assert str(len(trace.events)) in diff.render()


class TestArtifactValidation:
    def test_load_rejects_wrong_format(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"concord-kernel-trace/99"}\n')
        with pytest.raises(TraceError, match="format"):
            load_trace(bad)

    def test_load_rejects_missing_header(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('[1.0,0,0,"x"]\n')
        with pytest.raises(TraceError, match="header"):
            load_trace(bad)

    def test_load_rejects_event_count_mismatch(self, tmp_path, golden):
        __, trace = golden
        lines = (TRACES / f"{golden[0]}.jsonl").read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:-1]) + "\n")  # drop one event
        with pytest.raises(TraceError, match="declares"):
            load_trace(bad)

    def test_load_names_the_bad_line(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"%s","events":1}\n[1.0,0]\n'
                       % TRACE_FORMAT)
        with pytest.raises(TraceError, match=":2:"):
            load_trace(bad)

    def test_capture_refuses_untraced_kernel(self):
        kernel = Kernel(trace_events=False)
        kernel.at(1.0, lambda: None)
        kernel.run_until_quiescent()
        with pytest.raises(TraceError, match="trace_events=False"):
            capture_trace(kernel)

    def test_replay_refuses_scenario_free_trace(self):
        trace = KernelTrace(meta={"format": TRACE_FORMAT}, events=[])
        with pytest.raises(TraceError, match="embedded scenario"):
            replay_trace(trace)


class TestGzipArtifacts:
    """``.jsonl.gz`` traces: same contract, smaller bytes."""

    def test_round_trip_preserves_meta_and_events(self, golden,
                                                  tmp_path):
        __, trace = golden
        out = save_trace(trace, tmp_path / "trace.jsonl.gz")
        assert out.read_bytes()[:2] == b"\x1f\x8b"
        loaded = load_trace(out)
        assert loaded.meta == trace.meta
        assert loaded.events == trace.events

    def test_compressed_bytes_are_deterministic(self, golden, tmp_path):
        """mtime is zeroed, so two saves of the same trace are
        byte-identical — gzipped goldens stay committable."""
        __, trace = golden
        first = save_trace(trace, tmp_path / "a.jsonl.gz").read_bytes()
        second = save_trace(trace, tmp_path / "b.jsonl.gz").read_bytes()
        assert first == second

    def test_payload_matches_the_plain_artifact(self, golden, tmp_path):
        import gzip

        __, trace = golden
        plain = save_trace(trace, tmp_path / "t.jsonl").read_bytes()
        packed = save_trace(trace,
                            tmp_path / "t.jsonl.gz").read_bytes()
        assert gzip.decompress(packed) == plain
        assert len(packed) < len(plain)

    def test_detection_is_by_magic_bytes_not_extension(self, golden,
                                                       tmp_path):
        __, trace = golden
        packed = save_trace(trace, tmp_path / "t.jsonl.gz")
        renamed = tmp_path / "renamed.jsonl"
        renamed.write_bytes(packed.read_bytes())
        assert load_trace(renamed).events == trace.events

    def test_corrupt_gzip_is_a_trace_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl.gz"
        bad.write_bytes(b"\x1f\x8b" + b"\x00" * 16)
        with pytest.raises(TraceError, match="gzip"):
            load_trace(bad)


class TestT9Coverage:
    """T9 is not pinned as a golden (the restart episode makes its
    stream longer) but must replay just as exactly."""

    def test_t9_records_and_replays(self):
        config = canonical_scenarios()["t9_write_back"]
        trace = record_scenario(config)
        assert trace.events
        diff = replay_trace(trace)
        assert diff.identical, diff.render()
