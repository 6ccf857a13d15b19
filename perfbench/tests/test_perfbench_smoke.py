"""Tiny-size smoke runs of every benchmark workload, and the command's
contract (last line JSON, exit codes)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from layers import CHECKIN_PROBE, TARGETS, TRACKED, UNITS, \
    layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, canonical, load_config  # noqa: E402

#: per workload, table overrides that shrink it to well under a second
TINY = {
    "delegation_tree": {"team": {"subcells": ["A", "B", "C"]}},
    "design_campaign": {"team": {"size": 3},
                        "campaign": {"days": 2, "sessions_per_day": 2}},
    "write_back_team": {"team": {"size": 3, "steps_per_session": 6}},
    "federated_commit": {"federation": {"members": 3, "batches": 4}},
}


def test_every_workload_has_a_tiny_size():
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_clean_traced_and_untraced(name):
    from repro.scenario import compile_scenario

    workload = WORKLOADS[name]
    config = load_config(name, 7, TINY[name])
    compiled = compile_scenario(config)
    ops = workload.ops(config)
    assert ops > 0

    probe = Tracer([CHECKIN_PROBE])
    with probe:
        probe.begin_run()
        report = compiled.run()
        failed = probe.end_run().counters.get("te.checkin.failed", 0)
    assert workload.check(config, report, failed) == []

    tracer = Tracer(TARGETS, TRACKED)
    with tracer:
        tracer.begin_run()
        traced = compiled.run()
        trace = tracer.end_run()
    assert canonical(traced) == canonical(report)
    metrics = layer_metrics(trace, 1.0, ops, {})
    assert set(metrics) == set(UNITS) - {"trace.overhead_share"}
    if workload.kernel:
        assert metrics["sim.events"] > 0
    else:
        assert metrics["repository.commit.calls"] > 0


def test_seed_is_an_input():
    first = load_config("delegation_tree", 1)
    second = load_config("delegation_tree", 2)
    assert first.seed == 1 and second.seed == 2
    assert first.as_tables()["team"] == second.as_tables()["team"]


def test_traced_command_prints_every_per_layer_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "write_back_team", "--seed", "3", "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(UNITS)
    assert result["metrics"]["te.coalesced_share"]["value"] > 0.5


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "delegation_tree", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "correct" not in done.stdout
