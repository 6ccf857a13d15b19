"""Span arithmetic and wrapper hygiene of the benchmark's tracer."""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from layers import TARGETS, TRACKED, layer_metrics  # noqa: E402
from tracer import Span, Tracer, outermost, self_times, \
    tail_rank  # noqa: E402
from workloads import canonical, load_config  # noqa: E402


def test_self_time_subtracts_children_once():
    spans = [
        Span("sim.run", 0.0, 10.0, -1, 1),      # 0
        Span("te.checkout", 1.0, 4.0, 0, 1),    # 1
        Span("net.rpc", 2.0, 3.0, 1, 1),        # 2
        Span("te.checkin", 5.0, 7.0, 0, 1),     # 3
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = [
        Span("a", 0.0, 10.0, -1, 1),
        Span("b", 1.0, 5.0, 0, 1),
        Span("c", 4.0, 8.0, 0, 1),   # overlaps b by one second
        Span("d", 9.0, 12.0, 0, 1),  # runs past its parent's end
    ]
    assert self_times(spans)[0] == 10.0 - 7.0 - 1.0


def test_outermost_skips_nested_spans_of_the_same_layer():
    spans = [
        Span("core.cm", 0.0, 4.0, -1, 1),
        Span("core.cm.persist", 1.0, 2.0, 0, 1),
        Span("dc.dm", 5.0, 9.0, -1, 1),
        Span("core.cm", 6.0, 7.0, 2, 1),
    ]
    assert outermost(spans, "core.cm") == [0, 3]


def test_tail_rank_leaves_ten_samples_beyond():
    assert tail_rank(10) is None
    assert tail_rank(11) == 0
    assert tail_rank(100) == 89


def _class_attributes():
    """(owner, attr) -> the owner's own attribute, for every target."""
    from tracer import _resolve

    seen = {}
    for target in TARGETS:
        owner = _resolve(target.module, target.owner)
        seen[(owner, target.attr)] = vars(owner).get(target.attr)
    for module, cls_name in TRACKED:
        owner = _resolve(module, cls_name)
        seen[(owner, "__init__")] = vars(owner).get("__init__")
    return seen


def test_traced_run_restores_wrappers_and_leaves_reports_unchanged():
    from repro.scenario import compile_scenario

    compiled = compile_scenario(load_config(
        "delegation_tree", 3, {"team": {"subcells": ["A", "B"]}}))
    before = _class_attributes()
    untraced = canonical(compiled.run())

    tracer = Tracer(TARGETS, TRACKED)
    with tracer:
        assert _class_attributes() != before
        tracer.begin_run()
        traced = canonical(compiled.run())
        trace = tracer.end_run()
    assert tracer.missing == []
    assert _class_attributes() == before
    assert traced == untraced
    assert canonical(compiled.run()) == untraced

    wall = max(s.end for s in trace.spans) - min(s.start
                                                 for s in trace.spans)
    metrics = layer_metrics(trace, wall, 2, {"makespan": 1.0,
                                            "lan_bytes": 2.0})
    assert metrics["core.cm.ops"] > 0
    assert metrics["core.cm.persist_puts"] == metrics["core.cm.ops"]
    assert metrics["dc.rule_fires"] == 2
    assert metrics["sim.events"] > 0
