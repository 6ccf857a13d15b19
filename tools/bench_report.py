#!/usr/bin/env python3
"""Pretty-print a ``BENCH_PERF.json`` perf report, with deltas.

One argument prints the report; two arguments print NEW against OLD
with a per-benchmark throughput delta — the before/after view of the
perf trajectory::

    python tools/bench_report.py BENCH_PERF.json            # single run
    python tools/bench_report.py NEW.json OLD.json          # delta view

Informative only: the exit code is 0 unless a file is missing or
malformed.  The CI perf job gates on the artifact's ``acceptance.ok``
in a separate step — this tool just renders the numbers (see
``docs/performance.md``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any


def load(path: str) -> dict[str, Any]:
    """Load and minimally validate one perf report."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    if "benchmarks" not in report:
        raise ValueError(f"{path}: not a perf report (no 'benchmarks')")
    return report


def _fmt_ops(value: Any) -> str:
    return f"{value:,.0f}" if isinstance(value, (int, float)) else "-"


def render_delta(new: dict[str, Any],
                 old: dict[str, Any] | None = None) -> str:
    """Fixed-width table of one report, or of NEW vs OLD."""
    header = ["benchmark", "ops/sec", "speedup"]
    if old is not None:
        header += ["old ops/sec", "delta"]
    rows: list[list[str]] = []
    old_benches = (old or {}).get("benchmarks", {})
    for name, bench in new["benchmarks"].items():
        speedup = bench.get("speedup_vs_baseline",
                            bench.get("speedup_vs_deepcopy_baseline"))
        row = [name, _fmt_ops(bench.get("ops_per_sec")),
               f"{speedup:.2f}x" if speedup else "-"]
        if old is not None:
            before = old_benches.get(name, {}).get("ops_per_sec")
            row.append(_fmt_ops(before))
            if isinstance(before, (int, float)) and before:
                change = (bench["ops_per_sec"] - before) / before * 100.0
                row.append(f"{change:+.1f}%")
            else:
                row.append("new")
        rows.append(row)
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths))
              for row in rows]
    acceptance = new.get("acceptance", {})
    if acceptance:
        gates = [f"buffer-hit speedup "
                 f"{acceptance.get('buffer_hit_speedup')}x "
                 f">= {acceptance.get('buffer_hit_min_speedup')}x"]
        if "group_flush_min_speedup" in acceptance:
            gates.append(
                f"group-flush speedup "
                f"{acceptance.get('group_flush_speedup')}x "
                f">= {acceptance.get('group_flush_min_speedup')}x")
        if acceptance.get("perf_gates_applied"):
            gates.append(
                f"kernel-events "
                f"{acceptance.get('kernel_events_ops_per_sec'):,.0f}/s "
                f">= {acceptance.get('kernel_events_min_ops_per_sec'):,}/s")
            gates.append(
                f"timer-churn speedup "
                f"{acceptance.get('timer_churn_speedup')}x "
                f">= {acceptance.get('timer_churn_min_speedup')}x")
            if "scorecard_min_speedup" in acceptance:
                # older artifacts only: the gate was retired
                gates.append(
                    f"scorecard speedup "
                    f"{acceptance.get('scorecard_speedup')}x "
                    f">= {acceptance.get('scorecard_min_speedup')}x")
            if "shard_scaling_min_speedup" in acceptance:
                gates.append(
                    f"shard-scaling capacity "
                    f"{acceptance.get('shard_scaling_speedup')}x "
                    f">= {acceptance.get('shard_scaling_min_speedup')}x")
            if "federation_flatness" in acceptance:
                gates.append(
                    f"federation-flatness "
                    f"{acceptance.get('federation_flatness')}x "
                    f"<= {acceptance.get('federation_flatness_max')}x")
        if "federation_log_bounded" in acceptance:
            gates.append(
                "federation-log "
                + ("bounded" if acceptance["federation_log_bounded"]
                   else "UNBOUNDED"))
        if "determinism_ok" in acceptance:
            gates.append("determinism "
                         + ("ok" if acceptance["determinism_ok"]
                            else "MISMATCH"))
        lines.append("acceptance: " + ", ".join(gates) + " -> "
                     + ("OK" if acceptance.get("ok") else "FAIL"))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or len(args) > 2:
        print(__doc__)
        return 2
    try:
        new = load(args[0])
        old = load(args[1]) if len(args) == 2 else None
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}")
        return 1
    print(render_delta(new, old))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
