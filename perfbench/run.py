"""End-to-end scenario benchmark of the CONCORD reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload design_campaign --seed 1 \\
        --seconds 10 --trace 0

Runs one workload (a scenario file under ``perfbench/scenarios/``)
through the public scenario DSL, checks every run's report, and prints
each metric by name with its unit.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: host wall time of a
whole run (median, tail, sample count), plan ops per host second,
fresh-process set-up time and peak memory (median of several child
processes), plus the simulated makespan, modelled LAN bytes per op
and the failed-op share.  ``--trace 1`` alternates untraced runs with
traced ones (span wrappers from ``layers.py`` installed for the run
and removed after it) and reports the per-layer metrics, the tracing
overhead, and writes the first traced run's spans to
``perfbench/out/``.

The load is a batch job: one process, one thread.  Inside the
simulation session starts follow the seeded plan (open loop in
simulated time) and each session's steps run closed loop.  Exit code
0 means every run was correct, 1 that a check failed, 2 that the
program could not be found or loaded.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from reference import ReferenceClock  # noqa: E402
from layers import CHECKIN_PROBE, TARGETS, TRACKED, UNITS, \
    layer_metrics  # noqa: E402
from tracer import Tracer, tail_rank  # noqa: E402
from workloads import WORKLOADS, canonical, fingerprint, \
    load_config  # noqa: E402

#: timed runs made even when one run outlasts --seconds
MIN_RUNS = 3
#: fresh child processes measuring set-up time; the first
#: RSS_SAMPLES of them also run the workload for its peak memory
SETUP_SAMPLES = 9
RSS_SAMPLES = 3
#: a child that takes longer than this is killed and counted failed
CHILD_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "wall_s": "s", "ops_per_s": "ops/s", "setup_s": "s",
    "peak_rss_mb": "MiB", "sim_makespan_s": "s",
    "lan_bytes_per_op": "bytes", "failed_op_share": "ratio",
}


def environment() -> dict[str, Any]:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform()}


def run_once(compiled, clock: ReferenceClock,
             tracer: Tracer | None = None):
    """One whole scenario run: (report, raw wall seconds, wall seconds
    at the reference host speed, run trace or None).

    A *tracer* is installed for this run only, outside the timed
    region.
    """
    gc.collect()
    if tracer is not None:
        tracer.install()
        tracer.begin_run()
    try:
        start = time.perf_counter()
        report = compiled.run()
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    return (report, wall, clock.convert(wall),
            tracer.end_run() if tracer is not None else None)


def probe_setup(name: str, seed: int, expected: str,
                clock: ReferenceClock
                ) -> tuple[list[float], list[float], list[str]]:
    """Set-up seconds (at reference speed) of SETUP_SAMPLES fresh
    processes and the peak MiB of the RSS_SAMPLES that run the
    workload."""
    setups, peaks, problems = [], [], []
    command = [sys.executable, str(HERE / "setup_probe.py"), name,
               str(seed)]
    for sample in range(SETUP_SAMPLES):
        runs = sample < RSS_SAMPLES
        start = time.perf_counter()
        child = subprocess.Popen(command + ["run"] * runs, cwd=ROOT,
                                 text=True, stdout=subprocess.PIPE)
        try:
            ready = child.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            problems.append("set-up probe timed out")
            continue
        setup = clock.convert(setup)
        if child.returncode != 0 or ready.strip() != "ready":
            problems.append(f"set-up probe exited {child.returncode}")
            continue
        setups.append(setup)
        if not runs:
            continue
        result = json.loads(rest.strip().splitlines()[-1])
        if result["fingerprint"] != expected:
            problems.append("report of a fresh process differs: "
                            f"{result['fingerprint']} != {expected}")
        peaks.append(result["peak_rss_kib"] / 1024.0)
    return setups, peaks, problems


def describe_walls(walls: list[tuple[float, float]]) -> str:
    """Median, tail and count of (raw, reference-speed) run times."""
    n = len(walls)
    rank = tail_rank(n)
    at_ref = sorted(w[1] for w in walls)
    tail = (f"p{100.0 * (rank + 1) / n:.0f} {at_ref[rank]:.4f} s"
            if rank is not None
            else "no percentile has 10 samples beyond it")
    return (f"median of n={n} runs at reference host speed; {tail}; "
            f"raw median {median([w[0] for w in walls]):.4f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.scenario import compile_scenario

    workload = WORKLOADS[args.workload]
    config = load_config(args.workload, args.seed)
    compiled = compile_scenario(config)
    ops = workload.ops(config)
    print(f"workload {workload.name} seed={args.seed}: {ops} ops per run "
          f"({workload.op}); environment {json.dumps(environment())}")

    # the reference run: untimed, carries the checkin probe and keeps
    # the network so the modelled LAN bytes can be read
    probe = Tracer([CHECKIN_PROBE], [("repro.net.network", "Network")])
    clock = ReferenceClock()
    report, _, _, trace = run_once(compiled, clock, probe)
    problems = workload.check(
        config, report, trace.counters.get("te.checkin.failed", 0))
    reference = canonical(report)
    expected = fingerprint(report)
    print(f"fingerprint {workload.name} seed={args.seed} {expected}")
    model: dict[str, float] = {}
    if workload.kernel:
        model = {"makespan": report.makespan, "lan_bytes": sum(
            net.bytes_shipped for net in
            trace.instances.get("repro.net.network.Network", ()))}
    del report, trace

    runs = differing = 0
    #: per untraced / traced run: (raw wall s, wall s at reference speed)
    untraced: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    per_run: list[dict[str, float]] = []
    tracer = Tracer(TARGETS, TRACKED) if args.trace else None
    first_spans = None
    deadline = time.perf_counter() + args.seconds
    while runs < MIN_RUNS or time.perf_counter() < deadline:
        report, wall, at_ref, _ = run_once(compiled, clock)
        untraced.append((wall, at_ref))
        runs += 1
        differing += canonical(report) != reference
        if tracer is None:
            continue
        report, wall, at_ref, trace = run_once(compiled, clock, tracer)
        traced.append((wall, at_ref))
        runs += 1
        differing += canonical(report) != reference
        per_run.append(layer_metrics(trace, wall, ops, model))
        if first_spans is None:
            first_spans = trace.spans
    if differing:
        problems.append(f"{differing} of {runs} runs reported differently "
                        "from the reference run of the same seed")
    if tracer is not None and tracer.missing:
        print("warning: not traced (absent from the program): "
              + ", ".join(tracer.missing), file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    units = UNITS if args.trace else END_TO_END_UNITS
    if args.trace:
        metrics = {name: median([m[name] for m in per_run])
                   for name in UNITS if name != "trace.overhead_share"}
        metrics["trace.overhead_share"] = \
            median([t[1] for t in traced]) \
            / median([u[1] for u in untraced]) - 1.0
        notes: dict[str, str] = {}
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as spans_file:
            for span in first_spans:
                spans_file.write(json.dumps(list(span)) + "\n")
    else:
        setups, peaks, setup_problems = probe_setup(
            workload.name, args.seed, expected, clock)
        problems += setup_problems
        wall = median([u[1] for u in untraced])
        # the result line carries these four; the simulated metrics are
        # exact per seed (the traced run reports them per layer) and
        # failed_op_share is the line's own failed/attempted pair
        metrics = {"wall_s": wall, "ops_per_s": ops / wall,
                   "setup_s": median(setups) if setups else 0.0,
                   "peak_rss_mb": median(peaks) if peaks else 0.0}
        notes = {
            "wall_s": describe_walls(untraced),
            "setup_s": f"median of {len(setups)} fresh processes, at "
                       "reference host speed",
            "peak_rss_mb": f"median of {len(peaks)} fresh processes"}

    correct = not problems
    attempted = ops * runs
    failed = 0 if correct else attempted
    for problem in problems:
        print(f"FAILED: {problem}")

    shown = dict(metrics)
    if not args.trace:
        if workload.kernel:
            shown["sim_makespan_s"] = model["makespan"]
            shown["lan_bytes_per_op"] = model["lan_bytes"] / ops
            notes["sim_makespan_s"] = "simulated, exact per seed"
            notes["lan_bytes_per_op"] = "modelled, exact per seed"
        else:
            notes["sim_makespan_s"] = notes["lan_bytes_per_op"] = \
                "n/a: this workload runs outside the simulation kernel"
        shown["failed_op_share"] = failed / attempted
        notes["failed_op_share"] = f"{failed} of {attempted} ops"
    for name, unit in units.items():
        value = f"{shown[name]:16.6f}" if name in shown else f"{'':16s}"
        print(f"{name:34s} {value} {unit:8s} {notes.get(name, '')}")

    summary = {"workload": workload.name, "seed": args.seed,
               "trace": args.trace, "fingerprint": expected,
               "environment": environment(), "problems": problems,
               "untraced_walls": untraced, "traced_walls": traced,
               "metrics": metrics}
    with open(OUT_DIR / f"{stem}.json", "w") as summary_file:
        json.dump(summary, summary_file, indent=1)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
