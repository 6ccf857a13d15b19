"""Fresh-interpreter probe: set-up time and peak memory of one run.

``python3 perfbench/setup_probe.py <workload> <seed> [run]`` imports
the program, loads, validates and compiles the workload's scenario,
then prints ``ready`` — the parent times interpreter start to that
line as ``setup_s``.  With ``run`` it then runs the scenario once and
prints one JSON line with the report's fingerprint and the process's
peak resident set, so no earlier run in the same process can inflate
the memory figure.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def peak_rss_kib() -> int:
    """Peak resident set of this process image, in KiB.

    ``VmHWM`` starts afresh at exec; ``ru_maxrss`` would also count
    the parent's resident set at fork time.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    name, seed = argv[1], int(argv[2])
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import repro.bench.scenarios  # noqa: F401 - the runners' imports
    from repro.scenario import compile_scenario
    from workloads import fingerprint, load_config

    compiled = compile_scenario(load_config(name, seed))
    print("ready", flush=True)
    if argv[3:] != ["run"]:
        return 0
    report = compiled.run()
    peak_kib = peak_rss_kib()
    print(json.dumps({"fingerprint": fingerprint(report),
                      "peak_rss_kib": peak_kib}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
