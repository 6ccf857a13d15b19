"""Host-speed reference for the benchmark's timings.

On a shared host the speed of one core drifts by a factor of up to two
over tens of seconds (other tenants, frequency changes), and the same
scenario run then takes 0.3 s in one minute and 0.55 s in the next.
A fixed pure-Python reference task — building and deep-copying a
dict of 16k small records, a working set of the size the scenarios
use — timed between consecutive measured runs slows down with it, so
the benchmark reports times at the *reference speed*::

    seconds_at_reference = raw_seconds * NOMINAL_S / reference_seconds

where ``reference_seconds`` is the mean of the two reference timings
around the run.  The task does not touch the program, so a change to
the program moves the reported time exactly as it moves the raw time
on a host of constant speed.  Changing this task or ``NOMINAL_S``
re-bases every time the benchmark reports.
"""

from __future__ import annotations

import copy
import time

#: the task's typical duration on the host the benchmark was set up
#: on (2-core x86_64, CPython 3.11)
NOMINAL_S = 0.2


def reference_seconds() -> float:
    """Time one pass of the fixed reference task."""
    start = time.perf_counter()
    data = {f"k{i}": [i, str(i), {"x": i, "y": (i, i + 1)}]
            for i in range(16000)}
    copy.deepcopy(data)
    return time.perf_counter() - start


class ReferenceClock:
    """Converts measured durations to the reference host speed.

    The reference task runs once after each measurement; consecutive
    measurements share the timing between them, so each one is
    bracketed by a reference timing on both sides.
    """

    def __init__(self) -> None:
        self.last = reference_seconds()

    def convert(self, seconds: float) -> float:
        """*seconds*, measured since the previous reference timing, at
        the reference speed."""
        after = reference_seconds()
        value = seconds * NOMINAL_S * 2.0 / (self.last + after)
        self.last = after
        return value
