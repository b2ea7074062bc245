"""Host-speed probe: the benchmark's yardstick for a drifting host.

On a shared host the speed of a core drifts by a third within a minute,
and every timing the benchmark takes drifts with it.  A fixed
pure-Python loop, timed between the program's answers, drifts the same
way: over windows of about two seconds, the time of a block of
Monte-Carlo answers and the time of the probes interleaved with it
correlate at 0.9-0.99, and their ratio stays within a few percent while
each alone moves by 30%.  The loop runs none of the program's code, so
a change to the program moves the answers and not the probe.

A timing is normalised to the nominal host by dividing it by the
host's *slowness*: the median probe time around it over
:data:`NOMINAL_S`, the probe's median time between the program's
answers on the host the benchmark was tuned on (a 2-vCPU KVM guest,
Python 3.11).  On that host at its usual speed the normalised figure is
about the raw one.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence, Tuple

#: Iterations of the probe loop (about 5 ms on the nominal host).
ITERATIONS = 60_000

#: The probe's median time on the nominal host, in seconds (4.3-4.9 ms
#: over the runs the bounds were set from).
NOMINAL_S = 0.0047

#: One probe: ``(start, seconds)`` on the ``time.perf_counter`` clock.
Probe = Tuple[float, float]


def probe() -> Probe:
    """Run the loop once and return when it started and how long it took."""
    start = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i
    return start, time.perf_counter() - start


def slowness(probes: Sequence[Probe]) -> float:
    """Median probe time over the nominal one (> 1 on a slow host)."""
    if not probes:
        raise ValueError("no probe to measure the host by")
    return statistics.median(seconds for _, seconds in probes) / NOMINAL_S


def between(probes: Sequence[Probe], low: float, high: float) -> List[Probe]:
    """The probes that started in ``[low, high)``."""
    return [p for p in probes if low <= p[0] < high]
