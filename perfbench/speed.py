"""Host speed calibration: wall-clock times scaled to a reference speed.

The benchmark runs on shared hosts whose speed drifts by tens of
percent within a minute.  On a 2-vCPU VM a pure-Python loop's median
over 5-second windows ranged from 35 to 54 ms within one minute, and a
store scan's from 41 to 73 ms; a median over a run cannot remove drift
that is slower than the run.

So every measured unit of work (a set-up, a load slice, a query, a
window of ingest) is bracketed by probes of a fixed calibration kernel,
and its wall-clock time is multiplied by the kernel's reference time
over its median time around the unit (:class:`Meter`); rates are
divided by the same factor.  The scaled figure is the time the unit
would take on a host that runs the kernel in its reference time.

The host's slow phases do not slow all code alike, so there are two
kernels and each workload uses the one whose work resembles its own.
The scan kernel reads nested dicts at fixed random positions of a table
far larger than the caches (cold_scan passes its 100k input documents,
so the kernel holds no memory of its own): over 12-query windows of
cold_scan the query time moved with it at a slope of 1.0, and its
spread fell from 0.076 to 0.038 once scaled, where the compute kernel
moved at twice the queries' rate and overcorrected.  The compute kernel
allocates, sorts and JSON-encodes a few thousand small dicts in cache,
like handling one request or one ingest batch; the scan kernel moved
only half as much as ingest's visibility lag.

The kernels are benchmark code that the program never runs, so a change
to the program moves scaled figures exactly as much as wall-clock ones.
They run with the collector off, so the program's GC settings do not
move them.  Every record also carries the raw figures and the kernel's
median time.  One figure stays wall-clock: serve_mix's open-loop
latency, which host wake-ups set and no CPU kernel tracks.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
from typing import Callable, Sequence

#: the compute kernel's time at the reference speed, about what a quiet
#: 2-vCPU VM takes (the scan kernel's depends on its table, so each
#: workload that uses it states its own)
COMPUTE_REFERENCE_S = 0.005
#: table reads per scan kernel run
READS = 5_000
#: kernel runs per probe
PROBE_RUNS = 3
#: a unit's factor uses the probes within this many units of it: the
#: host's speed flickers by tens of percent from one kernel run to the
#: next, so the two probes around a unit alone estimate the slower drift
#: poorly
SMOOTH = 2


def compute_kernel() -> int:
    """Allocate, sort, aggregate and JSON round-trip a few thousand small
    dicts: cache-resident work like handling a request or a batch."""
    rows = [{"id": i, "k": f"n{i % 97}", "v": (i * 2654435761) % 1000 / 7.0} for i in range(3000)]
    rows.sort(key=lambda r: (r["k"], r["v"]))
    text = json.dumps(rows[:600])
    json.loads(text)
    totals: dict[str, float] = {}
    for row in rows:
        totals[row["k"]] = totals.get(row["k"], 0.0) + row["v"]
    return len(text) + len(totals)


def scan_kernel(table: Sequence[dict]) -> Callable[[], int]:
    """A kernel reading every nested dict of ``table``'s documents at
    :data:`READS` fixed random positions: memory-bound work like a scan,
    when the table is far larger than the caches."""
    order = random.Random(len(table)).choices(range(len(table)), k=READS)

    def kernel() -> int:
        count = 0
        for j in order:
            for value in table[j].values():
                if value.__class__ is dict:
                    count += len(value)
        return count

    return kernel


class Meter:
    """Speed probes before the first unit of work and after each one.

    ``kernel`` is the calibration work and ``reference_s`` its time at
    the reference speed.  ``next()`` probes and returns the number of
    the unit that just ended.  ``factor(unit)`` is the reference time
    over the median kernel time of the probes from :data:`SMOOTH` units
    before the unit to :data:`SMOOTH` units after it, its own two probes
    included, so ask for it once the run's probes are taken.
    """

    def __init__(self, kernel: Callable[[], int], reference_s: float) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        self.probes = [self._probe()]

    def _probe(self) -> list[float]:
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(PROBE_RUNS):
                started = time.perf_counter()
                self.kernel()
                times.append(time.perf_counter() - started)
            return times
        finally:
            if enabled:
                gc.enable()

    def next(self) -> int:
        self.probes.append(self._probe())
        return len(self.probes) - 2

    def factor(self, unit: int) -> float:
        window = self.probes[max(0, unit - SMOOTH + 1):unit + SMOOTH + 1]
        return self.reference_s / statistics.median([t for p in window for t in p])

    def kernel_ms(self) -> float:
        """Median kernel time over every probe so far, in ms."""
        return statistics.median([t for p in self.probes for t in p]) * 1000.0
