"""Helpers shared by the workloads: statistics, process facts, GC pauses.

Everything here is benchmark-side plumbing; nothing in it calls into
the program under test.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

from speed import Meter

#: checkout root: the directory the benchmark is run from
ROOT = Path.cwd()
#: scratch space for inputs, WAL directories and server hand-off files;
#: ignored by git, removed by the workload that made it
WORK_DIR = ROOT / ".perfbench-work"


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def ms(seconds: float) -> float:
    return seconds * 1000.0


def peak_rss_mib(pid: int | None = None) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` (default: self)."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def src_line_count() -> int:
    """Lines of Python under ``src/`` (tracked next to performance)."""
    total = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int, **extra: Any) -> dict[str, Any]:
    """The facts every result record carries."""
    return {
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": src_line_count(),
        **extra,
    }


class GcMonitor:
    """Collector pauses in this process, from ``gc.callbacks``.

    Collections run with the interpreter lock held, one at a time, so a
    single start stamp is enough even with several threads allocating.
    """

    def __init__(self) -> None:
        self._started = 0.0
        self._window_start = 0.0
        self.pauses: list[float] = []
        self.gen2 = 0

    def _callback(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pauses.append(time.perf_counter() - self._started)
        if info.get("generation") == 2:
            self.gen2 += 1

    def start(self) -> "GcMonitor":
        self.pauses = []
        self.gen2 = 0
        self._window_start = time.perf_counter()
        if self._callback not in gc.callbacks:
            gc.callbacks.append(self._callback)
        return self

    def stop(self) -> dict[str, float]:
        wall = time.perf_counter() - self._window_start
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)
        return {
            "gc.pause_share": sum(self.pauses) / wall if wall > 0 else 0.0,
            "gc.max_pause_ms": ms(max(self.pauses, default=0.0)),
            "gc.gen2_count": float(self.gen2),
        }


def timed_setups(build: Any, teardown: Any, meter: Meter, repeats: int = 3) -> tuple[Any, float, float]:
    """Run ``build`` ``repeats`` times; keep the last.

    Returns (last build, median scaled set-up time, median raw set-up
    time): ``meter``, a fresh :class:`~speed.Meter`, probes the host
    speed around each build.  Each earlier result is torn down and
    collected before the next build, so peak memory reflects one live
    instance.  Cheap set-ups repeat five times, the 100k-document load
    three.
    """
    raw: list[float] = []
    units: list[int] = []
    built = None
    for i in range(repeats):
        if built is not None:
            teardown(built)
            built = None
            gc.collect()
            meter.next()
        started = time.perf_counter()
        built = build(i)
        raw.append(time.perf_counter() - started)
        units.append(meter.next())
    scaled = [t * meter.factor(u) for t, u in zip(raw, units)]
    return built, median(scaled), median(raw)


def emit(record: dict[str, Any], result: dict[str, Any]) -> None:
    """Print the full record, then the one-line result as the last line."""
    import json

    print(json.dumps({"record": record}, sort_keys=True, default=str))
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()


def chunks(items: Sequence[Any], size: int) -> Iterable[Sequence[Any]]:
    for start in range(0, len(items), size):
        yield items[start:start + size]
