"""Repository benchmark: one command for every workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` runs the same measurement untraced and then traced, and
prints the per-layer metrics.  The line before the last carries the
full record (environment, workload-specific figures); the last line is
the result: ``{"correct", "attempted", "failed", "metrics"}``.  Any
output mismatch makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import common  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("serve_mix", "cold_scan", "ingest_live")

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # import the program before anything is measured: a checkout without
    # src/ fails here, before a result is printed
    import repro  # noqa: F401

    if args.workload == "serve_mix":
        import serve_mix as workload
    elif args.workload == "cold_scan":
        import cold_scan as workload
    else:
        import ingest_live as workload
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))

    record = common.environment(args.seed, **outcome["record"])
    if args.trace:
        metrics = layers.complete(outcome["layers"])
    else:
        metrics = {
            name: {"value": float(outcome["e2e"][name]), "unit": unit}
            for name, unit in END_TO_END
        }
    common.emit(record, {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    })
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
