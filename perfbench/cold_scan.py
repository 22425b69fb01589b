"""``cold_scan``: analytical queries that all miss the cache, at 100k docs.

100k wide task documents (~24 leaf fields after flattening) live in a
4-shard in-memory ``ShardedProvenanceStore``.  One closed-loop client
sends through the in-process gateway API; transport is a negligible
share of a query that takes a large part of a second.  Queries come in
rounds of six, two per dialect — sql GROUP BY, sql ORDER BY … LIMIT,
pipeline group aggregate, pipeline row count, filter range pages — and
every query carries fresh seeded literals with a fixed selectivity, so
none is served from the cache.  A run measures ``seconds / ROUND_S``
whole rounds, so every run weighs the dialects equally.

Replies are checked against a single-node store evaluated the classic
way (no operator pushdown): one sampled query of three seeded shapes
per run, so consecutive seeds cover every shape; any error envelope
fails the run.
"""

from __future__ import annotations

import json
import random
import time
from typing import Any

from common import GcMonitor, median, ms, peak_rss_mib, timed_setups
from speed import Meter, scan_kernel

N_DOCS = 100_000
N_SHARDS = 4
N_WORKFLOWS = 128
#: a round's nominal duration on a 2-vCPU host: ``--seconds`` buys
#: ``seconds / ROUND_S`` whole rounds, so every run does the same work
ROUND_S = 3.0
#: the scan kernel's time over the input documents at the reference
#: speed (:mod:`speed`), about what a quiet 2-vCPU VM takes; queries
#: scan a heap far larger than the caches, and moved with this kernel
#: at a slope of 1.0
SCAN_REFERENCE_S = 0.012


def make_docs(seed: int, n: int = N_DOCS) -> list[dict[str, Any]]:
    """Wide nested task documents: ~24 leaf fields after flattening."""
    rng = random.Random(seed)
    docs = []
    for i in range(n):
        started = 1000.0 + rng.random() * 10_000
        docs.append({
            "type": "task",
            "task_id": f"t{i}",
            "workflow_id": f"wf-{i % N_WORKFLOWS:04d}",
            "campaign_id": "perfbench",
            "activity_id": f"act-{i % 9}",
            "status": "FAILED" if i % 13 == 0 else "FINISHED",
            "hostname": f"node-{i % 16}",
            "rank": i % 64,
            "attempt": rng.randrange(3),
            "started_at": started,
            "ended_at": started + rng.random() * 100,
            "duration": rng.random() * 100,
            "used": {
                "x": rng.randrange(1000),
                "y": rng.random(),
                "path": f"/data/in/{i % 512}.dat",
                "bytes": rng.randrange(1 << 20),
            },
            "generated": {
                "out": f"/data/out/{i}.dat",
                "bytes": rng.randrange(1 << 20),
                "checksum": f"{rng.getrandbits(64):016x}",
            },
            "telemetry": {
                "cpu": rng.random() * 100,
                "mem": rng.random() * 64,
                "io_read": rng.randrange(1 << 16),
                "io_write": rng.randrange(1 << 16),
                "gpu": rng.random(),
            },
        })
    return docs


#: one round: (shape, dialect, function making the request fields from a
#: uniform draw u in [0, 1)); each range covers a fixed share of its
#: uniformly distributed field (10% for aggregates, 1% for pages)
SHAPES: tuple[tuple[str, str, Any], ...] = (
    ("sql-groupby", "sql", lambda u: {"sql": (
        "SELECT activity_id, AVG(duration) FROM tasks "
        f'WHERE "telemetry.cpu" BETWEEN {90 * u!r} AND {90 * u + 10!r} '
        "GROUP BY activity_id")}),
    ("sql-topk", "sql", lambda u: {"sql": (
        "SELECT task_id, duration FROM tasks "
        f"WHERE started_at >= {1000 + 9000 * u!r} AND started_at < {2000 + 9000 * u!r} "
        "ORDER BY duration DESC LIMIT 10")}),
    ("pipeline-groupby", "pipeline", lambda u: {"code": (
        f"df[(df['used.y'] >= {0.9 * u!r}) & (df['used.y'] < {0.9 * u + 0.1!r})]"
        ".groupby('hostname')['telemetry.mem'].max()")}),
    ("pipeline-rowcount", "pipeline", lambda u: {"code": (
        f"len(df[(df['telemetry.gpu'] >= {0.9 * u!r}) "
        f"& (df['telemetry.gpu'] < {0.9 * u + 0.1!r})])")}),
    ("filter-page", "filter", lambda u: {
        "filter": {"telemetry.cpu": {"$gte": 99 * u, "$lt": 99 * u + 1}},
        "page_size": 20}),
    ("filter-sorted-page", "filter", lambda u: {
        "filter": {"duration": {"$gte": 99 * u, "$lt": 99 * u + 1}},
        "sort": [["started_at", -1]],
        "page_size": 20}),
)

#: shapes compared with the reference per run (seeded sample); the
#: classic single-node evaluation costs seconds per query
CHECKED_SHAPES = 3


class QueryStream:
    """Rounds of one query per shape, with seeded never-repeating literals."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed * 7919 + 17)
        self._seen: set[float] = set()

    def _draw(self) -> float:
        while True:
            u = self._rng.random()
            if u not in self._seen:
                self._seen.add(u)
                return u

    def round(self) -> list[tuple[str, dict[str, Any]]]:
        return [
            (shape, {"dialect": dialect, **build(self._draw())})
            for shape, dialect, build in SHAPES
        ]


class Stack:
    def __init__(self, docs: list[dict[str, Any]]):
        from repro.agent.service import AgentService
        from repro.api.client import GatewayClient
        from repro.api.gateway import ProvenanceGateway
        from repro.capture.context import CaptureContext
        from repro.provenance.query_api import QueryAPI
        from repro.storage import ShardedProvenanceStore

        self.store = ShardedProvenanceStore(N_SHARDS)
        self.store.upsert_many(docs)
        self.service = AgentService(CaptureContext(), query_api=QueryAPI(self.store))
        self.gateway = ProvenanceGateway(self.service)
        self.client = GatewayClient(self.gateway)

    def close(self) -> None:
        self.service.close()
        self.store.close()


class _ClassicView:
    """A store seen without ``execute_partial``: forces the classic path."""

    def __init__(self, store: Any):
        self._store = store

    def __getattr__(self, name: str) -> Any:
        if name == "execute_partial":
            raise AttributeError(name)
        return getattr(self._store, name)

    def __len__(self) -> int:
        return len(self._store)


def _comparable(reply_json: str) -> Any:
    """A reply with its cursor's store version masked: the single-node
    reference counts versions differently from the 4-shard store."""
    from repro.api.schemas import Cursor

    reply = json.loads(reply_json)
    page = reply.get("page") or {}
    if page.get("next_cursor"):
        cursor = Cursor.decode(page["next_cursor"])
        page["next_cursor"] = [cursor.fingerprint, cursor.offset]
    return reply


def _request(spec: dict[str, Any]) -> Any:
    from repro.api.schemas import QueryRequest, from_jsonable

    return from_jsonable(spec, QueryRequest)


def run_rounds(stack: Stack, stream: QueryStream, rounds: int, meter: Meter,
               tracer: Any = None) -> list[list[tuple]]:
    """``rounds`` whole rounds, a speed probe after every query: per
    round, [(shape, spec, scaled latency_s, raw latency_s, reply)]."""
    out = []
    for _ in range(rounds):
        samples = []
        for shape, spec in stream.round():
            request = _request(spec)
            t0 = time.perf_counter()
            if tracer is not None:
                with tracer.span("client.query"):
                    reply = stack.client.query_json(request)
            else:
                reply = stack.client.query_json(request)
            latency = time.perf_counter() - t0
            samples.append((shape, spec, latency, meter.next(), reply))
        out.append(samples)
    return [
        [(shape, spec, latency * meter.factor(unit), latency, reply)
         for shape, spec, latency, unit, reply in samples]
        for samples in out
    ]


def _round_metrics(rounds: list[list[tuple]], column: int = 2) -> tuple[float, float]:
    """(queries/s, p50 ms) of scaled latencies, or raw ones with
    ``column=3``.  Queries/s is over the whole run, which averages out
    the flicker of the host's speed within single queries; p50 is the
    median over rounds of each round's median latency, so a round slowed
    by contention cannot move it."""
    latencies = [s[column] for r in rounds for s in r]
    qps = len(latencies) / sum(latencies)
    p50 = median([median([s[column] for s in r]) for r in rounds])
    return qps, ms(p50)


def check(docs: list[dict[str, Any]], samples: list, seed: int) -> int:
    """Mismatches among one sampled reply of each of ``CHECKED_SHAPES``
    seeded shapes, plus every error envelope."""
    from repro.agent.service import AgentService
    from repro.api.client import GatewayClient
    from repro.api.gateway import ProvenanceGateway
    from repro.capture.context import CaptureContext
    from repro.provenance.query_api import QueryAPI
    from repro.storage import ProvenanceDatabase

    failed = sum(1 for *_, reply in samples if json.loads(reply)["type"] == "v1/error")
    single = ProvenanceDatabase()
    single.upsert_many(docs)
    service = AgentService(CaptureContext(), query_api=QueryAPI(_ClassicView(single)))
    reference = GatewayClient(ProvenanceGateway(service))
    rng = random.Random(seed)
    try:
        for shape, *_ in rng.sample(SHAPES, CHECKED_SHAPES):
            chosen = rng.choice([s for s in samples if s[0] == shape])
            expected = reference.query_json(_request(chosen[1]))
            if _comparable(expected) != _comparable(chosen[-1]):
                failed += 1
    finally:
        service.close()
    return failed


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    from layers import delta, from_spans, pushdown_counters
    from spans import LayerStats, Tracer

    docs = make_docs(seed)
    kernel = scan_kernel(docs)
    stack, setup_s, raw_setup_s = timed_setups(
        lambda _i: Stack(docs), Stack.close, Meter(kernel, SCAN_REFERENCE_S)
    )
    stream = QueryStream(seed)
    n_rounds = max(1, round(seconds / ROUND_S))
    meter = Meter(kernel, SCAN_REFERENCE_S)
    gc_monitor = GcMonitor().start()
    rounds = run_rounds(stack, stream, n_rounds, meter)
    gc_stats = gc_monitor.stop()
    rss = peak_rss_mib()
    samples = [s for r in rounds for s in r]
    qps, p50 = _round_metrics(rounds)
    raw_qps, raw_p50 = _round_metrics(rounds, column=3)
    by_dialect = {
        dialect: ms(median([s[2] for s in samples if s[1]["dialect"] == dialect]))
        for dialect in ("sql", "pipeline", "filter")
    }
    e2e = {"setup_s": setup_s, "throughput_per_s": qps, "p50_ms": p50, "peak_rss_mib": rss}
    layers: dict[str, float] = {}
    traced_samples: list = []
    if trace:
        tracer = Tracer().install()
        before = pushdown_counters(stack.gateway.stats())
        try:
            traced_rounds = run_rounds(stack, stream, n_rounds, meter, tracer)
        finally:
            tracer.uninstall()
        traced_samples = [s for r in traced_rounds for s in r]
        stats = LayerStats(tracer.summary())
        pushdown = delta(pushdown_counters(stack.gateway.stats()), before)
        pushdown["queries"] = float(len(traced_samples))
        layers.update(from_spans(stats, pushdown))
        layers["trace.coverage"] = stats.child_s("client.query") / stats.total_s("client.query")
        layers["trace.overhead"] = qps / _round_metrics(traced_rounds)[0] - 1.0
        layers.update(gc_stats)
        layers.update({f"scan.{d}_p50_ms": v for d, v in by_dialect.items()})
    all_samples = samples + traced_samples
    check_started = time.perf_counter()
    failed = check(docs, all_samples, seed)
    check_s = time.perf_counter() - check_started
    record = {
        "workload": "cold_scan",
        "docs": N_DOCS,
        "shards": N_SHARDS,
        "queries": len(samples),
        "rounds": n_rounds,
        "scan_qps": e2e["throughput_per_s"],
        "scan_p50_ms": e2e["p50_ms"],
        "raw.scan_qps": raw_qps,
        "raw.scan_p50_ms": raw_p50,
        "setup_s": setup_s,
        "raw.setup_s": raw_setup_s,
        "speed.kernel_ms": meter.kernel_ms(),
        "peak_rss_mib": rss,
        "failed_ratio": failed / len(all_samples),
        "check_s": check_s,
        **{f"scan.{d}_p50_ms": v for d, v in by_dialect.items()},
        **gc_stats,
    }
    if trace:
        layers["failed_ratio"] = record["failed_ratio"]
        record["layers"] = layers
    stack.close()
    return {
        "record": record,
        "attempted": len(all_samples),
        "failed": failed,
        "correct": failed == 0,
        "e2e": e2e,
        "layers": layers,
    }
