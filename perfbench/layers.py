"""The per-layer metrics a traced run reports, and how each is derived.

Every traced run prints every metric below.  A layer the workload never
calls reads 0 (no calls, no time); which workload exercises which layer
is listed in ``perfbench/README.md``.
"""

from __future__ import annotations

from typing import Any

from spans import LayerStats

US, MS = 1e6, 1e3

#: (name, unit, better) — mirrored by ``per_layer`` in BENCHMARK.json
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("api.transport.ms_per_req", "ms", "lower"),
    ("api.admission.us_per_call", "us", "lower"),
    ("api.schemas.decode_us", "us", "lower"),
    ("api.schemas.encode_us", "us", "lower"),
    ("api.gateway.self_us_per_req", "us", "lower"),
    ("agent.chat.self_ms", "ms", "lower"),
    ("llm.complete_ms", "ms", "lower"),
    ("llm.calls_per_chat", "count", "lower"),
    ("query.cache.hit_ratio", "ratio", "higher"),
    ("query.cache.probe_us", "us", "lower"),
    ("sql.compile_ms", "ms", "lower"),
    ("query.parser.parse_ms", "ms", "lower"),
    ("query.pushdown.plan_ms", "ms", "lower"),
    ("query.pushdown.pushed_ratio", "ratio", "higher"),
    ("storage.scatter_ms", "ms", "lower"),
    ("storage.find_ms", "ms", "lower"),
    ("storage.rows_scanned_per_query", "count", "lower"),
    ("storage.payload_cells_per_query", "count", "lower"),
    ("query.partial.merge_ms", "ms", "lower"),
    ("provenance.to_frame_ms", "ms", "lower"),
    ("query.executor.execute_ms", "ms", "lower"),
    ("scan.sql_p50_ms", "ms", "lower"),
    ("scan.pipeline_p50_ms", "ms", "lower"),
    ("scan.filter_p50_ms", "ms", "lower"),
    ("messaging.buffer.append_us", "us", "lower"),
    ("messaging.broker.publish_ms", "ms", "lower"),
    ("keeper.normalise_us_per_msg", "us", "lower"),
    ("keeper.self_ms_per_batch", "ms", "lower"),
    ("storage.upsert_ms_per_batch", "ms", "lower"),
    ("storage.wal_ms_per_batch", "ms", "lower"),
    ("storage.index_ms_per_batch", "ms", "lower"),
    ("storage.wal_bytes_per_msg", "bytes", "lower"),
    ("lineage.apply_ms_per_batch", "ms", "lower"),
    ("keeper.rejected", "count", "lower"),
    ("recovery.shards_s", "s", "lower"),
    ("recovery.routing_s", "s", "lower"),
    ("live.filter_p50_ms", "ms", "lower"),
    ("live.sql_p50_ms", "ms", "lower"),
    ("live.graph_p50_ms", "ms", "lower"),
    ("gc.pause_share", "ratio", "lower"),
    ("gc.max_pause_ms", "ms", "lower"),
    ("gc.gen2_count", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    # the workload-specific end-to-end figures that have no slot in the
    # gated set (see BENCHMARK.json), measured untraced in the traced run
    ("failed_ratio", "ratio", "lower"),
    ("chat_p50_ms", "ms", "lower"),
    ("serve_p99_ms", "ms", "lower"),
    ("serve.generator_late_p99_ms", "ms", "lower"),
    ("visible_lag_p99_ms", "ms", "lower"),
    ("live_query_p50_ms", "ms", "lower"),
    ("live_query_p99_ms", "ms", "lower"),
    ("recovery_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def from_spans(stats: LayerStats, pushdown: dict[str, float]) -> dict[str, float]:
    """The metrics that follow from span sums and gateway pushdown counters.

    ``pushdown`` holds the window's deltas of the gateway's
    ``pushed``/``fallback`` decisions, ``rows_scanned``,
    ``payload_cells`` and the number of ``queries`` the workload sent.
    """
    s = stats
    batches = s.calls("keeper.ingest_batch")
    hits = s.count("query.cache.get", "hit")
    misses = s.count("query.cache.get", "miss")
    decided = pushdown.get("pushed", 0.0) + pushdown.get("fallback", 0.0)
    queries = pushdown.get("queries", 0.0)
    return {
        "api.admission.us_per_call": s.per(s.total_s("api.admission"), s.calls("api.admission"), US),
        "api.schemas.decode_us": s.per(s.self_s("api.schemas.decode"), s.calls("api.schemas.decode"), US),
        "api.schemas.encode_us": s.per(s.self_s("api.schemas.encode"), s.calls("api.schemas.encode"), US),
        "api.gateway.self_us_per_req": s.per(s.self_s("api.gateway"), s.calls("api.gateway"), US),
        "agent.chat.self_ms": s.per(s.self_s("agent.chat"), s.calls("agent.chat"), MS),
        "llm.complete_ms": s.per(s.total_s("llm.complete"), s.calls("llm.complete"), MS),
        "llm.calls_per_chat": s.per(s.calls("llm.complete"), s.calls("agent.chat"), 1.0),
        "query.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "query.cache.probe_us": s.per(s.self_s("query.cache.get"), s.calls("query.cache.get"), US),
        "sql.compile_ms": s.per(s.total_s("sql.compile"), s.calls("sql.compile"), MS),
        "query.parser.parse_ms": s.per(s.total_s("query.parser.parse"), s.calls("query.parser.parse"), MS),
        "query.pushdown.plan_ms": s.per(s.total_s("query.pushdown.plan"), s.calls("query.pushdown.plan"), MS),
        "query.pushdown.pushed_ratio": pushdown.get("pushed", 0.0) / decided if decided else 0.0,
        "storage.scatter_ms": s.per(s.total_s("storage.scatter"), s.calls("storage.scatter"), MS),
        "storage.find_ms": s.per(s.total_s("storage.find"), s.calls("storage.find"), MS),
        "storage.rows_scanned_per_query": s.per(pushdown.get("rows_scanned", 0.0), queries, 1.0),
        "storage.payload_cells_per_query": s.per(pushdown.get("payload_cells", 0.0), queries, 1.0),
        "query.partial.merge_ms": s.per(s.total_s("query.partial.merge"), s.calls("query.partial.merge"), MS),
        "provenance.to_frame_ms": s.per(s.self_s("provenance.to_frame"), s.calls("provenance.to_frame"), MS),
        "query.executor.execute_ms": s.per(s.total_s("query.executor.execute"), s.calls("query.executor.execute"), MS),
        "messaging.buffer.append_us": s.per(s.self_s("messaging.buffer.append"), s.calls("messaging.buffer.append"), US),
        "messaging.broker.publish_ms": s.per(s.self_s("messaging.broker.publish"), s.calls("messaging.broker.publish"), MS),
        "keeper.normalise_us_per_msg": s.per(s.total_s("keeper.normalise"), s.calls("keeper.normalise"), US),
        "keeper.self_ms_per_batch": s.per(s.self_s("keeper.ingest_batch"), batches, MS),
        "storage.upsert_ms_per_batch": s.per(s.self_s("storage.upsert"), batches, MS),
        "storage.wal_ms_per_batch": s.per(s.self_s("storage.wal"), batches, MS),
        "storage.index_ms_per_batch": s.per(s.self_s("storage.index"), batches, MS),
        "lineage.apply_ms_per_batch": s.per(s.total_s("lineage.apply"), batches, MS),
    }


def pushdown_counters(stats_reply: Any) -> dict[str, float]:
    """Cumulative pushdown counters out of a gateway ``StatsReply``."""
    info = stats_reply.pushdown if stats_reply.pushdown is not None else {}
    decisions = info.get("decisions", {})
    totals = info.get("totals", {})
    return {
        "pushed": float(sum(v for k, v in decisions.items() if k.startswith("pushed:"))),
        "fallback": float(sum(v for k, v in decisions.items() if k.startswith("fallback:"))),
        "rows_scanned": float(totals.get("rows_scanned", 0)),
        "payload_cells": float(totals.get("payload_cells", 0)),
    }


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {k: after[k] - before.get(k, 0.0) for k in after}


def complete(values: dict[str, float]) -> dict[str, dict[str, Any]]:
    """Every per-layer metric, in order, 0 where the workload had none."""
    unknown = set(values) - set(UNITS)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
