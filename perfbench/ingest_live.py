"""``ingest_live``: lifecycle messages streaming in while a reader monitors.

Set-up opens a 4-shard durable store (one WAL per shard, fsync policy
``"rotate"``: fsync on segment rotation, snapshot and close) behind a
``ProvenanceKeeper`` (PROV projection on, its default) that also feeds a
``LineageIndex``, and preloads a seeded historical campaign through the
keeper's batch path.

Then one producer thread emits RUNNING/FINISHED (or FAILED) lifecycles
with ``_upstream`` links through ``CaptureContext.buffer`` in a closed
loop; the buffer flushes every 16 messages (``SizeFlush(16)``, the
capture default, pinned here) through broker -> keeper -> store (WAL)
-> lineage, all on the producer's thread.  ``--seconds`` sizes the run
at :data:`NOMINAL_MSGS_PER_S` messages per second, so every run stores
the same data.  One reader thread sends runtime-monitoring
queries (filter by ``workflow_id``, sql ``COUNT … WHERE status``, graph
``upstream``) through the in-process gateway at :data:`READER_RATE`
per second, each timed from when it was due, and asks only about tasks
whose flush has returned.  The run ends by closing and reopening the
store; the reopened store and a lineage index rebuilt from it must
equal a memory reference fed the same messages.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Iterator

from common import (
    WORK_DIR, GcMonitor, chunks, median, ms, peak_rss_mib, percentile, timed_setups,
)
from speed import COMPUTE_REFERENCE_S, Meter, compute_kernel

N_SHARDS = 4
FSYNC = "rotate"
HISTORY_WORKFLOWS = 500
TASKS_PER_WORKFLOW = 10
FAILED_SHARE = 0.05
#: nominal producer rate on a 2-vCPU host: ``--seconds`` buys
#: ``seconds * NOMINAL_MSGS_PER_S`` messages, so every run does the same
#: work and ends with the same store size
NOMINAL_MSGS_PER_S = 4500
FLUSH_SIZE = 16
#: producer windows per run, each scaled by the host speed probed around
#: it (:mod:`speed`): the lag p50 is a median over the windows, the
#: throughput their sum
WINDOWS = 15
#: reader arrival rate (queries/s), cycling filter -> sql -> graph
READER_RATE = 10.0
#: every n-th acknowledged batch gets a point lookup right after its flush
LOOKUP_EVERY = 8
READER_KINDS = ("filter", "sql", "graph")
FAILED_SQL = "SELECT COUNT(*) FROM tasks WHERE status = 'FAILED'"


def _task(rng: random.Random, wf: str, k: int, clock: float) -> tuple[dict, dict]:
    """RUNNING and final payloads of task ``k`` of workflow ``wf``."""
    task_id = f"{wf}/t{k}"
    used: dict[str, Any] = {"x": rng.randrange(1000), "lr": rng.random()}
    if k:
        used["_upstream"] = [f"{wf}/t{k - 1}"]
    base = {
        "task_id": task_id,
        "campaign_id": "perfbench-live",
        "workflow_id": wf,
        "activity_id": f"step-{k}",
        "hostname": f"node-{rng.randrange(8)}",
        "type": "task",
        "started_at": clock,
        "telemetry_at_start": {"cpu": {"percent": rng.random() * 100}},
    }
    running = dict(base, used=used, generated={}, status="RUNNING")
    final = dict(
        base,
        used=used,
        generated={"loss": rng.random(), "y": rng.randrange(1 << 20)},
        ended_at=clock + 0.5 + rng.random(),
        status="FAILED" if rng.random() < FAILED_SHARE else "FINISHED",
        telemetry_at_end={"cpu": {"percent": rng.random() * 100}},
    )
    return running, final


def history(seed: int) -> list[dict]:
    """The preloaded campaign: final states only, as a past run left them."""
    rng = random.Random(seed)
    docs = []
    for w in range(HISTORY_WORKFLOWS):
        for k in range(TASKS_PER_WORKFLOW):
            docs.append(_task(rng, f"hist-{w:05d}", k, 1000.0 + w * 20 + k)[1])
    return docs


def live_stream(seed: int) -> Iterator[dict]:
    """Endless seeded lifecycle stream: RUNNING then final, task by task."""
    rng = random.Random(seed * 104729 + 3)
    w = 0
    while True:
        wf = f"live-{w:06d}"
        for k in range(TASKS_PER_WORKFLOW):
            running, final = _task(rng, wf, k, 50_000.0 + w * 20 + k)
            yield running
            yield final
        w += 1


class Stack:
    """Producer hub, durable sharded store, keeper, lineage, reader gateway."""

    def __init__(self, path: Path, history_docs: list[dict]):
        from repro.agent.service import AgentService
        from repro.api.client import GatewayClient
        from repro.api.gateway import ProvenanceGateway
        from repro.capture.context import CaptureContext
        from repro.lineage.index import LineageIndex
        from repro.messaging.buffer import SizeFlush
        from repro.provenance.keeper import ProvenanceKeeper
        from repro.provenance.query_api import QueryAPI
        from repro.storage import open_durable_sharded

        self.path = path
        self.capture = CaptureContext(flush_strategy=SizeFlush(FLUSH_SIZE))
        self.store = open_durable_sharded(str(path), N_SHARDS, fsync=FSYNC)
        self.keeper = ProvenanceKeeper(
            self.capture.broker, self.store, lineage_index=LineageIndex()
        )
        self.keeper.start()
        for batch in chunks(history_docs, 500):
            self.keeper.ingest_batch(batch)
        # the reader's agent has its own hub: only the keeper consumes
        # the producer's stream
        self.service = AgentService(
            CaptureContext(), query_api=QueryAPI(self.store), keeper=self.keeper
        )
        self.gateway = ProvenanceGateway(self.service)
        self.client = GatewayClient(self.gateway)

    def close(self) -> None:
        self.service.close()
        self.keeper.stop()
        self.store.close()

    def discard(self) -> None:
        self.close()
        shutil.rmtree(self.path, ignore_errors=True)


def wal_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("wal-*.log"))


class Producer:
    """Closed-loop capture: append, and on each flush record visibility."""

    def __init__(self, stack: Stack, stream: Iterator[dict], failed_base: int):
        self.stack = stack
        self.stream = stream
        self.sent: list[dict] = []
        self.lookup_misses = 0
        #: (task_id, workflow_id, parent_id) of the newest acknowledged task
        self.last_acked: tuple[str, str, str | None] | None = None
        self.failed_acked = failed_base
        self.failed_sent = failed_base
        self.batches = 0

    def run(self, n_messages: int, meter: Meter) -> dict[str, Any]:
        """Produce ``n_messages`` (a multiple of ``WINDOWS`` x the flush
        size) in :data:`WINDOWS` equal windows, probing the host speed
        between windows.

        Returns the run's throughput (messages over their summed window
        times, each scaled by the speed probed around the window: GC
        pauses of up to a second fall in some windows and not others,
        and the sum counts them all), the median over the windows of
        each window's scaled median visibility lag, the same figures
        unscaled, and every message's raw lag.
        """
        size = n_messages // WINDOWS
        if size % FLUSH_SIZE:
            raise RuntimeError("n_messages must be a multiple of WINDOWS x the flush size")
        lags: list[float] = []
        windows = []  # (elapsed s, median lag s, unit)
        for _ in range(WINDOWS):
            started = time.perf_counter()
            window = self._produce(size)
            windows.append((time.perf_counter() - started, median(window), meter.next()))
            lags += window
        return {
            "msgs_per_s": n_messages / sum(t * meter.factor(u) for t, _, u in windows),
            "lag_p50_ms": ms(median([lag * meter.factor(u) for _, lag, u in windows])),
            "raw_msgs_per_s": n_messages / sum(t for t, _, _ in windows),
            "raw_lag_p50_ms": ms(median([lag for _, lag, _ in windows])),
            "lags": lags,
        }

    def _produce(self, n_messages: int) -> list[float]:
        """Append ``n_messages``; the last one fills a flush.  Returns each
        message's lag: append -> the flush that stored it returns."""
        buffer = self.stack.capture.buffer
        store = self.stack.store
        lags: list[float] = []
        pending: list[float] = []
        pending_failed = 0
        for _ in range(n_messages):
            payload = next(self.stream)
            self.sent.append(payload)
            if payload["status"] == "FAILED":
                self.failed_sent += 1
                pending_failed += 1
            appended_at = time.perf_counter()
            flushed = buffer.append(payload)
            pending.append(appended_at)
            if not flushed:
                continue
            done = time.perf_counter()
            lags.extend(done - t for t in pending)
            pending.clear()
            self.batches += 1
            self.failed_acked += pending_failed
            pending_failed = 0
            used = payload["used"].get("_upstream")
            self.last_acked = (payload["task_id"], payload["workflow_id"], used[0] if used else None)
            if self.batches % LOOKUP_EVERY == 0 and store.find_one({"task_id": payload["task_id"]}) is None:
                self.lookup_misses += 1
        if pending:
            raise RuntimeError("a window must end with a flush")
        return lags


class Reader:
    """Open-loop monitoring queries about acknowledged tasks only."""

    def __init__(self, stack: Stack, producer: Producer):
        self.stack = stack
        self.producer = producer
        self.samples: list[tuple[str, float, float]] = []  # kind, latency, lateness
        self.failed = 0
        self.error: Exception | None = None
        self._stop = threading.Event()

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:
        try:
            self._loop()
        except Exception as exc:  # re-raised by the thread that joins us
            self.error = exc

    def _loop(self) -> None:
        from repro.api.schemas import QueryRequest

        client = self.stack.client
        producer = self.producer
        start = time.perf_counter()
        i = 0
        while not self._stop.is_set():
            due = start + i / READER_RATE
            wait = due - time.perf_counter()
            if wait > 0 and self._stop.wait(wait):
                return
            acked = producer.last_acked
            if acked is None:
                i += 1
                continue
            task_id, workflow_id, parent = acked
            kind = READER_KINDS[i % len(READER_KINDS)]
            floor = producer.failed_acked
            sent = time.perf_counter()
            if kind == "filter":
                reply = client.query_json(QueryRequest(dialect="filter", filter={"workflow_id": workflow_id}))
                ok = f'"{task_id}"' in reply
            elif kind == "sql":
                reply = client.query_json(QueryRequest(dialect="sql", sql=FAILED_SQL))
                data = json.loads(reply)
                ok = isinstance(data.get("scalar"), int) and floor <= data["scalar"] <= producer.failed_sent
            else:
                reply = client.query_json(QueryRequest(dialect="graph", operation="upstream", task_id=task_id))
                ok = json.loads(reply)["type"] != "v1/error" and (parent is None or f'"{parent}"' in reply)
            done = time.perf_counter()
            if not ok:
                self.failed += 1
            self.samples.append((kind, done - due, max(0.0, sent - due)))
            i += 1


def _measure(stack: Stack, producer: Producer, n_messages: int) -> tuple[dict, Reader, dict]:
    meter = Meter(compute_kernel, COMPUTE_REFERENCE_S)
    reader = Reader(stack, producer)
    monitor = GcMonitor().start()
    thread = threading.Thread(target=reader.run, name="perfbench-reader")
    thread.start()
    try:
        produced = producer.run(n_messages, meter)
        produced["kernel_ms"] = meter.kernel_ms()
    finally:
        reader.stop()
        thread.join()
    if reader.error is not None:
        raise reader.error
    return produced, reader, monitor.stop()


def _reader_metrics(samples: list[tuple[str, float, float]]) -> dict[str, float]:
    latency = [lat for _, lat, _ in samples]
    out = {
        "live_query_p50_ms": ms(median(latency)),
        "live_query_p99_ms": ms(percentile(latency, 99)),
        "live.late_p99_ms": ms(percentile([late for *_, late in samples], 99)),
    }
    for kind in READER_KINDS:
        out[f"live.{kind}_p50_ms"] = ms(median([lat for k, lat, _ in samples if k == kind]))
    return out


def _state(store: Any, lineage: Any) -> tuple[list[str], list[tuple], dict[str, int]]:
    """Comparable contents: every document, every node's edges, index stats."""
    docs = store.all()
    ids = sorted(d["task_id"] for d in docs if d["task_id"] in lineage)
    return (
        sorted(json.dumps(d, sort_keys=True) for d in docs),
        [(tid, sorted(lineage.parents(tid)), sorted(lineage.children(tid))) for tid in ids],
        lineage.stats(),
    )


def verify(path: Path, messages: list[dict]) -> tuple[int, float]:
    """Reopen the store; compare store + rebuilt lineage with a memory
    reference fed the same messages.  Returns (mismatches, recovery_s),
    where recovery covers the shards' WAL replay and the routing rebuild."""
    from repro.capture.context import CaptureContext
    from repro.lineage.index import LineageIndex
    from repro.provenance.keeper import ProvenanceKeeper
    from repro.storage import ProvenanceDatabase, open_durable_sharded

    started = time.perf_counter()
    reopened = open_durable_sharded(str(path), N_SHARDS, fsync=FSYNC)
    recovery_s = time.perf_counter() - started
    try:
        rebuilt = ProvenanceKeeper(CaptureContext().broker, reopened, lineage_index=LineageIndex())
        rebuilt.rebuild_lineage()
        reference = ProvenanceKeeper(
            CaptureContext().broker, ProvenanceDatabase(), lineage_index=LineageIndex()
        )
        for batch in chunks(messages, 500):
            reference.ingest_batch(batch)
        got = _state(reopened, rebuilt.lineage_index)
        want = _state(reference.database, reference.lineage_index)
    finally:
        reopened.close()
    mismatches = sum(1 for g, w in zip(got, want) if g != w)
    return mismatches, recovery_s


def _session(stack: Stack, hist: list[dict], live: list[dict],
             tracer: Any = None) -> dict[str, Any]:
    """Produce + read on ``stack``, then close it, reopen and verify.

    With a ``tracer``, the production is traced at every layer and the
    reopen only at the routing rebuild, so replaying the WAL does not
    pay for thousands of spans.
    """
    from layers import delta, pushdown_counters
    from spans import Tracer

    wal_before = wal_bytes(stack.path)
    pushdown_before = pushdown_counters(stack.gateway.stats())
    n_messages = len(live)
    producer = Producer(stack, iter(live), sum(1 for d in hist if d["status"] == "FAILED"))
    spans: dict[str, dict[str, float]] = {}
    if tracer is not None:
        tracer.install()
        try:
            with tracer.span("client.produce"):
                produced, reader, gc_stats = _measure(stack, producer, n_messages)
        finally:
            tracer.uninstall()
        spans = tracer.summary()
    else:
        produced, reader, gc_stats = _measure(stack, producer, n_messages)
    # nothing returned may reference the stack: the traced session runs
    # after this one, and a live store would double the heap GC walks
    out = {
        "produced": produced, "reader_samples": reader.samples, "gc": gc_stats, "spans": spans,
        "wal_bytes_per_msg": (wal_bytes(stack.path) - wal_before) / n_messages,
        "rss": peak_rss_mib(),
        "rejected": stack.keeper.stats()["rejected"],
        "pushdown": delta(pushdown_counters(stack.gateway.stats()), pushdown_before),
    }
    stack.close()
    recovery_tracer = Tracer().install(only=("storage.rebuild_routing",)) if tracer else None
    try:
        mismatches, out["recovery_s"] = verify(stack.path, hist + producer.sent)
    finally:
        if recovery_tracer is not None:
            recovery_tracer.uninstall()
    if recovery_tracer is not None:
        out["routing_s"] = recovery_tracer.summary()["storage.rebuild_routing"]["total_s"]
    out["attempted"] = n_messages + len(reader.samples)
    out["failed"] = reader.failed + producer.lookup_misses + mismatches + out["rejected"]
    return out


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    from layers import from_spans
    from spans import LayerStats, Tracer

    hist = history(seed)
    step = FLUSH_SIZE * WINDOWS
    n_messages = max(1, round(seconds * NOMINAL_MSGS_PER_S / step)) * step
    # generated up front, so the producer loop times only the program
    live = list(itertools.islice(live_stream(seed), n_messages))
    work = WORK_DIR / f"ingest-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    layers: dict[str, float] = {}
    try:
        stack, setup_s, raw_setup_s = timed_setups(
            lambda i: Stack(work / f"rep{i}", hist), Stack.discard,
            Meter(compute_kernel, COMPUTE_REFERENCE_S), repeats=5,
        )
        base = _session(stack, hist, live)
        del stack
        gc.collect()
        attempted, failed = base["attempted"], base["failed"]
        if trace:
            # the traced session gets a fresh stack: ingest slows as the
            # store grows, so only equal starting states compare
            fresh = Stack(work / "traced", hist)
            traced = _session(fresh, hist, live, Tracer())
            attempted += traced["attempted"]
            failed += traced["failed"]
            stats = LayerStats(traced["spans"])
            pushdown = dict(traced["pushdown"], queries=float(len(traced["reader_samples"])))
            layers.update(from_spans(stats, pushdown))
            layers["trace.overhead"] = (
                base["produced"]["msgs_per_s"] / traced["produced"]["msgs_per_s"] - 1.0
            )
            layers["trace.coverage"] = stats.child_s("client.produce") / stats.total_s("client.produce")
            layers["recovery.routing_s"] = traced["routing_s"]
            layers["recovery.shards_s"] = traced["recovery_s"] - traced["routing_s"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    produced = base["produced"]
    e2e = {
        "setup_s": setup_s,
        "throughput_per_s": produced["msgs_per_s"],
        "p50_ms": produced["lag_p50_ms"],
        "peak_rss_mib": base["rss"],
    }
    record = {
        "workload": "ingest_live",
        "fsync": FSYNC,
        "flush_size": FLUSH_SIZE,
        "shards": N_SHARDS,
        "history_docs": len(hist),
        "live_messages": n_messages,
        "reader_rate": READER_RATE,
        "reader_queries": len(base["reader_samples"]),
        "ingest_msgs_per_s": e2e["throughput_per_s"],
        "visible_lag_p50_ms": e2e["p50_ms"],
        "raw.ingest_msgs_per_s": produced["raw_msgs_per_s"],
        "raw.visible_lag_p50_ms": produced["raw_lag_p50_ms"],
        "speed.kernel_ms": produced["kernel_ms"],
        "visible_lag_p99_ms": ms(percentile(produced["lags"], 99)),
        "recovery_s": base["recovery_s"],
        "storage.wal_bytes_per_msg": base["wal_bytes_per_msg"],
        "keeper.rejected": base["rejected"],
        "setup_s": setup_s,
        "raw.setup_s": raw_setup_s,
        "peak_rss_mib": base["rss"],
        "failed_ratio": failed / attempted,
        **_reader_metrics(base["reader_samples"]),
        **base["gc"],
    }
    if trace:
        for key in ("visible_lag_p99_ms", "recovery_s", "storage.wal_bytes_per_msg",
                    "keeper.rejected", "failed_ratio", "live_query_p50_ms",
                    "live_query_p99_ms", "live.filter_p50_ms", "live.sql_p50_ms",
                    "live.graph_p50_ms"):
            layers[key] = record[key]
        layers.update(base["gc"])
        record["layers"] = layers
    return {
        "record": record,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "e2e": e2e,
        "layers": layers,
    }
