"""``serve_mix``: interactive chat + cached queries against a gateway in
another process.

The asyncio gateway runs in a subprocess (:mod:`server`) over the
paper's synthetic campaign (100 inputs) and its lineage.  This process
generates the inputs, then drives two keep-alive connections through a
16-request cycle: 1 LLM-backed question drawn with the seed from the
20-question golden set, 2 greetings, 4 pipeline + 4 sql + 2 paged filter
queries (the same three requests repeated, so they hit the cache) and 3
``/v1/stats`` reads.

Open-loop slices at :data:`OPEN_LOOP_RATE` requests/s, each request
timed from when it was due, alternate with closed-loop slices that
measure capacity.  Every non-stats reply must be byte-equal to the
in-process ``GatewayClient`` reply the server computed at set-up.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import socket
import subprocess
import sys
import threading
import time
import uuid
from typing import Any

from common import WORK_DIR, median, ms, peak_rss_mib, percentile
from speed import COMPUTE_REFERENCE_S, Meter, compute_kernel

#: open-loop arrival rate (requests/s).  The closed loop measured
#: 700-1100 req/s on a 2-vCPU host at the commit that defined this
#: benchmark.  At 450 req/s a slow phase of the shared host pushed the
#: open loop into saturation (p50 381 ms); at 300 req/s slow phases
#: still queued requests behind chat turns on the two connections (slice
#: p50s of 2-19 ms against 1.2 ms).  At ~0.15 of the capacity p50 is the
#: service time, not a queue
OPEN_LOOP_RATE = 150.0
CONNECTIONS = 2
#: open-loop slices per run, each followed by a closed-loop slice; the
#: gated figures are medians over the slices
SLICES = 8
SESSIONS = [f"s{c}" for c in range(CONNECTIONS)]
GREETINGS = ["Hello!", "Good morning"]

#: the 16-request cycle; "nl" is the seeded golden-set question
CYCLE = (
    "nl", "pipeline", "sql", "stats",
    "greet0", "pipeline", "sql", "filter",
    "pipeline", "sql", "stats", "greet1",
    "pipeline", "sql", "filter", "stats",
)
CHAT_KINDS = ("nl", "greet0", "greet1")

PIPELINE_POOL = (
    "df['duration'].mean()",
    "df.groupby('activity_id')['duration'].mean()",
    "df.groupby('hostname')['duration'].max()",
)
SQL_POOL = (
    "SELECT AVG(duration) FROM tasks",
    "SELECT activity_id, COUNT(*) FROM tasks GROUP BY activity_id",
    "SELECT hostname, MAX(duration) FROM tasks GROUP BY hostname",
)

_UUID = re.compile(
    r"[0-9a-f]{8}-[0-9a-f]{4}-4[0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}"
)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _stable_ids(payloads: list[dict], rng: random.Random) -> list[dict]:
    """Replace the campaign's random workflow UUIDs with seeded ones."""
    text = json.dumps(payloads)
    mapping: dict[str, str] = {}
    for found in _UUID.findall(text):
        if found not in mapping:
            mapping[found] = str(uuid.UUID(int=rng.getrandbits(128), version=4))
    return json.loads(_UUID.sub(lambda m: mapping[m.group(0)], text))


def make_inputs(seed: int) -> dict[str, Any]:
    from repro.agent.context_manager import ContextManager
    from repro.capture.context import CaptureContext
    from repro.evaluation.query_set import build_query_set
    from repro.provenance.keeper import TASK_TOPIC
    from repro.workflows.synthetic import run_synthetic_campaign

    rng = random.Random(seed)
    capture = CaptureContext(seed=("perfbench", seed))
    captured: list[dict] = []
    capture.broker.subscribe(
        "provenance.#",
        lambda env: captured.append(dict(env.payload)),
        batch_callback=lambda envs: captured.extend(dict(e.payload) for e in envs),
    )
    run_synthetic_campaign(capture, n_inputs=100, seed=("perfbench", seed))
    payloads = _stable_ids(captured, rng)

    hub = CaptureContext()
    context = ContextManager(hub.broker).start()
    hub.broker.publish_batch(TASK_TOPIC, payloads)
    questions = [q.nl for q in build_query_set(context.to_frame())]

    activities = sorted({p["activity_id"] for p in payloads if p.get("type") == "task"})
    return {
        "seed": seed,
        "payloads": payloads,
        "sessions": SESSIONS,
        "greetings": GREETINGS,
        "questions": questions,
        "queries": {
            "pipeline": {"dialect": "pipeline", "code": rng.choice(PIPELINE_POOL)},
            "sql": {"dialect": "sql", "sql": rng.choice(SQL_POOL)},
            "filter": {
                "dialect": "filter",
                "filter": {"activity_id": rng.choice(activities)},
                "page_size": 5,
            },
        },
        "nl_order": [rng.randrange(len(questions)) for _ in range(4096)],
    }


def _http(method: str, path: str, body: str | None = None) -> bytes:
    payload = body.encode() if body is not None else b""
    head = f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\nAccept: application/json\r\n"
    if method == "POST":
        head += f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
    return (head + "\r\n").encode() + payload


class RequestPlan:
    """Request ``i`` on connection ``c``: pre-encoded bytes + expected key."""

    def __init__(self, inputs: dict[str, Any]):
        self.nl_order = inputs["nl_order"]
        self.questions = inputs["questions"]
        self._chat: dict[tuple[int, str], bytes] = {}
        for c, session in enumerate(inputs["sessions"]):
            for message in self.questions + inputs["greetings"]:
                self._chat[(c, message)] = _http(
                    "POST", f"/v1/sessions/{session}/chat",
                    json.dumps({"message": message}),
                )
        self.sessions = inputs["sessions"]
        self.greetings = inputs["greetings"]
        self._query = {
            name: _http("POST", "/v1/query", json.dumps(spec))
            for name, spec in inputs["queries"].items()
        }
        self._stats = _http("GET", "/v1/stats")

    def request(self, i: int, c: int) -> tuple[str, bytes, str | None]:
        kind = CYCLE[i % len(CYCLE)]
        if kind == "stats":
            return kind, self._stats, None
        if kind in ("pipeline", "sql", "filter"):
            return kind, self._query[kind], f"query|{kind}"
        if kind == "nl":
            cycle = i // len(CYCLE)
            message = self.questions[self.nl_order[cycle % len(self.nl_order)]]
        else:
            message = self.greetings[int(kind[-1])]
        return kind, self._chat[(c, message)], f"chat|{self.sessions[c]}|{message}"


# ---------------------------------------------------------------------------
# load generation
# ---------------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection with a minimal reply parser."""

    def __init__(self, port: int):
        self.port = port
        self._sock: socket.socket | None = None
        self._rfile: Any = None

    def _connect(self) -> None:
        self._sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")

    def close(self) -> None:
        if self._rfile is not None:
            self._rfile.close()
        if self._sock is not None:
            self._sock.close()
        self._sock = self._rfile = None

    def request(self, raw: bytes) -> tuple[int, bytes]:
        if self._sock is None:
            self._connect()
        assert self._sock is not None
        self._sock.sendall(raw)
        status_line = self._rfile.readline()
        if not status_line:
            self.close()
            return 0, b""
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        keep_alive = True
        while True:
            line = self._rfile.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection" and value.strip().lower() == b"close":
                keep_alive = False
        body = self._rfile.read(length) if length else b""
        if not keep_alive:
            self.close()
        return status, body


class Sample:
    __slots__ = ("kind", "due", "sent", "done", "ok")

    def __init__(self, kind: str, due: float, sent: float, done: float, ok: bool):
        self.kind, self.due, self.sent, self.done, self.ok = kind, due, sent, done, ok


def _check(status: int, body: bytes, key: str | None, expected: dict[str, bytes]) -> bool:
    if status != 200:
        return False
    if key is None:  # /v1/stats: live counters, only the shape is checked
        try:
            return json.loads(body).get("type") == "v1/stats_reply"
        except ValueError:
            return False
    return body == expected[key]


def run_phase(
    conns: list[Connection], plan: RequestPlan, expected: dict[str, bytes],
    seconds: float, rate: float | None, offset: int,
) -> tuple[float, list[Sample]]:
    """Open loop at ``rate`` requests/s, or closed loop when ``rate`` is None,
    sending the plan's requests from number ``offset`` on.

    Returns (phase start, samples).  In the open loop request ``i`` is
    due at ``start + (i - offset) / rate``; a connection that is still
    busy sends late, and the wait counts in the request's latency.
    """
    counter = itertools.count(offset)
    results: list[list[Sample]] = [[] for _ in conns]
    start = time.perf_counter() + 0.05
    deadline = start + seconds
    errors: list[BaseException] = []

    def worker(c: int) -> None:
        conn, out = conns[c], results[c]
        try:
            while True:
                i = next(counter)
                due = start + (i - offset) / rate if rate is not None else max(start, time.perf_counter())
                if due >= deadline:
                    return
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                kind, raw, key = plan.request(i, c)
                sent = time.perf_counter()
                status, body = conn.request(raw)
                done = time.perf_counter()
                out.append(Sample(kind, due, sent, done, _check(status, body, key, expected)))
        except Exception as exc:  # surfaced below, after the join
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(c,)) for c in range(len(conns))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return start, [s for out in results for s in out]


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class ServerProcess:
    """The gateway subprocess and its line protocol."""

    def __init__(self, inputs_path: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join("perfbench", "server.py"), inputs_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._watchdog = threading.Timer(150.0, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def read(self) -> dict[str, Any]:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.proc.wait()}")
        return json.loads(line)

    def command(self, text: str) -> dict[str, Any]:
        assert self.proc.stdin is not None
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        """Stop cleanly when possible; never leave the process behind."""
        try:
            if self.proc.poll() is None:
                self.command("stop")
                self.proc.wait(timeout=30)
        except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self._watchdog.cancel()
            for stream in (self.proc.stdin, self.proc.stdout):
                if stream is not None:
                    stream.close()


def _open_metrics(samples: list[Sample], p50s: list[float]) -> dict[str, float]:
    """Open-loop latency from due time; p50 is the median of the slices'
    p50s."""
    latency = [s.done - s.due for s in samples]
    chat = [s.done - s.due for s in samples if s.kind in CHAT_KINDS]
    late = [max(0.0, s.sent - s.due) for s in samples]
    return {
        "serve_p50_ms": ms(median(p50s)),
        "serve_p99_ms": ms(percentile(latency, 99)),
        "chat_p50_ms": ms(median(chat)),
        "serve.generator_late_p50_ms": ms(median(late)),
        "serve.generator_late_p99_ms": ms(percentile(late, 99)),
    }


def _measure(server: ServerProcess, conns: list[Connection], plan: RequestPlan,
             expected: dict[str, bytes], seconds: float, traced: bool) -> dict[str, Any]:
    """:data:`SLICES` open-loop slices alternating with as many closed-loop
    slices, over ``seconds`` in all, with a speed probe between slices.

    Alternating spreads both measurements over the whole run, and each
    reports the median over its slices (open: latency p50; closed:
    completion rate), so a burst of contention from other tenants of the
    host does not move them.  The closed loop keeps both CPUs busy and
    its rate moves with their speed, so each slice's rate is scaled by
    the speed probed around it.  The open loop leaves them mostly idle:
    its latency is set by how fast the host wakes the two processes'
    threads, which no compute kernel tracks (scaled, its spread over
    seeds rose from 0.07 to 0.12-0.16), so it stays wall-clock.
    """
    server.command(f"begin {1 if traced else 0}")
    slice_s = seconds / (2 * SLICES)
    open_samples: list[Sample] = []
    closed_samples: list[Sample] = []
    p50s: list[float] = []
    rates: list[tuple[float, int]] = []  # (raw rate, unit) per slice
    offset = 0
    meter = Meter(compute_kernel, COMPUTE_REFERENCE_S)
    for _ in range(SLICES):
        _, samples = run_phase(conns, plan, expected, slice_s, OPEN_LOOP_RATE, offset)
        offset += len(samples)
        open_samples += samples
        p50s.append(median([s.done - s.due for s in samples]))
        meter.next()  # probe between the slices; open-loop latency stays unscaled
        start, samples = run_phase(conns, plan, expected, slice_s, None, offset)
        offset += len(samples)
        closed_samples += samples
        rates.append((len(samples) / (max(s.done for s in samples) - start), meter.next()))
    phase = server.command("end")
    return {
        "open": open_samples, "closed": closed_samples,
        "open_metrics": _open_metrics(open_samples, p50s),
        "rps": median([r / meter.factor(u) for r, u in rates]),
        "raw_rps": median([r for r, _ in rates]),
        "kernel_ms": meter.kernel_ms(), "phase": phase,
    }


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    from layers import from_spans
    from spans import LayerStats

    inputs = make_inputs(seed)
    WORK_DIR.mkdir(exist_ok=True)
    inputs_path = WORK_DIR / f"serve-inputs-{os.getpid()}.json"
    inputs_path.write_text(json.dumps(inputs))
    plan = RequestPlan(inputs)
    server = ServerProcess(str(inputs_path))
    conns: list[Connection] = []
    try:
        ready = server.read()
        if ready.get("event") != "ready":
            raise RuntimeError(f"unexpected server hand-shake: {ready}")
        expected = {k: v.encode() for k, v in ready["expected"].items()}
        conns = [Connection(ready["port"]) for _ in range(CONNECTIONS)]
        # warm-up: one full cycle per connection, not measured
        for c, conn in enumerate(conns):
            for i in range(len(CYCLE)):
                conn.request(plan.request(i, c)[1])
        base = _measure(server, conns, plan, expected, seconds, traced=False)
        traced = _measure(server, conns, plan, expected, seconds, traced=True) if trace else None
        rss = peak_rss_mib(server.proc.pid)
    finally:
        for conn in conns:
            conn.close()
        server.close()
        inputs_path.unlink(missing_ok=True)

    samples = base["open"] + base["closed"]
    gc_stats = base["phase"]["gc"]
    e2e = {
        "setup_s": ready["setup_s"],
        "throughput_per_s": base["rps"],
        "p50_ms": base["open_metrics"]["serve_p50_ms"],
        "peak_rss_mib": rss,
    }
    record = {
        "workload": "serve_mix",
        "docs": ready["docs"],
        "open_loop_rate": OPEN_LOOP_RATE,
        "connections": CONNECTIONS,
        "executor_workers": ready["executor_workers"],
        "requests": {"open": len(base["open"]), "closed": len(base["closed"])},
        "serve_rps": e2e["throughput_per_s"],
        "raw.serve_rps": base["raw_rps"],
        "setup_s": e2e["setup_s"],
        "raw.setup_s": ready["raw_setup_s"],
        "speed.kernel_ms": base["kernel_ms"],
        "peak_rss_mib": rss,
        **base["open_metrics"],
        **gc_stats,
    }
    layers: dict[str, float] = {}
    if traced is not None:
        samples_t = traced["open"] + traced["closed"]
        stats = LayerStats(traced["phase"]["spans"])
        pushdown = traced["phase"]["pushdown"]
        pushdown["queries"] = float(sum(1 for s in samples_t if s.kind in ("pipeline", "sql", "filter")))
        layers.update(from_spans(stats, pushdown))
        client_s = sum(s.done - s.sent for s in samples_t)
        routing_s = stats.total_s("api.routing")
        layers["api.transport.ms_per_req"] = ms(
            (client_s - routing_s - stats.total_s("api.admission")) / len(samples_t)
        )
        layers["trace.coverage"] = (routing_s + stats.total_s("api.admission")) / client_s
        layers["trace.overhead"] = base["rps"] / traced["rps"] - 1.0
        layers.update(gc_stats)
        samples += samples_t
    failed = sum(1 for s in samples if not s.ok)
    record["failed_ratio"] = failed / len(samples)
    if traced is not None:
        for key in ("chat_p50_ms", "serve_p99_ms", "serve.generator_late_p99_ms", "failed_ratio"):
            layers[key] = record[key]
        record["layers"] = layers
    return {
        "record": record,
        "attempted": len(samples),
        "failed": failed,
        "correct": failed == 0,
        "e2e": e2e,
        "layers": layers,
    }
