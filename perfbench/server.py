"""Gateway server process for the ``serve_mix`` workload.

Run by :mod:`serve_mix` as ``python3 perfbench/server.py <inputs.json>``.
It builds the serving stack from the generated inputs (the campaign's
task messages, the session ids, the requests to expect), computes the
in-process :class:`~repro.api.client.GatewayClient` reply to every
request the load generator will send, starts the asyncio gateway on an
ephemeral port and reports readiness.  Then it obeys one command per
stdin line and answers with one JSON line on stdout:

* ``begin <0|1>`` — start a measured phase, traced when 1;
* ``end`` — close the phase: GC pauses, layer spans, pushdown counters;
* ``stop`` — drain and stop the server, close the service, exit 0.

stdout carries only those JSON lines; anything else goes to stderr.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from common import GcMonitor, timed_setups  # noqa: E402
from layers import pushdown_counters  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import COMPUTE_REFERENCE_S, Meter, compute_kernel  # noqa: E402

from repro.agent.service import AgentService  # noqa: E402
from repro.api.aio import AsyncGatewayServer  # noqa: E402
from repro.api.client import GatewayClient  # noqa: E402
from repro.api.gateway import ProvenanceGateway  # noqa: E402
from repro.api.schemas import QueryRequest, from_jsonable  # noqa: E402
from repro.capture.context import CaptureContext  # noqa: E402
from repro.lineage.index import LineageIndex  # noqa: E402
from repro.llm.service import LLMServer  # noqa: E402
from repro.provenance.keeper import TASK_TOPIC, ProvenanceKeeper  # noqa: E402
from repro.provenance.query_api import QueryAPI  # noqa: E402
from repro.storage import ProvenanceDatabase  # noqa: E402


class Stack:
    """One serving stack: keeper-fed store + lineage, agent, gateway, server."""

    def __init__(self, inputs: dict) -> None:
        payloads = inputs["payloads"]
        # the campaign streams through a keeper into the store and the
        # lineage index, exactly as live capture would deliver it
        hub = CaptureContext()
        self.store = ProvenanceDatabase()
        self.lineage = LineageIndex()
        self.keeper = ProvenanceKeeper(
            hub.broker, self.store, lineage_index=self.lineage
        )
        self.keeper.start()
        hub.broker.publish_batch(TASK_TOPIC, payloads)
        # the agent gets its own hub: its turn records must not bump the
        # store version, or the repeated queries would stop hitting the
        # cache; the same messages fill its live monitoring context
        agent_hub = CaptureContext()
        self.service = AgentService(
            agent_hub,
            llm=LLMServer(realtime_factor=0.0),
            query_api=QueryAPI(self.store),
            lineage=self.lineage,
        )
        agent_hub.broker.publish_batch(TASK_TOPIC, payloads)
        self.gateway = ProvenanceGateway(self.service)
        for session_id in inputs["sessions"]:
            self.service.create_session(session_id)
        self.server = AsyncGatewayServer(self.gateway).start()

    def close(self) -> None:
        self.server.stop()
        self.service.close()
        self.keeper.stop()


def expected_replies(stack: Stack, inputs: dict) -> dict[str, str]:
    """The in-process reply to every request, keyed like the load generator."""
    client = GatewayClient(stack.gateway)
    expected: dict[str, str] = {}
    for session_id in inputs["sessions"]:
        for message in inputs["questions"] + inputs["greetings"]:
            expected[f"chat|{session_id}|{message}"] = client.chat_json(
                session_id, message
            )
    for name, spec in inputs["queries"].items():
        request = from_jsonable(spec, QueryRequest)
        expected[f"query|{name}"] = client.query_json(request)
    return expected


def _send(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    inputs = json.loads(Path(sys.argv[1]).read_text())
    stack, setup_s, raw_setup_s = timed_setups(
        lambda _i: Stack(inputs), Stack.close,
        Meter(compute_kernel, COMPUTE_REFERENCE_S), repeats=5,
    )
    expected = expected_replies(stack, inputs)
    _send({
        "event": "ready",
        "port": stack.server.address[1],
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "executor_workers": stack.server.executor_workers,
        "expected": expected,
        "docs": len(stack.store),
    })
    tracer = Tracer()
    gc_monitor = GcMonitor()
    counters: dict[str, float] = {}
    for line in sys.stdin:
        command = line.split()
        if not command:
            continue
        if command[0] == "begin":
            if command[1] == "1" and not tracer.installed:
                tracer.install()
            elif command[1] == "0":
                tracer.uninstall()
            tracer.reset()
            counters = pushdown_counters(stack.gateway.stats())
            gc_monitor.start()
            _send({"event": "ok"})
        elif command[0] == "end":
            gc_stats = gc_monitor.stop()
            after = pushdown_counters(stack.gateway.stats())
            _send({
                "event": "phase",
                "gc": gc_stats,
                "spans": tracer.summary() if tracer.installed else {},
                "pushdown": {k: after[k] - counters.get(k, 0.0) for k in after},
            })
        elif command[0] == "stop":
            tracer.uninstall()
            stack.close()
            _send({"event": "bye"})
            return 0
    stack.close()
    return 1  # stdin closed without a stop command


if __name__ == "__main__":
    sys.exit(main())
