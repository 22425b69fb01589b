"""Layer spans timed from outside the program.

The traced run wraps each layer's public function at the name its
caller looks it up by (a module global such as
``repro.query.engine.execute_query``, or a class attribute such as
``QueryCache.get``), so ``src/`` stays untouched.  Each call records a
span: name, parent span, start and end.  Parents come from a
thread-local stack, so work handed to another thread (the scatter
pool) starts a root span there and counts as its own layer.  Spans stay
in per-thread lists in memory and are summarised when the run ends.
Only closed spans are recorded.

A layer's self time is its span's duration minus its direct child
spans; self times therefore add up without double counting, even when
a layer calls itself (``ProvenanceDatabase.upsert_many`` calling
``upsert``).  Calls and inclusive time count only the outermost span of
a name, so a sharded ``find`` fanning out to its shards' ``find`` is one
call.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
from time import perf_counter
from typing import Any, Callable

#: (span name, module, attribute path) — patched where callers look it up
WRAP_POINTS: tuple[tuple[str, str, str], ...] = (
    # api: transport hands each request to routing; admission decides first
    ("api.routing", "repro.api.aio", "handle_request"),
    ("api.admission", "repro.api.admission", "AdmissionController.admit"),
    ("api.schemas.decode", "repro.api.schemas", "from_json"),
    ("api.schemas.encode", "repro.api.schemas", "to_json"),
    ("api.gateway", "repro.api.gateway", "ProvenanceGateway.chat"),
    ("api.gateway", "repro.api.gateway", "ProvenanceGateway.execute_query"),
    ("api.gateway", "repro.api.gateway", "ProvenanceGateway.stats"),
    # agent + llm
    ("agent.chat", "repro.agent.service", "AgentService.chat"),
    ("llm.complete", "repro.llm.service", "LLMServer.complete"),
    # dialect front ends, as the gateway calls them
    ("sql.compile", "repro.api.gateway", "compile_sql"),
    ("query.parser.parse", "repro.api.gateway", "parse_query"),
    # read path
    ("query.cache.get", "repro.query.cache", "QueryCache.get"),
    ("query.pushdown.plan", "repro.query.engine", "plan_pushdown"),
    ("storage.scatter", "repro.storage.sharded", "ShardedProvenanceStore.execute_partial"),
    ("storage.find", "repro.storage.sharded", "ShardedProvenanceStore.find"),
    ("storage.find", "repro.storage.memory", "ProvenanceDatabase.find"),
    ("query.partial.merge", "repro.query.engine", "combine_partials"),
    ("provenance.to_frame", "repro.provenance.query_api", "QueryAPI.to_frame"),
    ("query.executor.execute", "repro.query.engine", "execute_query"),
    # ingest chain
    ("messaging.buffer.append", "repro.messaging.buffer", "MessageBuffer.append"),
    ("messaging.broker.publish", "repro.messaging.broker", "InProcessBroker.publish_batch"),
    ("keeper.normalise", "repro.provenance.keeper", "normalise_payload"),
    ("keeper.ingest_batch", "repro.provenance.keeper", "ProvenanceKeeper.ingest_batch"),
    ("storage.upsert", "repro.storage.sharded", "ShardedProvenanceStore.upsert_many"),
    ("storage.wal", "repro.storage.durable", "DurableStore.upsert"),
    ("storage.wal", "repro.storage.durable", "DurableStore.upsert_many"),
    ("storage.index", "repro.storage.memory", "ProvenanceDatabase.upsert"),
    ("storage.index", "repro.storage.memory", "ProvenanceDatabase.upsert_many"),
    ("lineage.apply", "repro.lineage.index", "LineageIndex.apply_many"),
    ("storage.rebuild_routing", "repro.storage.sharded", "ShardedProvenanceStore.rebuild_routing"),
)


def _cache_outcome(result: Any) -> str:
    from repro.query.cache import MISS

    return "miss" if result is MISS else "hit"


#: span name -> function of the wrapped call's result, kept on the span
OBSERVERS: dict[str, Callable[[Any], Any]] = {"query.cache.get": _cache_outcome}


class Tracer:
    """Installs span wrappers and keeps their spans in memory.

    A span is stored when it closes, as a flat tuple ``(id, name,
    parent id, start, end, outcome)`` of atomic values, which the cyclic
    collector stops tracking: holding a million spans must not make the
    traced run's GC pauses longer than the untraced run's.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list[tuple]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------
    def _state(self) -> tuple[list[tuple], list[int], Any]:
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            local.ids = itertools.count()
            with self._lock:
                self._threads.append(spans)
        return spans, local.stack, local.ids

    def _traced(
        self, name: str, original: Callable[..., Any],
        observe: Callable[[Any], Any] | None,
    ) -> Callable[..., Any]:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            spans, stack, ids = tracer._state()
            parent = stack[-1] if stack else -1
            span_id = next(ids)
            stack.append(span_id)
            outcome = None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                if observe is not None:
                    outcome = observe(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, name, parent, start, end, outcome))

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    def span(self, name: str) -> "_Span":
        """A span around benchmark-side code (a client call, a phase)."""
        return _Span(self, name)

    # -- patching ----------------------------------------------------------------
    def install(self, only: tuple[str, ...] | None = None) -> "Tracer":
        """Wrap every point of :data:`WRAP_POINTS`, or those named in ``only``."""
        for name, module_name, attr_path in WRAP_POINTS:
            if only is not None and name not in only:
                continue
            owner: Any = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            if not inspect.isfunction(original):
                raise TypeError(f"{module_name}.{attr_path} is not a plain function")
            setattr(owner, attr, self._traced(name, original, OBSERVERS.get(name)))
            self._patches.append((owner, attr, original))
        return self

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans (call only while no span is open)."""
        with self._lock:
            for spans in self._threads:
                spans.clear()

    # -- summary -----------------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``total_s`` over outermost spans
        (none of their ancestors has the same name), ``self_s`` and
        ``child_s`` (time in direct child spans) over all spans, plus a
        count per observed outcome (``hit``/``miss``)."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            threads = [list(spans) for spans in self._threads]
        for spans in threads:
            by_id = {span[0]: span for span in spans}
            child_time: dict[int, float] = {}
            for _, _, parent, start, end, _ in spans:
                if parent >= 0:
                    child_time[parent] = child_time.get(parent, 0.0) + end - start
            for span_id, name, parent, start, end, outcome in spans:
                entry = out.setdefault(
                    name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0, "child_s": 0.0}
                )
                duration = end - start
                children = child_time.get(span_id, 0.0)
                entry["self_s"] += duration - children
                entry["child_s"] += children
                if not _has_ancestor(by_id, parent, name):
                    entry["calls"] += 1
                    entry["total_s"] += duration
                if outcome is not None:
                    entry[outcome] = entry.get(outcome, 0.0) + 1
        return out


def _has_ancestor(by_id: dict[int, tuple], parent: int, name: str) -> bool:
    """Whether a closed ancestor span has ``name`` (open ones are unknown)."""
    while parent >= 0:
        span = by_id.get(parent)
        if span is None:
            return False
        if span[1] == name:
            return True
        parent = span[2]
    return False


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self._open: tuple[int, int, float] | None = None

    def __enter__(self) -> "_Span":
        _, stack, ids = self._tracer._state()
        span_id = next(ids)
        self._open = (span_id, stack[-1] if stack else -1, perf_counter())
        stack.append(span_id)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = perf_counter()
        spans, stack, _ = self._tracer._state()
        stack.pop()
        assert self._open is not None
        span_id, parent, start = self._open
        spans.append((span_id, self._name, parent, start, end, None))


class LayerStats:
    """Read helpers over :meth:`Tracer.summary` output."""

    def __init__(self, summary: dict[str, dict[str, float]]):
        self.summary = summary

    def calls(self, name: str) -> float:
        return self.summary.get(name, {}).get("calls", 0.0)

    def child_s(self, name: str) -> float:
        return self.summary.get(name, {}).get("child_s", 0.0)

    def self_s(self, name: str) -> float:
        return self.summary.get(name, {}).get("self_s", 0.0)

    def total_s(self, name: str) -> float:
        return self.summary.get(name, {}).get("total_s", 0.0)

    def count(self, name: str, outcome: str) -> float:
        return self.summary.get(name, {}).get(outcome, 0.0)

    def per(self, seconds: float, denominator: float, scale: float) -> float:
        """``seconds`` per unit of ``denominator``, scaled (0 when none)."""
        return seconds * scale / denominator if denominator else 0.0
