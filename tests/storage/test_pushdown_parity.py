"""Randomized parity: operator pushdown == classic gather-everything.

:func:`repro.query.engine.run_cached_pipeline` over a sharded store
with operator pushdown enabled must be observationally identical to the
same pipeline over a single-node store with pushdown disabled — same
values, same dtypes, same value *types* (an int must not come back as
a float), same errors.  Hypothesis drives hostile document streams
(absent fields, mixed int/float/str/bool columns, >=2**53 integers,
re-upserts that move documents between shards) through a pipeline pool
covering every plan mode (``partial``/``topk``/``project``) plus shapes
that must refuse and fall back; whatever the combine decides, the
answer must match byte-for-byte.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.dataframe import DataFrame
from repro.errors import QueryExecutionError
from repro.provenance.query_api import QueryAPI
from repro.query import parse_query
from repro.query.engine import run_cached_pipeline
from repro.storage import ProvenanceDatabase, ShardedProvenanceStore

_WORKFLOWS = [f"w{i}" for i in range(6)] + [None]
_STATUSES = ["FINISHED", "FAILED", "RUNNING", None]
_TASK_IDS = [f"t{i}" for i in range(12)]

#: every plan mode, every guard, plus shapes with no plan at all
_PIPELINES = [
    # partial: counts and scalar aggregations
    "len(df)",
    "len(df[df['status'] == 'FAILED'])",
    f"len(df[df['duration'] >= {2**53}])",  # unpushable literal, local replay
    "df['duration'].sum()",
    "df['duration'].mean()",
    "df['duration'].min()",
    "df['duration'].max()",
    "df['duration'].count()",
    "df[df['workflow_id'] == 'w1']['duration'].sum()",
    "df[df['duration'] > 2]['retries'].count()",
    "df.sort_values('task_id')['duration'].mean()",  # skippable sort
    # partial: unique and grouped aggregations (+ suffix)
    "df['status'].unique()",
    "df['duration'].unique()",
    "df.groupby('status')['duration'].mean()",
    "df.groupby('workflow_id')['duration'].count()",
    "df.groupby('status')['duration'].sum()"
    ".sort_values('duration', ascending=False).head(1)",
    "df[df['status'] == 'FINISHED'].groupby('workflow_id')['retries'].max()",
    "df.groupby([])['duration'].count()",  # no keys: one group
    "df.groupby([])['retries'].sum()",
    # topk: sorted head/tail with and without skip/projection
    "df.sort_values('duration').head(3)",
    "df.sort_values('duration', ascending=False).head(4)"
    "[['task_id', 'duration']]",
    "df.sort_values('duration').iloc[1:].head(2)",
    "df.sort_values('duration').tail(3)",
    "df.sort_values('task_id').head(5)",
    "df[df['status'] == 'FAILED'].sort_values('duration').head(2)",
    # project: non-decomposable aggregations and plain pagination
    "df['duration'].median()",
    "df['duration'].std()",
    "df['duration'].nunique()",
    "df[['task_id', 'status']].head(6)",
    "df[df['status'] == 'FINISHED'][['task_id', 'retries']]",
    # no plan: identity-ish pipelines stay classic
    "df.sort_values('duration')",
    "df.head(4)",
    # absent-column errors must reproduce exactly
    "df['no_such'].sum()",
    "df.groupby('no_such')['duration'].mean()",
]


@st.composite
def doc_streams(draw):
    n = draw(st.integers(0, 25))
    docs = []
    for _ in range(n):
        doc = {
            "type": "task",
            "task_id": draw(st.sampled_from(_TASK_IDS)),
            "workflow_id": draw(st.sampled_from(_WORKFLOWS)),
            "status": draw(st.sampled_from(_STATUSES)),
            # one column, every dtype hazard: ints, >=2**53 ints,
            # floats, strings, bools, nulls, absence
            "duration": draw(
                st.one_of(
                    st.none(),
                    st.integers(0, 6),
                    st.integers(2**53, 2**53 + 2),
                    st.floats(0.25, 9, allow_nan=False),
                    st.sampled_from(["slow", "fast", True]),
                )
            ),
            "retries": draw(st.one_of(st.none(), st.integers(0, 3))),
        }
        for key in ("workflow_id", "status", "duration", "retries"):
            if doc[key] is None and draw(st.booleans()):
                del doc[key]  # genuinely absent, not null
        docs.append(doc)
    return docs


def _mirror(stream, num_shards):
    single = ProvenanceDatabase()
    sharded = ShardedProvenanceStore(num_shards)
    for doc in stream:
        single.upsert(doc)
        sharded.upsert(doc)
    return single, sharded


def _normalise(result):
    if isinstance(result, DataFrame):
        return (
            "frame",
            tuple(result.columns),
            tuple(result.column(c).dtype for c in result.columns),
            tuple(
                tuple((type(v).__name__, repr(v)) for v in row.values())
                for row in result.to_dicts()
            ),
        )
    if isinstance(result, list):
        return ("list", tuple((type(v).__name__, repr(v)) for v in result))
    return ("scalar", type(result).__name__, repr(result))


def _outcome(store, code, **kw):
    try:
        run = run_cached_pipeline(
            QueryAPI(store),
            parse_query(code),
            base_filter={"type": "task"},
            **kw,
        )
    except QueryExecutionError as exc:
        return ("error", type(exc).__name__, str(exc))
    return _normalise(run.result)


@settings(max_examples=150, deadline=None)
@given(
    stream=doc_streams(),
    num_shards=st.sampled_from([1, 2, 4]),
    code=st.sampled_from(_PIPELINES),
)
def test_pushdown_is_observationally_invisible(stream, num_shards, code):
    single, sharded = _mirror(stream, num_shards)
    assert _outcome(sharded, code) == _outcome(
        single, code, operator_pushdown=False
    )


@settings(max_examples=40, deadline=None)
@given(
    stream=doc_streams(),
    code=st.sampled_from(_PIPELINES),
)
def test_skewed_placement_all_docs_on_one_shard(stream, code):
    # a constant routing key sends everything to one shard of four:
    # three shards contribute empty partials to every merge
    for doc in stream:
        doc["workflow_id"] = "w0"
    single, sharded = _mirror(stream, 4)
    assert _outcome(sharded, code) == _outcome(
        single, code, operator_pushdown=False
    )


@settings(max_examples=40, deadline=None)
@given(
    stream=doc_streams(),
    num_shards=st.sampled_from([2, 4]),
    code=st.sampled_from(_PIPELINES),
)
def test_pushdown_agrees_with_its_own_classic_path(stream, num_shards, code):
    # same sharded store, pushdown on vs off: isolates the scatter /
    # combine from any single-vs-sharded gather difference
    _, sharded = _mirror(stream, num_shards)
    assert _outcome(sharded, code) == _outcome(
        sharded, code, operator_pushdown=False
    )
