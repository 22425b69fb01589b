"""Oracle test: the column-major shard executor equals the row-major one.

:func:`repro.query.partial.execute_plan_on_docs` builds each shard
partial column by column (one value list per field, reports derived
from each list's type set, the local frame built straight from the
lists).  The reference below is the row-major executor it replaced —
``_project_flat`` per document, ``_build_reports`` observing one value
at a time, ``_local_frame`` re-inferring every dtype — copied verbatim
(docstrings trimmed), so any drift in the column walk (literal dotted keys, ``Mapping``
fallbacks, empty-dict leaves, the flatten depth), in the reports (NaN,
nulls, absent rows, ±2**53, type names) or in the sequence ordering
shows up as a field-by-field difference between two ``ShardPartial``
results for a plan :func:`plan_pushdown` made from a real pipeline.
"""

from __future__ import annotations

import dataclasses
import math
from types import MappingProxyType
from typing import Any, Iterable, Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dataframe import DataFrame
from repro.dataframe import dtypes as dt
from repro.dataframe.column import Column, _hashable
from repro.dataframe.frame import _LEAF_TYPES, _freeze, flatten_record
from repro.query import ast as q
from repro.query import parse_query
from repro.query.executor import evaluate_predicate
from repro.query.partial import (
    SEQ_FIELD,
    ColumnReport,
    PushPlan,
    ShardPartial,
    _agg_state,
    _Unsupported,
    execute_plan_on_docs,
)
from repro.query.pushdown import plan_pushdown

# ---------------------------------------------------------------------------
# reference: the row-major shard executor (verbatim)
# ---------------------------------------------------------------------------

_BIG_INT = 2**53

_MISSING = object()


def _ancestors(field: str) -> list[str]:
    parts = field.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts))]


def _project_flat(
    record: Mapping[str, Any],
    wanted: frozenset,
    ancestors: frozenset,
    max_depth: int = 4,
) -> dict[str, Any]:
    out: dict[str, Any] = {}

    def walk(prefix: str, value: Any, depth: int) -> None:
        t = type(value)
        if (
            t is dict or (t not in _LEAF_TYPES and isinstance(value, Mapping))
        ) and depth < max_depth:
            if not value:
                if prefix in wanted:
                    out[prefix] = {}
                return
            if prefix in ancestors:
                for k, v in value.items():
                    walk(f"{prefix}.{k}", v, depth + 1)
            return
        if prefix in wanted:
            out[prefix] = value

    for k, v in record.items():
        key = str(k)
        if key in wanted or key in ancestors:
            walk(key, v, 0)
    return out


def _execute(docs: Iterable[Mapping[str, Any]], plan: PushPlan) -> ShardPartial:
    flats: list[tuple[int, dict[str, Any]]] = []
    if plan.fields is not None:
        wanted = frozenset(plan.fields)
        ancestors = frozenset(
            a for f in plan.fields for a in _ancestors(f)
        )
        for i, doc in enumerate(docs):
            seq = doc.get(SEQ_FIELD, i)
            flats.append((seq, _project_flat(doc, wanted, ancestors)))
    else:
        for i, doc in enumerate(docs):
            flat = flatten_record(doc)
            seq = flat.pop(SEQ_FIELD, i)
            flats.append((seq, flat))
    # local frame order must equal global order restricted to this
    # shard: concurrent writers can transpose neighbours in raw shard
    # order, exactly like the store's own gather path re-sorts
    flats.sort(key=lambda t: t[0])

    part = ShardPartial(rows=len(flats))
    if plan.mode != "project":
        part.reports = _build_reports(flats, plan)
    if plan.mode == "project":
        _run_project(flats, plan, part)
    elif plan.mode == "topk":
        _run_topk(flats, plan, part)
    else:
        _run_partial(flats, plan, part)
    return part


def _build_reports(
    flats: list[tuple[int, dict[str, Any]]], plan: PushPlan
) -> dict[str, ColumnReport]:
    guard = set(plan.guard_types)
    # acc: name -> [first_seq, first_pos, saw_bool, saw_int, saw_float,
    #              saw_other, saw_null, n_present, n_valid, big, types]
    acc: dict[str, list[Any]] = {}

    def observe(name: str, v: Any, seq: int, pos: int) -> None:
        a = acc.get(name)
        if a is None:
            a = acc[name] = [
                seq, pos, False, False, False, False, False, 0, 0, False, None,
            ]
            if name in guard:
                a[10] = set()
        a[7] += 1
        if v is None or (isinstance(v, float) and v != v):
            a[6] = True
            return
        a[8] += 1
        if isinstance(v, (bool, np.bool_)):
            a[2] = True
        elif isinstance(v, (int, np.integer)):
            a[3] = True
            if v >= _BIG_INT or v <= -_BIG_INT:
                a[9] = True
        elif isinstance(v, (float, np.floating)):
            a[4] = True
        else:
            a[5] = True
        if a[10] is not None:
            a[10].add(type(v).__name__)

    if plan.fields is None:
        for seq, flat in flats:
            for pos, (k, v) in enumerate(flat.items()):
                observe(k, v, seq, pos)
    else:
        for seq, flat in flats:
            for k in plan.fields:
                v = flat.get(k, _MISSING)
                if v is not _MISSING:
                    observe(k, v, seq, 0)

    rows = len(flats)
    reports: dict[str, ColumnReport] = {}
    for name, a in acc.items():
        saw_null = a[6] or a[7] < rows
        if a[5]:
            dtype = dt.OBJECT
        elif a[2]:
            dtype = dt.OBJECT if (a[3] or a[4] or saw_null) else dt.BOOL
        elif a[4] or (a[3] and saw_null):
            dtype = dt.FLOAT
        elif a[3]:
            dtype = dt.INT
        else:
            dtype = dt.FLOAT  # all nulls
        reports[name] = ColumnReport(
            dtype=dtype,
            first_seq=a[0],
            first_pos=a[1],
            n_present=a[7],
            n_valid=a[8],
            big_int=a[9],
            types=frozenset(a[10]) if a[10] is not None else frozenset(),
        )
    return reports


def _local_frame(
    flats: list[tuple[int, dict[str, Any]]], plan: PushPlan
) -> DataFrame:
    cols: dict[str, Column] = {}
    for name in plan.local_columns:
        cols[name] = Column(name, [flat.get(name) for _, flat in flats])
    cols[SEQ_FIELD] = Column(SEQ_FIELD, [s for s, _ in flats], dtype=dt.INT)
    return DataFrame._from_columns(cols, len(flats))


def _prune(flat: dict[str, Any], plan: PushPlan) -> dict[str, Any]:
    if plan.fields is None:
        return flat
    fields = set(plan.fields)
    return {k: v for k, v in flat.items() if k in fields}


def _run_project(
    flats: list[tuple[int, dict[str, Any]]], plan: PushPlan, part: ShardPartial
) -> None:
    part.docs = [(seq, _prune(flat, plan)) for seq, flat in flats]
    part.payload_docs = len(part.docs)
    part.payload_cells = sum(len(d) for _, d in part.docs)


def _run_topk(
    flats: list[tuple[int, dict[str, Any]]], plan: PushPlan, part: ShardPartial
) -> None:
    work = _local_frame(flats, plan)
    for st in plan.local_steps:
        if isinstance(st, q.Filter):
            work = work.filter(evaluate_predicate(st.predicate, work))
        elif isinstance(st, q.Sort):
            work = work.sort_values(list(st.keys), list(st.ascending))
    direction, k = plan.fetch if plan.fetch is not None else ("head", 0)
    work = work.head(k) if direction == "head" else work.tail(k)
    by_seq = dict(flats)
    part.docs = [
        (int(sv), _prune(by_seq[int(sv)], plan))
        for sv in work.column(SEQ_FIELD).to_numpy()
    ]
    part.payload_docs = len(part.docs)
    part.payload_cells = sum(len(d) for _, d in part.docs)


def _run_partial(
    flats: list[tuple[int, dict[str, Any]]], plan: PushPlan, part: ShardPartial
) -> None:
    work = _local_frame(flats, plan)
    for st in plan.local_steps:
        if isinstance(st, q.Filter):
            work = work.filter(evaluate_predicate(st.predicate, work))
    term = plan.terminal
    seqs = work.column(SEQ_FIELD)
    if isinstance(term, q.RowCount):
        part.count = len(work)
        part.payload_cells = 1
    elif isinstance(term, q.Agg):
        part.agg_state = _agg_state(
            work.column(term.column), term.agg, seqs
        )
        part.payload_cells = len(part.agg_state.get("partials", ())) or 1
    elif isinstance(term, q.Unique):
        col = work.column(term.column)
        seen: dict[Any, tuple[int, Any]] = {}
        for i, v in enumerate(col):
            if v is None:
                continue
            key = _hashable(v)
            if key not in seen:
                seen[key] = (int(seqs[i]), v)
        part.unique = sorted(seen.values(), key=lambda t: t[0])
        part.payload_cells = len(part.unique)
    elif isinstance(term, q.GroupAgg):
        key_cols = [work.column(k) for k in term.keys]
        val_col = work.column(term.column)
        groups: dict[tuple, list[int]] = {}
        for i in range(len(work)):
            groups.setdefault(
                tuple(_freeze(c[i]) for c in key_cols), []
            ).append(i)
        part.groups = []
        cells = 0
        for key, idx in groups.items():
            gseqs = seqs.take(idx)
            state = _agg_state(val_col.take(idx), term.agg, gseqs)
            part.groups.append(
                {"parts": key, "first_seq": int(gseqs[0]), "state": state}
            )
            cells += len(key) + (len(state.get("partials", ())) or 1)
        part.payload_cells = cells
    else:  # pragma: no cover - planner never emits other terminals
        raise _Unsupported(f"bad terminal {type(term).__name__}")


def reference(docs: Iterable[Mapping[str, Any]], plan: PushPlan) -> ShardPartial:
    try:
        return _execute(docs, plan)
    except Exception as exc:  # noqa: BLE001 - fallback boundary
        return ShardPartial(error=f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# comparison: same value, same type, same key order, all the way down
# ---------------------------------------------------------------------------


def assert_same(a: Any, b: Any, where: str = "partial") -> None:
    assert type(a) is type(b), f"{where}: {type(a).__name__} != {type(b).__name__}"
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, Mapping):
        assert list(a) == list(b), f"{where}: keys {list(a)} != {list(b)}"
        for k in a:
            assert_same(a[k], b[k], f"{where}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{where}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, (float, np.floating)):
        assert repr(a) == repr(b), f"{where}: {a!r} != {b!r}"
    else:
        assert a is b or a == b, f"{where}: {a!r} != {b!r}"


# ---------------------------------------------------------------------------
# plans from real pipelines
# ---------------------------------------------------------------------------

PIPELINES = (
    "len(df)",
    "len(df[df['a.b'] > 0])",
    "len(df[df['k'] != None])",
    "df['a.b'].sum()",
    "df['a.b.c'].mean()",
    "df['a'].min()",
    "df['a.b'].max()",
    "df['a.b.c.d.e'].first()",
    "df['k'].last()",
    "df['k'].count()",
    "df.sort_values('k')['a.b'].mean()",
    "df[df['a.b'] >= 9007199254740992]['k'].count()",
    "df.groupby('k')['a.b'].sum()",
    "df.groupby('a')['a.b.c'].mean()",
    "df.groupby(['k', 'a.b'])['a'].count()",
    "df.groupby([])['a.b'].count()",
    "df.groupby([])['a.b.c'].sum()",
    "df['a.b'].unique()",
    "df.sort_values('a.b', ascending=False).head(3)",
    "df.sort_values('k').tail(2)",
    "df.sort_values('a.b').iloc[1:].head(2)",
    "df[df['a'] == 1].sort_values('a.b.c').head(2)[['k', 'a.b.c.d.e']]",
    "df.sort_values(['k', 'a.b.c.d.e.f']).head(2)[['a.b.c.d.e.f', 'k']]",
    "df[['k', 'a.b']].head(5)",
    "df['a.b'].median()",
)

PLANS = {code: plan_pushdown(parse_query(code), None) for code in PIPELINES}


def test_every_pipeline_plans_and_every_mode_is_covered():
    assert all(p is not None for p in PLANS.values())
    modes = {p.mode for p in PLANS.values()}
    assert modes == {"partial", "topk", "project"}
    assert any(p.mode == "topk" and p.fields is None for p in PLANS.values())
    terminals = {
        type(p.terminal).__name__ for p in PLANS.values() if p.mode == "partial"
    }
    assert terminals == {"RowCount", "Agg", "GroupAgg", "Unique"}


def check(docs: list[Any], code: str) -> None:
    plan = PLANS[code]
    assert_same(execute_plan_on_docs(docs, plan), reference(docs, plan), code)


def check_all(docs: list[Any]) -> None:
    for code in PIPELINES:
        check(docs, code)


# ---------------------------------------------------------------------------
# hostile documents
# ---------------------------------------------------------------------------

class Spelled:
    """A non-``str`` key whose ``str()`` is a path segment or split."""

    def __init__(self, text: str):
        self.text = text

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Spelled({self.text!r})"


#: plain keys of the planned paths, literal dotted keys spelling every
#: split of them, and non-``str`` keys spelling a segment or a split
KEYS = (
    "a", "b", "c", "d", "e", "f", "k",
    "a.b", "b.c", "c.d", "d.e", "e.f", "a.b.c", "b.c.d", "a.b.c.d.e",
    Spelled("a"), Spelled("b"), Spelled("a.b"), Spelled("b.c"),
)

LEAVES = st.one_of(
    st.none(),
    st.just(math.nan),
    st.just(-math.nan),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from(
        [2**53, -(2**53), 2**53 - 1, -(2**53) + 1, 2**63, -(2**63) - 1]
    ),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([
        np.int64(2), np.int32(-7), np.uint8(3), np.float64(2.5),
        np.float64("nan"), np.float32(1.5), np.bool_(True), np.bool_(False),
        np.int64(2**53),
    ]),
    st.text(alphabet="xy", max_size=2),
    st.just([1, 2]),
    st.just(()),
    st.just({}),
)


def _mappings(children):
    plain = st.dictionaries(st.sampled_from(KEYS), children, max_size=3)
    return st.one_of(plain, plain.map(MappingProxyType))


VALUES = st.recursive(LEAVES, _mappings, max_leaves=8)


@st.composite
def shards(draw):
    """A shard's matched documents: hostile shapes, stamps out of order
    or absent (an absent stamp reads as the row's position, so it may
    tie a stamped one)."""
    n = draw(st.integers(0, 7))
    docs = []
    for i in range(n):
        body = draw(st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=4))
        seq = draw(st.one_of(st.none(), st.integers(0, 9)))
        doc = dict(body)
        if seq is not None:
            if draw(st.booleans()):
                doc = {SEQ_FIELD: seq, **body}
            else:
                doc[SEQ_FIELD] = seq
        if draw(st.integers(0, 4)) == 0:
            doc = MappingProxyType(doc)
        docs.append(doc)
    return docs


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(docs=shards(), code=st.sampled_from(PIPELINES))
def test_column_major_partial_equals_row_major(docs, code):
    check(docs, code)


@settings(max_examples=40, deadline=None)
@given(docs=shards())
def test_every_plan_agrees_on_one_shard(docs):
    check_all(docs)


# ---------------------------------------------------------------------------
# each hazard pinned on a fixed shard
# ---------------------------------------------------------------------------


def _stamp(docs, start=1):
    return [{SEQ_FIELD: start + i, **d} for i, d in enumerate(docs)]


@pytest.mark.parametrize("doc", [
    {"a": {"b": 1}, "a.b": 2},  # literal after nested: the literal wins
    {"a.b": 2, "a": {"b": 1}},  # nested after literal: the nested wins
    {"a": {"b.c": 5, "b": {"c": 6}}},
    {"a.b": {"c": 7}, "a": {"b": {"c": 8}}},
    {"a": {"b": {"c": 9}}, "a.b.c": 10},
    {"a": {"b": {"c": {"d.e": 11, "d": {"e": 12}}}}},
    {"a.b.c.d": {"e": 13}},
    {"a": {"b": {"c": {"d": {"e": {"f": 14}}}}}},  # past the flatten depth
    {"a.b": {"c": {"d": {"e": {"f": 15}}}}},
])
def test_literal_dotted_keys_at_every_split(doc):
    check_all(_stamp([doc, {"a": {"b": 0.5, "c": 1}, "k": "x"}]))


@pytest.mark.parametrize("doc", [
    MappingProxyType({"a": {"b": 3}, "k": "y"}),
    {"a": MappingProxyType({"b": 3, "c": 1}), "k": "y"},
    {"a": {"b": MappingProxyType({"c": 4})}, "k": "y"},
    {"a": {"b": MappingProxyType({})}, "k": "y"},
    {"a": MappingProxyType({"b": MappingProxyType({"c": 1.5})})},
])
def test_mapping_documents_and_subdocuments(doc):
    check_all(_stamp([{"a": {"b": 1.0}, "k": "x"}, doc]))


@pytest.mark.parametrize("leaf", [{}, {"z": 1}, MappingProxyType({}), [1], None])
def test_dict_leaves_follow_the_flatten_rule(leaf):
    docs = _stamp([
        {"a": leaf, "k": leaf},
        {"a": {"b": leaf}, "k": "x"},
        {"a": {"b": {"c": {"d": {"e": leaf}}}}, "k": "y"},  # 5 parts: raw
    ])
    check_all(docs)


@pytest.mark.parametrize("code", [
    "df.groupby('7')['a.1'].sum()",
    "df.sort_values('a.1').head(2)[['7', 'a.b.2']]",
])
def test_non_str_keys_resolve_like_the_walk(code):
    docs = _stamp([
        {"a": {"b": 1}, 7: "x"},
        {"a": {1: 2.5}, "7": "y"},
        {"a": {"b": {2: 3}}, 1: 4, 7: "z"},
    ])
    plan = plan_pushdown(parse_query(code), None)
    assert_same(execute_plan_on_docs(docs, plan), reference(docs, plan), code)


@pytest.mark.parametrize("doc", [
    {"a": {"1": 5, 1: 6}},  # the walk keeps the later spelling
    {"a": {1: 6, "1": 5}},
    {"a": {"b": {"c": 1}}, Spelled("a.b"): {"c": 2}},  # a split, not str
    {Spelled("a.b"): {"c": 2}, "a": {"b": {"c": 1}}},
    {"a": {"b": {"c": 1}, Spelled("b.c"): 3}},
    {"a": {"b": {"c": 1, Spelled("c"): 4}}},
    {"a": {"b": 1}, Spelled("k"): "z", "k": "y"},
])
def test_non_str_keys_on_a_hit_resolve_like_the_walk(doc):
    docs = _stamp([doc, {"a": {"b": {"c": 0.5}, "1": 2}, "k": "x"}])
    for code in (
        "df.groupby('k')['a.1'].sum()",
        "df['a.b.c'].max()",
        "df.sort_values('a.b.c').head(2)[['k', 'a.1']]",
    ):
        plan = plan_pushdown(parse_query(code), None)
        assert_same(
            execute_plan_on_docs(docs, plan), reference(docs, plan), code
        )
    check_all(docs)


@pytest.mark.parametrize("values", [
    [None, math.nan, 1.5],
    [math.nan, math.nan],
    [None, None],
    [True, None],
    [True, math.nan],
    [1, math.nan],
    [np.float64("nan"), 2],
    [np.bool_(True), False],
    [np.int64(3), 4, np.float32(2.0)],
    [2**53, 1.0],
    [-(2**53), 1],
    [2**53 - 1, None],
    [np.int64(2**53), 1],
    ["s", 1, None],
    [[1], "s"],
])
def test_nulls_nan_and_numeric_types(values):
    docs = _stamp(
        [{"a": {"b": v, "c": 1}, "k": i % 2} for i, v in enumerate(values)]
        + [{"k": 0}]  # a row without the column
    )
    check_all(docs)


@pytest.mark.parametrize("seqs", [
    [5, 3, 9, 1],
    [None, 7, None, 2],  # absent stamps read as the row position
    [2, 2, 1, 1],
    [3, None, None, 0],
])
def test_out_of_order_and_absent_stamps(seqs):
    bodies = [
        {"k": "x"},  # first raw row lacks a.b: first_seq needs the sort
        {"a": {"b": 2.0}, "k": "y"},
        {"a": {"b": 1.0, "c": 4}, "k": "x"},
        {"a": {"b": math.nan}},
    ]
    docs = [
        body if seq is None else {SEQ_FIELD: seq, **body}
        for seq, body in zip(seqs, bodies)
    ]
    check_all(docs)


def test_empty_and_unstamped_shards():
    check_all([])
    check_all([{"a": {"b": 1}}, {"k": "x"}])


def test_error_partials_match():
    # a 2**63 int cannot be stored in an int64 column
    check_all(_stamp([{"a": {"b": 2**63}, "k": 1}, {"a": {"b": 1}, "k": 1}]))
    bad = execute_plan_on_docs(None, PLANS["len(df)"])
    assert bad.error and bad.error == reference(None, PLANS["len(df)"]).error
