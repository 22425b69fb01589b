"""Shard-side operator execution: plans, per-shard partials, exact combine.

Filter pushdown (:mod:`repro.query.pushdown`) shrinks *which* documents
cross the shard -> coordinator boundary; this module shrinks *what*
crosses it.  A :class:`PushPlan` describes work each shard can do
locally — prune documents to the columns a pipeline touches, fold a
terminal ``RowCount``/``Agg``/``GroupAgg`` into per-shard partial
states, or pre-select a local top-k for a Sort+Head/Tail pipeline —
and :func:`combine_partials` merges the per-shard
:class:`ShardPartial` results into exactly the answer the single-store
path produces.

Byte-identical parity with the coordinator path is the contract, and it
is enforced two ways:

* **exact combine rules** — SUM/AVG carry Shewchuk exact partial sums
  (``math.fsum`` semantics, so the result is independent of how rows
  are partitioned); MIN/MAX/COUNT combine trivially; FIRST/LAST and
  group emission order ride the store's global ingest sequence number;
  per-column dtype reports are folded so the coordinator knows the
  dtype the *global* frame would have inferred and can coerce local
  values through it;
* **guarded fallback** — whenever a shard-local computation could
  diverge from the global one (float64 rounding of >=2**53 ints, mixed
  object-dtype sort comparators, representative-value drift, a used
  column missing from every matching document), the combine refuses
  and the engine re-runs the classic gather-everything path, so an
  unsupported pipeline is never wrong, only unaccelerated.

Shard-side, a partial is built column by column.  Per plan, each
projected field's dotted path is split once; one pass per path level
reads a value list per field over all matched documents (documents the
plain walk could misread go through the per-document projector).  The
per-column dtype reports come from each list's set of value types, and
the local frame the terminal runs on is built straight from the lists.
Only the rows actually shipped (top-k survivors, project-mode rows) are
projected as documents.

The module deliberately depends only on the query IR and the DataFrame
engine — never on a concrete storage backend.  Backends opt in by
exposing ``execute_partial(plan) -> list[ShardPartial]``; any backend
(or shard) without it is driven through plain ``find()`` by
:func:`execute_plan_on_docs`, the documented fallback.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Any, Iterable, Mapping

import numpy as np

from repro.dataframe import DataFrame
from repro.dataframe import dtypes as dt
from repro.dataframe.column import Column, _hashable
from repro.dataframe.frame import _LEAF_TYPES, _freeze, flatten_record
from repro.query import ast as q
from repro.query.executor import evaluate_predicate, execute_query

__all__ = [
    "SEQ_FIELD",
    "PushPlan",
    "ColumnReport",
    "ShardPartial",
    "Combined",
    "execute_plan_on_docs",
    "combine_partials",
    "step_label",
]

#: The sharded store's per-document global ingest sequence field.
#: Mirrored here (rather than imported) so the query layer stays
#: independent of any concrete backend; the value is part of the
#: StorageBackend contract.
SEQ_FIELD = "__shard_seq__"

#: Pseudo-dtype for "column absent on a shard that has matching rows":
#: those rows contribute nulls to the global column.
_NULL = "null"

#: ints at or beyond this are exact in int64/object storage but rounded
#: in a float64 column — the one place shard-local and global
#: evaluation can disagree per-row.
_BIG_INT = 2**53


class _Missing:
    """Type of :data:`_MISSING`: a column's type set shows absent rows."""

    __slots__ = ()


#: a field the row does not carry (``None`` is a present null)
_MISSING = _Missing()
_MISSING_ONLY = frozenset({_Missing})
_INT_ONLY = frozenset({int})
_DICT_ONLY = frozenset({dict})
#: stands in for a row whose path ended above the current level
_EMPTY: dict[str, Any] = {}

#: ``flatten_record``'s default depth: a mapping this many levels down
#: is an opaque value
_MAX_DEPTH = 4

#: Aggregations with a per-shard decomposition.  median/std/var/nunique
#: need the full value multiset and stay coordinator-side.
DECOMPOSABLE_AGGS = frozenset(
    {"count", "sum", "mean", "avg", "min", "max", "first", "last"}
)

#: Aggregations whose result does not depend on row order (a Sort in
#: the pipeline prefix may be skipped shard-side for these).
ORDER_INSENSITIVE_AGGS = frozenset({"count", "sum", "mean", "avg", "min", "max"})


def step_label(step: q.Step) -> str:
    """One-token step description, matching ``Pipeline.describe()``."""
    if isinstance(step, q.Filter):
        return f"filter[{len(q.conjuncts(step.predicate))} conj]"
    if isinstance(step, q.GroupAgg):
        return f"groupby({','.join(step.keys)}).{step.agg}({step.column})"
    if isinstance(step, q.Agg):
        return f"{step.agg}({step.column})"
    if isinstance(step, q.Sort):
        return f"sort({','.join(step.keys)})"
    if isinstance(step, (q.Head, q.Tail, q.Skip)):
        return f"{type(step).__name__.lower()}({step.n})"
    return type(step).__name__.lower()


# ---------------------------------------------------------------------------
# Plan / partial shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PushPlan:
    """What each shard executes locally, and how the results merge.

    ``mode`` selects the shard-side strategy:

    * ``"partial"`` — replay the prefix filters, then fold ``terminal``
      (RowCount/Agg/GroupAgg/Unique) into a partial state; ``suffix``
      steps run at the coordinator on the merged result;
    * ``"topk"`` — replay prefix filters+sorts, keep the local
      head/tail named by ``fetch``, and ship only those documents as
      merge candidates; the coordinator rebuilds a candidate frame and
      re-runs the full pipeline on it;
    * ``"project"`` — no local execution; ship documents pruned to
      ``fields``.

    ``filter`` is the merged Mongo prefilter (base filter + pushable
    pipeline conjuncts) each shard's ``find``/index path answers, so
    routing and index pruning engage exactly as on the classic path.
    """

    mode: str
    filter: Mapping[str, Any]
    pipeline: q.Pipeline
    fields: tuple[str, ...] | None  # payload projection; None = all columns
    local_columns: tuple[str, ...] = ()  # columns materialised shard-side
    local_steps: tuple[q.Step, ...] = ()  # Filter/Sort steps replayed locally
    terminal: q.Step | None = None  # mode="partial"
    suffix: tuple[q.Step, ...] = ()  # coordinator steps after the terminal
    fetch: tuple[str, int] | None = None  # ("head"|"tail", k) for mode="topk"
    guard_types: tuple[str, ...] = ()  # columns needing a python-type report
    filter_fields: tuple[str, ...] = ()
    present_fields: tuple[str, ...] = ()  # must exist somewhere, or fall back
    sort_fields: tuple[str, ...] = ()
    group_fields: tuple[str, ...] = ()
    value_field: str | None = None
    agg: str | None = None
    pushed_steps: tuple[str, ...] = ()  # explain: what runs shard-side
    coordinator_steps: tuple[str, ...] = ()  # explain: what stays here


@dataclass
class ColumnReport:
    """Per-shard per-column facts the combine needs for exactness."""

    dtype: str  # locally inferred storage dtype
    first_seq: int  # global sequence of the first row carrying the key
    first_pos: int  # key position within that first document
    n_present: int = 0  # rows carrying the key (even with a null value)
    n_valid: int = 0  # rows with a non-null value
    big_int: bool = False  # any raw int with abs() >= 2**53
    types: frozenset = frozenset()  # python type names (guarded columns only)


@dataclass
class ShardPartial:
    """One shard's contribution: counts, states, candidates, reports."""

    rows: int = 0  # documents matching the plan filter on this shard
    reports: dict[str, ColumnReport] = field(default_factory=dict)
    error: str | None = None  # local failure -> coordinator falls back
    count: int | None = None  # RowCount partial
    agg_state: dict[str, Any] | None = None  # scalar Agg partial
    groups: list[dict[str, Any]] | None = None  # GroupAgg partials
    unique: list[tuple[int, Any]] | None = None  # (first_seq, value)
    docs: list[tuple[int, dict[str, Any]]] = field(default_factory=list)
    payload_docs: int = 0
    payload_cells: int = 0


@dataclass
class Combined:
    """Outcome of merging shard partials: a result or a fallback reason."""

    ok: bool
    result: Any = None
    reason: str | None = None
    stats: dict[str, Any] = field(default_factory=dict)


class _Unsupported(Exception):
    """Shard-local condition the combine cannot merge exactly."""


# ---------------------------------------------------------------------------
# Exact summation (fsum-compatible partials)
# ---------------------------------------------------------------------------


def _exact_partials(values: Iterable[float]) -> list[float]:
    """Shewchuk exact partial sums: ``fsum(partials) == fsum(values)``.

    The returned non-overlapping partials represent the exact
    (error-free) sum of the inputs, so concatenating every shard's
    partials and ``math.fsum``-ing once reproduces the correctly
    rounded global sum bit-for-bit — the same answer ``Column.sum``
    computes over the unpartitioned column.
    """
    partials: list[float] = []
    for x in values:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
    if any(not math.isfinite(p) for p in partials):
        raise _Unsupported("non-finite partial sum")
    return partials


# ---------------------------------------------------------------------------
# Shard-side execution
# ---------------------------------------------------------------------------


def execute_plan_on_docs(
    docs: Iterable[Mapping[str, Any]], plan: PushPlan
) -> ShardPartial:
    """Run a plan over one backend's matching documents.

    This is both the in-process shard implementation and the documented
    fallback for backends without a native ``execute_partial``: any
    object whose ``find(filter)`` yields the matching documents (with
    or without the ``__shard_seq__`` stamp) can be driven through it.
    Never raises — local failures return an ``error`` partial, which
    makes the coordinator fall back to the classic path.
    """
    try:
        return _execute(docs, plan)
    except Exception as exc:  # noqa: BLE001 - fallback boundary
        return ShardPartial(error=f"{type(exc).__name__}: {exc}")


def _ancestors(field: str) -> list[str]:
    parts = field.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts))]


def _project_flat(
    record: Mapping[str, Any],
    wanted: frozenset,
    ancestors: frozenset,
    max_depth: int = _MAX_DEPTH,
) -> dict[str, Any]:
    """``{k: v for k, v in flatten_record(record) if k in wanted}``,
    without flattening the unwanted subtrees.

    Byte-compatible with :func:`repro.dataframe.frame.flatten_record`
    (same traversal order, same ``max_depth`` opaque-value cutoff, same
    empty-dict leaves), but per document it touches only the keys on a
    wanted field's path.  The shard executor reads columns through
    :func:`_project_column` and calls this only for the documents that
    column walk cannot answer, and to build the row payloads it ships.
    """
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


def _odd_rows(dicts: list[Any]) -> set[int]:
    """Rows the plain walk cannot read: a non-``dict`` row, or one with a
    non-``str`` key (the walk spells keys via ``str()``, which
    ``dict.get`` cannot match).  The union of every row's keys decides
    the common all-``str`` case in one C-level pass; it can only lose a
    non-``str`` key that equals, and hashes like, a ``str`` key of
    another row.
    """
    if set(map(type, dicts)) <= _DICT_ONLY and all(
        type(k) is str for k in set().union(*dicts)
    ):
        return set()
    return {
        i for i, d in enumerate(dicts)
        if type(d) is not dict or any(type(k) is not str for k in d)
    }


def _project_column(docs: list[Any], field: str, odd: set[int]) -> list[Any]:
    """``[_project_flat(d, wanted, ancestors).get(field, _MISSING) for d
    in docs]`` for any ``wanted`` holding ``field``, walked one path
    level at a time over the whole column.

    ``odd`` is :func:`_odd_rows` of ``docs``.  The path is split once;
    each level is one C-level ``dict.get`` pass over the column.  A
    document whose value the plain walk could get wrong is answered by
    :func:`_project_flat` instead: a non-``dict`` document or
    ``Mapping`` on the path or at the leaf, a ``dict`` on the path with
    a non-``str`` key, a literal dotted key spelling a split of the path
    (``{"a.b": …}`` for ``a.b.c``), or a path longer than the flatten
    depth.  Every other document has exactly one route to the field,
    the plain one.  A ``dict`` leaf follows the flatten rule: an empty
    one reads ``{}``, a non-empty one is not a value.
    """
    # the walk reaches ``field`` only through its own ancestors, so the
    # other wanted fields never change its value
    wanted = frozenset((field,))
    ancestors = frozenset(_ancestors(field))
    parts = field.split(".")
    if len(parts) > _MAX_DEPTH + 1:
        return [
            _project_flat(d, wanted, ancestors).get(field, _MISSING)
            for d in docs
        ]
    redo = set(odd)  # rows the per-document walk answers
    cur = [_EMPTY if i in redo else d for i, d in enumerate(docs)] if redo else docs
    last = len(parts) - 1
    for level, part in enumerate(parts):
        if level:
            redo |= _odd_rows(cur)
        for j in range(level + 2, len(parts) + 1):
            dotted = ".".join(parts[level:j])
            if any(map(dict.__contains__, cur, repeat(dotted))):
                redo.update(i for i, d in enumerate(cur) if dotted in d)
        vals = list(map(dict.get, cur, repeat(part), repeat(_MISSING)))
        if level < last:
            if set(map(type, vals)) != _DICT_ONLY:
                for i, v in enumerate(vals):
                    if type(v) is dict:
                        continue
                    if type(v) not in _LEAF_TYPES and isinstance(v, Mapping):
                        redo.add(i)
                    vals[i] = _EMPTY  # the field is absent below here
            cur = vals
            continue
        maps = {
            t for t in set(map(type, vals))
            if t is dict or (
                t not in _LEAF_TYPES and t is not _Missing
                and issubclass(t, Mapping)
            )
        }
        if maps:
            for i, v in enumerate(vals):
                t = type(v)
                if t is dict:
                    if last < _MAX_DEPTH:
                        vals[i] = {} if not v else _MISSING
                elif t in maps:
                    redo.add(i)
    for i in redo:
        vals[i] = _project_flat(docs[i], wanted, ancestors).get(field, _MISSING)
    return vals


def _sorted_rows(
    docs: Iterable[Mapping[str, Any]], fields: tuple[str, ...] | None
) -> tuple[list[Any], list[Any]]:
    """The matched documents and their global sequence stamps, both in
    global order.  Without a field projection the rows are the
    flattened documents, each flattened once."""
    if fields is None:
        rows: list[Any] = []
        seqs: list[Any] = []
        for i, doc in enumerate(docs):
            flat = flatten_record(doc)
            seqs.append(flat.pop(SEQ_FIELD, i))
            rows.append(flat)
    else:
        rows = docs if isinstance(docs, list) else list(docs)
        if set(map(type, rows)) - _DICT_ONLY:
            seqs = [doc.get(SEQ_FIELD, i) for i, doc in enumerate(rows)]
        else:
            seqs = list(map(dict.get, rows, repeat(SEQ_FIELD), range(len(rows))))
    # local frame order must equal global order restricted to this
    # shard: concurrent writers can transpose neighbours in raw shard
    # order, exactly like the store's own gather path re-sorts
    if any(map(operator.lt, islice(seqs, 1, None), seqs)):
        order = sorted(range(len(seqs)), key=seqs.__getitem__)
        seqs = [seqs[i] for i in order]
        rows = [rows[i] for i in order]
    return rows, seqs


def _read_columns(
    rows: list[Any], fields: tuple[str, ...] | None
) -> tuple[dict[str, list[Any]], dict[str, int]]:
    """One value list per column, :data:`_MISSING` where a row lacks the
    column, and (for whole rows) each column's key position in the
    first row carrying it.

    With a field projection only the projected columns exist; without
    one every column does, in order of first appearance, so the
    coordinator can rebuild candidate frames with globally correct
    dtypes and column order.
    """
    if fields is None:
        first_pos: dict[str, int] = {}
        for flat in rows:
            for pos, k in enumerate(flat):
                first_pos.setdefault(k, pos)
        columns = {
            k: list(map(dict.get, rows, repeat(k), repeat(_MISSING)))
            for k in first_pos
        }
        return columns, first_pos
    if not fields:  # e.g. len(df): no column to read
        return {}, {}
    odd = _odd_rows(rows)
    return {f: _project_column(rows, f, odd) for f in fields}, {}


def _column_reports(
    columns: Mapping[str, list[Any]],
    seqs: list[Any],
    first_pos: Mapping[str, int],
    guard_types: Iterable[str],
) -> dict[str, ColumnReport]:
    """The per-column facts the combine needs, in order of first
    appearance (row, then position in the row or in ``plan.fields``);
    a column no row carries has no report."""
    guard = set(guard_types)
    found = []
    for idx, (name, vals) in enumerate(columns.items()):
        types = set(map(type, vals))
        first = _first_present(vals, types)
        if first is None:
            continue
        report = _report(
            vals, types, name in guard,
            first_seq=seqs[first],
            first_pos=first_pos.get(name, 0),
        )
        found.append((first, idx, name, report))
    found.sort(key=lambda t: t[:2])
    return {name: report for _, _, name, report in found}


def _first_present(vals: list[Any], types: set[type]) -> int | None:
    if _Missing not in types:
        return 0 if vals else None
    return next((i for i, v in enumerate(vals) if v is not _MISSING), None)


def _report(
    vals: list[Any],
    types: set[type],
    guarded: bool,
    first_seq: int,
    first_pos: int,
) -> ColumnReport:
    """A column's facts from its values and their type set.

    Mirrors per-value observation: ``None`` and float NaN are null, a
    missing value is absent (and makes the dtype nullable), and only
    valid values name their type.  The ±2**53 scan runs only when an
    int type occurs.
    """
    present = types - _MISSING_ONLY
    n_present = len(vals)
    if len(present) != len(types):
        n_present -= sum(map(operator.is_, vals, repeat(_MISSING)))
    n_null = 0
    if dt._NONE_TYPE in present:
        n_null = sum(map(operator.is_, vals, repeat(None)))
    no_valid: set[type] = set()  # float types whose every value is NaN
    for t in present:
        if not issubclass(t, float):
            continue
        vs = vals if len(types) == 1 else [v for v in vals if type(v) is t]
        nan = (
            sum(map(math.isnan, vs)) if t is float
            else sum(1 for v in vs if v != v)
        )
        n_null += nan
        if nan == len(vs):
            no_valid.add(t)
    big = False
    int_types = {
        t for t in present
        if issubclass(t, dt._INT_TYPES) and not issubclass(t, dt._BOOL_TYPES)
    }
    if int_types == _INT_ONLY:
        ints = vals if len(types) == 1 else [v for v in vals if type(v) is int]
        big = max(ints) >= _BIG_INT or min(ints) <= -_BIG_INT
    elif int_types:
        big = any(
            v >= _BIG_INT or v <= -_BIG_INT
            for v in vals if type(v) in int_types
        )
    nullable = present | {dt._NONE_TYPE} if n_present < len(vals) else present
    return ColumnReport(
        dtype=dt.dtype_of_types(nullable),
        first_seq=first_seq,
        first_pos=first_pos,
        n_present=n_present,
        n_valid=n_present - n_null,
        big_int=big,
        types=frozenset(
            t.__name__ for t in present
            if t is not dt._NONE_TYPE and t not in no_valid
        ) if guarded else frozenset(),
    )


def _frame_from_columns(
    names: Iterable[str],
    columns: Mapping[str, list[Any]],
    reports: Mapping[str, ColumnReport],
    seqs: list[Any],
) -> DataFrame:
    """The local frame: ``names`` plus the sequence column.

    Values come straight from the columns, an absent value read as
    ``None``; a column's dtype is its report's (what inference over
    those values gives).  A column absent from every row is all null:
    the rows it would contribute to the global frame are nulls there
    too, and the combine separately falls back when a used column is
    absent from *every* shard.
    """
    n = len(seqs)
    cols: dict[str, Column] = {}
    for name in names:
        report = reports.get(name)
        if report is None:
            cols[name] = Column(name, [None] * n)
            continue
        vals = columns[name]
        if report.n_present < n:
            vals = [None if v is _MISSING else v for v in vals]
        cols[name] = Column(name, vals, dtype=report.dtype)
    cols[SEQ_FIELD] = Column(SEQ_FIELD, seqs, dtype=dt.INT)
    return DataFrame._from_columns(cols, n)


def _execute(docs: Iterable[Mapping[str, Any]], plan: PushPlan) -> ShardPartial:
    rows, seqs = _sorted_rows(docs, plan.fields)
    part = ShardPartial(rows=len(rows))
    if plan.mode == "project":
        shipped = list(zip(seqs, range(len(rows))))
    else:
        columns, first_pos = _read_columns(rows, plan.fields)
        part.reports = _column_reports(columns, seqs, first_pos, plan.guard_types)
        work = _frame_from_columns(plan.local_columns, columns, part.reports, seqs)
        if plan.mode != "topk":
            _run_partial(work, plan, part)
            return part
        by_seq = {seq: i for i, seq in enumerate(seqs)}
        shipped = [(seq, by_seq[seq]) for seq in _topk_seqs(work, plan)]
    if plan.fields is None:
        part.docs = [(seq, rows[i]) for seq, i in shipped]
    else:
        # only shipped rows are projected as documents
        wanted = frozenset(plan.fields)
        ancestors = frozenset(a for f in plan.fields for a in _ancestors(f))
        part.docs = [
            (seq, _project_flat(rows[i], wanted, ancestors)) for seq, i in shipped
        ]
    part.payload_docs = len(part.docs)
    part.payload_cells = sum(len(d) for _, d in part.docs)
    return part


def _topk_seqs(work: DataFrame, plan: PushPlan) -> list[int]:
    """Global sequence numbers of the local head/tail, in local order."""
    for st in plan.local_steps:
        if isinstance(st, q.Filter):
            work = work.filter(evaluate_predicate(st.predicate, work))
        elif isinstance(st, q.Sort):
            work = work.sort_values(list(st.keys), list(st.ascending))
    direction, k = plan.fetch if plan.fetch is not None else ("head", 0)
    work = work.head(k) if direction == "head" else work.tail(k)
    return [int(sv) for sv in work.column(SEQ_FIELD).to_numpy()]


def _run_partial(work: DataFrame, plan: PushPlan, part: ShardPartial) -> None:
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
        val_col = work.column(term.column)
        groups: dict[tuple, list[int]] = {}
        keys = (
            zip(*(map(_freeze, work.column(k)) for k in term.keys))
            if term.keys
            else repeat((), len(work))  # groupby([]): one group of every row
        )
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
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


def _agg_state(col: Column, agg: str, seqs: Column) -> dict[str, Any]:
    """Shard-local partial state for one decomposable aggregation."""
    if agg == "count":
        return {"count": col.count()}
    if agg in ("sum", "mean", "avg"):
        v = col._valid(agg)
        if v.size and not np.isfinite(v).all():
            raise _Unsupported("non-finite aggregation input")
        return {"partials": _exact_partials(v.tolist()), "n": int(v.size)}
    if agg == "min":
        return {"value": col.min()}
    if agg == "max":
        return {"value": col.max()}
    if agg == "first":
        if len(col):
            return {"seq": int(seqs[0]), "value": col[0]}
        return {"seq": None, "value": None}
    if agg == "last":
        if len(col):
            return {"seq": int(seqs[len(col) - 1]), "value": col[len(col) - 1]}
        return {"seq": None, "value": None}
    raise _Unsupported(f"non-decomposable aggregation {agg!r}")


# ---------------------------------------------------------------------------
# Coordinator-side combine
# ---------------------------------------------------------------------------


def combine_partials(plan: PushPlan, partials: list[ShardPartial]) -> Combined:
    """Merge shard partials into the single-store answer, or refuse.

    A refusal (``ok=False``) carries the reason and means the caller
    must run the classic gather-everything path; it is never an error.
    """
    try:
        return _combine(plan, partials)
    except Exception as exc:  # noqa: BLE001 - fallback boundary
        return Combined(ok=False, reason=f"{type(exc).__name__}: {exc}")


def _combine(plan: PushPlan, partials: list[ShardPartial]) -> Combined:
    if not partials:
        return Combined(ok=False, reason="no shard answered")
    for p in partials:
        if p.error:
            return Combined(ok=False, reason=f"shard error: {p.error}")
    stats = {
        "shards": len(partials),
        "rows_scanned": sum(p.rows for p in partials),
        "payload_docs": sum(p.payload_docs for p in partials),
        "payload_cells": sum(p.payload_cells for p in partials),
    }
    if stats["rows_scanned"] == 0:
        # zero matching documents: the classic path is as cheap as any
        # merge and reproduces empty-frame behaviour (including the
        # exact missing-column errors) by construction
        return Combined(ok=False, reason="no matching rows", stats=stats)

    if plan.mode == "project":
        docs = [d for _, d in sorted(
            (c for p in partials for c in p.docs), key=lambda t: t[0]
        )]
        result = _execute_over(plan.pipeline, _frame_from_docs(docs))
        return _done(result, stats)

    merged = {
        name: _merged_dtype(name, partials)
        for name in {n for p in partials for n in p.reports}
    }
    # steps skipped shard-side (prefix Project / order-irrelevant Sort)
    # still raise on the classic path when their column is missing
    for name in plan.present_fields:
        if merged.get(name) is None:
            return Combined(
                ok=False, reason=f"column {name!r} absent", stats=stats
            )
    for name in plan.filter_fields:
        if merged.get(name) is None:
            return Combined(
                ok=False, reason=f"filter column {name!r} absent", stats=stats
            )
        reason = _filter_guard(name, partials, merged[name])
        if reason:
            return Combined(ok=False, reason=reason, stats=stats)

    if plan.mode == "topk":
        for name in plan.sort_fields:
            reason = _sort_guard(name, partials, merged.get(name))
            if reason:
                return Combined(ok=False, reason=reason, stats=stats)
        result = _execute_over(
            plan.pipeline, _candidate_frame(plan, partials, merged)
        )
        return _done(result, stats)

    return _combine_partial_mode(plan, partials, merged, stats)


def _done(result: Any, stats: dict[str, Any]) -> Combined:
    if result is None:
        return Combined(ok=False, reason="execution failed on merged frame",
                        stats=stats)
    return Combined(ok=True, result=result[0], stats=stats)


def _execute_over(pipeline: q.Pipeline, frame: DataFrame) -> tuple[Any] | None:
    """Run the pipeline; ``None`` signals fall-back-to-classic.

    Wrapped in a 1-tuple so a legitimate ``None`` result (e.g. a mean
    of no values) is distinguishable from a refusal.
    """
    from repro.errors import QueryExecutionError

    try:
        return (execute_query(pipeline, frame),)
    except QueryExecutionError:
        # the classic path reproduces the identical error (its frame
        # can only have more columns/rows than the merged one)
        return None


def _frame_from_docs(docs: list[dict[str, Any]]) -> DataFrame:
    """``DataFrame.from_records`` semantics without re-copying row dicts."""
    keys: dict[str, None] = {}
    for d in docs:
        for k in d:
            keys.setdefault(k, None)
    return DataFrame({k: [d.get(k) for d in docs] for k in keys})


# -- dtype folding -----------------------------------------------------------


def _fold(a: str | None, b: str) -> str:
    if a is None or a == b:
        return b
    pair = {a, b}
    if _NULL in pair:
        other = next(iter(pair - {_NULL}))
        if other == dt.INT:
            return dt.FLOAT
        if other == dt.BOOL:
            return dt.OBJECT
        return other
    if pair <= {dt.INT, dt.FLOAT}:
        return dt.FLOAT
    return dt.OBJECT


def _merged_dtype(name: str, partials: list[ShardPartial]) -> str | None:
    """The dtype the *global* frame would infer for this column.

    ``None`` when the column is absent from every matching document
    (the classic path would raise on any reference to it).
    """
    merged: str | None = None
    for p in partials:
        if p.rows == 0:
            continue
        r = p.reports.get(name)
        merged = _fold(merged, r.dtype if r is not None else _NULL)
    if merged is None or merged == _NULL:
        return None
    return merged


def _exactness_ok(
    name: str, partials: list[ShardPartial], merged: str
) -> bool:
    """False when >=2**53 ints make local and global evaluation differ.

    Predicate and sort evaluation happen on the *local* dtype; a raw
    big int is exact in int64/object storage but rounded in float64, so
    any shard whose local exactness differs from the merged column's
    could keep/order rows the global frame would not.
    """
    for p in partials:
        r = p.reports.get(name)
        if r is not None and r.big_int and (
            (r.dtype == dt.FLOAT) != (merged == dt.FLOAT)
        ):
            return False
    return True


def _all_null_numeric(r: ColumnReport) -> bool:
    return r.dtype == dt.FLOAT and r.n_valid == 0


def _filter_guard(
    name: str, partials: list[ShardPartial], merged: str
) -> str | None:
    """Reason local predicate evaluation may differ from global, or None.

    Filters are replayed shard-side against the *locally* inferred
    dtype, while the classic path evaluates them on the globally
    inferred one.  Identical dtypes evaluate identically; an int64
    local under a float64 global is safe while every int is exactly
    representable.  Anything else (most importantly a float local under
    an object global, where ``!=`` keeps NaN rows but drops None rows)
    falls back.
    """
    for p in partials:
        if p.rows == 0:
            continue
        r = p.reports.get(name)
        local = r.dtype if r is not None else dt.FLOAT  # absent -> all-null
        if local == merged:
            continue
        if local == dt.INT and merged == dt.FLOAT and not (r and r.big_int):
            continue
        return (
            f"filter column {name!r} evaluates as {local} locally "
            f"but {merged} globally"
        )
    return None


def _sort_guard(
    name: str, partials: list[ShardPartial], merged: str | None
) -> str | None:
    """Reason the local sort order may not match the global one, or None."""
    if merged is None:
        return f"sort column {name!r} absent"
    if merged in (dt.INT, dt.FLOAT):
        if not _exactness_ok(name, partials, merged):
            return f"big-int rounding risk on sort column {name!r}"
        return None
    if merged == dt.BOOL:
        return None  # folding to bool implies every local is bool
    for p in partials:  # object: only all-string columns order portably
        r = p.reports.get(name)
        if r is None or _all_null_numeric(r):
            continue
        if r.dtype != dt.OBJECT or (r.types - {"str"}):
            return f"mixed-type sort column {name!r}"
    return None


def _value_parity_ok(name: str, partials: list[ShardPartial], merged: str) -> bool:
    """True when locally converted values equal the global raw values.

    For numeric/bool merged dtypes the combine coerces through the
    merged dtype, so any numeric local is fine.  For object columns the
    global frame keeps raw values; a float-typed local converts raw
    ints to floats, which no coercion can undo.
    """
    if merged in (dt.INT, dt.FLOAT, dt.BOOL):
        return True
    for p in partials:
        r = p.reports.get(name)
        if r is None:
            continue
        if r.dtype == dt.FLOAT and "int" in r.types and r.n_valid:
            return False
    return True


def _coerce(v: Any, merged: str | None) -> Any:
    if merged == dt.FLOAT and v is not None:
        return float(v)
    return v


# -- partial-mode merge ------------------------------------------------------


def _combine_partial_mode(
    plan: PushPlan,
    partials: list[ShardPartial],
    merged: dict[str, str | None],
    stats: dict[str, Any],
) -> Combined:
    term = plan.terminal
    if isinstance(term, q.RowCount):
        return Combined(
            ok=True,
        result=sum(p.count if p.count is not None else 0 for p in partials),
        stats=stats,
        )

    def refuse(reason: str) -> Combined:
        return Combined(ok=False, reason=reason, stats=stats)

    if isinstance(term, q.Unique):
        name = term.column
        mdtype = merged.get(name)
        if mdtype is None:
            return refuse(f"unique column {name!r} absent")
        if not _value_parity_ok(name, partials, mdtype):
            return refuse(f"value drift risk on {name!r}")
        seen: dict[Any, Any] = {}
        entries = sorted(
            (e for p in partials for e in (p.unique if p.unique is not None else ())),
        key=lambda t: t[0],
        )
        for _, v in entries:
            v = _coerce(v, mdtype)
            key = _hashable(v)
            if key not in seen:
                seen[key] = v
        return Combined(ok=True, result=list(seen.values()), stats=stats)

    if isinstance(term, q.Agg):
        name = term.column
        mdtype = merged.get(name)
        reason = _agg_value_guard(name, term.agg, partials, mdtype)
        if reason:
            return refuse(reason)
        states = [p.agg_state for p in partials if p.agg_state is not None]
        value = _merge_states(states, term.agg)
        if term.agg != "count":  # a count is an int whatever the dtype
            value = _coerce(value, mdtype)
        return Combined(ok=True, result=value, stats=stats)

    # GroupAgg
    assert isinstance(term, q.GroupAgg)
    for kname in term.keys:
        kdtype = merged.get(kname)
        if kdtype is None:
            return refuse(f"group key {kname!r} absent")
        if not _value_parity_ok(kname, partials, kdtype):
            return refuse(f"value drift risk on group key {kname!r}")
    vname = term.column
    vdtype = merged.get(vname)
    reason = _agg_value_guard(vname, term.agg, partials, vdtype)
    if reason:
        return refuse(reason)

    key_dtypes = [merged.get(k) for k in term.keys]
    # per-group counts stay ints whatever the value column's dtype
    value_dtype = None if term.agg == "count" else vdtype
    groups: dict[tuple, dict[str, Any]] = {}
    for p in partials:
        for g in p.groups if p.groups is not None else ():
            parts = tuple(
                _coerce(v, kd) for v, kd in zip(g["parts"], key_dtypes)
            )
            cur = groups.get(parts)
            if cur is None:
                groups[parts] = {
                    "first_seq": g["first_seq"],
                    "parts": parts,
                    "states": [g["state"]],
                }
            else:
                cur["states"].append(g["state"])
                if g["first_seq"] < cur["first_seq"]:
                    # global group order AND the representative key
                    # values come from the globally-first row
                    cur["first_seq"] = g["first_seq"]
                    cur["parts"] = parts
    data: dict[str, list[Any]] = {k: [] for k in term.keys}
    values: list[Any] = []
    for g in sorted(groups.values(), key=lambda g: g["first_seq"]):
        for kname, part in zip(term.keys, g["parts"]):
            data[kname].append(part)
        values.append(
            _coerce(_merge_states(g["states"], term.agg), value_dtype)
        )
    # same-name value column replaces the key column, as in SeriesGroupBy
    data[vname] = values
    gframe = DataFrame(data)
    if not plan.suffix:
        return Combined(ok=True, result=gframe, stats=stats)
    result = _execute_over(q.Pipeline(tuple(plan.suffix)), gframe)
    return _done(result, stats)


def _agg_value_guard(
    name: str,
    agg: str,
    partials: list[ShardPartial],
    merged: str | None,
) -> str | None:
    """Reason this aggregation's value column cannot merge exactly."""
    if merged is None:
        return f"aggregation column {name!r} absent"
    if agg == "count":
        return None  # per-row nullness is value-determined on any dtype
    if agg in ("sum", "mean", "avg"):
        if merged in (dt.INT, dt.FLOAT, dt.BOOL):
            return None
        return f"cannot sum object column {name!r} shard-side"
    if agg in ("min", "max"):
        if merged in (dt.INT, dt.FLOAT, dt.BOOL):
            return None
        for p in partials:  # object min/max: portable only for all-strings
            r = p.reports.get(name)
            if r is None or _all_null_numeric(r):
                continue
            if r.dtype != dt.OBJECT or (r.types - {"str"}):
                return f"mixed-type {agg} on {name!r}"
        return None
    if agg in ("first", "last"):
        if not _value_parity_ok(name, partials, merged):
            return f"value drift risk on {name!r}"
        return None
    return f"non-decomposable aggregation {agg!r}"


def _merge_states(states: list[dict[str, Any]], agg: str) -> Any:
    if agg == "count":
        return sum(s["count"] for s in states)
    if agg in ("sum", "mean", "avg"):
        parts = [x for s in states for x in s["partials"]]
        if agg == "sum":
            return math.fsum(parts)  # fsum([]) == 0.0, matching Column.sum
        n = sum(s["n"] for s in states)
        return math.fsum(parts) / n if n else None
    if agg in ("min", "max"):
        vals = [s["value"] for s in states if s["value"] is not None]
        if not vals:
            return None
        return min(vals) if agg == "min" else max(vals)
    if agg in ("first", "last"):
        stamped = [s for s in states if s["seq"] is not None]
        if not stamped:
            return None
        pick = min if agg == "first" else max
        return pick(stamped, key=lambda s: s["seq"])["value"]
    raise _Unsupported(f"non-decomposable aggregation {agg!r}")


# -- top-k candidate frame ---------------------------------------------------


def _candidate_frame(
    plan: PushPlan,
    partials: list[ShardPartial],
    merged: dict[str, str | None],
) -> DataFrame:
    """Global-order candidate frame with globally correct dtypes.

    Candidates are a superset of the global top-k (each shard's local
    order equals the global order restricted to that shard, so its
    local top-k contains every global winner it hosts); re-running the
    full pipeline over this frame therefore reproduces the exact
    result.  Columns are coerced through the merged dtype so a column
    that happens to be all-null (or all-int) among the candidates still
    gets the dtype the full frame would have.
    """
    candidates = sorted(
        (c for p in partials for c in p.docs), key=lambda t: t[0]
    )
    order: dict[str, tuple[int, int]] = {}
    for p in partials:
        for name, r in p.reports.items():
            pos = (r.first_seq, r.first_pos)
            cur = order.get(name)
            if cur is None or pos < cur:
                order[name] = pos
    names = sorted(order, key=lambda n: order[n])
    if plan.fields is not None:
        allowed = set(plan.fields)
        names = [n for n in names if n in allowed]
    cols: dict[str, Column] = {}
    for name in names:
        vals = [doc.get(name) for _, doc in candidates]
        cols[name] = Column(name, vals, dtype=merged[name])
    return DataFrame._from_columns(cols, len(candidates))
