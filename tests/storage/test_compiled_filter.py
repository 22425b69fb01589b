"""Oracle test: the compiled filter equals the per-document interpreter.

:func:`repro.storage.memory.compile_filter` is the one implementation of
filter semantics.  The reference below is the interpreter it replaced,
copied verbatim (operator table and ``matches_filter`` body), so any
drift in the compiler — ``$and`` flattening, fused range checks, the
``dict`` fast-path getters — shows up as a disagreement on some
generated filter and document.
"""

from __future__ import annotations

import math
import re
from types import MappingProxyType
from typing import Any, Callable, Mapping

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DatabaseError
from repro.storage import ProvenanceDatabase, compile_filter, matches_filter
from repro.storage.documents import get_path, path_exists
from repro.storage.memory import validate_filter

# ---------------------------------------------------------------------------
# reference interpreter (the replaced per-document matcher, verbatim)
# ---------------------------------------------------------------------------


def _require_container(op: str, arg: Any) -> None:
    if not isinstance(arg, (list, tuple, set, frozenset)):
        raise DatabaseError(
            f"{op} requires a list/tuple/set argument, "
            f"got {type(arg).__name__}: {arg!r}"
        )


def _in_op(v: Any, arg: Any) -> bool:
    _require_container("$in", arg)
    # equality scan instead of `v in arg` so unhashable stored values
    # (lists, dicts) work against set arguments and strings don't get
    # substring semantics
    return any(v == item for item in arg)


def _nin_op(v: Any, arg: Any) -> bool:
    _require_container("$nin", arg)
    return not any(v == item for item in arg)


def _regex_op(v: Any, arg: Any) -> bool:
    return isinstance(v, str) and _compile_regex(arg).search(v) is not None


def _compile_regex(arg: Any) -> re.Pattern:
    if isinstance(arg, re.Pattern):  # precompiled patterns carry flags
        return arg
    if not isinstance(arg, str):
        raise DatabaseError(
            f"$regex pattern must be a string, got {type(arg).__name__}: {arg!r}"
        )
    try:
        return re.compile(arg)  # re caches compiled patterns internally
    except re.error as exc:
        raise DatabaseError(f"invalid $regex pattern {arg!r}: {exc}") from exc


_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "$eq": lambda v, arg: v == arg,
    "$ne": lambda v, arg: v != arg,
    "$gt": lambda v, arg: v is not None and v > arg,
    "$gte": lambda v, arg: v is not None and v >= arg,
    "$lt": lambda v, arg: v is not None and v < arg,
    "$lte": lambda v, arg: v is not None and v <= arg,
    "$in": _in_op,
    "$nin": _nin_op,
    "$regex": _regex_op,
}


def reference_matches(doc: Mapping[str, Any], filt: Mapping[str, Any]) -> bool:
    """Full predicate evaluation of one filter document against one doc."""
    for path, cond in filt.items():
        if path == "$or":
            if not any(reference_matches(doc, sub) for sub in cond):
                return False
            continue
        if path == "$and":
            if not all(reference_matches(doc, sub) for sub in cond):
                return False
            continue
        value = get_path(doc, path)
        if isinstance(cond, Mapping) and any(k.startswith("$") for k in cond):
            for op, arg in cond.items():
                if op == "$exists":
                    if path_exists(doc, path) != bool(arg):
                        return False
                    continue
                fn = _OPERATORS.get(op)
                if fn is None:
                    raise DatabaseError(f"unknown operator {op!r}")
                try:
                    if not fn(value, arg):
                        return False
                except TypeError:
                    return False
        else:
            if value != cond:
                return False
    return True


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

#: "a.b" is both a literal key and a nested path; "n.c.d" walks three
#: levels; "n.b.x" walks through a scalar
_PATHS = ["a", "b", "n", "a.b", "n.b", "n.c", "n.c.d", "n.b.x", "missing"]

#: a small value pool, so filters and documents often meet on one value
_scalars = st.sampled_from([None, False, True, 0, 1, 1.5, math.nan, "x", "C-H"])
_values = st.one_of(
    _scalars,
    _scalars,
    _scalars,
    _scalars,
    st.lists(_scalars, max_size=2),
    st.dictionaries(st.sampled_from(["b", "d"]), _scalars, max_size=2),
)


def _mapping(d: dict[str, Any], proxy: bool) -> Mapping[str, Any]:
    return MappingProxyType(d) if proxy else d


@st.composite
def documents(draw) -> Mapping[str, Any]:
    def present() -> bool:  # most fields present: absent ones all read None
        return draw(st.integers(0, 3)) > 0

    doc: dict[str, Any] = {}
    for key in ("a", "b", "a.b"):
        if present():
            doc[key] = draw(_values)
    if present():
        inner: dict[str, Any] = {}
        if present():
            inner["b"] = draw(_values)
        if present():
            inner["c"] = _mapping({"d": draw(_values)}, draw(st.booleans()))
        doc["n"] = _mapping(inner, draw(st.booleans()))
    return _mapping(doc, draw(st.booleans()))


_in_items = st.lists(
    st.one_of(_scalars, st.just([1]), st.just({"b": 1})),  # unhashable items
    max_size=3,
)
_in_arg = st.one_of(
    _in_items,
    _in_items.map(tuple),
    st.lists(_scalars.filter(lambda v: v == v), max_size=3).map(frozenset),
)
_regex_arg = st.one_of(
    st.sampled_from(["^C-H", "H$", "c.h", "x|3", ""]),
    st.sampled_from([re.compile("c-h", re.IGNORECASE), re.compile(b"x")]),
)
_operator_docs = st.one_of(
    st.dictionaries(
        st.sampled_from(["$eq", "$ne", "$gt", "$gte", "$lt", "$lte"]),
        st.one_of(_scalars, _values),
        min_size=1,
        max_size=3,
    ),
    st.builds(lambda op, arg: {op: arg}, st.sampled_from(["$in", "$nin"]), _in_arg),
    st.builds(lambda arg: {"$regex": arg}, _regex_arg),
    st.builds(lambda b: {"$exists": b}, st.booleans()),
    st.builds(lambda lo, hi: {"$gte": lo, "$lt": hi}, _scalars, _scalars),
)
_clauses = st.dictionaries(
    st.sampled_from(_PATHS), st.one_of(_values, _operator_docs), min_size=1, max_size=2
)


def _combine(children: st.SearchStrategy) -> st.SearchStrategy:
    # an empty $or never matches, which would mask every clause beside
    # it: it is generated only as its own filter, below
    subs = st.lists(children, min_size=1, max_size=3)
    return st.one_of(
        st.builds(lambda s: {"$and": s}, st.lists(children, max_size=3)),
        st.builds(lambda s: {"$or": s}, subs),
        st.builds(lambda s, c: {**c, "$and": s}, subs, _clauses),
        st.builds(lambda s, c: {"$or": s, **c}, subs, _clauses),
    )


_filters = st.one_of(
    st.recursive(_clauses, _combine, max_leaves=8), st.just({"$or": []})
)


@st.composite
def same_path_ranges(draw) -> dict[str, Any]:
    """Range bounds on one path split across ``$and`` branches — the
    shape pushdown sends — plus a repeat of the same operator."""
    path = draw(st.sampled_from(["a", "a.b", "n.b", "n.c.d"]))
    ops = st.sampled_from(["$gt", "$gte", "$lt", "$lte"])
    branches = [
        {path: {draw(ops): draw(_scalars)}} for _ in range(draw(st.integers(1, 4)))
    ]
    return {"$and": branches}


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def _subfilters(filt: Mapping[str, Any]):
    """``filt``, each of its entries alone, and recursively each ``$and``
    / ``$or`` branch: a conjunction rarely matches random documents, so
    checking its parts too keeps every operator in play."""
    yield filt
    for path, cond in filt.items():
        yield {path: cond}
        if path in ("$and", "$or"):
            for sub in cond:
                yield from _subfilters(sub)


@settings(max_examples=250, deadline=None)
@given(
    filt=st.one_of(_filters, same_path_ranges()),
    docs=st.lists(documents(), min_size=8, max_size=20),
)
def test_compiled_filter_equals_reference(filt, docs):
    for part in _subfilters(filt):
        validate_filter(part)  # the generators only produce valid filters
        matches = compile_filter(part)
        for doc in docs:
            got = matches(doc)
            assert type(got) is bool
            assert got == reference_matches(doc, part), (part, doc)


@settings(max_examples=100, deadline=None)
@given(
    filt=st.one_of(_filters, same_path_ranges()),
    docs=st.lists(documents(), min_size=4, max_size=12),
)
def test_store_paths_equal_reference(filt, docs):
    """The store's scan, indexed and ``$match`` paths all use the compiler."""
    plain = [dict(d) for d in docs]
    expected = [d for d in plain if reference_matches(d, filt)]
    db = ProvenanceDatabase(equality_index_fields=("a", "b"), range_index_fields=("a", "n.b"))
    db.insert_many(plain)
    assert db.find(filt) == expected
    assert db.aggregate([{"$project": {"a": 1}}, {"$match": filt}]) == [
        {"a": d.get("a")} for d in plain if reference_matches({"a": d.get("a")}, filt)
    ]


@pytest.mark.parametrize(
    "doc, filt, expected",
    [
        ({"a": "3"}, {"a": {"$gt": 1}}, False),  # str vs int: TypeError
        ({"a": None}, {"a": {"$lte": 0}}, False),
        ({"a": math.nan}, {"a": {"$gte": 0, "$lt": 1}}, False),
        ({"a": True}, {"a": {"$gte": 1, "$lt": 2}}, True),  # bool is an int
        ({"a": 1}, {"a": {"$in": [[1], {"b": 1}, True]}}, True),
        ({"a": [1]}, {"a": {"$in": ({"b": 1}, [1])}}, True),
        ({"a": math.nan}, {"a": {"$in": [math.nan]}}, False),  # ==, not identity
        ({"a.b": 1, "a": {"b": 2}}, {"a.b": 1}, True),  # literal key wins
        (MappingProxyType({"n": MappingProxyType({"b": 5})}), {"n.b": {"$gt": 4}}, True),
        ({"n": {"b": 5}}, {"n.b.x": {"$exists": False}}, True),
        ({"a": None}, {"a": {"$exists": True}}, True),  # present, even as None
        ({"n": {"b": None}}, {"n.b": {"$exists": False}}, False),
        ({"a": "C-H"}, {"a": {"$regex": re.compile("c-h", re.I)}}, True),
        ({"a": "x"}, {"a": {"$regex": re.compile(b"x")}}, False),
        ({}, {"$or": []}, False),
        ({}, {"$and": []}, True),
        ({"a": 5}, {"$and": [{"a": {"$gt": 1}}, {"$and": [{"a": {"$gt": 6}}]}]}, False),
    ],
)
def test_edge_cases_agree(doc, filt, expected):
    assert compile_filter(filt)(doc) is expected
    assert reference_matches(doc, filt) is expected


class _Untouchable(dict):
    def __getitem__(self, key):
        raise AssertionError("document read before validation")

    get = __contains__ = __getitem__


@pytest.mark.parametrize(
    "filt",
    [
        {"a": {"$bogus": 1}},
        {"a": 1, "b": {"$in": "not-a-list"}},
        {"a": {"$regex": "("}},
        {"a": {"$regex": 3}},
        {"$and": {"a": 1}},
        {"$or": [{"a": 1}, "b"]},
        {"$or": [{"a": 1}, {"$and": [{"b": {"$nin": 5}}]}]},
    ],
)
def test_malformed_filter_raises_at_compile_time(filt):
    with pytest.raises(DatabaseError):
        compile_filter(filt)
    # eager validation also reaches entries after one that already fails
    with pytest.raises(DatabaseError):
        matches_filter(_Untouchable(), filt)
