"""Tests for dtype inference and storage."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe import dtypes as dt


class TestInferDtype:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ([1, 2, 3], dt.INT),
            ([1.0, 2.5], dt.FLOAT),
            ([1, 2.5], dt.FLOAT),
            ([True, False], dt.BOOL),
            (["a", "b"], dt.OBJECT),
            ([1, None], dt.FLOAT),
            ([None, None], dt.FLOAT),
            ([], dt.OBJECT),
            ([{"k": 1}], dt.OBJECT),
            ([1, "a"], dt.OBJECT),
            ([True, 1], dt.OBJECT),
            ([True, None], dt.OBJECT),
        ],
    )
    def test_inference_table(self, values, expected):
        assert dt.infer_dtype(values) == expected

    def test_nan_counts_as_null(self):
        assert dt.infer_dtype([1, float("nan")]) == dt.FLOAT

    def test_numpy_scalars_recognised(self):
        assert dt.infer_dtype([np.int64(1), np.int64(2)]) == dt.INT
        assert dt.infer_dtype([np.float64(1.5)]) == dt.FLOAT
        assert dt.infer_dtype([np.bool_(True)]) == dt.BOOL


class TestToStorage:
    def test_float_storage_uses_nan_for_null(self):
        arr = dt.to_storage([1.5, None], dt.FLOAT)
        assert arr.dtype == np.float64
        assert math.isnan(arr[1])

    def test_int_storage(self):
        arr = dt.to_storage([1, 2], dt.INT)
        assert arr.dtype == np.int64

    def test_object_storage_normalises_nan_to_none(self):
        arr = dt.to_storage(["a", float("nan")], dt.OBJECT)
        assert arr[1] is None


class TestPromote:
    def test_same_dtype_identity(self):
        assert dt.promote(dt.INT, dt.INT) == dt.INT

    def test_int_float_promotes_to_float(self):
        assert dt.promote(dt.INT, dt.FLOAT) == dt.FLOAT

    def test_mixed_promotes_to_object(self):
        assert dt.promote(dt.BOOL, dt.FLOAT) == dt.OBJECT
        assert dt.promote(dt.OBJECT, dt.INT) == dt.OBJECT


# -- oracle: type-set inference and bulk storage equal the per-value loops ----
#
# ``infer_dtype`` now classifies the set of value types and ``to_storage``
# converts plain float / int / str columns with one numpy call.  The
# per-value loops they replaced are copied below verbatim; every
# generated column must get the same dtype, a bit-identical array (the
# same objects, for object columns) and, for ints outside int64, the
# same exception type.


def _old_is_null(value):
    if value is None:
        return True
    return isinstance(value, float) and math.isnan(value)


def _old_infer_dtype(values):
    saw_float = saw_int = saw_bool = saw_null = saw_value = False
    for v in values:
        saw_value = True
        if _old_is_null(v):
            saw_null = True
        elif isinstance(v, bool) or isinstance(v, np.bool_):
            saw_bool = True
        elif isinstance(v, (int, np.integer)):
            saw_int = True
        elif isinstance(v, (float, np.floating)):
            saw_float = True
        else:
            return dt.OBJECT
    if not saw_value:
        return dt.OBJECT
    if saw_bool:
        if saw_int or saw_float:
            return dt.OBJECT
        return dt.BOOL if not saw_null else dt.OBJECT
    if saw_float or (saw_int and saw_null):
        return dt.FLOAT
    if saw_int:
        return dt.INT
    return dt.FLOAT  # all nulls


def _old_to_storage(values, dtype):
    if dtype == dt.FLOAT:
        return np.array(
            [np.nan if _old_is_null(v) else float(v) for v in values], dtype=np.float64
        )
    if dtype == dt.INT:
        return np.array([int(v) for v in values], dtype=np.int64)
    if dtype == dt.BOOL:
        return np.array([bool(v) for v in values], dtype=np.bool_)
    arr = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        arr[i] = None if _old_is_null(v) else v
    return arr


class _Float(float):
    pass


_VALUES = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(-math.nan),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(min_value=2**63, max_value=2**70),
    st.integers(max_value=-(2**63) - 1, min_value=-(2**70)),
    st.booleans(),
    st.sampled_from([
        np.bool_(True), np.int64(-3), np.int32(5), np.uint8(7),
        np.float64(1.25), np.float64("nan"), np.float32(0.5),
        np.float32("nan"), _Float(2.5), _Float("nan"),
    ]),
    st.text(max_size=3),
    st.just([1, 2]),
    st.just({"k": 1}),
)

#: columns a single storage class dominates, so the fast paths engage
_COLUMNS = st.one_of(
    st.lists(_VALUES, max_size=8),
    st.lists(st.one_of(st.floats(), st.none()), max_size=8),
    st.lists(st.integers(-(2**64), 2**64), max_size=8),
    st.lists(st.one_of(st.text(max_size=3), st.none()), max_size=8),
)


def _same_storage(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    if new.dtype == object:
        assert all(a is b for a, b in zip(new, old))
    else:
        assert new.tobytes() == old.tobytes()


@settings(max_examples=400, deadline=None)
@given(values=_COLUMNS)
def test_infer_dtype_equals_the_per_value_loop(values):
    assert dt.infer_dtype(values) == _old_infer_dtype(values)
    assert dt.infer_dtype(iter(values)) == _old_infer_dtype(values)


@settings(max_examples=400, deadline=None)
@given(values=_COLUMNS, dtype=st.sampled_from([None, dt.FLOAT, dt.INT, dt.OBJECT]))
def test_to_storage_equals_the_per_value_loop(values, dtype):
    dtype = dtype if dtype is not None else _old_infer_dtype(values)
    try:
        old = _old_to_storage(values, dtype)
    except Exception as exc:  # noqa: BLE001 - the error type is compared
        with pytest.raises(type(exc)):
            dt.to_storage(values, dtype)
        return
    _same_storage(dt.to_storage(values, dtype), old)


@pytest.mark.parametrize("values", [
    [1.5, -math.nan, None],  # every null becomes the canonical NaN
    [2**63],
    [-(2**63) - 1, 0],
    [],
    ["a", None, "b"],
])
def test_bulk_paths_match_the_loops(values):
    for dtype in (dt.FLOAT, dt.INT, dt.OBJECT):
        try:
            old = _old_to_storage(values, dtype)
        except Exception as exc:  # noqa: BLE001 - the error type is compared
            with pytest.raises(type(exc)):
                dt.to_storage(values, dtype)
            continue
        _same_storage(dt.to_storage(values, dtype), old)
