"""Dtype inference and promotion for the mini DataFrame engine.

The engine supports four storage classes:

* ``float64`` / ``int64`` — numpy-backed numeric columns,
* ``bool``                — numpy boolean columns,
* ``object``              — anything else (strings, dicts, lists, mixed).

Missing values: numeric columns store ``nan`` (ints are promoted to float
when a null appears, mirroring pandas); object columns store ``None``.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np

FLOAT = "float64"
INT = "int64"
BOOL = "bool"
OBJECT = "object"

_NUMERIC = (FLOAT, INT)

_NONE_TYPE = type(None)
_BOOL_TYPES = (bool, np.bool_)
_INT_TYPES = (int, np.integer)
_FLOAT_TYPES = (float, np.floating)
#: value types numpy converts exactly as ``float(v)`` / ``int(v)`` would
_PLAIN_FLOAT_TYPES = frozenset({float, _NONE_TYPE})
_PLAIN_INT_TYPES = frozenset({int})


def is_numeric_dtype(dtype: str) -> bool:
    return dtype in _NUMERIC


def is_null(value: Any) -> bool:
    """True for None and float NaN (the two null spellings we accept)."""
    if value is None:
        return True
    return isinstance(value, float) and math.isnan(value)


def infer_dtype(values: Iterable[Any]) -> str:
    """Infer the narrowest storage class that holds all ``values``.

    Bools are not ints here (unlike raw Python): a column of True/False
    stays ``bool``.  A single non-numeric, non-null value forces
    ``object``.  All-null columns default to ``float64`` so they behave
    like empty numeric columns under aggregation.
    """
    return dtype_of_types(set(map(type, values)))


def dtype_of_types(types: Iterable[type]) -> str:
    """:func:`infer_dtype` of any values whose types are exactly ``types``.

    The type set alone decides the storage class: a NaN is a float, so
    it can only sit in a column that is already ``float64`` (with ints
    or floats) or ``object`` (with bools, which a null also makes
    ``object``) — whether a float is NaN never changes the answer.
    """
    saw_float = saw_int = saw_bool = saw_null = saw_value = False
    for t in types:
        saw_value = True
        if t is _NONE_TYPE:
            saw_null = True
        elif issubclass(t, _BOOL_TYPES):
            saw_bool = True
        elif issubclass(t, _INT_TYPES):
            saw_int = True
        elif issubclass(t, _FLOAT_TYPES):
            saw_float = True
        else:
            return OBJECT
    if not saw_value:
        return OBJECT
    if saw_bool:
        if saw_int or saw_float:
            return OBJECT
        return BOOL if not saw_null else OBJECT
    if saw_float or (saw_int and saw_null):
        return FLOAT
    if saw_int:
        return INT
    return FLOAT  # all nulls


def to_storage(values: list[Any], dtype: str) -> np.ndarray:
    """Materialise ``values`` as a numpy array of the storage class."""
    if dtype == FLOAT:
        if set(map(type, values)) <= _PLAIN_FLOAT_TYPES:
            # one C-level conversion (None -> nan); NaNs are rewritten so
            # every null is the canonical np.nan, bit for bit
            arr = np.array(values, dtype=np.float64)
            nulls = np.isnan(arr)
            if nulls.any():
                arr[nulls] = np.nan
            return arr
        return np.array(
            [np.nan if is_null(v) else float(v) for v in values], dtype=np.float64
        )
    if dtype == INT:
        if set(map(type, values)) <= _PLAIN_INT_TYPES:
            return np.array(values, dtype=np.int64)
        return np.array([int(v) for v in values], dtype=np.int64)
    if dtype == BOOL:
        return np.array([bool(v) for v in values], dtype=np.bool_)
    arr = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        arr[i] = None if is_null(v) else v
    return arr


def promote(a: str, b: str) -> str:
    """Common dtype for combining two columns."""
    if a == b:
        return a
    pair = {a, b}
    if pair <= {INT, FLOAT}:
        return FLOAT
    return OBJECT
