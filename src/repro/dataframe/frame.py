"""DataFrame: an ordered collection of equal-length Columns.

Supports the pandas-flavoured subset the provenance agent's generated
query code uses::

    df[df["activity_id"] == "run_dft"]
    df.sort_values("started_at", ascending=False).head(5)
    df.groupby("bond_id")["bd_enthalpy"].mean()
    df[df["bond_id"].str.contains("C-H")]["bd_enthalpy"].mean()

Frames are immutable: every operation returns a new frame sharing column
storage where possible (views, not copies — filtering and sorting gather
with numpy fancy indexing once per column).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.dataframe import dtypes as dt
from repro.dataframe.column import Column
from repro.errors import ColumnNotFoundError, LengthMismatchError

__all__ = ["DataFrame", "concat", "flatten_record"]

#: exact types that are never a Mapping: flattening tests ``dict`` and
#: these before paying for the ABC ``isinstance(value, Mapping)`` check,
#: which costs ~10x a type test and runs per leaf of every document
_LEAF_TYPES = frozenset({str, int, float, bool, type(None), list, tuple})


def flatten_record(
    record: Mapping[str, Any],
    *,
    sep: str = ".",
    max_depth: int = 4,
) -> dict[str, Any]:
    """Flatten nested dicts into dot-separated keys.

    Provenance messages nest application data under ``used`` / ``generated``
    (see the paper's Listing 1); the in-memory context flattens them so the
    agent's flat column queries can reach e.g.
    ``used.frags.fragment1`` or ``telemetry_at_end.cpu.percent``.
    Lists are kept as opaque values.
    """
    out: dict[str, Any] = {}

    def walk(prefix: str, value: Any, depth: int) -> None:
        t = type(value)
        if (
            t is dict or (t not in _LEAF_TYPES and isinstance(value, Mapping))
        ) and depth < max_depth:
            if not value:
                out[prefix] = {}
                return
            for k, v in value.items():
                key = f"{prefix}{sep}{k}" if prefix else str(k)
                walk(key, v, depth + 1)
        else:
            out[prefix] = value

    for k, v in record.items():
        walk(str(k), v, 0)
    return out


class DataFrame:
    """Immutable, column-oriented table."""

    def __init__(self, data: Mapping[str, Iterable[Any]] | None = None):
        self._cols: dict[str, Column] = {}
        if data:
            n = None
            for name, values in data.items():
                col = values if isinstance(values, Column) else Column(str(name), values)
                if col.name != name:
                    col = col.rename(str(name))
                if n is None:
                    n = len(col)
                elif len(col) != n:
                    raise LengthMismatchError(
                        f"column {name!r} has {len(col)} rows, expected {n}"
                    )
                self._cols[str(name)] = col
        self._nrows = len(next(iter(self._cols.values()))) if self._cols else 0

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Sequence[Mapping[str, Any]],
        *,
        flatten: bool = False,
    ) -> "DataFrame":
        """Build a frame from row dicts, unioning keys across rows."""
        rows = [flatten_record(r) if flatten else dict(r) for r in records]
        keys: dict[str, None] = {}
        for r in rows:
            for k in r:
                keys.setdefault(k, None)
        data = {k: [r.get(k) for r in rows] for k in keys}
        return cls(data)

    @classmethod
    def _from_columns(cls, cols: dict[str, Column], nrows: int) -> "DataFrame":
        df = object.__new__(cls)
        df._cols = cols
        df._nrows = nrows
        return df

    # -- shape / access ----------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        return list(self._cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self._nrows, len(self._cols))

    @property
    def empty(self) -> bool:
        return self._nrows == 0

    def __len__(self) -> int:
        return self._nrows

    def __contains__(self, name: str) -> bool:
        return name in self._cols

    def __iter__(self) -> Iterator[str]:
        return iter(self._cols)

    def column(self, name: str) -> Column:
        try:
            return self._cols[name]
        except KeyError:
            raise ColumnNotFoundError(name, tuple(self._cols)) from None

    def __getitem__(self, key: Any) -> Any:
        """Column access, projection, or boolean-mask filter (pandas-style)."""
        if isinstance(key, str):
            return self.column(key)
        if isinstance(key, (list, tuple)) and all(isinstance(k, str) for k in key):
            return self.select(list(key))
        if isinstance(key, (np.ndarray, list)):
            return self.filter(np.asarray(key, dtype=bool))
        raise TypeError(f"cannot index DataFrame with {type(key).__name__}")

    def select(self, names: Sequence[str]) -> "DataFrame":
        cols = {n: self.column(n) for n in names}
        return DataFrame._from_columns(cols, self._nrows)

    def drop(self, names: Sequence[str] | str) -> "DataFrame":
        if isinstance(names, str):
            names = [names]
        missing = [n for n in names if n not in self._cols]
        if missing:
            raise ColumnNotFoundError(missing[0], tuple(self._cols))
        cols = {n: c for n, c in self._cols.items() if n not in set(names)}
        return DataFrame._from_columns(cols, self._nrows)

    def assign(self, **new_cols: Any) -> "DataFrame":
        cols = dict(self._cols)
        for name, values in new_cols.items():
            col = values if isinstance(values, Column) else Column(name, values)
            if len(col) != self._nrows and self._nrows > 0:
                raise LengthMismatchError(
                    f"assigned column {name!r} has {len(col)} rows, expected {self._nrows}"
                )
            cols[name] = col.rename(name)
        n = self._nrows if self._cols else (len(next(iter(cols.values()))) if cols else 0)
        return DataFrame._from_columns(cols, n)

    def rename(self, mapping: Mapping[str, str]) -> "DataFrame":
        cols = {mapping.get(n, n): c.rename(mapping.get(n, n)) for n, c in self._cols.items()}
        return DataFrame._from_columns(cols, self._nrows)

    # -- row ops ---------------------------------------------------------------------
    def filter(self, mask: np.ndarray) -> "DataFrame":
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self._nrows:
            raise LengthMismatchError(
                f"mask length {len(mask)} != row count {self._nrows}"
            )
        cols = {n: c.mask(mask) for n, c in self._cols.items()}
        return DataFrame._from_columns(cols, int(mask.sum()))

    def take(self, indices: Sequence[int] | np.ndarray) -> "DataFrame":
        idx = np.asarray(indices, dtype=np.intp)
        cols = {n: c.take(idx) for n, c in self._cols.items()}
        return DataFrame._from_columns(cols, len(idx))

    def islice(self, start: int, stop: int | None = None) -> "DataFrame":
        """Contiguous row window ``[start:stop)`` as storage slices.

        Cheaper than :meth:`take` for pagination-shaped access: no index
        array is materialised and every column shares a slice view.
        """
        start = max(0, int(start))
        stop = self._nrows if stop is None else max(start, int(stop))
        cols = {n: c.slice(start, stop) for n, c in self._cols.items()}
        return DataFrame._from_columns(cols, min(stop, self._nrows) - min(start, self._nrows))

    def head(self, n: int = 5) -> "DataFrame":
        n = max(0, int(n))
        return self.take(np.arange(min(n, self._nrows)))

    def tail(self, n: int = 5) -> "DataFrame":
        n = max(0, int(n))
        return self.take(np.arange(max(0, self._nrows - n), self._nrows))

    def sort_values(
        self,
        by: str | Sequence[str],
        ascending: bool | Sequence[bool] = True,
    ) -> "DataFrame":
        keys = [by] if isinstance(by, str) else list(by)
        if isinstance(ascending, bool):
            dirs = [ascending] * len(keys)
        else:
            dirs = list(ascending)
            if len(dirs) != len(keys):
                raise ValueError("ascending must match number of sort keys")
        order = np.arange(self._nrows)
        # stable sort from least- to most-significant key
        for key, asc in reversed(list(zip(keys, dirs))):
            col = self.column(key).take(order)
            order = order[col.argsort(ascending=asc)]
        return self.take(order)

    def nlargest(self, n: int, column: str) -> "DataFrame":
        return self.sort_values(column, ascending=False).head(n)

    def nsmallest(self, n: int, column: str) -> "DataFrame":
        return self.sort_values(column, ascending=True).head(n)

    def drop_duplicates(self, subset: Sequence[str] | str | None = None) -> "DataFrame":
        names = (
            [subset]
            if isinstance(subset, str)
            else list(subset) if subset is not None else self.columns
        )
        seen: set[Any] = set()
        keep: list[int] = []
        cols = [self.column(n) for n in names]
        for i in range(self._nrows):
            key = tuple(_freeze(c[i]) for c in cols)
            if key not in seen:
                seen.add(key)
                keep.append(i)
        return self.take(keep)

    def dropna(self, subset: Sequence[str] | None = None) -> "DataFrame":
        names = list(subset) if subset else self.columns
        mask = np.ones(self._nrows, dtype=bool)
        for n in names:
            mask &= self.column(n).notna()
        return self.filter(mask)

    # -- groupby ------------------------------------------------------------------------
    def groupby(self, by: str | Sequence[str]) -> "GroupBy":
        from repro.dataframe.groupby import GroupBy

        keys = [by] if isinstance(by, str) else list(by)
        for k in keys:
            self.column(k)  # raise early on missing key
        return GroupBy(self, keys)

    # -- whole-frame aggregation shortcuts --------------------------------------------------
    def count(self) -> dict[str, int]:
        return {n: c.count() for n, c in self._cols.items()}

    def agg(self, spec: Mapping[str, str | Sequence[str]]) -> dict[str, Any]:
        """``df.agg({"col": "mean", "other": ["min", "max"]})``."""
        out: dict[str, Any] = {}
        for name, aggs in spec.items():
            col = self.column(name)
            if isinstance(aggs, str):
                out[name] = col.agg(aggs)
            else:
                out[name] = {a: col.agg(a) for a in aggs}
        return out

    # -- export -----------------------------------------------------------------------------
    def to_dicts(self) -> list[dict[str, Any]]:
        names = self.columns
        cols = [self._cols[n] for n in names]
        return [
            {n: c[i] for n, c in zip(names, cols)} for i in range(self._nrows)
        ]

    def to_dict_of_lists(self) -> dict[str, list[Any]]:
        return {n: c.to_list() for n, c in self._cols.items()}

    def row(self, i: int) -> dict[str, Any]:
        if not 0 <= i < self._nrows:
            raise IndexError(f"row {i} out of range (len={self._nrows})")
        return {n: c[i] for n, c in self._cols.items()}

    def itertuples(self) -> Iterator[tuple]:
        for i in range(self._nrows):
            yield tuple(c[i] for c in self._cols.values())

    # -- display ------------------------------------------------------------------------------
    def to_string(self, max_rows: int = 20) -> str:
        names = self.columns
        if not names:
            return "<empty DataFrame>"
        shown = self.head(max_rows)
        widths = {
            n: max(len(n), *(len(_fmt(v)) for v in shown.column(n).to_list()), 1)
            for n in names
        }
        header = "  ".join(n.ljust(widths[n]) for n in names)
        lines = [header, "  ".join("-" * widths[n] for n in names)]
        for r in shown.to_dicts():
            lines.append("  ".join(_fmt(r[n]).ljust(widths[n]) for n in names))
        if self._nrows > max_rows:
            lines.append(f"… ({self._nrows - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"DataFrame({self._nrows} rows x {len(self._cols)} cols)"

    # -- comparison (for tests) ---------------------------------------------------------------
    def equals(self, other: "DataFrame") -> bool:
        if self.columns != other.columns or len(self) != len(other):
            return False
        for n in self.columns:
            a, b = self.column(n).to_list(), other.column(n).to_list()
            for x, y in zip(a, b):
                if x is None and y is None:
                    continue
                if isinstance(x, float) and isinstance(y, float):
                    if not (abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))):
                        return False
                elif x != y:
                    return False
        return True

    def apply_rows(self, fn: Callable[[dict[str, Any]], Any], name: str = "result") -> Column:
        return Column(name, [fn(r) for r in self.to_dicts()])


def concat(frames: Sequence[DataFrame]) -> DataFrame:
    """Row-wise concatenation with column union (missing values -> null)."""
    frames = [f for f in frames if f is not None]
    if not frames:
        return DataFrame()
    keys: dict[str, None] = {}
    for f in frames:
        for c in f.columns:
            keys.setdefault(c, None)
    data: dict[str, list[Any]] = {k: [] for k in keys}
    for f in frames:
        n = len(f)
        for k in keys:
            if k in f:
                data[k].extend(f.column(k).to_list())
            else:
                data[k].extend([None] * n)
    return DataFrame(data)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    if v is None:
        return "·"
    return str(v)


def _freeze(v: Any) -> Any:
    try:
        hash(v)
        return v
    except TypeError:
        return repr(v)
