"""Document-level helpers shared by every storage backend.

These are the pieces of the store's semantics that must stay *identical*
across backends for them to be drop-in interchangeable:

* :func:`get_path` / :func:`path_exists` — dotted-path resolution with
  the literal-key-wins rule the DataFrame layer's flattening depends on;
* :func:`merge_upsert_doc` — the upsert merge rule (non-``None`` fields
  win, ``None`` only fills gaps), shared with the lineage index whose
  parity with scan-built graphs depends on merging re-delivered
  documents exactly as the database does;
* :func:`sort_documents` — the stable, nulls-last sort every backend
  (and the sharded coordinator's merge step) applies.

``get_path`` sits on hot paths — index maintenance runs it per indexed
field per ingested document, and sorts and projections per document
(filter verification uses getters compiled from it, see
:func:`repro.storage.memory.compile_filter`) — so it special cases
plain ``dict`` (the only type the stores ever hold) before paying for
an ABC ``isinstance`` check, and skips the dotted walk entirely for
top-level misses.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = [
    "get_path",
    "path_exists",
    "merge_upsert_doc",
    "sort_documents",
]


def get_path(doc: Mapping[str, Any], path: str) -> Any:
    """Resolve a dotted path inside a nested document (None if absent).

    A literal (pre-flattened) key wins over nested traversal so documents
    stored in flattened form match the same filters as nested ones — the
    DataFrame layer flattens both to the same column name.
    """
    # `type(...) is dict` first: abc.Mapping's __instancecheck__ costs
    # ~10x a plain dict check and this runs per field per document
    if type(doc) is dict or isinstance(doc, Mapping):
        if path in doc:
            return doc[path]
        if "." not in path:
            return None
    cur: Any = doc
    for part in path.split("."):
        if (type(cur) is dict or isinstance(cur, Mapping)) and part in cur:
            cur = cur[part]
        else:
            return None
    return cur


def path_exists(doc: Mapping[str, Any], path: str) -> bool:
    """Whether ``path`` resolves in ``doc`` (the ``$exists`` semantics)."""
    if type(doc) is dict or isinstance(doc, Mapping):
        if path in doc:
            return True
        if "." not in path:
            return False
    cur: Any = doc
    for part in path.split("."):
        if (type(cur) is dict or isinstance(cur, Mapping)) and part in cur:
            cur = cur[part]
        else:
            return False
    return True


def merge_upsert_doc(
    old: Mapping[str, Any], new: Mapping[str, Any]
) -> dict[str, Any]:
    """The upsert merge rule: non-None fields win, None only fills gaps.

    Shared with the lineage index (:mod:`repro.lineage`), whose parity
    with scan-built graphs depends on merging re-delivered documents
    exactly as the database does — keep one definition.
    """
    merged = dict(old)
    for k, v in new.items():
        if v is not None or k not in merged:
            merged[k] = v
    return merged


def sort_documents(
    docs: list[dict[str, Any]], path: str, direction: int
) -> None:
    """Stable in-place sort on a dotted path; nulls last in both directions."""

    def value_key(d: dict[str, Any]):
        v = get_path(d, path)
        return v if isinstance(v, (int, float, str)) else repr(v)

    def has_value(d: dict[str, Any]) -> bool:
        return get_path(d, path) is not None

    with_value = [d for d in docs if has_value(d)]
    without = [d for d in docs if not has_value(d)]
    try:
        with_value.sort(key=value_key, reverse=direction < 0)
    except TypeError:  # mixed types: fall back to string ordering
        with_value.sort(key=lambda d: str(value_key(d)), reverse=direction < 0)
    docs[:] = with_value + without
