"""Per-record transforms re-expressed as vectorized Dataset stages.

Each operator here is the columnar analog of a reference transformation,
applied via ``ds.map_batches(..., batch_format="pyarrow")`` (zero-copy
blocks) instead of per-row Go closures:

- ``rename``        ↔ RenameTransformation
  (`/root/reference/tfdata/transform/transformation.go:54-76`)
- ``select`` + selection objects ↔ SampleSelectionsTransformation +
  selection.By* (`/root/reference/tfdata/transform/transformation.go:86-126`,
  `/root/reference/tfdata/transform/selection/selection.go:52-139`)
- ``filter_empty``  ↔ FilterEmptySamples
  (`/root/reference/tfdata/filter/filter.go:28-79`)
- ``sample_f``      ↔ SampleF / ExampleF UDF hook
  (`/root/reference/tfdata/transform/transformation.go:128-142`)
- ``coerce``        ↔ SampleToTFExamplesTypesTransformer TypesMap coercion
  with JSON-bytes fallback for undeclared columns
  (`/root/reference/tfdata/transform/transformer.go:120-204`)

Selection composition keeps the reference's exact semantics: the union of
selected cells survives, everything else is nulled; a row whose non-key
cells are all null is "empty" and ``filter_empty`` drops it — which is how
the reference expresses row-level predicates (ByKeyValue + FilterEmpty,
`/root/reference/test/filter_test.go:17-47`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

KEY_COLUMN = "doc_id"  # ↔ core.KeyEntry "__key__" (/root/reference/tfdata/core/sample.go:7)


# --- rename ----------------------------------------------------------------

def rename_batch(t: pa.Table, dest: str, srcs: list[str]) -> pa.Table:
    """Copy the value of each present src into dest; LAST present src wins;
    srcs are NOT deleted (exact reference semantics, transformation.go:63-70
    iterates srcs in order overwriting dest)."""
    for src in srcs:
        if src in t.column_names:
            col = t.column(src)
            if dest in t.column_names:
                t = t.set_column(t.column_names.index(dest), dest, col)
            else:
                t = t.append_column(dest, col)
    return t


def rename(ds: rd.Dataset, dest: str, srcs: list[str]) -> rd.Dataset:
    return ds.map_batches(
        lambda t: rename_batch(t, dest, srcs), batch_format="pyarrow", zero_copy_batch=True
    )


# --- selections ------------------------------------------------------------

class Selection:
    """Schema-level selections return column names; row-level ones return a
    per-column boolean mask (cells outside the mask are nulled)."""

    def static_columns(self, names: list[str]) -> list[str]:
        return []

    def row_masks(self, t: pa.Table) -> dict[str, np.ndarray]:
        return {}


@dataclass
class ByKey(Selection):  # selection.go:52-54
    key: str

    def static_columns(self, names):
        return [self.key] if self.key in names else []


@dataclass
class ByPrefix(Selection):  # selection.go:57-60, match :91-96
    prefix: str

    def static_columns(self, names):
        return [n for n in names if n.startswith(self.prefix)]


@dataclass
class BySuffix(Selection):  # selection.go:62-65
    suffix: str

    def static_columns(self, names):
        return [n for n in names if n.endswith(self.suffix)]


@dataclass
class BySubstring(Selection):  # selection.go:67-69
    substring: str

    def static_columns(self, names):
        return [n for n in names if self.substring in n]


@dataclass
class ByKeyValue(Selection):
    """Select column ``key`` only in rows where its value equals ``value``
    (selection.go:117-139, reflect.DeepEqual). The reference's only
    row-level predicate; with filter_empty it becomes row filtering."""

    key: str
    value: object

    def row_masks(self, t):
        if self.key not in t.column_names:
            return {}
        mask = pc.equal(t[self.key], pa.scalar(self.value)).to_numpy(zero_copy_only=False)
        return {self.key: np.asarray(mask, dtype=bool)}


@dataclass
class ByBatchF(Selection):
    """UDF selection ↔ BySampleF (selection.go:99-114), vectorized: fn gets
    the Arrow batch, returns {column: bool mask} of selected cells."""

    fn: Callable[[pa.Table], dict[str, np.ndarray]]

    def row_masks(self, t):
        return self.fn(t)


def select_batch(t: pa.Table, selections: list[Selection]) -> pa.Table:
    names = t.column_names
    static = set()
    for s in selections:
        static.update(s.static_columns(names))
    masks: dict[str, np.ndarray] = {}
    for s in selections:
        for col, m in s.row_masks(t).items():
            masks[col] = masks.get(col, np.zeros(len(t), dtype=bool)) | m
    keep_cols = [n for n in names if n in static or n in masks]
    out = {}
    for n in keep_cols:
        col = t.column(n)
        if n in static:
            out[n] = col
        else:  # row-selected: null out unselected cells
            out[n] = pc.if_else(pa.array(masks[n]), col, pa.nulls(len(t), col.type))
    return pa.table(out) if out else t.select([])


def select(ds: rd.Dataset, *selections: Selection) -> rd.Dataset:
    sels = list(selections)
    return ds.map_batches(
        lambda t: select_batch(t, sels), batch_format="pyarrow", zero_copy_batch=True
    )


# --- filter empty ----------------------------------------------------------

def filter_empty_batch(t: pa.Table, key_col: str = KEY_COLUMN) -> pa.Table:
    """Drop rows whose every non-key cell is null — the columnar "empty
    Sample" (only __key__ left, filter.go:59-68)."""
    data_cols = [n for n in t.column_names if n != key_col]
    if not data_cols:
        return t.slice(0, 0)
    nonempty = np.zeros(len(t), dtype=bool)
    for n in data_cols:
        valid = pc.is_valid(t[n]).to_numpy(zero_copy_only=False)
        nonempty |= np.asarray(valid, dtype=bool)
    return t.filter(pa.array(nonempty))


def filter_empty(ds: rd.Dataset, key_col: str = KEY_COLUMN) -> rd.Dataset:
    return ds.map_batches(
        lambda t: filter_empty_batch(t, key_col), batch_format="pyarrow", zero_copy_batch=True
    )


# --- generic UDF hook ------------------------------------------------------

def sample_f(ds: rd.Dataset, fn: Callable[[pa.Table], pa.Table], **kw) -> rd.Dataset:
    """Arbitrary per-batch UDF ↔ SampleF's per-record closure. Stateful UDFs
    should be callable classes passed through map_batches directly."""
    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, **kw)


# --- TypesMap coercion -----------------------------------------------------

def coerce_batch(t: pa.Table, types_map: dict[str, pa.DataType]) -> pa.Table:
    """Declared columns are cast to their physical type (int64/float32/bytes
    families, widening allowed); undeclared columns fall back to
    JSON-serialized binary — the reference's schema-evolution fallback that
    lets unknown columns flow through without breaking the pipeline
    (transformer.go:134-142,195-201). The fallback is vectorized for
    primitive types (one Arrow cast→utf8→binary chain — JSON of an
    int/float/bool is just its literal), so a hot column an author forgot
    to declare degrades to a cheap kernel, not a per-cell Python loop;
    only nested/struct/string values take the real ``json.dumps`` path
    (strings need JSON quoting/escaping)."""
    out = {}
    for name in t.column_names:
        col = t.column(name)
        if name in types_map:
            out[name] = pc.cast(col, types_map[name])
        elif pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
            out[name] = col  # []byte passthrough (transformer.go:106-110)
        elif (pa.types.is_integer(col.type) or pa.types.is_boolean(col.type)
              or pa.types.is_floating(col.type)):
            # int literals, lowercase true/false, and arrow's shortest
            # round-trip finite-float rendering are all valid JSON that
            # parses back to the identical value — but arrow renders
            # non-finite floats as 'nan'/'inf'/'-inf', which json.loads
            # rejects; rewrite those to json.dumps's 'NaN'/'Infinity'
            s = pc.cast(col, pa.string())
            if pa.types.is_floating(col.type):
                for bad, good in (("nan", "NaN"), ("inf", "Infinity"),
                                  ("-inf", "-Infinity")):
                    s = pc.if_else(pc.equal(s, bad), pa.scalar(good), s)
            out[name] = pc.cast(s, pa.binary())
        else:
            out[name] = pa.array(
                [None if v is None else json.dumps(v).encode() for v in col.to_pylist()],
                type=pa.binary(),
            )
    return pa.table(out)


def coerce(ds: rd.Dataset, types_map: dict[str, pa.DataType]) -> rd.Dataset:
    return ds.map_batches(
        lambda t: coerce_batch(t, types_map), batch_format="pyarrow", zero_copy_batch=True
    )
