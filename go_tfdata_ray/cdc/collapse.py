"""Vectorized per-key collapse / merge kernels (Arrow in, Arrow out).

The semantic mirrors the reference's last-write-wins map assignment when tar
members repeat a name (`/root/reference/tfdata/archive/manager.go:57-63`):
per ``doc_id`` the highest ``(rank, seq)`` event wins. All kernels are
pyarrow/numpy — no Python row loops — and are pure functions of the sort
keys (associative, order-insensitive), so they are safe to apply partially
per batch (combiner) and again per partition (final).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def hash_partition(doc_ids: pa.ChunkedArray | pa.Array, num_partitions: int) -> np.ndarray:
    """Deterministic hash of the key column → partition id (int32).

    Uses pandas' fixed-key siphash (stable across processes/runs, which task
    retries and resume require — Python's builtin ``hash`` is salted per
    process and would misroute on retry).
    """
    arr = doc_ids.to_numpy(zero_copy_only=False)
    h = pd.util.hash_array(np.asarray(arr, dtype=object), categorize=False)
    return (h % np.uint64(num_partitions)).astype(np.int32)


def collapse_latest(
    t: pa.Table, key: str = "doc_id", order_cols: tuple[str, ...] = ("seq",)
) -> pa.Table:
    """Keep, per key, the single row with the greatest ``order_cols`` tuple.

    Sorts only the (key, order) columns and takes winners once — the wide
    token payload is never copied for losing rows (matters when many updates
    pile up per key between compactions)."""
    if len(t) == 0:
        return t
    sort_keys = [(key, "ascending")] + [(c, "ascending") for c in order_cols]
    small = t.select([key, *order_cols])
    idx = pc.sort_indices(small, sort_keys=sort_keys).to_numpy()
    keys = small[key].to_numpy(zero_copy_only=False)[idx]
    last = np.empty(len(keys), dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]
    last[-1] = True
    return t.take(pa.array(idx[last]))


def merge_on_read(
    tables: list[pa.Table],
    key: str = "doc_id",
    seq_col: str = "seq",
    op_col: str = "op",
    drop_internal: tuple[str, ...] = (),
    ranks: list[int] | None = None,
) -> pa.Table:
    """LSM merge: latest (rank, seq) per key wins; tombstones ('D') masked.

    ``ranks`` is the commit rank per table — the EPOCH for delta files (all
    fragments of one epoch share a rank, so ordering within the epoch falls
    through to ``seq``), the compaction epoch for base files. Defaults to
    positional order for simple base→delta lists. Schemas are unified
    permissively (add-column evolution: missing columns read back as null,
    the columnar analog of the reference's absent-key JSON-bytes fallback,
    `/root/reference/tfdata/transform/transformer.go:134-142`).
    """
    if ranks is None:
        ranks = list(range(len(tables)))
    ranked = []
    for rank, t in zip(ranks, tables):
        if len(t) == 0:
            continue
        ranked.append(
            t.append_column("_rank", pa.array(np.full(len(t), rank, dtype=np.int64)))
        )
    if not ranked:
        return tables[0].slice(0, 0) if tables else pa.table({})
    merged = pa.concat_tables(ranked, promote_options="permissive")
    merged = collapse_latest(merged, key=key, order_cols=("_rank", seq_col))
    if op_col in merged.column_names:
        merged = merged.filter(pc.not_equal(merged[op_col], pa.scalar("D")))
    cols = [c for c in merged.column_names if c != "_rank" and c not in drop_internal]
    return merged.select(cols)
