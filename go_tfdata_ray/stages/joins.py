"""Join strategies for Ray Data (the reference has no joins — SURVEY.md §2.6
— but a complete engine needs them; shapes follow the public Ray guidance).

- broadcast_join: small side ``ray.put`` once, pandas merge per batch inside
  map_batches — NO shuffle; the right pattern for dimension tables at any
  scale (the small side ships to each actor once, not per batch).
- bucket_hash_join: both sides large — add ``_b = hash(key) % B`` to both,
  union, groupby bucket, join the two sides group-locally. ONE shuffle,
  partitioned hash join. Pass ``hot_keys=`` to salt pathological keys into
  ``salt`` sub-buckets (probe rows spread deterministically, build rows
  replicated salt×) so one hot key no longer lands a whole bucket on one
  task.
- broadcast key-set semi/anti joins: filter inside map_batches.

Exchange-strategy measurements (sf0.1, 32 cpus, 2026-08-17):
object_exchange_hash_join ~2.2s · bucket groupby 3.2-4.2s ·
storage_hash_join 2.6s · Ray native Dataset.join 7.5s ·
repartition(keys=)+HASH_SHUFFLE 12s. The Dataset sort-shuffle FIXED cost
dominates at this scale, so the default large⋈large strategy is the
direct object-store exchange (per-bucket block slices as first-class
objects, one merge task per bucket — same bytes moved, no sort, no
null-padded union schema); the groupby variant remains for salted skew
(`hot_keys=`) and the disk-backed storage exchange for clusters where the
object store can't hold both sides.
"""

from __future__ import annotations

import os
from typing import Literal

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from ..cdc.collapse import hash_partition
from .exchange import exchange_group_map


def _dataset_arrow_schema(ds: rd.Dataset) -> pa.Schema:
    """Arrow schema of a Dataset without full execution: use the plan's
    base schema when it is already Arrow, else peek one block. Raises a
    clear error for a schemaless empty dataset instead of IndexError."""
    s = ds.schema()
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    refs = ds.limit(1).to_arrow_refs()
    if not refs:
        raise ValueError("cannot infer the Arrow schema of an empty, "
                         "schemaless dataset")
    return ray.get(refs[0]).schema




# per-worker-process cache of deserialized broadcast sides, keyed by object
# ref: ray.get of the SAME ref on the same worker re-deserializes pandas
# objects each task, and a dedicated actor pool costs ~1.5 s spin-up per
# query (measured) — plain tasks + this cache get both right. Refs are
# per-invocation, so the cache is LRU-bounded: without eviction every
# query run in a long-lived session would leak one deserialized copy per
# worker.
_BCAST_CACHE_MAX = 8
_BCAST_CACHE: "dict" = {}  # insertion-ordered: oldest first


def _cached_get(ref):
    key = ref.hex()
    obj = _BCAST_CACHE.get(key)
    if obj is None:
        obj = _BCAST_CACHE.setdefault(key, ray.get(ref))
        while len(_BCAST_CACHE) > _BCAST_CACHE_MAX:
            _BCAST_CACHE.pop(next(iter(_BCAST_CACHE)))
    return obj


def broadcast_join(
    big: rd.Dataset,
    small: pd.DataFrame,
    on: str | list[str],
    how: Literal["inner", "left"] = "inner",
    concurrency=None,
) -> rd.Dataset:
    """Broadcast hash join: ``small`` is put in the object store ONCE; each
    worker process fetches + deserializes it once (``_BCAST_CACHE``) and
    merges per batch — no shuffle, no actor-pool spin-up."""
    ref = ray.put(small)

    def joiner(df: pd.DataFrame) -> pd.DataFrame:
        return df.merge(_cached_get(ref), on=on, how=how)

    joiner.__name__ = "broadcast_join"
    return big.map_batches(joiner, batch_format="pandas", batch_size=16384)


def semi_join_filter(big: rd.Dataset, keys, on: str, anti: bool = False) -> rd.Dataset:
    """Semi/anti join via a broadcast key set (use ``sketch.build_bloom``
    as the prefilter when the build side is too large to ship exactly)."""
    ref = ray.put(set(keys))

    def filt(df: pd.DataFrame) -> pd.DataFrame:
        mask = df[on].isin(_cached_get(ref))
        return df[~mask] if anti else df[mask]

    filt.__name__ = "semi_join_filter"
    return big.map_batches(filt, batch_format="pandas", batch_size=16384)


def anti_join_keys(
    big: rd.Dataset,
    keys: rd.Dataset,
    on: str,
    num_shards: int = 64,
    max_broadcast: int = 1_000_000,
    n_bits: int | None = None,
) -> rd.Dataset:
    """Distributed EXACT anti join: drop from ``big`` every row whose
    ``on`` value appears in the ``keys`` Dataset (id rows, same column
    name). Ids are compared stringified, so the sides may differ in
    physical key type (e.g. ``duplicate_keys``'s string casts).

    Auto-switches on |keys| — the ``ngram_verified_dedup`` narrow pattern
    (`functions/dedup.py`): at or below ``max_broadcast`` the ids drain
    to an exact driver set (cheapest at typical counts). Above it nothing
    key-proportional touches the driver:

    1. a Bloom filter over the keys is built DISTRIBUTIVELY
       (`functions/sketch.py:build_bloom` — OR-fold of fixed-size bit
       arrays) and broadcast once; rows missing the Bloom are keepers
       outright (a Bloom has no false negatives);
    2. the Bloom-HIT ids (true members + false positives) are resolved
       exactly with one ID-ONLY key-sharded exchange against the key
       set — row payloads never shuffle;
    3. the surviving FALSE-POSITIVE ids (≈ FP-rate × |big|, bounded by
       the 16-bits-per-key Bloom sizing, <1% at the 1 GiB cap up to
       ~4×10^9 keys) broadcast as the tiny rescue set.

    keep = not-in-Bloom OR rescued — exact under any FP rate, one
    streaming filter pass over ``big`` at apply time plus one id-only
    projection pass for step 2 (``big``'s upstream plan executes for
    both, like every multi-consumer Dataset). ``n_bits`` overrides the
    Bloom size (tests force FP floods to exercise the rescue path)."""
    import pyarrow.compute as pc

    ids = keys.map_batches(
        lambda t: pa.table({"_k": pc.cast(t[on], pa.string())}),
        batch_format="pyarrow").materialize()
    n = ids.count()
    if n == 0:
        return big

    def _stringified(t: pa.Table) -> np.ndarray:
        return pc.cast(t[on], pa.string()).to_numpy(zero_copy_only=False)

    if n <= max_broadcast:
        kset: set = set()
        for b in ids.iter_batches(batch_format="pyarrow"):
            kset.update(b["_k"].to_pylist())
        ref = ray.put(kset)

        def filt(t: pa.Table) -> pa.Table:
            m = pd.Series(_stringified(t)).isin(_cached_get(ref)).to_numpy()
            return t.filter(pa.array(~m))

        filt.__name__ = "anti_join_keys_small"
        return big.map_batches(filt, batch_format="pyarrow")

    from ..functions.sketch import bloom_contains, build_bloom

    if n_bits is None:
        n_bits = 1 << min(33, max(20, int(np.ceil(np.log2(16 * n)))))
    bloom_ref = ray.put(build_bloom(ids, "_k", n_bits=n_bits))

    def hit_ids(t: pa.Table) -> pa.Table:
        v = _stringified(t)
        m = bloom_contains(_cached_get(bloom_ref), v)
        return pa.table({"_k": pa.array(v[m], pa.string())})

    def tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            v = t["_k"].to_numpy(zero_copy_only=False)
            sh = (pd.util.hash_array(np.asarray(v, dtype=object),
                                     categorize=False)
                  % np.uint64(num_shards)).astype(np.int64)
            return pa.table({
                "_k": t["_k"],
                "_side": pa.array(np.full(len(t), side, np.int8)),
                "_s": pa.array(sh)})
        f.__name__ = f"tag_side{side}"
        return f

    def fp_shard(g: pd.DataFrame) -> pd.DataFrame:
        members = set(g.loc[g["_side"] == 1, "_k"])
        h = g.loc[g["_side"] == 0, "_k"]
        return pd.DataFrame(
            {"_k": pd.array(h[~h.isin(members)].unique(), dtype="string")})

    tagged = big.map_batches(hit_ids, batch_format="pyarrow").map_batches(
        tag(0), batch_format="pyarrow").union(
        ids.map_batches(tag(1), batch_format="pyarrow"))
    fp_set: set = set()
    for b in exchange_group_map(tagged, fp_shard, num_shards,
                                shard_col="_s").iter_batches(
                                    batch_format="pyarrow"):
        fp_set.update(b["_k"].to_pylist())
    fp_ref = ray.put(fp_set)

    def keep(t: pa.Table) -> pa.Table:
        v = _stringified(t)
        mask = ~bloom_contains(_cached_get(bloom_ref), v)
        fps = _cached_get(fp_ref)
        if fps:
            mask |= pd.Series(v).isin(fps).to_numpy()
        return t.filter(pa.array(mask))

    keep.__name__ = "anti_join_keys_bloom"
    return big.map_batches(keep, batch_format="pyarrow")


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    by: str,
    on: str,
    direction: Literal["backward", "forward"] = "backward",
    allow_exact_matches: bool = True,
    num_buckets: int = 32,
    right_suffix: str = "_r",
    right_dedup_max: str | None = None,
) -> rd.Dataset:
    """As-of join (the reference lacks it; Ray Data lacks it): for each left
    row, the latest right row of the same ``by`` key with ``on`` ≤ (or <)
    the left's ``on``. Implemented as bucket-by-key → ONE object-store
    exchange → per-bucket ``pd.merge_asof`` (sorted by ``on``, ``by=`` the
    key).
    Partitioning assumption: all rows of one ``by`` key land in one bucket
    (hash-bucketed), so the per-bucket merge is globally correct.

    ``right_dedup_max``: make the right side unique per (by, on) INSIDE the
    per-bucket merge by keeping the row with the max of this column (a
    well-defined asof tie-break). This runs distributed — a driver-side or
    ``repartition(1)`` pre-dedup of an O(input) right side would
    materialize it in one task."""

    l_schema, r_schema = _dataset_arrow_schema(left), _dataset_arrow_schema(right)
    l_cols = list(l_schema.names)
    r_cols = list(r_schema.names)
    r_renamed = [c if c in (by, on) else c + right_suffix if c in l_cols else c
                 for c in r_cols]
    combined = pa.schema(
        [pa.field(n, t) for n, t in zip(l_schema.names, l_schema.types)]
        + [pa.field(n, t) for n, t in zip(r_renamed, r_schema.types) if n not in (by, on)]
    )
    out_r_cols = [c for c in r_renamed if c not in (by, on)]

    def tag(side: int, names: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            t = t.rename_columns(names)
            for f in combined:
                if f.name not in t.column_names:
                    t = t.append_column(f.name, pa.nulls(len(t), f.type))
            t = t.select(combined.names)
            b = hash_partition(t[by], num_buckets)
            t = t.append_column("_b", pa.array(b))
            return t.append_column("_side", pa.array(np.full(len(t), side, dtype=np.int8)))

        return fn

    both = left.map_batches(tag(0, l_cols), batch_format="pyarrow").union(
        right.map_batches(tag(1, r_renamed), batch_format="pyarrow")
    )

    dedup_col = (right_dedup_max + right_suffix
                 if right_dedup_max and right_dedup_max + right_suffix in out_r_cols
                 else right_dedup_max)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["_side"] == 0][l_cols].sort_values(on, kind="mergesort")
        r = g[g["_side"] == 1][[by, on] + out_r_cols].sort_values(on, kind="mergesort")
        if dedup_col is not None and len(r):
            r = (r.sort_values(dedup_col, kind="mergesort")
                  .groupby([by, on], as_index=False, sort=False).last()
                  .sort_values(on, kind="mergesort"))
        if len(l) == 0:
            return pd.DataFrame({c: pd.Series(dtype=g[c].dtype) for c in combined.names})
        return pd.merge_asof(
            l, r, on=on, by=by, direction=direction,
            allow_exact_matches=allow_exact_matches, suffixes=("", right_suffix),
        )

    return exchange_group_map(both, merge, num_buckets, shard_col="_b")


# storage_hash_join run dirs created by THIS process, pending cleanup
_SPILL_DIRS: list[str] = []


def cleanup_join_spill(root: str | None = None) -> int:
    """Remove storage_hash_join spill dirs. With no ``root``, removes the
    dirs this process created (call AFTER the join's consumer has drained
    the returned Dataset — phase-2 tasks read the run files lazily). With
    ``root``, sweeps every run dir under it, including orphans left by
    crashed runs. Returns the number of dirs removed."""
    import shutil

    if root is not None:
        targets = [os.path.join(root, d) for d in
                   (os.listdir(root) if os.path.isdir(root) else [])]
    else:
        targets = list(_SPILL_DIRS)
    n = 0
    for d in targets:
        if os.path.isdir(d):
            shutil.rmtree(d, ignore_errors=True)
            n += 1
        if d in _SPILL_DIRS:
            _SPILL_DIRS.remove(d)
    return n


def storage_hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    num_buckets: int = 64,
    how: Literal["inner", "left"] = "inner",
    spill_root: str = "/tmp/graft_join_spill",
) -> rd.Dataset:
    """Partitioned hash join through STORAGE instead of an object-store sort
    shuffle — the same row-group-addressed run-file exchange the CDC engine
    uses for apply (`go_tfdata_ray/cdc/engine.py:normalize_and_write_fragments`).

    Phase 1 (per side, fully parallel, no exchange): every read task sorts
    its batch by ``_b = hash(key) % B`` and writes ONE run file whose row
    groups align with bucket boundaries; it returns tiny intent rows.
    Phase 2: one task per bucket reads exactly its row groups from both
    sides' run files and does a group-local pandas merge. Data crosses the
    wire once (to storage), never through a sort. The spill dir must
    outlive the returned (lazy) Dataset's consumption; call
    ``cleanup_join_spill()`` once the consumer has drained it (leftover
    multi-GB tmpfs dirs poison the NEXT run's memory use).
    """
    import uuid as _uuid

    import pyarrow.parquet as pq

    spill = os.path.join(spill_root, _uuid.uuid4().hex)
    os.makedirs(spill, exist_ok=True)
    _SPILL_DIRS.append(spill)

    def writer(side: int):
        def fn(t: pa.Table) -> pa.Table:
            if len(t) == 0:
                return pa.table({"side": pa.array([], pa.int8()),
                                 "bucket": pa.array([], pa.int32()),
                                 "path": pa.array([], pa.string()),
                                 "rg": pa.array([], pa.int32())})
            b = hash_partition(t[on], num_buckets)
            order = np.argsort(b, kind="stable")
            t = t.take(pa.array(order))
            b = b[order]
            bounds = np.flatnonzero(np.r_[True, b[1:] != b[:-1], True])
            rel = f"side{side}-{_uuid.uuid4().hex[:12]}.parquet"
            path = os.path.join(spill, rel)
            rows = []
            w = pq.ParquetWriter(path + ".tmp", t.schema, compression="lz4")
            try:
                for rg in range(len(bounds) - 1):
                    lo, hi = int(bounds[rg]), int(bounds[rg + 1])
                    w.write_table(t.slice(lo, hi - lo), row_group_size=hi - lo)
                    rows.append((side, int(b[lo]), rel, rg))
            finally:
                w.close()
            os.rename(path + ".tmp", path)
            return pa.table({"side": pa.array([r[0] for r in rows], pa.int8()),
                             "bucket": pa.array([r[1] for r in rows], pa.int32()),
                             "path": pa.array([r[2] for r in rows], pa.string()),
                             "rg": pa.array([r[3] for r in rows], pa.int32())})

        return fn

    # both sides spill in ONE execution (union) — fully parallel phase 1
    intents = left.map_batches(writer(0), batch_format="pyarrow", batch_size=None,
                               zero_copy_batch=True).union(
        right.map_batches(writer(1), batch_format="pyarrow", batch_size=None,
                          zero_copy_batch=True)
    ).take_all()
    l_int = [it for it in intents if int(it["side"]) == 0]
    r_int = [it for it in intents if int(it["side"]) == 1]
    frags: dict[int, dict[int, list[tuple[str, int]]]] = {}
    for it in l_int + r_int:
        frags.setdefault(int(it["bucket"]), {0: [], 1: []})[int(it["side"])].append(
            (it["path"], int(it["rg"]))
        )
    l_schema = pq.read_schema(os.path.join(spill, l_int[0]["path"])) if l_int else None
    r_schema = pq.read_schema(os.path.join(spill, r_int[0]["path"])) if r_int else None
    if l_schema is None:
        return rd.from_items([])
    l_cols = list(l_schema.names)
    r_cols = list(r_schema.names) if r_schema is not None else [on]
    out_cols = l_cols + [c for c in r_cols if c != on]

    desc = [{"bucket": bkt, "l": fr[0], "r": fr[1]} for bkt, fr in sorted(frags.items())]

    def join_bucket(batch: pa.Table) -> pd.DataFrame:
        outs = []
        for i in range(len(batch)):
            l_frags = batch["l"][i].as_py()
            r_frags = batch["r"][i].as_py()
            if not l_frags or (how == "inner" and not r_frags):
                continue
            l = pa.concat_tables(
                [pq.ParquetFile(os.path.join(spill, p)).read_row_group(rg)
                 for p, rg in l_frags]
            ).to_pandas()
            if r_frags:
                r = pa.concat_tables(
                    [pq.ParquetFile(os.path.join(spill, p)).read_row_group(rg)
                     for p, rg in r_frags]
                ).to_pandas()
            else:
                r = pd.DataFrame({c: [] for c in r_cols})
            outs.append(l.merge(r, on=on, how=how))
        if not outs:
            return pd.DataFrame({c: [] for c in out_cols})
        return pd.concat(outs, ignore_index=True)

    return rd.from_items(desc).map_batches(join_bucket, batch_format="pyarrow",
                                           batch_size=1)


def _domain_i64(s: pd.Series | np.ndarray) -> np.ndarray:
    """Numeric routing domain for binning: timestamps → whole SECONDS
    (unit-safe — never assumes ns vs us storage), numerics unchanged."""
    arr = np.asarray(s)
    if np.issubdtype(arr.dtype, np.datetime64):
        return arr.astype("datetime64[s]").astype(np.int64)
    return arr


def range_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    lo: str,
    hi: str,
    by: str | None = None,
    num_buckets: int = 32,
    bin_width: float | None = None,
    right_suffix: str = "_r",
) -> rd.Dataset:
    """Range (interval) join — the reference lacks it and so does Ray Data:
    inner-join each left "point" row to every right "interval" row with
    ``r.lo <= l.on <= r.hi`` (SQL BETWEEN). Two shuffle-once routings:

    - ``by=``: all rows of one key hash to ONE bucket (same partitioning
      assumption as ``asof_join``); per-bucket pandas merge on the key then
      the range mask. Right for per-entity windows (events within N minutes
      of that user's purchase). A pathologically hot key can be salted with
      the replicate-build pattern from ``bucket_hash_join`` — intervals are
      the build side.
    - ``bin_width=`` (no key): the ``on`` domain is cut into fixed bins
      (timestamps bin by SECONDS, unit-safe); points route to their bin,
      intervals REPLICATE into every bin they overlap, so each matching
      pair meets in exactly the point's bin — no post-dedup. Replication
      factor is interval_width/bin_width: pick bin_width ≈ the typical
      interval width. Per-bin resolve is a masked cross-merge, so bins must
      be small — at scale this is the partition-pruned routing that avoids
      an all-pairs comparison entirely.

    Output columns: left's, then right's (minus ``by``), right-side
    collisions renamed with ``right_suffix``.
    """
    if (by is None) == (bin_width is None):
        raise ValueError("exactly one of by= or bin_width= is required")

    l_schema, r_schema = _dataset_arrow_schema(left), _dataset_arrow_schema(right)
    l_cols = list(l_schema.names)
    r_cols = list(r_schema.names)
    r_renamed = [c if c == by else (c + right_suffix if c in l_cols else c)
                 for c in r_cols]
    lo_c = r_renamed[r_cols.index(lo)]
    hi_c = r_renamed[r_cols.index(hi)]
    combined = pa.schema(
        [pa.field(n, t) for n, t in zip(l_schema.names, l_schema.types)]
        + [pa.field(n, t) for n, t in zip(r_renamed, r_schema.types) if n != by]
    )
    out_r_cols = [c for c in r_renamed if c != by]

    def tag(side: int, names: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            t = t.rename_columns(names)
            for f in combined:
                if f.name not in t.column_names:
                    t = t.append_column(f.name, pa.nulls(len(t), f.type))
            t = t.select(combined.names)
            if by is not None:
                b = hash_partition(t[by], num_buckets).astype(np.int64)
            elif side == 0:
                v = _domain_i64(t[on].to_numpy(zero_copy_only=False))
                b = np.floor_divide(v, bin_width).astype(np.int64)
            else:
                lov = _domain_i64(t[lo_c].to_numpy(zero_copy_only=False))
                hiv = _domain_i64(t[hi_c].to_numpy(zero_copy_only=False))
                lob = np.floor_divide(lov, bin_width).astype(np.int64)
                hib = np.floor_divide(hiv, bin_width).astype(np.int64)
                # replicate into every overlapped bin; a malformed interval
                # (hi < lo) clips to 0 copies = matches nothing, the same
                # result SQL BETWEEN gives (by-key mode reaches it via the
                # range mask) — instead of np.repeat blowing up on a
                # negative count deep inside a Ray task
                counts = np.maximum(hib - lob + 1, 0)
                idx = np.repeat(np.arange(len(t)), counts)
                offs = np.arange(len(idx)) - np.repeat(
                    np.cumsum(counts) - counts, counts)
                b = np.repeat(lob, counts) + offs
                t = t.take(pa.array(idx))
            t = t.append_column("_b", pa.array(b))
            return t.append_column(
                "_side", pa.array(np.full(len(t), side, dtype=np.int8)))

        return fn

    both = left.map_batches(tag(0, l_cols), batch_format="pyarrow",
                            zero_copy_batch=True).union(
        right.map_batches(tag(1, r_renamed), batch_format="pyarrow",
                          zero_copy_batch=True)
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["_side"] == 0][l_cols]
        r = g[g["_side"] == 1][([by] if by else []) + out_r_cols]
        if len(l) == 0 or len(r) == 0:
            return pd.DataFrame({c: pd.Series(dtype=g[c].dtype)
                                 for c in combined.names})
        m = l.merge(r, on=by) if by is not None else l.merge(r, how="cross")
        return m[(m[on] >= m[lo_c]) & (m[on] <= m[hi_c])][combined.names]

    return both.groupby("_b").map_groups(merge, batch_format="pandas")


def bucket_hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    num_buckets: int = 32,
    how: Literal["inner", "left", "outer"] = "inner",
    suffixes=("", "_r"),
    hot_keys=None,
    salt: int = 8,
) -> rd.Dataset:
    """Partitioned hash join: tag side + bucket, one groupby shuffle, then a
    group-local pandas merge. ``num_buckets`` should be several × total
    cores at scale; the bucket key reuses the engine's stable siphash so
    reruns and both sides route identically.

    ``hot_keys``: join-key values with pathological probe-side frequency.
    Each hot key gets its own ``salt`` sub-buckets ABOVE the normal range:
    probe (left) rows spread across them deterministically by row position,
    build (right) rows are replicated into every sub-bucket — the classic
    salted skew join; one hot key now costs salt parallel tasks instead of
    one straggler. Replication is only sound when every replica either
    matches or vanishes, so ``hot_keys`` requires ``how='inner'`` — under
    left/outer an unmatched replicated build row would be emitted once per
    sub-bucket.

    Overlapping non-join column names are disambiguated with ``suffixes``
    (pandas semantics: (left, right), default keeps left names and adds
    ``_r`` on the right)."""
    hot = sorted(set(hot_keys)) if hot_keys else []
    if hot and how != "inner":
        raise ValueError("hot_keys salting requires how='inner' "
                         "(replicated build rows would duplicate under "
                         f"how={how!r})")
    hot_rank = {k: i for i, k in enumerate(hot)}

    def _arrow_schema(ds: rd.Dataset) -> pa.Schema:
        s = ds.schema()
        base = getattr(s, "base_schema", None)
        if isinstance(base, pa.Schema):
            return base
        # pandas-block datasets: infer from a one-row arrow sample
        tbl = ray.get(ds.limit(1).to_arrow_refs()[0])
        return tbl.schema

    l_schema, r_schema = _arrow_schema(left), _arrow_schema(right)
    overlap = (set(l_schema.names) & set(r_schema.names)) - {on}
    l_ren = {c: c + suffixes[0] for c in overlap}
    r_ren = {c: c + suffixes[1] for c in overlap}
    if overlap and suffixes[0] == suffixes[1]:
        raise ValueError(f"suffixes {suffixes} cannot disambiguate overlap {overlap}")
    l_cols = [l_ren.get(c, c) for c in l_schema.names]
    r_cols = [r_ren.get(c, c) for c in r_schema.names]
    combined = pa.schema(
        [pa.field(n, t) for n, t in zip(l_cols, l_schema.types)]
        + [pa.field(n, t) for n, t in zip(r_cols, r_schema.types) if n != on]
    )
    renames = (l_ren, r_ren)

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            ren = renames[side]
            if ren:
                t = t.rename_columns([ren.get(c, c) for c in t.column_names])
            for f in combined:  # align to the union schema (other side -> nulls)
                if f.name not in t.column_names:
                    t = t.append_column(f.name, pa.nulls(len(t), f.type))
            t = t.select(combined.names)
            b = hash_partition(t[on], num_buckets).astype(np.int64)
            if hot:
                keys = t[on].to_numpy(zero_copy_only=False)
                is_hot = np.isin(keys, hot)
                if is_hot.any():
                    rank = np.array([hot_rank.get(k, 0) for k in keys[is_hot]],
                                    dtype=np.int64)
                    if side == 0:  # probe: spread deterministically
                        sub = np.flatnonzero(is_hot) % salt
                        b[is_hot] = num_buckets + rank * salt + sub
                    else:  # build: replicate into every sub-bucket
                        cold = t.filter(pa.array(~is_hot))
                        b_cold = b[~is_hot]
                        hot_t = t.filter(pa.array(is_hot))
                        reps, rep_b = [], []
                        for s in range(salt):
                            reps.append(hot_t)
                            rep_b.append(num_buckets + rank * salt + s)
                        t = pa.concat_tables([cold, *reps])
                        b = np.concatenate([b_cold, *rep_b])
            t = t.append_column("_b", pa.array(b))
            return t.append_column("_side", pa.array(np.full(len(t), side, dtype=np.int8)))

        return fn

    both = left.map_batches(tag(0), batch_format="pyarrow", zero_copy_batch=True).union(
        right.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True)
    )

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["_side"] == 0][l_cols]
        r = g[g["_side"] == 1][[c for c in r_cols]]
        empty = pd.DataFrame({c: pd.Series(dtype=g[c].dtype) for c in combined.names})
        if how == "outer":
            if len(l) == 0 and len(r) == 0:
                return empty
        elif len(l) == 0 or (how == "inner" and len(r) == 0):
            return empty
        # suffixes were applied up front (pre-shuffle rename), so the merge
        # sees disjoint non-join columns
        return l.merge(r, on=on, how=how)

    return both.groupby("_b").map_groups(join_bucket, batch_format="pandas")


def object_exchange_hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    num_buckets: int = 32,
    how: Literal["inner", "left", "outer"] = "inner",
    suffixes=("", "_r"),
) -> rd.Dataset:
    """Partitioned hash join over a DIRECT object-store exchange: each
    input block is split into per-bucket slices in one task
    (``num_returns=num_buckets`` → every slice is its own object), each
    bucket's merge task fetches exactly its slices, and the result wraps
    back into a Dataset via ``from_arrow_refs``. Moves the same bytes as
    the groupby strategy but skips the Dataset sort-shuffle's control
    plane and the null-padded union schema — measured 4.2 s → ~2 s on the
    sf0.1 lineitem⋈orders join at 32 cpus. The exchange is one-shot (no
    iterated plan), so it also sidesteps the documented streaming-executor
    deadlock class. For pathological key skew use ``bucket_hash_join``
    with ``hot_keys=`` (salting needs the tag-stage machinery)."""
    B = num_buckets

    l_schema, r_schema = _dataset_arrow_schema(left), _dataset_arrow_schema(right)
    overlap = (set(l_schema.names) & set(r_schema.names)) - {on}
    if overlap and suffixes[0] == suffixes[1]:
        raise ValueError(f"suffixes {suffixes} cannot disambiguate overlap {overlap}")
    l_ren = {c: c + suffixes[0] for c in overlap}
    r_ren = {c: c + suffixes[1] for c in overlap}
    l_cols = [l_ren.get(c, c) for c in l_schema.names]
    r_cols = [r_ren.get(c, c) for c in r_schema.names]
    out_fields = (
        [pa.field(n, t) for n, t in zip(l_cols, l_schema.types)]
        + [pa.field(n, t) for n, t in zip(r_cols, r_schema.types) if n != on]
    )
    out_schema = pa.schema(out_fields)

    @ray.remote
    def route(t: pa.Table, ren: dict, side: int):
        if t.num_columns == 0:  # empty pandas batches arrive 0-column
            t = (l_schema if side == 0 else r_schema).empty_table()
        if ren:
            t = t.rename_columns([ren.get(c, c) for c in t.column_names])
        sh = hash_partition(t[on], B)
        order = np.argsort(sh, kind="stable")
        t = t.take(pa.array(order))
        bounds = np.searchsorted(sh[order], np.arange(B + 1))
        out = tuple(t.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i]))
                    for i in range(B))
        return out if B > 1 else out[0]

    @ray.remote
    def merge_bucket(l_refs, r_refs) -> pa.Table:
        l_parts = [p for p in ray.get(list(l_refs)) if p.num_rows]
        r_parts = [p for p in ray.get(list(r_refs)) if p.num_rows]
        empty = out_schema.empty_table()
        if how == "outer":
            if not l_parts and not r_parts:
                return empty
        elif not l_parts or (how == "inner" and not r_parts):
            return empty
        mk = lambda parts, schema: (pa.concat_tables(parts).to_pandas()
                                    if parts else schema.empty_table().to_pandas())
        l_schema_r = pa.schema([pa.field(n, t) for n, t in
                                zip(l_cols, l_schema.types)])
        r_schema_r = pa.schema([pa.field(n, t) for n, t in
                                zip(r_cols, r_schema.types)])
        m = mk(l_parts, l_schema_r).merge(mk(r_parts, r_schema_r), on=on, how=how)
        if len(m) == 0:
            return empty
        # pin every bucket to out_schema: under left/outer, pandas promotes
        # int columns with unmatched rows to float64(NaN) — without the
        # explicit schema the Dataset's blocks would carry int64 or float64
        # per bucket depending on which keys missed (from_pandas maps the
        # NaNs back to nulls)
        return pa.Table.from_pandas(m[out_schema.names], schema=out_schema,
                                    preserve_index=False)

    l_sliced = [route.options(num_returns=B if B > 1 else 1).remote(r, l_ren, 0)
                for r in left.to_arrow_refs()]
    r_sliced = [route.options(num_returns=B if B > 1 else 1).remote(r, r_ren, 1)
                for r in right.to_arrow_refs()]
    if B == 1:
        l_sliced = [[r] for r in l_sliced]
        r_sliced = [[r] for r in r_sliced]
    out_refs = [
        merge_bucket.remote([blk[s] for blk in l_sliced],
                            [blk[s] for blk in r_sliced])
        for s in range(B)
    ]
    return rd.from_arrow_refs(out_refs)


def object_exchange_range_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    lo: str,
    hi: str,
    by: str | None = None,
    num_buckets: int = 32,
    bin_width: float | None = None,
    right_suffix: str = "_r",
) -> rd.Dataset:
    """``range_join`` semantics over the direct object-store exchange
    (same routing rules — ``by=`` hashes a shared key, ``bin_width=``
    replicates intervals into every overlapped bin so each matching pair
    meets exactly once in the point's bin — but per-bucket slices are
    first-class objects and one merge task per bucket joins them, skipping
    the Dataset sort-shuffle's fixed cost and the null-padded union schema
    the groupby strategy pays). Inner join, like ``range_join``."""
    if (by is None) == (bin_width is None):
        raise ValueError("exactly one of by= or bin_width= is required")
    B = num_buckets

    l_schema, r_schema = _dataset_arrow_schema(left), _dataset_arrow_schema(right)
    l_cols = list(l_schema.names)
    r_cols = list(r_schema.names)
    r_renamed = [c if c == by else (c + right_suffix if c in l_cols else c)
                 for c in r_cols]
    lo_c = r_renamed[r_cols.index(lo)]
    hi_c = r_renamed[r_cols.index(hi)]
    out_r_cols = [c for c in r_renamed if c != by]
    out_names = l_cols + out_r_cols
    key = by if by is not None else "_b"

    def _slices(t: pa.Table, bucket: np.ndarray):
        order = np.argsort(bucket, kind="stable")
        t = t.take(pa.array(order))
        bounds = np.searchsorted(bucket[order], np.arange(B + 1))
        out = tuple(t.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i]))
                    for i in range(B))
        return out if B > 1 else out[0]

    @ray.remote
    def route_points(t: pa.Table):
        if t.num_columns == 0:  # empty pandas batches arrive 0-column
            t = l_schema.empty_table()
        if by is not None:
            bucket = hash_partition(t[by], B).astype(np.int64)
        else:
            v = _domain_i64(t[on].to_numpy(zero_copy_only=False))
            bins = np.floor_divide(v, bin_width).astype(np.int64)
            t = t.append_column("_b", pa.array(bins))
            bucket = bins % B
        return _slices(t, bucket)

    @ray.remote
    def route_intervals(t: pa.Table):
        if t.num_columns == 0:  # empty pandas batches arrive 0-column
            t = r_schema.empty_table()
        t = t.rename_columns(r_renamed)
        if by is not None:
            bucket = hash_partition(t[by], B).astype(np.int64)
        else:
            lov = _domain_i64(t[lo_c].to_numpy(zero_copy_only=False))
            hiv = _domain_i64(t[hi_c].to_numpy(zero_copy_only=False))
            lob = np.floor_divide(lov, bin_width).astype(np.int64)
            hib = np.floor_divide(hiv, bin_width).astype(np.int64)
            counts = np.maximum(hib - lob + 1, 0)  # hi<lo ⇒ matches nothing
            idx = np.repeat(np.arange(len(t)), counts)
            offs = np.arange(len(idx)) - np.repeat(
                np.cumsum(counts) - counts, counts)
            bins = np.repeat(lob, counts) + offs
            t = t.take(pa.array(idx)).append_column("_b", pa.array(bins))
            bucket = bins % B
        return _slices(t, bucket)

    @ray.remote
    def merge_bucket(l_refs, r_refs) -> pa.Table:
        l_parts = [p for p in ray.get(list(l_refs)) if p.num_rows]
        r_parts = [p for p in ray.get(list(r_refs)) if p.num_rows]
        l_fields = [pa.field(n, t) for n, t in zip(l_cols, l_schema.types)]
        r_fields = [pa.field(n, t) for n, t in
                    zip(r_renamed, r_schema.types)]
        if by is None:
            l_fields.append(pa.field("_b", pa.int64()))
            r_fields.append(pa.field("_b", pa.int64()))
        out_schema = pa.schema(
            [f for f in l_fields if f.name != "_b"]
            + [f for f in r_fields if f.name not in (by, "_b")])
        if not l_parts or not r_parts:
            return out_schema.empty_table()
        l = pa.concat_tables(l_parts).to_pandas()
        r = pa.concat_tables(r_parts).to_pandas()
        m = l.merge(r[[key] + out_r_cols], on=key)
        m = m[(m[on] >= m[lo_c]) & (m[on] <= m[hi_c])][out_names]
        if len(m) == 0:
            return out_schema.empty_table()
        return pa.Table.from_pandas(m, preserve_index=False).cast(out_schema)

    nret = {"num_returns": B} if B > 1 else {}
    l_sliced = [route_points.options(**nret).remote(r)
                for r in left.to_arrow_refs()]
    r_sliced = [route_intervals.options(**nret).remote(r)
                for r in right.to_arrow_refs()]
    if B == 1:
        l_sliced = [[r] for r in l_sliced]
        r_sliced = [[r] for r in r_sliced]
    out_refs = [
        merge_bucket.remote([blk[s] for blk in l_sliced],
                            [blk[s] for blk in r_sliced])
        for s in range(B)
    ]
    return rd.from_arrow_refs(out_refs)
