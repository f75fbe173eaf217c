"""Ray-Data-native CDC / incremental-ingest engine.

WAL tail → merge-on-read upsert into a hash-partitioned Parquet lake,
exactly-once, resumable. This is the re-imagination of the reference's
tar→TFRecord pipeline (`/root/reference/tfdata/pipeline/pipeline.go:104-123`)
as a change-event stream: the tar's group-members-by-basename upsert map
(`/root/reference/tfdata/archive/manager.go:57-63`) becomes per-``doc_id``
last-write-wins over ``seq``; its "emit when record complete" micro-batch
boundary (`/root/reference/tfdata/archive/seekreader.go:125-133`) becomes the
epoch barrier; its single-writer async funnel
(`/root/reference/tfdata/core/tfrecord.go:128-180`) becomes one delta writer
per partition per epoch behind an atomic manifest commit.

Dataflow per epoch (no shuffle, no Ray Data plan): one plain Ray task per
WAL shard file (``_apply_task``)

    pq.read_table(shard) → normalize_events   # schema evolution + part_id
            # hash + watermark replay-dedup + per-shard collapse
      → ONE sorted-run file, one row group per partition → intent rows
    driver: ray.get(intent rows) → manifest commit     # 2-phase, fenced

Skew is handled where the events arrive, not by salting: each apply task
collapses its shard to one row per key before writing, so a hot key costs
at most one row per (key, shard) however many events hit it, and no
exchange ever gathers a whole partition in one task. On three skew shapes
this path applied 236k-488k ev/s where the retired salted groupby path
applied 49k-71k (4 vCPUs; SURVEY §4 has the table).

Apply is a pure append (LSM): no base files are read, so epoch latency is
O(epoch size) regardless of lake size. ``scan()`` does merge-on-read with
ZERO shuffle: the lake is hash-partitioned (run files are row-group-addressed
per partition), so a read task merges each of its partitions' (base +
delta) fragments locally. Each task takes a group of ceil(P / cluster CPUs)
partitions and reads each run file once for all of them: one open, one
batched row-group read, a zero-copy slice per partition; the merge stays
per partition. ``compact()`` and ``reshard()`` fold deltas into a new base
per partition, also shuffle-free, and read run files the same way. A
read or fold task's memory is O(row group + the task's deltas).

Scale notes (100 TB / 256 nodes): ``num_partitions`` should be several × the
cluster's total cores (e.g. 4096); per-epoch state never exceeds one epoch's
collapsed events. Every data file is written tmp→rename and only the
manifest commit publishes it, so a retried task leaves at most an
unreferenced orphan.
"""

from __future__ import annotations

import functools
import os
import threading
import uuid
from collections import OrderedDict
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..sources.wal import LAKE_COLUMNS, WAL_SCHEMA, segments_with_barrier
from ..stages.schema import SchemaPolicy
from ..state import manifest as mf
from .collapse import collapse_latest, hash_partition, merge_on_read

# Columns the engine itself needs beyond the user schema.
_INTERNAL = ("seq", "op", "part_id")

DEFAULT_TARGET = pa.schema(
    [
        ("seq", pa.int64()),
        ("op", pa.string()),
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
    ]
)


def normalize_events(
    t: pa.Table,
    policy: SchemaPolicy,
    num_partitions: int,
    wm: np.ndarray,
) -> pa.Table:
    """Stateless normalize + route + dedup + combine kernel (plain task —
    nothing to amortize, so tasks beat an actor pool's spin-up latency):
    schema evolution, part_id hash, watermark replay-dedup (idempotent
    re-delivery, north rule), then a partial per-batch collapse — the
    combiner that bounds hot-key volume at ≤1 row per (key, batch).
    The result is sorted by (part_id, doc_id, seq): the collapse's single
    take() (the one copy of the token payload) also leaves the table
    grouped by partition for the run file's row-group-per-partition write.

    WAL contract: ``seq`` is monotone per PARTITION across segments. The
    replay filter keeps only events above their partition's committed max
    seq (``wm``), so a late event, at or below it, is dropped as a replay
    whatever its key, even a key the lake has never held. Nothing counts
    those drops yet."""
    t = policy.normalize(t)
    if len(t) == 0:
        return t.append_column("part_id", pa.array([], type=pa.int32()))
    part = hash_partition(t["doc_id"], num_partitions)
    t = t.append_column("part_id", pa.array(part))
    seq = t["seq"].to_numpy(zero_copy_only=False)
    keep = seq > wm[part]
    if not keep.all():
        t = t.filter(pa.array(keep))
    sort_keys = [(c, "ascending") for c in ("part_id", "doc_id", "seq")]
    # sort only the key columns; the token payload is taken ONCE, winners only
    small = t.select(["part_id", "doc_id", "seq"])
    idx = pc.sort_indices(small, sort_keys=sort_keys).to_numpy()
    if len(idx):
        keys = small["doc_id"].to_numpy(zero_copy_only=False)[idx]
        last = np.empty(len(keys), dtype=bool)
        last[:-1] = keys[1:] != keys[:-1]
        last[-1] = True
        t = t.take(pa.array(idx[last]))
    return t


def _wm_vector(num_partitions: int, watermarks: dict[int, int]) -> np.ndarray:
    wm = np.full(num_partitions, -1, dtype=np.int64)
    for p, w in watermarks.items():
        wm[p] = w
    return wm


# Key filters: one Bloom filter of each run-file row group's doc_ids,
# stored in the intent segment so ``lookup`` skips fragments unopened.
# Their hash has its own siphash key: under ``hash_partition``'s, every key
# of a partition shares its hash mod P, so at P = 32 a first probe could
# reach only 1/32 of a filter's bits.
_FILTER_HASH_KEY = "cdc-keyfilter-01"
_FILTER_K = 6


def _key_hashes(doc_ids) -> np.ndarray:
    """Each key's filter hash (uint64): its two 32-bit halves are the
    double-hashing pair of ``_filter_probes``."""
    return pd.util.hash_array(np.asarray(doc_ids, dtype=object),
                              categorize=False, hash_key=_FILTER_HASH_KEY)


def _filter_probes(h: np.ndarray, mask) -> np.ndarray:
    """(k, len(h)) bit positions h1 + i·h2 (mod mask + 1, a power of two);
    h2 is odd, so the k probes of a key are distinct."""
    h1 = h & np.uint64(0xFFFFFFFF)
    h2 = (h >> np.uint64(32)) | np.uint64(1)
    i = np.arange(_FILTER_K, dtype=np.uint64)[:, None]
    return (h1 + i * h2) & mask


def _key_filters(doc_ids, bounds: np.ndarray) -> list[bytes]:
    """One Bloom filter per row group [bounds[g], bounds[g+1]) of
    ``doc_ids``, built in one vectorized pass for the whole run file. A
    group of n keys gets the next power of two >= 8n bits (at least 64),
    so 1-2 bytes per key and, with k = 6, a false-positive rate of at most
    ~2 %."""
    h = _key_hashes(doc_ids)
    n = np.diff(bounds)
    n_bits = np.left_shift(1, np.ceil(np.log2(np.maximum(8 * n, 64))).astype(np.int64))
    off = np.r_[0, np.cumsum(n_bits)[:-1]]
    pos = (np.repeat(off, n).astype(np.uint64)
           + _filter_probes(h, np.repeat(n_bits - 1, n).astype(np.uint64))).ravel()
    bits = np.zeros(int(n_bits.sum()), dtype=bool)
    bits[pos] = True
    packed = np.packbits(bits, bitorder="little")
    return [packed[o // 8:(o + b) // 8].tobytes() for o, b in zip(off, n_bits)]


def _filter_hits(bloom: bytes | None, h: np.ndarray) -> np.ndarray:
    """Per key of hashes ``h``: whether a fragment with filter ``bloom``
    may hold it (no false negatives). No filter (a base, a whole-file
    delta, a segment written before filters existed) means it may."""
    if bloom is None:
        return np.ones(len(h), dtype=bool)
    bits = np.frombuffer(bloom, dtype=np.uint8)
    pos = _filter_probes(h, np.uint64(len(bits) * 8 - 1))
    hit = (bits[pos >> np.uint64(3)] >> (pos & np.uint64(7)).astype(np.uint8)) & 1
    return hit.all(axis=0)


def _intent_table(rows: list[tuple[int, str, int, int, int, int, bytes]]) -> pa.Table:
    return pa.table(
        {
            "part_id": pa.array([r[0] for r in rows], pa.int32()),
            "path": pa.array([r[1] for r in rows], pa.string()),
            "rows": pa.array([r[2] for r in rows], pa.int64()),
            "max_seq": pa.array([r[3] for r in rows], pa.int64()),
            "upserts": pa.array([r[4] for r in rows], pa.int64()),
            "rg": pa.array([r[5] for r in rows], pa.int32()),
            "bloom": pa.array([r[6] for r in rows], pa.binary()),
        }
    )


def normalize_and_write_fragments(
    t: pa.Table,
    policy: SchemaPolicy,
    num_partitions: int,
    wm: np.ndarray,
    lake_dir: str,
    epoch: int,
) -> pa.Table:
    """The (shuffle-free) apply kernel: each apply task normalizes its WAL
    shard and writes ONE sorted-run file whose ROW GROUPS align with partition
    boundaries — the LSM "sorted run per writer" pattern, row-group-addressed
    so one physical file serves many partitions (files/epoch = #tasks, not
    #tasks × #partitions, which would melt the filesystem/object store at
    scale). No all-to-all exchange: token payloads never cross tasks;
    merge-on-read collapses fragments by (rank=epoch, seq) per partition,
    reading only that partition's row groups.

    Returns one intent row per row group: (part_id, path, rows, max_seq,
    upserts, rg, bloom), where ``bloom`` is the row group's doc_id filter
    (``_key_filters``) that ``lookup`` tests keys against.
    """
    t = normalize_events(t, policy, num_partitions, wm)
    if len(t) == 0:
        return _intent_table([])
    parts = t["part_id"].to_numpy(zero_copy_only=False)
    bounds = np.flatnonzero(np.r_[True, parts[1:] != parts[:-1], True])
    blooms = _key_filters(t["doc_id"].to_numpy(zero_copy_only=False), bounds)
    rel = f"run-{epoch:06d}-{uuid.uuid4().hex[:12]}.parquet"
    final = os.path.join(lake_dir, rel)
    tmp = final + ".tmp"
    rows = []
    # plain encoding + lz4: token lists are near-random int32 — dictionary
    # encoding costs ~40% extra CPU for no ratio (measured); lz4 wins both
    writer = pq.ParquetWriter(tmp, t.schema, use_dictionary=False, compression="lz4")
    try:
        for rg, i in enumerate(range(len(bounds) - 1)):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            part = int(parts[lo])
            g = t.slice(lo, hi - lo)
            writer.write_table(g, row_group_size=len(g))  # one row group per partition
            n_up = int(pc.sum(pc.not_equal(g["op"], pa.scalar("D")).cast(pa.int64())).as_py())
            # watermark = the partition's TRUE max seq (the slice is sorted by
            # (part_id, doc_id, seq), so the last row holds the largest
            # doc_id's seq, not the partition max — using it undershot the
            # replay filter and let re-offered segments re-apply rows)
            rows.append((part, rel, len(g), int(pc.max(g["seq"]).as_py()), n_up, rg,
                         blooms[rg]))
    finally:
        writer.close()
    os.rename(tmp, final)
    return _intent_table(rows)


def _apply_shard(path: str, policy: SchemaPolicy, num_partitions: int,
                 wm: np.ndarray, lake_dir: str, epoch: int) -> pa.Table:
    """One WAL shard's share of an ``apply_epoch``: the whole
    shard in one task, so it writes exactly one run file."""
    return normalize_and_write_fragments(pq.read_table(path), policy,
                                         num_partitions, wm, lake_dir, epoch)


_apply_task = ray.remote(_apply_shard)


def _synth_rows(t: pa.Table, epoch: int, seq, op: str | None) -> pa.Table:
    """WAL-schema rows of a synthesized epoch (upsert, delete, dedup,
    replica sync) from ``t``'s ``doc_id`` and optional ``tokens``,
    ``n_tok``, ``source``: absent tokens/source read as empty, an absent
    ``n_tok`` is the token count, and ``op=None`` keeps ``t``'s own
    ``op`` column."""
    n = len(t)
    names = t.column_names
    toks = (t["tokens"].combine_chunks().cast(pa.list_(pa.int32()))
            if "tokens" in names else pa.array([[]] * n, pa.list_(pa.int32())))
    return pa.table({
        "seq": pa.array(seq, pa.int64()),
        "epoch": pa.array(np.full(n, epoch, dtype=np.int32)),
        "op": (pc.cast(t["op"], pa.string()) if op is None
               else pa.array([op] * n, pa.string())),
        "doc_id": pc.cast(t["doc_id"], pa.string()),
        "tokens": toks,
        "n_tok": pc.cast(t["n_tok"] if "n_tok" in names
                         else pc.list_value_length(toks), pa.int32()),
        "source": (pc.cast(t["source"], pa.string()) if "source" in names
                   else pa.array([""] * n, pa.string())),
    })


def _write_synth_block(lake_dir: str, policy: SchemaPolicy, num_partitions: int,
                       wm: np.ndarray, epoch: int, base: int, op: str | None,
                       t: pa.Table) -> pa.Table:
    """One Dataset block's share of a synthesized epoch: its rows go
    straight into one run file (``normalize_and_write_fragments``, as in
    WAL apply) and only intent rows come back. Seqs are ``base`` plus a
    per-doc hash offset, so doc_ids must be unique per call (cross-doc
    ties are harmless: the merge orders (epoch, seq) within a doc). Each
    intent row carries the block's content ``key`` (sha1 of its sorted
    (doc_id, op, token hash)), so the driver commits byte-identical
    blocks once. A retried task, like a retried apply task, leaves an
    unreferenced run file that ``vacuum`` removes."""
    import hashlib

    import pandas as pd

    from ..functions.dedup import hash_list_column

    if len(t) == 0:  # keep block schemas homogeneous
        return _intent_table([]).append_column("key", pa.array([], pa.string()))
    ids = np.asarray(pc.cast(t["doc_id"], pa.string()).to_numpy(zero_copy_only=False),
                     dtype=object)
    off = (pd.util.hash_array(ids, categorize=False)
           % np.uint64(1 << 31)).astype(np.int64)
    rows = _synth_rows(t, epoch, base + off, op)
    key = hashlib.sha1("\x00".join(sorted(
        f"{i}\x01{o}\x01{h}" for i, o, h in zip(
            ids, rows["op"].to_pylist(), hash_list_column(rows["tokens"])))
    ).encode()).hexdigest()
    out = normalize_and_write_fragments(rows, policy, num_partitions, wm,
                                        lake_dir, epoch)
    return out.append_column("key", pa.array([key] * len(out), pa.string()))


def _prune_row_groups(f: pq.ParquetFile, keys_sorted: list) -> list[int] | None:
    """Row groups whose doc_id [min, max] stats can contain any of the
    sorted keys — the point-lookup fast path over CLUSTERED bases (compact
    sorts by doc_id with bounded row groups). Returns None when pruning
    isn't possible (single group / no stats) — read everything."""
    import bisect

    md = f.metadata
    if md.num_row_groups <= 1:
        return None
    rg0 = md.row_group(0)
    ci = next((j for j in range(rg0.num_columns)
               if rg0.column(j).path_in_schema == "doc_id"), None)
    if ci is None:
        return None
    keep: list[int] = []
    for i in range(md.num_row_groups):
        st = md.row_group(i).column(ci).statistics
        if st is None or not st.has_min_max:
            return None
        k = bisect.bisect_left(keys_sorted, st.min)
        if k < len(keys_sorted) and keys_sorted[k] <= st.max:
            keep.append(i)
    return keep


def _prune_row_groups_where(f: pq.ParquetFile, where: list[tuple]) -> list[int] | None:
    """Row groups whose column [min, max] stats can satisfy a conjunctive
    ``where`` — the value-predicate analog of ``_prune_row_groups``, valid
    only on a fragment whose rows can never MASK newer versions (the
    oldest fragment of a partition plan). A row group is skippable when
    no non-null value in it can pass some conjunct (null rows fail every
    conjunct anyway, so nulls never rescue a group). Returns None when
    pruning isn't possible (single group / no stats / unsupported op)."""
    md = f.metadata
    if md.num_row_groups <= 1:
        return None
    rg0 = md.row_group(0)
    ci = {rg0.column(j).path_in_schema: j for j in range(rg0.num_columns)}
    keep: list[int] = []
    for i in range(md.num_row_groups):
        ok = True
        for col, op, val in where:
            j = ci.get(col)
            if j is None:
                continue  # evolution-absent column: stay conservative, read
            st = md.row_group(i).column(j).statistics
            if st is None or not st.has_min_max:
                continue
            try:
                if op == "==":
                    ok = st.min <= val <= st.max
                elif op == "!=":
                    ok = not (st.min == st.max == val)
                elif op == ">":
                    ok = st.max > val
                elif op == ">=":
                    ok = st.max >= val
                elif op == "<":
                    ok = st.min < val
                elif op == "<=":
                    ok = st.min <= val
                elif op == "in":
                    ok = any(st.min <= v <= st.max for v in val)
            except TypeError:  # stats/value type mismatch: read it
                ok = True
            if not ok:
                break
        if ok:
            keep.append(i)
    return keep


class _FooterCache:
    """Parsed Parquet footers of the lake files this process opened, kept
    across readers, tasks and lakes: one cache per process (the driver and
    each Ray worker), so a worker's second lookup or scan of a run file
    skips its footer parse.

    The key is the path plus ``os.stat``'s size, mtime_ns and inode, never
    the path alone: a committed data file is never rewritten, but a lake
    dir deleted and rebuilt at the same path repeats base names
    (``part=K/base-{epoch}-v{version}.parquet``), and Ray workers outlive
    the lake. Least recently used footers go once the cached footers'
    serialized size passes ``max_bytes``. A parsed footer takes about ten
    times its serialized size in memory (205 KB for the 20 KB footer of a
    32-row-group run file, measured), so 1 MiB serialized holds about 50
    such footers in ~10 MB per process: the run files of a lake like the
    benchmark's, not every lake a long-lived worker ever read."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._md: OrderedDict[tuple, pq.FileMetaData] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def open(self, path: str) -> pq.ParquetFile:
        st = os.stat(path)
        key = (path, st.st_size, st.st_mtime_ns, st.st_ino)
        with self._lock:
            md = self._md.get(key)
            if md is not None:
                self._md.move_to_end(key)
        f = pq.ParquetFile(path, metadata=md)
        if md is None:
            with self._lock:
                if key not in self._md:
                    self._md[key] = f.metadata
                    self._bytes += f.metadata.serialized_size
                while self._bytes > self.max_bytes and len(self._md) > 1:
                    self._bytes -= self._md.popitem(last=False)[1].serialized_size
        return f


_FOOTERS = _FooterCache(1 << 20)


def _open_fragment(path: str) -> pq.ParquetFile:
    """Open a run/base file, its footer parsed at most once per process
    (``_FooterCache``)."""
    return _FOOTERS.open(path)


def _present(columns: list[str] | None, f: pq.ParquetFile) -> list[str] | None:
    """``columns`` pruned to those PRESENT in ``f``: with add-column schema
    evolution, pre-evolution files lack the new column (it reads back as
    null via merge_on_read's permissive concat) — projecting an absent
    name would raise ArrowInvalid. The Arrow schema is built once here,
    not once per column."""
    if columns is None:
        return None
    names = set(f.schema_arrow.names)
    return [c for c in columns if c in names]


def _read_fragment(path: str, rg: int, columns: list[str] | None = None) -> pa.Table:
    """Read a delta/base fragment: a whole file (rg=-1) or one row group of
    a multi-partition run file. ``columns`` prunes at the Parquet reader —
    a scan that doesn't need ``tokens`` never decodes the payload pages."""
    f = _open_fragment(path)
    cols = _present(columns, f)
    if rg < 0:
        return f.read(columns=cols)
    return f.read_row_group(rg, columns=cols)


def _read_runs(lake_dir: str, descs: list[dict[str, Any]],
               columns: list[str] | None = None) -> dict[tuple[str, int], pa.Table]:
    """Every run-file row group (rg >= 0) the partition descriptors
    ``descs`` reference, read with ONE ``read_row_groups`` call per run
    file: {(path, rg): zero-copy slice}. A run file is one epoch's sorted
    run with one row group per partition, so a task serving several
    partitions needs several row groups of each file; one open and one
    batched read per file replace one of each per (partition, file).
    Whole-file fragments (rg = -1: compacted bases) are not read here.
    The slices hold the task's delta rows together, so a task's memory is
    O(row group + the task's deltas)."""
    want: dict[str, set[int]] = {}
    for d in descs:
        for p, g in zip(d["paths"], d["rgs"]):
            if g >= 0:
                want.setdefault(p, set()).add(g)
    out: dict[tuple[str, int], pa.Table] = {}
    for p, gs in want.items():
        f = _open_fragment(os.path.join(lake_dir, p))
        gs = sorted(gs)
        t = f.read_row_groups(gs, columns=_present(columns, f))
        md, off = f.metadata, 0
        for g in gs:
            n = md.row_group(g).num_rows
            out[(p, g)] = t.slice(off, n)
            off += n
    return out


def _conform(t: pa.Table, schema: pa.Schema) -> pa.Table:
    """Pad/reorder ``t`` to ``schema`` (add-column evolution: absent
    columns read back as null) so a streaming writer sees one schema."""
    cols = []
    for f in schema:
        if f.name in t.column_names:
            col = t[f.name]
            cols.append(col.cast(f.type) if col.type != f.type else col)
        else:
            cols.append(pa.nulls(len(t), f.type))
    return pa.table(dict(zip(schema.names, cols)))


def _with_rank(t: pa.Table, rank: int) -> pa.Table:
    return t.append_column("_rank", pa.array(np.full(len(t), rank, dtype=np.int64)))


def _merge_chunk_plan(
    lake_dir: str,
    bases: list[tuple[str, int, int]],
    deltas: list[tuple[str, int, int]],
    runs: dict[tuple[str, int], pa.Table],
):
    """One partition's fold as a bounded-memory streaming merge plan:
    returns ``(target_schema, chunk_iter)`` where ``chunk_iter`` yields
    (conformed_chunk, raw_rows) of collapsed, tombstone-dropped,
    doc_id-sorted rows — the shared core of ``compact()`` and
    ``reshard()``.

    Bases (previous compaction output) are doc_id-sorted with UNIQUE keys
    and bounded row groups; deltas (epoch fragments since that compact)
    are small — the LSM level-0 pile. Instead of concat+sort of the whole
    partition (~25 GB single-task at 100 TB / 4096 partitions), collapse
    the deltas once (O(deltas)), then walk the base ROW GROUP BY ROW GROUP:
    each base chunk merges with its key-range slice of the sorted delta
    (no key spans two base row groups — keys are unique), collapses,
    drops tombstones, and is yielded immediately. The deltas come from
    ``runs``, the task's run-file row groups read once per run file for
    all its partitions (``_read_runs``), so a task's peak memory is
    O(row group + the task's deltas), never O(partition).

    ``bases``/``deltas``: (path, rank, rg) triples; a delta with rg >= 0
    must be in ``runs``. A whole-file fragment (a base, or a delta of a
    lake written by the retired groupby apply) is read on its own."""
    def _frag(p: str, r: int, g: int) -> pa.Table:
        return _with_rank(runs[(p, g)] if g >= 0 else
                          _read_fragment(os.path.join(lake_dir, p), g), r)

    # >1 base never happens (compact replaces the file list with one base);
    # fold extras with the deltas for robustness rather than guessing an order
    base = bases[0] if len(bases) == 1 else None
    loose = deltas if base is not None else bases + deltas
    ranked = [t for t in (_frag(*x) for x in loose) if len(t)]
    delta = None
    if ranked:
        # KEEP tombstones here — they must mask base rows below.
        # collapse_latest emits winners in doc_id order: the base walk's
        # searchsorted needs no extra sort
        delta = collapse_latest(
            pa.concat_tables(ranked, promote_options="permissive"),
            order_cols=("_rank", "seq"))

    # target schema: union of base + delta columns (minus the rank tag)
    pf = None if base is None else pq.ParquetFile(os.path.join(lake_dir, base[0]))
    schemas = []
    if pf is not None:
        schemas.append(pf.schema_arrow)
    if delta is not None:
        schemas.append(delta.schema)
    if not schemas:
        # every fragment was empty: keep the old contract (an empty base
        # with the fragments' schema) so the manifest entry stays readable
        first = (bases + deltas)[0][0]
        schemas.append(pq.ParquetFile(os.path.join(lake_dir, first)).schema_arrow)
    target = pa.unify_schemas(schemas, promote_options="permissive")
    target = pa.schema([f for f in target if f.name != "_rank"])

    def _finish(chunk: pa.Table, raw: int) -> tuple[pa.Table, int]:
        # ``chunk`` is collapsed, so already doc_id-clustered for the
        # row-group write
        if "op" in chunk.column_names:
            chunk = chunk.filter(pc.not_equal(chunk["op"], pa.scalar("D")))
        return _conform(chunk, target), raw

    def chunk_iter():
        if pf is None:
            if delta is not None and len(delta):
                yield _finish(delta, len(delta))
            return
        _, brank, brg = base
        rg_list = (list(range(pf.metadata.num_row_groups))
                   if brg < 0 else [brg])
        dk = (delta["doc_id"].to_numpy(zero_copy_only=False)
              if delta is not None else None)
        pos = 0
        for j, rgi in enumerate(rg_list):
            bt = pf.read_row_group(rgi)
            parts = [_with_rank(bt, brank)]
            if dk is not None:
                if j == len(rg_list) - 1:
                    hi = len(dk)  # the tail: delta keys past the base
                else:
                    last = bt["doc_id"][len(bt) - 1].as_py()
                    hi = int(np.searchsorted(dk, last, side="right"))
                if hi > pos:
                    parts.append(delta.slice(pos, hi - pos))
                    pos = hi
            if len(parts) == 1:  # a base chunk alone is unique and sorted
                yield _finish(parts[0], len(bt))
                continue
            both = pa.concat_tables(parts, promote_options="permissive")
            yield _finish(collapse_latest(both, order_cols=("_rank", "seq")),
                          len(both))

    return target, chunk_iter()


def _streaming_compact_write(
    lake_dir: str,
    bases: list[tuple[str, int, int]],
    deltas: list[tuple[str, int, int]],
    runs: dict[tuple[str, int], pa.Table],
    tmp_path: str,
    row_group_size: int = 32768,
) -> tuple[int, int]:
    """Write one partition's streaming fold (``_merge_chunk_plan``) to a
    single clustered base file. Returns (rows_written, max_chunk_rows) —
    the latter is the memory-bound witness asserted in tests."""
    target, chunks = _merge_chunk_plan(lake_dir, bases, deltas, runs)
    total = 0
    max_chunk = 0
    writer = pq.ParquetWriter(tmp_path, target, use_dictionary=False,
                              compression="lz4")
    try:
        for chunk, raw in chunks:
            max_chunk = max(max_chunk, raw)
            if len(chunk):
                writer.write_table(chunk, row_group_size=row_group_size)
                total += len(chunk)
    finally:
        writer.close()
    return total, max_chunk


def _reshard_split(
    lake_dir: str,
    bases: list[tuple[str, int, int]],
    deltas: list[tuple[str, int, int]],
    runs: dict[tuple[str, int], pa.Table],
    old_part: int,
    new_num: int,
    tmp_rel: str,
    row_group_size: int = 32768,
) -> list[tuple[int, str, int]]:
    """Reshard stage 1 for one OLD partition: stream the
    partition's fold (``_merge_chunk_plan`` — same bounded-memory merge
    as compaction) and split each chunk by the NEW doc_id hash into
    per-new-partition fragment files. A stable grouping sort preserves
    chunk order inside each run, so every output fragment stays
    doc_id-sorted. Buffered rows flush as full row groups; peak memory is
    O(row group × live buffers), and the open-writer fan-out is
    ``gcd``-bounded when the partition counts divide (grow N→kN touches
    exactly k targets per old partition; shrink kN→N exactly one) — the
    scale path is multiplicative resharding.

    Returns (new_part, rel_path, rows) intents. Deterministic names +
    tmp/rename make task retries idempotent."""
    target, chunks = _merge_chunk_plan(lake_dir, bases, deltas, runs)
    pid_type = (target.field("part_id").type
                if "part_id" in target.names else pa.int32())
    state: dict[int, dict[str, Any]] = {}

    def _flush(p: int) -> None:
        st = state[p]
        if not st["buf"]:
            return
        t = pa.concat_tables(st["buf"], promote_options="permissive")
        idx = t.column_names.index("part_id")
        t = t.set_column(idx, "part_id", pa.array(
            np.full(len(t), p, dtype=np.int64)).cast(pid_type))
        if st["writer"] is None:
            st["writer"] = pq.ParquetWriter(
                st["tmp"], target, use_dictionary=False, compression="lz4")
        st["writer"].write_table(t, row_group_size=row_group_size)
        st["rows"] += len(t)
        st["buf"], st["buf_rows"] = [], 0

    for chunk, _raw in chunks:
        if not len(chunk):
            continue
        new_ids = hash_partition(chunk["doc_id"], new_num)
        order = np.argsort(new_ids, kind="stable")
        grouped = chunk.take(pa.array(order))
        sorted_ids = new_ids[order]
        bounds = np.flatnonzero(np.diff(sorted_ids)) + 1
        starts = np.concatenate([[0], bounds])
        stops = np.concatenate([bounds, [len(sorted_ids)]])
        for lo, hi in zip(starts, stops):
            p = int(sorted_ids[lo])
            st = state.get(p)
            if st is None:
                rel = os.path.join(tmp_rel, f"to={p:04d}",
                                   f"from-{old_part:04d}.parquet")
                final = os.path.join(lake_dir, rel)
                os.makedirs(os.path.dirname(final), exist_ok=True)
                st = state[p] = {
                    "writer": None, "rel": rel, "final": final,
                    "tmp": final + f".tmp-{uuid.uuid4().hex}",
                    "rows": 0, "buf": [], "buf_rows": 0,
                }
            st["buf"].append(grouped.slice(int(lo), int(hi - lo)))
            st["buf_rows"] += int(hi - lo)
            if st["buf_rows"] >= row_group_size:
                _flush(p)

    out = []
    for p, st in sorted(state.items()):
        _flush(p)
        if st["writer"] is None:
            continue  # no rows ever flushed for this target
        st["writer"].close()
        os.rename(st["tmp"], st["final"])
        out.append((p, st["rel"], st["rows"]))
    return out


def _kway_disjoint_merge(
    lake_dir: str,
    rel_paths: list[str],
    tmp_path: str,
    row_group_size: int = 32768,
) -> tuple[int, int]:
    """Reshard stage 2 for one NEW partition: k-way merge its
    doc_id-sorted, key-DISJOINT stage-1 fragments into one clustered
    base. Walks row group by row group: each round gathers every
    cursor's rows up to the smallest current chunk-tail key (the cursor
    owning that tail drains, guaranteeing progress), so peak memory is
    O(k × row group) worst case and ~O(row group) for hash-scattered
    keys. Returns (rows_written, max_gather_rows) — the memory witness."""
    pfs = [pq.ParquetFile(os.path.join(lake_dir, r)) for r in rel_paths]
    target = pa.unify_schemas([pf.schema_arrow for pf in pfs],
                              promote_options="permissive")
    cursors = [{"pf": pf, "rg": 0, "chunk": None, "off": 0} for pf in pfs]

    def _load(c) -> bool:
        while c["chunk"] is None or c["off"] >= len(c["chunk"]):
            if c["rg"] >= c["pf"].metadata.num_row_groups:
                c["chunk"] = None
                return False
            c["chunk"] = c["pf"].read_row_group(c["rg"])
            c["off"] = 0
            c["rg"] += 1
        return True

    total = 0
    max_gather = 0
    writer = pq.ParquetWriter(tmp_path, target, use_dictionary=False,
                              compression="lz4")
    try:
        while True:
            act = [c for c in cursors if _load(c)]
            if not act:
                break
            bound = min(c["chunk"]["doc_id"][len(c["chunk"]) - 1].as_py()
                        for c in act)
            gather = []
            for c in act:
                dk = c["chunk"]["doc_id"].to_numpy(zero_copy_only=False)
                hi = int(np.searchsorted(dk[c["off"]:], bound,
                                         side="right")) + c["off"]
                if hi > c["off"]:
                    gather.append(_conform(
                        c["chunk"].slice(c["off"], hi - c["off"]), target))
                    c["off"] = hi
            t = pa.concat_tables(gather, promote_options="permissive")
            t = t.sort_by("doc_id")
            max_gather = max(max_gather, len(t))
            if len(t):
                writer.write_table(t, row_group_size=row_group_size)
                total += len(t)
    finally:
        writer.close()
    return total, max_gather


class PartitionMergeReader:
    """Merge-on-read of one partition per descriptor row: reads that
    partition's base+delta files locally and emits the merged table — no
    shuffle (files are already hash-partitioned by doc_id). ``scan`` runs it
    as a Ray Data stage over batches of several descriptors (one batch per
    task, one output table per batch); ``lookup`` calls ``merge`` inside
    one plain task per partition, over only the fragments its key
    filters cannot rule out.
    A batch reads each run file ONCE: ``__call__`` opens it and reads the
    row groups of all the batch's partitions with one ``read_row_groups``
    call (``_read_runs``), and each partition's merge takes zero-copy
    slices of that table. All row groups of a run file are one epoch, so
    they share its rank. Whole-file fragments (compacted bases) keep their
    own read, with the base's ``where`` pruning below.
    A task so holds its partitions' run-file rows at once: its memory is
    O(row group + the task's deltas).
    Every open goes through the process's footer cache
    (``_FooterCache``), so a worker that reads a file again, in any later
    scan, lookup or fold task, skips its footer parse.
    ``key_filter``: restrict to these doc_ids (point-lookup path). Each
    fragment is PROBED first: its ``doc_id`` column is read alone per
    candidate row group (clustered bases are stats-pruned before the
    probe), and the other projected columns are read only for the row
    groups that hold a requested key — a fragment without one never
    decodes its payload pages. Only the keys' rows reach the merge.
    ``where``: [(col, op, value), ...] conjunctive predicate applied AFTER
    the merge — value predicates must see the CURRENT row version (an old
    version of a key may pass while its newest fails), so they cannot be
    pushed below the merge in general. ONE pushdown is provably safe: the
    plan's unique MIN-RANK fragment (the compacted base, typically the
    bulk of a settled partition). Its rows can only ever LOSE the merge —
    every fragment writer collapses per key (`normalize_events`,
    `_streaming_compact_write`), so no in-fragment
    duplicate exists to resurrect, and any newer version lives at a
    higher rank and masks regardless. A min-rank row that fails the
    predicate either loses the merge (pre-dropping it changes nothing) or
    wins it (the post-merge filter would drop it anyway). So the base
    gets row-group pruning via parquet min/max stats plus a pre-merge
    row filter — at 100 TB a selective scan reads only matching base row
    groups instead of the whole lake. Deltas are always read in full."""

    _OPS = {"==": pc.equal, "!=": pc.not_equal, ">": pc.greater,
            ">=": pc.greater_equal, "<": pc.less, "<=": pc.less_equal}

    def __init__(self, lake_dir: str, columns: list[str] | None,
                 with_deleted: bool = False, key_filter: list | None = None,
                 where: list[tuple] | None = None):
        self.lake_dir = lake_dir
        self.columns = columns
        self.with_deleted = with_deleted
        self.key_filter = None if key_filter is None else pa.array(list(key_filter))
        # sorted keys for the clustered-base row-group pruning fast path
        self._keys_sorted = (None if key_filter is None
                             else sorted(map(str, key_filter)))
        self.where = where
        # merge needs the key/order/op columns even when the caller didn't
        # ask for them; they are dropped again after the merge
        self._read_cols = None
        if columns:
            need = {"doc_id", "seq", "op"} if not with_deleted else {"doc_id", "seq", "op", "part_id"}
            if where:  # predicate columns must survive into the merge
                need |= {w[0] for w in where}
            self._read_cols = list(dict.fromkeys([*columns, *need]))

    def _apply_where(self, t: pa.Table) -> pa.Table:
        for col, op, val in self.where:
            if col not in t.column_names:
                # add-column evolution: absent here = null, matches nothing
                # (``scan`` has checked that some fragment has the column)
                return t.slice(0, 0)
            if op == "in":
                mask = pc.is_in(t[col], value_set=pa.array(list(val)))
            else:
                mask = self._OPS[op](t[col], val)
            t = t.filter(mask)
        return t

    def _read(self, full: str, rg: int, is_base: bool) -> pa.Table | None:
        """One fragment's rows that can reach the merge, or None when no
        row group can hold a requested key / pass the base's ``where``."""
        if self.key_filter is None and not (is_base and rg < 0):
            return _read_fragment(full, rg, self._read_cols)
        f = _open_fragment(full)
        groups = None if rg < 0 else [rg]  # None = every row group
        if rg < 0 and self._keys_sorted is not None:
            # clustered whole-file fragment (compacted base): only the row
            # groups whose doc_id stats can hold a key
            groups = _prune_row_groups(f, self._keys_sorted)
        if rg < 0 and is_base:
            wkeep = _prune_row_groups_where(f, self.where)
            if wkeep is not None:
                groups = (wkeep if groups is None else
                          sorted(set(groups) & set(wkeep)))
        if groups is not None and not groups:
            return None
        cols = _present(self._read_cols, f)
        if self.key_filter is None:
            return (f.read(columns=cols) if groups is None
                    else f.read_row_groups(groups, columns=cols))
        # doc_id probe: the payload is read only for row groups with a hit
        hit, masks = [], []
        for i in (range(f.metadata.num_row_groups) if groups is None else groups):
            ids = f.read_row_group(i, columns=["doc_id"])["doc_id"]
            m = pc.is_in(ids, value_set=self.key_filter)
            if pc.any(m).as_py():
                hit.append(i)
                masks += m.chunks
        if not hit:
            return None
        return f.read_row_groups(hit, columns=cols).filter(pa.chunked_array(masks))

    def merge(self, paths: list[str], ranks: list[int], rgs: list[int],
              runs: dict[tuple[str, int], pa.Table] | None = None
              ) -> pa.Table | None:
        """Merge one partition's fragments; None when no row survives the
        fragment reads. ``runs``: the run-file row groups ``__call__`` has
        already read for its whole batch (``_read_runs``); without it
        (``lookup``) each fragment is read, or probed, on its own."""
        tabs: list[pa.Table] = []
        eff_ranks: list[int] = []
        # the safe where-pushdown target: the plan's UNIQUE min-rank
        # fragment (see class doc) — computed over the FULL plan so a
        # key-pruned base never promotes a delta into the slot
        base_i = None
        if self.where and ranks:
            rmin = min(ranks)
            if ranks.count(rmin) == 1:
                base_i = ranks.index(rmin)
        for idx, (p, rg, rank) in enumerate(zip(paths, rgs, ranks)):
            t = (runs[(p, rg)] if runs is not None and rg >= 0 else
                 self._read(os.path.join(self.lake_dir, p), rg, idx == base_i))
            if t is None:
                continue
            if idx == base_i and all(w[0] in t.column_names
                                     for w in self.where):
                t = self._apply_where(t)  # pre-merge row filter, base only
                if len(t) == 0:
                    continue
            tabs.append(t)
            eff_ranks.append(rank)
        if not tabs:
            return None
        merged = merge_on_read(
            tabs, ranks=eff_ranks,
            drop_internal=() if self.with_deleted else _INTERNAL
        )
        if self.where:
            merged = self._apply_where(merged)
        if self.columns:
            # add-column evolution contract: a requested column absent
            # from every fragment of this partition reads back as null
            # (NOT silently dropped — dropping all columns would yield a
            # 0-row table and a scan that quietly loses the partition)
            merged = pa.table({
                c: (merged[c] if c in merged.column_names
                    else pa.nulls(len(merged)))
                for c in self.columns})
        return merged

    def __call__(self, batch: pa.Table) -> pa.Table:
        descs = batch.select(["paths", "ranks", "rgs"]).to_pylist()
        # one open and one batched row-group read per run file for the
        # whole batch; a lookup reader keeps its per-fragment doc_id probe
        runs = (None if self.key_filter is not None else
                _read_runs(self.lake_dir, descs, self._read_cols))
        out = [self.merge(d["paths"], d["ranks"], d["rgs"], runs) for d in descs]
        out = [t for t in out if t is not None]
        if not out:
            return _empty_table(self.columns or LAKE_COLUMNS)
        return pa.concat_tables(out, promote_options="permissive")


def _per_task(n: int) -> int:
    """Partitions per ``scan`` (and collapsed ``changes``) task over ``n``
    of them: ceil(n / cluster CPUs), so a scan runs min(n, CPUs) tasks.
    Fewer tasks than partitions means fewer task launches and fewer
    footer parses per run file; a cluster with at least ``n`` CPUs keeps
    one partition per task, so parallelism is never capped."""
    cpus = max(1, int(ray.cluster_resources().get("CPU", 0)))
    return max(1, -(-n // cpus))


def _lookup_partition(lake_dir: str, columns: list[str], with_deleted: bool,
                      keys: list, paths: list[str], ranks: list[int],
                      rgs: list[int]) -> pa.Table | None:
    """One partition's share of ``CDCEngine.lookup``: ``keys`` all hash to
    this partition."""
    return PartitionMergeReader(lake_dir, columns, with_deleted=with_deleted,
                                key_filter=keys).merge(paths, ranks, rgs)


_lookup_task = ray.remote(_lookup_partition)


def _compact_partitions(lake_dir: str, descs: list[dict[str, Any]], epoch: int,
                        version: int,
                        row_group_size: int) -> list[tuple[int, str, int, int]]:
    """A few partitions' share of ``CDCEngine.compact``: read the run-file
    row groups of all of them once per run file (``_read_runs``), then
    fold each one's fragments into
    ``part=K/base-{epoch}-v{version}.parquet`` (tmp+rename, so a retried
    task rewrites the same names). The version in the name makes every
    base write-once: a later compaction at the same epoch (say after a
    reshard) never renames over a base an older retained version still
    reads. Returns (part_id, path, rows, max_chunk) per partition."""
    runs = _read_runs(lake_dir, descs)
    out = []
    for d in descs:
        rel = os.path.join(f"part={d['part_id']:04d}",
                           f"base-{epoch:06d}-v{version:06d}.parquet")
        final = os.path.join(lake_dir, rel)
        os.makedirs(os.path.dirname(final), exist_ok=True)
        tmp = final + f".tmp-{uuid.uuid4().hex}"
        n, max_chunk = _streaming_compact_write(
            lake_dir, *_bases_and_deltas(d), runs, tmp,
            row_group_size=row_group_size)
        os.rename(tmp, final)
        out.append((d["part_id"], rel, n, max_chunk))
    return out


_compact_task = ray.remote(_compact_partitions)


def _in_task_groups(task, lake_dir: str, items: list, *args) -> list:
    """Run a maintenance ``task`` (compact, both reshard stages) as plain
    Ray tasks of four items (partitions) each and concatenate their
    per-item results. No Ray Data plan: its start-up cost more than the
    work on small lakes. Four per task rather than one: a quarter as many
    tasks to schedule, which measured faster for compaction and for
    reshard on a 4-vCPU host (one task per partition was slower in every
    compacted-lake reshard pair). The cost is parallelism on clusters with
    fewer than four partitions per CPU; that side is not measured yet."""
    return [r for out in ray.get([task.remote(lake_dir, items[i:i + 4], *args)
                                  for i in range(0, len(items), 4)])
            for r in out]


def _bases_and_deltas(d: dict[str, Any]) -> tuple[list, list]:
    """A partition descriptor's (path, rank, rg) fragments, bases first."""
    frags = list(zip(d["paths"], d["ranks"], d["rgs"], d["kinds"]))
    return ([(p, r, g) for p, r, g, kd in frags if kd == "base"],
            [(p, r, g) for p, r, g, kd in frags if kd == "delta"])


def _reshard_split_parts(lake_dir: str, descs: list[dict[str, Any]],
                         new_num: int, tmp_rel: str,
                         row_group_size: int) -> list[tuple[int, str, int]]:
    """A few OLD partitions' share of ``reshard`` stage 1, their run-file
    row groups read once per run file (``_read_runs``): one
    (new part_id, path, rows) row per fragment written."""
    runs = _read_runs(lake_dir, descs)
    out = []
    for d in descs:
        out += _reshard_split(lake_dir, *_bases_and_deltas(d), runs,
                              d["part_id"], new_num, tmp_rel, row_group_size)
    return out


_reshard_split_task = ray.remote(_reshard_split_parts)


def _reshard_merge_parts(lake_dir: str, items: list[tuple[int, list[str]]],
                         epoch: int, version: int,
                         row_group_size: int) -> list[tuple[int, str, int, int]]:
    """A few NEW partitions' share of ``reshard`` stage 2: merge each one's
    stage-1 fragments into ``part=K/base-{epoch}-rs{version}.parquet``.
    Returns (part_id, path, rows, max_gather) per partition."""
    out = []
    for p, rels in items:
        rel = os.path.join(f"part={p:04d}",
                           f"base-{epoch:06d}-rs{version:04d}.parquet")
        final = os.path.join(lake_dir, rel)
        os.makedirs(os.path.dirname(final), exist_ok=True)
        tmp = final + f".tmp-{uuid.uuid4().hex}"
        n, mg = _kway_disjoint_merge(lake_dir, rels, tmp, row_group_size)
        os.rename(tmp, final)
        out.append((p, rel, n, mg))
    return out


_reshard_merge_task = ray.remote(_reshard_merge_parts)


def _empty_table(columns: list[str]) -> pa.Table:
    """Zero-row result: the WAL type for a known column, null for one the
    WAL schema lacks (an add-column-evolved name — absent columns read back
    as null, as in ``PartitionMergeReader``)."""
    return pa.table({c: pa.array([], WAL_SCHEMA.field(c).type
                                 if c in WAL_SCHEMA.names else pa.null())
                     for c in columns})


_CHANGE_COLUMNS = [c for c in WAL_SCHEMA.names if c != "epoch"]


def _feed_tables(lake_dir: str, descs: list[dict[str, Any]]) -> list[list[pa.Table]]:
    """Each descriptor's fragments, in order: every epoch delta is a
    run-file row group, read through ``_read_runs``."""
    runs = _read_runs(lake_dir, descs)
    return [[runs[(p, g)] for p, g in zip(d["paths"], d["rgs"])] for d in descs]


def _change_rows(lake_dir: str, batch: pa.Table) -> pa.Table:
    """Plain ``changes()`` feed: a batch of (path, rg) fragments' rows."""
    [tabs] = _feed_tables(lake_dir, [{"paths": batch["path"].to_pylist(),
                                      "rgs": batch["rg"].to_pylist()}])
    t = pa.concat_tables(tabs, promote_options="permissive")
    return t.drop_columns([c for c in ("part_id",) if c in t.column_names])


def _net_changes(lake_dir: str, batch: pa.Table) -> pa.Table:
    """Collapsed ``changes()`` feed: a batch of partition descriptors' net
    change rows (see ``changes``)."""
    descs = batch.select(["paths", "ranks", "rgs"]).to_pylist()
    out = []
    for d, tabs in zip(descs, _feed_tables(lake_dir, descs)):
        ranked = [_with_rank(t, r) for t, r in zip(tabs, d["ranks"]) if len(t)]
        if ranked:
            t = collapse_latest(pa.concat_tables(ranked, promote_options="permissive"),
                                order_cols=("_rank", "seq"))
            out.append(t.drop_columns([c for c in ("_rank", "part_id")
                                       if c in t.column_names]))
    if not out:  # schema-stable empty block (downstream digests)
        return _empty_table(_CHANGE_COLUMNS)
    return pa.concat_tables(out, promote_options="permissive")


class CDCEngine:
    """Driver-side coordinator: epochs in, manifest versions out."""

    # the one apply path; the benchmark's tracer (perfbench/layers.py)
    # reads it on every traced ``apply_epoch``
    write_mode = "direct"

    def __init__(
        self,
        lake_dir: str,
        num_partitions: int = 32,
        policy: SchemaPolicy | None = None,
    ):
        self.lake_dir = lake_dir
        os.makedirs(lake_dir, exist_ok=True)
        self.policy = policy or SchemaPolicy(target=DEFAULT_TARGET)
        self.fence_token = uuid.uuid4().hex
        m = mf.load_latest(lake_dir)
        if m is None:
            m = mf.Manifest(version=0, num_partitions=num_partitions,
                            schema=[[f.name, str(f.type)] for f in self.policy.target])
            m.fence_token = self.fence_token
            mf.commit(lake_dir, m)
        self.manifest = m
        self.num_partitions = m.num_partitions  # partitioning is fixed at lake creation
        # intent segment path -> its parsed (part_id, path, rg, bloom) rows
        # (``_segment_rows_of``); ``_descriptors`` prunes it to its manifest
        self._segment_rows: dict[str, list[tuple[int, str, int, bytes | None]]] = {}

    # -- ingest ------------------------------------------------------------

    def apply_epoch(self, epoch: int, files: list[str],
                    stats_extra: dict[str, Any] | None = None) -> dict[str, Any]:
        """Apply one WAL segment (micro-batch) exactly once. Re-applying a
        committed epoch is a no-op (resume path). ``stats_extra`` entries
        are folded into the manifest stats atomically with this epoch's
        commit (e.g. ``tail``'s WAL segment high-watermark)."""
        if epoch <= self.manifest.committed_epoch:
            return {"epoch": epoch, "skipped": True}
        import time as _time

        t_start = _time.perf_counter()
        wm = _wm_vector(self.num_partitions, self.manifest.watermarks())
        # one plain task per WAL shard (read → normalize → run-file write),
        # no Ray Data plan: its start-up cost more than the apply work on
        # small epochs; only intent rows come back. A sealed ZERO-SHARD
        # segment (every row quarantined) commits as a zero-row epoch, so
        # the feed advances past it.
        refs = [_apply_task.remote(f, self.policy, self.num_partitions,
                                   wm, self.lake_dir, epoch)
                for f in files]
        intents = [r for t in ray.get(refs) for r in t.to_pylist()]
        return self._commit_intents(epoch, intents, stats_extra, True, t_start)

    def _commit_intents(self, epoch: int, intents: list,
                        stats_extra: dict[str, Any] | None,
                        advance_watermark: bool, t_start: float) -> dict[str, Any]:
        """Phase 2 of an epoch: fold intent rows into a new manifest
        version and commit (fenced).

        The epoch's intent segment (``_manifests/intents-v*.parquet``) has
        one row per fragment: ``part_id``, ``path``, ``rows``, ``max_seq``,
        ``rg`` (row group in the run file, -1 = whole file) and ``bloom``,
        the row group's doc_id filter (null for an intent without one).
        A segment written before filters existed has no ``bloom`` column;
        ``lookup`` probes such fragments.

        ``advance_watermark=False`` is the SYNTHESIZED-epoch mode (upsert /
        delete_where / dedup tombstones / replica sync): the per-partition
        watermark is the PRODUCER-seq replay filter, and a synthesized
        epoch's seqs live above it only so its own rows pass that filter —
        letting them RAISE it would silently drop every later WAL event
        with a smaller producer seq as a replay. Ordering against later
        producer events needs no watermark: merge-on-read ranks by (epoch,
        seq), and the synthesized epoch's rank already places it
        correctly."""
        import time as _time

        m = self.manifest
        new = mf.Manifest(
            version=m.version + 1,
            num_partitions=m.num_partitions,
            committed_epoch=epoch,
            fence_token=self.fence_token,
            schema=m.schema,
            stats=dict(m.stats),
            epochs=list(m.epochs),
        )
        for k, ps in m.partitions.items():
            new.partitions[k] = mf.PartitionState(ps.watermark_seq, list(ps.files))
        applied = 0
        for it in intents:
            ps = new.part(int(it["part_id"]))
            if advance_watermark:
                ps.watermark_seq = max(ps.watermark_seq, int(it["max_seq"]))
            applied += int(it["rows"])
        if intents:
            # the (fragment × partition) fan-out goes to a Parquet manifest
            # segment, NOT the JSON (O(run_files × partitions) entries at
            # scale); the JSON stays O(partitions + epochs). Name is
            # version+fence unique: a racing writer's segment is orphaned
            # when it loses the commit, then vacuumed.
            seg_rel = os.path.join(
                "_manifests", f"intents-v{new.version:06d}-{self.fence_token[:8]}.parquet"
            )
            seg_path = os.path.join(self.lake_dir, seg_rel)
            os.makedirs(os.path.dirname(seg_path), exist_ok=True)
            seg_table = pa.table(
                {
                    "part_id": pa.array([int(i["part_id"]) for i in intents], pa.int32()),
                    "path": pa.array([i["path"] for i in intents], pa.string()),
                    "rows": pa.array([int(i["rows"]) for i in intents], pa.int64()),
                    "max_seq": pa.array([int(i["max_seq"]) for i in intents], pa.int64()),
                    "rg": pa.array([int(i["rg"]) for i in intents], pa.int32()),
                    "bloom": pa.array([i.get("bloom") for i in intents], pa.binary()),
                }
            )
            tmp = seg_path + ".tmp"
            pq.write_table(seg_table, tmp, compression="lz4")
            os.rename(tmp, seg_path)
            new.epochs.append({"epoch": epoch, "path": seg_rel, "rows": applied})
        else:
            # zero-intent epoch (empty / fully replay-filtered segment):
            # record it with no segment so the change feed can tell an
            # EMPTY epoch (skip it) from a COMPACTED-AWAY one (full-resync)
            new.epochs.append({"epoch": epoch, "path": None, "rows": 0})
        wall = _time.perf_counter() - t_start
        # cumulative job metrics, part of the committed checkpoint state
        new.stats["last_epoch_rows"] = applied
        new.stats["last_epoch_wall_s"] = round(wall, 3)
        new.stats["rows_applied_total"] = int(m.stats.get("rows_applied_total", 0)) + applied
        new.stats["epochs_applied_total"] = int(m.stats.get("epochs_applied_total", 0)) + 1
        new.stats["wall_s_total"] = round(float(m.stats.get("wall_s_total", 0.0)) + wall, 3)
        if stats_extra:
            new.stats.update(stats_extra)
        mf.commit(self.lake_dir, new)  # raises FencedOutError if we lost
        self.manifest = new
        return {"epoch": epoch, "skipped": False, "delta_rows": applied,
                # distinct partitions, not fragment intents — apply
                # writes one (run-file × partition) fragment each
                "partitions_touched": len({int(i["part_id"]) for i in intents}),
                "fragments": len(intents), "version": new.version}

    def apply_wal(self, wal_dir: str) -> list[dict[str, Any]]:
        """One-shot replay: apply every segment above the WAL high-watermark,
        in order. Safe to call repeatedly / after a crash (resume).

        Segment skipping keys on the lake's recorded ``wal_hwm`` stat (the
        highest WAL segment id already applied), NOT on ``committed_epoch``:
        on a lake where synthesized epochs (upsert / delete_where / dedup)
        advanced ``committed_epoch`` past unapplied WAL segment ids, the
        identity mapping segment-id == engine-epoch would classify those
        segments as already applied and silently drop their events. Such
        segments are routed through the tail-style DECOUPLED mapping
        (applied as ``committed_epoch + 1`` with their own id recorded in
        ``wal_hwm``) instead. An absent ``wal_hwm`` stat falls back to
        ``-1`` (same as ``tail()``): on a lake whose first epochs were
        synthesized (upserts before the first replay) a
        ``committed_epoch`` fallback would classify unapplied segments
        with ids <= committed_epoch as already applied and silently drop
        their events, whereas re-offering a genuinely already-applied
        segment is harmless — its rows replay-filter to a zero-row
        epoch."""
        out: list[dict[str, Any]] = []
        wal_hwm = int(self.manifest.stats.get("wal_hwm", -1))
        # one directory snapshot for both the list and the barrier — see
        # sources/wal.py:segments_with_barrier for why a separate earlier
        # barrier pass is racy
        segs, barrier = segments_with_barrier(wal_dir)
        for e, paths in segs:
            if e <= wal_hwm:
                out.append({"epoch": e, "skipped": True})
                continue
            if barrier is not None and e > barrier:
                # ordering barrier (see tail()): a smaller id is still open;
                # applying past it would silently drop that drop when it
                # seals. Re-run apply_wal/tail once it is sealed/vacuumed.
                out.append({"epoch": e, "deferred": True})
                continue
            if e <= self.manifest.committed_epoch:
                # unapplied segment below committed_epoch: synthesized
                # epochs consumed its identity slot — decoupled mapping
                r = self.apply_epoch(self.manifest.committed_epoch + 1,
                                     paths, stats_extra={"wal_hwm": e})
            else:
                r = self.apply_epoch(e, paths, stats_extra={"wal_hwm": e})
            wal_hwm = e
            out.append(r)
        return out

    def _synth_base(self) -> tuple[int, int]:
        """The next synthesized epoch and its seq base: above every
        producer watermark (so the rows pass the replay filter) AND
        epoch-scaled so no two synthesized versions of a doc can ever
        repeat a seq (watermarks are frozen for synthesized epochs, so the
        watermark alone would repeat; the dedup index's seq check relies
        on distinct seqs per version)."""
        epoch = self.manifest.committed_epoch + 1
        return epoch, (max(self.manifest.watermarks().values(), default=-1)
                       + 1 + (epoch << 32))

    def _write_epoch(self, t: pa.Table, op: str) -> dict[str, Any]:
        """``upsert``/``delete_where``: ``t`` as the next synthesized epoch,
        seqs in row order, written as one run file by the driver itself
        (no Ray task, no Ray Data plan) and committed through the same
        fenced commit as a WAL micro-batch."""
        import time as _time

        t_start = _time.perf_counter()
        epoch, base = self._synth_base()
        rows = _synth_rows(t, epoch, base + np.arange(len(t), dtype=np.int64), op)
        intents = normalize_and_write_fragments(
            rows, self.policy, self.num_partitions,
            _wm_vector(self.num_partitions, self.manifest.watermarks()),
            self.lake_dir, epoch).to_pylist()
        return self._commit_intents(epoch, intents, None, False, t_start)

    def _apply_synth(self, ds: rd.Dataset, op: str | None,
                     stats_extra: dict[str, Any] | None = None
                     ) -> tuple[dict[str, Any], int, int]:
        """``ds`` as the next synthesized epoch: each block's task writes
        its own run file (``_write_synth_block``), only intent rows reach
        the driver, and one fenced commit publishes them. Byte-identical
        blocks (same content key) count and commit once; the other copy's
        run file is an orphan ``vacuum`` removes. With no rows the epoch
        commits (zero rows) only when ``stats_extra`` must be recorded;
        otherwise it is skipped and no epoch is used up. Returns (result,
        rows committed, tombstones among them)."""
        import time as _time

        t_start = _time.perf_counter()
        epoch, base = self._synth_base()
        wm = _wm_vector(self.num_partitions, self.manifest.watermarks())
        intents = sorted(ds.map_batches(
            functools.partial(_write_synth_block, self.lake_dir, self.policy,
                              self.num_partitions, wm, epoch, base, op),
            batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
        ).take_all(), key=lambda r: r["path"])  # tiny: intent rows only
        path_of: dict[str, str] = {}
        for r in intents:
            path_of.setdefault(r["key"], r["path"])
        intents = [r for r in intents if path_of[r["key"]] == r["path"]]
        n = sum(int(r["rows"]) for r in intents)
        n_del = n - sum(int(r["upserts"]) for r in intents)
        if not intents and stats_extra is None:
            return ({"epoch": self.manifest.committed_epoch, "skipped": True},
                    0, 0)
        return (self._commit_intents(epoch, intents, stats_extra, False,
                                     t_start), n, n_del)

    def upsert(self, rows: pa.Table | "pd.DataFrame") -> dict[str, Any]:
        """Direct write API (no WAL producer needed): upsert rows
        (doc_id, tokens, n_tok, source) as one synthesized epoch — same
        idempotent, fenced, exactly-once commit as a WAL micro-batch.
        Single-writer discipline applies: don't interleave with a
        concurrent ``tail`` of the same lake."""
        if not isinstance(rows, pa.Table):
            rows = pa.Table.from_pandas(rows, preserve_index=False)
        return self._write_epoch(rows, "U")

    def delete_where(self, where: list[tuple] | None = None,
                     doc_ids: list[str] | None = None) -> dict[str, Any]:
        """Bulk delete (the GDPR/compliance path): tombstone every CURRENT
        row matching ``where`` (or the explicit ``doc_ids``), written as an
        ordinary delete epoch — physically dropped at the next
        ``compact()``, exactly like WAL-sourced deletes. The matching scan
        is distributed; only the keys come back to the driver."""
        if (where is None) == (doc_ids is None):
            raise ValueError("exactly one of where= or doc_ids= is required")
        if where is not None:
            ids: list[str] = []
            for ref in self.scan(columns=["doc_id"], where=where).to_arrow_refs():
                ids.extend(ray.get(ref)["doc_id"].to_pylist())
        else:
            ids = list(doc_ids)
        if not ids:
            return {"epoch": self.manifest.committed_epoch, "skipped": True,
                    "deleted": 0}
        out = self._write_epoch(pa.table({"doc_id": pa.array(ids, pa.string())}), "D")
        out["deleted"] = len(ids)
        return out

    def upsert_dataset(self, rows: rd.Dataset) -> dict[str, Any]:
        """Distributed upsert from a Dataset — the 10^10-doc variant of
        ``upsert`` and the write half of rewrite maintenance ops
        (``dedup_lake(method="span")``): each block's task writes its
        op='U' rows straight into a run file and ONE exactly-once commit
        publishes them all (``_apply_synth``). Only tiny intent rows reach
        the driver.

        Columns: ``doc_id`` required; ``tokens``/``source`` optional
        (defaults empty), ``n_tok`` derived from tokens when absent.
        Each ``doc_id`` must appear at most ONCE across the whole Dataset
        — like ``delete_dataset``, synthesized seqs are per-doc hash
        offsets, so two different payloads for one doc in one call would
        tie on seq and collapse nondeterministically."""
        out, n, _ = self._apply_synth(rows, "U")
        out["upserted"] = n
        return out

    def delete_dataset(self, keys: rd.Dataset) -> dict[str, Any]:
        """Distributed bulk delete: tombstone every ``doc_id`` in ``keys``
        WITHOUT materializing the keys on the driver — the 10^10-doc
        variant of ``delete_where(doc_ids=...)``. Each block's task writes
        its tombstones straight into a run file; only intent rows return
        to the driver, which commits them as one exactly-once epoch
        (``_apply_synth``). ``deleted`` counts each byte-identical key
        block once — it feeds tail's rows_deduped and the dedup soak
        accounting."""
        out, n, _ = self._apply_synth(keys, "D")
        out["deleted"] = n
        return out

    def dedup_lake(self, content_col: str = "tokens", num_shards: int = 64,
                   dry_run: bool = False, method: str = "exact",
                   threshold: float = 0.85, k: int = 5, n_perm: int = 64,
                   bands: int = 16, span_k: int = 50,
                   span_keep: str = "first",
                   drop_empty: bool = True) -> dict[str, Any]:
        """Lake-level content dedup (a maintenance op, like ``compact``):
        find duplicate docs and tombstone all but one per group through the
        ordinary delete-epoch path. Inherits exactly-once commit, time
        travel (the pre-dedup snapshot stays queryable at its version) and
        physical reclaim via ``compact()`` + ``vacuum()``.

        ``method="exact"``: byte-identical ``content_col`` (per-row
        token-array equality, the engine's correctness invariant); the
        smallest ``doc_id`` per content group survives. Idempotent: a
        second run finds zero duplicates.

        ``method="minhash"``: near-duplicates by MinHash+LSH over token
        k-grams (``threshold`` = estimated-Jaccard cut; ``TokenMinHasher``
        for list columns, word-shingle ``MinHasher`` for strings). Standard
        cluster-by-representative contraction: each flagged doc's bucket
        representative survives; a near-dup cluster keeps ≥1 doc (its
        minimal key is never flagged).

        ``method="span"``: exact-substring SPAN dedup
        (``functions/spandedup.py``, content="tokens"): every duplicated
        ``span_k``-token window corpus-wide is cut from all but its first
        occurrence — "first" = minimal (doc_id, pos) under the lake's
        STRING doc_id order (lexicographic; the WAL/ingest writers
        zero-pad ids so this matches arrival order) —
        (``span_keep="none"`` cuts all); affected docs are
        REWRITTEN through ``upsert_dataset`` (an ordinary update epoch —
        time travel keeps the pre-cut content) and docs whose token array
        empties are tombstoned when ``drop_empty`` (a full duplicate
        degenerates to the exact-dedup outcome). Two epochs max: one
        upsert, one delete.

        Scale shape: merged scan streams; only hashes/signatures cross the
        wire (``functions/dedup``); the loser keys never land on the driver
        (``delete_dataset`` writes tombstones from block tasks); span
        rewrites move only affected docs' payloads (``upsert_dataset``)."""
        from ..functions.dedup import (TokenMinHasher, duplicate_keys,
                                       minhash_lsh_dedup)

        if method == "span":
            return self._spandedup_lake(content_col, num_shards, dry_run,
                                        span_k, span_keep, drop_empty)
        scan = self.scan(columns=["doc_id", content_col])
        if method == "exact":
            dups = duplicate_keys(
                scan, content_col=content_col, key_col="doc_id",
                num_shards=num_shards,
            )
        elif method == "minhash":
            ctype = scan.schema().base_schema.field(content_col).type
            hasher = (TokenMinHasher
                      if pa.types.is_list(ctype) or pa.types.is_large_list(ctype)
                      else None)
            kw = {"hasher": hasher} if hasher is not None else {}
            dups = minhash_lsh_dedup(
                scan, text_col=content_col, key_col="doc_id", k=k,
                n_perm=n_perm, bands=bands, threshold=threshold,
                num_shards=num_shards, **kw,
            )
        else:
            raise ValueError(f"unknown dedup method {method!r}")
        if dry_run:
            return {"duplicates": dups.count(), "dry_run": True,
                    "method": method}
        out = self.delete_dataset(dups.select_columns(["doc_id"]))
        out["method"] = method
        return out

    def _spandedup_lake(self, content_col: str, num_shards: int,
                        dry_run: bool, span_k: int, span_keep: str,
                        drop_empty: bool) -> dict[str, Any]:
        """``dedup_lake(method="span")`` body: duplicated-span report over
        the merged scan (fingerprint-only exchanges), then ONE rewrite
        pass that upserts only docs whose content actually changed
        (n_cut_words > 0 — a keys-Bloom false positive routes a clean doc
        through the cut pass but never into a new version) and tombstones
        fully-emptied docs."""
        from ..functions import spandedup

        scan = self.scan(columns=["doc_id", content_col])
        spans = spandedup.duplicate_spans(
            scan, text_col=content_col, key_col="doc_id", k=span_k,
            keep=span_keep, num_shards=num_shards,
            content="tokens").materialize()
        n_spans = spans.count()
        out: dict[str, Any] = {"method": "span", "spans": n_spans,
                               "span_k": span_k}
        if dry_run:
            out["dry_run"] = True
            return out
        if n_spans == 0:
            out.update(epoch=self.manifest.committed_epoch, skipped=True,
                       rewritten=0, emptied=0)
            return out
        full = self.scan(columns=["doc_id", content_col, "source"])
        cut = spandedup._route_and_cut(
            full, spans, content_col, "doc_id", num_shards,
            max_span_broadcast=500_000, content="tokens")

        def changed_only(t: pa.Table) -> pa.Table:
            t = t.filter(pc.greater(t["n_cut_words"], 0))
            return pa.table({
                "doc_id": t["doc_id"],
                "tokens": t[content_col],
                "source": t["source"],
            })

        changed = cut.map_batches(
            changed_only, batch_format="pyarrow").materialize()

        def nonempty(t: pa.Table) -> pa.Table:
            return t.filter(pc.greater(pc.list_value_length(t["tokens"]), 0))

        def emptied_keys(t: pa.Table) -> pa.Table:
            m = pc.equal(pc.list_value_length(t["tokens"]), 0)
            return t.filter(m).select(["doc_id"])

        up_rows = (changed.map_batches(nonempty, batch_format="pyarrow")
                   if drop_empty else changed)
        res_up = self.upsert_dataset(up_rows)
        out["rewritten"] = res_up.get("upserted", 0)
        out["emptied"] = 0
        if drop_empty:
            res_del = self.delete_dataset(
                changed.map_batches(emptied_keys, batch_format="pyarrow"))
            out["emptied"] = res_del.get("deleted", 0)
        out["epoch"] = self.manifest.committed_epoch
        return out

    def dedup_incremental(self, content_col: str | None = None,
                          num_shards: int = 64,
                          compact_over: int = 8,
                          dry_run: bool = False) -> dict[str, Any]:
        """Exact content dedup of the docs ingested SINCE THE LAST RUN,
        against a persisted content-hash index — O(new docs) per run, never
        O(lake). First run bootstraps the index from a full scan (equivalent
        to ``dedup_lake``); later runs consume the net change feed. Stale
        index entries (updated/deleted incumbents) are verified against the
        live lake before any tombstone is written. See ``cdc/dedupidx.py``."""
        from . import dedupidx

        return dedupidx.dedup_incremental(self, content_col=content_col,
                                          num_shards=num_shards,
                                          compact_over=compact_over,
                                          dry_run=dry_run)

    def neardup_incremental(self, content_col: str | None = None,
                            num_shards: int = 64, n_perm: int = 64,
                            k: int = 5, bands: int = 16,
                            threshold: float = 0.85,
                            compact_over: int = 8,
                            dry_run: bool = False,
                            return_pairs: bool = False) -> dict[str, Any]:
        """MinHash/LSH NEAR-dup dedup of the docs ingested SINCE THE LAST
        RUN, against a persisted postings + signature index — the near-dup
        twin of ``dedup_incremental``: O(new docs) per run, never O(lake).
        First run bootstraps from a full scan (same contraction semantics
        as ``dedup_lake(method="minhash")``); later runs consume the net
        change feed. See ``cdc/neardupidx.py``."""
        from . import neardupidx

        return neardupidx.neardup_incremental(
            self, content_col=content_col, num_shards=num_shards,
            n_perm=n_perm, k=k, bands=bands, threshold=threshold,
            compact_over=compact_over, dry_run=dry_run,
            return_pairs=return_pairs)

    def tail(
        self,
        wal_dir: str,
        poll_secs: float = 1.0,
        idle_limit: int | None = None,
        max_epochs: int | None = None,
        auto_compact: int | None = None,
        auto_dedup: int | None = None,
        auto_neardup: int | None = None,
        on_commit=None,
    ) -> dict[str, Any]:
        """Continuous ingest: poll the WAL directory for new SEALED segments
        (``list_segments`` hides segments still carrying the producer's
        ``_OPEN`` marker — the micro-batch completeness barrier) and apply
        each exactly once. Stops after ``idle_limit`` consecutive empty
        polls (None = only on ``max_epochs``). Returns cumulative metrics.
        Resume-safe: committed epochs are skipped by the manifest watermark.

        ``auto_dedup=N``: dedup-on-ingest — run ``dedup_incremental`` after
        every N applied epochs (O(new docs) per run via the persisted
        content index). ``auto_neardup=N``: the MinHash/LSH near-dup twin
        (``neardup_incremental``); each keeps its own index + feed cursor,
        so they compose (exact runs first — it's cheaper and shrinks the
        near-dup's candidate load). When combined with ``auto_compact``,
        the dedups run BEFORE any compaction that is about to fire,
        because compaction folds the epoch segments their change feeds
        read.

        ``on_commit``: callable invoked with each applied epoch's commit
        result AFTER the manifest commit — the hook point for live
        downstream consumers (e.g. ``consumer.SourceRollup.refresh()`` +
        ``save()`` keeps an incrementally-maintained view and its
        checkpoint current with every committed epoch). A hook exception
        propagates (the commit itself is already durable)."""
        import time as _time

        applied = 0
        events = 0
        deduped = 0
        idx_probed = 0
        idx_read = 0
        idle = 0
        t0 = _time.perf_counter()
        # WAL segment ids and ENGINE epochs are decoupled here: synthesized
        # epochs (auto_dedup deletes, interleaved upserts) advance
        # committed_epoch past unapplied segment ids, so segment skipping
        # uses its own high-watermark, committed atomically with each epoch
        # (apply_wal records it too). Absent stat (e.g. an upsert-only
        # lake) falls back to -1 — re-offering an already-applied segment
        # is safe (its rows replay-filter to a zero-row epoch), whereas
        # falling back to committed_epoch would SKIP real segments whenever
        # synthesized epochs preceded the first tail.
        wal_hwm = int(self.manifest.stats.get("wal_hwm", -1))
        while True:
            progressed = False
            # one snapshot for list + barrier (segments_with_barrier doc)
            segs, barrier = segments_with_barrier(wal_dir)
            for e, paths in segs:
                if e <= wal_hwm:
                    continue
                if barrier is not None and e > barrier:
                    # ordering barrier: a SMALLER id is still open (a slower
                    # concurrent producer). Applying this one would raise
                    # wal_hwm and the replay watermarks past the open
                    # segment, silently dropping it when it seals — wait.
                    break
                r = self.apply_epoch(self.manifest.committed_epoch + 1,
                                     paths, stats_extra={"wal_hwm": e})
                wal_hwm = e
                if r.get("delta_rows", 0) == 0:
                    # empty or fully replay-filtered segment (e.g. a legacy
                    # lake without the wal_hwm stat re-offering applied
                    # segments): advances the watermark but must not count
                    # toward applied/max_epochs or trigger hooks
                    continue
                if not r.get("skipped"):
                    applied += 1
                    events += r.get("delta_rows", 0)
                    progressed = True
                    if on_commit is not None:
                        on_commit(r)
                    if auto_dedup and (
                        applied % auto_dedup == 0
                        or (auto_compact and self.would_compact(auto_compact))
                    ):  # drain the change feed before compaction folds it
                        dres = self.dedup_incremental()
                        deduped += dres.get("deleted", 0)
                        idx_probed += dres.get("index_shards_probed", 0)
                        idx_read += dres.get("index_shards_read", 0)
                        if dres.get("deleted", 0) and on_commit is not None:
                            # the delete epoch is a commit like any other:
                            # live views must see dedup tombstones too
                            on_commit(dres)
                    if auto_neardup and (
                        applied % auto_neardup == 0
                        or (auto_compact and self.would_compact(auto_compact))
                    ):
                        nres = self.neardup_incremental()
                        deduped += nres.get("deleted", 0)
                        idx_probed += nres.get("index_shards_probed", 0)
                        idx_read += nres.get("index_shards_read", 0)
                        if nres.get("deleted", 0) and on_commit is not None:
                            on_commit(nres)
                    if auto_compact:
                        self.maybe_compact(auto_compact)
                if max_epochs is not None and applied >= max_epochs:
                    break
            if max_epochs is not None and applied >= max_epochs:
                break
            if progressed:
                idle = 0
            else:
                idle += 1
                if idle_limit is not None and idle >= idle_limit:
                    break
                _time.sleep(poll_secs)
        wall = _time.perf_counter() - t0
        return {
            "epochs_applied": applied,
            "rows_applied": events,
            "rows_deduped": deduped,
            "index_shards_probed": idx_probed,
            "index_shards_read": idx_read,
            "wall_sec": round(wall, 3),
            "committed_epoch": self.manifest.committed_epoch,
            "manifest_version": self.manifest.version,
        }

    # -- query -------------------------------------------------------------

    def _segment_rows_of(self, seg_rel: str) -> list[tuple[int, str, int, bytes | None]]:
        """An intent segment's (part_id, path, rg, bloom) rows, read once
        and then kept: a segment is write-once under a version+fence-unique
        name and is only read once a committed manifest references it, so
        its rows never change. ``bloom`` (the fragment's key filter) stays
        here, out of the scan descriptors; it is None for a segment written
        before filters existed."""
        rows = self._segment_rows.get(seg_rel)
        if rows is None:
            t = pq.read_table(os.path.join(self.lake_dir, seg_rel))
            blooms = (t["bloom"].to_pylist() if "bloom" in t.column_names
                      else [None] * len(t))
            rows = list(zip(t["part_id"].to_pylist(), t["path"].to_pylist(),
                            t["rg"].to_pylist(), blooms))
            self._segment_rows[seg_rel] = rows
        return rows

    def _descriptors(self, manifest: mf.Manifest | None = None) -> list[dict[str, Any]]:
        """Per-partition fragment lists: base files from the JSON, delta
        fragments resolved from the epoch manifest segments (one small
        Parquet read per applied-uncompacted epoch, kept across calls by
        ``_segment_rows_of``). The kept set is pruned to this manifest's
        segments on every call."""
        m = manifest or self.manifest
        frags: dict[int, list[tuple[int, int, str, int]]] = {}  # part -> (order, rank, path, rg)
        for k, ps in m.partitions.items():
            for f in ps.files:  # bases (compaction output) — always rank-first
                frags.setdefault(int(k), []).append((0, f["epoch"], f["path"], f.get("rg", -1)))
        kept: dict[str, list[tuple[int, str, int, bytes | None]]] = {}
        for ep in m.epochs:
            if ep["path"] is None:  # zero-intent epoch: nothing to read
                continue
            rows = kept[ep["path"]] = self._segment_rows_of(ep["path"])
            for part, path, rg, _ in rows:
                frags.setdefault(part, []).append((1, int(ep["epoch"]), path, rg))
        self._segment_rows = kept
        desc = []
        for part in sorted(frags):
            ordered = sorted(frags[part], key=lambda x: (x[0], x[1]))
            desc.append(
                {
                    "part_id": part,
                    "paths": [x[2] for x in ordered],
                    # commit rank = epoch: same-epoch fragments tie on rank
                    # so last-write-wins falls through to seq
                    "ranks": [x[1] for x in ordered],
                    # row-group index inside the run file (-1 = whole file)
                    "rgs": [x[3] for x in ordered],
                    # base = doc_id-clustered compaction output (streamable
                    # row group by row group); delta = epoch fragment
                    "kinds": ["base" if x[0] == 0 else "delta" for x in ordered],
                }
            )
        return desc

    def _check_where_columns(self, desc: list[dict], where: list[tuple]) -> None:
        """Raise ``ValueError`` for a ``where`` column that no fragment of
        the lake has (a misspelled name would otherwise match nothing: a
        merge reads a column its partition's fragments lack as null). Only
        names outside the declared schema cost footer reads, newest
        fragments first, where add-column-evolved names appear."""
        known = {*WAL_SCHEMA.names, *self.policy.target.names, *_INTERNAL}
        todo = {c for c, _, _ in where} - known
        paths = dict.fromkeys(p for d in desc for p in d["paths"])
        for p in reversed(paths):
            if not todo:
                return
            todo -= set(pq.read_schema(os.path.join(self.lake_dir, p)).names)
        if todo:
            raise ValueError(f"where= names columns no fragment of the lake "
                             f"has: {sorted(todo)}")

    def scan(self, columns: list[str] | None = None,
             at_version: int | None = None,
             where: list[tuple] | None = None,
             with_deleted: bool = False) -> rd.Dataset:
        """Merge-on-read snapshot of the lake as a streaming Dataset.

        ``at_version`` reads an OLDER committed manifest (time travel /
        snapshot isolation): every manifest version is an immutable
        snapshot; readers of v(N) are never affected by later commits.
        Available within the vacuum retention window.

        ``where``: conjunctive [(col, op, value), ...] with op in
        {==, !=, >, >=, <, <=, in} — evaluated against the CURRENT row
        version inside each partition's merge; a column some fragments
        lack (add-column evolution) reads as null there, and a column no
        fragment has raises ``ValueError``. The compacted base
        additionally gets row-group stats pruning + a pre-merge filter
        (safe — see ``PartitionMergeReader``); deltas are filtered only
        after the merge (an old version may pass while the newest fails).
        Use ``lookup()`` for key-predicate pruning.

        ``with_deleted=True`` keeps the engine columns (seq/op/part_id)
        readable when ``columns`` names them — the change-data/versioning
        consumers' escape hatch. Tombstoned keys are still masked by the
        merge, as in every read.

        Each read task merges a group of ``_per_task(P)`` partitions, so
        the scan runs min(P, cluster CPUs) tasks and each task parses a
        run file's footer once for all its partitions (see
        ``PartitionMergeReader``). A task emits one block, so the block
        layout, and with it the training stream's order, depends on the
        cluster's CPU count; it stays deterministic on one cluster."""
        m = None if at_version is None else mf.load_version(self.lake_dir, at_version)
        desc = self._descriptors(m)
        cols = columns or LAKE_COLUMNS
        if not desc:
            return rd.from_arrow(_empty_table(cols))
        if where:
            self._check_where_columns(desc, where)
        # randomize_block_order(seed) is a zero-cost FUSION BARRIER, not a
        # shuffle: without it, a downstream map_batches(batch_size=N) fuses
        # with the merge reader and its row target makes Ray bundle the
        # 1-row descriptor blocks into ONE task, serializing the whole
        # merge (measured: training_pipeline 4.9s → 1.2s with the barrier).
        # It still matters with groups: only behind the barrier does the
        # merge stage keep its own batch_size of _per_task(P) descriptors.
        return rd.from_items(desc).map_batches(
            PartitionMergeReader(self.lake_dir, cols, where=where,
                                 with_deleted=with_deleted),
            batch_format="pyarrow",
            batch_size=_per_task(len(desc)),
        ).randomize_block_order(seed=0)

    def audit(self, expectations: list, columns: list[str] | None = None,
              at_version: int | None = None,
              where: list[tuple] | None = None) -> rd.Dataset:
        """Lake-wide data-quality audit: violation counts per rule over the
        merged live view (or a time-traveled / filtered snapshot). Pure
        counting — nothing is quarantined, no ``fail`` rule aborts; the
        drift-telemetry twin of the ingest gate
        (`cdc/expect.py:audit_expectations`). Returns a tiny Dataset
        ``(rule, violations)`` in declared rule order.

        With ``columns=None`` the scan is pruned to the columns the rules
        declare (built-in rules carry their column; a custom rule without
        one falls back to the full lake schema)."""
        from .expect import audit_expectations

        if columns is None:
            cols = [x.col for x in expectations]
            if all(cols):
                columns = list(dict.fromkeys(cols))

        return audit_expectations(
            self.scan(columns=columns, at_version=at_version, where=where),
            expectations)

    def export_tfrecord(self, out_dir: str, columns: list[str] | None = None,
                        at_version: int | None = None,
                        where: list[tuple] | None = None,
                        compression: str | None = None,
                        overwrite: bool = False) -> int:
        """Export a lake snapshot as sharded TFRecord training files — the
        lake→reference-format bridge (a go-tfdata user's end product is a
        TFRecord dir). Streams the merge-on-read scan through the parallel
        content-addressed sink (one shard per merge block, tmp+rename,
        retry-idempotent); supports time travel, predicates and gzip.
        Returns the number of exported rows.

        The export COMMITS like the engine does: shards are written into a
        hidden staging subdir first and only swapped into ``out_dir``
        after the whole scan succeeded — a mid-export failure leaves the
        previous export untouched (plus a removable staging dir). Refuses
        a directory that already holds TFRecord shards unless
        ``overwrite=True``: shard names are content-addressed, so
        exporting a CHANGED snapshot beside an old one would make a
        reader see a mix of two snapshots."""
        import shutil
        import uuid as _uuid

        from ..pipelines.builder import DefaultPipeline

        stale: list[str] = []
        if os.path.isdir(out_dir):
            stale = [n for n in os.listdir(out_dir)
                     if n.endswith((".tfrecord", ".tfrecord.gz"))]
            if stale and not overwrite:
                raise FileExistsError(
                    f"{out_dir} already holds {len(stale)} TFRecord shards "
                    "(possibly from an older snapshot); pass overwrite=True "
                    "to replace them")
        staging = os.path.join(out_dir, f".export-staging-{_uuid.uuid4().hex[:12]}")
        ds = self.scan(columns=columns, at_version=at_version, where=where)
        try:
            n = (DefaultPipeline().from_dataset(ds)
                 .to_tfrecord_dir(staging, compression=compression).do())
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        # commit: clear the stale shards only AFTER the new set is complete
        for name in stale:
            os.remove(os.path.join(out_dir, name))
        for name in os.listdir(staging):
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
        shutil.rmtree(staging, ignore_errors=True)
        return n

    def lookup(self, doc_ids: list[str],
               columns: list[str] | None = None,
               at_version: int | None = None,
               with_deleted: bool = False) -> pa.Table:
        """Point query: hash-route each key to its partition, then test the
        partition's keys against each delta fragment's key filter (the
        ``bloom`` column of its intent segment) in the driver. One plain
        Ray task per partition (no Ray Data plan) gets only the keys that
        hash there and only the fragments that may hold one of them, plus
        the partition's bases, which prune their own row groups by doc_id
        min/max. A partition with no such fragment gets no task. Fragments
        without a filter (segments written before filters existed) are
        always probed. Each task probes a fragment's ``doc_id`` column
        before reading the other columns (see ``PartitionMergeReader``).
        Returns the current row per found key (tombstoned / absent keys
        are simply missing); ``with_deleted=True`` keeps the engine columns
        (seq/op/part_id). ``at_version`` reads an older retained manifest
        snapshot (the pre-image path for incremental consumers)."""
        ids = list(doc_ids)
        cols = columns or LAKE_COLUMNS
        if not ids:
            return _empty_table(cols)
        m = (self.manifest if at_version is None
             else mf.load_version(self.lake_dir, at_version))
        # route with the TARGET version's partition count — a reshard()
        # between versions changes the key→partition map
        n_parts = m.num_partitions
        keys: dict[int, list[int]] = {}
        for i, p in enumerate(hash_partition(pa.array(ids), n_parts).tolist()):
            keys.setdefault(p, []).append(i)
        descs = [d for d in self._descriptors(m) if d["part_id"] in keys]
        blooms = {(path, rg): b
                  for ep in m.epochs if ep["path"] is not None
                  for part, path, rg, b in self._segment_rows_of(ep["path"])
                  if part in keys}
        h = _key_hashes(ids)
        refs = []
        for d in descs:
            ix = keys[d["part_id"]]
            hk = h[ix]
            keep = [j for j, frag in enumerate(zip(d["paths"], d["rgs"]))
                    if _filter_hits(blooms.get(frag), hk).any()]
            if keep:
                refs.append(_lookup_task.remote(
                    self.lake_dir, cols, with_deleted, [ids[i] for i in ix],
                    *([d[c][j] for j in keep] for c in ("paths", "ranks", "rgs"))))
        tabs = [t for t in ray.get(refs) if t is not None and t.num_rows]
        return (pa.concat_tables(tabs, promote_options="permissive") if tabs
                else _empty_table(cols))

    def version_at_epoch(self, epoch: int) -> int:
        """Earliest RETAINED manifest version whose committed_epoch >= epoch
        — the ``since_version`` a consumer passes to ``changes()`` to read
        everything after that epoch. Raises if no retained version qualifies
        (vacuumed past it)."""
        for v in range(1, self.manifest.version + 1):
            try:
                m = mf.load_version(self.lake_dir, v)
            except FileNotFoundError:
                continue
            if m.committed_epoch >= epoch:
                return v
        raise RuntimeError(f"no retained manifest version at epoch {epoch}")

    def changes(self, since_version: int, collapsed: bool = False) -> rd.Dataset:
        """Incremental CDC-out feed: the change rows committed AFTER
        manifest version ``since_version`` (epochs above that version's
        committed_epoch), tombstones ('D') included — what a downstream
        consumer needs to roll its own copy forward. Reads only the delta
        fragments of the newer epochs, never base files.

        ``collapsed=True`` collapses to one row per doc_id (latest
        (epoch, seq) wins) across the selected epochs — the net change set.
        Each feed task opens a run file once and reads its row groups with
        one ``read_row_groups`` (``_read_runs``, as in ``scan``); a collapsed
        task takes ``_per_task(P)`` partitions, as a scan task does; intent
        segments are parsed once per engine (``_segment_rows_of``).

        Raises RuntimeError (mentioning "full-resync") if any needed epoch
        was already folded by compaction OR the since_version manifest was
        vacuumed — the consumer must then full-resync from ``scan()``, the
        standard change-data-feed retention contract. It raises the same
        way, before any task starts, when a needed epoch is a whole-file
        delta (rg < 0) of a lake written by the retired groupby apply:
        ``compact()`` such a lake to feed from it again."""
        try:
            old = mf.load_version(self.lake_dir, since_version)
        except FileNotFoundError as e:
            raise RuntimeError(
                f"manifest v{since_version} vacuumed; incremental changes "
                "unavailable — full-resync from scan()") from e
        # compaction records the highest epoch it folded; needing any epoch
        # at or below it means the per-epoch fragments are gone. Zero-intent
        # epochs (empty WAL segment / re-offered segment) are recorded with
        # path=None, so a MISSING entry also means folded — that structural
        # check covers lakes compacted before the marker existed.
        folded = int(self.manifest.stats.get("folded_epoch", -1))
        if old.committed_epoch < folded:
            raise RuntimeError(
                f"epochs up to {folded} were compacted away; incremental "
                "changes unavailable — full-resync from scan()")
        have = {int(ep["epoch"]) for ep in self.manifest.epochs}
        missing = [e for e in range(old.committed_epoch + 1,
                                    self.manifest.committed_epoch + 1)
                   if e not in have]
        if missing:
            raise RuntimeError(
                f"epochs {missing} were compacted away; incremental changes "
                "unavailable — full-resync from scan()")
        frags = [{"part_id": part, "path": path, "rg": rg, "epoch": int(ep["epoch"])}
                 for ep in self.manifest.epochs
                 if int(ep["epoch"]) > old.committed_epoch and ep["path"] is not None
                 for part, path, rg, _ in self._segment_rows_of(ep["path"])]
        if any(f["rg"] < 0 for f in frags):
            raise RuntimeError(
                "a selected epoch is a whole-file delta of the retired "
                "groupby apply; compact() the lake, then full-resync from "
                "scan()")
        if not frags:
            return rd.from_arrow(_empty_table(_CHANGE_COLUMNS))
        if not collapsed:
            return rd.from_items(frags).map_batches(
                functools.partial(_change_rows, self.lake_dir),
                batch_format="pyarrow", batch_size=8)
        # collapsed: group fragments per partition, latest (epoch, seq) wins,
        # tombstones retained (op='D' rows mark deletions in the net set)
        by_part: dict[int, list[dict[str, Any]]] = {}
        for f in frags:
            by_part.setdefault(f["part_id"], []).append(f)
        desc = [{"part_id": p, "paths": [f["path"] for f in fs],
                 "ranks": [f["epoch"] for f in fs], "rgs": [f["rg"] for f in fs]}
                for p, fs in sorted(by_part.items())]
        return rd.from_items(desc).map_batches(
            functools.partial(_net_changes, self.lake_dir),
            batch_format="pyarrow", batch_size=_per_task(len(desc)),
        ).randomize_block_order(seed=0)  # fusion barrier — see scan()

    def scan_table(self, columns: list[str] | None = None) -> pa.Table:
        """Small-scale convenience: full merged snapshot as one Arrow table."""
        tabs = [ray.get(r) for r in self.scan(columns).to_arrow_refs()]
        tabs = [t for t in tabs if t.num_rows or t.num_columns]
        return pa.concat_tables(tabs, promote_options="permissive") if tabs else pa.table({})

    # -- maintenance -------------------------------------------------------

    def clone(self, dst_dir: str, at_version: int | None = None,
              include_indexes: bool = True) -> dict[str, int]:
        """Zero-copy BRANCH of this lake at ``at_version`` (default:
        latest): hardlink the manifest closure (every retained version ≤
        the branch point, their bases, intent segments and delta run
        files) and — by default — the incremental dedup/near-dup/ANN
        sidecar indexes into ``dst_dir``. Metadata-only cost (no data
        bytes move on one filesystem), and the branches are fully
        independent afterwards: every writer in this engine mutates files
        only via tmp+rename, so ingest / compact / dedup / ``vacuum`` on
        either side can never corrupt the other (see
        ``state/manifest.py:clone_lake``). The use case is curation
        experiments — try an aggressive dedup or filter recipe on a
        branch of a 100 TB lake without copying it or risking the
        mainline. Returns ``{"version", "manifests", "linked",
        "copied"}``."""
        return mf.clone_lake(self.lake_dir, dst_dir, at_version=at_version,
                             include_indexes=include_indexes)

    def compact(self, row_group_size: int = 32768) -> dict[str, Any]:
        """Fold each partition's base+deltas into a single new base file
        (shuffle-free; plain Ray tasks of a few partitions each — no Ray
        Data plan, whose start-up cost more than the fold itself on small
        lakes), then commit a new manifest version. Physically drops
        tombstoned rows.

        STREAMING k-way merge (``_streaming_compact_write``): the previous
        base is already doc_id-sorted with bounded row groups and the
        deltas are the small level-0 pile, so each task's peak memory is
        O(row group + the task's deltas: it reads each run file once for
        its partitions), never O(partition) — at 100 TB / 4096
        partitions a concat+sort of the whole partition would be a ~25 GB
        single-task sort. The new base stays CLUSTERED by key with bounded
        row groups, so parquet min/max stats keep point lookups reading
        only matching row groups."""
        desc = self._descriptors()
        if not desc:
            return {"compacted": 0}
        m = self.manifest
        epoch = m.committed_epoch

        intents = _in_task_groups(_compact_task, self.lake_dir, desc, epoch,
                                  m.version + 1, row_group_size)

        new = mf.Manifest(
            version=m.version + 1, num_partitions=m.num_partitions,
            committed_epoch=m.committed_epoch, fence_token=self.fence_token,
            schema=m.schema, stats=dict(m.stats),
            epochs=[],  # all folded into bases
        )
        # the change-feed retention marker: epochs ≤ this lost their
        # per-epoch fragments to this fold (changes() full-resync boundary)
        new.stats["folded_epoch"] = m.committed_epoch
        for k, ps in m.partitions.items():
            new.partitions[k] = mf.PartitionState(ps.watermark_seq, list(ps.files))
        for part, rel, n, _ in intents:
            new.part(part).files = [
                {"path": rel, "kind": "base", "epoch": epoch, "rows": n}
            ]
        mf.commit(self.lake_dir, new)
        self.manifest = new
        return {"compacted": len(intents), "version": new.version,
                # memory-bound witness: the largest single merge chunk any
                # task materialized (≤ row_group_size + delta rows)
                "max_chunk_rows": max((i[3] for i in intents), default=0)}

    def reshard(self, new_num_partitions: int,
                row_group_size: int = 32768) -> dict[str, Any]:
        """Change the lake's hash-partition count — the maintenance op a
        growing lake needs when the layout chosen at creation stops
        fitting (too-fat partitions at 100 TB, or too many tiny ones).

        Two storage-mediated stages of plain Ray tasks (four partitions
        per task, like ``compact()``; no Ray Data plan and NO Ray
        all-to-all): stage 1 folds each OLD partition (the same
        bounded-memory streaming fold as ``compact()``) and splits it by
        the new hash into per-new-partition sorted fragments; stage 2
        k-way merges each NEW partition's key-disjoint fragments into a
        single clustered base. A fenced manifest commit publishes the new
        layout atomically; older retained versions keep their own partition map,
        so time travel and version-pinned ``lookup``/``scan`` keep
        working across the boundary. Like compaction, resharding folds
        the epoch segments (``changes()`` consumers behind this version
        must full-resync).

        New-partition watermarks take the GLOBAL max of the old ones:
        reshard runs at a committed-epoch boundary and WAL seqs are
        contiguous per epoch, so any not-yet-applied event carries a seq
        above every committed one; the global max can only classify
        ALREADY-APPLIED events as replays. Scale note: prefer
        multiplicative hops (N→kN or kN→N) — then each old partition
        splits into exactly k (or 1) fragment files; an arbitrary count is
        correct but fans out to min(new, rows) open writers per old
        partition."""
        new_n = int(new_num_partitions)
        if new_n < 1:
            raise ValueError("new_num_partitions must be >= 1")
        m = self.manifest
        if new_n == m.num_partitions:
            return {"resharded": False, "num_partitions": new_n,
                    "version": m.version}
        import shutil

        # sweep intermediates from crashed prior reshards (never
        # referenced by any manifest — invisible to readers, pure litter)
        for d in os.listdir(self.lake_dir):
            if d.startswith("_reshard-tmp-"):
                shutil.rmtree(os.path.join(self.lake_dir, d),
                              ignore_errors=True)
        tmp_rel = f"_reshard-tmp-{m.version + 1}"
        epoch = m.committed_epoch
        intents = _in_task_groups(_reshard_split_task, self.lake_dir,
                                  self._descriptors(), new_n, tmp_rel,
                                  row_group_size)
        groups: dict[int, list[str]] = {}
        for part, rel, _ in intents:
            groups.setdefault(part, []).append(rel)
        finals = _in_task_groups(_reshard_merge_task, self.lake_dir,
                                 sorted(groups.items()), epoch, m.version + 1,
                                 row_group_size)

        gwm = max((ps.watermark_seq for ps in m.partitions.values()),
                  default=-1)
        new = mf.Manifest(
            version=m.version + 1, num_partitions=new_n,
            committed_epoch=epoch, fence_token=self.fence_token,
            schema=m.schema, stats=dict(m.stats), epochs=[],
        )
        new.stats["folded_epoch"] = epoch
        for k in range(new_n):
            # every new partition gets a state row even when empty — the
            # watermark must exist to replay-filter future events
            new.partitions[str(k)] = mf.PartitionState(gwm, [])
        for part, rel, n, _ in finals:
            new.part(part).files = [
                {"path": rel, "kind": "base", "epoch": epoch, "rows": n}]
        mf.commit(self.lake_dir, new)
        self.manifest = new
        self.num_partitions = new_n
        shutil.rmtree(os.path.join(self.lake_dir, tmp_rel),
                      ignore_errors=True)
        return {"resharded": True, "num_partitions": new_n,
                "version": new.version,
                "rows": sum(f[2] for f in finals),
                "max_gather_rows": max((f[3] for f in finals), default=0)}

    def would_compact(self, max_fragments: int = 8) -> bool:
        """The compaction-policy predicate, exposed so pre-compaction work
        (``tail``'s dedup feed drain) keys off the SAME condition."""
        return len(self.manifest.epochs) > max_fragments

    def maybe_compact(self, max_fragments: int = 8) -> dict[str, Any] | None:
        """Compaction policy: fold when the number of uncompacted epoch
        segments exceeds ``max_fragments`` (bounds both merge-on-read
        read-amplification and manifest-segment count; the LSM level-0
        trigger). Used by ``tail`` for continuous ingest."""
        if not self.would_compact(max_fragments):
            return None
        out = self.compact()
        self.vacuum()
        return out

    def vacuum(self, keep_versions: int = 2) -> list[str]:
        """Physically delete files no RETAINED manifest version references.
        Time travel (``scan(at_version=)``) keeps working for every retained
        version — the live set unions base + delta paths across all of them
        (see ``state.manifest.vacuum``)."""
        return mf.vacuum(self.lake_dir, keep_versions=keep_versions)
