"""Incremental content dedup: dedup NEWLY ingested docs against a persisted
content-hash index, without rescanning the lake.

``CDCEngine.dedup_lake`` is the full-corpus maintenance pass; at 10^10 docs
re-running it per micro-batch would re-hash the whole lake every time. This
module keeps a hash-sharded index of (content-hash → winning doc_id, seq)
under ``lake/_dedup_index/`` and, per run, processes only the NET CHANGE SET
since the last run (``CDCEngine.changes(collapsed=True)``) — work is O(new
docs), not O(lake).

Correctness under churn: index entries go stale when their doc is later
updated or deleted. Stale entries can never cause a wrong delete — every
candidate loser whose winner came FROM THE INDEX is verified against the
live lake before its tombstone is written. Verification is two-tier so it
never decodes token payloads in the common case:

1. seq check — point ``lookup`` of the incumbents' (seq, op) columns only
   (tiny pages). Every update assigns a fresh, strictly higher seq, so
   seq-unchanged ⇒ content-unchanged, exactly; absent/tombstoned ⇒ dead.
2. hash recheck — ONLY for incumbents that are live but seq-changed (they
   may have been updated *back* to the indexed content): one payload
   lookup of just those docs, re-hash, compare. A confirmed match gets its
   index entry refreshed to the new seq; a mismatch is dropped.

A stale entry is dropped from the index with an op='D' marker row (the
index itself is a tiny LSM) — without the drop a stale minimum would
shadow the live incumbent forever and duplicate content would accumulate.
Verification cost is O(collision candidates) seq reads + O(churned
incumbents) payload reads, bounded by the run's new-doc count, never the
lake. Only those index-collision candidates ever reach the driver; the
in-batch losers of brand-new contents — lake-sized at bootstrap — stay a
Dataset all the way into ``delete_dataset``, whose block tasks write the
tombstones straight into run files.

State: ``_dedup_index/state.json`` (last processed manifest version + the
immutable shard count) written atomically AFTER the delete epoch commits.
A crash between delete and state write is safe: the rerun's change feed
shows the deleted docs as tombstones (dropped), and index segments are
content-addressed (idempotent overwrite). If compaction folded away the
epochs the change feed needs, the run raises the standard full-resync
error — rebuild by removing ``_dedup_index/`` and re-running (the next run
bootstraps from a full scan).

Index layout: ``seg-{sha1(content)}-s{shard:04d}.parquet`` with columns
(h1, h2, doc_id, seq, op); append-only, op='D' rows drop earlier
(hash, doc) adds (the newest add of a redropped pair wins by max seq);
readers resolve live entries per hash. Shard count is fixed at index
creation (persisted in state.json).

Bloom prefilter: each shard keeps a ``bloom-s{shard:04d}.bin`` side-file
(16 KiB bit array over the shard's indexed h1 values). A run's resolve
task tests its batch hashes against the Bloom BEFORE opening the shard's
segment pile — in steady state most shards receive only brand-new
content, so the whole pile read is skipped (at 4096-shard scale that is
the difference between touching every shard and touching the few with
real collisions). The Bloom is a SUPERSET filter: 'A' writes OR bits in,
'D' drops never clear them (false positives only cost one pile read),
and ``compact_index`` rebuilds it exactly from the live set. A missing
side-file (pre-Bloom index) means "read the pile", after which the
filter is self-healed from the live entries. Run results report
``index_shards_probed`` / ``index_shards_read`` so the skip rate is
observable (the dedup soak tracks it).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.dedup import content_hash_pair
from ..stages.exchange import exchange_group_map


def _index_dir(lake_dir: str) -> str:
    return os.path.join(lake_dir, "_dedup_index")


def _load_state(lake_dir: str) -> dict | None:
    p = os.path.join(_index_dir(lake_dir), "state.json")
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def _save_state(lake_dir: str, state: dict) -> None:
    p = os.path.join(_index_dir(lake_dir), "state.json")
    tmp = p + f".tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(state, f)
    os.replace(tmp, p)


def _write_segment(idx_dir: str, shard: int, df: pd.DataFrame) -> str:
    """Content-addressed index segment (h1, h2, doc_id, seq, op): a task
    retry overwrites the same file with the same bytes."""
    t = pa.table({
        "h1": pa.array(df["h1"].to_numpy(dtype=np.int64)),
        "h2": pa.array(df["h2"].to_numpy(dtype=np.int64)),
        "doc_id": pa.array(df["doc_id"].astype(str).tolist(), pa.string()),
        "seq": pa.array(df["seq"].to_numpy(dtype=np.int64)),
        "op": pa.array(df["op"].astype(str).tolist(), pa.string()),
    })
    name = hashlib.sha1("\x00".join(sorted(
        df["doc_id"].astype(str) + ":" + df["seq"].astype(str) + ":"
        + df["op"].astype(str))).encode()).hexdigest()[:20]
    final = os.path.join(idx_dir, f"seg-{name}-s{shard:04d}.parquet")
    tmp = final + f".tmp-{os.getpid()}"
    pq.write_table(t, tmp)
    os.rename(tmp, final)
    return final


_BLOOM_BITS = 1 << 17  # 16 KiB per shard; fp ≈ 2% at 16k entries/shard —
_BLOOM_K = 4           # scale num_shards (not this) for bigger indexes


def _bloom_path(idx_dir: str, shard: int) -> str:
    return os.path.join(idx_dir, f"bloom-s{shard:04d}.bin")


def _bloom_add(idx_dir: str, shard: int, h1_vals) -> None:
    """OR ``h1_vals`` into the shard's Bloom side-file (read-modify-write +
    atomic replace; single-maintainer discipline like the segment writes —
    one resolve task per shard per run, phase-B writes on the driver)."""
    from ..functions.sketch import _bloom_bits

    p = _bloom_path(idx_dir, shard)
    if os.path.exists(p):
        bits = np.frombuffer(open(p, "rb").read(), dtype=np.uint8).copy()
    else:
        bits = np.zeros(_BLOOM_BITS // 8, dtype=np.uint8)
    vals = np.asarray(h1_vals, dtype=np.int64)
    if len(vals):
        pos = _bloom_bits(vals, _BLOOM_BITS, _BLOOM_K)
        np.bitwise_or.at(bits, pos >> np.uint64(3),
                         np.uint8(1) << (pos & np.uint64(7)).astype(np.uint8))
    tmp = p + f".tmp-{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(bits.tobytes())
    os.replace(tmp, p)


def _bloom_may_contain(idx_dir: str, shard: int, h1_vals) -> bool:
    """False ⇒ NONE of ``h1_vals`` is indexed in this shard (no false
    negatives, ever). Missing side-file ⇒ True (pre-Bloom index: read the
    pile, then self-heal)."""
    from ..functions.sketch import bloom_contains

    p = _bloom_path(idx_dir, shard)
    if not os.path.exists(p):
        return True
    bloom = open(p, "rb").read()
    vals = np.asarray(h1_vals, dtype=np.int64)
    return bool(bloom_contains(bloom, vals, _BLOOM_K).any())


def _read_shard_index(idx_dir: str, shard: int) -> pd.DataFrame:
    """Live index entries of one shard: per (hash, doc) the max-seq row
    wins, op='D' winners are dropped — one row per live (h1, h2, doc_id)."""
    paths = sorted(glob.glob(os.path.join(idx_dir, f"seg-*-s{shard:04d}.parquet")))
    empty = pd.DataFrame({"h1": pd.Series([], dtype="int64"),
                          "h2": pd.Series([], dtype="int64"),
                          "doc_id": pd.Series([], dtype="string"),
                          "seq": pd.Series([], dtype="int64")})
    if not paths:
        return empty
    df = pa.concat_tables([pq.read_table(p) for p in paths]).to_pandas()
    # drops carry the seq of the entry they kill; a later re-add (same doc,
    # same hash, higher seq) revives the pair — resolve by max (seq, op)
    # where 'D' > 'A' at equal seq (the drop targeted exactly that add)
    df = df.sort_values(["h1", "h2", "doc_id", "seq", "op"], kind="mergesort")
    last = df.groupby(["h1", "h2", "doc_id"], sort=False).tail(1)
    live = last[last["op"] == "A"][["h1", "h2", "doc_id", "seq"]]
    return live if len(live) else empty


def compact_index(lake_dir: str, min_segments: int = 2) -> dict[str, Any]:
    """Fold each index shard's segment pile into ONE segment holding only
    live entries — segments otherwise accumulate one per dedup run. One Ray
    task per shard over ``min_segments`` (each reads only its own shard's
    files). Single-maintainer discipline, like ``compact``: don't run
    concurrently with a dedup run on the same lake."""
    import ray

    idx_dir = _index_dir(lake_dir)
    state = _load_state(lake_dir)
    if state is None:
        return {"compacted_shards": 0, "removed_segments": 0}
    num_shards = int(state["num_shards"])

    @ray.remote
    def fold(shard: int) -> int:
        paths = sorted(glob.glob(
            os.path.join(idx_dir, f"seg-*-s{shard:04d}.parquet")))
        if len(paths) < min_segments:
            return 0
        live = _read_shard_index(idx_dir, shard)
        keep = None
        if len(live):
            live = live.copy()
            live["op"] = "A"
            keep = _write_segment(idx_dir, shard, live)
        for p in paths:
            if p != keep:
                os.remove(p)
        # exact Bloom rebuild: compaction is the one moment the live set is
        # known in full, so dropped hashes stop costing false positives
        bp = _bloom_path(idx_dir, shard)
        if os.path.exists(bp):
            os.remove(bp)
        _bloom_add(idx_dir, shard, live["h1"].to_numpy(dtype=np.int64))
        return len(paths) - (1 if keep else 0)

    removed = ray.get([fold.remote(s) for s in range(num_shards)])
    return {"compacted_shards": int(sum(1 for r in removed if r)),
            "removed_segments": int(sum(removed))}


def dedup_incremental(engine, content_col: str | None = None,
                      num_shards: int = 64,
                      compact_over: int = 8,
                      dry_run: bool = False) -> dict[str, Any]:
    """One incremental dedup run over ``engine``'s lake. See module doc.
    ``content_col=None`` (the default) follows the existing index's column
    (or 'tokens' on bootstrap); an EXPLICIT column that conflicts with the
    index raises — silently dedup-ing on a different column than asked, or
    mixing hash spaces in one index, would both corrupt results.
    ``dry_run=True`` reports what would happen without mutating anything —
    no tombstones, no index segments, no state advance."""
    lake = engine.lake_dir
    idx_dir = _index_dir(lake)
    os.makedirs(idx_dir, exist_ok=True)
    state = _load_state(lake)
    if state is not None:
        # both are immutable once the index exists: re-sharding would
        # orphan segments; re-keying on another column would mix hash
        # spaces and drop/append against the wrong identities
        num_shards = int(state["num_shards"])
        pinned = state.get("content_col")
        if content_col is not None and pinned and content_col != pinned:
            raise ValueError(
                f"index at {idx_dir} is keyed on {pinned!r}, not "
                f"{content_col!r}; remove the index to re-key")
        content_col = pinned or content_col or "tokens"
    elif content_col is None:
        content_col = "tokens"
    if state is None and not dry_run:
        # persist the index parameters BEFORE the first segment lands: a
        # crash mid-bootstrap must not let a retry re-shard / re-key and
        # orphan the crashed run's segments ("version" is only added after
        # a successful run — its absence still means bootstrap)
        _save_state(lake, {"num_shards": num_shards,
                           "content_col": content_col})
    bootstrap = state is None or "version" not in state

    # -- the new-doc set: full scan on bootstrap, net change set after -----
    # (with_deleted=True keeps the seq column; tombstones filtered in tag)
    if bootstrap:
        new = engine.scan(columns=["doc_id", content_col, "seq", "op"],
                          with_deleted=True)
    else:
        try:
            new = engine.changes(int(state["version"]), collapsed=True)
        except RuntimeError as e:  # compaction/vacuum broke the feed
            raise RuntimeError(
                f"{e}; for incremental dedup, remove {idx_dir} and re-run "
                "— the next run rebuilds the index from a full scan") from e

    # -- phase A: hash, shard, resolve against the shard's index -----------
    def tag(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["op"], pa.scalar("D")))
        h1, h2 = content_hash_pair(t[content_col])
        shard = (h1.view(np.uint64) % np.uint64(num_shards)).astype(np.int64)
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.string()),
            "seq": pc.cast(t["seq"], pa.int64()),
            "h1": pa.array(h1), "h2": pa.array(h2), "shard": pa.array(shard),
        })

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        """Per index shard: split the shard's new docs into definite losers
        (in-batch dups of a live winner), unverified candidates (their hash
        is indexed — all of that hash's (doc, seq) entries ride along for
        the driver's liveness walk), and appends (new hashes — the winner
        goes into the index HERE, distributed)."""
        shard = int(g["shard"].iloc[0])
        # Bloom prefilter: if NO batch hash can be in this shard's index,
        # skip the segment-pile read entirely (the steady-state common case
        # — most shards only ever receive brand-new content per run)
        had_bloom = os.path.exists(_bloom_path(idx_dir, shard))
        read_idx = _bloom_may_contain(idx_dir, shard,
                                      g["h1"].to_numpy(dtype=np.int64))
        if read_idx:
            idx = _read_shard_index(idx_dir, shard)
            if not had_bloom and not dry_run:  # pre-Bloom index: self-heal
                _bloom_add(idx_dir, shard,
                           idx["h1"].to_numpy(dtype=np.int64))
        else:
            idx = pd.DataFrame({"h1": pd.Series([], dtype="int64"),
                                "h2": pd.Series([], dtype="int64"),
                                "doc_id": pd.Series([], dtype="string"),
                                "seq": pd.Series([], dtype="int64")})
        incs = (idx.sort_values("doc_id")
                .groupby(["h1", "h2"], sort=False)
                .agg(_incs=("doc_id", list), _incseqs=("seq", list))
                .reset_index())
        g = g.sort_values(["h1", "h2", "doc_id"], kind="mergesort")
        g = g.merge(incs, on=["h1", "h2"], how="left")
        first = ~g.duplicated(["h1", "h2"])  # min new doc per hash
        has_inc = g["_incs"].notna()
        # new-hash winners → append to the index now
        appends = g[first & ~has_inc].copy()
        if len(appends) and not dry_run:
            appends["op"] = "A"
            _write_segment(idx_dir, shard,
                           appends[["h1", "h2", "doc_id", "seq", "op"]])
            _bloom_add(idx_dir, shard,
                       appends["h1"].to_numpy(dtype=np.int64))
        # in-batch losers of a new-hash winner: winner is live by
        # construction → no verification needed
        win = g.groupby(["h1", "h2"], sort=False)["doc_id"].transform("min")
        sure = ~has_inc & ~first
        cand = has_inc
        empties = pd.Series([[]] * int(sure.sum()), dtype=object,
                            index=g.index[sure])
        out = pd.DataFrame({
            "doc_id": pd.concat([g.loc[sure, "doc_id"],
                                 g.loc[cand, "doc_id"]]).astype("string").values,
            "seq": pd.concat([g.loc[sure, "seq"],
                              g.loc[cand, "seq"]]).to_numpy(dtype=np.int64),
            "dup_of": pd.concat([win[sure],
                                 win[cand]]).astype("string").values,
            "h1": pd.concat([g.loc[sure, "h1"],
                             g.loc[cand, "h1"]]).to_numpy(dtype=np.int64),
            "h2": pd.concat([g.loc[sure, "h2"],
                             g.loc[cand, "h2"]]).to_numpy(dtype=np.int64),
            "incs": pd.concat([empties, g.loc[cand, "_incs"]]).values,
            "incseqs": pd.concat([empties, g.loc[cand, "_incseqs"]]).values,
            "verified": np.r_[np.ones(int(sure.sum()), dtype=bool),
                              np.zeros(int(cand.sum()), dtype=bool)],
        })
        # per-shard stats sentinel (doc_id=None, filtered out of both real
        # streams): lets the driver report Bloom probe/read counts
        stats = pd.DataFrame({
            "doc_id": pd.array([None], dtype="string"),
            "seq": np.zeros(1, dtype=np.int64),
            "dup_of": pd.array([None], dtype="string"),
            "h1": np.zeros(1, dtype=np.int64),
            "h2": np.zeros(1, dtype=np.int64),
            "incs": pd.Series([[]], dtype=object),
            "incseqs": pd.Series([[]], dtype=object),
            "verified": np.ones(1, dtype=bool),
        })
        out = pd.concat([out, stats], ignore_index=True)
        out["_idx_read"] = np.int64(read_idx)
        return out

    tagged = new.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    cand_ds = exchange_group_map(tagged, resolve, num_shards,
                                 shard_col="shard")

    # -- phase B: verify index incumbents against the live lake ------------
    # Only the INDEX-COLLISION candidates come to the driver — bounded by
    # the run's new docs (epoch-sized). The verified in-batch losers stay a
    # Dataset: at BOOTSTRAP they are lake-sized (every duplicate in the
    # corpus), so they route through the distributed delete staging, never
    # the driver.
    def split_unverified(t: pa.Table) -> pa.Table:
        if "verified" not in t.column_names:  # empty-feed schema fallback
            return t
        return t.filter(pc.equal(t["verified"], pa.scalar(False)))

    def split_sure(t: pa.Table) -> pa.Table:
        if "verified" not in t.column_names:
            return pa.table({"doc_id": pa.array([], pa.string())})
        t = t.filter(pc.and_(pc.equal(t["verified"], pa.scalar(True)),
                             pc.is_valid(t["doc_id"])))  # drop stats rows
        return t.select(["doc_id"])

    def split_stats(t: pa.Table) -> pa.Table:
        if "_idx_read" not in t.column_names:
            return pa.table({"_idx_read": pa.array([], pa.int64())})
        t = t.filter(pc.is_null(t["doc_id"]))
        return t.select(["_idx_read"])

    stats_df = cand_ds.map_batches(
        split_stats, batch_format="pyarrow").to_pandas()
    shards_probed = int(len(stats_df))
    shards_read = int(stats_df["_idx_read"].sum()) if len(stats_df) else 0
    unverified = cand_ds.map_batches(
        split_unverified, batch_format="pyarrow").to_pandas()
    # materialize: count() and the delete staging must not re-filter every
    # block twice (at bootstrap this is the lake-sized loser set)
    sure_ds = cand_ds.map_batches(split_sure,
                                  batch_format="pyarrow").materialize()
    n_sure = sure_ds.count()
    n_cand = n_sure + len(unverified)  # before the fast path filters it
    losers: list[str] = []  # phase-B resolutions only (epoch-bounded)
    if len(unverified):
        # tier 1: seq+op point lookup — no payload pages decoded
        incumbents = sorted({d for lst in unverified["incs"] for d in lst})
        cur = engine.lookup(incumbents, columns=["doc_id", "seq", "op"],
                            with_deleted=True)
        live_seq: dict[str, int] = {}
        if cur.num_rows:
            alive = cur.filter(pc.not_equal(cur["op"], pa.scalar("D")))
            live_seq = dict(zip(alive["doc_id"].to_pylist(),
                                alive["seq"].to_pylist()))
        # tier 2: payload re-hash ONLY for live-but-updated incumbents
        # (they may have been updated BACK to the indexed content)
        recheck = sorted({d for lst, sq in zip(unverified["incs"],
                                               unverified["incseqs"])
                          for d, s in zip(lst, sq)
                          if d in live_seq and live_seq[d] != int(s)})
        cur_hash: dict[str, tuple[int, int]] = {}
        if recheck:
            pay = engine.lookup(recheck, columns=["doc_id", content_col])
            if pay.num_rows:
                rh1, rh2 = content_hash_pair(pay[content_col])
                cur_hash = {d: (int(x), int(y)) for d, x, y in
                            zip(pay["doc_id"].to_pylist(), rh1, rh2)}
        # vectorized fast path — the common shape by far: ONE index entry
        # for the hash and its seq matches the live lake. The incs list is
        # identical for every row of a hash (one shard owns a hash), so a
        # per-row mask removes whole hash groups at once; without this the
        # slow path loops over one Python group per duplicated content
        # (measured: a 50k-group loop dominated the dedup soak's wall time)
        inc0 = unverified["incs"].map(lambda l: l[0])
        seq0 = unverified["incseqs"].map(lambda l: int(l[0]))
        fast = ((unverified["incs"].map(len) == 1)
                & (inc0.map(live_seq) == seq0))
        losers.extend(unverified.loc[
            fast & (unverified["doc_id"] != inc0), "doc_id"])
        unverified = unverified[~fast]

        shard_rows: dict[int, list[dict]] = {}  # batch writes: ONE segment
        for (h1, h2), grp in unverified.groupby(["h1", "h2"]):  # per shard
            pairs = sorted({(d, int(s)) for lst, sq in
                            zip(grp["incs"], grp["incseqs"])
                            for d, s in zip(lst, sq)})
            matching, refreshed, stale = [], [], []
            for d, s in pairs:
                if live_seq.get(d) == s:
                    matching.append(d)
                elif (d in live_seq
                      and cur_hash.get(d) == (int(h1), int(h2))):
                    matching.append(d)       # content reverted: still a dup
                    refreshed.append((d, live_seq[d]))
                    stale.append((d, s))     # old-seq entry superseded
                else:
                    stale.append((d, s))
            shard = int(np.uint64(np.int64(h1)) % np.uint64(num_shards))
            rows = ([{"h1": h1, "h2": h2, "doc_id": d, "seq": s, "op": "D"}
                     for d, s in stale]
                    + [{"h1": h1, "h2": h2, "doc_id": d, "seq": s, "op": "A"}
                       for d, s in refreshed])
            docs = sorted(set(grp["doc_id"]))
            if matching:
                winner = sorted(matching)[0]
                losers.extend(d for d in docs if d != winner)
            else:
                # no live incumbent: the minimal new doc takes over
                winner = docs[0]
                wseq = int(grp.loc[grp["doc_id"] == winner, "seq"].iloc[0])
                rows.append({"h1": h1, "h2": h2, "doc_id": winner,
                             "seq": wseq, "op": "A"})
                losers.extend(docs[1:])
            if rows:
                shard_rows.setdefault(shard, []).extend(rows)
        if not dry_run:
            for shard, rows in shard_rows.items():
                df = pd.DataFrame(rows)
                _write_segment(idx_dir, shard, df)
                adds = df.loc[df["op"] == "A", "h1"]
                if len(adds):
                    _bloom_add(idx_dir, shard, adds.to_numpy(dtype=np.int64))

    # -- phase C: tombstone losers through the ordinary delete epoch -------
    if dry_run:
        return {"duplicates": n_sure + len(set(losers)), "dry_run": True,
                "method": "incremental", "bootstrap": bootstrap,
                "candidates": int(n_cand), "num_shards": num_shards,
                "index_shards_probed": shards_probed,
                "index_shards_read": shards_read}
    to_delete = sure_ds
    if losers:
        import ray.data as rd
        extra = pa.table({"doc_id": pa.array(sorted(set(losers)), pa.string())})
        to_delete = sure_ds.union(rd.from_arrow(extra))
    out: dict[str, Any] = {"deleted": 0}
    if n_sure or losers:
        out = engine.delete_dataset(to_delete)
    out.update({
        "method": "incremental",
        "bootstrap": bootstrap,
        "candidates": int(n_cand),
        "num_shards": num_shards,
        "index_shards_probed": shards_probed,
        "index_shards_read": shards_read,
    })
    _save_state(lake, {"version": engine.manifest.version,
                       "num_shards": num_shards,
                       "content_col": content_col})
    # bound the per-shard segment pile: a couple of segments land per run
    # (phase-A appends + one batched phase-B segment per shard), so past
    # the threshold fold each hot shard back to a single live segment
    if compact_over:
        per_shard: dict[str, int] = {}
        for p in glob.glob(os.path.join(idx_dir, "seg-*.parquet")):
            sfx = p.rsplit("-s", 1)[-1]
            per_shard[sfx] = per_shard.get(sfx, 0) + 1
        if per_shard and max(per_shard.values()) > compact_over:
            out["index_compaction"] = compact_index(lake,
                                                    min_segments=compact_over)
    return out
