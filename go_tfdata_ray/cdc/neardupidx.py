"""Incremental NEAR-dup dedup: MinHash/LSH dedup of newly ingested docs
against a persisted index, without rescanning the lake.

``CDCEngine.dedup_lake(method="minhash")`` is the full-corpus maintenance
pass; at 10^10 docs re-running it per micro-batch re-signs the whole lake
every time. This module is the near-dup twin of ``cdc/dedupidx.py`` (exact
content dedup): per run it processes only the NET CHANGE SET since the last
run — work is O(new docs), not O(lake).

Index layout under ``lake/_neardup_index/`` — two LSM piles plus state:

- **postings** ``post-<sha1>-s{shard:04d}.parquet`` (bucket, doc_id, seq,
  op): one row per (LSH band-bucket, doc). Sharded by ``bucket %
  num_shards``; each shard keeps a Bloom side-file over its bucket values
  (same machinery as the exact index) so probe tasks skip shards that hold
  none of the run's buckets.
- **signatures** ``sig-<sha1>-s{shard:04d}.parquet`` (doc_id, seq, sig,
  op): the forward MinHash signature store (``n_perm`` × 8 bytes per doc,
  stored ONCE — postings never carry signatures, so the per-doc index cost
  is sig + bands × ~24 B, not bands × sig). Sharded by
  ``hash(doc_id) % num_shards``.
- ``state.json``: the pinned signature-space parameters (content_col,
  n_perm, k, bands, token_mode, num_shards) + the last processed manifest
  version. The banding kernel is ``functions.dedup.band_buckets`` — the
  SAME constants as the batch ``minhash_lsh_dedup``, so the two bucket
  spaces agree.

Completeness invariant: every run appends postings + signature for EVERY
non-tombstone doc in its feed (bootstrap = full scan, then change feeds),
so a live doc's CURRENT content is always indexed at its live seq. That
makes staleness purely seq-detectable — no content re-hash tier is needed
(unlike the exact index): a posting whose seq differs from the doc's live
lake seq describes dead content and is dropped with an op='D' marker; the
doc's current content, if still colliding, is represented by its own
newer posting appended by the run that saw the update.

Correctness under churn, mirroring the exact index: a candidate loser is
deleted ONLY against an incumbent verified live at the indexed seq, with
signature-estimated Jaccard ≥ threshold computed from the signature
store's live entry (falling back to a lake lookup + re-sign if the store
entry lags — a defensive path, unreachable while the invariant holds).
Dead incumbents found at probe time get posting + signature 'D' rows
(sig 'D' at the tombstone's lake seq, which exceeds every indexed 'A').

Semantics match ``minhash_lsh_dedup``'s cluster-by-representative
contraction: within a run, each bucket's min-key doc is the representative
and collisions are flagged against it; across runs, a live verified
incumbent wins over any newcomer (first-seen-wins, the standard crawl
policy). Losers' own postings/sigs are appended before they lose (shards
can't know cross-shard outcomes) — they tombstone in the LAKE and their
index entries are lazily dropped by the same staleness machinery when next
probed, or folded out by ``compact_neardup_index``.

Driver-side materialization is bounded exactly like the exact index: only
index-collision CANDIDATE pairs (ids + seqs + one signature per new doc,
epoch-sized) reach the driver; in-batch losers — lake-sized at bootstrap —
stay a Dataset through the key-sharded flag-dedup exchange into
``delete_dataset``, whose block tasks write the tombstones straight into
run files.
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

from ..functions.dedup import (MinHasher, TokenMinHasher, _stable_hash,
                               band_buckets)
from ..functions.text import _worker_cached
from ..stages.exchange import exchange_group_map
from .dedupidx import _bloom_add, _bloom_may_contain, _bloom_path


def _index_dir(lake_dir: str) -> str:
    return os.path.join(lake_dir, "_neardup_index")


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


_POST_SCHEMA = pa.schema([("bucket", pa.int64()), ("doc_id", pa.string()),
                          ("seq", pa.int64()), ("op", pa.string())])
_SIG_SCHEMA = pa.schema([("doc_id", pa.string()), ("seq", pa.int64()),
                         ("sig", pa.binary()), ("op", pa.string())])


def _write_seg(idx_dir: str, kind: str, shard: int, df: pd.DataFrame) -> str:
    """Content-addressed index segment: a task retry overwrites the same
    file with the same bytes (idempotent, like the exact index)."""
    if kind == "post":
        t = pa.table({
            "bucket": pa.array(df["bucket"].to_numpy(dtype=np.int64)),
            "doc_id": pa.array(df["doc_id"].astype(str).tolist(), pa.string()),
            "seq": pa.array(df["seq"].to_numpy(dtype=np.int64)),
            "op": pa.array(df["op"].astype(str).tolist(), pa.string()),
        })
        ident = (df["bucket"].astype(str) + ":" + df["doc_id"].astype(str)
                 + ":" + df["seq"].astype(str) + ":" + df["op"].astype(str))
    else:
        t = pa.table({
            "doc_id": pa.array(df["doc_id"].astype(str).tolist(), pa.string()),
            "seq": pa.array(df["seq"].to_numpy(dtype=np.int64)),
            "sig": pa.array(list(df["sig"]), pa.binary()),
            "op": pa.array(df["op"].astype(str).tolist(), pa.string()),
        })
        ident = (df["doc_id"].astype(str) + ":" + df["seq"].astype(str)
                 + ":" + df["op"].astype(str))
    name = hashlib.sha1("\x00".join(sorted(ident)).encode()).hexdigest()[:20]
    final = os.path.join(idx_dir, f"{kind}-{name}-s{shard:04d}.parquet")
    tmp = final + f".tmp-{os.getpid()}"
    pq.write_table(t, tmp)
    os.rename(tmp, final)
    return final


def _read_live(idx_dir: str, kind: str, shard: int) -> pd.DataFrame:
    """Live entries of one shard's pile: per key (posting: (bucket, doc_id);
    sig: doc_id) the max-seq row wins, 'D' > 'A' at equal seq."""
    paths = sorted(glob.glob(
        os.path.join(idx_dir, f"{kind}-*-s{shard:04d}.parquet")))
    schema = _POST_SCHEMA if kind == "post" else _SIG_SCHEMA
    empty = schema.empty_table().to_pandas()
    if not paths:
        return empty
    df = pa.concat_tables([pq.read_table(p) for p in paths]).to_pandas()
    keys = ["bucket", "doc_id"] if kind == "post" else ["doc_id"]
    df = df.sort_values(keys + ["seq", "op"], kind="mergesort")
    last = df.groupby(keys, sort=False).tail(1)
    live = last[last["op"] == "A"].drop(columns=["op"])
    return live if len(live) else empty.drop(columns=["op"])


class _SigStage:
    """Worker-cached signature stage over the change feed: (doc_id, seq,
    content) → (doc_id, seq, sig bytes). Tombstones are filtered here (a
    delete carries no content to sign; its index entries are lazily
    dropped by the probe-time liveness check)."""

    def __init__(self, content_col: str, n_perm: int, k: int,
                 token_mode: bool):
        cls = TokenMinHasher if token_mode else MinHasher
        self.h = cls(text_col=content_col, key_col="doc_id", k=k,
                     n_perm=n_perm)
        self.content_col, self.token_mode = content_col, token_mode

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        if "op" in df.columns:
            df = df[df["op"] != "D"]
        vals = (df[self.content_col].tolist() if self.token_mode
                else df[self.content_col].astype(str).tolist())
        sig = self.h.batch_signatures(vals).astype(np.int64)
        out = pd.DataFrame({
            "doc_id": df["doc_id"].astype(str).to_numpy(),
            "seq": df["seq"].to_numpy(dtype=np.int64),
        })
        out["sig"] = [r.tobytes() for r in sig]
        return out


def compact_neardup_index(lake_dir: str, min_segments: int = 2) -> dict[str, Any]:
    """Fold each shard's posting and signature piles into one live segment
    each (segments otherwise accumulate per run); exact Bloom rebuild per
    posting shard. One Ray task per (kind, shard). Single-maintainer
    discipline — don't run concurrently with a dedup run on the same lake."""
    import ray

    idx_dir = _index_dir(lake_dir)
    state = _load_state(lake_dir)
    if state is None:
        return {"compacted_shards": 0, "removed_segments": 0}
    num_shards = int(state["num_shards"])

    @ray.remote
    def fold(kind: str, shard: int) -> int:
        paths = sorted(glob.glob(
            os.path.join(idx_dir, f"{kind}-*-s{shard:04d}.parquet")))
        if len(paths) < min_segments:
            return 0
        live = _read_live(idx_dir, kind, shard)
        keep = None
        if len(live):
            live = live.copy()
            live["op"] = "A"
            keep = _write_seg(idx_dir, kind, shard, live)
        for p in paths:
            if p != keep:
                os.remove(p)
        if kind == "post":
            bp = _bloom_path(idx_dir, shard)
            if os.path.exists(bp):
                os.remove(bp)
            _bloom_add(idx_dir, shard,
                       live["bucket"].to_numpy(dtype=np.int64)
                       if len(live) else np.array([], dtype=np.int64))
        return len(paths) - (1 if keep else 0)

    removed = ray.get([fold.remote(kind, s) for kind in ("post", "sig")
                       for s in range(num_shards)])
    return {"compacted_shards": int(sum(1 for r in removed if r)),
            "removed_segments": int(sum(removed))}


def neardup_incremental(engine, content_col: str | None = None,
                        num_shards: int = 64,
                        n_perm: int = 64, k: int = 5, bands: int = 16,
                        threshold: float = 0.85,
                        compact_over: int = 8,
                        dry_run: bool = False,
                        return_pairs: bool = False) -> dict[str, Any]:
    """One incremental near-dup run over ``engine``'s lake. See module doc.

    The signature-space parameters (content_col, n_perm, k, bands) are
    pinned at index creation — a conflicting explicit value raises (mixing
    signature spaces in one index would corrupt every estimate).
    ``threshold`` is per-run (signatures are threshold-independent).
    ``dry_run=True`` reports without mutating anything.
    ``return_pairs=True`` adds ``out["pairs"]``, a driver-side
    ``pa.Table (doc_id, dup_of)`` of the tombstoned docs and their
    winners — epoch-bounded in steady state, but LAKE-SIZED at a
    duplicate-heavy bootstrap: leave it off for production runs there."""
    lake = engine.lake_dir
    idx_dir = _index_dir(lake)
    os.makedirs(idx_dir, exist_ok=True)
    state = _load_state(lake)
    if state is not None:
        num_shards = int(state["num_shards"])
        for name, given in (("content_col", content_col),
                            ("n_perm", n_perm), ("k", k), ("bands", bands)):
            pinned = state.get(name)
            if given is not None and pinned is not None and given != pinned:
                raise ValueError(
                    f"index at {idx_dir} pins {name}={pinned!r}; got "
                    f"{given!r} — remove the index to re-parameterize")
        content_col = state["content_col"]
        n_perm, k, bands = int(state["n_perm"]), int(state["k"]), int(state["bands"])
        token_mode = bool(state["token_mode"])
    else:
        content_col = content_col or "tokens"
        token_mode = content_col == "tokens"
    if n_perm % bands:
        raise ValueError(f"n_perm={n_perm} not divisible by bands={bands}")
    params = {"num_shards": num_shards, "content_col": content_col,
              "n_perm": n_perm, "k": k, "bands": bands,
              "token_mode": token_mode}
    if state is None and not dry_run:
        # pin parameters BEFORE the first segment lands: a crash
        # mid-bootstrap must not let a retry re-shard / re-key ("version"
        # is only added after a successful run — its absence still means
        # bootstrap)
        _save_state(lake, params)
    bootstrap = state is None or "version" not in state

    if bootstrap:
        feed = engine.scan(columns=["doc_id", content_col, "seq", "op"],
                           with_deleted=True)
    else:
        try:
            feed = engine.changes(int(state["version"]), collapsed=True)
        except RuntimeError as e:  # compaction/vacuum broke the feed
            raise RuntimeError(
                f"{e}; for incremental near-dup, remove {idx_dir} and "
                "re-run — the next run rebuilds from a full scan") from e

    # -- signatures once; both exchanges read this --------------------------
    # (bootstrap materializes the signature set — doc ids + n_perm*8 B each,
    # a few % of corpus bytes, spilled by the object store; steady-state
    # runs are epoch-sized)
    sigs = feed.map_batches(
        _worker_cached(_SigStage, content_col, n_perm, k, token_mode),
        batch_format="pandas", batch_size=1024).materialize()

    # -- signature-store appends (doc-hash sharded) -------------------------
    def sig_shard(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["_ss"] = (_stable_hash(df["doc_id"].to_numpy())
                      % np.uint64(num_shards)).astype(np.int64)
        return out

    def write_sigs(g: pd.DataFrame) -> pd.DataFrame:
        if not dry_run:
            g = g.assign(op="A")
            _write_seg(idx_dir, "sig", int(g["_ss"].iloc[0]), g)
        return pd.DataFrame({"n": [len(g)]})

    n_signed = 0
    if sigs.count():
        for b in exchange_group_map(sigs.map_batches(
                sig_shard, batch_format="pandas"), write_sigs,
                num_shards, shard_col="_ss").iter_batches(
                    batch_format="pandas"):
            n_signed += int(b["n"].sum())

    # -- postings probe + append (bucket sharded) ---------------------------
    def to_buckets(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        if n == 0:
            return pd.DataFrame({"_ps": pd.Series([], dtype="int64"),
                                 "bucket": pd.Series([], dtype="int64"),
                                 "doc_id": pd.Series([], dtype="string"),
                                 "seq": pd.Series([], dtype="int64"),
                                 "sig": pd.Series([], dtype=object)})
        sig = np.frombuffer(b"".join(df["sig"]), dtype=np.int64)
        sig = sig.reshape(n, -1).astype(np.uint64)
        bucket = band_buckets(sig, bands)  # (n, bands)
        return pd.DataFrame({
            "_ps": (bucket.reshape(-1) % num_shards).astype(np.int64),
            "bucket": bucket.reshape(-1),
            "doc_id": np.repeat(df["doc_id"].to_numpy(), bands),
            "seq": np.repeat(df["seq"].to_numpy(dtype=np.int64), bands),
            "sig": np.repeat(df["sig"].to_numpy(), bands),
        })

    def probe(g: pd.DataFrame) -> pd.DataFrame:
        """Per posting shard: append this run's postings; contract in-batch
        collisions against each bucket's min-key representative (sure
        losers — verified, rep is live in the same feed); emit incumbent
        collisions as unverified candidates for the driver's liveness +
        signature walk."""
        shard = int(g["_ps"].iloc[0])
        had_bloom = os.path.exists(_bloom_path(idx_dir, shard))
        read_idx = _bloom_may_contain(idx_dir, shard,
                                      g["bucket"].to_numpy(dtype=np.int64))
        if read_idx:
            idx = _read_live(idx_dir, "post", shard)
            if not had_bloom and not dry_run:  # pre-Bloom shard: self-heal
                _bloom_add(idx_dir, shard,
                           idx["bucket"].to_numpy(dtype=np.int64))
        else:
            idx = _POST_SCHEMA.empty_table().to_pandas().drop(columns=["op"])
        if not dry_run:
            _write_seg(idx_dir, "post", shard,
                       g[["bucket", "doc_id", "seq"]].assign(op="A"))
            _bloom_add(idx_dir, shard, g["bucket"].to_numpy(dtype=np.int64))
        g = g.sort_values(["bucket", "doc_id"], kind="mergesort").reset_index(drop=True)
        sig = np.frombuffer(b"".join(g["sig"]), dtype=np.int64).reshape(len(g), -1)
        bucket = g["bucket"].to_numpy()
        new = np.r_[True, np.diff(bucket) != 0]
        rep = np.flatnonzero(new)[np.cumsum(new) - 1]
        est = (sig == sig[rep]).mean(axis=1)
        keys = g["doc_id"].to_numpy()
        sure_mask = (est >= threshold) & (np.arange(len(g)) != rep)
        # incumbent collisions: group the shard's live postings per bucket
        incs = (idx.sort_values("doc_id")
                .groupby("bucket", sort=False)
                .agg(_incs=("doc_id", list), _incseqs=("seq", list)))
        gi = g.join(incs, on="bucket")
        cand_mask = gi["_incs"].notna().to_numpy()
        # drop self-matches (the doc's own older postings): they're pure
        # seq-staleness, handled when someone else probes them
        cand_rows = []
        for i in np.flatnonzero(cand_mask):
            pairs = [(d, int(s)) for d, s in zip(gi["_incs"].iloc[i],
                                                 gi["_incseqs"].iloc[i])
                     if d != keys[i]]
            if pairs:
                cand_rows.append({
                    "doc_id": keys[i], "seq": int(g["seq"].iloc[i]),
                    "bucket": int(bucket[i]), "sig": g["sig"].iloc[i],
                    "incs": [d for d, _ in pairs],
                    "incseqs": [s for _, s in pairs],
                })
        sure = pd.DataFrame({
            "doc_id": keys[sure_mask], "seq": g["seq"].to_numpy()[sure_mask],
            "bucket": bucket[sure_mask],
            "sig": [b""] * int(sure_mask.sum()),
            "incs": pd.Series([[]] * int(sure_mask.sum()), dtype=object),
            "incseqs": pd.Series([[]] * int(sure_mask.sum()), dtype=object),
            "dup_of": keys[rep[sure_mask]],
            "verified": np.ones(int(sure_mask.sum()), dtype=bool),
        })
        cand = pd.DataFrame(cand_rows, columns=["doc_id", "seq", "bucket",
                                                "sig", "incs", "incseqs"])
        cand["dup_of"] = pd.array([None] * len(cand), dtype="string")
        cand["verified"] = np.zeros(len(cand), dtype=bool)
        stats = pd.DataFrame({
            "doc_id": pd.array([None], dtype="string"),
            "seq": np.zeros(1, dtype=np.int64),
            "bucket": np.zeros(1, dtype=np.int64),
            # non-empty typed sentinels (row is dropped downstream via
            # is_valid(doc_id)): they pin list<string>/list<int64> so a
            # shard with no candidates can't infer list<null> and trip
            # schema unification against its siblings
            "sig": [b""], "incs": pd.Series([[""]], dtype=object),
            "incseqs": pd.Series([[np.int64(0)]], dtype=object),
            "dup_of": pd.array([None], dtype="string"),
            "verified": np.ones(1, dtype=bool),
        })
        out = pd.concat([sure, cand, stats], ignore_index=True)
        out["_idx_read"] = np.int64(read_idx)
        return out

    buckets = sigs.map_batches(to_buckets, batch_format="pandas")
    cand_ds = exchange_group_map(buckets, probe, num_shards, shard_col="_ps")

    def split_unverified(t: pa.Table) -> pa.Table:
        if "verified" not in t.column_names:
            return t
        return t.filter(pc.and_(pc.equal(t["verified"], pa.scalar(False)),
                                pc.is_valid(t["doc_id"])))

    def split_sure(t: pa.Table) -> pa.Table:
        if "verified" not in t.column_names:
            return pa.table({"doc_id": pa.array([], pa.string()),
                             "dup_of": pa.array([], pa.string())})
        t = t.filter(pc.and_(pc.equal(t["verified"], pa.scalar(True)),
                             pc.is_valid(t["doc_id"])))
        return pa.table({"doc_id": pc.cast(t["doc_id"], pa.string()),
                         "dup_of": pc.cast(t["dup_of"], pa.string())})

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
    sure_ds = cand_ds.map_batches(split_sure,
                                  batch_format="pyarrow").materialize()
    n_sure = sure_ds.count()

    # -- phase B: verify incumbents (driver, epoch-bounded) -----------------
    losers: dict[str, str] = {}  # doc -> min winning incumbent
    post_drops: dict[int, list[dict]] = {}  # posting 'D' rows by shard
    sig_drops: dict[int, list[dict]] = {}   # sig 'D' rows by shard
    if len(unverified):
        incumbents = sorted({d for lst in unverified["incs"] for d in lst})
        cur = engine.lookup(incumbents, columns=["doc_id", "seq", "op"],
                            with_deleted=True)
        live_seq: dict[str, int] = {}
        tomb_seq: dict[str, int] = {}
        if cur.num_rows:
            for d, s, op in zip(cur["doc_id"].to_pylist(),
                                cur["seq"].to_pylist(),
                                cur["op"].to_pylist()):
                (live_seq if op != "D" else tomb_seq)[d] = int(s)
        # signatures for live, seq-current incumbents — read only the sig
        # shards those docs hash into
        need_sig = sorted({d for lst, sq in zip(unverified["incs"],
                                                unverified["incseqs"])
                           for d, s in zip(lst, sq)
                           if live_seq.get(d) == int(s)})
        sig_live: dict[str, bytes] = {}
        if need_sig:
            arr = np.array(need_sig, dtype=object)
            by_shard: dict[int, list[str]] = {}
            for d, sh in zip(need_sig,
                             (_stable_hash(arr) % np.uint64(num_shards))):
                by_shard.setdefault(int(sh), []).append(d)
            for sh, docs in by_shard.items():
                live = _read_live(idx_dir, "sig", sh)
                hit = live[live["doc_id"].isin(docs)]
                for d, s, sg in zip(hit["doc_id"], hit["seq"], hit["sig"]):
                    if live_seq.get(str(d)) == int(s):
                        sig_live[str(d)] = bytes(sg)
        # defensive fallback: store entry missing/lagging → re-sign from
        # the lake payload (unreachable while the completeness invariant
        # holds; kept so an interrupted run can never delete on a guess)
        missing = [d for d in need_sig if d not in sig_live]
        if missing:
            pay = engine.lookup(missing, columns=["doc_id", content_col])
            if pay.num_rows:
                stage = _SigStage(content_col, n_perm, k, token_mode)
                df = pay.to_pandas()
                df["seq"] = 0
                df["op"] = "I"
                re = stage(df)
                for d, sg in zip(re["doc_id"], re["sig"]):
                    sig_live[str(d)] = bytes(sg)

        # explode candidate rows into one flat (doc, inc, seq, bucket) pair
        # frame and verify with numpy over the whole set — a per-row Python
        # walk dominated driver time on collision-heavy epochs (measured:
        # ~5k candidates on the sf0.1 replay lake)
        n_inc = unverified["incs"].map(len).to_numpy()
        rix = np.repeat(np.arange(len(unverified)), n_inc)
        p_doc = unverified["doc_id"].to_numpy()[rix]
        p_inc = np.concatenate([np.asarray(l, dtype=object)
                                for l in unverified["incs"]])
        p_seq = np.concatenate([np.asarray(l, dtype=np.int64)
                                for l in unverified["incseqs"]])
        p_bkt = unverified["bucket"].to_numpy()[rix]
        live_arr = np.array([live_seq.get(d, -(1 << 62)) for d in p_inc],
                            dtype=np.int64)
        fresh = live_arr == p_seq

        # stale postings (doc dead or updated past this seq — its current
        # content has its own newer posting) → deduped 'D' rows
        seen_pd: set = set()
        seen_sd: set = set()
        for bkt, d, s in zip(p_bkt[~fresh].tolist(),
                             p_inc[~fresh].tolist(),
                             p_seq[~fresh].tolist()):
            key = (int(bkt), d, int(s))
            if key in seen_pd:
                continue
            seen_pd.add(key)
            sh = int(np.uint64(np.int64(bkt)) % np.uint64(num_shards))
            post_drops.setdefault(sh, []).append(
                {"bucket": int(bkt), "doc_id": d, "seq": int(s), "op": "D"})
            if d in tomb_seq and d not in live_seq and d not in seen_sd:
                seen_sd.add(d)
                ssh = int(_stable_hash(np.array([d], dtype=object))[0]
                          % np.uint64(num_shards))
                sig_drops.setdefault(ssh, []).append(
                    {"doc_id": d, "seq": tomb_seq[d], "sig": b"", "op": "D"})

        fi = np.flatnonzero(fresh)
        if len(fi) and sig_live:
            sig_mat = (np.frombuffer(b"".join(unverified["sig"]),
                                     dtype=np.int64)
                       .reshape(len(unverified), -1))
            inc_mat = (np.frombuffer(b"".join(sig_live.values()),
                                     dtype=np.int64)
                       .reshape(len(sig_live), -1))
            pos = {d: i for i, d in enumerate(sig_live)}
            iidx = np.array([pos.get(d, -1) for d in p_inc[fi]],
                            dtype=np.int64)
            ok = iidx >= 0
            est = (sig_mat[rix[fi[ok]]] == inc_mat[iidx[ok]]).mean(axis=1)
            hit = est >= threshold
            wdoc, winc = p_doc[fi[ok]][hit], p_inc[fi[ok]][hit]
            if len(wdoc):
                best = (pd.DataFrame({"d": wdoc, "w": winc})
                        .groupby("d")["w"].min())
                for d, w in best.items():
                    d = str(d)
                    losers[d] = min(losers.get(d, str(w)), str(w))
        if not dry_run:
            for sh, rows in post_drops.items():
                _write_seg(idx_dir, "post", sh, pd.DataFrame(rows))
            for sh, rows in sig_drops.items():
                _write_seg(idx_dir, "sig", sh, pd.DataFrame(rows))

    n_cand = n_sure + len(unverified)
    if dry_run:
        return {"duplicates": n_sure + len(losers), "dry_run": True,
                "method": "neardup-incremental", "bootstrap": bootstrap,
                "candidates": int(n_cand), "signed": int(n_signed),
                "num_shards": num_shards,
                "index_shards_probed": shards_probed,
                "index_shards_read": shards_read}

    # -- phase C: flag-dedup (a doc can lose in several bands/shards) and
    # tombstone through the ordinary distributed delete epoch -------------
    to_delete = sure_ds
    if losers:
        import ray.data as rd
        items = sorted(losers.items())
        extra = pa.table({"doc_id": pa.array([d for d, _ in items], pa.string()),
                          "dup_of": pa.array([w for _, w in items], pa.string())})
        to_delete = sure_ds.union(rd.from_arrow(extra))

    def flag_shard_col(t: pa.Table) -> pa.Table:
        ks = (_stable_hash(np.asarray(t["doc_id"].to_pylist(), dtype=object))
              % np.uint64(num_shards)).astype(np.int64)
        return t.append_column("_ks", pa.array(ks))

    def flag_dedup(df: pd.DataFrame) -> pd.DataFrame:
        # a doc can lose in several bands/shards: keep the min winner
        df = df.sort_values(["doc_id", "dup_of"], kind="mergesort")
        return df.groupby("doc_id", sort=False).head(1)[["doc_id", "dup_of"]]

    out: dict[str, Any] = {"deleted": 0}
    pairs_tab = pa.table({"doc_id": pa.array([], pa.string()),
                          "dup_of": pa.array([], pa.string())})
    if n_sure or losers:
        uniq = exchange_group_map(
            to_delete.map_batches(flag_shard_col, batch_format="pyarrow"),
            flag_dedup, num_shards, shard_col="_ks").materialize()
        if return_pairs:
            import ray as _ray
            tabs = [t for t in _ray.get(uniq.to_arrow_refs()) if t.num_rows]
            if tabs:
                pairs_tab = pa.concat_tables(
                    [t.select(["doc_id", "dup_of"]) for t in tabs])
        out = engine.delete_dataset(uniq)
    if return_pairs:
        out["pairs"] = pairs_tab
    out.update({
        "method": "neardup-incremental",
        "bootstrap": bootstrap,
        "candidates": int(n_cand),
        "signed": int(n_signed),
        "num_shards": num_shards,
        "index_shards_probed": shards_probed,
        "index_shards_read": shards_read,
    })
    _save_state(lake, {**params, "version": engine.manifest.version})
    if compact_over:
        per_shard: dict[str, int] = {}
        for p in glob.glob(os.path.join(idx_dir, "post-*.parquet")):
            sfx = p.rsplit("-s", 1)[-1]
            per_shard[sfx] = per_shard.get(sfx, 0) + 1
        if per_shard and max(per_shard.values()) > compact_over:
            out["index_compaction"] = compact_neardup_index(
                lake, min_segments=compact_over)
    return out
