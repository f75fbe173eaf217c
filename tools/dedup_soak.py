"""Dedup-on-ingest soak: tail a highly content-duplicated WAL with
auto_dedup + auto_compact interleaved, then verify against DuckDB that

1. every distinct token array in the WAL survives in exactly ONE live doc,
2. no two live docs share content,
3. every live doc's token array byte-equals its WAL version (the north
   rule's per-row invariant).

Run: python tools/dedup_soak.py [n_events] [n_contents] [epochs]
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def main() -> int:
    n_events = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    n_contents = int(sys.argv[2]) if len(sys.argv) > 2 else 50_000
    epochs = int(sys.argv[3]) if len(sys.argv) > 3 else 10

    import ray

    ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count())),
             include_dashboard=False, logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    from go_tfdata_ray.cdc.engine import CDCEngine
    from go_tfdata_ray.sources import wal as walmod

    base = "/tmp/graft_dedup_soak"
    shutil.rmtree(base, ignore_errors=True)
    wal = os.path.join(base, "wal")
    rng = np.random.default_rng(11)

    # a content pool far smaller than the event count → heavy duplication;
    # docs are unique inserts so every duplicate is a cross-doc content dup
    lens = rng.integers(16, 256, n_contents)
    pool_flat = rng.integers(0, 32000, int(lens.sum()), dtype=np.int32)
    offs = np.concatenate(([0], np.cumsum(lens)))
    per_epoch = n_events // epochs
    n_events = per_epoch * epochs  # report/divide by what is generated
    seq = 0
    t_gen = time.perf_counter()
    for e in range(epochs):
        d = walmod.open_segment(wal, e)
        pick = rng.integers(0, n_contents, per_epoch)
        toks = pa.ListArray.from_arrays(
            pa.array(np.concatenate(([0], np.cumsum(lens[pick]))), pa.int32()),
            pa.array(np.concatenate([pool_flat[offs[p]:offs[p] + lens[p]]
                                     for p in pick])),
        )
        t = pa.table({
            "seq": pa.array(np.arange(seq, seq + per_epoch, dtype=np.int64)),
            "epoch": pa.array(np.full(per_epoch, e, dtype=np.int32)),
            "op": pa.array(["I"] * per_epoch),
            "doc_id": pa.array([f"e{e:03d}-{i:07d}" for i in range(per_epoch)]),
            "tokens": toks,
            "n_tok": pa.array(lens[pick].astype(np.int32)),
            "source": pa.array(["s"] * per_epoch),
        })
        seq += per_epoch
        pq.write_table(t, os.path.join(d, "shard-000000.parquet"))
        walmod.seal_segment(d)
    print(f"wal generated: {n_events} events / {n_contents} contents "
          f"in {time.perf_counter() - t_gen:.1f}s", flush=True)

    try:
        eng = CDCEngine(os.path.join(base, "lake"), num_partitions=32)
        t0 = time.perf_counter()
        m = eng.tail(wal, idle_limit=1, poll_secs=0.01,
                     auto_dedup=2, auto_compact=6)
        # final drain: the last epoch may satisfy neither the cadence nor
        # the pre-compaction trigger
        final = eng.dedup_incremental()
        m["rows_deduped"] += final.get("deleted", 0)
        m["index_shards_probed"] += final.get("index_shards_probed", 0)
        m["index_shards_read"] += final.get("index_shards_read", 0)
        wall = time.perf_counter() - t0
        skip = (1 - m["index_shards_read"] / m["index_shards_probed"]
                if m["index_shards_probed"] else 0.0)
        print(f"tail: {json.dumps(m)} ({n_events / wall:,.0f} events/s "
              f"incl. dedup; bloom skipped {skip:.0%} of "
              f"{m['index_shards_probed']} shard-index probes)", flush=True)

        # steady-state leg: one more epoch of ALL-NEW contents — the Bloom
        # prefilter should skip (almost) every shard-index read here, since
        # no new hash collides with the indexed corpus
        fresh_lens = rng.integers(16, 256, per_epoch // 10)
        fresh_flat = rng.integers(40000, 70000, int(fresh_lens.sum()),
                                  dtype=np.int32)  # disjoint token range
        foffs = np.concatenate(([0], np.cumsum(fresh_lens)))
        fe = epochs
        d = walmod.open_segment(wal, fe)
        ftoks = pa.ListArray.from_arrays(
            pa.array(foffs.astype(np.int32)), pa.array(fresh_flat))
        pq.write_table(pa.table({
            "seq": pa.array(np.arange(seq, seq + len(fresh_lens), dtype=np.int64)),
            "epoch": pa.array(np.full(len(fresh_lens), fe, dtype=np.int32)),
            "op": pa.array(["I"] * len(fresh_lens)),
            "doc_id": pa.array([f"f{fe:03d}-{i:07d}" for i in range(len(fresh_lens))]),
            "tokens": ftoks,
            "n_tok": pa.array(fresh_lens.astype(np.int32)),
            "source": pa.array(["s"] * len(fresh_lens)),
        }), os.path.join(d, "shard-000000.parquet"))
        walmod.seal_segment(d)
        m2 = eng.tail(wal, idle_limit=1, poll_secs=0.01, auto_dedup=1)
        skip2 = (1 - m2["index_shards_read"] / m2["index_shards_probed"]
                 if m2["index_shards_probed"] else 0.0)
        print(f"steady-state (all-new) leg: bloom skipped {skip2:.0%} of "
              f"{m2['index_shards_probed']} shard-index probes, "
              f"{m2['rows_deduped']} dups", flush=True)
        assert m2["rows_deduped"] == 0
        assert m2["index_shards_read"] <= m2["index_shards_probed"] // 2, (
            "bloom prefilter failed to skip untouched shards")

        # verify vs DuckDB over the raw WAL
        import duckdb

        alive = eng.scan(columns=["doc_id", "tokens"]).to_pandas()
        got_contents = {tuple(t) for t in alive["tokens"]}
        con = duckdb.connect()
        want = con.execute(
            f"SELECT DISTINCT tokens FROM read_parquet('{wal}/epoch-*/*.parquet')"
        ).fetchall()
        want_contents = {tuple(r[0]) for r in want}
        assert got_contents == want_contents, (
            f"content sets differ: {len(got_contents)} vs {len(want_contents)}")
        assert len(alive) == len(want_contents), (
            f"{len(alive)} live docs for {len(want_contents)} contents")
        # per-row token equality vs the WAL version of each surviving doc
        wal_rows = con.execute(
            f"SELECT doc_id, tokens FROM read_parquet('{wal}/epoch-*/*.parquet') "
            f"WHERE doc_id IN (SELECT UNNEST(?))",
            [list(alive['doc_id'])]).fetchall()
        wal_map = {d: tuple(t) for d, t in wal_rows}
        for d, t in zip(alive["doc_id"], alive["tokens"]):
            assert wal_map[d] == tuple(t), f"token mismatch for {d}"
        print(f"verified: {len(alive)} live docs == {len(want_contents)} "
              f"distinct contents, exact token equality vs WAL; "
              f"{m['rows_deduped']} duplicates tombstoned")
        print("DEDUP SOAK PASS")
        return 0
    finally:
        # multi-GB tmpfs/tmp state must not outlive the run even on a
        # failed assert (stale pages feed kcompactd noise for the NEXT job)
        ray.shutdown()
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
