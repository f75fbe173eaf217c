"""Lake-to-lake replication (cdc/replicate.py): bootstrap, incremental
catch-up off the changes feed, exactly-once watermarking across fresh
processes, no-op idempotence, and the full-resync fallback (compaction /
reshard folding the feed) including follower-only-key tombstoning."""

import pyarrow as pa

from go_tfdata_ray.cdc.engine import CDCEngine
from go_tfdata_ray.cdc.oracle import assert_tables_equal
from go_tfdata_ray.cdc.replicate import sync_replica
from go_tfdata_ray.sources.wal import WalParams, generate_wal


def _mk_src(tmp_path, n_events=600, n_keys=120, num_epochs=3):
    wal_dir = str(tmp_path / "wal")
    generate_wal(wal_dir, WalParams(n_events=n_events, n_keys=n_keys,
                                    num_epochs=num_epochs))
    src = CDCEngine(str(tmp_path / "src"), num_partitions=4)
    src.apply_wal(wal_dir)
    return src


def _assert_synced(src_dir, dst_dir):
    s = CDCEngine(src_dir).scan_table()
    d = CDCEngine(dst_dir).scan_table()
    assert_tables_equal(d, s)


def test_bootstrap_then_noop(tmp_path):
    src = _mk_src(tmp_path)
    dst_dir = str(tmp_path / "replica")
    r = sync_replica(src.lake_dir, dst_dir, num_partitions=2)
    assert r["mode"] == "incremental" and r["rows_staged"] > 0
    _assert_synced(src.lake_dir, dst_dir)
    # already current: nothing staged, no new follower version
    v = CDCEngine(dst_dir).manifest.version
    r2 = sync_replica(src.lake_dir, dst_dir)
    assert r2["mode"] == "noop" and r2["skipped"]
    assert CDCEngine(dst_dir).manifest.version == v


def test_incremental_catchup_with_deletes(tmp_path):
    src = _mk_src(tmp_path)
    dst_dir = str(tmp_path / "replica")
    sync_replica(src.lake_dir, dst_dir, num_partitions=2)
    # source moves: upserts (one brand-new doc) + deletes
    live = src.scan_table(columns=["doc_id"])["doc_id"].to_pylist()
    src.upsert(pa.table({
        "doc_id": pa.array([live[0], "doc-brand-new"]),
        "tokens": pa.array([[9, 9, 9], [1, 2, 3]], pa.list_(pa.int32())),
        "source": pa.array(["rep", "rep"]),
    }))
    src.delete_where(doc_ids=live[1:4])
    r = sync_replica(src.lake_dir, dst_dir)
    assert r["mode"] == "incremental"
    assert r["deletes_staged"] >= 3
    # the incremental leg shipped the net change set, not the whole lake
    assert r["rows_staged"] < len(live)
    _assert_synced(src.lake_dir, dst_dir)


def test_watermark_survives_fresh_processes(tmp_path):
    src = _mk_src(tmp_path)
    dst_dir = str(tmp_path / "replica")
    sync_replica(src.lake_dir, dst_dir, num_partitions=2)
    wm = int(CDCEngine(dst_dir).manifest.stats["replica_src_version"])
    assert wm == CDCEngine(src.lake_dir).manifest.version
    # everything below re-loads engines from disk (fresh-process shape)
    CDCEngine(src.lake_dir).upsert(pa.table({
        "doc_id": pa.array(["p2-doc"]),
        "tokens": pa.array([[7]], pa.list_(pa.int32())),
        "source": pa.array(["rep"]),
    }))
    r = sync_replica(src.lake_dir, dst_dir)
    assert r["mode"] == "incremental" and r["rows_staged"] == 1
    _assert_synced(src.lake_dir, dst_dir)


def test_full_resync_after_source_compaction(tmp_path):
    src = _mk_src(tmp_path)
    dst_dir = str(tmp_path / "replica")
    sync_replica(src.lake_dir, dst_dir, num_partitions=2)
    # source deletes a doc the replica holds, then compacts + vacuums the
    # feed away — the replica can only learn about the delete via the
    # anti-join leg of a full resync
    live = src.scan_table(columns=["doc_id"])["doc_id"].to_pylist()
    src.delete_where(doc_ids=live[:2])
    src.upsert(pa.table({
        "doc_id": pa.array(["post-compact-doc"]),
        "tokens": pa.array([[4, 5]], pa.list_(pa.int32())),
        "source": pa.array(["rep"]),
    }))
    src.compact()
    src.vacuum(keep_versions=1)
    r = sync_replica(src.lake_dir, dst_dir)
    assert r["mode"] == "full"
    assert r["deletes_staged"] >= 2  # the follower-only keys
    _assert_synced(src.lake_dir, dst_dir)
    # and the follower is incremental again afterwards
    CDCEngine(src.lake_dir).upsert(pa.table({
        "doc_id": pa.array(["after-full"]),
        "tokens": pa.array([[6]], pa.list_(pa.int32())),
        "source": pa.array(["rep"]),
    }))
    r2 = sync_replica(src.lake_dir, dst_dir)
    assert r2["mode"] == "incremental"
    _assert_synced(src.lake_dir, dst_dir)


def test_full_resync_into_empty_replica(tmp_path):
    # bootstrap a replica AFTER the source compacted away its history:
    # changes(0) must raise internally and the full path must build the
    # follower from the snapshot alone
    src = _mk_src(tmp_path)
    src.compact()
    src.vacuum(keep_versions=1)
    dst_dir = str(tmp_path / "replica")
    r = sync_replica(src.lake_dir, dst_dir, num_partitions=2)
    assert r["mode"] == "full" and r["deletes_staged"] == 0
    _assert_synced(src.lake_dir, dst_dir)


def test_replica_partition_count_independent(tmp_path):
    src = _mk_src(tmp_path, n_events=300, n_keys=60)
    dst_dir = str(tmp_path / "replica")
    sync_replica(src.lake_dir, dst_dir, num_partitions=7)
    assert CDCEngine(dst_dir).manifest.num_partitions == 7
    _assert_synced(src.lake_dir, dst_dir)


def test_source_reshard(tmp_path):
    src = _mk_src(tmp_path)
    dst_dir = str(tmp_path / "replica")
    sync_replica(src.lake_dir, dst_dir, num_partitions=2)
    # a reshard with the follower already current changes LAYOUT only:
    # the incremental sync sees an empty change set and stays cheap
    src.reshard(8)
    r = sync_replica(src.lake_dir, dst_dir)
    assert r["mode"] == "incremental" and r["rows_staged"] == 0
    _assert_synced(src.lake_dir, dst_dir)
    # but a follower BEHIND the reshard needs epochs the fold consumed:
    # that sync must fall back to full resync
    src.upsert(pa.table({
        "doc_id": pa.array(["pre-reshard-doc"]),
        "tokens": pa.array([[8, 8]], pa.list_(pa.int32())),
        "source": pa.array(["rep"]),
    }))
    src.reshard(4)
    r2 = sync_replica(src.lake_dir, dst_dir)
    assert r2["mode"] == "full"
    _assert_synced(src.lake_dir, dst_dir)


def test_changes_refuses_whole_file_delta(tmp_path):
    """A committed epoch whose intent segment points at a whole-file delta
    (rg = -1, the layout the retired groupby apply wrote) cannot be fed:
    both changes() feeds raise full-resync from the driver, before any
    task starts, and sync_replica falls back to a full resync."""
    import os
    import time

    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import pytest

    from go_tfdata_ray.cdc import engine as E

    src = _mk_src(tmp_path)
    v = src.manifest.version
    epoch = src.manifest.committed_epoch + 1
    wm = E._wm_vector(src.num_partitions, src.manifest.watermarks())
    n = 12
    ids = [f"wf-{i:03d}" for i in range(n)]
    t = E.normalize_events(pa.table({
        "seq": pa.array(int(wm.max()) + 1 + np.arange(n, dtype=np.int64)),
        "epoch": pa.array(np.full(n, epoch, dtype=np.int32)),
        "op": pa.array(["U"] * n, pa.string()),
        "doc_id": pa.array(ids, pa.string()),
        "tokens": pa.array([[i, i] for i in range(n)], pa.list_(pa.int32())),
        "n_tok": pa.array(np.full(n, 2, dtype=np.int32)),
        "source": pa.array(["wf"] * n, pa.string()),
    }), src.policy, src.num_partitions, wm)
    intents = []
    for p in sorted(set(t["part_id"].to_pylist())):
        g = t.filter(pc.equal(t["part_id"], p))
        rel = os.path.join(f"part={p:04d}", f"delta-{epoch:06d}.parquet")
        os.makedirs(os.path.join(src.lake_dir, f"part={p:04d}"), exist_ok=True)
        pq.write_table(g, os.path.join(src.lake_dir, rel))
        intents.append({"part_id": p, "path": rel, "rows": len(g),
                        "max_seq": max(g["seq"].to_pylist()), "rg": -1})
    src._commit_intents(epoch, intents, None, True, time.perf_counter())
    assert set(ids) <= set(src.scan_table()["doc_id"].to_pylist())

    for collapsed in (False, True):
        with pytest.raises(RuntimeError, match="full-resync"):
            src.changes(v, collapsed=collapsed)
    dst = str(tmp_path / "dst")
    assert sync_replica(src.lake_dir, dst)["mode"] == "full"
    _assert_synced(src.lake_dir, dst)
