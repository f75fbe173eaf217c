"""Lake resharding (CDCEngine.reshard): hash-partition-count changes as a
compact-style maintenance op — state digests, time travel across the
layout boundary, replay protection, memory-bound witnesses, fencing."""

import glob
import os

import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from go_tfdata_ray.cdc.engine import CDCEngine
from go_tfdata_ray.cdc.oracle import assert_tables_equal, oracle_final_state
from go_tfdata_ray.sources.wal import WalParams, generate_wal


def _setup(tmp_path, n_parts=4, **kw):
    kw.setdefault("n_events", 12000)
    kw.setdefault("n_keys", 1500)
    kw.setdefault("num_epochs", 3)
    kw.setdefault("seed", 9)
    wal = str(tmp_path / "wal")
    files = generate_wal(wal, WalParams(**kw))
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=n_parts)
    eng.apply_wal(wal)
    return eng, wal, files, oracle_final_state(files)


@pytest.mark.parametrize("new_n", [16, 3, 1])
def test_reshard_preserves_state_exactly(tmp_path, new_n):
    eng, _, _, oracle = _setup(tmp_path)
    r = eng.reshard(new_n, row_group_size=256)
    assert r["resharded"] and r["num_partitions"] == new_n
    assert_tables_equal(eng.scan_table(), oracle)
    # layout actually changed on disk: one clustered base per populated part
    m = eng.manifest
    assert m.num_partitions == new_n
    populated = [k for k, ps in m.partitions.items() if ps.files]
    assert all(len(ps.files) <= 1 for ps in m.partitions.values())
    assert sum(f["rows"] for k in populated
               for f in m.partitions[k].files) == len(oracle)


def test_reshard_with_uncompacted_deltas(tmp_path):
    # reshard must fold bases AND the level-0 epoch pile, like compact
    eng, _, _, oracle = _setup(tmp_path)
    assert eng.manifest.epochs  # deltas present (never compacted)
    eng.reshard(8, row_group_size=256)
    assert not eng.manifest.epochs
    assert_tables_equal(eng.scan_table(), oracle)


def test_time_travel_and_lookup_across_boundary(tmp_path):
    eng, _, _, oracle = _setup(tmp_path)
    pre = eng.manifest.version
    eng.reshard(16, row_group_size=256)
    import pyarrow as pa

    old = pa.concat_tables(
        [b for b in eng.scan(at_version=pre).iter_batches(
            batch_format="pyarrow")],
        promote_options="permissive")
    assert_tables_equal(old, oracle)
    ids = oracle["doc_id"].to_pylist()[:7]
    assert len(eng.lookup(ids)) == 7             # new layout routing
    assert len(eng.lookup(ids, at_version=pre)) == 7  # old layout routing


def test_replay_protection_survives_reshard(tmp_path):
    # the watermark carry (global max) must classify every already-applied
    # event as a replay when the WAL is re-offered under the new layout
    eng, wal, _, oracle = _setup(tmp_path)
    eng.reshard(6, row_group_size=256)
    fresh = CDCEngine(eng.lake_dir)
    assert fresh.num_partitions == 6
    res = fresh.apply_wal(wal)
    assert all(x.get("skipped") for x in res), res
    assert_tables_equal(fresh.scan_table(), oracle)


def test_ingest_continues_after_reshard(tmp_path):
    eng, _, _, oracle = _setup(tmp_path)
    eng.reshard(8, row_group_size=256)
    eng.upsert(pd.DataFrame({"doc_id": ["rs-new"], "tokens": [[7, 8]],
                             "n_tok": [2], "source": ["t"]}))
    eng.delete_where(doc_ids=[oracle["doc_id"][0].as_py()])
    t = eng.scan_table()
    assert len(t) == len(oracle)  # +1 insert, -1 delete
    assert len(eng.lookup(["rs-new"])) == 1
    assert len(eng.lookup([oracle["doc_id"][0].as_py()])) == 0


def test_compact_after_reshard_is_streaming(tmp_path):
    eng, _, _, oracle = _setup(tmp_path)
    eng.reshard(5, row_group_size=256)
    eng.upsert(pd.DataFrame({"doc_id": ["zz-1"], "tokens": [[1]],
                             "n_tok": [1], "source": ["t"]}))
    r = eng.compact(row_group_size=256)
    # single-base partitions + tiny delta: the streaming path's witness
    assert r["max_chunk_rows"] <= 256 + 2
    assert len(eng.scan_table()) == len(oracle) + 1


def test_compact_after_reshard_keeps_older_versions_bases(tmp_path):
    """A compaction at the same epoch after a reshard writes new bases
    under new names: the older versions' bases stay as they were, so
    time travel to them still reads the full state."""
    import pyarrow as pa

    from go_tfdata_ray.state import manifest as mf

    eng, _, _, oracle = _setup(tmp_path)
    eng.compact(row_group_size=256)
    compacted = eng.manifest.version
    eng.reshard(8, row_group_size=256)
    eng.compact(row_group_size=256)
    assert (mf.load_version(eng.lake_dir, compacted).committed_epoch
            == eng.manifest.committed_epoch)
    for v in (compacted, compacted + 1, eng.manifest.version):
        got = pa.concat_tables(
            list(eng.scan(at_version=v).iter_batches(batch_format="pyarrow")),
            promote_options="permissive")
        assert_tables_equal(got, oracle)
    paths = [f["path"] for v in (compacted, eng.manifest.version)
             for ps in mf.load_version(eng.lake_dir, v).partitions.values()
             for f in ps.files]
    assert len(paths) == len(set(paths)) == 4 + 8


def test_reshard_memory_witness_bounded(tmp_path):
    eng, _, _, _ = _setup(tmp_path)
    r = eng.reshard(2, row_group_size=128)
    # stage-2 gather is bounded by ~O(k x row group), never O(partition)
    assert r["max_gather_rows"] <= 4 * 128 * 2


def test_reshard_noop_and_validation(tmp_path):
    eng, _, _, _ = _setup(tmp_path)
    v = eng.manifest.version
    assert eng.reshard(eng.num_partitions)["resharded"] is False
    assert eng.manifest.version == v
    with pytest.raises(ValueError):
        eng.reshard(0)


def test_reshard_cleans_intermediates_and_vacuum_keeps_travel(tmp_path):
    eng, _, _, oracle = _setup(tmp_path)
    pre = eng.manifest.version
    eng.reshard(8, row_group_size=256)
    assert not [d for d in os.listdir(eng.lake_dir)
                if d.startswith("_reshard-tmp-")]
    eng.vacuum(keep_versions=2)
    # pre-reshard version is within retention: still readable
    assert len(eng.lookup(oracle["doc_id"].to_pylist()[:3],
                          at_version=pre)) == 3


def test_changes_feed_resync_boundary(tmp_path):
    eng, _, _, _ = _setup(tmp_path)
    v0 = eng.manifest.version - 1  # before the last applied epoch
    eng.reshard(8, row_group_size=256)
    with pytest.raises(RuntimeError, match="full-resync"):
        eng.changes(v0).materialize()


def test_reshard_empty_lake(tmp_path):
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    r = eng.reshard(16)
    assert r["resharded"] and r["rows"] == 0
    assert CDCEngine(eng.lake_dir).num_partitions == 16


def test_reshard_bases_stay_doc_id_clustered(tmp_path):
    # point-lookup row-group pruning relies on clustered output
    eng, _, _, _ = _setup(tmp_path)
    eng.reshard(6, row_group_size=128)
    for path in glob.glob(os.path.join(eng.lake_dir, "part=*",
                                       "base-*-rs*.parquet")):
        t = pq.read_table(path, columns=["doc_id"])
        ids = t["doc_id"].to_pylist()
        assert ids == sorted(ids), path


def test_reshard_runs_no_ray_data_plan(tmp_path, monkeypatch):
    # both stages are plain Ray tasks, like compact()
    eng, _, _, oracle = _setup(tmp_path)
    with monkeypatch.context() as mp:
        mp.setattr("ray.data.from_items", lambda *a, **kw: 1 / 0)
        assert eng.reshard(8, row_group_size=256)["rows"] == len(oracle)
    assert_tables_equal(eng.scan_table(), oracle)
