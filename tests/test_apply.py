"""Apply (CDCEngine.apply_epoch): one plain Ray task per WAL
shard with no Ray Data plan, exactly-once when a shard fails, and the odd
shard shapes a segment can hold (zero rows, per-shard schemas)."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from go_tfdata_ray.cdc import engine as E
from go_tfdata_ray.cdc.engine import DEFAULT_TARGET, CDCEngine
from go_tfdata_ray.cdc.oracle import (
    assert_tables_equal,
    oracle_final_state,
    oracle_replay_dict,
)
from go_tfdata_ray.sources.wal import WalParams, generate_wal, list_segments
from go_tfdata_ray.stages.schema import SchemaPolicy
from go_tfdata_ray.state import manifest as mf


def _wal(tmp_path, **kw):
    kw.setdefault("n_events", 3000)
    kw.setdefault("n_keys", 400)
    kw.setdefault("num_epochs", 3)
    kw.setdefault("shard_rows", 400)  # several shards per segment
    d = str(tmp_path / "wal")
    return d, generate_wal(d, WalParams(**kw))


def _expected(state: dict) -> pa.Table:
    return pa.Table.from_pylist(list(state.values()), schema=pa.schema(
        [DEFAULT_TARGET.field(c) for c in ("doc_id", "tokens", "n_tok", "source")]))


def test_apply_starts_no_ray_data_execution(tmp_path, monkeypatch):
    src, files = _wal(tmp_path)
    segs = list_segments(src)
    live = str(tmp_path / "live")
    os.makedirs(live)
    for _, paths in segs[:2]:
        shutil.copytree(os.path.dirname(paths[0]),
                        os.path.join(live, os.path.basename(os.path.dirname(paths[0]))))
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)

    def no_ray_data(*a, **kw):
        raise AssertionError("direct apply started a Ray Data read")

    assert E.rd is ray.data  # patching the module patches the engine's handle
    with monkeypatch.context() as mp:
        mp.setattr(ray.data, "read_parquet", no_ray_data)
        eng.apply_wal(live)
        assert_tables_equal(eng.scan_table(), oracle_final_state(
            [f for _, p in segs[:2] for f in p]))
        _, paths = segs[2]
        shutil.copytree(os.path.dirname(paths[0]),
                        os.path.join(live, os.path.basename(os.path.dirname(paths[0]))))
        assert eng.tail(live, max_epochs=1)["epochs_applied"] == 1
        state = oracle_replay_dict(files)
        assert_tables_equal(eng.scan_table(), oracle_final_state(files))

        old = sorted(state)[0]
        eng.upsert(pa.table({"doc_id": [old, "fresh-key"],
                             "tokens": pa.array([[5, 6, 7], [8]], pa.list_(pa.int32())),
                             "source": ["api", "api"]}))
        gone = sorted(state)[-1]
        assert eng.delete_where(doc_ids=[gone])["deleted"] == 1
    state[old] = {"doc_id": old, "tokens": [5, 6, 7], "n_tok": 3, "source": "api"}
    state["fresh-key"] = {"doc_id": "fresh-key", "tokens": [8], "n_tok": 1,
                          "source": "api"}
    del state[gone]
    assert_tables_equal(eng.scan_table(), _expected(state))


def test_unreadable_shard_fails_without_commit_then_applies_once(tmp_path):
    src, files = _wal(tmp_path, num_epochs=2)
    segs = dict(list_segments(src))
    assert len(segs[1]) >= 2
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    eng.apply_epoch(0, segs[0], stats_extra={"wal_hwm": 0})
    v = eng.manifest.version

    bad = segs[1][1]
    shutil.copy(bad, bad + ".bak")
    with open(bad, "wb") as f:
        f.write(b"not parquet")
    with pytest.raises(pa.ArrowInvalid):
        eng.apply_wal(src)
    assert eng.manifest.version == v
    assert mf.load_latest(lake).version == v
    assert CDCEngine(lake).manifest.committed_epoch == 0

    shutil.move(bad + ".bak", bad)
    out = eng.apply_wal(src)
    assert [r["skipped"] for r in out] == [True, False]
    assert [ep["epoch"] for ep in eng.manifest.epochs] == [0, 1]
    assert all(r["skipped"] for r in CDCEngine(lake).apply_wal(src))
    assert_tables_equal(eng.scan_table(), oracle_final_state(files))


def test_zero_row_shard_next_to_a_normal_one(tmp_path):
    _, files = _wal(tmp_path, num_epochs=1, shard_rows=100_000)
    seg = tmp_path / "seg"
    os.makedirs(seg)
    t = pq.read_table(files[0])
    pq.write_table(t.slice(0, 0), str(seg / "shard-00000.parquet"))
    pq.write_table(t, str(seg / "shard-00001.parquet"))
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    r = eng.apply_epoch(0, sorted(str(p) for p in seg.iterdir()))
    # one collapsed row per doc_id of the normal shard, all in its run file
    assert r["delta_rows"] == len(set(t["doc_id"].to_pylist()))
    intents = pq.read_table(os.path.join(eng.lake_dir, eng.manifest.epochs[0]["path"]))
    assert len(set(intents["path"].to_pylist())) == 1
    assert_tables_equal(eng.scan_table(), oracle_final_state(files))


def test_shards_of_one_segment_with_different_schemas(tmp_path):
    policy = SchemaPolicy(target=DEFAULT_TARGET, renames={"body_tokens": "tokens"})
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=2, policy=policy)
    seg = tmp_path / "seg"
    os.makedirs(seg)
    # shard 0: the old schema (tokens under their old name, n_tok int16)
    pq.write_table(pa.table({
        "seq": pa.array([0, 1], pa.int64()),
        "op": ["I", "I"],
        "doc_id": ["a", "b"],
        "body_tokens": pa.array([[1, 2], [3]], pa.list_(pa.int32())),
        "n_tok": pa.array([2, 1], pa.int16()),
    }), str(seg / "shard-00000.parquet"))
    # shard 1: adds 'lang' and carries 'source'; overwrites 'a'
    pq.write_table(pa.table({
        "seq": pa.array([2, 3], pa.int64()),
        "op": ["U", "I"],
        "doc_id": ["a", "c"],
        "tokens": pa.array([[7, 8, 9], [4]], pa.list_(pa.int32())),
        "n_tok": pa.array([3, 1], pa.int32()),
        "source": ["web", "web"],
        "lang": ["en", "de"],
    }), str(seg / "shard-00001.parquet"))
    eng.apply_epoch(0, sorted(str(p) for p in seg.iterdir()))
    out = eng.scan_table(columns=["doc_id", "tokens", "n_tok", "source", "lang"])
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert rows["a"] == {"doc_id": "a", "tokens": [7, 8, 9], "n_tok": 3,
                         "source": "web", "lang": "en"}
    assert rows["b"] == {"doc_id": "b", "tokens": [3], "n_tok": 1,
                         "source": None, "lang": None}
    assert rows["c"]["lang"] == "de" and len(rows) == 3
