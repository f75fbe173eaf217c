"""E2E CDC engine tests vs the oracle — mirrors the reference's test plan
(SURVEY.md §5): golden fixtures, round-trip equality, idempotency,
resume-mid-stream, concurrency-invariance."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from go_tfdata_ray.cdc.engine import CDCEngine, DEFAULT_TARGET
from go_tfdata_ray.cdc.oracle import (
    assert_tables_equal,
    oracle_final_state,
    oracle_replay_dict,
)
from go_tfdata_ray.sources.wal import WalParams, generate_wal
from go_tfdata_ray.stages.schema import SchemaPolicy
from go_tfdata_ray.state import manifest as mf


def make_wal(tmp_path, **kw):
    p = WalParams(**kw)
    d = str(tmp_path / "wal")
    files = generate_wal(d, p)
    return d, files


def run_and_check(tmp_path, wal_dir, files, num_partitions=4, **eng_kw):
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=num_partitions, **eng_kw)
    eng.apply_wal(wal_dir)
    actual = eng.scan_table()
    assert_tables_equal(actual, oracle_final_state(files))
    return eng, actual


def test_wal_10_inserts(tmp_path):
    # analog of small-10.tar: 10 samples, one epoch (test/tar_test.go:17-39)
    wal_dir, files = make_wal(tmp_path, n_events=10, n_keys=10, num_epochs=1, key_mode="roundrobin")
    _, actual = run_and_check(tmp_path, wal_dir, files, num_partitions=2)
    assert actual.num_rows == 10  # all inserts, distinct keys


def test_wal_21_mixed_epochs(tmp_path):
    # analog of small-mnist-21.tar (21 samples) but with U/D over 3 epochs
    wal_dir, files = make_wal(tmp_path, n_events=21, n_keys=6, num_epochs=3)
    run_and_check(tmp_path, wal_dir, files, num_partitions=3)


def test_medium_vs_both_oracles(tmp_path):
    wal_dir, files = make_wal(tmp_path, n_events=5000, n_keys=800, num_epochs=4)
    eng, actual = run_and_check(tmp_path, wal_dir, files, num_partitions=8)
    # independent row-at-a-time dict oracle, exact tokens equality
    state = oracle_replay_dict(files)
    assert actual.num_rows == len(state)
    for row in actual.to_pylist():
        exp = state[row["doc_id"]]
        assert row["tokens"] == exp["tokens"]
        assert row["n_tok"] == exp["n_tok"]
        assert row["source"] == exp["source"]


def test_duplicate_delivery_idempotent(tmp_path):
    # at-least-once delivery: exact duplicates across epoch boundaries
    wal_dir, files = make_wal(tmp_path, n_events=2000, n_keys=300, num_epochs=4, dup_rate=0.05)
    run_and_check(tmp_path, wal_dir, files)


def test_reapply_is_noop(tmp_path):
    wal_dir, files = make_wal(tmp_path, n_events=1000, n_keys=200, num_epochs=3)
    eng, actual = run_and_check(tmp_path, wal_dir, files)
    v = eng.manifest.version
    stats = eng.apply_wal(wal_dir)  # full replay of already-committed epochs
    assert all(s["skipped"] for s in stats)
    assert eng.manifest.version == v
    assert_tables_equal(eng.scan_table(), oracle_final_state(files))


def test_resume_mid_stream(tmp_path):
    # "crash" after epoch 1, new engine instance resumes from the manifest
    wal_dir, files = make_wal(tmp_path, n_events=1500, n_keys=250, num_epochs=5)
    lake = str(tmp_path / "lake")
    eng1 = CDCEngine(lake, num_partitions=4)
    from go_tfdata_ray.sources.wal import list_segments

    segs = list_segments(wal_dir)
    for e, paths in segs[:2]:
        eng1.apply_epoch(e, paths)
    del eng1
    eng2 = CDCEngine(lake)  # picks up num_partitions + watermarks from manifest
    assert eng2.manifest.committed_epoch == 1
    eng2.apply_wal(wal_dir)
    assert_tables_equal(eng2.scan_table(), oracle_final_state(files))


def test_crash_before_commit_leaves_orphans_invisible(tmp_path):
    # phase-1 files written but manifest never committed → ignored, then
    # the retried epoch overwrites them deterministically
    wal_dir, files = make_wal(tmp_path, n_events=600, n_keys=100, num_epochs=2)
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    segs_dir = wal_dir

    # simulate a crashed phase-1: orphan delta for epoch 0 with garbage rows
    orphan = os.path.join(lake, "part=0000", "delta-000000.parquet")
    os.makedirs(os.path.dirname(orphan), exist_ok=True)
    bad = pa.table(
        {
            "seq": pa.array([999999], pa.int64()),
            "op": pa.array(["I"]),
            "doc_id": pa.array(["doc-GARBAGE"]),
            "tokens": pa.array([[1, 2]], pa.list_(pa.int32())),
            "n_tok": pa.array([2], pa.int32()),
            "source": pa.array(["web"]),
            "part_id": pa.array([0], pa.int32()),
        }
    )
    pq.write_table(bad, orphan)
    eng.apply_wal(segs_dir)
    actual = eng.scan_table()
    assert "doc-GARBAGE" not in set(actual["doc_id"].to_pylist())
    assert_tables_equal(actual, oracle_final_state(files))


def test_fencing_two_writers(tmp_path):
    wal_dir, files = make_wal(tmp_path, n_events=400, n_keys=80, num_epochs=2)
    lake = str(tmp_path / "lake")
    a = CDCEngine(lake, num_partitions=2)
    b = CDCEngine(lake, num_partitions=2)
    from go_tfdata_ray.sources.wal import list_segments

    e0, paths0 = list_segments(wal_dir)[0]
    a.apply_epoch(e0, paths0)
    with pytest.raises(mf.FencedOutError):
        b.apply_epoch(e0, paths0)  # stale writer loses the manifest link race


def test_partition_count_invariance(tmp_path):
    wal_dir, files = make_wal(tmp_path, n_events=1200, n_keys=200, num_epochs=3)
    _, t2 = run_and_check(tmp_path / "a", wal_dir, files, num_partitions=2)
    _, t7 = run_and_check(tmp_path / "b", wal_dir, files, num_partitions=7)
    assert_tables_equal(t2, t7)


def test_compact_and_vacuum(tmp_path, monkeypatch):
    wal_dir, files = make_wal(tmp_path, n_events=1000, n_keys=150, num_epochs=4)
    eng, _ = run_and_check(tmp_path, wal_dir, files)
    expected = oracle_final_state(files)
    with monkeypatch.context() as mp:  # plain tasks, no Ray Data plan
        mp.setattr("ray.data.from_items", lambda *a, **kw: 1 / 0)
        eng.compact()
    assert_tables_equal(eng.scan_table(), expected)
    deleted = eng.vacuum()
    assert deleted  # old deltas physically removed
    assert_tables_equal(eng.scan_table(), expected)
    # lake still applies further epochs after compaction? re-apply is noop
    assert all(s["skipped"] for s in eng.apply_wal(wal_dir))


def test_compact_streaming_bounded_memory(tmp_path):
    """The second compact's k-way merge must stream the (already sorted)
    base row group by row group: the largest chunk any task materializes
    is bounded by row_group_size + the delta pile, strictly below the
    whole partition — the 100 TB memory bound. Output equality vs the
    WAL oracle is the digest check."""
    from go_tfdata_ray.sources.wal import list_segments

    wal_dir, files = make_wal(tmp_path, n_events=12000, n_keys=4000,
                              num_epochs=3)
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=1)  # oversized single partition
    segs = list_segments(wal_dir)
    eng.apply_epoch(segs[0][0], segs[0][1], stats_extra={"wal_hwm": segs[0][0]})
    eng.compact(row_group_size=256)  # base now spans many row groups
    base_rows = eng.scan_table().num_rows
    assert base_rows > 2000

    for e, paths in segs[1:]:
        eng.apply_epoch(e, paths, stats_extra={"wal_hwm": e})
    delta_rows = sum(int(ep["rows"]) for ep in eng.manifest.epochs)
    r2 = eng.compact(row_group_size=256)
    # bounded by one row group + the level-0 pile, never the partition
    assert 0 < r2["max_chunk_rows"] <= 256 + delta_rows
    assert r2["max_chunk_rows"] < base_rows
    assert_tables_equal(eng.scan_table(), oracle_final_state(files))

    # idempotent follow-up fold (no deltas): still streams, still equal
    r3 = eng.compact(row_group_size=256)
    assert r3["max_chunk_rows"] <= 256
    assert_tables_equal(eng.scan_table(), oracle_final_state(files))


def test_schema_evolution_add_and_widen_and_rename(tmp_path):
    lake = str(tmp_path / "lake")
    target = DEFAULT_TARGET
    policy = SchemaPolicy(target=target, renames={"body_tokens": "tokens"})
    eng = CDCEngine(lake, num_partitions=2, policy=policy)

    # epoch 0: old schema, n_tok as int16 (widen), tokens under old name
    t0 = pa.table(
        {
            "seq": pa.array([0, 1], pa.int64()),
            "op": pa.array(["I", "I"]),
            "doc_id": pa.array(["a", "b"]),
            "body_tokens": pa.array([[1, 2], [3]], pa.list_(pa.int32())),
            "n_tok": pa.array([2, 1], pa.int16()),
        }
    )
    # epoch 1: adds 'lang' column (add-column evolution), has 'source'
    t1 = pa.table(
        {
            "seq": pa.array([2], pa.int64()),
            "op": pa.array(["U"]),
            "doc_id": pa.array(["a"]),
            "tokens": pa.array([[7, 8, 9]], pa.list_(pa.int32())),
            "n_tok": pa.array([3], pa.int32()),
            "source": pa.array(["web"]),
            "lang": pa.array(["en"]),
        }
    )
    w = tmp_path / "walx"
    os.makedirs(w, exist_ok=True)
    pq.write_table(t0, str(w / "epoch-00000.parquet"))
    pq.write_table(t1, str(w / "epoch-00001.parquet"))
    eng.apply_wal(str(w))
    out = eng.scan_table(columns=["doc_id", "tokens", "n_tok", "source", "lang"])
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert rows["a"]["tokens"] == [7, 8, 9] and rows["a"]["lang"] == "en"
    assert rows["b"]["tokens"] == [3] and rows["b"]["n_tok"] == 1
    assert rows["b"]["source"] is None and rows["b"]["lang"] is None  # add-column: old rows null


def test_narrowing_rejected():
    policy = SchemaPolicy(target=pa.schema([("x", pa.int32())]))
    bad = pa.table({"x": pa.array([1], pa.int64())})
    with pytest.raises(TypeError):
        policy.normalize(bad)


def test_tail_sealed_segments_only(tmp_path):
    """Producer seals segments; tail applies each exactly once and never
    sees a half-written micro-batch."""
    import shutil

    from go_tfdata_ray.sources import wal as walmod

    src_dir, files = make_wal(tmp_path, n_events=4000, n_keys=600, num_epochs=4)
    segs = walmod.list_segments(src_dir)
    live = str(tmp_path / "live_wal")
    os.makedirs(live)

    # epoch 0 sealed; epoch 1 open (incomplete)
    for e, paths in segs[:2]:
        d = walmod.open_segment(live, e)
        for p in paths:
            shutil.copy(p, d)
        if e == 0:
            walmod.seal_segment(d)

    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    m = eng.tail(live, idle_limit=1, poll_secs=0.01)
    assert m["epochs_applied"] == 1 and m["committed_epoch"] == 0

    # seal epoch 1, add 2 and 3 sealed
    walmod.seal_segment(os.path.join(live, "epoch-00001"))
    for e, paths in segs[2:]:
        d = walmod.open_segment(live, e)
        for p in paths:
            shutil.copy(p, d)
        walmod.seal_segment(d)
    m = eng.tail(live, idle_limit=1, poll_secs=0.01)
    assert m["epochs_applied"] == 3 and m["committed_epoch"] == 3

    assert_tables_equal(eng.scan_table(), oracle_final_state(files))


def test_cli_apply_scan_status(tmp_path):
    """CLI surface (the `ray job submit` target) drives the same engine."""
    import json

    from go_tfdata_ray.cdc import cli

    wal_dir, files = make_wal(tmp_path, n_events=3000, n_keys=500, num_epochs=2)
    lake = str(tmp_path / "clilake")
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["apply", "--wal", wal_dir, "--lake", lake,
                         "--partitions", "4"]) == 0
        assert cli.main(["status", "--lake", lake]) == 0
        out_dir = str(tmp_path / "snap")
        assert cli.main(["scan", "--lake", lake, "--out", out_dir]) == 0
    lines = [json.loads(line) for line in buf.getvalue().strip().splitlines()]
    assert lines[0]["epochs_applied"] == 2
    assert lines[1]["committed_epoch"] == 1
    got = pq.read_table(out_dir).sort_by("doc_id")
    assert_tables_equal(got, oracle_final_state(files))


def test_hot_key_skew_correct(tmp_path):
    """Pathological skew: ~90% of events hit 2 keys. The per-batch combiner
    collapses them before any exchange, so correctness (and boundedness)
    hold; final state still matches the oracle exactly."""
    wal_dir, files = make_wal(
        tmp_path, n_events=20000, n_keys=500, num_epochs=2,
        hot_frac=0.9, n_hot=2,
    )
    run_and_check(tmp_path, wal_dir, files, num_partitions=8)


def test_single_hot_key_capped_per_shard(tmp_path):
    """Skew is handled where the events arrive: each WAL shard's apply task
    collapses its events before writing its run file, so a single key that
    takes ~90% of the events holds exactly one row per (epoch, shard) in
    the lake, however many events hit it."""
    from go_tfdata_ray.sources.wal import list_segments

    wal_dir, files = make_wal(
        tmp_path, n_events=20000, n_keys=400, num_epochs=2,
        hot_frac=0.9, n_hot=1, shard_rows=2500,
    )
    eng, _ = run_and_check(tmp_path, wal_dir, files, num_partitions=4)
    shards = {e: len(paths) for e, paths in list_segments(wal_dir)}
    assert set(shards.values()) == {4}
    hot = "doc-00000000"
    for ep in eng.manifest.epochs:
        seg = pq.read_table(os.path.join(eng.lake_dir, ep["path"]))
        runs = set(seg["path"].to_pylist())
        assert len(runs) == shards[ep["epoch"]]
        per_run = dict.fromkeys(runs, 0)
        for path, rg in zip(seg["path"].to_pylist(), seg["rg"].to_pylist()):
            ids = pq.ParquetFile(os.path.join(eng.lake_dir, path)).read_row_group(
                rg, columns=["doc_id"])["doc_id"].to_pylist()
            per_run[path] += ids.count(hot)
        assert per_run == dict.fromkeys(runs, 1), ep["epoch"]


def test_corrupt_wal_segment_fails_cleanly(tmp_path):
    """Error path (reference §5 pattern: invalid archive tests,
    tar_test.go:93-121): a corrupted WAL shard makes apply_epoch raise
    WITHOUT committing; the lake stays at its previous version and remains
    scannable; repairing the shard lets the same epoch apply cleanly."""
    import shutil

    wal_dir, files = make_wal(tmp_path, n_events=4000, n_keys=500, num_epochs=2)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    segs = {e: p for e, p in __import__(
        "go_tfdata_ray.sources.wal", fromlist=["list_segments"]).list_segments(wal_dir)}
    eng.apply_epoch(0, segs[0])
    v_before = eng.manifest.version

    bad = segs[1][0]
    backup = bad + ".bak"
    shutil.copy(bad, backup)
    with open(bad, "wb") as f:
        f.write(b"garbage not parquet")
    with pytest.raises(Exception):
        eng.apply_epoch(1, segs[1])
    assert eng.manifest.version == v_before  # nothing committed
    assert eng.manifest.committed_epoch == 0
    n_before = eng.scan_table().num_rows
    assert n_before > 0  # lake still scannable

    shutil.move(backup, bad)  # repair → epoch applies
    r = eng.apply_epoch(1, segs[1])
    assert not r["skipped"]
    assert_tables_equal(eng.scan_table(), oracle_final_state(files))


def test_tail_auto_compact(tmp_path):
    """Continuous ingest with the compaction policy: fragments stay bounded
    and the state stays correct."""
    wal_dir, files = make_wal(tmp_path, n_events=6000, n_keys=400, num_epochs=6)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=2)
    eng.tail(wal_dir, idle_limit=1, poll_secs=0.01, auto_compact=2)
    worst = max(len(ps.files) for ps in eng.manifest.partitions.values())
    assert worst <= 3  # bounded by policy (threshold 2 + at most one new delta)
    assert_tables_equal(eng.scan_table(), oracle_final_state(files))


@pytest.mark.parametrize(
    "cfg",
    [
        dict(key_mode="roundrobin", dup_rate=0.05, num_epochs=3),
        dict(key_mode="zipf", hot_frac=0.5, n_hot=3, dup_rate=0.1, num_epochs=5),
        dict(op_mode="hash", num_epochs=2),
    ],
    ids=["roundrobin-dups", "zipf-hot-dups", "hash-ops"],
)
def test_engine_config_matrix(tmp_path, cfg):
    """Differential matrix: every WAL shape must equal the oracle exactly
    (generalizes the reference's concurrency-variant tests,
    tfrecord_test.go:132-238)."""
    wal_dir, files = make_wal(tmp_path, n_events=8000, n_keys=900, **cfg)
    run_and_check(tmp_path, wal_dir, files, num_partitions=4)


def test_time_travel_scan(tmp_path):
    """Snapshot isolation: scan(at_version=v) returns exactly the state
    after the epoch that committed v, regardless of later commits."""
    wal_dir, files = make_wal(tmp_path, n_events=3000, n_keys=400, num_epochs=3)
    from go_tfdata_ray.sources.wal import list_segments

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    segs = list_segments(wal_dir)
    versions = []
    for e, paths in segs:
        eng.apply_epoch(e, paths)
        versions.append(eng.manifest.version)

    import pyarrow.parquet as _pq

    # oracle prefix: only epochs 0..k
    for k, v in enumerate(versions):
        prefix_files = [f for e, paths in segs[: k + 1] for f in paths]
        want = oracle_final_state(prefix_files)
        got_refs = eng.scan(at_version=v)
        got = pa.concat_tables(
            [t for t in [__import__("ray").get(r) for r in got_refs.to_arrow_refs()]
             if t.num_rows],
            promote_options="permissive",
        )
        assert_tables_equal(got, want)

    # old version still readable after compaction (files retained until vacuum)
    eng.compact()
    got = eng.scan(at_version=versions[0])
    n0 = got.count()
    assert n0 == oracle_final_state([f for _, p in segs[:1] for f in p]).num_rows


def test_time_travel_survives_compact_vacuum(tmp_path):
    """ADVICE r01 (high): vacuum must keep files referenced by ANY retained
    manifest version, so scan(at_version=) works within the retention window
    even after compact()+vacuum() (the tail(auto_compact=) path)."""
    wal_dir, files = make_wal(tmp_path, n_events=3000, n_keys=400, num_epochs=3)
    from go_tfdata_ray.sources.wal import list_segments

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    segs = list_segments(wal_dir)
    for e, paths in segs:
        eng.apply_epoch(e, paths)
    v_pre = eng.manifest.version  # last apply version (retained: keep_versions=2)
    eng.compact()
    deleted = eng.vacuum()  # must NOT delete v_pre's delta run files
    want = oracle_final_state(files)
    # latest snapshot correct
    assert_tables_equal(eng.scan_table(), want)
    # previous retained version still fully readable (same final state here)
    got = eng.scan(at_version=v_pre)
    import ray as _ray

    got_t = pa.concat_tables(
        [t for t in [_ray.get(r) for r in got.to_arrow_refs()] if t.num_rows],
        promote_options="permissive",
    )
    assert_tables_equal(got_t, want)
    # and vacuum still deletes below-retention manifests eventually
    eng.compact()
    eng.vacuum()
    with pytest.raises(FileNotFoundError):
        eng.scan(at_version=v_pre)  # now outside retention — explicit error


def test_vacuum_removes_stale_intent_segments(tmp_path):
    """ADVICE r01 (low): superseded intents-*.parquet epoch segments must be
    vacuumed once no retained manifest references them."""
    wal_dir, files = make_wal(tmp_path, n_events=2000, n_keys=300, num_epochs=4)
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    eng.apply_wal(wal_dir)
    mdir = os.path.join(lake, "_manifests")
    assert any(n.startswith("intents-") for n in os.listdir(mdir))
    eng.compact()
    eng.vacuum(keep_versions=1)  # only the compacted manifest retained
    left = [n for n in os.listdir(mdir) if n.startswith("intents-")]
    assert left == []  # no unbounded accumulation under continuous ingest
    assert_tables_equal(eng.scan_table(), oracle_final_state(files))


def test_projected_scan_after_add_column_evolution_whole_file_base(tmp_path):
    """ADVICE r01 (medium): projecting a post-evolution column over a
    pre-evolution whole-file fragment (a compacted base, rg<0) must not
    raise — absent columns read back as null."""
    from go_tfdata_ray.stages.schema import SchemaPolicy as _SP

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=2, policy=_SP(target=DEFAULT_TARGET))
    t0 = pa.table(
        {
            "seq": pa.array([0, 1], pa.int64()),
            "op": pa.array(["I", "I"]),
            "doc_id": pa.array(["a", "b"]),
            "tokens": pa.array([[1, 2], [3]], pa.list_(pa.int32())),
            "n_tok": pa.array([2, 1], pa.int32()),
            "source": pa.array(["web", "web"]),
        }
    )
    t1 = pa.table(
        {
            "seq": pa.array([2], pa.int64()),
            "op": pa.array(["U"]),
            "doc_id": pa.array(["a"]),
            "tokens": pa.array([[7]], pa.list_(pa.int32())),
            "n_tok": pa.array([1], pa.int32()),
            "source": pa.array(["web"]),
            "lang": pa.array(["en"]),
        }
    )
    w = tmp_path / "walx"
    os.makedirs(w, exist_ok=True)
    pq.write_table(t0, str(w / "epoch-00000.parquet"))
    pq.write_table(t1, str(w / "epoch-00001.parquet"))
    eng.apply_epoch(0, [str(w / "epoch-00000.parquet")])
    eng.compact()  # epoch 0's rows become whole-file bases without 'lang'
    eng.apply_epoch(1, [str(w / "epoch-00001.parquet")])
    desc = eng._descriptors()
    assert all(d["kinds"][0] == "base" and d["rgs"][0] < 0 for d in desc)
    out = eng.scan_table(columns=["doc_id", "lang"])  # lang absent in the bases
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert rows["a"]["lang"] == "en" and rows["b"]["lang"] is None
    # bases folded with the evolved delta keep working too
    eng.compact()
    out2 = eng.scan_table(columns=["doc_id", "lang"])
    assert {r["doc_id"]: r["lang"] for r in out2.to_pylist()} == {"a": "en", "b": None}


def test_open_segment_appears_atomically(tmp_path):
    """ADVICE r01 (low): an epoch dir must never be observable without its
    _OPEN marker (a marker-less, shard-less dir would commit as an empty
    epoch and permanently skip the real data)."""
    from go_tfdata_ray.sources import wal as walmod

    wal = str(tmp_path / "wal")
    d = walmod.open_segment(wal, 0)
    assert os.path.exists(os.path.join(d, walmod.OPEN_MARKER))
    # invisible to consumers while open; no stray temp dirs left behind
    assert walmod.list_segments(wal) == []
    assert [n for n in os.listdir(wal) if "opening" in n] == []
    # seal → visible; re-open of an existing dir still works
    walmod.seal_segment(d)
    d2 = walmod.open_segment(wal, 0)
    assert d2 == d and os.path.exists(os.path.join(d, walmod.OPEN_MARKER))


def test_point_lookup_hash_routed(tmp_path):
    """lookup(doc_ids) reads only the keys' partitions and returns exactly
    the live rows (deleted/absent keys missing)."""
    wal_dir, files = make_wal(tmp_path, n_events=3000, n_keys=300, num_epochs=3)
    eng, _ = run_and_check(tmp_path, wal_dir, files, num_partitions=8)
    state = oracle_replay_dict(files)
    live = sorted(state)[:5]
    dead = [k for k in (f"doc-{i:08d}" for i in range(300)) if k not in state][:2]
    got = eng.lookup(live + dead + ["doc-99999999"])
    rows = {r["doc_id"]: r for r in got.to_pylist()}
    assert sorted(rows) == sorted(live)
    for k in live:
        assert rows[k]["tokens"] == state[k]["tokens"]
    # column projection works on the lookup path too
    slim = eng.lookup(live, columns=["doc_id", "n_tok"])
    assert set(slim.column_names) == {"doc_id", "n_tok"}


def test_changes_feed_incremental_consumer(tmp_path):
    """changes(since_version): applying the collapsed change set on top of
    the old snapshot reproduces the new snapshot exactly — the downstream
    CDC consumer contract. After compaction the feed refuses (full-resync
    signal)."""
    import pyarrow as _pa
    import ray as _ray

    from go_tfdata_ray.sources.wal import list_segments

    wal_dir, files = make_wal(tmp_path, n_events=4000, n_keys=400, num_epochs=4)
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    segs = list_segments(wal_dir)
    eng.apply_epoch(segs[0][0], segs[0][1])
    v1 = eng.manifest.version
    for e, paths in segs[1:]:
        eng.apply_epoch(e, paths)

    # raw feed: tombstones present, only epochs > v1's committed epoch
    raw = pa.concat_tables(
        [t for t in [_ray.get(r) for r in eng.changes(v1).to_arrow_refs()]
         if t.num_rows], promote_options="permissive")
    assert set(raw["op"].to_pylist()) >= {"U"}
    assert raw.num_rows > 0

    # collapsed feed applied over the old snapshot == new snapshot
    old_t = {r["doc_id"]: r for t in
             [_ray.get(r) for r in eng.scan(at_version=v1).to_arrow_refs()]
             for r in t.to_pylist()}
    net = pa.concat_tables(
        [t for t in [_ray.get(r) for r in eng.changes(v1, collapsed=True).to_arrow_refs()]
         if t.num_rows], promote_options="permissive")
    seen = set()
    for r in net.to_pylist():
        assert r["doc_id"] not in seen  # one net row per key
        seen.add(r["doc_id"])
        if r["op"] == "D":
            old_t.pop(r["doc_id"], None)
        else:
            old_t[r["doc_id"]] = {k: r[k] for k in ("doc_id", "tokens", "n_tok", "source")}
    new_state = oracle_replay_dict(files)
    assert sorted(old_t) == sorted(new_state)
    for k, v in old_t.items():
        assert v["tokens"] == new_state[k]["tokens"]

    # compaction folds the epochs → incremental feed must refuse
    eng.compact()
    with pytest.raises(RuntimeError, match="full-resync"):
        eng.changes(v1)


def test_scan_where_predicate(tmp_path):
    """scan(where=) filters against the CURRENT row version post-merge and
    equals a full-scan filter exactly."""
    import pyarrow.compute as pc

    import ray
    wal_dir, files = make_wal(tmp_path, n_events=3000, n_keys=300, num_epochs=3)
    eng, _ = run_and_check(tmp_path, wal_dir, files, num_partitions=8)
    full = eng.scan_table()
    want = full.filter(
        pc.and_(pc.greater_equal(full["n_tok"], 20),
                pc.equal(full["source"], "web"))
    )
    got_ds = eng.scan(where=[("n_tok", ">=", 20), ("source", "==", "web")])
    got = pa.concat_tables(
        [t for t in [ray.get(r) for r in got_ds.to_arrow_refs()] if t.num_rows],
        promote_options="permissive")
    assert got.num_rows == want.num_rows and got.num_rows > 0
    assert sorted(got["doc_id"].to_pylist()) == sorted(want["doc_id"].to_pylist())
    # projection + predicate on a non-projected column
    slim_ds = eng.scan(columns=["doc_id"], where=[("n_tok", ">=", 20)])
    slim = pa.concat_tables(
        [t for t in [ray.get(r) for r in slim_ds.to_arrow_refs()] if t.num_rows])
    assert slim.column_names == ["doc_id"]
    assert slim.num_rows == full.filter(pc.greater_equal(full["n_tok"], 20)).num_rows


def test_incremental_source_rollup_consumer(tmp_path):
    """SourceRollup maintained from the changes feed equals a full
    recompute after every epoch, and a compaction forces (and survives)
    the documented full-resync fallback."""
    import ray

    from go_tfdata_ray.cdc.consumer import SourceRollup
    from go_tfdata_ray.sources.wal import list_segments

    wal_dir, files = make_wal(tmp_path, n_events=4000, n_keys=400, num_epochs=4)
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    segs = list_segments(wal_dir)

    view = SourceRollup(eng)
    stale = SourceRollup(eng)  # refreshed once early, then left behind
    modes = []
    for i, (e, paths) in enumerate(segs):
        eng.apply_epoch(e, paths)
        modes.append(view.refresh()["mode"])
        if i == 0:
            stale.refresh()
        # oracle: full recompute of the rollup at this version
        want: dict = {}
        for ref in eng.scan(columns=["source", "n_tok"]).to_arrow_refs():
            t = ray.get(ref)
            if not t.num_rows:
                continue
            for s, n in zip(t["source"].to_pylist(),
                            t["n_tok"].to_numpy(zero_copy_only=False)):
                a = want.setdefault(s, [0, 0])
                a[0] += 1
                a[1] += int(n)
        assert view.state == want, f"epoch {e}"
    assert modes[0] == "full" and set(modes[1:]) == {"incremental"}

    # compaction folds the early epochs: the up-to-date view still refreshes
    # incrementally (it already consumed them); the STALE view needs folded
    # epochs and must take the documented full-resync fallback — and both
    # end equal to a fresh recompute.
    eng.compact()
    eng.vacuum()
    d = walmod_extra_epoch(wal_dir, segs)
    eng.apply_epoch(*d)
    assert view.refresh()["mode"] == "incremental"
    assert stale.refresh()["mode"] == "full"
    assert stale.state == view.state
    want: dict = {}
    for ref in eng.scan(columns=["source", "n_tok"]).to_arrow_refs():
        t = ray.get(ref)
        for s, n in zip(t["source"].to_pylist(),
                        t["n_tok"].to_numpy(zero_copy_only=False)):
            a = want.setdefault(s, [0, 0])
            a[0] += 1
            a[1] += int(n)
    assert view.state == want


def walmod_extra_epoch(wal_dir, segs):
    """Synthesize one more sealed epoch by re-using the generator."""
    import shutil

    from go_tfdata_ray.sources import wal as walmod

    last_e, last_paths = segs[-1]
    new_e = last_e + 1
    src_dir = os.path.dirname(last_paths[0])
    dst_dir = os.path.join(wal_dir, f"epoch-{new_e:06d}")
    shutil.copytree(src_dir, dst_dir)
    return new_e, sorted(
        os.path.join(dst_dir, f) for f in os.listdir(dst_dir) if f.endswith(".parquet")
    )


def test_upsert_and_delete_where(tmp_path):
    """Direct write API: upsert rows and tombstone by predicate — both run
    as ordinary synthesized epochs through the exactly-once commit path."""
    import pandas as _pd
    import pyarrow.compute as pc

    wal_dir, files = make_wal(tmp_path, n_events=2000, n_keys=200, num_epochs=2)
    eng, _ = run_and_check(tmp_path, wal_dir, files, num_partitions=4)
    state = oracle_replay_dict(files)
    v0 = eng.manifest.version

    # upsert: one overwritten key + one brand-new key
    some = sorted(state)[0]
    res = eng.upsert(_pd.DataFrame({
        "doc_id": [some, "doc-brand-new"],
        "tokens": [[9, 9, 9], [1, 2]],
        "source": ["manual", "manual"],
    }))
    assert not res.get("skipped") and eng.manifest.version == v0 + 1
    got = {r["doc_id"]: r for r in eng.lookup([some, "doc-brand-new"]).to_pylist()}
    assert got[some]["tokens"] == [9, 9, 9] and got[some]["n_tok"] == 3
    assert got["doc-brand-new"]["tokens"] == [1, 2]

    # delete_where: tombstone all short docs; scan must drop them
    full = eng.scan_table()
    short_ids = set(full.filter(pc.less(full["n_tok"], 10))["doc_id"].to_pylist())
    assert short_ids
    res = eng.delete_where(where=[("n_tok", "<", 10)])
    assert res["deleted"] == len(short_ids)
    after = eng.scan_table()
    remaining = set(after["doc_id"].to_pylist())
    assert not (remaining & short_ids)
    assert after.num_rows == full.num_rows - len(short_ids)

    # idempotent: re-applying the synthesized epoch is a no-op (resume
    # path); its rows went straight into run files, none under _staging/
    assert not os.path.exists(str(tmp_path / "lake" / "_staging"))
    assert eng.apply_epoch(eng.manifest.committed_epoch, [])["skipped"]

    # explicit-id delete + compaction physically drops tombstones
    res2 = eng.delete_where(doc_ids=["doc-brand-new", "doc-never-existed"])
    assert res2["deleted"] == 2  # tombstones are written per requested id
    assert "doc-brand-new" not in set(eng.scan_table()["doc_id"].to_pylist())
    eng.compact()
    assert_tables_equal(eng.scan_table(), eng.scan_table())  # stable


def test_apply_wal_routes_segments_overtaken_by_synthesized_epochs(tmp_path):
    """Synthesized epochs (upsert) advance committed_epoch past unapplied
    WAL segment ids; apply_wal must route those segments through the
    decoupled mapping (keyed on the wal_hwm stat), NOT classify them as
    already applied — pre-fix the events were silently dropped with every
    segment reported skipped."""
    import pandas as _pd
    from go_tfdata_ray.sources.wal import list_segments

    wal_dir, files = make_wal(tmp_path, n_events=2000, n_keys=300, num_epochs=4)
    segs = list_segments(wal_dir)
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    # apply segments 0-1 the way apply_wal does (records wal_hwm)
    for e, paths in segs[:2]:
        eng.apply_epoch(e, paths, stats_extra={"wal_hwm": e})
    # two synthesized epochs push committed_epoch to 3 ≥ both remaining
    # segment ids (2, 3) while wal_hwm stays 1
    eng.upsert(_pd.DataFrame({"doc_id": ["doc-x-1"], "tokens": [[1]],
                              "source": ["manual"]}))
    eng.upsert(_pd.DataFrame({"doc_id": ["doc-x-2"], "tokens": [[2]],
                              "source": ["manual"]}))
    assert eng.manifest.committed_epoch >= segs[3][0]

    stats = eng.apply_wal(wal_dir)
    by_seg = dict(zip([e for e, _ in segs], stats))
    assert by_seg[segs[0][0]]["skipped"] and by_seg[segs[1][0]]["skipped"]
    assert not by_seg[segs[2][0]].get("skipped")
    assert not by_seg[segs[3][0]].get("skipped")

    # final state: full WAL replay + the two fresh upserted docs
    actual = eng.scan_table()
    want = oracle_final_state(files)
    extra = {"doc-x-1": [1], "doc-x-2": [2]}
    got = {r["doc_id"]: r["tokens"] for r in actual.to_pylist()}
    for k, toks in extra.items():
        assert got.pop(k) == toks
    want_map = {r["doc_id"]: r["tokens"] for r in want.to_pylist()}
    assert got == want_map

    # idempotent: a third apply_wal skips everything
    assert all(s["skipped"] for s in eng.apply_wal(wal_dir))


def test_apply_wal_on_upsert_first_lake_applies_all_segments(tmp_path):
    """Upsert-FIRST ordering: the lake's first epochs are synthesized, so
    no wal_hwm stat exists yet when apply_wal first runs. A fallback to
    committed_epoch would classify every WAL segment with id <=
    committed_epoch as already applied and silently drop its events;
    the -1 fallback (same as tail()) must apply them all."""
    import pandas as _pd

    wal_dir, files = make_wal(tmp_path, n_events=2000, n_keys=300, num_epochs=4)
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    # synthesized epochs BEFORE any replay: committed_epoch advances past
    # several WAL segment ids while wal_hwm is never recorded
    for i in range(3):
        eng.upsert(_pd.DataFrame({"doc_id": [f"doc-pre-{i}"], "tokens": [[i]],
                                  "source": ["manual"]}))
    assert eng.manifest.committed_epoch >= 2
    assert "wal_hwm" not in eng.manifest.stats

    stats = eng.apply_wal(wal_dir)
    assert not any(s.get("skipped") for s in stats)  # every segment applied

    actual = eng.scan_table()
    want = oracle_final_state(files)
    got = {r["doc_id"]: r["tokens"] for r in actual.to_pylist()}
    for i in range(3):
        assert got.pop(f"doc-pre-{i}") == [i]
    assert got == {r["doc_id"]: r["tokens"] for r in want.to_pylist()}

    # idempotent: a second apply_wal skips everything
    assert all(s["skipped"] for s in eng.apply_wal(wal_dir))


def test_delete_dataset_counts_distinct_staged_shards(tmp_path):
    """Two byte-identical key blocks content-address to ONE staged shard;
    the reported 'deleted' must equal the tombstones actually staged, not
    double-count the collapsed block."""
    import ray.data as rd

    wal_dir, files = make_wal(tmp_path, n_events=500, n_keys=100, num_epochs=1)
    eng, _ = run_and_check(tmp_path, wal_dir, files, num_partitions=4)
    ids = sorted({r["doc_id"] for r in eng.scan_table().to_pylist()})[:10]
    # identical blocks: same keys in two single-block datasets unioned
    a = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.string())}))
    b = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.string())}))
    res = eng.delete_dataset(a.union(b))
    assert res["deleted"] == len(ids)
    remaining = set(eng.scan_table()["doc_id"].to_pylist())
    assert not (remaining & set(ids))


def test_training_batches_loader(tmp_path):
    """Consumer loop: epoch-reshuffled packed micro-batches off the lake —
    fixed shapes, token conservation, per-(seed, epoch) determinism, and a
    different order on the next epoch."""
    import numpy as np

    from go_tfdata_ray.pipelines.loader import training_batches

    wal_dir, files = make_wal(tmp_path, n_events=1500, n_keys=200, num_epochs=2)
    eng, _ = run_and_check(tmp_path, wal_dir, files, num_partitions=4)
    state = oracle_replay_dict(files)
    want_tokens = sum(len(v["tokens"]) for v in state.values())
    n_docs = len(state)

    def drain(seed, epoch):
        return list(training_batches(eng, context_len=128, micro_batch=4,
                                     seed=seed, epoch=epoch))

    b1 = drain(0, 0)
    assert all(b.shape[1] == 128 and b.dtype == np.int32 for b in b1)
    assert all(b.shape[0] == 4 for b in b1[:-1])  # only the tail may be short
    # conservation: content + one EOD per doc + tail padding == emitted cells
    total_cells = sum(b.size for b in b1)
    assert want_tokens + n_docs <= total_cells  # content + EODs all present
    nonpad_lower = want_tokens  # pads/EODs are token 0 here; content tokens >= 1
    assert sum(int((b > 0).sum()) for b in b1) == nonpad_lower

    b2 = drain(0, 0)
    assert len(b1) == len(b2) and all((x == y).all() for x, y in zip(b1, b2))
    b3 = drain(0, 1)  # next epoch: same cells, different order
    assert sum(b.size for b in b3) == total_cells
    assert any((x.shape != y.shape) or (x != y).any() for x, y in zip(b1, b3))


def test_training_batches_source_weighted_mix(tmp_path):
    """source_weights mixing: w=2.0 contributes every doc exactly twice,
    w=0 drops a source entirely, fractional w subsamples near its rate —
    all deterministic per (seed, epoch) and re-rolled on the next epoch."""
    import numpy as np

    from go_tfdata_ray.pipelines.loader import training_batches

    wal_dir, files = make_wal(tmp_path, n_events=1500, n_keys=200, num_epochs=2)
    eng, _ = run_and_check(tmp_path, wal_dir, files, num_partitions=4)
    state = oracle_replay_dict(files)
    srcs = sorted({v["source"] for v in state.values()})
    assert len(srcs) >= 3
    tok_by_src = {s: sum(len(v["tokens"]) for v in state.values()
                         if v["source"] == s) for s in srcs}
    doc_by_src = {s: sum(1 for v in state.values() if v["source"] == s)
                  for s in srcs}
    w = {srcs[0]: 2.0, srcs[1]: 0.0, srcs[2]: 0.5}
    for s in srcs[3:]:
        w[s] = 1.0

    def content_tokens(seed, epoch):
        # non-pad cells = content tokens (EOD/pad are 0 in this fixture)
        return sum(int((b > 0).sum()) for b in training_batches(
            eng, context_len=128, micro_batch=4, seed=seed, epoch=epoch,
            source_weights=w))

    got = content_tokens(0, 0)
    # exact part: 2x src0 + 0x src1 + 1x the unweighted rest
    fixed = 2 * tok_by_src[srcs[0]] + sum(tok_by_src[s] for s in srcs[3:])
    frac_part = got - fixed
    # fractional source: binomial(n_docs, 0.5) of its docs survive
    assert 0 < frac_part < tok_by_src[srcs[2]], (frac_part, tok_by_src)
    n_kept_possible = doc_by_src[srcs[2]]
    assert n_kept_possible >= 10  # enough docs for the loose band below
    assert abs(frac_part / tok_by_src[srcs[2]] - 0.5) < 0.45
    assert content_tokens(0, 0) == got       # deterministic per (seed, epoch)
    # epoch re-roll: token totals can tie, so assert on the kept DOC DRAW
    from go_tfdata_ray.pipelines.loader import _weighted_mix
    import pyarrow as pa
    docs = [k for k, v in state.items() if v["source"] == srcs[2]]
    t = pa.table({"doc_id": docs, "source": [srcs[2]] * len(docs)})
    kept0 = set(_weighted_mix({srcs[2]: 0.5}, 0)(t)["doc_id"].to_pylist())
    kept1 = set(_weighted_mix({srcs[2]: 0.5}, 1)(t)["doc_id"].to_pylist())
    assert kept0 != kept1

    # w>1 copies must NOT be adjacent (adjacent copies pack into the same
    # context window): the batch emits all first copies then all seconds
    t2 = pa.table({"doc_id": docs, "source": [srcs[2]] * len(docs)})
    out2 = _weighted_mix({srcs[2]: 2.0}, 0)(t2)["doc_id"].to_pylist()
    n = len(docs)
    assert len(out2) == 2 * n
    assert out2[:n] == out2[n:] == docs  # copy-number-major order


def test_source_rollup_checkpoint_resume(tmp_path):
    """A consumer restarted from its checkpoint rolls forward incrementally
    (O(change set)) instead of full-refreshing, and matches a view that
    never went away."""
    from go_tfdata_ray.cdc.consumer import SourceRollup
    from go_tfdata_ray.sources.wal import list_segments

    wal_dir, files = make_wal(tmp_path, n_events=3000, n_keys=300, num_epochs=3)
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    segs = list_segments(wal_dir)
    ckpt = str(tmp_path / "rollup.ckpt.parquet")

    view = SourceRollup(eng)
    e0, p0 = segs[0]
    eng.apply_epoch(e0, p0)
    view.refresh()
    view.save(ckpt)

    for e, paths in segs[1:]:
        eng.apply_epoch(e, paths)
        view.refresh()

    # "crashed" consumer comes back from the checkpoint
    resumed = SourceRollup.load(eng, ckpt)
    out = resumed.refresh()
    assert out["mode"] == "incremental"  # NOT a full recompute
    assert resumed.state == view.state
    assert resumed.table().equals(view.table())

    # checkpoint is atomic: the tmp file never survives
    import os
    assert not os.path.exists(ckpt + ".tmp")


def test_tail_on_commit_keeps_live_view_current(tmp_path):
    """tail(on_commit=...) drives a checkpointed incremental view in
    lockstep with every committed epoch."""
    from go_tfdata_ray.cdc.consumer import SourceRollup

    wal_dir, files = make_wal(tmp_path, n_events=3000, n_keys=300, num_epochs=3)
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    ckpt = str(tmp_path / "view.parquet")

    view = SourceRollup(eng)
    seen = []

    def hook(r):
        seen.append(r["epoch"])
        view.refresh()
        view.save(ckpt)

    out = eng.tail(wal_dir, idle_limit=1, poll_secs=0.05, on_commit=hook)
    assert out["epochs_applied"] == 3 and seen == [0, 1, 2]
    # the checkpoint on disk IS the current view
    restored = SourceRollup.load(eng, ckpt)
    assert restored.state == view.state
    assert restored.refresh()["mode"] == "noop"
    # and the view equals a full recompute
    fresh = SourceRollup(eng)
    fresh.full_refresh()
    assert fresh.state == view.state


def test_export_tfrecord_bridge(tmp_path):
    """Lake snapshot -> sharded TFRecord -> read back equals the scan."""
    from go_tfdata_ray.pipelines.builder import DefaultPipeline

    wal_dir, files = make_wal(tmp_path, n_events=2000, n_keys=200, num_epochs=2)
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    eng.apply_wal(wal_dir)
    out = str(tmp_path / "export")
    n = eng.export_tfrecord(out, columns=["doc_id", "n_tok"],
                            where=[("n_tok", ">=", 10)])
    want = eng.scan(columns=["doc_id", "n_tok"],
                    where=[("n_tok", ">=", 10)]).to_pandas()
    assert n == len(want) > 0
    back = DefaultPipeline().from_tfrecord(out).collect().do().to_pandas()
    got = sorted((r[0].decode() if isinstance(r[0], bytes) else r[0], int(v[0]))
                 for r, v in zip(back["doc_id"], back["n_tok"]))
    assert got == sorted(zip(want["doc_id"], want["n_tok"]))


def test_export_tfrecord_refuses_stale_dir(tmp_path):
    import pytest

    wal_dir, files = make_wal(tmp_path, n_events=1000, n_keys=100, num_epochs=1)
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=2)
    eng.apply_wal(wal_dir)
    out = str(tmp_path / "export")
    n1 = eng.export_tfrecord(out, columns=["doc_id", "n_tok"])
    assert n1 > 0
    # second export into the same dir must refuse (stale-snapshot mixing) …
    with pytest.raises(FileExistsError):
        eng.export_tfrecord(out, columns=["doc_id", "n_tok"])
    # … unless overwrite clears the old shards first
    n2 = eng.export_tfrecord(out, columns=["doc_id", "n_tok"], overwrite=True)
    assert n2 == n1


def test_dedup_lake_exact_content(tmp_path):
    """Lake-level content dedup: docs with byte-identical token arrays are
    tombstoned down to the smallest doc_id, through the ordinary delete
    epoch — exactly-once, time-travelable, idempotent on re-run."""
    import numpy as np

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=8)
    rng = np.random.default_rng(7)
    contents = [rng.integers(0, 500, rng.integers(1, 20)).tolist()
                for _ in range(40)]
    docs = [f"doc{i:04d}" for i in range(200)]
    toks = [contents[i % 40] for i in range(200)]
    eng.upsert(pa.table({
        "doc_id": pa.array(docs),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "source": pa.array(["s"] * 200),
    }))
    want = {}
    for d, tk in zip(docs, toks):
        want.setdefault(tuple(tk), d)  # docs ascend, so first = min

    pre_version = eng.manifest.version
    dry = eng.dedup_lake(num_shards=16, dry_run=True)
    assert dry == {"duplicates": 200 - len(want), "dry_run": True,
                   "method": "exact"}

    out = eng.dedup_lake(num_shards=16)
    assert out["deleted"] == 200 - len(want) and not out.get("skipped")
    alive = eng.scan(columns=["doc_id", "tokens"]).to_pandas()
    got = {tuple(r): d for d, r in zip(alive["doc_id"], alive["tokens"])}
    assert got == want

    # idempotent: a second pass finds nothing to delete
    again = eng.dedup_lake(num_shards=16)
    assert again.get("skipped") and again["deleted"] == 0

    # time travel: the pre-dedup snapshot is intact at its version
    assert len(eng.scan(at_version=pre_version).to_pandas()) == 200

    # re-applying the committed delete epoch is a no-op (resume path);
    # the tombstones went straight into run files, none under _staging/
    assert not os.path.exists(os.path.join(lake, "_staging"))
    assert eng.apply_epoch(out["epoch"], [])["skipped"]


def test_dedup_lake_minhash_neardup(tmp_path):
    """Near-dup lake dedup: planted near-copies (2 of 200 tokens changed,
    Jaccard ≈ 0.95 over 5-gram shingles) collapse to one survivor per pair;
    unrelated docs survive. Deterministic: fixed hasher seed + seeded data."""
    import numpy as np

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=8)
    rng = np.random.default_rng(11)
    docs, toks, origs = [], [], []
    for i in range(20):
        t = rng.integers(0, 30000, 200).tolist()
        origs.append(t)
        docs.append(f"orig{i:03d}")
        toks.append(t)
    for i in range(20):
        t = list(origs[i])
        t[7], t[150] = 77777, 88888
        docs.append(f"ndup{i:03d}")
        toks.append(t)
    eng.upsert(pa.table({
        "doc_id": pa.array(docs),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "source": pa.array(["s"] * 40),
    }))
    out = eng.dedup_lake(method="minhash", threshold=0.8, num_shards=16)
    assert out["deleted"] == 20 and out["method"] == "minhash"
    alive = set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"])
    # exactly one survivor per near-dup pair: the smaller key ("ndup" < "orig")
    assert alive == {f"ndup{i:03d}" for i in range(20)}


def _tok_table(ids, toks, src="s"):
    return pa.table({
        "doc_id": pa.array(ids),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "source": pa.array([src] * len(ids)),
    })


def test_upsert_dataset_distributed(tmp_path):
    """Dataset-sourced upsert: content-addressed staged shards, one
    exactly-once epoch, later upsert_dataset of the same doc supersedes
    (epoch-scaled seqs), committed-epoch re-apply is a no-op."""
    import ray.data as rd

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=8)
    ids = [f"d{i:03d}" for i in range(50)]
    toks = [[i, i + 1, i + 2] for i in range(50)]
    out = eng.upsert_dataset(
        rd.from_arrow(_tok_table(ids, toks)).repartition(5))
    assert out["upserted"] == 50 and not out.get("skipped")
    df = eng.scan(columns=["doc_id", "tokens", "n_tok"]).to_pandas()
    assert len(df) == 50
    got = {d: list(t) for d, t in zip(df["doc_id"], df["tokens"])}
    assert got == dict(zip(ids, toks))
    assert set(df["n_tok"]) == {3}  # derived from tokens

    # supersede: a second Dataset upsert of a subset updates those rows
    out2 = eng.upsert_dataset(rd.from_arrow(_tok_table(ids[:5],
                                                       [[9]] * 5)))
    assert out2["upserted"] == 5
    df2 = eng.scan(columns=["doc_id", "tokens"]).to_pandas()
    got2 = {d: list(t) for d, t in zip(df2["doc_id"], df2["tokens"])}
    assert all(got2[d] == [9] for d in ids[:5])
    assert all(got2[d] == tk for d, tk in zip(ids[5:], toks[5:]))

    # committed-epoch re-apply (resume path) is a no-op; block tasks
    # wrote run files directly, none under _staging/
    assert not os.path.exists(os.path.join(lake, "_staging"))
    assert eng.apply_epoch(out2["epoch"], [])["skipped"]

    # empty dataset: skipped, no epoch burned
    e0 = eng.manifest.committed_epoch
    out3 = eng.upsert_dataset(rd.from_arrow(_tok_table([], [])))
    assert out3.get("skipped") and eng.manifest.committed_epoch == e0


def test_upsert_dataset_with_an_empty_block(tmp_path):
    """An empty block's intent rows have a full block's schema, key filter
    column included, so ``_apply_synth`` commits a Dataset with an empty
    block among full ones, and lookups through the filters find every
    row."""
    import ray.data as rd

    from go_tfdata_ray.cdc import engine as E

    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    ids = [f"e{i:03d}" for i in range(40)]
    toks = [[i, i + 1] for i in range(40)]
    t = _tok_table(ids, toks)
    scratch = str(tmp_path / "scratch")
    os.makedirs(scratch)
    wm = E._wm_vector(4, {})
    empty, full = (E._write_synth_block(scratch, eng.policy, 4, wm, 1, 0, "U", b)
                   for b in (t.slice(0, 0), t.slice(0, 3)))
    assert empty.num_rows == 0 and full.num_rows > 0
    assert empty.schema == full.schema and "bloom" in full.schema.names

    out = eng.upsert_dataset(rd.from_arrow([t.slice(0, 25), t.slice(0, 0),
                                            t.slice(25)]))
    assert out["upserted"] == 40
    got = eng.lookup(ids + ["e-absent"], columns=["doc_id", "tokens"])
    assert dict(zip(got["doc_id"].to_pylist(), got["tokens"].to_pylist())) \
        == dict(zip(ids, toks))


def test_dedup_lake_span(tmp_path):
    """Span-level lake dedup: duplicated k-token windows are cut from all
    but the first occurrence; affected docs are REWRITTEN (update epoch,
    time-travelable), fully-emptied docs tombstoned, second run is a
    no-op."""

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=8)

    def toks(i, n=40):
        return [i * 100 + j for j in range(n)]

    rows = {str(i): toks(i) for i in range(1, 15)}
    rows["200"] = toks(1)  # full copy → emptied → tombstoned
    rows["300"] = ([90001, 90002, 90003] + toks(2)[5:25]
                   + [90011, 90012, 90013])  # partial: run cut
    eng.upsert(_tok_table(list(rows), list(rows.values())))
    v0 = eng.manifest.version

    dry = eng.dedup_lake(method="span", span_k=8, dry_run=True)
    assert dry["dry_run"] and dry["spans"] == 2  # full-copy span + run

    out = eng.dedup_lake(method="span", span_k=8)
    assert out["rewritten"] == 1 and out["emptied"] == 1

    df = eng.scan(columns=["doc_id", "tokens", "n_tok"]).to_pandas()
    cur = {d: list(t) for d, t in zip(df["doc_id"], df["tokens"])}
    assert "200" not in cur
    assert cur["1"] == toks(1) and cur["2"] == toks(2)  # winners intact
    assert cur["300"] == [90001, 90002, 90003, 90011, 90012, 90013]
    nt = dict(zip(df["doc_id"], df["n_tok"]))
    assert nt["300"] == 6  # n_tok recomputed on rewrite

    # pre-dedup snapshot intact
    old = eng.scan(columns=["doc_id"], at_version=v0).to_pandas()
    assert len(old) == len(rows)

    again = eng.dedup_lake(method="span", span_k=8)
    assert again.get("skipped") and again["spans"] == 0

    # keep="none" + drop_empty=False: both copies cut, kept as empty rows
    lake2 = str(tmp_path / "lake2")
    e2 = CDCEngine(lake2, num_partitions=4)
    e2.upsert(_tok_table(["a", "b"], [list(range(10))] * 2))
    r = e2.dedup_lake(method="span", span_k=5, span_keep="none",
                      drop_empty=False)
    assert r["rewritten"] == 2 and r["emptied"] == 0
    df2 = e2.scan(columns=["doc_id", "tokens"]).to_pandas()
    assert {d: list(t) for d, t in zip(df2["doc_id"], df2["tokens"])} == \
        {"a": [], "b": []}


def test_dedup_incremental_staleness(tmp_path):
    """Incremental dedup against the persisted content-hash index: new-epoch
    dups lose to indexed incumbents; a stale index entry (incumbent updated
    or deleted) never causes a wrong delete AND never shadows the live
    incumbent (op='D' index drops)."""
    import numpy as np

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=8)
    rng = np.random.default_rng(2)
    A, B, C, D = (rng.integers(0, 999, n).tolist() for n in (50, 60, 70, 40))

    eng.upsert(_tok_table(["a1", "a2", "b1"], [A, A, B]))
    out = eng.dedup_incremental(num_shards=8)
    assert out["bootstrap"] and out["deleted"] == 1  # a2 loses to a1

    eng.upsert(_tok_table(["a3", "c1", "c2"], [A, C, C]))
    out = eng.dedup_incremental()
    assert not out["bootstrap"] and out["deleted"] == 2  # a3→a1, c2→c1
    assert set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"]) == {
        "a1", "b1", "c1"}

    # stale via UPDATE: b1's content changes; b9 re-uses B → must SURVIVE
    eng.upsert(_tok_table(["b1"], [D]))
    eng.upsert(_tok_table(["b9"], [B]))
    assert eng.dedup_incremental()["deleted"] == 0
    alive = set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"])
    assert alive == {"a1", "b1", "b9", "c1"}

    # the stale entry must be dropped: b8 (with B) loses to live b9
    eng.upsert(_tok_table(["b8"], [B]))
    assert eng.dedup_incremental()["deleted"] == 1
    assert "b8" not in set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"])

    # stale via DELETE: a1 removed; a5 re-uses A → survives, becomes incumbent
    eng.delete_where(doc_ids=["a1"])
    eng.upsert(_tok_table(["a5"], [A]))
    assert eng.dedup_incremental()["deleted"] == 0
    eng.upsert(_tok_table(["a6"], [A]))
    assert eng.dedup_incremental()["deleted"] == 1  # a6 loses to a5

    out = eng.dedup_incremental()  # no-op run
    assert out["deleted"] == 0 and out["candidates"] == 0
    toks = eng.scan(columns=["tokens"]).to_pandas()["tokens"]
    assert len({tuple(t) for t in toks}) == len(toks)  # no content dups left


@pytest.mark.parametrize("seed", [17, 23, 99])
def test_dedup_incremental_random_churn(tmp_path, seed):
    """Randomized insert/update/delete churn — content reverts happen
    naturally (the pool is re-sampled) and empty epochs are injected — with
    an incremental dedup after every epoch: (1) no two live docs ever share
    content, (2) every content in the pre-dedup state keeps exactly one
    live representative."""
    import numpy as np

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=8)
    rng = np.random.default_rng(seed)
    contents = [rng.integers(0, 999, int(rng.integers(5, 40))).tolist()
                for _ in range(12)]
    keys = [f"k{i:03d}" for i in range(40)]
    state: dict[str, tuple] = {}

    for _round in range(6):
        n = int(rng.integers(5, 15))
        ids = list(rng.choice(keys, n, replace=False))
        toks = [contents[int(rng.integers(0, 12))] for _ in ids]
        eng.upsert(_tok_table(ids, toks))
        for d, t in zip(ids, toks):
            state[d] = tuple(t)
        if _round % 2 == 1 and state:
            victims = sorted(state)[:2]
            eng.delete_where(doc_ids=victims)
            for v in victims:
                state.pop(v)
        if _round == 3:  # a zero-intent epoch mid-stream must be harmless
            eng.upsert(pa.table({
                "doc_id": pa.array([], pa.string()),
                "tokens": pa.array([], pa.list_(pa.int32())),
                "source": pa.array([], pa.string()),
            }))
        eng.dedup_incremental(num_shards=8)
        alive = eng.scan(columns=["doc_id", "tokens"]).to_pandas()
        got = {d: tuple(t) for d, t in zip(alive["doc_id"], alive["tokens"])}
        want_contents = set(state.values())
        assert set(got.values()) == want_contents          # nothing lost
        assert len(got) == len(want_contents)              # nothing duplicated
        for d, c in got.items():                           # rows are genuine
            assert state[d] == c
        # mirror the dedup into the model: survivors define the state
        state = dict(got)


def test_dedup_index_compaction(tmp_path):
    """Index segments accumulate one per run; compaction folds each shard to
    a single live segment without changing dedup results."""
    import glob as _glob

    import numpy as np

    from go_tfdata_ray.cdc import dedupidx

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    rng = np.random.default_rng(4)
    for i in range(5):  # 5 runs, distinct content each → 5 append segments
        c = rng.integers(0, 999, 20).tolist()
        eng.upsert(_tok_table([f"x{i}a", f"x{i}b"], [c, c]))
        eng.dedup_incremental(num_shards=4, compact_over=0)
    idx_dir = str(tmp_path / "lake" / "_dedup_index")
    before = len(_glob.glob(os.path.join(idx_dir, "seg-*.parquet")))
    assert before >= 5
    stats = dedupidx.compact_index(lake)
    after = len(_glob.glob(os.path.join(idx_dir, "seg-*.parquet")))
    assert stats["removed_segments"] > 0 and after < before

    # results unchanged: a dup of run-0 content still loses post-compaction
    c0 = np.random.default_rng(4).integers(0, 999, 20).tolist()
    eng.upsert(_tok_table(["zzz"], [c0]))
    out = eng.dedup_incremental()
    assert out["deleted"] == 1
    assert "zzz" not in set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"])


def test_dedup_incremental_content_revert(tmp_path):
    """Tier-2 verification: an incumbent updated AWAY from and then BACK to
    the indexed content is live with a new seq — the seq check alone would
    call it stale; the payload re-hash must recognize it as still holding
    the content, so a later duplicate LOSES to it (no content dup leaks)."""
    import numpy as np

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    rng = np.random.default_rng(6)
    A, B = rng.integers(0, 999, 30).tolist(), rng.integers(0, 999, 35).tolist()

    eng.upsert(_tok_table(["a1"], [A]))
    eng.dedup_incremental(num_shards=4)       # index: (hA, a1, seq0)
    eng.upsert(_tok_table(["a1"], [B]))       # away …
    eng.upsert(_tok_table(["a1"], [A]))       # … and back (new seq, same A)
    out = eng.dedup_incremental()             # a1 re-feeds as its own hash
    assert out["deleted"] == 0
    eng.upsert(_tok_table(["a9"], [A]))       # duplicate of reverted content
    out = eng.dedup_incremental()
    alive = set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"])
    assert out["deleted"] == 1 and alive == {"a1"}, (out, alive)
    toks = eng.scan(columns=["tokens"]).to_pandas()["tokens"]
    assert [list(t) for t in toks] == [A]


def test_dedup_incremental_full_resync_after_compaction(tmp_path):
    """Compaction folds the epochs the change feed needs: the next
    incremental run must fail loudly with the index-rebuild hint, and
    removing the index must recover via a fresh bootstrap."""
    import shutil

    import numpy as np

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    rng = np.random.default_rng(8)
    A = rng.integers(0, 999, 20).tolist()
    eng.upsert(_tok_table(["a1", "a2"], [A, A]))
    eng.dedup_incremental(num_shards=4)
    eng.upsert(_tok_table(["b1"], [rng.integers(0, 999, 25).tolist()]))
    eng.compact()
    with pytest.raises(RuntimeError, match="remove .*_dedup_index"):
        eng.dedup_incremental()
    shutil.rmtree(os.path.join(lake, "_dedup_index"))
    out = eng.dedup_incremental(num_shards=4)
    assert out["bootstrap"] and out["deleted"] == 0
    eng.upsert(_tok_table(["a9"], [A]))
    assert eng.dedup_incremental()["deleted"] == 1  # index works again


def test_dedup_incremental_dry_run(tmp_path):
    """dry_run reports counts but mutates nothing: no tombstones, no index
    segments, no state advance — a real run afterwards behaves as if the
    dry run never happened."""
    import glob as _glob

    import numpy as np

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    A = np.random.default_rng(3).integers(0, 999, 20).tolist()
    eng.upsert(_tok_table(["a1", "a2", "a3"], [A, A, A]))
    v0 = eng.manifest.version
    out = eng.dedup_incremental(num_shards=4, dry_run=True)
    shard_io = {k: out.pop(k) for k in
                ("index_shards_probed", "index_shards_read")}
    assert out == {"duplicates": 2, "dry_run": True, "method": "incremental",
                   "bootstrap": True, "candidates": 2, "num_shards": 4}
    # all three docs share one content hash → exactly one shard touched,
    # and the Bloom prefilter never skips a shard that holds a candidate
    assert shard_io == {"index_shards_probed": 1, "index_shards_read": 1}
    assert eng.manifest.version == v0
    idx = os.path.join(lake, "_dedup_index")
    assert not _glob.glob(os.path.join(idx, "seg-*.parquet"))
    assert not os.path.exists(os.path.join(idx, "state.json"))
    out = eng.dedup_incremental(num_shards=4)
    assert out["bootstrap"] and out["deleted"] == 2


def test_tail_auto_dedup_with_compaction(tmp_path):
    """Dedup-on-ingest: tail(auto_dedup=1) tombstones content duplicates as
    epochs land; combined with auto_compact, the dedup drains the change
    feed BEFORE compaction folds it (no full-resync error), and the final
    state holds exactly one live doc per distinct content."""
    import numpy as np

    from go_tfdata_ray.sources import wal as walmod

    wal = str(tmp_path / "wal")
    rng = np.random.default_rng(5)
    contents = [rng.integers(0, 999, 15).tolist() for _ in range(6)]
    seq = 0
    for e in range(5):  # each epoch re-inserts known contents under new ids
        d = walmod.open_segment(wal, e)
        ids = [f"e{e}d{i}" for i in range(4)]
        toks = [contents[(e + i) % 6] for i in range(4)]
        t = pa.table({
            "seq": pa.array(range(seq, seq + 4), pa.int64()),
            "epoch": pa.array([e] * 4, pa.int32()),
            "op": pa.array(["I"] * 4),
            "doc_id": pa.array(ids),
            "tokens": pa.array(toks, pa.list_(pa.int32())),
            "n_tok": pa.array([len(x) for x in toks], pa.int32()),
            "source": pa.array(["s"] * 4),
        })
        seq += 4
        pq.write_table(t, os.path.join(d, "shard-000000.parquet"))
        walmod.seal_segment(d)

    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    m = eng.tail(wal, idle_limit=1, poll_secs=0.01,
                 auto_dedup=1, auto_compact=3)
    assert m["epochs_applied"] == 5
    assert m["rows_deduped"] == 20 - 6  # 20 inserts, 6 distinct contents
    alive = eng.scan(columns=["tokens"]).to_pandas()["tokens"]
    assert len(alive) == 6
    assert {tuple(t) for t in alive} == {tuple(c) for c in contents}


def test_tail_after_synthesized_epochs_ingests_all_segments(tmp_path):
    """A lake whose FIRST epochs are synthesized (upsert before any tail)
    must not skip WAL segments: tail's segment watermark starts at -1, not
    committed_epoch."""
    import numpy as np

    from go_tfdata_ray.sources import wal as walmod

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    rng = np.random.default_rng(1)
    eng.upsert(_tok_table(["u1"], [rng.integers(0, 99, 8).tolist()]))
    eng.upsert(_tok_table(["u2"], [rng.integers(0, 99, 8).tolist()]))
    assert eng.manifest.committed_epoch == 1  # two synthesized epochs

    wal = str(tmp_path / "wal")
    seq = 0
    for e in range(2):  # segment ids 0 and 1 — both BELOW committed_epoch+1
        d = walmod.open_segment(wal, e)
        t = pa.table({
            "seq": pa.array([seq], pa.int64()),
            "epoch": pa.array([e], pa.int32()),
            "op": pa.array(["I"]),
            "doc_id": pa.array([f"w{e}"]),
            "tokens": pa.array([[e, e + 1]], pa.list_(pa.int32())),
            "n_tok": pa.array([2], pa.int32()),
            "source": pa.array(["s"]),
        })
        seq += 1
        pq.write_table(t, os.path.join(d, "shard-000000.parquet"))
        walmod.seal_segment(d)
    m = eng.tail(wal, idle_limit=1, poll_secs=0.01)
    assert m["epochs_applied"] == 2 and m["rows_applied"] == 2
    alive = set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"])
    assert alive == {"u1", "u2", "w0", "w1"}


def test_empty_epoch_does_not_break_change_feed(tmp_path):
    """A zero-intent epoch (empty WAL segment) advances committed_epoch
    without an epochs entry; the change feed must treat the gap as empty,
    not as compacted-away (full-resync only when compaction actually
    folded needed epochs)."""
    import numpy as np

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    rng = np.random.default_rng(2)
    eng.upsert(_tok_table(["a"], [rng.integers(0, 99, 8).tolist()]))
    v0 = eng.manifest.version
    # synthesize an EMPTY epoch through the staging path
    out = eng.upsert(pa.table({
        "doc_id": pa.array([], pa.string()),
        "tokens": pa.array([], pa.list_(pa.int32())),
        "source": pa.array([], pa.string()),
    }))
    assert out["delta_rows"] == 0
    eng.upsert(_tok_table(["b"], [rng.integers(0, 99, 8).tolist()]))
    feed = eng.changes(v0, collapsed=True).to_pandas()
    assert set(feed["doc_id"]) == {"b"}  # gap skipped, no RuntimeError
    # compaction still triggers the genuine full-resync refusal
    eng.compact()
    with pytest.raises(RuntimeError, match="full-resync"):
        eng.changes(v0)


def test_hash_list_column_float_lists():
    """Float lists hash by bit pattern: distinct small floats must not
    collide (astype-int truncation would map 0.1 and 0.2 both to 0)."""
    import numpy as np
    import pyarrow as pa

    from go_tfdata_ray.functions.dedup import hash_list_column

    a = pa.array([[0.1, 0.2], [0.2, 0.1], [0.1, 0.2], [0.0, 0.0]],
                 pa.list_(pa.float64()))
    h = hash_list_column(a, salt=1)
    assert h[0] == h[2] and len({h[0], h[1], h[3]}) == 3
    f32 = pa.array([[0.1, 0.2]], pa.list_(pa.float32()))
    assert hash_list_column(f32, salt=1)[0] != h[0]  # different widths differ


def test_compacted_base_is_clustered_and_pruned(tmp_path):
    """compact() clusters bases by doc_id with bounded row groups; point
    lookups prune to the matching row groups via parquet stats and return
    exactly the pre-compaction answers."""
    import glob as _glob

    import numpy as np
    import pyarrow.parquet as _pq

    from go_tfdata_ray.cdc.engine import _prune_row_groups

    wal_dir, files = make_wal(tmp_path, n_events=200000, n_keys=120000,
                              num_epochs=2, op_mode="hash")
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=2)
    eng.apply_wal(wal_dir)
    some = sorted(oracle_replay_dict(files))[:7]
    before = {r["doc_id"]: r["tokens"] for r in eng.lookup(some).to_pylist()}
    eng.compact()
    base = max(_glob.glob(os.path.join(lake, "part=*", "base-*.parquet")),
               key=os.path.getsize)
    f = _pq.ParquetFile(base)
    assert f.metadata.num_row_groups > 1  # bounded row groups
    col = f.read_row_group(0, columns=["doc_id"])["doc_id"].to_pylist()
    assert col == sorted(col)  # clustered
    keep = _prune_row_groups(f, sorted(map(str, some)))
    assert keep is not None and len(keep) < f.metadata.num_row_groups
    after = {r["doc_id"]: r["tokens"] for r in eng.lookup(some).to_pylist()}
    assert after == before
    # absent keys across the pruned path stay absent
    assert eng.lookup(["zzz-no-such-key"]).num_rows == 0


def test_tail_auto_dedup_keeps_live_view_current(tmp_path):
    """on_commit fires for dedup delete epochs too: a SourceRollup view
    maintained through tail(auto_dedup=) must equal a fresh full recompute
    at the end (dedup tombstones included)."""
    import numpy as np

    from go_tfdata_ray.cdc.consumer import SourceRollup
    from go_tfdata_ray.sources import wal as walmod

    wal = str(tmp_path / "wal")
    rng = np.random.default_rng(9)
    contents = [rng.integers(0, 999, 12).tolist() for _ in range(4)]
    seq = 0
    for e in range(3):
        d = walmod.open_segment(wal, e)
        toks = [contents[i] for i in range(4)]  # same 4 contents every epoch
        t = pa.table({
            "seq": pa.array(range(seq, seq + 4), pa.int64()),
            "epoch": pa.array([e] * 4, pa.int32()),
            "op": pa.array(["I"] * 4),
            "doc_id": pa.array([f"e{e}d{i}" for i in range(4)]),
            "tokens": pa.array(toks, pa.list_(pa.int32())),
            "n_tok": pa.array([len(x) for x in toks], pa.int32()),
            "source": pa.array(["a", "a", "b", "b"]),
        })
        seq += 4
        pq.write_table(t, os.path.join(d, "shard-000000.parquet"))
        walmod.seal_segment(d)

    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    view = SourceRollup(eng)

    def hook(_r):
        view.refresh()

    m = eng.tail(wal, idle_limit=1, poll_secs=0.01, auto_dedup=1,
                 on_commit=hook)
    assert m["rows_deduped"] == 8  # epochs 1,2 fully duplicate epoch 0
    fresh = SourceRollup(eng)
    fresh.full_refresh()
    assert view.state == fresh.state
    assert sum(v[0] for v in view.state.values()) == 4  # one doc per content


def test_dedup_incremental_bloom_skips_untouched_shards(tmp_path):
    """Bloom prefilter: a steady-state run whose new contents are all brand
    new must SKIP most shard-index reads (index_shards_read <<
    index_shards_probed), while a run carrying a true duplicate still reads
    the colliding shard and deletes the loser (no false negatives)."""
    import glob as _glob

    import numpy as np

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=8)
    rng = np.random.default_rng(5)
    mk = lambda n: [rng.integers(0, 9999, 40).tolist() for _ in range(n)]

    base = mk(64)
    eng.upsert(_tok_table([f"d{i:03d}" for i in range(64)], base))
    out = eng.dedup_incremental(num_shards=16)
    assert out["bootstrap"] and out["deleted"] == 0
    # bootstrap creates a Bloom side-file per touched shard
    assert _glob.glob(os.path.join(lake, "_dedup_index", "bloom-s*.bin"))

    # steady state, all-new content: Bloom must skip most pile reads
    eng.upsert(_tok_table([f"n{i:03d}" for i in range(64)], mk(64)))
    out = eng.dedup_incremental()
    assert out["deleted"] == 0
    assert out["index_shards_probed"] > 0
    # with 128 distinct contents over 16 shards every shard is probed;
    # a pile read only happens on a Bloom false positive (~2%)
    assert out["index_shards_read"] <= out["index_shards_probed"] // 2

    # true duplicate: its shard is read and the loser is deleted
    eng.upsert(_tok_table(["dup00"], [base[0]]))
    out = eng.dedup_incremental()
    assert out["deleted"] == 1 and out["index_shards_read"] >= 1
    alive = set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"])
    assert "dup00" not in alive and "d000" in alive

    # index compaction rebuilds the Bloom exactly; dedup still correct
    from go_tfdata_ray.cdc.dedupidx import compact_index
    compact_index(lake, min_segments=1)
    eng.upsert(_tok_table(["dup01"], [base[1]]))
    out = eng.dedup_incremental()
    assert out["deleted"] == 1


def test_clone_lake_branches_are_independent(tmp_path):
    """Zero-copy branch: the clone equals the source snapshot; writes,
    compaction and VACUUM on either side never leak into the other
    (hardlinked inodes survive the other branch's unlink)."""
    src = str(tmp_path / "src")
    eng = CDCEngine(src, num_partitions=4)
    eng.upsert(_tok_table(["a", "b", "c"], [[1], [2], [3]]))
    eng.upsert(_tok_table(["b", "d"], [[20], [4]]))
    v_branch = eng.manifest.version

    dst = str(tmp_path / "branch")
    res = eng.clone(dst)
    assert res["version"] == v_branch and res["linked"] > 0
    br = CDCEngine(dst)
    assert_tables_equal(br.scan_table(), eng.scan_table())

    # diverge both sides; neither sees the other's writes
    br.upsert(_tok_table(["e"], [[5]]))
    eng.upsert(_tok_table(["a"], [[100]]))
    src_ids = set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"])
    br_ids = set(br.scan(columns=["doc_id"]).to_pandas()["doc_id"])
    assert "e" not in src_ids and "e" in br_ids
    src_a = eng.lookup(["a"]).to_pandas()
    br_a = br.lookup(["a"]).to_pandas()
    assert src_a["tokens"].iloc[0] == [100] and br_a["tokens"].iloc[0] == [1]

    # the shared-inode survival test: compact+vacuum the SOURCE down to
    # fresh bases (unlinking every pre-branch fragment from its side),
    # then full-vacuum the BRANCH too — both must still scan exactly
    eng.compact()
    mf.vacuum(src, keep_versions=1)
    br.compact()
    mf.vacuum(dst, keep_versions=1)
    src_after = {r["doc_id"]: r["tokens"]
                 for r in eng.scan_table().to_pylist()}
    br_after = {r["doc_id"]: r["tokens"]
                for r in CDCEngine(dst).scan_table().to_pylist()}
    assert src_after == {"a": [100], "b": [20], "c": [3], "d": [4]}
    assert br_after == {"a": [1], "b": [20], "c": [3], "d": [4], "e": [5]}


def test_clone_lake_at_version_and_guards(tmp_path):
    """at_version branches a PAST snapshot; cloning onto an existing lake
    refuses; a crashed half-clone (no manifest jsons) re-runs clean."""
    src = str(tmp_path / "src")
    eng = CDCEngine(src, num_partitions=2)
    eng.upsert(_tok_table(["a"], [[1]]))
    v0 = eng.manifest.version
    eng.upsert(_tok_table(["b"], [[2]]))

    dst = str(tmp_path / "old")
    eng.clone(dst, at_version=v0)
    old = CDCEngine(dst)
    assert set(old.scan(columns=["doc_id"]).to_pandas()["doc_id"]) == {"a"}
    # the branch's history ends at the branch point
    assert old.manifest.version == v0

    with pytest.raises(FileExistsError):
        eng.clone(dst)

    # simulate a crash mid-clone: data linked but no manifest jsons yet
    crashed = str(tmp_path / "crashed")
    eng.clone(crashed)
    for n in os.listdir(os.path.join(crashed, "_manifests")):
        if n.startswith("manifest-v"):
            os.unlink(os.path.join(crashed, "_manifests", n))
    res = eng.clone(crashed)  # re-run: relinks idempotently, commits
    assert res["version"] == eng.manifest.version
    assert_tables_equal(CDCEngine(crashed).scan_table(), eng.scan_table())


def test_clone_lake_carries_incremental_dedup_index(tmp_path):
    """include_indexes keeps dedup-on-branch O(change set): the clone's
    first dedup_incremental is NOT a bootstrap and still catches a new
    duplicate of a source-era incumbent."""
    src = str(tmp_path / "src")
    eng = CDCEngine(src, num_partitions=2)
    eng.upsert(_tok_table(["orig"], [[7, 8, 9]]))
    out = eng.dedup_incremental(num_shards=4)
    assert out["bootstrap"]

    dst = str(tmp_path / "branch")
    eng.clone(dst)
    br = CDCEngine(dst)
    br.upsert(_tok_table(["copycat"], [[7, 8, 9]]))
    out = br.dedup_incremental()
    assert not out["bootstrap"] and out["deleted"] == 1
    alive = set(br.scan(columns=["doc_id"]).to_pandas()["doc_id"])
    assert alive == {"orig"}
    # and the SOURCE index is untouched: a source-side dup still resolves
    eng.upsert(_tok_table(["copysrc"], [[7, 8, 9]]))
    out = eng.dedup_incremental()
    assert not out["bootstrap"] and out["deleted"] == 1


def test_scan_where_base_pushdown_semantics(tmp_path):
    """The where-pushdown on the compacted base (row-group stats pruning +
    pre-merge row filter of the unique min-rank fragment) never changes
    results: masking works in BOTH directions across the compaction
    boundary — an old version that passes must not resurrect under a new
    version that fails, and a new version that passes must survive an old
    one that fails. Tombstones still mask."""
    import pandas as pd

    import ray

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    n = 400
    base_rows = pa.table({
        "doc_id": pa.array([f"d{i:05d}" for i in range(n)], pa.string()),
        "tokens": pa.array([[i % 7, i % 11] for i in range(n)],
                           pa.list_(pa.int32())),
        "n_tok": pa.array([(i % 50) + 1 for i in range(n)], pa.int32()),
        "source": pa.array(["web" if i % 3 else "news" for i in range(n)],
                           pa.string()),
    })
    eng.upsert(base_rows)
    eng.compact()  # → unique-min-rank clustered base: the pushdown target

    # delta 1: flip 100 docs ACROSS the predicate boundary both ways
    # (old passes/new fails for evens, old fails/new passes for odds)
    upd = pa.table({
        "doc_id": pa.array([f"d{i:05d}" for i in range(0, 200, 2)]
                           + [f"d{i:05d}" for i in range(1, 200, 2)], pa.string()),
        "tokens": pa.array([[9]] * 200, pa.list_(pa.int32())),
        "n_tok": pa.array([3] * 100 + [45] * 100, pa.int32()),
        "source": pa.array(["web"] * 200, pa.string()),
    })
    eng.upsert(upd)
    # delta 2: tombstone some docs that would pass the predicate
    eng.delete_where(doc_ids=[f"d{i:05d}" for i in range(300, 320)])

    full = eng.scan_table()
    for where in ([("n_tok", ">=", 20)],
                  [("n_tok", "<", 10), ("source", "==", "web")],
                  [("doc_id", ">=", "d00100"), ("doc_id", "<", "d00250")],
                  [("n_tok", "in", (3, 45))]):
        got_ds = eng.scan(where=where)
        tabs = [t for t in [ray.get(r) for r in got_ds.to_arrow_refs()]
                if t.num_rows]
        got = (pa.concat_tables(tabs, promote_options="permissive")
               if tabs else full.slice(0, 0))
        df = full.to_pandas()
        mask = pd.Series(True, index=df.index)
        for col, op, val in where:
            if op == "in":
                mask &= df[col].isin(val)
            else:
                mask &= eval(f"df[col] {op if op != '==' else '=='} val",
                             {"df": df, "col": col, "val": val})
        want = df[mask]
        assert sorted(got["doc_id"].to_pylist()) == sorted(want["doc_id"]), where
        assert got.num_rows > 0, where


def test_prune_row_groups_where_stats():
    """Unit: row groups whose min/max stats exclude the predicate are
    skipped, for every supported op."""
    import pyarrow.parquet as pq

    from go_tfdata_ray.cdc.engine import _prune_row_groups_where

    t = pa.table({
        "doc_id": pa.array([f"d{i:04d}" for i in range(300)], pa.string()),
        "v": pa.array(list(range(300)), pa.int64()),
    })
    path = "/tmp/prune_where_unit.parquet"
    pq.write_table(t, path, row_group_size=100)  # groups: [0,99],[100,199],[200,299]
    f = pq.ParquetFile(path)
    assert _prune_row_groups_where(f, [("v", ">=", 200)]) == [2]
    assert _prune_row_groups_where(f, [("v", "<", 100)]) == [0]
    assert _prune_row_groups_where(f, [("v", "==", 150)]) == [1]
    assert _prune_row_groups_where(f, [("v", ">", 99), ("v", "<=", 150)]) == [1]
    assert _prune_row_groups_where(f, [("v", "in", (50, 250))]) == [0, 2]
    assert _prune_row_groups_where(
        f, [("doc_id", ">=", "d0100"), ("doc_id", "<", "d0200")]) == [1]
    # != prunes only a constant group; absent column stays conservative
    assert _prune_row_groups_where(f, [("v", "!=", 5)]) == [0, 1, 2]
    assert _prune_row_groups_where(f, [("missing", "==", 1)]) == [0, 1, 2]
    # single row group: pruning declines
    pq.write_table(t, path)
    assert _prune_row_groups_where(pq.ParquetFile(path), [("v", "==", 1)]) is None
    os.remove(path)


def _wal_shard(wal_dir, epoch: int, rows: list[dict], extra: dict | None = None) -> str:
    """Write ``rows`` (seq, op, doc_id, tokens) as the one shard of segment
    ``epoch``; ``extra`` adds columns (name → one value per row)."""
    t = pa.table({
        "seq": pa.array([r["seq"] for r in rows], pa.int64()),
        "epoch": pa.array([epoch] * len(rows), pa.int32()),
        "op": pa.array([r["op"] for r in rows], pa.string()),
        "doc_id": pa.array([r["doc_id"] for r in rows], pa.string()),
        "tokens": pa.array([r["tokens"] for r in rows], pa.list_(pa.int32())),
        "n_tok": pa.array([len(r["tokens"]) for r in rows], pa.int32()),
        "source": pa.array(["web"] * len(rows), pa.string()),
        **{k: pa.array(v) for k, v in (extra or {}).items()},
    })
    path = os.path.join(str(wal_dir), f"epoch-{epoch:05d}", "shard-00000.parquet")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(t, path)
    return path


def test_grouped_scan_matches_oracle_on_fragmented_lake(tmp_path):
    """More partitions than CPUs: each scan task merges a group of
    partitions and reuses run-file footers across them. The result must
    equal a naive seq-order replay row for row — plain, under ``where=``
    (the compacted base's pushdown included; a ``where`` column no
    fragment has raises), with ``with_deleted=True``, and in groups whose
    partitions hold fragments from before and after an add-column
    evolution."""
    import operator
    import shutil

    import ray

    from go_tfdata_ray.cdc import engine as E
    from go_tfdata_ray.cdc.collapse import hash_partition
    from go_tfdata_ray.sources.wal import LAKE_COLUMNS, list_segments

    nparts = 16
    assert E._per_task(nparts) > 1  # the session cluster has fewer CPUs
    gen_dir, gen_files = make_wal(tmp_path, n_events=3000, n_keys=300,
                                  num_epochs=4, shard_rows=400)
    live = tmp_path / "live"
    segs = list_segments(gen_dir)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=nparts)
    for e, _ in segs[:2]:
        shutil.copytree(os.path.join(gen_dir, f"epoch-{e:05d}"),
                        live / f"epoch-{e:05d}")
    eng.apply_wal(str(live))
    eng.compact()  # bases: the where-pushdown target
    for e, _ in segs[2:]:
        shutil.copytree(os.path.join(gen_dir, f"epoch-{e:05d}"),
                        live / f"epoch-{e:05d}")
    # segment 4 adds a 'lang' column to ~60 existing keys and 8 new ones,
    # all in even partitions: every task's group mixes partitions with
    # and without the column
    old = oracle_final_state(gen_files)["doc_id"].to_pylist()

    def even(ids):
        return [k for k, p in zip(ids, hash_partition(pa.array(ids), nparts).tolist())
                if p % 2 == 0]
    keys = even(old)[::2] + even([f"new-{i}" for i in range(40)])[:8]
    top = max(pq.read_table(f, columns=["seq"])["seq"].to_numpy().max()
              for f in gen_files)
    files = gen_files + [_wal_shard(
        live, len(segs),
        [{"seq": int(top) + 1 + i, "op": "U", "doc_id": k, "tokens": [i + 1] * 3}
         for i, k in enumerate(keys)],
        extra={"lang": ["en" if i % 2 else "de" for i in range(len(keys))]})]
    eng.apply_wal(str(live))
    assert any(k == "base" for d in eng._descriptors() for k in d["kinds"])

    events = pa.concat_tables([pq.read_table(f) for f in files],
                              promote_options="permissive").to_pylist()
    last: dict[str, dict] = {}
    for r in sorted(events, key=lambda r: r["seq"]):
        last[r["doc_id"]] = r
    want = {d: r for d, r in last.items() if r["op"] != "D"}

    def blocks(ds):
        tabs = [ray.get(r) for r in ds.to_arrow_refs()]
        assert len(tabs) == -(-nparts // E._per_task(nparts))  # one per task
        return pa.concat_tables(tabs, promote_options="permissive")

    cols = [*LAKE_COLUMNS, "lang"]
    got = blocks(eng.scan(columns=cols))
    assert_tables_equal(got, oracle_final_state(files))
    assert {r["doc_id"]: r for r in got.to_pylist()} == {
        d: {c: r.get(c) for c in cols} for d, r in want.items()}

    ops = {"==": operator.eq, "<": operator.lt, ">=": operator.ge,
           "in": lambda v, s: v in s}
    for where in ([("n_tok", ">=", 20)],
                  [("source", "==", "web"), ("n_tok", "<", 40)],
                  [("lang", "==", "en")],
                  [("doc_id", "in", tuple(keys[:5] + old[-5:]))]):
        got = blocks(eng.scan(columns=["doc_id"], where=where))
        exp = {d for d, r in want.items()
               if all(r.get(c) is not None and ops[op](r[c], v)
                      for c, op, v in where)}
        assert exp and sorted(got["doc_id"].to_pylist()) == sorted(exp), where
    # a name no fragment has is an error, not an empty match
    version = eng.manifest.version
    with pytest.raises(ValueError, match="lnag"):
        eng.scan(where=[("lang", "==", "en"), ("lnag", "==", "en")])
    with pytest.raises(ValueError, match="lnag"):
        eng.delete_where(where=[("lnag", "==", "en")])
    assert eng.manifest.version == version

    got = blocks(eng.scan(columns=["doc_id", "seq", "op", "part_id"],
                          with_deleted=True))
    assert {r["doc_id"]: (r["seq"], r["op"]) for r in got.to_pylist()} == {
        d: (r["seq"], r["op"]) for d, r in want.items()}
    assert (got["part_id"].to_pylist()
            == hash_partition(got["doc_id"], nparts).tolist())


def _base_delta_evolved_lake(tmp_path, nparts: int):
    """A lake with clustered multi-row-group bases (epoch 0), two delta
    epochs over them, and a last epoch that adds a 'lang' column to a
    few keys. Returns (engine, every WAL file applied)."""
    from go_tfdata_ray.sources.wal import list_segments

    gen_dir, gen_files = make_wal(tmp_path, n_events=3000, n_keys=300,
                                  num_epochs=3, shard_rows=400)
    segs = list_segments(gen_dir)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=nparts)
    eng.apply_epoch(*segs[0])
    eng.compact(row_group_size=8)
    for e, paths in segs[1:]:
        eng.apply_epoch(e, paths)
    old = oracle_final_state(gen_files)["doc_id"].to_pylist()
    top = max(pq.read_table(f, columns=["seq"])["seq"].to_numpy().max()
              for f in gen_files)
    keys = old[::25] + ["new-1", "new-2"]
    shard = _wal_shard(
        tmp_path / "wal-lang", len(segs),
        [{"seq": int(top) + 1 + i, "op": "U", "doc_id": k, "tokens": [i + 1] * 3}
         for i, k in enumerate(keys)],
        extra={"lang": ["en" if i % 2 else "de" for i in range(len(keys))]})
    eng.apply_epoch(len(segs), [shard])
    return eng, gen_files + [shard]


def _counting_pq(lake_dir: str):
    """A stand-in for the engine's ``pq`` that counts ``ParquetFile`` opens
    per file and logs every read as (file, kind, row groups)."""
    from collections import Counter

    opened: Counter = Counter()
    reads: list[tuple[str, str, tuple]] = []

    class Counting(pq.ParquetFile):
        def read(self, *a, **kw):
            reads.append((self.rel, "file", ()))
            return super().read(*a, **kw)

        def read_row_group(self, i, *a, **kw):
            reads.append((self.rel, "group", (i,)))
            return super().read_row_group(i, *a, **kw)

        def read_row_groups(self, rgs, *a, **kw):
            reads.append((self.rel, "groups", tuple(rgs)))
            return super().read_row_groups(rgs, *a, **kw)

    class PqProxy:
        def __getattr__(self, name):
            return getattr(pq, name)

        def ParquetFile(self, path, **kw):  # noqa: N802
            f = Counting(path, **kw)
            f.rel = os.path.relpath(path, lake_dir)
            opened[f.rel] += 1
            return f

    return PqProxy(), opened, reads


def test_reader_reads_each_run_file_once_per_batch(tmp_path, monkeypatch):
    """One reader call over a batch of partition descriptors (one scan
    task) opens each run file once and reads all the batch's row groups
    in it with ONE ``read_row_groups`` call. Its output equals reading
    every fragment on its own, and the oracle: plain, under ``where=`` on
    a base + delta lake (the clustered base still row-group-pruned), with
    ``with_deleted=True``, and over partitions from before and after an
    add-column evolution."""
    import pyarrow.compute as pc

    from go_tfdata_ray.cdc import engine as E
    from go_tfdata_ray.sources.wal import LAKE_COLUMNS

    eng, files = _base_delta_evolved_lake(tmp_path, nparts=8)
    desc = eng._descriptors()
    runs = {p for d in desc for p, g in zip(d["paths"], d["rgs"]) if g >= 0}
    bases = {p for d in desc for p, k in zip(d["paths"], d["kinds"]) if k == "base"}
    assert len(desc) == 8 and len(runs) > 1 and len(bases) == 8
    assert sum(len(d["paths"]) for d in desc) > len(runs) + len(bases)
    oracle = oracle_final_state(files)
    mid = sorted(oracle["doc_id"].to_pylist())[len(oracle) // 2]
    evolved = [*LAKE_COLUMNS, "lang"]
    proxy, opened, reads = _counting_pq(eng.lake_dir)

    for kw in (dict(columns=evolved),
               dict(columns=LAKE_COLUMNS, where=[("doc_id", "<", mid)]),
               dict(columns=["doc_id", "seq", "op", "part_id"], with_deleted=True)):
        one_by_one = E.PartitionMergeReader(eng.lake_dir, **kw)
        want = pa.concat_tables(
            [t for t in (one_by_one.merge(d["paths"], d["ranks"], d["rgs"])
                         for d in desc) if t is not None],
            promote_options="permissive")
        opened.clear()
        reads.clear()
        with monkeypatch.context() as mp:
            mp.setattr(E, "pq", proxy)
            got = E.PartitionMergeReader(eng.lake_dir, **kw)(pa.Table.from_pylist(desc))
        assert got.equals(want) and got.num_rows > 0, kw
        assert opened == dict.fromkeys(runs | bases, 1), kw
        run_reads = [r for r in reads if r[0] in runs]
        assert sorted(r[0] for r in run_reads) == sorted(runs), kw
        assert {r[1] for r in run_reads} == {"groups"}, kw
        base_reads = [r for r in reads if r[0] in bases]
        if "where" in kw:  # the bases' row groups past ``mid`` are pruned
            n_groups = {b: pq.ParquetFile(os.path.join(eng.lake_dir, b))
                        .metadata.num_row_groups for b in bases}
            assert base_reads and all(kind == "groups" and len(rgs) < n_groups[b]
                                      for b, kind, rgs in base_reads)
            assert_tables_equal(got, oracle.filter(pc.less(oracle["doc_id"], mid)))
        elif "with_deleted" in kw:
            assert (sorted(got["doc_id"].to_pylist())
                    == sorted(oracle["doc_id"].to_pylist()))
            assert "D" not in set(got["op"].to_pylist())
        else:
            assert_tables_equal(got, oracle)
            assert (len([v for v in got["lang"].to_pylist() if v])
                    == pq.read_table(files[-1]).num_rows)


def test_compaction_task_reads_each_run_file_once(tmp_path, monkeypatch):
    """A compaction task over four partitions opens each run file and each
    base once, reads the run files with one ``read_row_groups`` each, and
    still streams the base: no merge chunk exceeds a row group plus the
    partition's deltas. The folded bases hold the oracle's rows."""
    from go_tfdata_ray.cdc import engine as E
    from go_tfdata_ray.cdc.collapse import hash_partition

    eng, files = _base_delta_evolved_lake(tmp_path, nparts=8)
    desc = eng._descriptors()[:4]
    assert [d["part_id"] for d in desc] == [0, 1, 2, 3]
    runs = {p for d in desc for p, g in zip(d["paths"], d["rgs"]) if g >= 0}
    bases = {p for d in desc for p, k in zip(d["paths"], d["kinds"]) if k == "base"}
    assert len(runs) > 1 and len(bases) == 4
    proxy, opened, reads = _counting_pq(eng.lake_dir)
    monkeypatch.setattr(E, "pq", proxy)
    out = E._compact_partitions(eng.lake_dir, desc, 99, 1000, 8)
    monkeypatch.undo()

    assert opened == dict.fromkeys(runs | bases, 1)
    assert sorted(r[0] for r in reads if r[0] in runs) == sorted(runs)
    assert {r[1] for r in reads if r[0] in runs} == {"groups"}
    seg_rows = {}
    for ep in eng.manifest.epochs:
        seg = pq.read_table(os.path.join(eng.lake_dir, ep["path"]))
        for part, n in zip(seg["part_id"].to_pylist(), seg["rows"].to_pylist()):
            seg_rows[part] = seg_rows.get(part, 0) + n
    for part, rel, n, max_chunk in out:
        assert rel == f"part={part:04d}/base-000099-v001000.parquet"
        assert 0 < max_chunk <= 8 + seg_rows[part]
    oracle = oracle_final_state(files)
    mine = pa.array(hash_partition(oracle["doc_id"], 8) < 4)
    folded = pa.concat_tables([pq.read_table(os.path.join(eng.lake_dir, o[1]))
                               for o in out], promote_options="permissive")
    assert_tables_equal(folded, oracle.filter(mine))


def test_changes_feed_functions_read_each_run_file_once(tmp_path, monkeypatch):
    """One call of each ``changes()`` feed function over several
    partitions opens each run file once and reads it with ONE
    ``read_row_groups``. The plain feed equals a per-fragment read; the
    collapsed feed equals ``collapse_latest`` per partition over the same
    fragments, with tombstones kept."""
    from go_tfdata_ray.cdc import engine as E
    from go_tfdata_ray.cdc.collapse import collapse_latest

    eng, files = _base_delta_evolved_lake(tmp_path, nparts=8)
    top = max(pq.read_table(f, columns=["seq"])["seq"].to_numpy().max()
              for f in files)
    epoch = eng.manifest.committed_epoch + 1
    old = oracle_final_state(files)["doc_id"].to_pylist()
    eng.apply_epoch(epoch, [_wal_shard(
        tmp_path / "wal-tombstones", epoch,
        [{"seq": int(top) + 1 + i, "op": "D" if i % 3 == 0 else "U",
          "doc_id": k, "tokens": [7] * (i + 1)}
         for i, k in enumerate(old[::15] + ["new-3"])])])

    frags = []  # what ``changes()`` reads after epoch 0's compaction
    for ep in eng.manifest.epochs:
        if ep["epoch"] >= 1 and ep["path"] is not None:
            seg = pq.read_table(os.path.join(eng.lake_dir, ep["path"]))
            frags += [{"part_id": part, "epoch": ep["epoch"], "path": p, "rg": g}
                      for part, p, g in zip(seg["part_id"].to_pylist(),
                                            seg["path"].to_pylist(),
                                            seg["rg"].to_pylist())]
    runs = {f["path"] for f in frags}
    assert len(runs) > 1 and all(f["rg"] >= 0 for f in frags)
    assert len({f["part_id"] for f in frags}) == 8

    def each(fs):  # every fragment read on its own
        return [E._read_fragment(os.path.join(eng.lake_dir, f["path"]), f["rg"])
                for f in fs]

    want_plain = pa.concat_tables(each(frags), promote_options="permissive")
    want_plain = want_plain.drop_columns(["part_id"])
    descs, want_net = [], []
    for part in range(8):
        fs = [f for f in frags if f["part_id"] == part]
        descs.append({"part_id": part, "paths": [f["path"] for f in fs],
                      "ranks": [f["epoch"] for f in fs],
                      "rgs": [f["rg"] for f in fs]})
        ranked = pa.concat_tables(
            [E._with_rank(t, f["epoch"]) for t, f in zip(each(fs), fs) if len(t)],
            promote_options="permissive")
        want_net.append(collapse_latest(ranked, order_cols=("_rank", "seq"))
                        .drop_columns(["_rank", "part_id"]))
    want_net = pa.concat_tables(want_net, promote_options="permissive")

    proxy, opened, reads = _counting_pq(eng.lake_dir)
    for fn, batch, want in (
            (E._change_rows, pa.Table.from_pylist(frags), want_plain),
            (E._net_changes, pa.Table.from_pylist(descs), want_net)):
        opened.clear()
        reads.clear()
        with monkeypatch.context() as mp:
            mp.setattr(E, "pq", proxy)
            got = fn(eng.lake_dir, batch)
        assert got.equals(want) and got.num_rows > 0, fn
        assert "D" in set(got["op"].to_pylist()), fn
        assert opened == dict.fromkeys(runs, 1), fn
        assert sorted(r[0] for r in reads) == sorted(runs), fn
        assert {r[1] for r in reads} == {"groups"}, fn


def test_changes_reuses_parsed_intent_segments(tmp_path, monkeypatch):
    """``changes()`` takes the epochs' (part_id, path, rg) rows from the
    segment rows the engine has already parsed: after a ``scan()``, neither
    feed reads a ``_manifests/intents-*`` file, and both equal what a fresh
    engine, which must read the segments, returns."""
    import ray

    from go_tfdata_ray.cdc import engine as E
    from go_tfdata_ray.sources.wal import list_segments

    wal_dir, _ = make_wal(tmp_path, n_events=3000, n_keys=300, num_epochs=4)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    segs = list_segments(wal_dir)
    eng.apply_epoch(*segs[0])
    v = eng.manifest.version
    for e, paths in segs[1:]:
        eng.apply_epoch(e, paths)
    eng.scan()

    def feed(e, collapsed):
        t = pa.concat_tables([ray.get(r) for r in
                              e.changes(v, collapsed=collapsed).to_arrow_refs()],
                             promote_options="permissive")
        return t.sort_by([("doc_id", "ascending"), ("seq", "ascending")])

    seg_reads = []

    class PqProxy:
        def __getattr__(self, name):
            return getattr(pq, name)

        def read_table(self, path, *a, **kw):
            if "intents-" in os.path.basename(str(path)):
                seg_reads.append(path)
            return pq.read_table(path, *a, **kw)

    for collapsed in (False, True):
        with monkeypatch.context() as mp:
            mp.setattr(E, "pq", PqProxy())
            got = feed(eng, collapsed)
        assert seg_reads == [], collapsed
        want = feed(CDCEngine(eng.lake_dir), collapsed)
        assert got.num_rows > 0 and got.equals(want), collapsed


def test_per_task_fills_the_cluster_cpus_once(monkeypatch):
    """A scan task takes ceil(P / CPUs) partitions: min(P, CPUs) tasks,
    and one partition per task once the cluster has at least P CPUs."""
    import ray

    from go_tfdata_ray.cdc import engine as E

    for cpus, want in ((4, [1, 1, 2, 8, 9]), (64, [1, 1, 1, 1, 1]),
                       (24, [1, 1, 1, 2, 2])):
        monkeypatch.setattr(ray, "cluster_resources", lambda c=cpus: {"CPU": float(c)})
        assert [E._per_task(n) for n in (0, 4, 5, 32, 33)] == want, cpus


def test_scan_empty_blocks_keep_the_lake_schema(tmp_path):
    """A selective scan of a compacted lake leaves most merge tasks with no
    row at all (the base pushdown prunes every row group); their blocks
    still carry the lake's column types, so Ray Data sees one schema."""
    import ray

    from go_tfdata_ray.cdc.engine import _empty_table
    from go_tfdata_ray.sources.wal import LAKE_COLUMNS

    wal_dir, files = make_wal(tmp_path, n_events=2000, n_keys=400, num_epochs=2)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=16)
    eng.apply_wal(wal_dir)
    eng.compact()
    key = oracle_final_state(files)["doc_id"][0].as_py()
    tabs = [ray.get(r) for r in
            eng.scan(where=[("doc_id", "==", key)]).to_arrow_refs()]
    assert sum(t.num_rows for t in tabs) == 1
    assert any(t.num_rows == 0 for t in tabs)
    lake = _empty_table(LAKE_COLUMNS).schema
    assert all(t.schema == lake for t in tabs), [t.schema for t in tabs]


def test_late_event_of_another_key_is_dropped(tmp_path):
    """WAL contract: ``seq`` is monotone per PARTITION across segments.
    An event at or below its partition's committed max seq is taken for a
    replay and dropped, even when its key was never written. One
    partition, segment 0 = (seq 10, doc a), segment 1 = (seq 5, doc b):
    the lake ends as {a} and epoch 1 applies nothing. A seq-order oracle
    would keep b; this pins the drop until late events are counted."""
    wal = tmp_path / "wal"
    files = [_wal_shard(wal, 0, [{"seq": 10, "op": "I", "doc_id": "a", "tokens": [1]}]),
             _wal_shard(wal, 1, [{"seq": 5, "op": "I", "doc_id": "b", "tokens": [2]}])]
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=1)
    res = eng.apply_wal(str(wal))
    assert [(r["epoch"], r["skipped"], r["delta_rows"]) for r in res] == [
        (0, False, 1), (1, False, 0)]
    assert eng.scan_table()["doc_id"].to_pylist() == ["a"]
    assert oracle_final_state(files)["doc_id"].to_pylist() == ["a", "b"]


def _data_files(lake):
    """Every .parquet data file under ``lake`` (manifests and their
    segments excluded), relative to it."""
    out = set()
    for root, dirs, names in os.walk(lake):
        dirs[:] = [d for d in dirs if d != "_manifests"]
        out |= {os.path.relpath(os.path.join(root, n), lake)
                for n in names if n.endswith(".parquet")}
    return out


def _assert_wrote_run_files_only(eng, before):
    """The last epoch wrote nothing under _staging/, and the data files it
    added are exactly the run-{epoch}-*.parquet files its intent segment
    names."""
    import re

    lake = eng.lake_dir
    assert not os.path.exists(os.path.join(lake, "_staging"))
    ep = eng.manifest.epochs[-1]
    assert ep["epoch"] == eng.manifest.committed_epoch
    named = set(pq.read_table(os.path.join(lake, ep["path"]))["path"].to_pylist())
    added = _data_files(lake) - before
    assert added and added == named
    assert all(re.fullmatch(rf"run-{ep['epoch']:06d}-[0-9a-f]+\.parquet", p)
               for p in added), added


def test_synthesized_epochs_write_only_run_files(tmp_path):
    """upsert, delete_where, upsert_dataset, delete_dataset and
    sync_replica (incremental and full) each write their rows once,
    straight into the run files their intent segment names."""
    import ray.data as rd

    from go_tfdata_ray.cdc.replicate import sync_replica

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    ids = [f"d{i:03d}" for i in range(60)]
    toks = [[i, i + 1, i + 2] for i in range(60)]

    def step(fn):
        before = _data_files(lake)
        out = fn()
        assert not out.get("skipped")
        _assert_wrote_run_files_only(eng, before)

    step(lambda: eng.upsert(_tok_table(ids[:20], toks[:20])))
    step(lambda: eng.delete_where(doc_ids=ids[:5]))
    step(lambda: eng.upsert_dataset(
        rd.from_arrow(_tok_table(ids[20:], toks[20:])).repartition(3)))
    step(lambda: eng.delete_dataset(
        rd.from_arrow(pa.table({"doc_id": pa.array(ids[20:30])}))))
    want = {d: t for d, t in zip(ids, toks) if d not in ids[:5] + ids[20:30]}
    df = eng.scan(columns=["doc_id", "tokens"]).to_pandas()
    assert {d: list(t) for d, t in zip(df["doc_id"], df["tokens"])} == want

    rep_dir = str(tmp_path / "replica")
    for mode in ("incremental", "full"):
        if mode == "full":
            eng.upsert(_tok_table(["d-late"], [[7]]))
            eng.compact()  # folds the feed: the next sync is a full resync
        before = _data_files(rep_dir)
        assert sync_replica(lake, rep_dir, num_partitions=2)["mode"] == mode
        rep = CDCEngine(rep_dir)
        _assert_wrote_run_files_only(rep, before)
        assert_tables_equal(rep.scan_table(), eng.scan_table())


def test_unreported_block_write_is_an_orphan_vacuum_removes(tmp_path):
    """A synthesized block task whose output never reached the driver (a
    retried or lost attempt) leaves one unreferenced run file: the epoch
    that then commits the same rows scans exactly, and vacuum deletes
    exactly that orphan."""
    import ray.data as rd

    from go_tfdata_ray.cdc import engine as E

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    ids = [f"d{i:03d}" for i in range(40)]
    toks = [[i, i + 1] for i in range(40)]
    t = _tok_table(ids, toks)
    epoch, base = eng._synth_base()
    wm = E._wm_vector(eng.num_partitions, eng.manifest.watermarks())
    lost = E._write_synth_block(lake, eng.policy, eng.num_partitions, wm,
                                epoch, base, "U", t)
    [orphan] = set(lost["path"].to_pylist())

    out = eng.upsert_dataset(rd.from_arrow(t))
    assert out["epoch"] == epoch and out["upserted"] == 40
    df = eng.scan(columns=["doc_id", "tokens"]).to_pandas()
    assert {d: list(x) for d, x in zip(df["doc_id"], df["tokens"])} == dict(zip(ids, toks))
    assert eng.vacuum() == [os.path.abspath(os.path.join(lake, orphan))]
    df = eng.scan(columns=["doc_id", "tokens"]).to_pandas()
    assert {d: list(x) for d, x in zip(df["doc_id"], df["tokens"])} == dict(zip(ids, toks))
