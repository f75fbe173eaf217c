"""The engine hooks the benchmark's tracer (``perfbench/layers.py``) wraps at
run time or replays without Ray. The tracer skips a missing hook silently
(its layer just goes blank), so this pins each one's name and signature."""

import inspect
import os

import pyarrow as pa
import pyarrow.parquet as pq

from go_tfdata_ray.cdc import collapse
from go_tfdata_ray.cdc import engine as E
from go_tfdata_ray.sources.wal import LAKE_COLUMNS, WalParams, generate_wal
from go_tfdata_ray.state import manifest as mf


def _params(fn):
    return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]


def test_wrapped_hooks_keep_their_signatures():
    Eng = E.CDCEngine
    assert _params(Eng._descriptors) == [("self", inspect.Parameter.empty),
                                         ("manifest", None)]
    assert [n for n, _ in _params(Eng.lookup)][:2] == ["self", "doc_ids"]
    # the scan wrapper forwards these four positionally
    assert _params(Eng.scan)[1:] == [("columns", None), ("at_version", None),
                                     ("where", None), ("with_deleted", False)]
    assert [n for n, _ in _params(Eng.apply_epoch)] == [
        "self", "epoch", "files", "stats_extra"]
    # the apply wrapper captures an epoch only when ``write_mode`` reads
    # "direct"; it is a class constant, not a constructor option
    assert Eng.write_mode == "direct"
    assert [n for n, _ in _params(Eng.__init__)] == [
        "self", "lake_dir", "num_partitions", "policy"]
    assert callable(Eng.compact)
    for fn in (mf.commit, mf.load_latest, mf.load_version,
               E.segments_with_barrier, E.normalize_events, E._wm_vector):
        assert callable(fn)
    assert [n for n, _ in _params(E.normalize_and_write_fragments)] == [
        "t", "policy", "num_partitions", "wm", "lake_dir", "epoch"]
    # the read replica swaps these module attributes
    assert E.pq is pq
    assert E.merge_on_read is collapse.merge_on_read


def test_replayed_reader_reads_through_module_hooks(tmp_path, monkeypatch):
    generate_wal(str(tmp_path / "wal"),
                 WalParams(n_events=800, n_keys=100, num_epochs=2))
    eng = E.CDCEngine(str(tmp_path / "lake"), num_partitions=2)
    eng.apply_wal(str(tmp_path / "wal"))
    desc = eng._descriptors()
    assert desc and all(set(d) == {"part_id", "paths", "ranks", "rgs", "kinds"}
                        for d in desc)

    seen = {"open": 0, "merge": 0}
    real_open, real_merge = pq.ParquetFile, E.merge_on_read

    class PqProxy:  # what the tracer puts in place of ``engine.pq``
        def __getattr__(self, name):
            return getattr(pq, name)

        def ParquetFile(self, *a, **kw):  # noqa: N802
            seen["open"] += 1
            return real_open(*a, **kw)

    def merge(tables, *a, **kw):
        seen["merge"] += 1
        return real_merge(tables, *a, **kw)

    monkeypatch.setattr(E, "pq", PqProxy())
    monkeypatch.setattr(E, "merge_on_read", merge)
    d = desc[0]
    key = pq.read_table(os.path.join(eng.lake_dir, d["paths"][0]),
                        columns=["doc_id"])["doc_id"][0].as_py()
    for key_filter in ([key], None):
        r = E.PartitionMergeReader(eng.lake_dir, LAKE_COLUMNS,
                                   key_filter=key_filter, where=None)
        out = r(pa.Table.from_pylist([d]))
        assert out.column_names == LAKE_COLUMNS
        assert out.num_rows >= (1 if key_filter else 2)
    assert seen["open"] >= 2 * len(d["paths"]) and seen["merge"] == 2


def test_apply_replica_matches_the_committed_epoch(tmp_path):
    """The tracer replays an epoch's apply as ``pq.read_table`` per shard,
    then ``normalize_and_write_fragments`` into a scratch dir. That must
    write what the engine committed, or the apply layers describe
    something else."""
    from collections import Counter

    from go_tfdata_ray.sources.wal import list_segments

    wal = str(tmp_path / "wal")
    generate_wal(wal, WalParams(n_events=3000, n_keys=300, num_epochs=2,
                                shard_rows=700))
    segs = list_segments(wal)
    eng = E.CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.apply_epoch(*segs[0])
    wm = E._wm_vector(eng.num_partitions, eng.manifest.watermarks())
    epoch, files = segs[1]
    eng.apply_epoch(epoch, files)
    seg = pq.read_table(os.path.join(eng.lake_dir, eng.manifest.epochs[-1]["path"]))
    committed = Counter(zip(*(seg[c].to_pylist()
                              for c in ("part_id", "rows", "max_seq", "rg"))))

    scratch = str(tmp_path / "replica")
    os.makedirs(scratch)
    replayed = Counter()
    for f in files:
        it = E.normalize_and_write_fragments(pq.read_table(f), eng.policy,
                                             eng.num_partitions, wm, scratch, epoch)
        replayed.update(zip(*(it[c].to_pylist()
                              for c in ("part_id", "rows", "max_seq", "rg"))))
    assert len(files) > 1 and replayed == committed
    assert len(os.listdir(scratch)) == len(set(seg["path"].to_pylist())) == len(files)


def test_reader_parses_each_run_file_footer_once_per_batch(tmp_path, monkeypatch):
    """One reader call over a batch of k partition descriptors (one scan
    task) parses each run file's footer once and opens the file only
    once: all its fragments come from one batched read. A later call, even
    of another reader in the same process, reopens a file with the cached
    ``metadata=`` (the process's ``_FooterCache``). The tracer counts
    footer parses the same way, through the engine's ``pq`` handle."""
    from collections import Counter

    generate_wal(str(tmp_path / "wal"),
                 WalParams(n_events=3000, n_keys=300, num_epochs=3, shard_rows=600))
    eng = E.CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    eng.apply_wal(str(tmp_path / "wal"))
    desc = eng._descriptors()
    runs = {p for d in desc for p in d["paths"]}
    assert len(desc) == 8 and len(runs) > 1
    assert sum(len(d["paths"]) for d in desc) > len(runs)  # files are shared

    parsed, cached = Counter(), Counter()
    real_open = pq.ParquetFile

    class PqProxy:
        def __getattr__(self, name):
            return getattr(pq, name)

        def ParquetFile(self, path, **kw):  # noqa: N802
            (parsed if kw.get("metadata") is None else cached)[
                os.path.relpath(path, eng.lake_dir)] += 1
            return real_open(path, **kw)

    want = pa.concat_tables(  # one fresh reader per partition: no reuse
        [E.PartitionMergeReader(eng.lake_dir, LAKE_COLUMNS)(pa.Table.from_pylist([d]))
         for d in desc])
    monkeypatch.setattr(E, "pq", PqProxy())
    monkeypatch.setattr(E, "_FOOTERS", E._FooterCache(E._FOOTERS.max_bytes))  # cold
    got = E.PartitionMergeReader(eng.lake_dir, LAKE_COLUMNS)(pa.Table.from_pylist(desc))
    assert got.equals(want) and got.num_rows > 0
    assert parsed == Counter(dict.fromkeys(runs, 1))
    assert not cached  # no per-fragment reopening
    # a new reader in the same process: no new parse
    E.PartitionMergeReader(eng.lake_dir, LAKE_COLUMNS)(pa.Table.from_pylist(desc[:2]))
    assert sum(parsed.values()) == len(runs)
    assert cached == Counter(dict.fromkeys(
        {p for d in desc[:2] for p in d["paths"]}, 1))
