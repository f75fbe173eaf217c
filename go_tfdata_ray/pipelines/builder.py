"""DefaultPipeline builder ↔ `/root/reference/tfdata/pipeline/pipeline.go:15-175`.

The reference's 5-stage builder (TarStage → SamplesStage* →
Sample2TFExampleStage → TFExamplesStage* → TFRecordStage) becomes an ordered
list of lazy Dataset transformations: optional stages COMPOSE by chaining
(pipeline.go:139-149,159-169), required stages OVERRIDE (pipeline.go:132-135,
152-155,172-175), and ``do()`` triggers execution (pipeline.go:104-123) —
Ray's lazy logical plan plays the role of the reader-wrapping chain, and the
streaming executor's backpressure plays the sink-pulls loop.
"""

from __future__ import annotations

from typing import Callable

import pyarrow as pa

import ray.data as rd

from ..stages import transforms as tr


def _clean_row(r: dict) -> dict:
    """Drop null cells (None, and the float-NaN that pandas records use for
    missing values) before Example encoding — the reference's absent-key
    permissiveness (sample.go:10)."""
    return {
        k: v
        for k, v in r.items()
        if v is not None and not (isinstance(v, float) and v != v)
    }


class DefaultPipeline:
    def __init__(self):
        self._source: Callable[[], rd.Dataset] | None = None
        self._sample_stages: list[Callable[[rd.Dataset], rd.Dataset]] = []
        self._convert: Callable[[rd.Dataset], rd.Dataset] | None = None
        self._example_stages: list[Callable[[rd.Dataset], rd.Dataset]] = []
        self._sink: Callable[[rd.Dataset], object] | None = None

    # --- required stages (override on re-set) ------------------------------

    def from_parquet(self, paths, **kw) -> "DefaultPipeline":
        """↔ FromTar/WithTarStage (pipeline.go:65-76,131-135)."""
        self._source = lambda: rd.read_parquet(paths, **kw)
        return self

    def from_dataset(self, ds: rd.Dataset) -> "DefaultPipeline":
        self._source = lambda: ds
        return self

    def from_channel(self, ch) -> "DefaultPipeline":
        """↔ wiring a reader to a ``SampleChannel``/``TFExampleChannel``
        (readers.go:55-97; topology example tfrecord_test.go:27-81): the
        channel's staged rows become the source Dataset when the pipeline
        runs (the channel is sealed at that point)."""
        self._source = ch.to_dataset
        return self

    def from_tar(self, paths, members: list[str] | None = None,
                 require_complete: bool = True,
                 streaming: bool = False) -> "DefaultPipeline":
        """↔ the TarStage (pipeline.go:65-76, archive/tar.go:50-55): tarball
        members grouped by basename into keyed records. With ``members``
        the wide per-sample layout is produced (one binary column per
        extension); otherwise the long (``__key__``, member, data) rows.
        ``streaming=True`` selects the bounded-memory two-pass reader
        (TarSeekReader, seekreader.go:16-138) for archives that don't fit a
        task's heap; default is the whole-archive Greedy reader."""

        def _read():
            from ..sources import tar as tarmod

            if streaming:
                ds = tarmod.read_tar_samples_streaming(paths)
            else:
                ds = tarmod.read_tar_samples(paths)
            if members is not None:
                ds = tarmod.records(ds, members, require_complete=require_complete)
            return ds

        self._source = _read
        return self

    def from_tfrecord(self, paths) -> "DefaultPipeline":
        """↔ the tar/TFRecord source stage (pipeline.go:65-76) — reads the
        reference's native interchange format (compat path). ``paths`` may
        be a file, a directory of ``*.tfrecord`` shards (the parallel
        sink's layout — one read task per shard), or a list of files."""

        def _read():
            import importlib.util
            import os as _os

            plist = [paths] if isinstance(paths, str) else list(paths)
            expanded: list[str] = []
            for p in plist:
                if _os.path.isdir(p):
                    expanded += sorted(
                        _os.path.join(p, n) for n in _os.listdir(p)
                        if n.endswith((".tfrecord", ".tfrecord.gz"))
                    )
                else:
                    expanded.append(p)
            # ray's ReadTFRecord needs tensorflow AT TASK TIME (lazy), so
            # probe for it up front rather than catching at execution;
            # gz shards always take the compat reader (gzip sniff)
            if importlib.util.find_spec("tensorflow") is not None and not any(
                p.endswith(".gz") for p in expanded
            ):
                return rd.read_tfrecords(expanded)
            else:  # no fast parser in this env: compat reader
                from ..sources.tfrecord import TFRecordReader, open_tfrecord

                def gen_rows(path_row):
                    with open_tfrecord(path_row["path"]) as f:
                        yield from TFRecordReader(f).read_all_examples()

                return rd.from_items([{"path": p} for p in expanded]).flat_map(gen_rows)

        self._source = _read
        return self

    def to_tfrecord(self, path: str) -> "DefaultPipeline":
        """↔ ToTFRecord single-file sink — the WriteMessages serial path
        (tfrecord.go:107-122): streaming batch drain, one writer, vectorized
        per-batch CRCs. For parallel upstream + sharded files (the
        WriteMessagesAsync analog, tfrecord.go:128-180) use
        ``to_tfrecord_dir``."""

        def _sink(ds: rd.Dataset):
            from ..sources.tfrecord import (TFRecordWriter, encode_example,
                                            open_tfrecord)

            n = 0
            with open_tfrecord(path, "wb") as f:
                w = TFRecordWriter(f)
                for batch in ds.iter_batches(batch_size=4096, batch_format="pandas"):
                    rows = batch.to_dict("records")
                    n += w.write_many(
                        [encode_example(_clean_row(r)) for r in rows]
                    )
            return n

        self._sink = _sink
        return self

    def to_tfrecord_dir(self, out_dir: str,
                        compression: str | None = None) -> "DefaultPipeline":
        """↔ WriteMessagesAsync (tfrecord.go:128-180), Ray-native: upstream
        stages execute in parallel and EVERY block writes its own shard file
        (tmp name + rename; readers glob ``*.tfrecord`` so half-written tmp
        files are never visible). Shard names derive from the CONTENT hash
        of the shard's encoded records, so a task retry (worker crash,
        lineage re-execution) rewrites the SAME file instead of adding a
        duplicate shard — a uuid-named shard would double the rows on any
        retry-after-rename. (Distinct blocks collide only at 2^-64.)
        GENUINELY duplicate blocks — byte-identical encodings, possible
        for id-less exports like packed sequences over highly duplicated
        corpora — are disambiguated AFTER execution: the driver sees one
        intent row per block, so a content hash appearing k times gets
        k-1 deterministic ``-dupN`` suffixed copies of the (identical)
        shard file, preserving every row without giving up retry
        idempotency. One file per
        partition is the resumable-output layout; encode + CRC run
        vectorized inside the tasks, not on the driver.
        ``compression="gz"`` writes gzip shards (``part-*.tfrecord.gz``) —
        the read side sniffs the gzip magic, so mixed dirs round-trip."""
        if compression not in (None, "gz"):
            raise ValueError(f"unsupported compression {compression!r}")
        suffix = ".tfrecord.gz" if compression == "gz" else ".tfrecord"

        def _sink(ds: rd.Dataset):
            import hashlib as _hashlib
            import os as _os

            import pyarrow as _pa

            _os.makedirs(out_dir, exist_ok=True)
            # sweep stale half-written shards from crashed prior runs —
            # invisible to readers (the glob skips *.tmp-*) but litter
            for stale in _os.listdir(out_dir):
                if ".tmp-" in stale:
                    try:
                        _os.remove(_os.path.join(out_dir, stale))
                    except OSError:
                        pass

            def write_shard(df) -> "_pa.Table":
                from ..sources.tfrecord import (TFRecordWriter, encode_example,
                                                open_tfrecord)

                if len(df) == 0:  # an empty merge block must not leave an
                    return _pa.table(  # empty content-addressed shard file
                        {"path": _pa.array([], _pa.string()),
                         "rows": _pa.array([], _pa.int64())})
                rows = df.to_dict("records")
                payloads = [encode_example(_clean_row(r)) for r in rows]
                digest = _hashlib.sha256()
                for p in payloads:
                    digest.update(p)
                rel = f"part-{digest.hexdigest()[:16]}{suffix}"
                # tmp SUFFIX keeps half-written files invisible to the
                # reader's *.tfrecord/*.tfrecord.gz glob; re-append .gz so
                # open_tfrecord picks the gzip writer for compressed shards
                tmp = _os.path.join(
                    out_dir,
                    rel + f".tmp-{_os.getpid()}" + ("." + "gz" if suffix.endswith("gz") else ""),
                )
                with open_tfrecord(tmp, "wb") as f:
                    TFRecordWriter(f).write_many(payloads)
                _os.rename(tmp, _os.path.join(out_dir, rel))
                return _pa.table({"path": _pa.array([rel]),
                                  "rows": _pa.array([len(rows)], _pa.int64())})

            import shutil as _shutil

            intents = ds.map_batches(
                write_shard, batch_format="pandas", batch_size=None
            ).take_all()  # tiny: one intent row per BLOCK
            # one intent row per block, one file per distinct content hash:
            # a hash appearing k times is k genuinely duplicate blocks that
            # collapsed to one shard — materialize k-1 deterministic copies
            # so the export keeps every row (a retry of the same block
            # yields ONE intent row, so retries never inflate the count)
            total, seen, dup_jobs = 0, {}, []
            for i in sorted(intents, key=lambda r: r["path"]):
                rel, rows = i["path"], int(i["rows"])
                total += rows
                k = seen.get(rel, 0)
                seen[rel] = k + 1
                if k:  # duplicate content: copy under a -dupN name
                    dup_jobs.append(
                        (rel, rel.replace(suffix, f"-dup{k}{suffix}")))

            def _copy_dup(rel: str, dup: str) -> None:
                tmp = _os.path.join(out_dir, dup + f".tmp-{_os.getpid()}")
                _shutil.copyfile(_os.path.join(out_dir, rel), tmp)
                _os.rename(tmp, _os.path.join(out_dir, dup))

            if len(dup_jobs) <= 4:  # the expected rare-duplicate case
                for rel, dup in dup_jobs:
                    _copy_dup(rel, dup)
            else:  # duplicate-heavy export: full-shard byte copies would
                # serialize through the driver — fan them out as tasks,
                # PINNED to this node: out_dir is a local path from the
                # driver's view, so a copy on another raylet would write
                # to (or fail on) that node's filesystem
                import ray as _ray
                from ray.util.scheduling_strategies import (
                    NodeAffinitySchedulingStrategy as _Node)
                copy_task = _ray.remote(num_cpus=0.5)(_copy_dup).options(
                    scheduling_strategy=_Node(
                        _ray.get_runtime_context().get_node_id(),
                        soft=False))
                _ray.get([copy_task.remote(rel, dup)
                          for rel, dup in dup_jobs])
            return total

        self._sink = _sink
        return self

    def with_types_map(self, types_map: dict[str, pa.DataType]) -> "DefaultPipeline":
        """↔ SampleToTFExample conversion stage (pipeline.go:93-101)."""
        self._convert = lambda ds: tr.coerce(ds, types_map)
        return self

    def to_parquet(self, out_dir: str, **kw) -> "DefaultPipeline":
        """↔ ToTFRecord sink stage (pipeline.go:78-90)."""
        self._sink = lambda ds: ds.write_parquet(out_dir, **kw)
        return self

    def collect(self) -> "DefaultPipeline":
        """Sink that returns the Dataset itself (tests / further chaining)."""
        self._sink = lambda ds: ds
        return self

    # --- optional stages (compose by chaining) ------------------------------

    def with_samples_stage(self, fn: Callable[[rd.Dataset], rd.Dataset]) -> "DefaultPipeline":
        """↔ WithSamplesStage chaining (pipeline.go:139-149): each call wraps
        the previous stage's output. This is the user-extension surface
        (README.md:67-117) — fn may attach stateful map_batches stages."""
        self._sample_stages.append(fn)
        return self

    def with_examples_stage(self, fn: Callable[[rd.Dataset], rd.Dataset]) -> "DefaultPipeline":
        """↔ WithTFExamplesStage chaining (pipeline.go:159-169)."""
        self._example_stages.append(fn)
        return self

    # sugar mirroring pipeline.go:55-62 / transform helpers
    def filter_empty(self, key_col: str = tr.KEY_COLUMN) -> "DefaultPipeline":
        return self.with_samples_stage(lambda ds: tr.filter_empty(ds, key_col))

    def rename(self, dest: str, srcs: list[str]) -> "DefaultPipeline":
        return self.with_samples_stage(lambda ds: tr.rename(ds, dest, srcs))

    def select(self, *sels: tr.Selection) -> "DefaultPipeline":
        return self.with_samples_stage(lambda ds: tr.select(ds, *sels))

    # --- execution ----------------------------------------------------------

    def build(self) -> rd.Dataset:
        if self._source is None:
            raise ValueError("pipeline has no source stage")
        ds = self._source()
        for fn in self._sample_stages:
            ds = fn(ds)
        if self._convert is not None:
            ds = self._convert(ds)
        for fn in self._example_stages:
            ds = fn(ds)
        return ds

    def do(self):
        """↔ Pipeline.Do() (pipeline.go:104-123): wire stages innermost-first
        and let the sink drive execution."""
        if self._sink is None:
            raise ValueError("pipeline has no sink stage")
        return self._sink(self.build())
