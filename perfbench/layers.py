"""Span recorder, layer wrappers and Ray-free kernel replicas.

Every op of a workload is timed as an ``op.*`` span in both modes. In the
traced run (``--trace 1``) the benchmark also wraps, at run time and from
its own files, the calls into each driver-side layer (manifest publish and
load, WAL listing, plan resolve, compaction). Worker-side kernels run
inside Ray tasks where no driver wrapper reaches, so after each op the
benchmark replays them in the driver, without Ray, over the same inputs:
``pq.read_table`` per WAL shard, ``normalize_events``,
``normalize_and_write_fragments`` into a scratch dir,
``PartitionMergeReader`` per descriptor (footer, row-group and merge steps
timed apart through a probe over the engine's ``pyarrow.parquet`` handle)
and ``pack_batch``. Replica spans hang under the real span whose work they
stand for, so a span's self time is its duration minus its children's; the
self time of ``op.*`` and ``apply.epoch`` spans is the executor remainder
no layer covers (Ray Data scheduling and the ``take_all`` wait).

Spans are (name, start, end, parent, op id, replica) rows kept in memory
and written as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# span name -> layer its self time is billed to
_EXEC_SPANS = ("op.replay", "op.commit", "op.scan", "op.lookup", "op.drain",
               "apply.epoch")
_LAYER_OF = {**{s: "exec" for s in _EXEC_SPANS},
             "op.compact": "compact", "compact": "compact"}

def bills_to_exec(span_name: str) -> bool:
    return _LAYER_OF.get(span_name) == "exec"


LAYER_ORDER = ("wal.list", "wal.read", "apply.normalize", "apply.encode_write",
               "manifest.commit", "manifest.load", "plan.resolve",
               "read.footer", "read.rowgroups", "read", "merge", "pack",
               "compact", "exec")


class Recorder:
    """Spans and counters of one run. Op spans are always recorded (they
    give the end-to-end latencies); layer spans only when tracing."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[list] = []  # [name, start, end, parent, op, replica]
        self.counts: dict[str, float] = defaultdict(float)
        self.replica_s = 0.0  # driver time spent in replicas (off the clock)
        self._stack: list[int] = []
        self._op = 0
        self._replica = False

    @contextlib.contextmanager
    def span(self, name: str, op: bool = False):
        if op:
            self._op += 1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self._op, self._replica]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def replica_under(self, parent: int):
        """Spans opened inside are replicas billed under ``parent``."""
        saved, saved_flag = self._stack, self._replica
        self._stack, self._replica = [parent], True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._stack, self._replica = saved, saved_flag
            self.replica_s += time.perf_counter() - t0

    def dur(self, idx: int) -> float:
        s = self.spans[idx]
        return s[2] - s[1]

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def self_of(self) -> list[float]:
        """Per span: its duration minus its direct children's."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per layer, over the spans of workload ops (the gate's
        checks are left out)."""
        own = self.self_of()
        root: list[str] = []
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            root.append(s[0] if s[3] < 0 else root[s[3]])
            if root[i].startswith("op."):
                out[_LAYER_OF.get(s[0], s[0])] += own[i]
        return out

    def op_walls(self) -> dict[str, list[float]]:
        """Per op kind: [count, total wall seconds]."""
        out: dict[str, list[float]] = {}
        for s in self.spans:
            if s[0].startswith("op.") and not s[5]:
                c = out.setdefault(s[0], [0, 0.0])
                c[0] += 1
                c[1] += s[2] - s[1]
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                    "parent": s[3], "op": s[4],
                                    "replica": s[5]}) + "\n")


def span_cost_s(n: int = 2000) -> float:
    """Measured cost of one span enter/exit on this host."""
    r = Recorder(True)
    t0 = time.perf_counter()
    for _ in range(n):
        with r.span("x"):
            pass
    return (time.perf_counter() - t0) / n


# -- run-time wrappers -----------------------------------------------------

class Patches:
    """Attribute swaps undone in reverse order; a missing attribute is
    skipped so a renamed internal only blanks its layer."""

    def __init__(self):
        self._undo: list[tuple] = []

    def wrap(self, obj, name: str, make):
        orig = getattr(obj, name, None)
        if orig is None:
            return
        setattr(obj, name, make(orig))
        self._undo.append((obj, name, orig))

    def undo(self) -> None:
        while self._undo:
            obj, name, orig = self._undo.pop()
            setattr(obj, name, orig)


def _timed(rec: Recorder, span: str):
    def make(orig):
        def wrapper(*a, **kw):
            with rec.span(span):
                return orig(*a, **kw)
        return wrapper
    return make


def install(rec: Recorder, captures: list) -> Patches:
    """Wrap the layer boundaries. ``apply_epoch`` and ``compact`` are
    wrapped in both modes (they give commit latency and compaction time);
    the rest only when tracing. Trace-mode wrappers append what the
    replicas need to ``captures``."""
    from go_tfdata_ray.cdc import engine as E
    from go_tfdata_ray.state import manifest as mf

    P = Patches()
    Eng = E.CDCEngine

    def apply_epoch(orig):
        def wrapper(self, epoch, files, *a, **kw):
            wm = None
            if rec.tracing and epoch > self.manifest.committed_epoch and files:
                wm = E._wm_vector(self.num_partitions, self.manifest.watermarks())
            with rec.span("apply.epoch") as i:
                out = orig(self, epoch, files, *a, **kw)
            if wm is not None and self.write_mode == "direct":
                captures.append(("apply", i, dict(
                    files=list(files), wm=wm, policy=self.policy,
                    nparts=self.num_partitions, epoch=epoch)))
            return out
        return wrapper

    def compact(orig):
        def wrapper(self, *a, **kw):
            with rec.span("compact"):
                out = orig(self, *a, **kw)
            rec.add("compact.partitions", out.get("compacted", 0))
            rec.add("compact.bytes_rewritten", sum(
                _size(os.path.join(self.lake_dir, f["path"]))
                for ps in self.manifest.partitions.values() for f in ps.files))
            return out
        return wrapper

    P.wrap(Eng, "apply_epoch", apply_epoch)
    P.wrap(Eng, "compact", compact)
    if not rec.tracing:
        return P

    def commit(orig):
        def wrapper(*a, **kw):
            with rec.span("manifest.commit"):
                try:
                    out = orig(*a, **kw)
                except mf.FencedOutError:
                    rec.add("manifest.fenced", 1)
                    raise
            rec.add("manifest.commits", 1)
            return out
        return wrapper

    def descriptors(orig):
        def wrapper(self, manifest=None):
            m = manifest or self.manifest
            with rec.span("plan.resolve"):
                desc = orig(self, manifest)
            rec.add("plan.intent_segments_read",
                    sum(1 for e in m.epochs if e.get("path")))
            rec.add("plan.fragments", sum(len(d["paths"]) for d in desc))
            captures.append(("desc", -1, dict(desc=desc, lake=self.lake_dir,
                                             nparts=m.num_partitions)))
            return desc
        return wrapper

    def scan(orig):
        def wrapper(self, columns=None, at_version=None, where=None,
                    with_deleted=False):
            captures.append(("scan", -1, dict(columns=columns, where=where)))
            return orig(self, columns, at_version, where, with_deleted)
        return wrapper

    def lookup(orig):
        def wrapper(self, doc_ids, *a, **kw):
            captures.append(("lookup", -1, dict(ids=list(doc_ids))))
            return orig(self, doc_ids, *a, **kw)
        return wrapper

    P.wrap(mf, "commit", commit)
    P.wrap(mf, "load_latest", _timed(rec, "manifest.load"))
    P.wrap(mf, "load_version", _timed(rec, "manifest.load"))
    P.wrap(E, "segments_with_barrier", _timed(rec, "wal.list"))
    P.wrap(Eng, "_descriptors", descriptors)
    P.wrap(Eng, "scan", scan)
    P.wrap(Eng, "lookup", lookup)
    return P


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# -- Ray-free replicas -----------------------------------------------------

class _FileProbe:
    """``pq.ParquetFile`` stand-in: times and counts row-group reads."""

    def __init__(self, rec: Recorder, f: pq.ParquetFile):
        self._rec, self._f = rec, f
        self.reads = 0

    def __getattr__(self, name):
        return getattr(self._f, name)

    def _bytes(self, rgs, columns) -> int:
        md = self._f.metadata
        n = 0
        for i in rgs:
            rg = md.row_group(i)
            for j in range(rg.num_columns):
                c = rg.column(j)
                if columns is None or c.path_in_schema.split(".")[0] in columns:
                    n += c.total_compressed_size
        return n

    def _read(self, rgs, fn, *a, **kw):
        self.reads += 1
        with self._rec.span("read.rowgroups"):
            out = fn(*a, **kw)
        self._rec.add("read.row_groups_read", len(rgs))
        self._rec.add("read.bytes_read", self._bytes(rgs, kw.get("columns")))
        return out

    def read(self, *a, **kw):
        return self._read(range(self._f.metadata.num_row_groups),
                          self._f.read, *a, **kw)

    def read_row_group(self, i, *a, **kw):
        return self._read([i], self._f.read_row_group, i, *a, **kw)

    def read_row_groups(self, rgs, *a, **kw):
        self._rec.add("read.row_groups_pruned",
                      self._f.metadata.num_row_groups - len(rgs))
        return self._read(list(rgs), self._f.read_row_groups, rgs, *a, **kw)


class _PqProbe:
    """Stands in for the engine module's ``pq`` during a read replica: each
    ``ParquetFile`` open is a footer parse; everything else passes through."""

    def __init__(self, rec: Recorder):
        self._rec = rec
        self.opened: list[_FileProbe] = []

    def __getattr__(self, name):
        return getattr(pq, name)

    def ParquetFile(self, *a, **kw):  # noqa: N802 - mirrors pyarrow's name
        with self._rec.span("read.footer"):
            f = pq.ParquetFile(*a, **kw)
        if kw.get("metadata") is None:
            self._rec.add("read.footers_opened", 1)
        probe = _FileProbe(self._rec, f)
        self.opened.append(probe)
        return probe


class Replicas:
    """Replays the worker-side kernels of captured ops in the driver.
    Results are memoized by input, so repeated identical ops (the bulk
    replays of one WAL, the scans of one static lake) are replayed once
    and their measured spans re-attached per op."""

    def __init__(self, rec: Recorder, scratch: str):
        self.rec = rec
        self.scratch = scratch
        self._memo: dict[tuple, tuple[list, dict]] = {}

    def run(self, captures: list, op_span: int, op_kind: str) -> None:
        """Replay the captures of one finished op, then clear them."""
        d = None
        read_args: dict = {}
        for kind, span, args in captures:
            if kind == "apply":
                key = ("apply", tuple(args["files"]), args["wm"].tobytes(),
                       args["nparts"])
                self._replay(key, span, lambda a=args: self._apply(**a))
            elif kind == "desc":
                d = args
            elif kind in ("scan", "lookup"):
                read_args = args
        captures.clear()
        if d is None or op_kind not in ("scan", "lookup", "drain"):
            return
        if op_kind == "lookup":
            from go_tfdata_ray.cdc.collapse import hash_partition

            ids = read_args.get("ids", [])
            parts = {int(p) for p in hash_partition(pa.array(ids), d["nparts"])}
            descs = [x for x in d["desc"] if x["part_id"] in parts]
            reader = dict(columns=None, key_filter=ids, where=None)
        else:
            descs = d["desc"]
            reader = dict(columns=read_args.get("columns"), key_filter=None,
                          where=read_args.get("where"))
        key = (op_kind, d["lake"], json.dumps(descs, sort_keys=True),
               json.dumps(reader, sort_keys=True, default=str))
        self._replay(key, op_span,
                     lambda: self._read(d["lake"], descs, reader,
                                        pack=op_kind == "drain"))

    def _replay(self, key, parent: int, fn) -> None:
        rec = self.rec
        if key not in self._memo:
            n0, c0 = len(rec.spans), dict(rec.counts)
            with rec.replica_under(parent):
                fn()
            # parents kept relative to the block (-1 = the billed span)
            spans = [(s[0], s[1], s[2], -1 if s[3] == parent else s[3] - n0)
                     for s in rec.spans[n0:]]
            del rec.spans[n0:]
            counts = {k: v - c0.get(k, 0.0) for k, v in rec.counts.items()}
            rec.counts.clear()
            rec.counts.update(c0)
            self._memo[key] = (spans, counts)
        spans, counts = self._memo[key]
        base, op = len(rec.spans), rec.spans[parent][4]
        for name, start, end, rel in spans:
            rec.spans.append([name, start, end, parent if rel < 0 else base + rel,
                              op, True])
        for k, v in counts.items():
            rec.counts[k] += v

    def _apply(self, files, wm, policy, nparts, epoch) -> None:
        from go_tfdata_ray.cdc import engine as E

        rec = self.rec
        out_dir = os.path.join(self.scratch, "apply")
        os.makedirs(out_dir, exist_ok=True)
        P = Patches()
        for f in files:
            with rec.span("wal.read"):
                t = pq.read_table(f)
            rec.add("wal.bytes_read", _size(f))
            rec.add("apply.events_in", len(t))
            with rec.span("apply.encode_write"):
                P.wrap(E, "normalize_events", _timed(rec, "apply.normalize"))
                try:
                    it = E.normalize_and_write_fragments(
                        t, policy, nparts, wm, out_dir, epoch)
                finally:
                    P.undo()
            rec.add("apply.rows_out", sum(it["rows"].to_pylist()))
            for rel in set(it["path"].to_pylist()):
                rec.add("apply.run_files", 1)
                rec.add("apply.bytes_written", _size(os.path.join(out_dir, rel)))
                os.remove(os.path.join(out_dir, rel))

    def _read(self, lake: str, descs: list, reader: dict, pack: bool) -> None:
        from go_tfdata_ray.cdc import engine as E
        from go_tfdata_ray.functions import pack as packmod
        from go_tfdata_ray.sources.wal import LAKE_COLUMNS

        rec = self.rec
        probe = _PqProbe(rec)
        P = Patches()
        P.wrap(E, "pq", lambda orig: probe)

        def merge(orig):
            def wrapper(tables, *a, **kw):
                with rec.span("merge"):
                    out = orig(tables, *a, **kw)
                rec.add("merge.rows_in", sum(len(t) for t in tables))
                rec.add("merge.rows_out", len(out))
                return out
            return wrapper

        P.wrap(E, "merge_on_read", merge)
        outs = []
        try:
            r = E.PartitionMergeReader(lake, reader["columns"] or LAKE_COLUMNS,
                                       key_filter=reader["key_filter"],
                                       where=reader["where"])
            for d in descs:
                with rec.span("read"):
                    outs.append(r(pa.Table.from_pylist([d])))
        finally:
            P.undo()
        rec.add("read.row_groups_pruned", sum(
            p._f.metadata.num_row_groups for p in probe.opened if not p.reads))
        if not pack:
            return
        t = pa.concat_tables([o for o in outs if o.num_rows],
                             promote_options="permissive")
        for lo in range(0, t.num_rows, 4096):
            with rec.span("pack"):
                b = packmod.pack_batch(t.slice(lo, 4096), context_len=2048)
            rec.add("pack.rows", b.num_rows)
            rec.add("pack.content_tokens",
                    float(np.sum(b["fill_ratio"].to_numpy()) * 2048))
