"""The four CDC lake workloads, their inputs and their correctness gate.

One client drives all load in a closed loop: each op starts when the last
one has returned. Inputs come from ``sources/wal.WalParams(seed=...)`` /
``generate_wal``; the engine only ever sees the generated WAL.

Every workload runs every op kind, so every end-to-end metric is measured
on every workload; the workload decides which ops are heavy:

- ``replay``: bulk ``apply_wal`` of the whole WAL into a fresh lake, again
  and again. Reads happen only in the gate.
- ``tail_mixed``: small sealed segments renamed into the live WAL dir one
  by one, each applied by ``tail(max_epochs=1)`` and followed by a lookup
  of a key that segment wrote and ``maybe_compact``.
- ``fragmented_read``: set-up replays the WAL and leaves it uncompacted
  (one fragment per run file per partition); the timed loop is full scans,
  ``training_batches`` drains and single-key lookups.
- ``compacted_read``: the same after a ``compact()`` in set-up.

The gate, after the timed loop, checks the final lake against
``oracle_final_state`` with exact token equality, compacts it and checks it
again. Lookups are checked against the oracle row for that key at that
epoch, scan row counts and drained tokens against the oracle totals.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import time
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from layers import Recorder, Replicas, install

WORKLOADS = ("replay", "tail_mixed", "fragmented_read", "compacted_read")

CONTEXT_LEN = 2048

# "full" is the measured size. "tiny" exists for the smoke test only.
SIZES = {
    "full": dict(n_events=160_000, n_keys=40_000, epochs=4, shard_rows=8_000,
                 partitions=32, tail_segments=64, tail_seg_events=5_000,
                 replay_lookups=5, tail_lookups=2, lookups_per_round=15,
                 gate_compactions=4, gate_scans=3, setup_reps=3,
                 trace_ops={"replay": 3, "tail_mixed": 40, "reads": 2}),
    "tiny": dict(n_events=8_000, n_keys=2_000, epochs=4, shard_rows=400,
                 partitions=8, tail_segments=12, tail_seg_events=400,
                 replay_lookups=2, tail_lookups=1, lookups_per_round=3,
                 gate_compactions=2, gate_scans=1, setup_reps=2,
                 trace_ops={"replay": 1, "tail_mixed": 4, "reads": 1}),
}


def wal_params(size: str, seed: int, tail: bool):
    """The WAL of a workload. ``n_keys - n_hot`` must be coprime with the
    generator's cold-key multiplier, or most keys are never drawn."""
    from go_tfdata_ray.sources.wal import WalParams

    s = SIZES[size]
    if tail:
        return WalParams(n_events=s["tail_segments"] * s["tail_seg_events"],
                         n_keys=s["n_keys"], num_epochs=s["tail_segments"],
                         shard_rows=s["tail_seg_events"], seed=seed)
    return WalParams(n_events=s["n_events"], n_keys=s["n_keys"],
                     num_epochs=s["epochs"], shard_rows=s["shard_rows"], seed=seed)


def dir_bytes(path: str) -> int:
    n = 0
    for root, _, files in os.walk(path):
        for f in files:
            try:
                n += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return n


def warm_paths(work: str) -> None:
    """Run every op kind once on a tiny lake, so that worker imports and the
    first call of each Ray Data plan are paid before set-up is timed."""
    from go_tfdata_ray.cdc.engine import CDCEngine
    from go_tfdata_ray.pipelines.loader import training_batches
    from go_tfdata_ray.sources.wal import WalParams, generate_wal

    d = os.path.join(work, "warm")
    generate_wal(os.path.join(d, "wal"), WalParams(n_events=400, n_keys=100,
                                                     num_epochs=2, shard_rows=100))
    eng = CDCEngine(os.path.join(d, "lake"), num_partitions=4)
    eng.apply_wal(os.path.join(d, "wal"))
    eng.scan().count()
    eng.lookup(["doc-00000001"])
    for _ in training_batches(eng, context_len=CONTEXT_LEN):
        pass
    eng.compact()
    eng.scan_table()
    shutil.rmtree(d, ignore_errors=True)


class Oracle:
    """Expected lake state, lookups and drain totals from the WAL alone."""

    def __init__(self, files: list[str]):
        from go_tfdata_ray.cdc.oracle import oracle_final_state

        self.table = oracle_final_state(files)
        self.rows = self.table.num_rows
        self.index = {k: i for i, k in enumerate(self.table["doc_id"].to_pylist())}
        live = self.table.filter(pc.greater_equal(self.table["n_tok"], 1))
        flat = live["tokens"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
        self.train_nonzero = int(np.count_nonzero(flat))
        self.train_sum = int(flat.sum(dtype=np.int64))
        # doc tokens plus one EOD per doc: what packing lays out, padding aside
        self.train_tokens = int(pc.sum(live["n_tok"]).as_py() or 0) + live.num_rows
        self.arrow_bytes = self.table.nbytes

    def row(self, key: str) -> dict | None:
        i = self.index.get(key)
        return None if i is None else self.table.slice(i, 1).to_pylist()[0]


def segment_row(seg: pa.Table, key: str) -> dict | None:
    """A key's state right after a segment that wrote it: its last event."""
    t = seg.filter(pc.equal(seg["doc_id"], key))
    last = t.slice(int(np.argmax(t["seq"].to_numpy())), 1).to_pylist()[0]
    if last["op"] == "D":
        return None
    return {c: last[c] for c in ("doc_id", "tokens", "n_tok", "source")}


class Run:
    """One workload run: set-up, timed closed loop, gate, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, tracing: bool,
                 size: str, work: str, plant_wrong_row: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.size, self.s = size, SIZES[size]
        self.work = work
        self.plant_wrong_row = plant_wrong_row
        self.rng = np.random.default_rng(seed)
        self.rec = Recorder(tracing)
        self.captures: list = []
        self.replicas = Replicas(self.rec, os.path.join(work, "replica"))
        self.patches = install(self.rec, self.captures)
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.errors: list[str] = []
        self.samples: dict[str, list] = defaultdict(list)
        self.setup_reps: list[float] = []
        self.eng = None
        self.oracle: Oracle | None = None
        self.lake_stats: dict[str, float] = {}

    def close(self) -> None:
        self.patches.undo()

    # -- op plumbing ---------------------------------------------------------

    @contextlib.contextmanager
    def op(self, kind: str):
        """Time one op; an exception fails it. In the traced run the op's
        worker-side kernels are replayed right after it, off the clock."""
        self.attempted += 1
        with self.rec.span("op." + kind, op=True) as i:
            try:
                yield i
            except Exception as e:  # an op that raises is a failed op
                self.fail(i, f"{kind} raised {type(e).__name__}: {e}")
        if self.rec.tracing:
            self.replicas.run(self.captures, i, kind)
        else:
            self.captures.clear()

    def fail(self, op: int, msg: str) -> None:
        self.failed_ops.add(op)
        if len(self.errors) < 20:
            self.errors.append(msg)

    def check(self, op: int, ok: bool, msg: str) -> bool:
        if not ok:
            self.fail(op, msg)
        return ok

    def more(self, done: int, loop: str) -> bool:
        """Closed-loop budget: the untraced run goes on for ``seconds`` (at
        least one iteration); the traced run does a fixed number of
        iterations, so its per-layer totals compare across commits."""
        if self.rec.tracing:
            return done < self.s["trace_ops"][loop]
        return done == 0 or time.perf_counter() < self.deadline

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """Build the untimed inputs ``setup_reps`` times, each from scratch;
        the last build is the one the timed loop uses."""
        for rep in range(self.s["setup_reps"]):
            if rep:
                shutil.rmtree(self.rep_dir, ignore_errors=True)
            self.rep_dir = os.path.join(self.work, f"setup-{rep}")
            t0 = time.perf_counter()
            getattr(self, "_setup_" + self.workload)()
            self.setup_reps.append(time.perf_counter() - t0)

    def _gen(self, tail: bool = False) -> tuple[str, list[str]]:
        from go_tfdata_ray.sources.wal import generate_wal

        d = os.path.join(self.rep_dir, "stage" if tail else "wal")
        self.params = wal_params(self.size, self.seed, tail)
        return d, generate_wal(d, self.params)

    def _new_engine(self, lake: str):
        from go_tfdata_ray.cdc.engine import CDCEngine

        shutil.rmtree(lake, ignore_errors=True)
        return CDCEngine(lake, num_partitions=self.s["partitions"])

    def _setup_replay(self) -> None:
        self.wal_dir, self.wal_files = self._gen()

    def _setup_tail_mixed(self) -> None:
        self.stage_dir, _ = self._gen(tail=True)
        self.wal_dir = os.path.join(self.rep_dir, "wal")
        os.makedirs(self.wal_dir)
        self.lake = os.path.join(self.rep_dir, "lake")
        self.eng = self._new_engine(self.lake)

    def _setup_fragmented_read(self) -> None:
        self.wal_dir, self.wal_files = self._gen()
        self.lake = os.path.join(self.rep_dir, "lake")
        self._replay_once()

    def _setup_compacted_read(self) -> None:
        self._setup_fragmented_read()
        self._compact()

    # -- ops -------------------------------------------------------------------

    def _replay_once(self) -> None:
        res: list = []
        with self.op("replay") as o:
            self.eng = self._new_engine(self.lake)
            res = self.eng.apply_wal(self.wal_dir)
        applied = [r for r in res if not r.get("skipped") and not r.get("deferred")]
        if self.check(o, len(applied) == self.params.num_epochs,
                      f"replay applied {len(applied)}/{self.params.num_epochs} epochs"):
            self.samples["replay"].append((self.params.n_events, self.rec.dur(o)))

    def _compact(self) -> bool:
        """Compact; on ``tail_mixed`` only when ``maybe_compact``'s own
        fragment-count trigger fires. Returns whether it compacted."""
        out = None
        with self.op("compact"):
            if self.workload == "tail_mixed":
                out = self.eng.maybe_compact()
            else:
                out = self.eng.compact()
        return out is not None

    def _scan(self) -> None:
        n = -1
        with self.op("scan") as o:
            n = self.eng.scan().count()
        if self.check(o, n == self.oracle.rows,
                      f"scan counted {n} rows, oracle has {self.oracle.rows}"):
            self.samples["scan"].append((n, self.rec.dur(o)))

    def _drain(self) -> None:
        from go_tfdata_ray.pipelines.loader import training_batches

        nonzero = total = 0
        wait = 0.0
        with self.op("drain") as o:
            it = training_batches(self.eng, context_len=CONTEXT_LEN)
            while True:
                t0 = time.perf_counter()
                b = next(it, None)
                wait += time.perf_counter() - t0
                if b is None:
                    break
                nonzero += int(np.count_nonzero(b))
                total += int(b.sum(dtype=np.int64))
        self.rec.add("loader.wait_s", wait)
        o_ = self.oracle
        if self.check(o, (nonzero, total) == (o_.train_nonzero, o_.train_sum),
                      f"drain yielded {nonzero} nonzero tokens summing {total}, "
                      f"oracle {o_.train_nonzero} / {o_.train_sum}"):
            self.samples["drain"].append((o_.train_tokens, self.rec.dur(o)))

    def _lookup(self, key: str, want: dict | None) -> None:
        got: list = [None]
        with self.op("lookup") as o:
            got = self.eng.lookup([key]).to_pylist()
        got = [{c: r.get(c) for c in ("doc_id", "tokens", "n_tok", "source")}
               for r in got if r and r.get("doc_id") == key] if got != [None] else [None]
        if self.check(o, got == ([] if want is None else [want]),
                      f"lookup {key}: got {got[:1]!r}, want {want!r}"):
            self.samples["lookup"].append(self.rec.dur(o))

    def _lookup_keys(self, n: int) -> list[str]:
        keys = self.oracle.table["doc_id"].to_pylist()
        # one in ten probes a key the WAL never wrote (must miss)
        out = []
        for i in self.rng.integers(0, len(keys), size=n):
            out.append(keys[i] if self.rng.random() >= 0.1
                       else f"doc-{self.params.n_keys + int(i):08d}")
        return out

    # -- timed loops -------------------------------------------------------------

    def prepare(self) -> None:
        """The oracle of the set-up lake (untimed, outside set-up time)."""
        if self.workload != "tail_mixed":
            self.oracle = Oracle(self.wal_files)

    def timed(self) -> None:
        self.deadline = time.perf_counter() + self.seconds
        getattr(self, "_timed_" + self.workload)()

    def _timed_replay(self) -> None:
        self.lake = os.path.join(self.work, "replay-lake")
        done = 0
        while self.more(done, "replay"):
            self._replay_once()
            done += 1
            for k in self._lookup_keys(self.s["replay_lookups"]):
                self._lookup(k, self.oracle.row(k))

    def _timed_tail_mixed(self) -> None:
        from go_tfdata_ray.sources.wal import list_segments

        self.applied_files: list[str] = []
        compacted = True
        for e, paths in list_segments(self.stage_dir):
            # stop on a compaction boundary, so every run leaves the lake in
            # the same layout (just compacted and vacuumed)
            if compacted and not self.more(e, "tail_mixed"):
                break
            seg = pa.concat_tables([pq.read_table(p) for p in paths])
            name = os.path.basename(os.path.dirname(paths[0]))
            keys = [seg["doc_id"][int(i)].as_py() for i in
                    self.rng.integers(0, seg.num_rows, size=self.s["tail_lookups"])]
            wants = [segment_row(seg, k) for k in keys]
            r = {"epochs_applied": 0}
            with self.op("commit") as o:
                os.rename(os.path.join(self.stage_dir, name),
                          os.path.join(self.wal_dir, name))
                r = self.eng.tail(self.wal_dir, poll_secs=0.01, idle_limit=1,
                                  max_epochs=1)
            if self.check(o, r["epochs_applied"] == 1,
                          f"tail applied {r['epochs_applied']} epochs for {name}"):
                self.samples["tail"].append((seg.num_rows, self.rec.dur(o)))
            self.applied_files += [os.path.join(self.wal_dir, name, os.path.basename(p))
                                   for p in paths]
            for k, want in zip(keys, wants):
                self._lookup(k, want)
            compacted = self._compact()

    def _timed_reads(self) -> None:
        """Rounds of one scan, one drain and ``lookups_per_round`` lookups;
        the untraced run checks its clock before every op."""
        done = 0
        while self.more(done, "reads"):
            done += 1
            ops = [self._scan, self._drain] + [
                lambda k=k: self._lookup(k, self.oracle.row(k))
                for k in self._lookup_keys(self.s["lookups_per_round"])]
            for fn in ops:
                if not self.rec.tracing and time.perf_counter() >= self.deadline:
                    return
                fn()

    _timed_fragmented_read = _timed_reads
    _timed_compacted_read = _timed_reads

    # -- gate ----------------------------------------------------------------------

    def gate(self) -> None:
        if self.workload == "tail_mixed":
            self.oracle = Oracle(self.applied_files)
        self.lake_stats = self._layout()
        if self.plant_wrong_row:
            self._plant()
        # several compactions of the same final lake: the lake itself and
        # zero-copy clones of it
        from go_tfdata_ray.cdc.engine import CDCEngine

        clones = []
        for i in range(self.s["gate_compactions"] - 1):
            d = os.path.join(self.work, f"clone-{i}")
            self.eng.clone(d)
            clones.append(CDCEngine(d))
        for eng in [self.eng] + clones:
            with self.op("compact"):
                eng.compact()
        for c in clones:
            shutil.rmtree(c.lake_dir, ignore_errors=True)
        # the timed ops already checked counts, token sums and lookups on the
        # lake as the workload left it; the row-exact check runs once, after
        # a compaction that must preserve every row
        self._verify("compacted lake")
        if self.workload in ("replay", "tail_mixed"):
            for _ in range(self.s["gate_scans"]):
                self._scan()
                self._drain()

    def _layout(self) -> dict[str, float]:
        """Fragments per partition, read from the committed manifest: base
        files plus one per (partition, row group) in each intent segment."""
        m = self.eng.manifest
        frags = defaultdict(int)
        for k, ps in m.partitions.items():
            frags[int(k)] += len(ps.files)
        for ep in m.epochs:
            if ep.get("path"):
                t = pq.read_table(os.path.join(self.lake, ep["path"]),
                                  columns=["part_id"])
                for p in t["part_id"].to_pylist():
                    frags[p] += 1
        frags = [n for n in frags.values() if n]
        lake_bytes = dir_bytes(self.lake)
        return {"lake.bytes": lake_bytes,
                "lake.fragments_per_partition": statistics.fmean(frags) if frags else 0.0,
                "space_amp": lake_bytes / max(self.oracle.arrow_bytes, 1)}

    def _plant(self) -> None:
        """Overwrite one live row with wrong tokens through the public API
        (nothing in the WAL says so): the gate must catch it."""
        row = self.oracle.row(self.oracle.table["doc_id"][0].as_py())
        bad = [t + 1 for t in row["tokens"]] or [1]
        self.eng.upsert(pa.table({"doc_id": [row["doc_id"]],
                                  "tokens": pa.array([bad], pa.list_(pa.int32())),
                                  "n_tok": pa.array([len(bad)], pa.int32()),
                                  "source": [row["source"]]}))

    def _verify(self, what: str) -> None:
        from go_tfdata_ray.cdc.oracle import assert_tables_equal

        self.attempted += 1
        with self.rec.span("gate.verify", op=True) as o:
            try:
                assert_tables_equal(self.eng.scan_table(), self.oracle.table)
            except AssertionError as e:
                self.fail(o, f"{what} != oracle: {e}")
        self.captures.clear()

    # -- metrics -------------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.rec.spans if s[0] == name and not s[5]]

    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> dict[str, tuple]:
        def rate(pairs):  # median over ops of work done / wall time
            return statistics.median(n / d for n, d in pairs) if pairs else 0.0

        def pct(xs, q):
            if not xs:
                return 0.0
            if len(xs) == 1:
                return xs[0]
            return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]

        commits = self.durations("op.commit") or self.durations("apply.epoch")
        commits = [d * 1e3 for d in commits]
        lookups = [d * 1e3 for d in self.samples["lookup"]]
        compacts = self.durations("compact")
        applies = self.samples["tail"] or self.samples["replay"]
        return {
            "setup_s": (setup_s, "s"),
            "replay_events_per_s": (rate(applies), "events/s"),
            "commit_p50_ms": (pct(commits, 50), "ms"),
            "commit_p90_ms": (pct(commits, 90), "ms"),
            "lookup_p50_ms": (pct(lookups, 50), "ms"),
            "lookup_p90_ms": (pct(lookups, 90), "ms"),
            "scan_rows_per_s": (rate(self.samples["scan"]), "rows/s"),
            "train_tokens_per_s": (rate(self.samples["drain"]), "tokens/s"),
            "compact_s": (statistics.median(compacts) if compacts else 0.0, "s"),
            "space_amp": (self.lake_stats.get("space_amp", 0.0), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "failed_ops_frac": (len(self.failed_ops) / max(self.attempted, 1), "ratio"),
        }

    def sample_counts(self) -> dict[str, int]:
        return {"commits": len(self.durations("op.commit") or self.durations("apply.epoch")),
                "lookups": len(self.samples["lookup"]),
                "scans": len(self.samples["scan"]),
                "drains": len(self.samples["drain"]),
                "compactions": len(self.durations("compact")),
                "applies": len(self.samples["tail"] or self.samples["replay"]),
                "setup_reps": len(self.setup_reps)}
