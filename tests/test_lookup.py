"""Point lookups (CDCEngine.lookup): parity with the row-at-a-time oracle
over fragmented, compacted and resharded lakes, typed empty results, the
plain-task execution with per-partition key routing, the per-fragment key
filters that decide which fragments a task opens, the process-wide footer
cache, and the plan cache behind ``_descriptors``."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from go_tfdata_ray.cdc import engine as E
from go_tfdata_ray.cdc.collapse import hash_partition
from go_tfdata_ray.cdc.engine import CDCEngine
from go_tfdata_ray.cdc.oracle import oracle_replay_dict
from go_tfdata_ray.sources.wal import WalParams, generate_wal, list_segments
from go_tfdata_ray.state import manifest as mf

NEVER = ["never-written-a", "never-written-b"]


def _wal(d, **kw):
    kw.setdefault("n_events", 6000)
    kw.setdefault("n_keys", 600)
    kw.setdefault("num_epochs", 3)
    kw.setdefault("shard_rows", 700)  # several run files per epoch
    return generate_wal(str(d / "wal"), WalParams(**kw))


def _last_events(files):
    """doc_id -> (seq, op) of its newest WAL event."""
    t = pa.concat_tables([pq.read_table(f) for f in files],
                         promote_options="permissive").sort_by("seq")
    return {d: (s, o) for d, s, o in zip(t["doc_id"].to_pylist(),
                                          t["seq"].to_pylist(),
                                          t["op"].to_pylist())}


def _keys(files):
    """(live, deleted) keys of the WAL's final state."""
    state = oracle_replay_dict(files)
    written = set(_last_events(files))
    return sorted(state), sorted(written - set(state))


def _check(eng, keys, state, **kw):
    """``lookup(keys)`` returns exactly one oracle row per live key."""
    got = eng.lookup(keys, **kw)
    cols = kw.get("columns") or ["doc_id", "tokens", "n_tok", "source"]
    assert got.column_names == cols
    rows = {r["doc_id"]: r for r in got.to_pylist()}
    assert got.num_rows == len(rows)
    assert sorted(rows) == sorted({k for k in keys if k in state})
    for k, r in rows.items():
        for c in cols:
            if c in state[k]:
                assert r[c] == state[k][c], (k, c)
    return rows


@pytest.fixture(scope="module")
def fragmented(tmp_path_factory):
    """An uncompacted lake: many run files per partition."""
    d = tmp_path_factory.mktemp("frag")
    files = _wal(d)
    eng = CDCEngine(str(d / "lake"), num_partitions=8)
    eng.apply_wal(str(d / "wal"))
    assert max(len(x["paths"]) for x in eng._descriptors()) >= 6
    return eng, files


def test_lookup_parity_fragmented_lake(fragmented):
    eng, files = fragmented
    state = oracle_replay_dict(files)
    live, deleted = _keys(files)
    assert deleted
    for k in live[:4] + deleted[:3] + NEVER:  # single-key calls
        _check(eng, [k], state)
    # one call over every partition, with deleted and never-written keys
    keys = live + deleted + NEVER
    assert {int(p) for p in hash_partition(pa.array(keys), 8)} == set(range(8))
    assert len(_check(eng, keys, state)) == len(live)
    # duplicated keys still give one row each
    _check(eng, live[:3] * 2, state)


def test_lookup_parity_projection_and_with_deleted(fragmented):
    eng, files = fragmented
    state = oracle_replay_dict(files)
    live, deleted = _keys(files)
    keys = live[::7] + deleted[:5] + NEVER
    _check(eng, keys, state, columns=["n_tok", "doc_id"])
    _check(eng, keys, state, columns=["doc_id", "source"])
    # with_deleted keeps the engine columns readable; tombstoned keys are
    # masked by the merge like every other read
    last = _last_events(files)
    cols = ["doc_id", "seq", "op", "part_id", "tokens"]
    rows = _check(eng, keys, state, columns=cols, with_deleted=True)
    for k, r in rows.items():
        assert (r["seq"], r["op"]) == last[k] and r["op"] != "D"
        assert r["part_id"] == int(hash_partition(pa.array([k]), 8)[0])


def test_lookup_parity_compacted_multi_row_group_bases(tmp_path, monkeypatch):
    """Clustered bases with many row groups, plus a delta epoch on top:
    results match the oracle, and the doc_id probe reads only the row
    groups ``_prune_row_groups`` keeps."""
    files = _wal(tmp_path)
    segs = list_segments(str(tmp_path / "wal"))
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    for e, paths in segs[:2]:
        eng.apply_epoch(e, paths)
    eng.compact(row_group_size=16)
    e, paths = segs[2]
    eng.apply_epoch(e, paths)  # a delta epoch over the clustered bases
    state = oracle_replay_dict(files)
    live, deleted = _keys(files)
    keys = live[::5] + deleted + NEVER
    _check(eng, keys, state)
    for k in live[:3] + deleted[:2] + NEVER:
        _check(eng, [k], state)
    _check(eng, keys, state, columns=["doc_id", "n_tok"])

    # run one partition's task in-process and count the probes per file
    desc = eng._descriptors()
    d = next(x for x in desc if "base" in x["kinds"])
    base = os.path.join(eng.lake_dir, d["paths"][d["kinds"].index("base")])
    n_groups = pq.ParquetFile(base).metadata.num_row_groups
    assert n_groups > 4
    key = next(k for k in pq.read_table(base, columns=["doc_id"])["doc_id"].to_pylist()
               if k in state)
    probed: dict[str, int] = {}

    class Counting(pq.ParquetFile):
        def read_row_group(self, i, *a, **kw):
            probed[self._path] = probed.get(self._path, 0) + 1
            return super().read_row_group(i, *a, **kw)

    def open_counting(path, *a, **kw):
        f = Counting(path, *a, **kw)
        f._path = path
        return f

    monkeypatch.setattr(E.pq, "ParquetFile", open_counting)
    got = E._lookup_partition(eng.lake_dir, ["doc_id", "tokens"], False, [key],
                              d["paths"], d["ranks"], d["rgs"])
    assert got.to_pylist() == [{"doc_id": key, "tokens": state[key]["tokens"]}]
    assert 1 <= probed[base] < n_groups


def test_lookup_at_version_across_reshard(tmp_path):
    files = _wal(tmp_path)
    segs = list_segments(str(tmp_path / "wal"))
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    versions = []
    for e, paths in segs:
        eng.apply_epoch(e, paths)
        versions.append(eng.manifest.version)
    eng.reshard(3, row_group_size=64)
    assert eng.manifest.num_partitions == 3
    live, deleted = _keys(files)
    keys = live[::3] + deleted + NEVER
    for k, v in enumerate(versions):  # old layout, epoch-prefix states
        prefix = [f for _, p in segs[: k + 1] for f in p]
        _check(eng, keys, oracle_replay_dict(prefix), at_version=v)
        _check(eng, live[k:k + 1], oracle_replay_dict(prefix), at_version=v)
    _check(eng, keys, oracle_replay_dict(files))  # new layout


def test_lookup_empty_results_are_typed(tmp_path):
    """Empty lookups keep their columns: WAL types where known, null for
    an add-column-evolved name."""
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=2)
    want = pa.schema([("doc_id", pa.string()), ("lang", pa.null())])
    # an empty lake (no descriptors) — both the lookup and the scan
    assert eng.lookup(["absent"], columns=["doc_id", "lang"]).schema == want
    assert eng.scan(columns=["doc_id", "lang"]).count() == 0

    w = tmp_path / "walx"
    os.makedirs(w)
    pq.write_table(pa.table({
        "seq": pa.array([0, 1], pa.int64()), "op": ["I", "I"],
        "doc_id": ["a", "b"],
        "tokens": pa.array([[1, 2], [3]], pa.list_(pa.int32())),
        "n_tok": pa.array([2, 1], pa.int32()), "source": ["web", "web"],
        "lang": ["en", "de"],
    }), str(w / "epoch-00000.parquet"))
    eng.apply_wal(str(w))
    got = eng.lookup(["a"], columns=["doc_id", "lang"])
    assert got.to_pylist() == [{"doc_id": "a", "lang": "en"}]
    empty = eng.lookup(["absent"], columns=["doc_id", "lang"])
    assert empty.num_rows == 0 and empty.schema == want
    none = eng.lookup([])
    assert none.num_rows == 0
    assert none.schema == pa.schema([("doc_id", pa.string()),
                                     ("tokens", pa.list_(pa.int32())),
                                     ("n_tok", pa.int32()),
                                     ("source", pa.string())])
    assert eng.lookup([], columns=["doc_id", "lang"]).schema == want


class _InProcess:
    """Stands in for ``_lookup_task``: runs each partition's share in the
    driver and records its arguments."""

    def __init__(self):
        self.calls = []

    def remote(self, *args):
        self.calls.append(args)
        return ray.put(E._lookup_partition(*args))


def _blooms(eng):
    """(path, rg) -> key filter of every delta fragment of the lake."""
    return {(p, g): b for ep in eng.manifest.epochs if ep["path"]
            for _, p, g, b in eng._segment_rows_of(ep["path"])}


def _doc_ids(eng, path, rg):
    f = pq.ParquetFile(os.path.join(eng.lake_dir, path))
    return set((f.read_row_group(rg, columns=["doc_id"]) if rg >= 0
                else f.read(columns=["doc_id"]))["doc_id"].to_pylist())


def test_lookup_runs_no_ray_data_and_routes_keys_per_partition(fragmented, monkeypatch):
    eng, files = fragmented
    state = oracle_replay_dict(files)
    live, deleted = _keys(files)
    keys = live[::4] + deleted[:4] + NEVER

    def no_ray_data(*a, **kw):
        raise AssertionError("lookup started a Ray Data plan")

    monkeypatch.setattr(ray.data, "from_items", no_ray_data)
    monkeypatch.setattr(ray.data.Dataset, "__init__", no_ray_data)
    want = _check(eng, keys, state)

    # a task gets the keys of one partition and a subset of that
    # partition's fragments; only partitions where some fragment's filter
    # admits one of their keys get a task, one each
    spy = _InProcess()
    monkeypatch.setattr(E, "_lookup_task", spy)
    assert _check(eng, keys, state) == want
    desc = {d["part_id"]: d for d in eng._descriptors()}
    blooms = _blooms(eng)
    by_part: dict[int, list] = {}
    for k, p in zip(keys, hash_partition(pa.array(keys), 8).tolist()):
        by_part.setdefault(p, []).append(k)
    candidates = sorted(
        p for p, ks in by_part.items()
        if any(E._filter_hits(blooms.get(f), E._key_hashes(ks)).any()
               for f in zip(desc[p]["paths"], desc[p]["rgs"])))
    tasks = []
    for _lake, _cols, _wd, ks, paths, _ranks, rgs in spy.calls:
        [p] = {int(x) for x in hash_partition(pa.array(ks), 8)}
        assert ks == by_part[p]
        assert set(zip(paths, rgs)) <= set(zip(desc[p]["paths"], desc[p]["rgs"]))
        tasks.append(p)
    assert sorted(tasks) == candidates


def test_lookup_opens_only_fragments_that_may_hold_the_key(tmp_path, monkeypatch):
    """A key held by k of its partition's n fragments opens those k plus
    the filters' false positives; a never-written key usually opens none
    and starts no task. Most keys of this lake have two events, so k is
    mostly 1 or 2 of n = 9."""
    files = _wal(tmp_path, n_keys=3000)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    eng.apply_wal(str(tmp_path / "wal"))
    state = oracle_replay_dict(files)
    live, deleted = _keys(files)
    desc = {d["part_id"]: d for d in eng._descriptors()}
    blooms = _blooms(eng)
    spy = _InProcess()
    monkeypatch.setattr(E, "_lookup_task", spy)
    opened = []
    real_open = E._open_fragment

    def counting_open(path):
        opened.append(os.path.relpath(path, eng.lake_dir))
        return real_open(path)

    monkeypatch.setattr(E, "_open_fragment", counting_open)
    n_total = n_held = n_opened = 0
    for key in live[::20] + deleted[:5] + NEVER:
        d = desc[int(hash_partition(pa.array([key]), 8)[0])]
        frags = list(zip(d["paths"], d["rgs"]))
        held = {p for p, g in frags if key in _doc_ids(eng, p, g)}
        maybe = {p for p, g in frags
                 if E._filter_hits(blooms[(p, g)], E._key_hashes([key]))[0]}
        opened.clear()
        spy.calls.clear()
        _check(eng, [key], state)
        assert held <= maybe
        assert sorted(opened) == sorted(maybe)  # each candidate once
        assert len(spy.calls) == (1 if maybe else 0)
        n_total += len(frags)
        n_held += len(held)
        n_opened += len(opened)
    assert n_opened < n_total / 2
    assert n_opened - n_held <= 0.05 * n_total


def test_key_filter_false_positive_rate(tmp_path):
    """At P = 32 (where ``hash_partition``'s hash would correlate a first
    probe with the partition), 10k absent keys pass a fragment's filter at
    most 3 % of the time, and every key a row group holds passes it."""
    files = _wal(tmp_path, n_events=20000, n_keys=8000, num_epochs=2,
                 shard_rows=5000)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=32)
    eng.apply_wal(str(tmp_path / "wal"))
    absent = [f"absent-{i:05d}" for i in range(10000)]
    assert not set(absent) & set(_last_events(files))
    h = E._key_hashes(absent)
    parts = hash_partition(pa.array(absent), 32)
    tests = hits = 0
    for (path, rg), bloom in _blooms(eng).items():
        held = sorted(_doc_ids(eng, path, rg))
        assert E._filter_hits(bloom, E._key_hashes(held)).all()
        assert len(bloom) <= 2 * len(held) or len(bloom) == 8
        hk = h[parts == hash_partition(pa.array(held[:1]), 32)[0]]
        tests += len(hk)
        hits += int(E._filter_hits(bloom, hk).sum())
    assert tests >= 10000 * 4
    assert hits / tests <= 0.03, hits / tests


def test_lookup_probes_every_fragment_of_segments_without_filters(tmp_path, monkeypatch):
    """A lake whose older intent segments have no ``bloom`` column (written
    before key filters existed) next to a newer one that has it: lookups
    match the oracle, every fragment of an old segment is probed, and a
    new one only when its filter admits the key."""
    files = _wal(tmp_path)
    segs = list_segments(str(tmp_path / "wal"))
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    for e, paths in segs[:2]:
        eng.apply_epoch(e, paths)
    old = set()
    for ep in eng.manifest.epochs:
        seg = os.path.join(lake, ep["path"])
        t = pq.read_table(seg)
        pq.write_table(t.drop_columns(["bloom"]), seg)
        old |= set(t["path"].to_pylist())
    eng.apply_epoch(*segs[2])
    eng = CDCEngine(lake)  # parses the rewritten segments afresh
    state = oracle_replay_dict(files)
    live, deleted = _keys(files)
    _check(eng, live[::5] + deleted + NEVER, state)

    desc = {d["part_id"]: d for d in eng._descriptors()}
    blooms = _blooms(eng)
    assert {p for (p, _), b in blooms.items() if b is None} == old
    spy = _InProcess()
    monkeypatch.setattr(E, "_lookup_task", spy)
    for key in live[:4] + deleted[:2] + NEVER:
        _check(eng, [key], state)
        [(_, _, _, _, paths, _, rgs)] = spy.calls
        spy.calls.clear()
        d = desc[int(hash_partition(pa.array([key]), 4)[0])]
        want = [(p, g) for p, g in zip(d["paths"], d["rgs"])
                if p in old or E._filter_hits(blooms[(p, g)],
                                              E._key_hashes([key]))[0]]
        assert list(zip(paths, rgs)) == want


def test_footer_cache_never_serves_a_rebuilt_lake(tmp_path):
    """In one Ray session, a lake is built and compacted, then deleted and
    rebuilt at the same path from other rows and compacted again: the
    bases of both builds have the same names, yet every ``lookup`` and
    ``scan_table`` (workers) and every driver-side read returns the new
    rows."""
    lake = str(tmp_path / "lake")
    names = []
    for seed in (1, 2):
        shutil.rmtree(lake, ignore_errors=True)
        files = _wal(tmp_path / f"w{seed}", seed=seed, n_events=3000,
                     n_keys=300)
        eng = CDCEngine(lake, num_partitions=2)
        eng.apply_wal(str(tmp_path / f"w{seed}" / "wal"))
        eng.compact()
        bases = sorted(p for d in eng._descriptors() for p in d["paths"])
        names.append(bases)
        state = oracle_replay_dict(files)
        live, deleted = _keys(files)
        for _ in range(4):  # several tasks, so several workers cache footers
            _check(eng, live[::9] + deleted[:5], state)
            _check(eng, live[:1], state)
            got = {r["doc_id"]: r["tokens"] for r in eng.scan_table().to_pylist()}
            assert got == {k: v["tokens"] for k, v in state.items()}
        for b in bases:
            full = os.path.join(lake, b)
            assert E._read_fragment(full, -1).equals(pq.read_table(full))
    assert names[0] == names[1]


def _segments(m):
    return {ep["path"] for ep in m.epochs if ep["path"]}


def test_descriptor_cache_never_serves_a_stale_plan(tmp_path, monkeypatch):
    files = _wal(tmp_path, num_epochs=4)
    segs = list_segments(str(tmp_path / "wal"))
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)

    def check(m=None):
        got = eng._descriptors(m)
        assert got == CDCEngine(lake)._descriptors(m)
        assert set(eng._segment_rows) == _segments(m or eng.manifest)
        return got

    for e, paths in segs[:2]:
        eng.apply_epoch(e, paths)
    first = check()
    # a repeated resolve reads no intent segment
    with monkeypatch.context() as mp:
        mp.setattr(E.pq, "read_table", lambda *a, **kw: 1 / 0)
        assert eng._descriptors() == first
    eng.apply_epoch(*segs[2])  # a new epoch
    check()
    eng.compact()
    eng.vacuum()
    assert check() and not eng._segment_rows
    eng.apply_epoch(*segs[3])
    check()
    v_old = eng.manifest.version
    eng.reshard(5, row_group_size=64)
    check()
    old = mf.load_version(lake, v_old)  # retained older version
    assert _segments(old)
    check(old)
    check()
    _check(eng, sorted(oracle_replay_dict(files))[:20],
           oracle_replay_dict(files))
