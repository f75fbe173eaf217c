"""Incremental near-dup (MinHash/LSH) index: cdc/neardupidx.py.

Fixtures use disjoint token FAMILIES: docs of one family share a 300-token
base with 1 token perturbed per doc (shingle Jaccard ≥ ~0.93, est ≥ 0.9),
docs of different families share no tokens at all (est ≈ 0) — so a 0.8
threshold separates them deterministically under the fixed hasher seed.
"""

import glob
import os

import numpy as np
import pyarrow as pa
import pytest

from go_tfdata_ray.cdc.engine import CDCEngine

THRESH = 0.8
FAM_LEN = 300


def _tok_table(ids, toks, src="s"):
    return pa.table({
        "doc_id": pa.array(ids),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "source": pa.array([src] * len(ids)),
    })


def _fam_doc(family: int, variant: int) -> list[int]:
    """A near-dup member of ``family``: the family base with one token
    swapped for a variant-unique sentinel (variant 0 = the base itself)."""
    base = list(range(family * 1000, family * 1000 + FAM_LEN))
    if variant:
        base[(variant * 37) % FAM_LEN] = 900_000 + family * 100 + variant
    return base


def test_neardup_incremental_bootstrap_and_probe(tmp_path):
    """Bootstrap collapses planted in-batch near-pairs (min-key survivor);
    a later near-dup of a live incumbent loses; a new family survives."""
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    ids = [f"orig{f}" for f in range(5)] + [f"ndup{f}" for f in range(5)]
    toks = [_fam_doc(f, 0) for f in range(5)] + [_fam_doc(f, 1) for f in range(5)]
    eng.upsert(_tok_table(ids, toks))
    out = eng.neardup_incremental(num_shards=8, threshold=THRESH)
    assert out["bootstrap"] and out["deleted"] == 5, out
    alive = set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"])
    assert alive == {f"ndup{f}" for f in range(5)}  # "ndup" < "orig"

    # steady state: near-dup of family 0 loses to the live incumbent;
    # a brand-new family survives
    eng.upsert(_tok_table(["z0", "fresh"], [_fam_doc(0, 2), _fam_doc(9, 0)]))
    out = eng.neardup_incremental()
    assert not out["bootstrap"] and out["deleted"] == 1, out
    alive = set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"])
    assert "z0" not in alive and "fresh" in alive

    # no-op run: empty feed, nothing deleted, no index shards read
    out = eng.neardup_incremental()
    assert out["deleted"] == 0 and out["candidates"] == 0


def test_neardup_incremental_staleness(tmp_path):
    """Stale postings (incumbent updated or deleted) never cause a wrong
    delete and never shadow the live state — the near-dup twin of the
    exact index's staleness contract."""
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    eng.upsert(_tok_table(["a1", "b1"], [_fam_doc(0, 0), _fam_doc(1, 0)]))
    out = eng.neardup_incremental(num_shards=8, threshold=THRESH)
    assert out["bootstrap"] and out["deleted"] == 0

    # stale via UPDATE: b1 moves to family 3; a family-1 near-dup must
    # SURVIVE (nothing live holds family 1 anymore)
    eng.upsert(_tok_table(["b1"], [_fam_doc(3, 0)]))
    out = eng.neardup_incremental()          # indexes b1's new content
    assert out["deleted"] == 0
    eng.upsert(_tok_table(["b9"], [_fam_doc(1, 1)]))
    out = eng.neardup_incremental()
    assert out["deleted"] == 0, out
    alive = set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"])
    assert alive == {"a1", "b1", "b9"}

    # b9 is now the family-1 incumbent: a later member loses to it
    eng.upsert(_tok_table(["b8"], [_fam_doc(1, 2)]))
    assert eng.neardup_incremental()["deleted"] == 1
    assert "b8" not in set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"])

    # b1's CURRENT content is indexed: a family-3 near-dup loses
    eng.upsert(_tok_table(["c3"], [_fam_doc(3, 1)]))
    assert eng.neardup_incremental()["deleted"] == 1

    # stale via DELETE: family-0 incumbent removed; a near member survives
    # and becomes the incumbent; the next one loses to IT
    eng.delete_where(doc_ids=["a1"])
    eng.upsert(_tok_table(["a5"], [_fam_doc(0, 1)]))
    assert eng.neardup_incremental()["deleted"] == 0
    eng.upsert(_tok_table(["a6"], [_fam_doc(0, 2)]))
    assert eng.neardup_incremental()["deleted"] == 1
    alive = set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"])
    assert "a5" in alive and "a6" not in alive


def test_neardup_matches_batch_minhash(tmp_path):
    """Bootstrap over a planted corpus deletes the same docs as the batch
    ``dedup_lake(method="minhash")`` maintenance op on an identical lake
    (same banding constants, same contraction semantics)."""
    ids = ([f"orig{f:02d}" for f in range(8)]
           + [f"near{f:02d}" for f in range(8)]
           + [f"solo{f:02d}" for f in range(4)])
    toks = ([_fam_doc(f, 0) for f in range(8)]
            + [_fam_doc(f, 1) for f in range(8)]
            + [_fam_doc(20 + f, 0) for f in range(4)])

    lakes, alive = [str(tmp_path / f"lake{i}") for i in (0, 1)], []
    for i, lake in enumerate(lakes):
        eng = CDCEngine(lake, num_partitions=4)
        eng.upsert(_tok_table(ids, toks))
        if i == 0:
            out = eng.dedup_lake(method="minhash", threshold=THRESH,
                                 k=5, n_perm=64, bands=16, num_shards=8)
        else:
            out = eng.neardup_incremental(num_shards=8, threshold=THRESH,
                                          k=5, n_perm=64, bands=16)
        assert out["deleted"] == 8, out
        alive.append(set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"]))
    assert alive[0] == alive[1]


def test_neardup_index_compaction(tmp_path):
    """Posting/sig piles accumulate per run; compaction folds each shard to
    one live segment without changing probe results."""
    from go_tfdata_ray.cdc import neardupidx

    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    for f in range(5):
        eng.upsert(_tok_table([f"x{f}"], [_fam_doc(f, 0)]))
        eng.neardup_incremental(num_shards=4, threshold=THRESH,
                                compact_over=0)
    idx_dir = str(tmp_path / "lake" / "_neardup_index")
    before = len(glob.glob(os.path.join(idx_dir, "*-*.parquet")))
    assert before >= 10  # ≥1 post + 1 sig segment per run
    stats = neardupidx.compact_neardup_index(lake)
    after = len(glob.glob(os.path.join(idx_dir, "*-*.parquet")))
    assert stats["removed_segments"] > 0 and after < before

    # results unchanged post-compaction: near-dup of run-0 content loses
    eng.upsert(_tok_table(["zzz"], [_fam_doc(0, 3)]))
    out = eng.neardup_incremental()
    assert out["deleted"] == 1
    assert "zzz" not in set(eng.scan(columns=["doc_id"]).to_pandas()["doc_id"])


def test_neardup_parameter_pinning(tmp_path):
    """The signature-space parameters are pinned at index creation; a
    conflicting explicit value raises instead of mixing spaces."""
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    eng.upsert(_tok_table(["a"], [_fam_doc(0, 0)]))
    eng.neardup_incremental(num_shards=8, n_perm=64, bands=16, k=5)
    with pytest.raises(ValueError, match="pins"):
        eng.neardup_incremental(bands=8)
    with pytest.raises(ValueError, match="pins"):
        eng.neardup_incremental(k=3)
    # threshold is per-run, not pinned
    out = eng.neardup_incremental(threshold=0.99)
    assert out["deleted"] == 0


def test_tail_auto_neardup_with_compaction(tmp_path):
    """Near-dup-on-ingest: tail(auto_neardup=1) tombstones near-duplicates
    as epochs land; combined with auto_compact the near-dup drains the
    change feed BEFORE compaction folds it (no full-resync error); the
    final state holds exactly one live doc per family."""
    import pyarrow.parquet as pq

    from go_tfdata_ray.sources import wal as walmod

    wal = str(tmp_path / "wal")
    seq = 0
    variant = 1
    for e in range(5):  # each epoch re-drops near-variants of 4 families
        d = walmod.open_segment(wal, e)
        ids = [f"e{e}d{i}" for i in range(4)]
        toks = []
        for i in range(4):
            toks.append(_fam_doc((e + i) % 4, variant))
            variant += 1
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
                 auto_neardup=1, auto_compact=3)
    assert m["epochs_applied"] == 5
    assert m["rows_deduped"] == 20 - 4  # 20 drops, 4 families
    alive = eng.scan(columns=["doc_id", "tokens"]).to_pandas()
    assert len(alive) == 4
    fams = sorted(int(t[0]) // 1000 for t in alive["tokens"])
    assert fams == [0, 1, 2, 3]


@pytest.mark.parametrize("seed", [17, 99])
def test_neardup_incremental_family_churn(tmp_path, seed):
    """Randomized insert/update/delete churn over disjoint families with a
    near-dup run after every epoch: (1) no two live docs ever share a
    family, (2) every family present pre-dedup keeps exactly one live
    representative, (3) surviving rows are genuine."""
    lake = str(tmp_path / "lake")
    eng = CDCEngine(lake, num_partitions=4)
    rng = np.random.default_rng(seed)
    keys = [f"k{i:03d}" for i in range(24)]
    state: dict[str, tuple[int, int]] = {}  # doc -> (family, variant)
    next_variant = 1

    for _round in range(4):
        n = int(rng.integers(4, 10))
        ids = list(rng.choice(keys, n, replace=False))
        fams = [int(rng.integers(0, 6)) for _ in ids]
        toks = []
        for f in fams:
            toks.append(_fam_doc(f, next_variant))
            next_variant += 1
        eng.upsert(_tok_table(ids, toks))
        for d, f, v in zip(ids, fams, range(next_variant - n, next_variant)):
            state[d] = (f, v)
        if _round % 2 == 1 and state:
            victims = sorted(state)[:2]
            eng.delete_where(doc_ids=victims)
            for v in victims:
                state.pop(v)
        eng.neardup_incremental(num_shards=8, threshold=THRESH)
        alive = eng.scan(columns=["doc_id", "tokens"]).to_pandas()
        got_fams: dict[str, int] = {}
        for d, t in zip(alive["doc_id"], alive["tokens"]):
            assert d in state, f"resurrected doc {d}"
            fam, var = state[d]
            assert list(t) == _fam_doc(fam, var), f"corrupted row {d}"
            assert fam not in got_fams.values(), (
                f"two live docs share family {fam}")
            got_fams[d] = fam
        assert set(got_fams.values()) == {f for f, _ in state.values()}, (
            "a family lost its last representative")
        # survivors define the model state for the next round
        state = {d: state[d] for d in got_fams}
